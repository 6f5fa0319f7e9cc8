"""Command-line entry point.

Subcommands: ``anchors``, ``match-stats``, ``rf``, ``flops``, ``nms``,
``shift``.  Exit codes: 0 success, 1 usage error, 2 data error (an
input too large for memory among them).  Output goes to ``--output``
(written atomically) or standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys

from . import reports
from .coco import (CorpusError, RunConfig, load_corpus, load_detections,
                   run_match_stats)
from .encoder import EncoderSpec, rf_profile, scale_coverage
from .flops import DecoderSpec, EncoderTopology, encoder_decoder_flops
from .geometry import ImageSize, generate_anchors
from .postprocess import nms

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _parse_image(text: str) -> ImageSize:
    try:
        w, h = text.lower().split("x")
        return ImageSize(int(w), int(h))
    except ValueError:
        raise CorpusError(f"bad --image value {text!r}; expected WxH")


def _parse_dilations(text: str) -> tuple:
    try:
        return tuple(int(d) for d in text.split(",")) if text else ()
    except ValueError:
        raise CorpusError(f"bad --dilations value {text!r}; expected "
                          f"comma-separated integers")


def _emit(text: str, output: str | None) -> None:
    if output:
        reports.write_atomic(output, text)
    else:
        sys.stdout.write(text)


def _cmd_anchors(args) -> None:
    config = RunConfig.load(args.config)
    image = _parse_image(args.image)
    grid = generate_anchors(config.anchors, image)
    doc = {
        "image": {"width": image.width, "height": image.height},
        "stride": config.anchors.stride,
        "grid_h": grid.grid_h,
        "grid_w": grid.grid_w,
        "anchors_per_position": config.anchors.anchors_per_position,
        "count": len(grid),
    }
    _emit(reports.to_json(doc), args.output)


def _cmd_match_stats(args) -> None:
    config = RunConfig.load(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    corpus = load_corpus(args.input)
    dist = run_match_stats(corpus, config)
    if args.format == "csv":
        _emit(reports.distribution_to_csv(dist), args.output)
    else:
        _emit(reports.distribution_to_json(
            dist, seed=config.seed, dropped_annotations=corpus.dropped),
            args.output)


def _cmd_rf(args) -> None:
    dilations = _parse_dilations(args.dilations)
    spec = EncoderSpec(num_blocks=len(dilations), dilations=dilations,
                       shortcuts=not args.no_shortcuts)
    profile = rf_profile(spec)
    bands, union, gaps = scale_coverage(profile, args.stride)
    doc = {
        "dilations": list(dilations),
        "shortcuts": spec.shortcuts,
        "extents": list(profile.extents),
        "max_extent": profile.max_extent,
        "pixel_coverage": profile.pixel_coverage(args.stride),
        "scale_bands": [list(b) for b in bands],
        "scale_union": [list(b) for b in union],
        "scale_gaps": [list(g) for g in gaps],
    }
    _emit(reports.to_json(doc), args.output)


def _cmd_flops(args) -> None:
    image = _parse_image(args.image)
    if args.topology.lower() == "yolof":
        topology = EncoderTopology.from_encoder_spec(EncoderSpec())
        decoder = DecoderSpec(cls_convs=2, reg_convs=4, channels=512,
                              anchors_per_position=5, objectness=True)
    else:
        topology = EncoderTopology.by_name(args.topology, args.channels)
        decoder = DecoderSpec(cls_convs=args.head_convs,
                              reg_convs=args.head_convs,
                              channels=args.channels,
                              anchors_per_position=args.anchors_per_position)
    report = encoder_decoder_flops(topology, decoder, image)
    doc = {
        "topology": report.topology,
        "image": {"width": image.width, "height": image.height},
        "encoder_macs": report.encoder_total,
        "decoder_macs": report.decoder_total,
        "total_macs": report.total,
        "per_level": report.per_level(),
        "encoder_layers": [
            {"name": n, "level": l, "macs": m}
            for n, l, m in report.encoder_layers],
        "decoder_layers": [
            {"name": n, "level": l, "macs": m}
            for n, l, m in report.decoder_layers],
        "notes": report.notes,
    }
    _emit(reports.to_json(doc), args.output)


def _cmd_nms(args) -> None:
    boxes, scores, class_ids = load_detections(args.input)
    kept = nms(boxes, scores, class_ids, iou_threshold=args.iou)
    _emit(reports.detections_to_json(boxes[kept], scores[kept],
                                     class_ids[kept]), args.output)


def _cmd_shift(args) -> None:
    shifted = load_corpus(args.input).shifted(args.max_shift, args.seed)
    _emit(reports.to_json(shifted.to_dict()), args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="yolof-assign",
                     description="Label assignment, receptive field, and "
                                 "FLOPs analysis for single-level detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anchors", help="count and describe the anchor grid")
    p.add_argument("--config", default="default")
    p.add_argument("--image", required=True, help="image size as WxH")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_anchors)

    p = sub.add_parser("match-stats",
                       help="run a matcher over a COCO-format corpus")
    p.add_argument("--config", default="default")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_match_stats)

    p = sub.add_parser("rf", help="analytic receptive-field profile")
    p.add_argument("--dilations", default="2,4,6,8",
                   help="comma-separated block dilations")
    p.add_argument("--no-shortcuts", action="store_true")
    p.add_argument("--stride", type=int, default=32)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_rf)

    p = sub.add_parser("flops", help="encoder+decoder MAC accounting")
    p.add_argument("--topology", default="siso",
                   help="mimo | simo | miso | siso | yolof")
    p.add_argument("--image", default="800x1280", help="image size as WxH")
    p.add_argument("--channels", type=int, default=256)
    p.add_argument("--head-convs", type=int, default=4)
    p.add_argument("--anchors-per-position", type=int, default=9)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("nms", help="greedy NMS over a detection list")
    p.add_argument("--input", required=True)
    p.add_argument("--iou", type=float, default=0.6)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_nms)

    p = sub.add_parser("shift", help="random-shift corpus annotations")
    p.add_argument("--input", required=True)
    p.add_argument("--max-shift", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_shift)
    return parser


_parser = None  # built by the first main() call, then reused


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call and reused.  The command runs
    with the cyclic GC off, and the caller's GC state is restored when it
    ends: loading a corpus builds millions of containers, each counting
    toward a collection, and a command leaves no cycles worth collecting.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        args.func(args)
    except (CorpusError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    finally:
        if enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
