"""Command-line entry point.

Subcommands: ``anchors``, ``match-stats``, ``rf``, ``flops``, ``nms``,
``shift``.  Exit codes: 0 success, 1 usage error, 2 data error.  Output
goes to ``--output`` (written atomically) or standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys

import numpy as np

from . import reports
from .coco import (CorpusError, RunConfig, as_int64, as_number,
                   bbox_values, convert_rows, load_corpus, raise_first,
                   read_json, run_match_stats, typed_columns)
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


def _typed_detections(doc: list):
    """The columns of ``doc`` (``(N, 4)`` boxes, box lengths, scores, class
    ids) if every record is an object whose bbox is an array of 4 JSON
    numbers, whose score is a JSON number and whose category_id a JSON
    integer that int64 holds; otherwise None."""
    columns = typed_columns(doc, bbox="box", score="number",
                            category_id="int")
    if columns is None:
        return None
    boxes, scores, cats = columns
    return boxes, np.full(len(cats), 4), scores, cats


def _converted_detections(doc: list, path) -> tuple:
    """The columns of :func:`_typed_detections`, converted by
    :func:`convert_rows` up to the first record that does not convert; and
    that record's error, or None.  A box of another length than 4 is
    padded with zeros or cut to 4 values; its length refuses it."""
    rows, failure = convert_rows(doc, lambda row: (
        tuple(map(as_number, bbox_values(row["bbox"]))),
        as_number(row["score"]), as_int64(row["category_id"])),
        lambda i, row: f"{path}: bad detection #{i}")
    boxes, scores, cats = zip(*rows) if rows else ((), (), ())
    return (np.array([(box + (0.0,) * 4)[:4] for box in boxes],
                     dtype=np.float64).reshape(-1, 4),
            np.array(list(map(len, boxes)), dtype=np.int64),
            np.array(scores, dtype=np.float64),
            np.array(cats, dtype=np.int64)), failure


def _checked_detections(path, boxes, lengths, scores, cats,
                        failure) -> tuple:
    """The (boxes, scores, class ids) of a detection file's columns, every
    rule checked here and only here, in this order: a box of 4 finite
    values, a score in [0, 1] and a class id of at least 0 (see
    :func:`raise_first`; ``failure`` is the error of the record after the
    columns)."""
    def messages(i):
        return (f"{path}: bad detection #{i}: {fault}" for fault in (
            f"box must have 4 values, got {lengths[i]}",
            f"box must be finite, got {tuple(boxes[i].tolist())}",
            f"score must be finite in [0, 1], got {float(scores[i])}",
            "class_id must be non-negative"))
    x1, y1, x2, y2 = boxes.T
    raise_first([lengths != 4, ~(np.isfinite(x1) & np.isfinite(y1)
                                 & np.isfinite(x2) & np.isfinite(y2)),
                 ~((scores >= 0.0) & (scores <= 1.0)), cats < 0],
                messages, failure)
    return boxes, scores, cats


def _load_detections(path) -> tuple:
    """A detection file's (boxes, scores, class ids) columns.  A file of
    plain JSON values is taken as columns (:func:`_typed_detections`),
    any other is converted record by record
    (:func:`_converted_detections`); then :func:`_checked_detections`
    checks every rule, so the first bad record names the fault."""
    doc = read_json(path, list)
    columns, failure = _typed_detections(doc), None
    if columns is None:
        columns, failure = _converted_detections(doc, path)
    return _checked_detections(path, *columns, failure)


def _cmd_nms(args) -> None:
    boxes, scores, class_ids = _load_detections(args.input)
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
    except (CorpusError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    finally:
        if enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
