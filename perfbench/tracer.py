"""Span recording around the program's layers, and the per-layer metrics.

The child installs a :class:`Tracer`, which replaces each traced function
at the module attribute its caller looks it up through (``cli`` imports
``load_corpus`` and ``nms`` by name, so those are wrapped in ``cli``).
Each call records a span ``[name, start, end, parent, op, extra]``; spans
stay in memory and are dumped once the command has finished.  Tracing is
only used single-threaded, so one stack gives every span its parent.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np

MATCHERS = ("uniform", "topk", "max_iou", "atss", "hungarian")
IMAGE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _pairs(args, kwargs, result):
    return [len(args[0]), len(args[1])]


def _match_counts(args, kwargs, result):
    from yolof_assign.matching import IGNORED
    labels = result.labels
    return [int(np.count_nonzero(labels >= 0)),
            int(np.count_nonzero(labels == IGNORED)),
            sum(1 for p in result.gt_positives if len(p) == 0)]


# (span name, lookup module, attribute path, extra recorded from the call)
TARGETS = [
    ("coco.load_corpus", "cli", "load_corpus", None),
    ("coco.ground_truths", "coco", "AnnotationCorpus.ground_truths",
     lambda args, kwargs, result: len(result)),
    ("geometry.generate_anchors", "coco", "generate_anchors", None),
    ("geometry.apply_shift", "coco", "apply_shift", None),
    ("matching.pairwise_iou", "matching", "pairwise_iou", _pairs),
    ("postprocess.pairwise_iou", "postprocess", "pairwise_iou", _pairs),
    *[(f"matching.{m}_match", "matching", f"{m}_match", _match_counts)
      for m in MATCHERS],
    ("matching.nearest_candidates", "matching", "nearest_candidates", None),
    ("matching.solve_assignment", "matching", "solve_assignment", None),
    ("balance.distribution", "coco", "distribution",
     lambda args, kwargs, result: len(result.per_gt_counts)),
    ("reports.distribution_to_dict", "reports", "distribution_to_dict", None),
    ("reports.to_json", "reports", "to_json", None),
    ("reports.write_atomic", "reports", "write_atomic",
     lambda args, kwargs, result: len(args[1].encode("utf-8"))),
    ("postprocess.nms", "cli", "nms",
     lambda args, kwargs, result: [len(args[0]), len(result)]),
]


class Tracer:
    """Records one span per call of each function in :data:`TARGETS`."""

    def __init__(self, op: int):
        self.op = op
        self.spans = []
        self.stack = []

    def install(self) -> None:
        """Wrap every target; a missing attribute raises AttributeError."""
        for name, module, path, extra in TARGETS:
            owner = importlib.import_module(f"yolof_assign.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                raise AttributeError(
                    f"traced attribute yolof_assign.{module}.{path} is "
                    f"missing; the {name} layer would read as zero")
            setattr(owner, attr, self._wrap(name, fn, extra))

    def _wrap(self, name, fn, extra):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.op, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _now()
                self.stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result
        return traced

    def dump(self, path, t_start: float, t_end: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": self.op, "window": [t_start, t_end],
                       "fields": ["name", "start", "end", "parent", "op",
                                  "extra"],
                       "spans": self.spans}, fh)


# Per-layer metrics, with their units.  Times are per operation; counts
# must repeat exactly between traced operations.  The end-to-end metric
# each should move, and where:
#   coco.*                      items_per_s on match-many-small, hardly on
#                               match-sweep
#   geometry.anchors_*, shift_s items_per_s on match-many-small; each
#                               matcher's images/s on match-sweep
#   geometry.iou_*              each matcher's images/s on match-sweep;
#                               items_per_s and peak_rss_mb on nms-4k
#   matching.<m>_self_s         matcher <m>'s images/s on match-sweep
#   matching.candidates_s       uniform and topk images/s on match-sweep
#   matching.assign_s           hungarian images/s on match-sweep
#   balance.*                   items_per_s, peak_rss_mb on match-many-small
#   reports.*                   items_per_s on match-many-small
#   postprocess.*               items_per_s on nms-4k
TIME_METRICS = {
    "coco.parse_s": "s", "coco.gt_lookup_s": "s",
    "coco.image_ms_p50": "ms", "coco.image_ms_tail": "ms",
    "geometry.anchors_s": "s", "geometry.shift_s": "s", "geometry.iou_s": "s",
    **{f"matching.{m}_self_s": "s" for m in MATCHERS},
    "matching.candidates_s": "s", "matching.assign_s": "s",
    "balance.aggregate_s": "s",
    "reports.serialize_s": "s", "reports.write_s": "s",
    "postprocess.nms_self_s": "s",
    "cli.unattributed_s": "s",
}
COUNT_METRICS = {
    "coco.images": "count", "coco.gts": "count",
    "coco.image_samples": "count", "coco.image_tail_pct": "%",
    "geometry.anchors_calls": "count", "geometry.iou_pairs": "count",
    "geometry.iou_bytes_computed": "bytes",
    "matching.positives": "count", "matching.ignored": "count",
    "matching.zero_positive_gts": "count",
    "balance.per_gt_entries": "count", "reports.output_bytes": "bytes",
    "postprocess.kept": "count", "postprocess.kept_ratio": "ratio",
}


def tail_percentile(n: int) -> float:
    """Highest percentile of IMAGE_PERCENTILES with >= 10 of n beyond it."""
    for p in IMAGE_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 0.0


def analyse(dump: dict):
    """Per-layer times, counts and per-image milliseconds of one operation."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = {}
    for name, start, end, _, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def calls(name):
        return [s for s in spans if s[0] == name]

    # a matcher called by another (topk calls uniform) is charged to the
    # outermost one, the matcher the CLI command asked for
    matcher_self = {m: 0.0 for m in MATCHERS}
    outer_results = []
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        if not name.endswith("_match"):
            continue
        outer = i
        while spans[outer][3] >= 0 and \
                spans[spans[outer][3]][0].endswith("_match"):
            outer = spans[outer][3]
        if outer == i:
            outer_results.append(extra)
        matcher = spans[outer][0][len("matching."):-len("_match")]
        matcher_self[matcher] += end - start - child_time[i]

    # Single-threaded, an image's work runs from its GT lookup to the next
    # image's, or to the aggregation that ends its match-stats command.
    gt_starts = [s[1] for s in calls("coco.ground_truths")]
    events = sorted([(t, True) for t in gt_starts]
                    + [(s[1], False) for s in calls("balance.distribution")]
                    + [(dump["window"][1], False)])
    image_ms = [(b[0] - a[0]) * 1e3 for a, b in zip(events, events[1:])
                if a[1]]

    iou_pairs = [s[5] for s in spans if s[0].endswith(".pairwise_iou")]
    nms_calls = [s[5] for s in calls("postprocess.nms")]
    window = dump["window"][1] - dump["window"][0]
    times = {
        "coco.parse_s": tot("coco.load_corpus"),
        "coco.gt_lookup_s": tot("coco.ground_truths"),
        "geometry.anchors_s": tot("geometry.generate_anchors"),
        "geometry.shift_s": tot("geometry.apply_shift"),
        "geometry.iou_s": tot("matching.pairwise_iou",
                              "postprocess.pairwise_iou"),
        **{f"matching.{m}_self_s": matcher_self[m] for m in MATCHERS},
        "matching.candidates_s": tot("matching.nearest_candidates"),
        "matching.assign_s": tot("matching.solve_assignment"),
        "balance.aggregate_s": tot("balance.distribution"),
        "reports.serialize_s": tot("reports.distribution_to_dict",
                                   "reports.to_json"),
        "reports.write_s": tot("reports.write_atomic"),
        "postprocess.nms_self_s": tot("postprocess.nms") - sum(
            child_time[i] for i, s in enumerate(spans)
            if s[0] == "postprocess.nms"),
        "cli.unattributed_s": window - sum(
            s[2] - s[1] for s in spans if s[3] < 0),
    }
    nms_in = sum(c[0] for c in nms_calls)
    nms_kept = sum(c[1] for c in nms_calls)
    counts = {
        "coco.images": len(gt_starts),
        "coco.gts": sum(s[5] for s in calls("coco.ground_truths")),
        "coco.image_samples": len(image_ms),
        "coco.image_tail_pct": tail_percentile(len(image_ms)),
        "geometry.anchors_calls": len(calls("geometry.generate_anchors")),
        "geometry.iou_pairs": sum(n * m for n, m in iou_pairs),
        # computed from array shapes, not measured: the float64 input
        # boxes read plus the IoU matrix written, per call
        "geometry.iou_bytes_computed": sum(8 * (4 * n + 4 * m + n * m)
                                           for n, m in iou_pairs),
        "matching.positives": sum(r[0] for r in outer_results),
        "matching.ignored": sum(r[1] for r in outer_results),
        "matching.zero_positive_gts": sum(r[2] for r in outer_results),
        "balance.per_gt_entries": sum(
            s[5] for s in calls("balance.distribution")),
        "reports.output_bytes": sum(s[5] for s in calls("reports.write_atomic")),
        "postprocess.kept": nms_kept,
        "postprocess.kept_ratio": nms_kept / nms_in if nms_in else 0.0,
    }
    return times, counts, image_ms


def summarise(dumps: list):
    """Median per-op times and the counts over traced operations.

    Returns ``(metrics, unstable)`` where ``unstable`` names the counts
    that differ between operations; they must repeat exactly.
    """
    analysed = [analyse(d) for d in dumps]
    metrics = {name: float(np.median([a[0][name] for a in analysed]))
               for name in TIME_METRICS if name in analysed[0][0]}
    image_ms = [ms for a in analysed for ms in a[2]]
    counts = analysed[0][1]
    for name, pct in (("coco.image_ms_p50", 50.0),
                      ("coco.image_ms_tail", counts["coco.image_tail_pct"])):
        metrics[name] = float(np.percentile(image_ms, pct)) if image_ms \
            else 0.0
    metrics.update(counts)
    unstable = sorted(k for k in counts
                      if any(a[1][k] != counts[k] for a in analysed[1:]))
    return metrics, unstable
