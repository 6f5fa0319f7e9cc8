"""Score filtering and greedy non-maximum suppression."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_boxes, pairwise_iou


@dataclass(frozen=True)
class Detection:
    """One scored prediction box."""

    box: tuple  # (x1, y1, x2, y2)
    score: float
    class_id: int

    def __post_init__(self):
        if len(self.box) != 4:
            raise ValueError(f"box must have 4 values, got {len(self.box)}")
        if not all(map(math.isfinite, self.box)):
            raise ValueError(f"box must be finite, got {self.box}")
        if not np.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be finite in [0, 1], got {self.score}")
        if self.class_id < 0:
            raise ValueError("class_id must be non-negative")


def _sorted_order(dets) -> list:
    # descending score, ties by ascending input index
    return sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))


def detection_columns(dets) -> tuple:
    """A sequence of :class:`Detection` as the ``(boxes, scores,
    class_ids)`` columns :func:`nms` takes."""
    return (as_boxes([d.box for d in dets]),
            np.array([d.score for d in dets], dtype=np.float64),
            np.array([d.class_id for d in dets], dtype=np.int64))


# rows of a class compared per pairwise_iou call: memory stays
# _BLOCK x (class size) floats, and few calls cover a long class
_BLOCK = 32


def nms(boxes, scores, class_ids, iou_threshold: float = 0.6) -> list:
    """Class-wise greedy NMS; returns kept input indices in kept order.

    ``boxes`` is ``(N, 4)``, ``scores`` and ``class_ids`` have N entries
    (see :func:`detection_columns`).  A detection survives iff its IoU
    with every already-kept same-class detection is at most
    ``iou_threshold``.

    Each class is walked in descending score, ties by input index, in
    blocks of ``_BLOCK`` rows.  One ``pairwise_iou`` call scores a block's
    rows still standing against every row from the block's start to the
    class's end, so memory stays O(N); inside the block each kept row then
    strikes the later rows it overlaps.  ``pairwise_iou`` works element by
    element, so each pair gets the float a one-row call would give.  Boxes
    keep their own coordinates: offsetting classes apart would change IoU
    rounding at the threshold.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must lie in [0, 1]")
    boxes = as_boxes(boxes)
    scores = np.asarray(scores, dtype=np.float64)
    class_ids = np.asarray(class_ids)
    if not len(boxes) == len(scores) == len(class_ids):
        raise ValueError(f"got {len(boxes)} boxes, {len(scores)} scores and "
                         f"{len(class_ids)} class ids")
    # descending score, ties by ascending input index, then grouped by class
    order = np.argsort(-scores, kind="stable")
    order = order[np.argsort(class_ids[order], kind="stable")]
    boxes = boxes[order]
    cls = class_ids[order]
    class_ends = np.flatnonzero(cls[1:] != cls[:-1]) + 1
    alive = np.ones(len(order), dtype=bool)
    for start, end in zip([0, *class_ends.tolist()],
                          [*class_ends.tolist(), len(order)]):
        for block in range(start, end, _BLOCK):
            stop = min(block + _BLOCK, end)
            rows = np.flatnonzero(alive[block:stop]) + block
            if not len(rows):
                continue
            stay = ~(pairwise_iou(boxes[rows], boxes[block:end])
                     > iou_threshold)
            for row, row_stay in zip(rows.tolist(), stay):
                if alive[row]:
                    alive[row + 1:end] &= row_stay[row + 1 - block:]
    kept = order[alive]
    return kept[np.lexsort((kept, -scores[kept]))].tolist()


def score_filter(dets, min_score: float = 0.0,
                 max_keep: int | None = None) -> list:
    """Drop detections below ``min_score``, keep at most ``max_keep`` best."""
    if not 0.0 <= min_score <= 1.0:
        raise ValueError("min_score must lie in [0, 1]")
    if max_keep is not None and max_keep < 0:
        raise ValueError("max_keep must be >= 0")
    order = [i for i in _sorted_order(dets) if dets[i].score >= min_score]
    if max_keep is not None:
        order = order[:max_keep]
    return [dets[i] for i in order]
