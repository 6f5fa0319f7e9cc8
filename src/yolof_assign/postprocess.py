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


def nms(dets, iou_threshold: float = 0.6) -> list:
    """Class-wise greedy NMS; returns kept input indices in kept order.

    A detection survives iff its IoU with every already-kept same-class
    detection is at most ``iou_threshold``.  Each kept box is compared
    once with the later boxes of its class still standing, so memory stays
    O(N).  Boxes keep their own coordinates: offsetting classes apart
    would change IoU rounding at the threshold.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError("iou_threshold must lie in [0, 1]")
    if not dets:
        return []
    boxes = as_boxes([d.box for d in dets])
    scores = np.array([d.score for d in dets])
    classes = np.array([d.class_id for d in dets])
    # descending score, ties by ascending input index, then grouped by class
    order = np.argsort(-scores, kind="stable")
    order = order[np.argsort(classes[order], kind="stable")]
    cls = classes[order]
    alive = np.ones(len(order), dtype=bool)
    for i in range(len(order)):
        if not alive[i]:
            continue
        end = np.searchsorted(cls, cls[i], side="right")
        rest = np.flatnonzero(alive[i + 1:end]) + (i + 1)
        if len(rest):
            ious = pairwise_iou(boxes[order[i:i + 1]], boxes[order[rest]])
            alive[rest[ious[0] > iou_threshold]] = False
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
