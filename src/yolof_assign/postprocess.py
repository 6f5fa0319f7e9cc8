"""Greedy non-maximum suppression."""

from __future__ import annotations

import numpy as np

from .geometry import as_boxes, pairwise_iou

# rows of a class compared per pairwise_iou call: memory stays
# _BLOCK x (class size) floats, and few calls cover a long class
_BLOCK = 32


def nms(boxes, scores, class_ids, iou_threshold: float = 0.6) -> list:
    """Class-wise greedy NMS; returns kept input indices in kept order.

    ``boxes`` is ``(N, 4)``, ``scores`` and ``class_ids`` have N entries.
    A detection survives iff its IoU with every already-kept same-class
    detection is at most ``iou_threshold``.

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

