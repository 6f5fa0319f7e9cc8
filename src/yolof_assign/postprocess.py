"""Greedy non-maximum suppression."""

from __future__ import annotations

import numpy as np

from .geometry import as_boxes, box_area, pairwise_iou

# standing rows of a class scored per pairwise_iou call: memory stays
# _BLOCK x (class size) floats, and few calls cover a long class
_BLOCK = 32


def nms(boxes, scores, class_ids, iou_threshold: float = 0.6) -> list:
    """Class-wise greedy NMS; returns kept input indices in kept order.

    ``boxes`` is ``(N, 4)``, ``scores`` and ``class_ids`` have N entries.
    A detection survives iff its IoU with every already-kept same-class
    detection is at most ``iou_threshold``.

    Each class is walked in descending score, ties by input index.  Its
    rows not yet struck stand in that order; each block is the next
    ``_BLOCK`` of them, and one ``pairwise_iou`` call scores it against
    all of the class's standing rows, so memory stays O(N).  Inside the
    block each kept row then strikes the later standing rows it overlaps,
    and the struck ones leave.  ``pairwise_iou`` works element by element,
    so each pair gets the float a one-row call would give.  Boxes keep
    their own coordinates: offsetting classes apart would change IoU
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
    # grouped by class, then descending score, ties by ascending index
    order = np.lexsort((-scores, class_ids))
    boxes = boxes[order]
    areas = box_area(boxes)
    cls = class_ids[order]
    class_ends = np.flatnonzero(cls[1:] != cls[:-1]) + 1
    alive = np.zeros(len(order), dtype=bool)
    for start, end in zip([0, *class_ends.tolist()],
                          [*class_ends.tolist(), len(order)]):
        standing = np.arange(start, end)
        while len(standing):
            stay = ~(pairwise_iou(boxes[standing[:_BLOCK]], boxes[standing],
                                  areas[standing]) > iou_threshold)
            live = np.ones(len(standing), dtype=bool)
            for row, row_stay in enumerate(stay):
                if live[row]:
                    live[row + 1:] &= row_stay[row + 1:]
            alive[standing[:_BLOCK][live[:_BLOCK]]] = True
            standing = standing[_BLOCK:][live[_BLOCK:]]
    kept = order[alive]
    return kept[np.lexsort((kept, -scores[kept]))].tolist()
