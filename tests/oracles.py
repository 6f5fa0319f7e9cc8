"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (pure-python loops, rasterization,
enumeration) and shares no code with the implementations under test.
"""

import itertools
import math

import numpy as np


def iou_py(a, b):
    """Scalar IoU with plain-python arithmetic."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(0.0, ix) * max(0.0, iy)
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def raster_areas(a, b):
    """Cell-counted (area_a, area_b, intersection) on integer boxes."""
    x_lo = int(min(a[0], b[0]))
    x_hi = int(max(a[2], b[2]))
    y_lo = int(min(a[1], b[1]))
    y_hi = int(max(a[3], b[3]))
    area_a = area_b = inter = 0
    for x in range(x_lo, x_hi):
        for y in range(y_lo, y_hi):
            in_a = a[0] <= x < a[2] and a[1] <= y < a[3]
            in_b = b[0] <= x < b[2] and b[1] <= y < b[3]
            area_a += in_a
            area_b += in_b
            inter += in_a and in_b
    return area_a, area_b, inter


def raster_iou(a, b):
    area_a, area_b, inter = raster_areas(a, b)
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def nms_py(boxes, scores, class_ids, threshold):
    """Greedy class-wise suppression by direct simulation."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        suppressed = False
        for j in kept:
            if class_ids[i] == class_ids[j] \
                    and iou_py(boxes[i], boxes[j]) > threshold:
                suppressed = True
                break
        if not suppressed:
            kept.append(i)
    return kept


def assignment_cost_enum(cost):
    """Minimum assignment cost by enumeration.

    An optimal assignment of m rows uses, for each row, one of that row's
    m cheapest columns (otherwise one of those m columns is free and
    swapping does not increase the cost), so enumerating the product of
    per-row top-m candidate lists covers the optimum.
    """
    cost = np.asarray(cost, dtype=float)
    m = cost.shape[0]
    cand = [sorted(range(cost.shape[1]), key=lambda c: (cost[g, c], c))[:m]
            for g in range(m)]
    best = math.inf
    for combo in itertools.product(*cand):
        if len(set(combo)) == m:
            total = sum(cost[g, c] for g, c in enumerate(combo))
            best = min(best, total)
    return best


def _center_distance(box, anchor):
    """Center distance as ``sqrt(dx * dx + dy * dy)``.

    This is the library's rounding.  ``math.hypot`` can differ from it in
    the last bit, which reorders anchors whose float centers differ only
    by rounding (the slots of one position under non-square aspect
    ratios), so a k-nearest oracle has to fix the formula as well.
    """
    dx = (box[0] + box[2]) / 2.0 - (anchor[0] + anchor[2]) / 2.0
    dy = (box[1] + box[3]) / 2.0 - (anchor[1] + anchor[3]) / 2.0
    return math.sqrt(dx * dx + dy * dy)


def knearest_py(anchor_boxes, gt_box, k):
    """Indices of the k anchors center-nearest to a GT, stable ties."""
    dists = [(_center_distance(gt_box, a), i)
             for i, a in enumerate(anchor_boxes)]
    dists.sort()
    return [i for _, i in dists[:k]]


def uniform_py(anchor_boxes, gt_boxes, k, pos_ignore_iou, neg_ignore_iou):
    """Uniform-matching labels by direct simulation.

    Labels are the GT index, -1 (negative) or -2 (ignored).  Each GT's k
    nearest anchors are its candidates; an anchor claimed by several GTs
    goes to the closest (tie: lower GT index) and is ignored below
    ``pos_ignore_iou``; a non-candidate overlapping any GT above
    ``neg_ignore_iou`` is ignored.
    """
    owner = {}
    for g, box in enumerate(gt_boxes):
        for a in knearest_py(anchor_boxes, box, k):
            claim = (_center_distance(box, anchor_boxes[a]), g)
            if a not in owner or claim < owner[a]:
                owner[a] = claim
    labels = []
    for a, anchor in enumerate(anchor_boxes):
        if a in owner:
            g = owner[a][1]
            labels.append(g if iou_py(gt_boxes[g], anchor) >= pos_ignore_iou
                          else -2)
        elif any(iou_py(box, anchor) > neg_ignore_iou for box in gt_boxes):
            labels.append(-2)
        else:
            labels.append(-1)
    return labels


def atss_py(anchor_boxes, gt_boxes, k):
    """ATSS labels (GT index or -1) by direct simulation, one GT at a time.

    A candidate at or above its GT's mean + population std of candidate
    IoUs, with its center strictly inside the GT, is positive; a later GT
    takes an anchor only with a strictly higher IoU.  The threshold uses
    numpy's mean and std over the candidates in (distance, index) order,
    which fixes the summation order, so a candidate sitting exactly on
    the threshold is judged the same way as by the library.
    """
    labels = [-1] * len(anchor_boxes)
    best = [-1.0] * len(anchor_boxes)
    for g, box in enumerate(gt_boxes):
        cand = knearest_py(anchor_boxes, box, k)
        ious = [iou_py(box, anchor_boxes[a]) for a in cand]
        pool = np.array(ious)
        thresh = pool.mean() + pool.std()
        for a, v in zip(cand, ious):
            cx = (anchor_boxes[a][0] + anchor_boxes[a][2]) / 2.0
            cy = (anchor_boxes[a][1] + anchor_boxes[a][3]) / 2.0
            inside = box[0] < cx < box[2] and box[1] < cy < box[3]
            if v >= thresh and inside and v > best[a]:
                best[a] = v
                labels[a] = g
    return labels


def _argmax_py(values):
    """Index of the first NaN, else of the first maximum (numpy's argmax)."""
    best = 0
    for i, v in enumerate(values):
        if math.isnan(v):
            return i
        if v > values[best]:
            best = i
    return best


def max_iou_py(ious, pos_iou, neg_iou, rescue):
    """Max-IoU labels (GT index, -1 or -2) from a GT-by-anchor IoU matrix.

    Each anchor takes its first best GT: positive at or above ``pos_iou``,
    ignored in ``[neg_iou, pos_iou)``, negative otherwise (and when its
    best IoU is NaN).  With ``rescue``, GT by GT in index order, each GT's
    first best anchor is forced to it when that IoU beats every earlier
    forced IoU of the anchor, so a NaN never does.
    """
    num_anchors = len(ious[0]) if ious else 0
    labels = []
    for a in range(num_anchors):
        column = [row[a] for row in ious]
        g = _argmax_py(column)
        if column[g] >= pos_iou:
            labels.append(g)
        elif neg_iou <= column[g] < pos_iou:
            labels.append(-2)
        else:
            labels.append(-1)
    if rescue:
        forced = [-1.0] * num_anchors
        for g, row in enumerate(ious):
            a = _argmax_py(row)
            if row[a] > forced[a]:
                forced[a] = row[a]
                labels[a] = g
    return labels


def distribution_py(scenes, small_max=32.0 ** 2, medium_max=96.0 ** 2):
    """Positives per GT by a loop over every GT of every scene.

    ``scenes`` holds ``(boxes, labels)`` pairs of plain lists.  Returns
    ``(rows, stats)``: one ``(bucket name, positives)`` row per GT in scene
    order, and per bucket ``[GTs, positives, GTs without a positive]``.
    A GT's area is ``max(w, 0) * max(h, 0)`` with a NaN side kept NaN,
    and a NaN area falls through both ``<`` tests into "large".
    """
    rows = []
    stats = {name: [0, 0, 0] for name in ("small", "medium", "large")}
    for boxes, labels in scenes:
        for g, (x1, y1, x2, y2) in enumerate(boxes):
            w = 0.0 if x2 - x1 < 0 else x2 - x1
            h = 0.0 if y2 - y1 < 0 else y2 - y1
            area = w * h
            if area < small_max:
                name = "small"
            elif area < medium_max:
                name = "medium"
            else:
                name = "large"
            count = sum(1 for label in labels if label == g)
            stats[name][0] += 1
            stats[name][1] += count
            stats[name][2] += count == 0
            rows.append((name, count))
    return rows, stats


def split_positives_np(labels, num_gts):
    """Each GT's positive anchors, split from the labels as they were when
    a match stored them: positive anchors stably sorted by GT, then cut
    at each GT's first index."""
    labels = np.asarray(labels, dtype=np.int64)
    pos = np.flatnonzero(labels >= 0)
    pos = pos[np.argsort(labels[pos], kind="stable")]
    ends = np.searchsorted(labels[pos], np.arange(1, num_gts + 1))
    return np.split(pos, ends)[:num_gts]
