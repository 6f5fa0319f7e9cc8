"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (pure-python loops, rasterization,
enumeration) and shares no code with the implementations under test.
"""

import bisect
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


def shift_offset_py(max_shift, seed, image_id):
    """One image's random shift ``(dx, dy)``: two draws from
    ``np.random.default_rng((seed, image_id))``, dx first, each uniform in
    ``[-max_shift, max_shift]``."""
    rng = np.random.default_rng((seed, image_id))
    return tuple(int(rng.integers(-max_shift, max_shift + 1))
                 for _ in range(2))


def rf_extents_py(dilations, shortcuts=True):
    """Receptive-field extents by enumerating every shortcut path: 3 from
    the projector plus ``2 * d`` for each block a path goes through; with
    shortcuts off, only the path through every block."""
    paths = itertools.chain.from_iterable(
        itertools.combinations(dilations, r)
        for r in range(len(dilations) + 1)) if shortcuts else [dilations]
    return tuple(sorted({3 + 2 * sum(path) for path in paths}))


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


def hungarian_cost_np(anchor_boxes, gt_boxes, stride):
    """Hungarian's ``(M, N)`` cost in one shot, each matrix built whole:
    center distance minus ``stride`` times IoU, with the rounding of
    :func:`_center_distance` and :func:`iou_py`."""
    a = np.asarray(anchor_boxes, dtype=float)[None]
    g = np.asarray(gt_boxes, dtype=float)[:, None]
    offset = (g[..., :2] + g[..., 2:]) / 2.0 - (a[..., :2] + a[..., 2:]) / 2.0
    offset *= offset
    dist = np.sqrt(offset[..., 0] + offset[..., 1])
    sides = np.maximum(np.minimum(g[..., 2:], a[..., 2:])
                       - np.maximum(g[..., :2], a[..., :2]), 0.0)
    inter = sides[..., 0] * sides[..., 1]
    areas = [np.maximum(b[..., 2] - b[..., 0], 0.0)
             * np.maximum(b[..., 3] - b[..., 1], 0.0) for b in (g, a)]
    union = areas[0] + areas[1] - inter
    iou = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
    return dist - stride * iou


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


def max_iou_py(ious, pos_iou, neg_iou, rescue):
    """Max-IoU labels (GT index, -1 or -2) from a GT-by-anchor IoU matrix.

    Each anchor takes its first best GT: positive at or above ``pos_iou``,
    ignored in ``[neg_iou, pos_iou)``, negative otherwise.  With
    ``rescue``, GT by GT in index order, each GT's first best anchor is
    forced to it when that IoU beats every earlier forced IoU of the
    anchor.
    """
    num_anchors = len(ious[0]) if ious else 0
    labels = []
    for a in range(num_anchors):
        column = [row[a] for row in ious]
        g = column.index(max(column))
        if column[g] >= pos_iou:
            labels.append(g)
        elif neg_iou <= column[g] < pos_iou:
            labels.append(-2)
        else:
            labels.append(-1)
    if rescue:
        forced = [-1.0] * num_anchors
        for g, row in enumerate(ious):
            a = row.index(max(row))
            if row[a] > forced[a]:
                forced[a] = row[a]
                labels[a] = g
    return labels


def distribution_py(scenes, small_max=32.0 ** 2, medium_max=96.0 ** 2):
    """Positives per GT by a loop over every GT of every scene.

    ``scenes`` holds ``(boxes, labels)`` pairs of plain lists.  Returns
    ``(rows, stats)``: one ``(bucket name, positives)`` row per GT in scene
    order, and per bucket ``[GTs, positives, GTs without a positive]``.
    """
    rows = []
    stats = {name: [0, 0, 0] for name in ("small", "medium", "large")}
    for boxes, labels in scenes:
        for g, (x1, y1, x2, y2) in enumerate(boxes):
            area = (x2 - x1) * (y2 - y1)
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


def per_image_py(scenes):
    """One report row per scene of ``(boxes, labels)`` plain lists, by a
    loop over its labels: its GTs, anchors, positive anchors and each
    GT's positive anchors."""
    rows = []
    for boxes, labels in scenes:
        per_gt = [sum(1 for label in labels if label == g)
                  for g in range(len(boxes))]
        rows.append({"num_gts": len(boxes), "num_anchors": len(labels),
                     "num_positive": sum(1 for label in labels if label >= 0),
                     "positives_per_gt": per_gt})
    return rows


def split_positives_np(labels, num_gts):
    """Each GT's positive anchors, split from the labels as they were when
    a match stored them: positive anchors stably sorted by GT, then cut
    at each GT's first index."""
    labels = np.asarray(labels, dtype=np.int64)
    pos = np.flatnonzero(labels >= 0)
    pos = pos[np.argsort(labels[pos], kind="stable")]
    ends = np.searchsorted(labels[pos], np.arange(1, num_gts + 1))
    return np.split(pos, ends)[:num_gts]


class InputError(Exception):
    """A malformed document, as the record-by-record readers name it."""


def _int64_py(value):
    n = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise ValueError(f"{value!r} is not an integer")
    if not -2 ** 63 <= n < 2 ** 63:
        raise ValueError(f"{n} does not fit the int64 columns")
    return n


def _number_py(value):
    if isinstance(value, bool):
        raise TypeError(f"{value} is not a number")
    return float(value)


def _bbox_py(value):
    if isinstance(value, (str, dict)):
        raise TypeError(f"bbox must be an array, got {value!r}")
    return value


def corpus_py(doc):
    """A COCO document read one record at a time, every rule checked as
    the record is read; the first bad record raises an InputError naming
    it.  Returns the corpus as a dict: ``images`` as (id, (width,
    height)) sorted by id, the kept annotations' ``ids``, corner
    ``boxes`` and ``category_ids`` sorted by (image id, id), each image's
    first row in ``offsets``, ``categories`` and the ``dropped`` count."""
    sizes = {}
    for img in doc["images"]:
        try:
            image_id = _int64_py(img["id"])
            size = (_int64_py(img["width"]), _int64_py(img["height"]))
            if size[0] < 1 or size[1] < 1:
                raise ValueError(f"image dimensions must be positive, got "
                                 f"{size[0]}x{size[1]}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad image record {img!r}: {exc}") from exc
        if image_id in sizes:
            raise InputError(f"duplicate image id {image_id} in image "
                             f"record {img!r}")
        sizes[image_id] = size

    rows, dropped = [], 0
    for ann in doc["annotations"]:
        try:
            ann_id = _int64_py(ann["id"])
            image_id = _int64_py(ann["image_id"])
            x, y, w, h = (_number_py(v) for v in _bbox_py(ann["bbox"]))
            cat = _int64_py(ann["category_id"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad annotation record {ann!r}: {exc}") from exc
        size = sizes.get(image_id)
        if size is None:
            raise InputError(f"annotation {ann_id} references missing "
                             f"image_id {image_id}")
        if cat < 0:
            raise InputError(f"annotation {ann_id} in image {image_id} has "
                             f"a negative category_id {cat}")
        box = (x, y, x + w, y + h)
        if not all(map(math.isfinite, box)):
            raise InputError(f"annotation {ann_id} has a non-finite bbox "
                             f"{ann['bbox']!r}")
        w, h = box[2] - x, box[3] - y  # the extent the corners keep
        if w <= 0 or h <= 0 or w * h == 0:
            dropped += 1
            continue
        if box[2] <= 0 or box[3] <= 0 or x >= size[0] or y >= size[1]:
            raise InputError(f"annotation {ann_id} has a bbox "
                             f"{ann['bbox']!r} entirely outside image "
                             f"{image_id} of {size[0]}x{size[1]}")
        cx, cy = (x + box[2]) * 0.5, (y + box[3]) * 0.5
        if not math.isfinite(w * h) or not math.isfinite(cx * cx + cy * cy):
            raise InputError(f"annotation {ann_id} in image {image_id} has "
                             f"a bbox {ann['bbox']!r} whose area or center "
                             f"overflows float64")
        rows.append((image_id, ann_id, len(rows), box, cat))

    images = sorted(sizes.items())
    rows.sort(key=lambda row: row[:3])  # equal ids keep document order
    row_images = [row[0] for row in rows]
    offsets = [bisect.bisect_left(row_images, image_id)
               for image_id, _ in images] + [len(rows)]
    return {
        "images": images,
        "ids": np.array([row[1] for row in rows], dtype=np.int64),
        "boxes": np.array([row[3] for row in rows],
                          dtype=np.float64).reshape(-1, 4),
        "category_ids": np.array([row[4] for row in rows], dtype=np.int64),
        "offsets": np.array(offsets, dtype=np.int64),
        "categories": list(doc["categories"]),
        "dropped": dropped,
    }


def detections_py(doc, path):
    """A detection list read one record at a time, each record's rules
    checked as it is read; the first bad record raises an InputError
    naming it and ``path``.  Returns (boxes, scores, class ids)."""
    boxes, scores, class_ids = [], [], []
    for i, row in enumerate(doc):
        try:
            box = tuple(map(_number_py, _bbox_py(row["bbox"])))
            score = _number_py(row["score"])
            class_id = _int64_py(row["category_id"])
            if len(box) != 4:
                raise ValueError(f"box must have 4 values, got {len(box)}")
            if not all(map(math.isfinite, box)):
                raise ValueError(f"box must be finite, got {box}")
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score must be finite in [0, 1], got "
                                 f"{score}")
            if class_id < 0:
                raise ValueError("class_id must be non-negative")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{path}: bad detection #{i}: {exc}") from exc
        boxes.append(box)
        scores.append(score)
        class_ids.append(class_id)
    return (np.array(boxes, dtype=np.float64).reshape(-1, 4),
            np.array(scores, dtype=np.float64),
            np.array(class_ids, dtype=np.int64))
