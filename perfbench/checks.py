"""Output checks for benchmark operations.

Every operation's output is checked for internal consistency and its
statistics are digested, so that every operation of a run can be compared
with the first.  Once per run, outside timing, the first output is also
cross-checked against the naive reference code in ``tests/oracles.py``.
Each check returns an error message, or None when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np

# The statistics a match report must reproduce exactly between runs.  The
# ``candidates_per_gt_uniform`` extra is left out on purpose: it is a
# diagnostic flag that is due to be replaced.
MATCH_STAT_FIELDS = ("buckets", "per_gt_counts", "per_image", "total_gts",
                     "total_positives", "imbalance_ratio")

ANCHOR_STRIDE = 32
ANCHOR_SIZES = (32.0, 64.0, 128.0, 256.0, 512.0)
ORACLE_IMAGES = 6  # images per report cross-checked against the oracles


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_match_report(doc: dict, matcher: str, num_images: int):
    """Internal consistency of a ``match-stats`` JSON report."""
    if doc.get("matcher") != matcher:
        return f"report is for matcher {doc.get('matcher')!r}, not {matcher!r}"
    per_image = doc["per_image"]
    if len(per_image) != num_images:
        return f"{len(per_image)} per-image rows for {num_images} images"
    if doc["total_gts"] != sum(r["num_gts"] for r in per_image):
        return "total_gts differs from the sum of per_image num_gts"
    if doc["total_positives"] != sum(r["num_positive"] for r in per_image):
        return "total_positives differs from the sum of per_image num_positive"
    if len(doc["per_gt_counts"]) != doc["total_gts"]:
        return "per_gt_counts has one entry per GT missing or extra"
    return None


def match_digest(doc: dict) -> str:
    return digest({k: doc[k] for k in MATCH_STAT_FIELDS})


def check_nms_output(kept: list, dets: list):
    """Kept detections come from the input, in non-increasing score."""
    inputs = {json.dumps(d, sort_keys=True) for d in dets}
    if not kept:
        return "NMS kept nothing"
    if any(json.dumps(d, sort_keys=True) not in inputs for d in kept):
        return "NMS output holds a detection that is not in its input"
    if any(a["score"] < b["score"] for a, b in zip(kept, kept[1:])):
        return "NMS output is not in descending score order"
    return None


def _anchor_boxes(width: int, height: int) -> list:
    """The default single-level anchor grid, row-major, built naively."""
    boxes = []
    for i in range(-(-height // ANCHOR_STRIDE)):
        for j in range(-(-width // ANCHOR_STRIDE)):
            cx = (j + 0.5) * ANCHOR_STRIDE
            cy = (i + 0.5) * ANCHOR_STRIDE
            for s in ANCHOR_SIZES:
                boxes.append((cx - s / 2, cy - s / 2, cx + s / 2, cy + s / 2))
    return boxes


def oracle_positives(oracles, anchors: list, gts: list, k: int,
                     pos_ignore_iou: float) -> list:
    """Positives per GT for uniform matching, from the reference code.

    Each GT's k nearest anchors come from ``oracles.knearest_py``; an
    anchor claimed by several GTs goes to the closest (tie: lower GT
    index), and stays positive only with ``oracles.iou_py`` at or above
    ``pos_ignore_iou``.
    """
    def center_distance(box, a):
        return math.hypot((a[0] + a[2]) / 2.0 - (box[0] + box[2]) / 2.0,
                          (a[1] + a[3]) / 2.0 - (box[1] + box[3]) / 2.0)

    owner = {}
    for g, box in enumerate(gts):
        for a in oracles.knearest_py(anchors, box, k):
            claim = (center_distance(box, anchors[a]), g)
            if a not in owner or claim < owner[a]:
                owner[a] = claim
    positives = [0] * len(gts)
    for a, (_, g) in owner.items():
        if oracles.iou_py(gts[g], anchors[a]) >= pos_ignore_iou:
            positives[g] += 1
    return positives


def shifted(gts: list, width: int, height: int, seed: int, image_id: int,
            shift_max: int) -> list:
    """``match-stats``' per-image random shift, redone box by box.

    The offset ``(dx, dy)`` is drawn from ``(seed, image_id)``, dx first;
    each box moves by it, is clamped to the image, and is dropped when
    nothing of it is left.
    """
    if shift_max == 0 or not gts:
        return gts
    rng = np.random.default_rng((seed, image_id))
    dx = int(rng.integers(-shift_max, shift_max + 1))
    dy = int(rng.integers(-shift_max, shift_max + 1))
    out = []
    for x1, y1, x2, y2 in gts:
        x1, x2 = (min(max(x + dx, 0.0), width) for x in (x1, x2))
        y1, y2 = (min(max(y + dy, 0.0), height) for y in (y1, y2))
        if x2 > x1 and y2 > y1:
            out.append((x1, y1, x2, y2))
    return out


def oracle_match_check(oracles, corpus: dict, report: dict, matcher: str,
                       seed: int, shift_max: int):
    """Cross-check per-image positives of a uniform or topk report."""
    pos_ignore_iou = {"uniform": 0.15, "topk": 0.0}[matcher]
    rows = {r["image_id"]: r for r in report["per_image"]}
    anns = sorted(corpus["annotations"], key=lambda a: a["id"])
    for img in random.Random(seed).sample(corpus["images"], ORACLE_IMAGES):
        gts = [(x, y, x + w, y + h) for x, y, w, h in
               (a["bbox"] for a in anns if a["image_id"] == img["id"])]
        gts = shifted(gts, img["width"], img["height"], seed, img["id"],
                      shift_max)
        anchors = _anchor_boxes(img["width"], img["height"])
        want = oracle_positives(oracles, anchors, gts, 4, pos_ignore_iou)
        got = rows[img["id"]]["positives_per_gt"]
        if got != want:
            return (f"image {img['id']}: positives per GT {got} differ from "
                    f"the oracle's {want}")
    return None


def oracle_nms_check(oracles, dets: list, kept: list, threshold: float):
    """Compare the NMS output with ``oracles.nms_py`` on the same input."""
    order = oracles.nms_py([d["bbox"] for d in dets],
                           [d["score"] for d in dets],
                           [d["category_id"] for d in dets], threshold)
    want = [dets[i] for i in order]
    if kept != want:
        return (f"NMS kept {len(kept)} detections where the oracle keeps "
                f"{len(want)}, or kept them in another order")
    return None
