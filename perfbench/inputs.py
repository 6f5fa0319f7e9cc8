"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed writes the
same bytes.  The program under test only ever sees the files written here.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

NUM_CLASSES = 20


def _stratified(rng, n: int) -> np.ndarray:
    """n uniform draws in [0, 1), one per stratum of width 1/n, shuffled.

    Stratifying keeps the amount of work nearly the same for every seed:
    the seed moves boxes around, it does not make the corpus bigger.
    """
    return (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(u, lo, hi):
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def corpus(seed: int, counts, width: int, height: int, side_px: tuple,
           shuffle: bool) -> dict:
    """A COCO-format corpus of unaligned boxes.

    ``counts`` holds the number of GTs of each image; they are shuffled
    over the images.  Box sides are log-uniform in ``side_px``, clipped to
    the image; positions are uniform over the image, so boxes do not line
    up with the anchor grid.
    """
    rng = np.random.default_rng(seed)
    counts = rng.permutation(np.asarray(counts))
    num_images = len(counts)
    total = int(counts.sum())
    w = np.minimum(_log_uniform(_stratified(rng, total), *side_px), width - 1)
    h = np.minimum(_log_uniform(_stratified(rng, total), *side_px), height - 1)
    x = rng.uniform(0, width - w)
    y = rng.uniform(0, height - h)
    cats = rng.integers(1, NUM_CLASSES + 1, total)
    image_of = np.repeat(np.arange(1, num_images + 1), counts)
    annotations = [
        {"id": i + 1, "image_id": int(image_of[i]),
         "bbox": [round(float(x[i]), 2), round(float(y[i]), 2),
                  round(float(w[i]), 2), round(float(h[i]), 2)],
         "category_id": int(cats[i])}
        for i in range(total)]
    if shuffle:
        annotations = [annotations[i] for i in rng.permutation(total)]
    return {
        "images": [{"id": i, "width": width, "height": height}
                   for i in range(1, num_images + 1)],
        "annotations": annotations,
        "categories": [{"id": c, "name": f"class-{c}"}
                       for c in range(1, NUM_CLASSES + 1)],
    }


def sweep_corpus(seed: int) -> dict:
    """300 scenes of 1280x800; GTs per image geometric, mean 7, cap 40."""
    p = 1.0 / 7.0
    u = (np.arange(300) + 0.5) / 300
    counts = np.minimum(np.ceil(np.log1p(-u) / np.log1p(-p)), 40)
    return corpus(seed, counts.astype(np.int64), 1280, 800,
                  side_px=(8.0, 600.0), shuffle=False)


def many_small_corpus(seed: int) -> dict:
    """4000 scenes of 640x480 with 1-4 GTs each, annotations shuffled."""
    return corpus(seed, np.resize(np.arange(1, 5), 4000), 640, 480,
                  side_px=(8.0, 300.0), shuffle=True)


def detections(seed: int) -> list:
    """4000 detections: 20 jittered duplicates of each of 200 boxes.

    Boxes are in corner (x1, y1, x2, y2) form over 20 classes.  Each
    duplicate's corners move by up to 16.5% of its object's side, so that
    about 13% of the detections survive NMS at IoU 0.6.
    """
    num_objects, copies = 200, 20
    rng = np.random.default_rng(seed)
    w = _log_uniform(_stratified(rng, num_objects), 16.0, 400.0)
    h = _log_uniform(_stratified(rng, num_objects), 16.0, 400.0)
    x = rng.uniform(0, 1280 - w)
    y = rng.uniform(0, 800 - h)
    cats = rng.integers(0, NUM_CLASSES, num_objects)
    n = num_objects * copies
    obj = np.repeat(np.arange(num_objects), copies)
    side = np.stack([w[obj], h[obj], w[obj], h[obj]], axis=1)
    base = np.stack([x[obj], y[obj], x[obj] + w[obj], y[obj] + h[obj]], axis=1)
    boxes = base + rng.uniform(-0.165, 0.165, (n, 4)) * side
    scores = rng.uniform(0.05, 1.0, n)
    order = rng.permutation(n)
    return [{"bbox": [round(float(v), 2) for v in boxes[i]],
             "score": round(float(scores[i]), 6),
             "category_id": int(cats[obj[i]])} for i in order]


def write_json(path, doc) -> str:
    """Write ``doc`` as compact JSON and return the file's sha256."""
    data = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
