"""COCO-format annotation ingestion and the matching-study driver."""

from __future__ import annotations

import bisect
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import matching
from .balance import (MatchDistribution, SizeBuckets, distribution,
                      merge_distributions)
from .geometry import (AnchorConfig, ImageSize, apply_shift, generate_anchors,
                       shift_offset)
from .matching import GroundTruthSet

THREADS_ENV = "YOLOF_ASSIGN_THREADS"


class CorpusError(Exception):
    """Malformed or referentially broken annotation input."""


@dataclass(eq=False)
class AnnotationCorpus:
    """Parsed COCO-style corpus, held as columns.

    Annotations are sorted by (image id, annotation id).  ``ids``,
    ``boxes`` (``(N, 4)``, corner form) and ``category_ids`` are parallel
    read-only columns, and the annotations of ``images[i]`` are rows
    ``offsets[i]:offsets[i + 1]``.
    """

    images: list  # (image_id, ImageSize), sorted by id
    ids: np.ndarray
    boxes: np.ndarray
    category_ids: np.ndarray
    offsets: np.ndarray
    categories: list
    dropped: int = 0  # annotations discarded for non-positive extent

    def __post_init__(self):
        for column in (self.ids, self.boxes, self.category_ids, self.offsets):
            column.setflags(write=False)

    def ground_truths(self, image_id: int) -> GroundTruthSet:
        i = bisect.bisect_left(self.images, image_id, key=lambda t: t[0])
        rows = slice(0, 0)
        if i < len(self.images) and self.images[i][0] == image_id:
            rows = slice(self.offsets[i], self.offsets[i + 1])
        return GroundTruthSet(boxes=self.boxes[rows],
                              class_ids=self.category_ids[rows])

    def shifted(self, max_shift: int, seed: int) -> "AnnotationCorpus":
        """This corpus with each image's boxes moved by one offset, drawn
        by :func:`shift_offset` from ``(seed, image_id)``, and clamped to
        the image; boxes left without area are dropped.  At ``max_shift``
        0 this only clamps."""
        # shift_offset checks both only per image, and numpy's message
        # for a negative seed names neither
        if max_shift < 0:
            raise ValueError(f"max_shift must be >= 0, got {max_shift}")
        seed = _count("seed", seed)
        per_image = np.array(
            [(*shift_offset(max_shift, (seed, image_id)), size.width,
              size.height) for image_id, size in self.images],
            np.int64).reshape(-1, 4)
        # one (dx, dy, width, height) row per annotation
        rows = np.repeat(per_image, np.diff(self.offsets), axis=0)
        boxes, kept = apply_shift(self.boxes, rows[:, 2:], rows[:, 0],
                                  rows[:, 1])
        return AnnotationCorpus(
            self.images, self.ids[kept], boxes, self.category_ids[kept],
            np.searchsorted(kept, self.offsets), self.categories,
            self.dropped)

    def to_dict(self) -> dict:
        """The corpus as a COCO document, annotations in column order."""
        image_ids = np.repeat([i for i, _ in self.images],
                              np.diff(self.offsets))
        xywh = self.boxes.copy()
        xywh[:, 2:] -= self.boxes[:, :2]
        return {
            "images": [{"id": i, "width": s.width, "height": s.height}
                       for i, s in self.images],
            "annotations": [
                {"id": a, "image_id": i, "bbox": b, "category_id": c}
                for a, i, b, c in zip(self.ids.tolist(), image_ids.tolist(),
                                      xywh.tolist(),
                                      self.category_ids.tolist())],
            "categories": self.categories,
        }


def bbox_values(value):
    """A ``bbox`` field's values; a JSON string or object is refused rather
    than read as its characters or its keys."""
    if isinstance(value, (str, dict)):
        raise TypeError(f"bbox must be an array, got {value!r}")
    return value


def as_int64(value) -> int:
    """``value`` as an int64; a bool, or a float with a fraction, is
    refused rather than truncated."""
    n = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise ValueError(f"{value!r} is not an integer")
    if not -2 ** 63 <= n < 2 ** 63:
        raise ValueError(f"{n} does not fit the int64 columns")
    return n


def parse_corpus(doc: dict) -> AnnotationCorpus:
    for key in ("images", "annotations", "categories"):
        if key not in doc or not isinstance(doc[key], list):
            raise CorpusError(f"document lacks the {key!r} array")
    sizes = {}
    for img in doc["images"]:
        try:
            image_id = as_int64(img["id"])
            size = ImageSize(as_int64(img["width"]), as_int64(img["height"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorpusError(f"bad image record {img!r}: {exc}") from exc
        if image_id in sizes:
            raise CorpusError(f"duplicate image id {image_id} in image "
                              f"record {img!r}")
        sizes[image_id] = size
    images = sorted(sizes.items(), key=lambda t: t[0])

    ids, image_ids, boxes, cats = [], [], [], []
    dropped = 0
    for ann in doc["annotations"]:
        try:
            ann_id = as_int64(ann["id"])
            image_id = as_int64(ann["image_id"])
            x, y, w, h = (float(v) for v in bbox_values(ann["bbox"]))
            cat = as_int64(ann["category_id"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorpusError(f"bad annotation record {ann!r}: {exc}") from exc
        size = sizes.get(image_id)
        if size is None:
            raise CorpusError(f"annotation {ann_id} references missing "
                              f"image_id {image_id}")
        if cat < 0:
            raise CorpusError(f"annotation {ann_id} in image {image_id} has "
                              f"a negative category_id {cat}")
        box = (x, y, x + w, y + h)
        if not all(map(math.isfinite, box)):
            raise CorpusError(f"annotation {ann_id} has a non-finite bbox "
                              f"{ann['bbox']!r}")
        # the extent the stored corners keep: x + w can round back to x
        w, h = box[2] - x, box[3] - y
        if w <= 0 or h <= 0 or w * h == 0:
            dropped += 1
            continue
        if box[2] <= 0 or box[3] <= 0 or x >= size.width or y >= size.height:
            raise CorpusError(f"annotation {ann_id} has a bbox "
                              f"{ann['bbox']!r} entirely outside image "
                              f"{image_id} of {size.width}x{size.height}")
        cx, cy = (x + box[2]) * 0.5, (y + box[3]) * 0.5
        if not math.isfinite(w * h) or not math.isfinite(cx * cx + cy * cy):
            raise CorpusError(f"annotation {ann_id} in image {image_id} has "
                              f"a bbox {ann['bbox']!r} whose area or center "
                              f"overflows float64")
        ids.append(ann_id)
        image_ids.append(image_id)
        boxes.append(box)
        cats.append(cat)

    image_ids = np.array(image_ids, dtype=np.int64)
    ids = np.array(ids, dtype=np.int64)
    order = np.lexsort((ids, image_ids))  # stable: equal ids keep doc order
    offsets = np.append(np.searchsorted(image_ids[order],
                                        [i for i, _ in images]), len(ids))
    return AnnotationCorpus(
        images=images, ids=ids[order],
        boxes=np.array(boxes, dtype=np.float64).reshape(-1, 4)[order],
        category_ids=np.array(cats, dtype=np.int64)[order], offsets=offsets,
        categories=list(doc["categories"]), dropped=dropped)


def read_json(path, top: type = dict):
    """Parse a JSON file whose top level is a ``top`` (dict or list); a
    syntax error is a CorpusError naming its line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: parse error at line {exc.lineno} "
                              f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, top):
        raise CorpusError(f"{path}: top level must be an "
                          f"{'object' if top is dict else 'array'}")
    return doc


def load_corpus(path) -> AnnotationCorpus:
    return parse_corpus(read_json(path))


@dataclass(frozen=True)
class RunConfig:
    """One matching-study configuration.

    ``matcher_params`` build ``matcher_config``, the matcher's parameter
    dataclass in ``matching.MATCHERS``, so a bad key fails on construction.
    """

    matcher: str = "uniform"
    matcher_params: dict = field(default_factory=dict)
    anchors: AnchorConfig = AnchorConfig()
    buckets: SizeBuckets = SizeBuckets()
    shift_max: int = 0  # 0 disables the random annotation shift
    seed: int = 0
    matcher_config: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.matcher not in matching.MATCHERS:
            raise ValueError(f"unknown matcher {self.matcher!r}; expected one "
                             f"of {tuple(matching.MATCHERS)}")
        for name in ("shift_max", "seed"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        object.__setattr__(self, "matcher_config", matching.MATCHERS[
            self.matcher](**self.matcher_params))

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        kwargs = dict(doc)
        for key, make in (("anchors", AnchorConfig), ("buckets", SizeBuckets)):
            if key in kwargs:
                if not isinstance(kwargs[key], dict):
                    raise ValueError(f"{key} must be an object, got "
                                     f"{kwargs[key]!r}")
                kwargs[key] = make(**{k: tuple(v) if isinstance(v, list) else v
                                      for k, v in kwargs[key].items()})
        return cls(**kwargs)

    @classmethod
    def load(cls, path_or_default: str) -> "RunConfig":
        if path_or_default == "default":
            return cls()
        doc = read_json(path_or_default)
        try:
            return cls.from_dict(doc)
        except (TypeError, ValueError) as exc:
            raise CorpusError(f"{path_or_default}: {exc}") from exc


def _count(name: str, value) -> int:
    """The config field ``name`` as a non-negative int64 by
    :func:`as_int64`; a string is refused too."""
    try:
        n = -1 if isinstance(value, str) else as_int64(value)
    except (TypeError, ValueError, OverflowError):
        n = -1
    if n < 0:
        raise ValueError(f"{name} must be a non-negative integer, got "
                         f"{value!r}")
    return n


def worker_count() -> int:
    """Parallelism cap from ``YOLOF_ASSIGN_THREADS`` (0 or unset = auto:
    the CPUs this process may run on, at most 8)."""
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError(f"{THREADS_ENV} must be >= 0")
    if n > 0:
        return n
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


def _match_chunk(corpus: AnnotationCorpus, config: RunConfig, grids: dict,
                 images: list) -> MatchDistribution:
    """Match ``images`` in order, then aggregate them in one call; each
    image's labels are cut to per-GT counts as soon as it is matched."""
    match = getattr(matching, f"{config.matcher}_match")
    records = []
    for image_id, size in images:
        gts = corpus.ground_truths(image_id)
        anchors = grids[size]
        try:
            result = match(anchors, gts, config.matcher_config)
        except ValueError as exc:
            raise ValueError(f"image {image_id}: {exc}") from exc
        records.append((image_id, len(anchors), gts, result.positives_per_gt))
    # aggregated after the loop, so each image's time ends at the next
    # image's GT lookup and aggregation is timed apart from matching
    return distribution(records, config.matcher, config.buckets)


# (corpus, config, grids) of the run that forked this worker
_inherited = None


def _inherit(state):
    global _inherited
    _inherited = state


def _forked_chunk(lo: int, hi: int):
    corpus, config, grids = _inherited
    return _match_chunk(corpus, config, grids, corpus.images[lo:hi])


def run_match_stats(corpus: AnnotationCorpus, config: RunConfig):
    """Match every corpus image and aggregate per-bucket statistics.

    With ``shift_max`` above 0 the whole corpus is shifted first, by
    :meth:`AnnotationCorpus.shifted`.  Returns one ``MatchDistribution``,
    its rows in image id order, the same for every worker count.  With
    more than one worker, each forked worker process matches one
    contiguous chunk of images and sends back only the chunk's
    distribution.
    """
    if config.shift_max > 0:  # at 0 the boxes stay unclamped
        corpus = corpus.shifted(config.shift_max, config.seed)
    images = corpus.images
    # one read-only grid per image size, shared by every chunk
    grids = {}
    for _, size in images:
        if size not in grids:
            grids[size] = generate_anchors(config.anchors, size)
            grids[size].anchors.setflags(write=False)

    workers = min(worker_count(), len(images))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        # fork, not spawn: the workers inherit the corpus, the config and
        # the grids instead of unpickling them, and skip re-importing numpy
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_inherit,
                initargs=((corpus, config, grids),)) as pool:
            futures = [pool.submit(_forked_chunk, len(images) * i // workers,
                                   len(images) * (i + 1) // workers)
                       for i in range(workers)]
            # in chunk order, so a failure names the first failing image
            parts = [f.result() for f in futures]
    else:
        parts = [_match_chunk(corpus, config, grids, images)]

    return merge_distributions(parts)
