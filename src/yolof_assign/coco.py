"""COCO-format annotation ingestion and the matching-study driver."""

from __future__ import annotations

import bisect
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import matching
from .balance import (MatchDistribution, SizeBuckets, distribution,
                      merge_distributions)
from .geometry import (AnchorConfig, ImageSize, apply_shift, generate_anchors,
                       shift_offsets)
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
        by :func:`shift_offsets` from ``(seed, image_id)``, and clamped to
        the image; boxes left without area are dropped.  At ``max_shift``
        0 this only clamps."""
        if max_shift < 0:
            raise ValueError(f"max_shift must be >= 0, got {max_shift}")
        max_shift = _count("max_shift", max_shift)
        seed = _count("seed", seed)
        per_image = np.array([(image_id, size.width, size.height)
                              for image_id, size in self.images],
                             np.int64).reshape(-1, 3)
        offsets = shift_offsets(seed, per_image[:, 0], max_shift)
        # one (dx, dy, width, height) row per annotation
        rows = np.repeat(np.column_stack([offsets.T, per_image[:, 1:]]),
                         np.diff(self.offsets), axis=0)
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
    """The corpus of a COCO document.  A document of plain JSON values is
    read as columns (:func:`_plain_corpus`); any other, or one that breaks
    a rule, is read record by record, so the first bad record in document
    order names the fault."""
    for key in ("images", "annotations", "categories"):
        if key not in doc or not isinstance(doc[key], list):
            raise CorpusError(f"document lacks the {key!r} array")
    corpus = _plain_corpus(doc)
    return _row_corpus(doc) if corpus is None else corpus


def record_fields(records: list, *keys):
    """The values of each key over ``records``, one list per key; None if
    a record is not an object or lacks a key."""
    try:
        return [[record[key] for record in records] for key in keys]
    except (KeyError, TypeError):
        return None


def int_column(values: list):
    """``values`` as int64 if each is a JSON integer (a bool is not one)
    that int64 holds; otherwise None."""
    if not set(map(type, values)) <= {int}:
        return None
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def number_column(values: list):
    """``values`` as float64 if each is a JSON number (a bool is not one)
    that float64 holds; otherwise None."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return None


def box_column(values: list):
    """``values`` as ``(N, 4)`` float64 if each is a JSON array of 4
    numbers that :func:`number_column` takes; otherwise None."""
    if not (set(map(type, values)) <= {list}
            and set(map(len, values)) <= {4}):
        return None
    flat = number_column([v for box in values for v in box])
    return None if flat is None else flat.reshape(-1, 4)


def _plain_corpus(doc: dict):
    """The corpus of ``doc`` read as columns, or None.

    Every id, size and category must be a JSON integer and every bbox an
    array of 4 JSON numbers; the rules of :func:`_row_corpus` are then
    checked as arrays.  None stands for anything else, whether the row
    loop reads it (a string or integral float id, a bool in a bbox) or
    refuses it.
    """
    images = record_fields(doc["images"], "id", "width", "height")
    anns = record_fields(doc["annotations"], "id", "image_id",
                         "category_id", "bbox")
    if images is None or anns is None:
        return None
    columns = [*map(int_column, images + anns[:3]), box_column(anns[3])]
    if any(column is None for column in columns):
        return None
    image_ids, widths, heights, ids, ann_images, cats, boxes = columns
    order = np.argsort(image_ids)
    known, sizes = image_ids[order], np.column_stack([widths, heights])[order]
    at = np.searchsorted(known, ann_images)  # each annotation's image
    if (known[1:] == known[:-1]).any() or (sizes < 1).any() \
            or (at == len(known)).any() or (known[at] != ann_images).any() \
            or (cats < 0).any():
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        boxes[:, 2:] += boxes[:, :2]  # (x, y, x + w, y + h)
        if not np.isfinite(boxes).all():
            return None
        # a size past 2**53 rounds to float64 here, which can only refuse
        # more boxes as outside than the row loop's exact comparison
        x1, y1, x2, y2 = boxes.T
        w, h = x2 - x1, y2 - y1  # the extent the stored corners keep
        area = w * h
        cx, cy = (x1 + x2) * 0.5, (y1 + y2) * 0.5
        kept = (w > 0) & (h > 0) & (area != 0)
        bad = (x2 <= 0) | (y2 <= 0) | (x1 >= sizes[at, 0]) \
            | (y1 >= sizes[at, 1]) | ~np.isfinite(area) \
            | ~np.isfinite(cx * cx + cy * cy)
    if (kept & bad).any():
        return None
    pairs = list(zip(*sizes.T.tolist()))  # (width, height) in id order
    size_of = {pair: ImageSize(*pair) for pair in set(pairs)}
    return _sorted_corpus(
        [(i, size_of[pair]) for i, pair in zip(known.tolist(), pairs)],
        ids[kept], ann_images[kept], boxes[kept], cats[kept],
        doc["categories"], len(kept) - int(kept.sum()))


def _row_corpus(doc: dict) -> AnnotationCorpus:
    """The corpus of ``doc`` read one record at a time; the first bad
    record in document order raises a CorpusError that names it."""
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

    return _sorted_corpus(
        images, np.array(ids, dtype=np.int64),
        np.array(image_ids, dtype=np.int64),
        np.array(boxes, dtype=np.float64).reshape(-1, 4),
        np.array(cats, dtype=np.int64), doc["categories"], dropped)


def _sorted_corpus(images: list, ids, image_ids, boxes, cats, categories,
                   dropped: int) -> AnnotationCorpus:
    """The corpus of the kept annotations' columns, given in document
    order, sorted by (image id, id)."""
    order = np.lexsort((ids, image_ids))  # stable: equal ids keep doc order
    offsets = np.append(np.searchsorted(image_ids[order],
                                        [i for i, _ in images]), len(ids))
    return AnnotationCorpus(
        images=images, ids=ids[order], boxes=boxes[order],
        category_ids=cats[order], offsets=offsets,
        categories=list(categories), dropped=dropped)


def read_json(path, top: type = dict):
    """Parse a JSON file whose top level is a ``top`` (dict or list); a
    syntax error is a CorpusError naming its line and column, and bytes
    that are not UTF-8 one naming their offset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: parse error at line {exc.lineno} "
                              f"column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}: not UTF-8 text: {exc.reason} at "
                              f"byte {exc.start}") from exc
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


# GTs per matcher call at most: the runs of same-size images are cut at
# whole images to stay within it, and a single larger image runs alone.
# The kernels' temporaries grow with it, and where the corpus is too small
# to fork they count in this process's peak: at 512 a call on 1280x800
# images peaks at 1-4 MB (2048: 2-10 MB), and 118k images match as fast
_BLOCK = 512

# GTs per forked worker at least.  On 2 CPUs, two forked workers matched
# 2k GTs 10-20 ms slower than one process, broke even near 7k (Hungarian)
# to 20k (uniform) GTs, and were faster at 70k (README, YOLOF_ASSIGN_THREADS)
_FORK_GTS = 8192


def _runs(members: list, num_gts: list) -> list:
    """Cut ``members``, image positions in id order, into runs of whole
    images of at most ``_BLOCK`` GTs each."""
    runs, total = [], _BLOCK
    for i in members:
        if total + num_gts[i] > _BLOCK:
            runs.append([])
            total = 0
        runs[-1].append(i)
        total += num_gts[i]
    return runs


def _match_chunk(corpus: AnnotationCorpus, config: RunConfig, grids: dict,
                 lo: int, hi: int) -> MatchDistribution:
    """Match images ``lo:hi`` and aggregate them in one call.

    The images of one size share a grid, so each run of them that
    :func:`_runs` cuts is matched by one :func:`matching.run_positives`
    call, and its counts are scattered back to corpus order.
    """
    images = corpus.images[lo:hi]
    offsets = corpus.offsets[lo:hi + 1]
    num_gts = np.diff(offsets)
    counts = num_gts.tolist()
    by_size = {}
    for i, (_, size) in enumerate(images):
        if counts[i]:  # an image without GTs has no positives to count
            by_size.setdefault(size, []).append(i)
    positives = np.empty(offsets[-1] - offsets[0], dtype=np.int64)
    failed = None  # (image id, error) of the first failing image
    for size, members in by_size.items():
        for run in _runs(members, counts):
            n = num_gts[run]  # each image's rows, one after the other
            rows = np.arange(n.sum()) + np.repeat(
                offsets[run] - (np.cumsum(n) - n), n)
            try:
                positives[rows - offsets[0]] = matching.run_positives(
                    config.matcher, grids[size], corpus.boxes[rows],
                    np.repeat(np.arange(len(run)), n), config.matcher_config)
            except matching.ImageError as exc:
                image_id = images[run[exc.image]][0]
                if failed is None or image_id < failed[0]:
                    failed = image_id, exc
    if failed is not None:
        raise ValueError(f"image {failed[0]}: {failed[1]}") from failed[1]
    per_image = [(image_id, len(grids[size]), n)
                 for (image_id, size), n in zip(images, counts)]
    return distribution(per_image, corpus.boxes[offsets[0]:offsets[-1]],
                        positives, config.matcher, config.buckets)


# (corpus, config, grids) of the run that forked this worker
_inherited = None


def _inherit(state):
    global _inherited
    _inherited = state


def _forked_chunk(lo: int, hi: int):
    corpus, config, grids = _inherited
    return _match_chunk(corpus, config, grids, lo, hi)


def run_match_stats(corpus: AnnotationCorpus, config: RunConfig):
    """Match every corpus image and aggregate per-bucket statistics.

    With ``shift_max`` above 0 the whole corpus is shifted first, by
    :meth:`AnnotationCorpus.shifted`.  Returns one ``MatchDistribution``,
    its rows in image id order, the same for every worker count.  The
    workers are at most ``worker_count()``, one per image and one per
    ``_FORK_GTS`` GTs; with two or more, each forked worker process
    matches one contiguous chunk of images and sends back only the
    chunk's distribution, and otherwise this process matches them all.
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

    workers = min(worker_count(), len(images), len(corpus.ids) // _FORK_GTS)
    if workers > 1:
        # imported here, so that a run that never forks does not load them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
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
        parts = [_match_chunk(corpus, config, grids, 0, len(images))]

    return merge_distributions(parts)
