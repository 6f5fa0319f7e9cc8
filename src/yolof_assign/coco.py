"""COCO-format annotation ingestion and the matching-study driver."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import matching
from .balance import SizeBuckets, distribution
from .geometry import (AnchorConfig, ImageSize, apply_shift, generate_anchors,
                       shift_offsets)
from .matching import GroundTruthSet

THREADS_ENV = "YOLOF_ASSIGN_THREADS"


class CorpusError(Exception):
    """Malformed or referentially broken annotation input."""


@dataclass(eq=False)
class AnnotationCorpus:
    """Parsed COCO-style corpus, held as columns.

    Images are sorted by id, annotations by (image id, annotation id).
    Each is held as parallel read-only columns: ``image_ids`` and
    ``sizes`` (``(K, 2)`` int64 width and height); ``ids``, ``boxes``
    (``(N, 4)``, corner form) and ``category_ids``.  The annotations of
    image ``i`` are rows ``offsets[i]:offsets[i + 1]``.
    """

    image_ids: np.ndarray
    sizes: np.ndarray
    ids: np.ndarray
    boxes: np.ndarray
    category_ids: np.ndarray
    offsets: np.ndarray
    categories: list
    dropped: int = 0  # annotations discarded for non-positive extent

    def __post_init__(self):
        for column in (self.image_ids, self.sizes, self.ids, self.boxes,
                       self.category_ids, self.offsets):
            column.setflags(write=False)

    def ground_truths(self, image_id: int) -> GroundTruthSet:
        # ids are unique: hi is lo + 1 for a known id, lo for another
        lo, hi = (np.searchsorted(self.image_ids, image_id, side)
                  for side in ("left", "right"))
        rows = slice(self.offsets[lo], self.offsets[hi])
        return GroundTruthSet(boxes=self.boxes[rows],
                              class_ids=self.category_ids[rows])

    def shifted(self, max_shift: int, seed: int) -> "AnnotationCorpus":
        """This corpus with each image's boxes moved by one offset, drawn
        by :func:`shift_offsets` from ``(seed, image_id)``, and clamped to
        the image; boxes left without area are dropped.  At ``max_shift``
        0 this only clamps.  The image columns are shared, not copied."""
        if max_shift < 0:
            raise ValueError(f"max_shift must be >= 0, got {max_shift}")
        max_shift = _count("max_shift", max_shift)
        seed = _count("seed", seed)
        offsets = shift_offsets(seed, self.image_ids, max_shift)
        # one (dx, dy, width, height) row per annotation
        rows = np.repeat(np.column_stack([offsets.T, self.sizes]),
                         np.diff(self.offsets), axis=0)
        boxes, kept = apply_shift(self.boxes, rows[:, 2:], rows[:, 0],
                                  rows[:, 1])
        return AnnotationCorpus(
            self.image_ids, self.sizes, self.ids[kept], boxes,
            self.category_ids[kept], np.searchsorted(kept, self.offsets),
            self.categories, self.dropped)

    def to_dict(self) -> dict:
        """The corpus as a COCO document, annotations in column order."""
        image_ids = np.repeat(self.image_ids, np.diff(self.offsets))
        xywh = self.boxes.copy()
        xywh[:, 2:] -= self.boxes[:, :2]
        return {
            "images": [{"id": i, "width": w, "height": h} for i, (w, h)
                       in zip(self.image_ids.tolist(), self.sizes.tolist())],
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


def as_number(value) -> float:
    """``float(value)``; a bool is refused rather than read as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"{value} is not a number")
    return float(value)


def parse_corpus(doc: dict) -> AnnotationCorpus:
    """The corpus of a COCO document: its images' and then its
    annotations' columns by :func:`record_columns`, every rule then
    checked by :func:`_checked_corpus`, so the first bad record in
    document order names the fault."""
    for key in ("images", "annotations", "categories"):
        if key not in doc or not isinstance(doc[key], list):
            raise CorpusError(f"document lacks the {key!r} array")
    images, failure = record_columns(
        doc["images"], lambda i, img: f"bad image record {img!r}",
        id="int", width="int", height="int")
    anns, ann_failure = record_columns(
        doc["annotations"] if failure is None else [],
        lambda i, ann: f"bad annotation record {ann!r}",
        id="int", image_id="int", bbox="box", category_id="int")
    return _checked_corpus(doc, *images, *anns, failure or ann_failure)


def _box(value) -> tuple:
    """A ``bbox`` of 4 numbers; its values are converted only as far as
    the unpacking takes them."""
    x, y, w, h = (as_number(v) for v in bbox_values(value))
    return x, y, w, h


def record_columns(records: list, name, **kinds) -> tuple:
    """Each key's values over ``records`` as a column of its kind: "int",
    JSON integers as int64; "number", JSON numbers as float64; "box",
    arrays of 4 JSON numbers as ``(N, 4)`` float64; or "numbers", arrays
    of JSON numbers of any length, cut or padded with zeros to ``(N, 4)``
    float64 and followed by a column of their lengths.

    Keys go in ``kinds`` order.  A key whose every value is plain JSON of
    its kind (a bool is not a number) that fits its column is taken at
    once; any other is converted value by value, by :func:`as_int64` or
    :func:`as_number`, over the records before the earliest that failed
    so far.  Returns the columns of the records before the earliest that
    does not convert, and a CorpusError for that one, led by ``name(i,
    record)`` and naming the first of its keys that fails (None if every
    record converts).  No rule is checked here."""
    columns, end, failure = [], len(records), None
    for key, kind in kinds.items():
        column, lengths = _typed_column(records, key, kind), None
        if column is None:
            convert = {"int": as_int64, "number": as_number, "box": _box,
                       "numbers": lambda v: tuple(map(as_number,
                                                      bbox_values(v)))}[kind]
            values = []
            for i, record in enumerate(records[:end]):
                try:
                    values.append(convert(record[key]))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    end, failure = i, CorpusError(f"{name(i, record)}: {exc}")
                    break
            if kind == "numbers":
                lengths = np.fromiter(map(len, values), np.int64, len(values))
                values = [(box + (0.0,) * 4)[:4] for box in values]
            column = np.array(values, np.int64 if kind == "int"
                              else np.float64)
        columns.append(column.reshape(-1, 4) if kind in ("box", "numbers")
                       else column)
        if kind == "numbers":
            columns.append(np.full(len(records), 4) if lengths is None
                           else lengths)
    return [column[:end] for column in columns], failure


def _typed_column(records: list, key: str, kind: str):
    """The values of ``key`` over ``records`` as a flat column, if each
    record is an object holding the key and every value is plain JSON of
    ``kind`` (see :func:`record_columns`; "numbers" as arrays of 4) that
    fits the column; otherwise None."""
    try:
        values = [record[key] for record in records]
        if kind in ("box", "numbers"):
            if not (set(map(type, values)) <= {list}
                    and set(map(len, values)) <= {4}):
                return None
            values = [v for box in values for v in box]
        types, dtype = ({int}, np.int64) if kind == "int" \
            else ({int, float}, np.float64)
        if not set(map(type, values)) <= types:
            return None
        return np.array(values, dtype=dtype)
    except (KeyError, TypeError, OverflowError):
        return None


def raise_first(masks: list, messages, failure=None) -> None:
    """Raise a CorpusError for the earliest row that breaks a rule, with
    ``messages(i)[k]`` for the first rule ``k`` row ``i`` breaks; ``masks``
    hold one row mask per rule, in check order.  With no such row, raise
    ``failure``, the error of the record after the rows, if there is one."""
    if any(mask.any() for mask in masks):
        i = int(np.logical_or.reduce(masks).argmax())
        raise CorpusError(next(message for message, mask
                               in zip(messages(i), masks) if mask[i]))
    if failure is not None:
        raise failure


def _checked_corpus(doc: dict, image_ids, widths, heights, ids, ann_images,
                    boxes, cats, failure) -> AnnotationCorpus:
    """The corpus of the columns of ``doc``'s first records, every rule
    checked here and only here, images before annotations (see
    :func:`raise_first`; ``failure`` is the error of the record after the
    columns).  A box without extent is dropped after the non-finite check
    and before the outside check."""
    order = np.argsort(image_ids, kind="stable")  # a repeat after the first
    known = image_ids[order]
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:][known[1:] == known[:-1]]] = True
    raise_first([(widths < 1) | (heights < 1), repeat], lambda i: (
        f"bad image record {doc['images'][i]!r}: image dimensions must be "
        f"positive, got {widths[i]}x{heights[i]}",
        f"duplicate image id {image_ids[i]} in image record "
        f"{doc['images'][i]!r}"))

    # each annotation's image id, width and height; 0 past the last image
    at = np.searchsorted(known, ann_images)
    found, width, height = (np.append(column[order], 0)[at]
                            for column in (image_ids, widths, heights))
    with np.errstate(over="ignore", invalid="ignore"):
        boxes[:, 2:] += boxes[:, :2]  # (x, y, x + w, y + h)
        x1, y1, x2, y2 = boxes.T
        w, h = x2 - x1, y2 - y1  # the extent the stored corners keep
        area = w * h
        cx, cy = (x1 + x2) * 0.5, (y1 + y2) * 0.5
        kept = (w > 0) & (h > 0) & (area != 0)
        outside = kept & ((x2 <= 0) | (y2 <= 0) | (x1 >= width)
                          | (y1 >= height))
        overflow = kept & ~(np.isfinite(area) & np.isfinite(cx * cx + cy * cy))
    for i in np.flatnonzero(outside).tolist():
        # exactly: a size past 2**53 rounds in the float64 comparison
        outside[i] = x2[i] <= 0 or y2[i] <= 0 \
            or float(x1[i]) >= int(width[i]) or float(y1[i]) >= int(height[i])

    def messages(i):
        ann_id, image_id = ids[i], ann_images[i]
        bbox = doc["annotations"][i]["bbox"]
        return (f"annotation {ann_id} references missing image_id "
                f"{image_id}",
                f"annotation {ann_id} in image {image_id} has a negative "
                f"category_id {cats[i]}",
                f"annotation {ann_id} has a non-finite bbox {bbox!r}",
                f"annotation {ann_id} has a bbox {bbox!r} entirely outside "
                f"image {image_id} of {width[i]}x{height[i]}",
                f"annotation {ann_id} in image {image_id} has a bbox "
                f"{bbox!r} whose area or center overflows float64")
    raise_first([(at == len(known)) | (found != ann_images), cats < 0,
                 ~(np.isfinite(x1) & np.isfinite(y1) & np.isfinite(x2)
                   & np.isfinite(y2)), outside, overflow],
                messages, failure)

    # the kept rows by (image id, id), equal ids in document order
    rows = np.flatnonzero(kept)[np.lexsort((ids[kept], ann_images[kept]))]
    return AnnotationCorpus(
        image_ids=known, sizes=np.column_stack([widths, heights])[order],
        ids=ids[rows], boxes=boxes[rows], category_ids=cats[rows],
        offsets=np.append(np.searchsorted(ann_images[rows], known),
                          len(rows)),
        categories=list(doc["categories"]), dropped=len(kept) - len(rows))


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


def load_detections(path) -> tuple:
    """A detection file's (boxes, scores, class ids) columns, read by
    :func:`record_columns`; then every rule is checked, in this order: a
    box of 4 finite values, a score in [0, 1] and a class id of at least
    0, so the first bad record names the fault (see :func:`raise_first`).
    A box of another length than 4 is cut or padded to 4 values, and its
    length refuses it."""
    (boxes, lengths, scores, cats), failure = record_columns(
        read_json(path, list), lambda i, row: f"{path}: bad detection #{i}",
        bbox="numbers", score="number", category_id="int")

    def messages(i):
        return (f"{path}: bad detection #{i}: {fault}" for fault in (
            f"box must have 4 values, got {lengths[i]}",
            f"box must be finite, got {tuple(boxes[i].tolist())}",
            f"score must be finite in [0, 1], got {float(scores[i])}",
            "class_id must be non-negative"))
    x1, y1, x2, y2 = boxes.T
    raise_first([lengths != 4, ~(np.isfinite(x1) & np.isfinite(y1)
                                 & np.isfinite(x2) & np.isfinite(y2)),
                 ~((scores >= 0.0) & (scores <= 1.0)), cats < 0],
                messages, failure)
    return boxes, scores, cats


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

# GTs per forked worker at least.  On 2 CPUs two forked workers matched
# uniform's 2k GTs 10-20 ms slower than one process, broke even near 20k
# and were faster at 70k (README).  Hungarian never forks: its counts
# solve only the images of more GTs than anchors, in this process
_FORK_GTS = 8192


def _runs(members: list, codes: list, num_gts: list) -> list:
    """Cut ``members``, image positions grouped by shape ``codes``, into
    runs of whole images of one shape and at most ``_BLOCK`` GTs each."""
    runs, total, last = [], _BLOCK, None
    for i, code in zip(members, codes):
        if total + num_gts[i] > _BLOCK or code != last:
            runs.append([])
            total, last = 0, code
        runs[-1].append(i)
        total += num_gts[i]
    return runs


def _match_chunk(corpus: AnnotationCorpus, config: RunConfig, grids: list,
                 codes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The positive count of each GT of images ``lo:hi``, in corpus order.

    The images of one shape code share ``grids[code]``, so each run of them
    that :func:`_runs` cuts is matched by one :func:`matching.run_positives`
    call, and its counts are scattered back to corpus order.
    """
    offsets = corpus.offsets[lo:hi + 1]
    num_gts = np.diff(offsets)
    # the images with GTs (others have no positives to count), by shape
    # code, in id order within a code
    codes = codes[lo:hi]
    held = np.flatnonzero(num_gts)
    held = held[np.argsort(codes[held], kind="stable")]
    positives = np.empty(offsets[-1] - offsets[0], dtype=np.int64)
    for run in _runs(held.tolist(), codes[held].tolist(), num_gts.tolist()):
        n = num_gts[run]  # each image's rows, one after the other
        rows = np.arange(n.sum()) + np.repeat(
            offsets[run] - (np.cumsum(n) - n), n)
        positives[rows - offsets[0]] = matching.run_positives(
            config.matcher, grids[codes[run[0]]], corpus.boxes[rows],
            np.repeat(np.arange(len(run)), n), config.matcher_config)
    return positives


# (corpus, config, grids, codes) of the run that forked this worker
_inherited = None


def _inherit(state):
    global _inherited
    _inherited = state


def _forked_chunk(lo: int, hi: int):
    return _match_chunk(*_inherited, lo, hi)


def _forked_positives(corpus: AnnotationCorpus, config: RunConfig,
                      grids: list, codes: np.ndarray,
                      workers: int) -> np.ndarray:
    """:func:`_match_chunk` over the whole corpus, each of ``workers``
    forked worker processes matching one contiguous chunk of images; in
    this process on a platform without ``fork``."""
    # imported here, so that a run that never forks does not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    images = len(corpus.image_ids)
    if "fork" not in multiprocessing.get_all_start_methods():
        return _match_chunk(corpus, config, grids, codes, 0, images)
    # fork, not spawn: the workers inherit the corpus, the config, the
    # grids and the codes instead of unpickling them, and skip re-importing
    # numpy
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_inherit,
            initargs=((corpus, config, grids, codes),)) as pool:
        futures = [pool.submit(_forked_chunk, images * i // workers,
                               images * (i + 1) // workers)
                   for i in range(workers)]
        return np.concatenate([f.result() for f in futures])


def _hungarian_positives(corpus: AnnotationCorpus, grids: list,
                         codes: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Each GT's Hungarian positive count, in corpus order; ``anchors``
    holds each image's anchor count.

    Where every cost is finite, a one-to-one assignment gives each GT of
    an image with no more GTs than anchors exactly one anchor, whichever
    it is; so only the images of more GTs than anchors are solved, by
    :func:`matching.hungarian_match`, in id order.
    """
    positives = np.ones(len(corpus.ids), dtype=np.int64)
    for i in np.flatnonzero(np.diff(corpus.offsets) > anchors).tolist():
        rows = slice(corpus.offsets[i], corpus.offsets[i + 1])
        gts = GroundTruthSet(corpus.boxes[rows], corpus.category_ids[rows])
        try:
            positives[rows] = matching.hungarian_match(
                grids[codes[i]], gts).positives_per_gt
        except ValueError as exc:
            raise ValueError(f"image {corpus.image_ids[i]}: {exc}") from exc
    return positives


def run_match_stats(corpus: AnnotationCorpus, config: RunConfig):
    """Match every corpus image and aggregate per-bucket statistics.

    With ``shift_max`` above 0 the whole corpus is shifted first, by
    :meth:`AnnotationCorpus.shifted`.  Returns one ``MatchDistribution``,
    its rows in image id order, the same for every worker count.  The
    workers are at most ``worker_count()``, one per image and one per
    ``_FORK_GTS`` GTs; with two or more, each forked worker process
    matches one contiguous chunk of images and sends back only its GTs'
    positive counts, and otherwise this process matches them all.
    Hungarian counts are always taken in this process.
    """
    if config.shift_max > 0:  # at 0 the boxes stay unclamped
        corpus = corpus.shifted(config.shift_max, config.seed)
    # one read-only grid per feature-map shape, indexed by each image's
    # shape code and built in order of each shape's first image, so that
    # the first grid too large to hold names the first such image.  Every
    # side is below 2**63, so a larger stride divides it as 2**63 - 1 does
    shapes = -(-corpus.sizes // min(config.anchors.stride, 2 ** 63 - 1))
    _, first, codes = np.unique(shapes, axis=0, return_index=True,
                                return_inverse=True)
    codes = codes.reshape(-1)  # its shape varies across numpy 2.x
    grids = [None] * len(first)
    for code in np.argsort(first).tolist():
        i = first[code]
        try:
            grids[code] = generate_anchors(
                config.anchors, ImageSize(*corpus.sizes[i].tolist()))
        except MemoryError as exc:  # a grid too large to hold
            raise MemoryError(f"image {corpus.image_ids[i]}: {exc}") from exc
        grids[code].anchors.setflags(write=False)

    anchors = np.array([len(grid) for grid in grids], np.int64)[codes]
    images = len(corpus.image_ids)
    workers = min(worker_count(), images, len(corpus.ids) // _FORK_GTS)
    if config.matcher == "hungarian":
        positives = _hungarian_positives(corpus, grids, codes, anchors)
    elif workers > 1:
        positives = _forked_positives(corpus, config, grids, codes, workers)
    else:
        positives = _match_chunk(corpus, config, grids, codes, 0, images)
    per_image = np.column_stack([corpus.image_ids, anchors,
                                 np.diff(corpus.offsets)])
    return distribution(per_image, corpus.boxes, positives, config.matcher,
                        config.buckets)
