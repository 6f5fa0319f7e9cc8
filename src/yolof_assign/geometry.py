"""Box geometry, anchor grids, and coordinate transforms.

Boxes are axis-aligned rectangles in absolute pixel coordinates with the
image origin at the top-left, stored as ``(x1, y1, x2, y2)`` with
``x1 <= x2`` and ``y1 <= y2``.  Sets of boxes are float ``(N, 4)`` numpy
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

@dataclass(frozen=True)
class ImageSize:
    """Integer pixel dimensions of an image."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image dimensions must be positive, got "
                             f"{self.width}x{self.height}")


def as_boxes(boxes) -> np.ndarray:
    """Coerce box input to a float64 ``(N, 4)`` array (copies)."""
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 4)
    if arr.ndim == 1:
        arr = arr.reshape(1, 4)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"expected (N, 4) boxes, got shape {arr.shape}")
    return arr.copy()


def box_area(boxes: np.ndarray) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64)
    # np.maximum is what np.clip(x, 0.0, None) calls, without its overhead
    sides = np.maximum(boxes[..., 2:] - boxes[..., :2], 0.0)
    return sides[..., 0] * sides[..., 1]


def box_centers(boxes: np.ndarray) -> np.ndarray:
    """Centers ``(cx, cy)`` of an ``(N, 4)`` box array."""
    boxes = np.asarray(boxes, dtype=np.float64)
    centers = boxes[..., :2] + boxes[..., 2:]
    centers *= 0.5
    return centers


def iou(a, b) -> float:
    """IoU of two boxes. Degenerate boxes are allowed and yield 0."""
    return float(pairwise_iou(as_boxes(a), as_boxes(b))[0, 0])


def pairwise_iou(a: np.ndarray, b) -> np.ndarray:
    """IoU of boxes ``a`` with the boxes of ``b``.

    ``b`` is an ``(M, 4)`` box array, giving the ``(N, M)`` matrix; an
    ``(N, k, 4)`` array of k boxes per box of ``a``, giving ``(N, k)``; or
    an :class:`AnchorGrid`, giving the matrix of its anchors.  On a grid,
    :func:`iou_window` scores only the pairs that may pass a threshold.
    """
    a = as_boxes(a)
    if isinstance(b, AnchorGrid):
        b = b.anchors
    inter, union = _inter_union(a, _other_boxes(a, b))
    return _ratio(inter, union)


def _other_boxes(a: np.ndarray, b) -> np.ndarray:
    """``b`` as float64 ``(M, 4)`` boxes, or ``(len(a), k, 4)`` rows."""
    arr = np.asarray(b, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[0] == len(a) and arr.shape[2] == 4:
        return arr
    return as_boxes(arr)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` in place where ``den > 0``, and 0 elsewhere."""
    valid = den > 0
    np.divide(num, den, out=num, where=valid)
    num[~valid] = 0.0
    return num


def _span(a, b, out, scratch) -> np.ndarray:
    """Clipped overlap ``min(a_max, b_max) - max(a_min, b_min)`` along one
    axis.

    ``a`` and ``b`` hold ``(min, max)`` pairs on their last axis; the rest
    broadcasts into the preallocated ``out``.
    """
    np.minimum(a[..., 1], b[..., 1], out=out)
    out -= np.maximum(a[..., 0], b[..., 0], out=scratch)
    return np.maximum(out, 0.0, out=out)


def _inter_union(a: np.ndarray, b: np.ndarray):
    # one block for every (N, M) buffer: fresh matrices this size are
    # page-faulted in on each call, which costs more than the arithmetic
    shape = (len(a),) + b.shape[-2:-1]  # (N, M), or (N, k) gathered
    inter, union, scratch = np.empty((3,) + shape)
    _span(a[:, None, ::2], b[..., ::2], inter, scratch)
    inter *= _span(a[:, None, 1::2], b[..., 1::2], union, scratch)
    np.add(box_area(a)[:, None], box_area(b), out=union)
    union -= inter
    return inter, union


# the smallest positive float
_TINY = np.nextafter(0.0, 1.0)


def iou_window(a, grid: "AnchorGrid", thresh):
    """``(gt, anchor, iou)`` of every pair of a box of ``a`` and an anchor
    of ``grid`` whose IoU is positive and at least ``thresh[gt]``.  Each
    IoU is the float the flat kernel computes for the pair.

    An anchor's x extent depends only on its (column, slot) and its y
    extent only on its (row, slot).  So for each (box, slot) the clipped
    spans are one thin row over the columns and one over the rows, and an
    anchor's intersection is the product of two of them.  A (box, slot) is
    scored only if its sides and the slot's widest sides may reach the
    threshold, and then only in the window of columns and rows that may
    reach it with the widest span of the other axis (:func:`_reaches`).
    """
    a = as_boxes(a)
    # an IoU is positive and at least t when it is at least the larger of
    # t and the smallest positive float
    thresh = np.maximum(thresh, _TINY)
    sides = np.maximum(a[:, 2:] - a[:, :2], 0.0)
    area = sides[:, 0] * sides[:, 1]  # box_area(a)
    sides = np.minimum(sides[:, None], grid.slot_max_sides)
    gt, slot = _reaches(sides[..., 0] * sides[..., 1],
                        area[:, None] + grid.slot_min_areas,
                        thresh[:, None]).nonzero()
    if len(gt) == 0:  # no (box, slot) may reach its threshold
        return gt, gt, np.empty(0)
    box = a[gt, :, None]
    span = np.minimum(box[:, 2:], grid.slot_hi[slot])  # (P, 2, L)
    span -= np.maximum(box[:, :2], grid.slot_lo[slot])
    np.maximum(span, 0.0, out=span)
    ok = _reaches(span * span.max(axis=2)[:, ::-1, None],
                  (area[gt] + grid.slot_min_areas[slot])[:, None, None],
                  thresh[gt, None, None])
    p, i, j = _window(ok)
    gt, anchor = gt[p], grid.anchor_index(i, j, slot[p])
    inter = span[p, 1, i] * span[p, 0, j]
    union = area[gt] + grid.areas[anchor]
    union -= inter
    iou = _ratio(inter, union)
    keep = iou >= thresh[gt]
    return gt[keep], anchor[keep], iou[keep]


def _reaches(inter, total, t) -> np.ndarray:
    """Whether ``inter / (total - inter)`` is at least ``t``.

    Given an intersection no smaller and a ``total`` area no larger than
    an anchor's, float rounding being monotone, this holds whenever the
    anchor's IoU does.  ``inter`` is at most the box's area and ``total``
    exceeds it by a slot's positive area, so the union is positive.
    """
    return inter / (total - inter) >= t


def distance_window(centers, grid: "AnchorGrid", margin: float):
    """``(gt, anchor, distance)`` of every anchor of ``grid`` whose center
    distance ``d`` from ``centers[gt]`` has ``d - margin`` at most that
    center's nearest distance.

    ``d`` is ``sqrt(dy * dy + dx * dx)`` of the center offsets, the float
    the distance kernels of ``matching`` compute.  A column is in the
    window when its squared x offset plus its slot's smallest squared y
    offset passes, a row likewise; no other anchor is nearer.  Where every
    slot shares slot 0's centers, only slot 0 is scored, and each anchor
    found stands for its whole position.
    """
    slots = 1 if grid.shared_centers else len(grid.slot_centers)
    gt, slot = np.divmod(np.arange(len(centers) * slots), slots)
    sq = centers[:, None, :, None] - grid.slot_centers[:slots]
    sq *= sq
    sq = sq.reshape(len(gt), 2, -1)  # (P, 2, L)
    nearest = sq.min(axis=2)
    b = np.sqrt((nearest[:, 1] + nearest[:, 0]).reshape(
        -1, slots).min(axis=1))[gt]
    ok = np.sqrt(sq + nearest[:, ::-1, None]) - margin <= b[:, None, None]
    p, i, j = _window(ok)
    dist = np.sqrt(sq[p, 1, i] + sq[p, 0, j])
    keep = dist - margin <= b[p]
    p, i, j, dist = p[keep], i[keep], j[keep], dist[keep]
    per = len(grid.slot_centers) // slots  # the slots each anchor stands for
    anchor = grid.anchor_index(i, j, slot[p])[:, None] + np.arange(per)
    return gt[p].repeat(per), anchor.ravel(), dist.repeat(per)


def _window(ok: np.ndarray):
    """``(p, row, col)`` of the anchors in the windows of ``ok``.

    ``ok[p]`` marks the columns, then the rows, of one (box, slot) that
    may hold a passing anchor.  Its window is the rectangle from the first
    to the last marked row and column, so it holds every anchor whose row
    and column are both marked.
    """
    first = ok.argmax(axis=2)
    size = ok.shape[2] - ok[..., ::-1].argmax(axis=2) - first
    size *= ok.any(axis=2)  # 0 where nothing is marked
    (col0, row0), (cols, rows) = first.T, size.T
    n = cols * rows
    p = np.arange(len(n)).repeat(n)
    di, dj = np.divmod(np.arange(len(p)) - (n.cumsum() - n)[p], cols[p])
    return p, row0[p] + di, col0[p] + dj


def _grid_outer(per_col: np.ndarray, per_row: np.ndarray) -> np.ndarray:
    """``per_row[m, i, s] + per_col[m, j, s]`` for every anchor (row i,
    column j, slot s) in anchor order, shape ``(M, H * W * A)``, from
    ``(M, W, A)`` column values and ``(M, H, A)`` row values.

    The row values are tiled over the columns first, because a broadcast
    whose innermost axis is the few slots runs far slower than a flat one.
    """
    out = np.repeat(per_row[:, :, None], per_col.shape[1], axis=2)
    out += per_col[:, None]
    return out.reshape(len(out), math.prod(out.shape[1:]))


@dataclass(frozen=True)
class AnchorConfig:
    """Anchor layout for one feature level.

    ``sizes`` are base side lengths; each is combined with every scale
    multiplier and aspect ratio (height/width), so anchors-per-position is
    ``len(sizes) * len(scale_multipliers) * len(aspect_ratios)``.
    """

    stride: int = 32
    sizes: tuple = (32.0, 64.0, 128.0, 256.0, 512.0)
    scale_multipliers: tuple = (1.0,)
    aspect_ratios: tuple = (1.0,)

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be a positive integer")
        for name in ("sizes", "scale_multipliers", "aspect_ratios"):
            vals = getattr(self, name)
            if len(vals) == 0 or any(v <= 0 for v in vals):
                raise ValueError(f"{name} must be non-empty and positive")

    @property
    def anchors_per_position(self) -> int:
        return (len(self.sizes) * len(self.scale_multipliers)
                * len(self.aspect_ratios))

    def cell_boxes(self) -> np.ndarray:
        """Anchor boxes centered at the origin, one row per anchor slot."""
        rows = []
        for s in self.sizes:
            for m in self.scale_multipliers:
                for r in self.aspect_ratios:
                    w = s * m / math.sqrt(r)
                    h = s * m * math.sqrt(r)
                    rows.append((-w / 2, -h / 2, w / 2, h / 2))
        return np.array(rows, dtype=np.float64)


@dataclass
class AnchorGrid:
    """Anchors paved over one feature level, row-major over positions.

    Beside the ``(H * W * A, 4)`` anchors and their ``areas`` it keeps
    read-only per-slot arrays for the grid kernels: ``slot_lo``,
    ``slot_hi`` and ``slot_centers``, each ``(A, 2, max(W, H))``, hold
    each column's x extent and center, then each row's y extent and
    center, padded with lines that no box overlaps and no center is near;
    ``slot_max_sides`` ``(A, 2)`` and ``slot_min_areas`` ``(A,)`` bound a
    slot's anchors.  ``shared_centers`` says whether every slot's float
    center equals slot 0's, so that distances can be taken per position.
    """

    config: AnchorConfig
    grid_h: int
    grid_w: int
    anchors: np.ndarray = field(repr=False)

    def __post_init__(self):
        cells = self.anchors.reshape(self.grid_h, self.grid_w, -1, 4)
        if not ((cells[..., ::2] == cells[0, :, :, ::2]).all()
                and (cells[..., 1::2] == cells[:, :1, :, 1::2]).all()):
            raise ValueError("anchors must pave a grid: x set by column and "
                             "slot, y by row and slot")
        self.areas = box_area(self.anchors)
        # per slot, the columns (axis 0) and the rows (axis 1), padded to
        # one length with empty extents at infinite centers
        size = max(self.grid_w, self.grid_h)
        self.slot_lo = np.full((cells.shape[2], 2, size), np.inf)
        self.slot_hi = np.full_like(self.slot_lo, -np.inf)
        self.slot_centers = np.full_like(self.slot_lo, np.inf)
        for axis, line in ((0, cells[0]), (1, cells[:, 0])):  # (L, A, 4)
            self.slot_lo[:, axis, :len(line)] = line[..., axis].T
            self.slot_hi[:, axis, :len(line)] = line[..., axis + 2].T
            self.slot_centers[:, axis, :len(line)] = \
                box_centers(line)[..., axis].T
        self.slot_max_sides = (self.slot_hi - self.slot_lo).max(axis=2)
        self.slot_min_areas = self.areas.reshape(-1, cells.shape[2]).min(0)
        for arr in (self.areas, self.slot_lo, self.slot_hi,
                    self.slot_centers, self.slot_max_sides,
                    self.slot_min_areas):
            arr.setflags(write=False)
        self.shared_centers = bool(
            (self.slot_centers == self.slot_centers[:1]).all())

    def __len__(self) -> int:
        return self.anchors.shape[0]

    def anchor_index(self, row, col, slot):
        """The index of the anchor at (row, column, slot)."""
        return (row * self.grid_w + col) * len(self.slot_lo) + slot


def generate_anchors(config: AnchorConfig, image: ImageSize) -> AnchorGrid:
    """Pave anchors on a feature grid of ``ceil(image / stride)`` cells.

    Anchors are centered at ``((j + 0.5) * stride, (i + 0.5) * stride)``
    and are not clipped to the image.  Order is row-major over positions,
    then anchor slot within the position.
    """
    stride = config.stride
    grid_h = -(-image.height // stride)
    grid_w = -(-image.width // stride)
    cell = config.cell_boxes()  # (A, 4)
    jj, ii = np.meshgrid(np.arange(grid_w), np.arange(grid_h))
    cx = (jj.ravel() + 0.5) * stride
    cy = (ii.ravel() + 0.5) * stride
    centers = np.stack([cx, cy, cx, cy], axis=1)  # (P, 4)
    anchors = (centers[:, None, :] + cell[None, :, :]).reshape(-1, 4)
    return AnchorGrid(config=config, grid_h=grid_h, grid_w=grid_w,
                      anchors=anchors)


def apply_shift(boxes, image, dx, dy):
    """Translate boxes by ``(dx, dy)``, clamp to the image, drop empties.

    ``image`` is one ``ImageSize``, or an ``(N, 2)`` array of each box's
    image ``(width, height)``; ``dx`` and ``dy`` are numbers, or length-N
    arrays of each box's offset.  Returns ``(shifted, kept)`` where
    ``kept`` holds the input indices of the surviving boxes.
    """
    boxes = as_boxes(boxes)
    if isinstance(image, ImageSize):
        image = (image.width, image.height)
    # rows of (dx, dy, dx, dy) and (width, height, width, height)
    offset = np.tile(np.column_stack(np.broadcast_arrays(dx, dy)), 2)
    bounds = np.tile(np.reshape(image, (-1, 2)), 2)
    shifted = boxes + offset
    np.clip(shifted, 0.0, bounds, out=shifted)
    kept = np.flatnonzero(box_area(shifted) > 0)
    return shifted[kept], kept


def shift_offset(max_shift: int, seed) -> tuple:
    """Random integer ``(dx, dy)``, uniform in ``[-max_shift, max_shift]^2``,
    dx drawn first, from ``np.random.default_rng(seed)``."""
    if max_shift < 0:
        raise ValueError(f"max_shift must be >= 0, got {max_shift}")
    rng = np.random.default_rng(seed)
    dx = int(rng.integers(-max_shift, max_shift + 1))
    dy = int(rng.integers(-max_shift, max_shift + 1))
    return dx, dy

