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
    w = np.maximum(boxes[..., 2] - boxes[..., 0], 0.0)
    w *= np.maximum(boxes[..., 3] - boxes[..., 1], 0.0)
    return w


def box_centers(boxes: np.ndarray) -> np.ndarray:
    """Centers ``(cx, cy)`` of an ``(N, 4)`` box array."""
    boxes = np.asarray(boxes, dtype=np.float64)
    return np.stack([(boxes[..., 0] + boxes[..., 2]) * 0.5,
                     (boxes[..., 1] + boxes[..., 3]) * 0.5], axis=-1)


def iou(a, b) -> float:
    """IoU of two boxes. Degenerate boxes are allowed and yield 0."""
    return float(pairwise_iou(as_boxes(a), as_boxes(b))[0, 0])


def pairwise_iou(a: np.ndarray, b) -> np.ndarray:
    """IoU of boxes ``a`` with the boxes of ``b``.

    ``b`` is an ``(M, 4)`` box array, giving the ``(N, M)`` matrix; an
    ``(N, k, 4)`` array of k boxes per box of ``a``, giving ``(N, k)``; or
    an :class:`AnchorGrid`, giving ``(N, len(b))`` from the grid's
    per-column and per-row extents, bit-identical to ``b.anchors``.
    """
    a = as_boxes(a)
    if isinstance(b, AnchorGrid):
        inter, union = _grid_inter_union(a, b)
    else:
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
    shape = np.broadcast_shapes((len(a), 1), b.shape[:-1])
    inter, union, scratch = np.empty((3,) + shape)
    _span(a[:, None, ::2], b[..., ::2], inter, scratch)
    inter *= _span(a[:, None, 1::2], b[..., 1::2], union, scratch)
    np.add(box_area(a)[:, None], box_area(b), out=union)
    union -= inter
    return inter, union


def _grid_inter_union(a: np.ndarray, grid: "AnchorGrid"):
    """:func:`_inter_union` against every anchor of ``grid``.

    An anchor's x extent depends only on its (column, slot) and its y
    extent only on its (row, slot), so the clipped spans are thin
    ``(N, W, A)`` and ``(N, H, A)`` arrays whose products are the
    intersections; every float is the one the flat kernel computes.
    """
    xs = np.empty((2, len(a)) + grid.x_extents.shape[:-1])
    ys = np.empty((2, len(a)) + grid.y_extents.shape[:-1])
    _span(a[:, None, None, ::2], grid.x_extents, *xs)
    _span(a[:, None, None, 1::2], grid.y_extents, *ys)
    inter = _grid_outer(np.multiply, xs[0], ys[0])
    union = np.add(box_area(a)[:, None], grid.areas)
    union -= inter
    return inter, union


def _grid_outer(op, per_col: np.ndarray, per_row: np.ndarray) -> np.ndarray:
    """``op(per_row[m, i, s], per_col[m, j, s])`` for every anchor (row i,
    column j, slot s) in anchor order, shape ``(M, H * W * A)``, from
    ``(M, W, A)`` column values and ``(M, H, A)`` row values.

    ``op`` must be commutative (it sees the row value first).  The row
    values are tiled over the columns first, because a broadcast whose
    innermost axis is the few slots runs far slower than a flat one.
    """
    out = np.repeat(per_row[:, :, None], per_col.shape[1], axis=2)
    op(out, per_col[:, None], out=out)
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

    Beside the ``(H * W * A, 4)`` anchors it keeps thin read-only copies
    for the grid kernels: ``x_extents`` ``(W, A, 2)`` and ``x_centers``
    ``(W, A)`` per (column, slot), ``y_extents`` ``(H, A, 2)`` and
    ``y_centers`` ``(H, A)`` per (row, slot), and the anchor ``areas``.
    ``shared_centers`` says whether every slot's float center equals slot
    0's, so that distances can be taken per position.
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
        self.x_extents = cells[0, :, :, ::2].copy()
        self.y_extents = cells[:, 0, :, 1::2].copy()
        self.x_centers = box_centers(cells[0])[..., 0]
        self.y_centers = box_centers(cells[:, 0])[..., 1]
        self.areas = box_area(self.anchors)
        for arr in (self.x_extents, self.y_extents, self.x_centers,
                    self.y_centers, self.areas):
            arr.setflags(write=False)
        self.shared_centers = bool(
            (self.x_centers == self.x_centers[:, :1]).all()
            and (self.y_centers == self.y_centers[:, :1]).all())

    def __len__(self) -> int:
        return self.anchors.shape[0]


def _anchor_layout(anchors):
    """``(anchors, boxes)``: a grid and its ``(N, 4)`` anchors, or any other
    anchor input as one ``(N, 4)`` array in both places."""
    if isinstance(anchors, AnchorGrid):
        return anchors, anchors.anchors
    boxes = as_boxes(anchors)
    return boxes, boxes


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


def apply_shift(boxes, image: ImageSize, dx: float, dy: float):
    """Translate boxes by ``(dx, dy)``, clamp to the image, drop empties.

    Returns ``(shifted, kept)`` where ``kept`` holds the input indices of
    the surviving boxes.
    """
    boxes = as_boxes(boxes)
    shifted = boxes + np.array([dx, dy, dx, dy], dtype=np.float64)
    np.clip(shifted, 0.0, [image.width, image.height] * 2, out=shifted)
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

