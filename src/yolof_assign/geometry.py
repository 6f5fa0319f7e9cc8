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

# exp(dw)/exp(dh) clamp so decoded sizes cannot overflow
DELTA_CLAMP = math.log(1000.0 / 16.0)


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
    w = np.clip(boxes[..., 2] - boxes[..., 0], 0.0, None)
    h = np.clip(boxes[..., 3] - boxes[..., 1], 0.0, None)
    return w * h


def box_centers(boxes: np.ndarray) -> np.ndarray:
    """Centers ``(cx, cy)`` of an ``(N, 4)`` box array."""
    boxes = np.asarray(boxes, dtype=np.float64)
    return np.stack([(boxes[..., 0] + boxes[..., 2]) * 0.5,
                     (boxes[..., 1] + boxes[..., 3]) * 0.5], axis=-1)


def iou(a, b) -> float:
    """IoU of two boxes. Degenerate boxes are allowed and yield 0."""
    return float(pairwise_iou(as_boxes(a), as_boxes(b))[0, 0])


def giou(a, b) -> float:
    """Generalized IoU of two boxes, in ``[-1, 1]``."""
    return float(pairwise_giou(as_boxes(a), as_boxes(b))[0, 0])


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU matrix of shape ``(N, M)`` for boxes ``a`` and ``b``."""
    a = as_boxes(a)
    b = as_boxes(b)
    inter, union = _inter_union(a, b)
    return _ratio(inter, union)


def pairwise_giou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise generalized IoU matrix of shape ``(N, M)``."""
    a = as_boxes(a)
    b = as_boxes(b)
    inter, union = _inter_union(a, b)
    iou_m = _ratio(inter, union)
    hull, hull_h, scratch = np.empty((3, len(a), len(b)))
    _span(a, b, 0, np.maximum, np.minimum, hull, scratch)
    hull *= _span(a, b, 1, np.maximum, np.minimum, hull_h, scratch)
    penalty = _ratio(np.subtract(hull, union, out=union), hull)
    return iou_m - penalty


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` in place where ``den > 0``, and 0 elsewhere."""
    valid = den > 0
    np.divide(num, den, out=num, where=valid)
    num[~valid] = 0.0
    return num


def _span(a, b, axis: int, hi, lo, out, scratch) -> np.ndarray:
    """Clipped ``hi(a_max, b_max) - lo(a_min, b_min)`` along one axis.

    ``a``'s coordinate columns, shaped ``(N, 1)``, broadcast against
    ``b``'s ``(M,)`` rows into the preallocated ``(N, M)`` ``out``.
    """
    hi(a[:, axis + 2, None], b[:, axis + 2], out=out)
    out -= lo(a[:, axis, None], b[:, axis], out=scratch)
    return np.clip(out, 0.0, None, out=out)


def _inter_union(a: np.ndarray, b: np.ndarray):
    # one block for every (N, M) buffer: fresh matrices this size are
    # page-faulted in on each call, which costs more than the arithmetic
    inter, union, scratch = np.empty((3, len(a), len(b)))
    _span(a, b, 0, np.minimum, np.maximum, inter, scratch)
    inter *= _span(a, b, 1, np.minimum, np.maximum, union, scratch)
    np.add(box_area(a)[:, None], box_area(b), out=union)
    union -= inter
    return inter, union


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
    """Anchors paved over one feature level, row-major over positions."""

    config: AnchorConfig
    grid_h: int
    grid_w: int
    anchors: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.anchors.shape[0]


def _anchor_boxes(anchors) -> np.ndarray:
    return anchors.anchors if isinstance(anchors, AnchorGrid) \
        else as_boxes(anchors)


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
    shifted[:, [0, 2]] = np.clip(shifted[:, [0, 2]], 0.0, image.width)
    shifted[:, [1, 3]] = np.clip(shifted[:, [1, 3]], 0.0, image.height)
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


def random_shift(boxes, image: ImageSize, max_shift: int = 32,
                 rng_seed: int = 0):
    """Translate all boxes by one :func:`shift_offset`, clamp them to the
    image and drop empty ones.  Returns ``(shifted, (dx, dy))``."""
    dx, dy = shift_offset(max_shift, rng_seed)
    shifted, _ = apply_shift(boxes, image, dx, dy)
    return shifted, (dx, dy)


def decode_deltas(anchors, deltas, center_clamp: float = 32.0) -> np.ndarray:
    """Decode ``(dx, dy, dw, dh)`` regression deltas against anchors.

    The additive center displacement ``(dx * w_a, dy * h_a)`` is clamped
    component-wise to ``[-center_clamp, center_clamp]``; ``dw``/``dh`` are
    clamped to ``ln(1000/16)`` before exponentiation.
    """
    if center_clamp <= 0:
        raise ValueError("center_clamp must be positive")
    boxes = _anchor_boxes(anchors)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1, 4)
    if deltas.shape[0] != boxes.shape[0]:
        raise ValueError(f"got {deltas.shape[0]} deltas for "
                         f"{boxes.shape[0]} anchors")
    wa = boxes[:, 2] - boxes[:, 0]
    ha = boxes[:, 3] - boxes[:, 1]
    ctr = box_centers(boxes)
    shift_x = np.clip(deltas[:, 0] * wa, -center_clamp, center_clamp)
    shift_y = np.clip(deltas[:, 1] * ha, -center_clamp, center_clamp)
    cx = ctr[:, 0] + shift_x
    cy = ctr[:, 1] + shift_y
    w = wa * np.exp(np.minimum(deltas[:, 2], DELTA_CLAMP))
    h = ha * np.exp(np.minimum(deltas[:, 3], DELTA_CLAMP))
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
