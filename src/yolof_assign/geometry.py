"""Box geometry, anchor grids, and coordinate transforms.

Boxes are axis-aligned rectangles in absolute pixel coordinates with the
image origin at the top-left, stored as ``(x1, y1, x2, y2)`` with
``x1 <= x2`` and ``y1 <= y2``.  Sets of boxes are float ``(N, 4)`` numpy
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

# config field type -> (accepted value types, what the message asks for)
_FIELD_TYPES = {
    "int": ((int, np.integer), "an integer"),
    "bool": ((bool, np.bool_), "a bool"),
    "float": ((int, float, np.integer, np.floating), "a finite real number"),
    "tuple": ((tuple,), "a list of finite real numbers"),
}


def _fits(value, kind: str) -> bool:
    """Whether ``value`` fits the config field type ``kind``: a bool is
    only a bool (Python counts it as an int), a ``float`` is finite, and a
    ``tuple`` holds ``float`` values."""
    if kind == "tuple":
        return isinstance(value, tuple) and all(_fits(v, "float")
                                                for v in value)
    return isinstance(value, _FIELD_TYPES[kind][0]) \
        and isinstance(value, (bool, np.bool_)) == (kind == "bool") \
        and (kind != "float" or abs(value) < np.inf)


def _check_types(cfg) -> None:
    """Reject a config field value that does not fit its field's type."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if not _fits(v, f.type):
            raise ValueError(f"{f.name} must be {_FIELD_TYPES[f.type][1]}, "
                             f"got {v!r}")


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


def pairwise_iou(a: np.ndarray, b, b_areas=None) -> np.ndarray:
    """IoU of boxes ``a`` with the boxes of ``b``.

    ``b`` is an ``(M, 4)`` box array, giving the ``(N, M)`` matrix, or an
    ``(N, k, 4)`` array of k boxes per box of ``a``, giving ``(N, k)``.
    ``b_areas``, when given, are the areas of ``b``'s boxes (a grid's
    ``areas`` gathered as its anchors are), which are then not recomputed.
    """
    a = as_boxes(a)
    inter, union = _inter_union(a, _other_boxes(a, b), b_areas)
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


def _inter_union(a: np.ndarray, b: np.ndarray, b_areas=None):
    # one block for every (N, M) buffer: fresh matrices this size are
    # page-faulted in on each call, which costs more than the arithmetic
    shape = (len(a),) + b.shape[-2:-1]  # (N, M), or (N, k) gathered
    inter, union, scratch = np.empty((3,) + shape)
    _span(a[:, None, ::2], b[..., ::2], inter, scratch)
    inter *= _span(a[:, None, 1::2], b[..., 1::2], union, scratch)
    np.add(box_area(a)[:, None], box_area(b) if b_areas is None else b_areas,
           out=union)
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
        _check_types(self)
        if self.stride < 1:
            raise ValueError("stride must be a positive integer")
        # Below 2**428 an anchor center of an image of int64 side, rounded
        # from its corners, lies within 2**430.  Subtracting it leaves a
        # box coordinate of 2**484 or more no larger and squares a smaller
        # offset below 2**970, half an ulp of the largest float, so every
        # center distance of a box the reader accepts (its center's squares
        # sum to a finite float) is finite.
        if self.stride >= 2 ** 428:
            raise ValueError(f"stride must be below 2**428, got {self.stride}")
        for name in ("sizes", "scale_multipliers", "aspect_ratios"):
            vals = getattr(self, name)
            if len(vals) == 0 or any(v <= 0 for v in vals):
                raise ValueError(f"{name} must be non-empty and positive")
        with np.errstate(over="ignore"):
            areas = box_area(self.cell_boxes())
        if not ((0 < areas) & (areas < np.inf)).all():
            raise ValueError("every anchor area must be positive and finite")

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

    ``image`` is one ``(width, height)``, or an ``(N, 2)`` array of each
    box's; ``dx`` and ``dy`` are numbers, or length-N arrays of each box's
    offset.  Returns ``(shifted, kept)`` where ``kept`` holds the input
    indices of the surviving boxes.
    """
    boxes = as_boxes(boxes)
    # rows of (dx, dy, dx, dy) and (width, height, width, height)
    offset = np.tile(np.column_stack(np.broadcast_arrays(dx, dy)), 2)
    bounds = np.tile(np.reshape(image, (-1, 2)), 2)
    shifted = boxes + offset
    np.clip(shifted, 0.0, bounds, out=shifted)
    kept = np.flatnonzero(box_area(shifted) > 0)
    return shifted[kept], kept


# numpy's SeedSequence hash constants, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32, _LOW64 = 2 ** 32 - 1, 2 ** 64 - 1


def shift_offsets(seed: int, image_ids, max_shift: int) -> np.ndarray:
    """Each image's random integer offset, uniform in
    ``[-max_shift, max_shift]^2``: a ``(2, N)`` int64 array of dx, then dy.

    An image's offset is the two ``integers(-max_shift, max_shift + 1)``
    draws, dx first, of ``np.random.default_rng((seed, image_id))``,
    computed here for every image at once: SeedSequence hashes the seed's
    and the id's uint32 words into PCG64's seed, PCG64 (O'Neill 2014)
    gives one 64-bit output, and Lemire's multiply-shift (2019) maps its
    low, then its high, 32 bits into the range.  ``default_rng`` itself
    draws the rows where Lemire would reject the dx or the dy and draw
    again, and every row at ``max_shift`` 2**31 and above, where numpy
    draws 64 bits.  At ``max_shift`` 0 nothing is drawn; above it, an id
    must be >= 0.
    """
    if max_shift < 0:
        raise ValueError(f"max_shift must be >= 0, got {max_shift}")
    ids = np.asarray(image_ids, dtype=np.int64)
    offsets = np.zeros((2, len(ids)), np.int64)
    if max_shift == 0:
        return offsets
    if len(ids) and ids.min() < 0:
        raise ValueError(f"image {ids.min()} has a negative id; a shift "
                         f"above 0 is drawn only for ids >= 0")
    redraw = np.ones(len(ids), bool)
    span = 2 * max_shift + 1
    if span <= _LOW32 and 0 <= seed <= _LOW64:
        out = _pcg64_output(seed, ids)
        draws = np.stack([out & _LOW32, out >> 32]) * span
        offsets = (draws >> 32).astype(np.int64) - max_shift
        redraw = ((draws & _LOW32) < (_LOW32 - 2 * max_shift) % span).any(0)
    for i in np.flatnonzero(redraw).tolist():
        rng = np.random.default_rng((seed, int(ids[i])))
        offsets[:, i] = [rng.integers(-max_shift, max_shift + 1)
                         for _ in range(2)]
    return offsets


def _pcg64_output(seed: int, ids: np.ndarray) -> np.ndarray:
    """The first 64-bit output of ``PCG64(SeedSequence((seed, id)))`` for
    each id, with 128-bit numbers held as (high, low) uint64 arrays."""
    # the entropy words, seed's then id's; a one-word id hashes as a
    # two-word one whose high word is 0, as a missing pool word does
    words = np.zeros((len(ids), 4), np.uint32)
    seed_words = [seed & _LOW32, seed >> 32][:1 + (seed > _LOW32)]
    words[:, :len(seed_words)] = seed_words
    words[:, len(seed_words)] = ids & _LOW32
    words[:, len(seed_words) + 1] = ids >> 32
    v0, v1, v2, v3 = _seed_state(words)
    # pcg64_set_seed: state (v0, v1) and stream (v2, v3), each (high, low);
    # one step from state 0 gives the increment, then the seed is added
    inc = v2 << 1 | v3 >> 63, v3 << 1 | 1
    state = _add128(*inc, v0, v1)
    for _ in range(2):  # the seeding's second step, then the draw's
        state = _add128(*_mul128(*state, _PCG_MULT), *inc)
    hi, lo = state
    x, rot = hi ^ lo, hi >> 58  # XSL-RR
    return x >> rot | x << ((64 - rot) & 63)


def _seed_state(words: np.ndarray) -> list:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row of
    4 uint32 entropy words, as 4 uint64 arrays."""
    a = _hash_consts(_INIT_A, _MULT_A, 16)
    pool = [_hash(words[:, i], a, i) for i in range(4)]
    step = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_L * pool[dst]
                         - _MIX_R * _hash(pool[src], a, step))
                pool[dst] = mixed ^ mixed >> 16
                step += 1
    b = _hash_consts(_INIT_B, _MULT_B, 8)
    half = [_hash(pool[i % 4], b, i).astype(np.uint64) for i in range(8)]
    return [half[i] | half[i + 1] << 32 for i in range(0, 8, 2)]


def _hash_consts(init: int, mult: int, n: int) -> list:
    """``init`` and its next ``n`` multiples by ``mult``, mod 2**32."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _LOW32)
    return consts


def _hash(value: np.ndarray, consts: list, i: int) -> np.ndarray:
    """SeedSequence's ``i``-th hash of uint32 words: xor with the hash
    constant, step the constant, multiply, xor-shift."""
    value = (value ^ consts[i]) * consts[i + 1]
    return value ^ value >> 16


def _mul128(hi, lo, const: int):
    """``(hi, lo) * const`` mod 2**128; the high word of ``lo`` times
    ``const``'s low word is summed from 32-bit limbs."""
    c_hi, c_lo = const >> 64, const & _LOW64
    l0, l1, c0, c1 = lo & _LOW32, lo >> 32, c_lo & _LOW32, c_lo >> 32
    cross0, cross1 = l0 * c1, l1 * c0
    carry = (l0 * c0 >> 32) + (cross0 & _LOW32) + (cross1 & _LOW32) >> 32
    return (l1 * c1 + (cross0 >> 32) + (cross1 >> 32) + carry
            + hi * c_lo + lo * c_hi), lo * c_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo
