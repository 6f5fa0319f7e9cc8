import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yolof_assign.geometry import (AnchorConfig, ImageSize, apply_shift,
                                   generate_anchors, iou, pairwise_iou,
                                   shift_offsets)

from oracles import iou_py, raster_iou, shift_offset_py

int_boxes = st.tuples(st.integers(-20, 20), st.integers(-20, 20),
                      st.integers(1, 25), st.integers(1, 25)).map(
    lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestIoU:
    def test_identity(self):
        assert iou([0, 0, 10, 10], [0, 0, 10, 10]) == 1.0

    def test_disjoint(self):
        assert iou([0, 0, 1, 1], [5, 5, 6, 6]) == 0.0

    def test_partial_overlap(self):
        assert iou([0, 0, 2, 2], [1, 0, 3, 2]) == pytest.approx(1 / 3)

    def test_degenerate_boxes_yield_zero(self):
        assert iou([3, 3, 3, 3], [3, 3, 3, 3]) == 0.0

    @given(a=int_boxes, b=int_boxes)
    @settings(max_examples=60, deadline=None)
    def test_matches_rasterization_oracle(self, a, b):
        assert iou(a, b) == pytest.approx(raster_iou(a, b), abs=1e-12)

    @given(a=int_boxes, b=int_boxes)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)


class TestGenerateAnchors:
    def test_default_config_800x1280(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(1280, 800))
        assert (grid.grid_h, grid.grid_w) == (25, 40)
        assert len(grid) == 5000

    def test_small_image_layout(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(64, 64))
        assert (grid.grid_h, grid.grid_w) == (2, 2)
        assert len(grid) == 20
        np.testing.assert_allclose(grid.anchors[0], [0, 0, 32, 32])

    def test_single_cell_single_anchor(self):
        cfg = AnchorConfig(sizes=(32.0,))
        grid = generate_anchors(cfg, ImageSize(32, 32))
        assert len(grid) == 1
        np.testing.assert_allclose(grid.anchors[0], [0, 0, 32, 32])

    def test_count_and_centers(self):
        cfg = AnchorConfig(stride=16, sizes=(20.0, 40.0),
                           scale_multipliers=(1.0, 1.26),
                           aspect_ratios=(0.5, 1.0, 2.0))
        grid = generate_anchors(cfg, ImageSize(100, 60))
        assert len(grid) == grid.grid_h * grid.grid_w * 12
        # anchor centered at ((j+0.5)*stride, (i+0.5)*stride) per cell
        a = grid.anchors.reshape(grid.grid_h, grid.grid_w, 12, 4)
        cx = (a[..., 0] + a[..., 2]) / 2
        for i in range(grid.grid_h):
            for j in range(grid.grid_w):
                assert np.allclose(cx[i, j], (j + 0.5) * 16)

    def test_aspect_ratio_shapes(self):
        cfg = AnchorConfig(sizes=(32.0,), aspect_ratios=(4.0,))
        grid = generate_anchors(cfg, ImageSize(32, 32))
        w = grid.anchors[0, 2] - grid.anchors[0, 0]
        h = grid.anchors[0, 3] - grid.anchors[0, 1]
        assert w == pytest.approx(16.0)
        assert h == pytest.approx(64.0)

    def test_order_is_stable(self):
        cfg = AnchorConfig()
        a = generate_anchors(cfg, ImageSize(320, 320)).anchors
        b = generate_anchors(cfg, ImageSize(320, 320)).anchors
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_image(self):
        with pytest.raises(ValueError):
            ImageSize(0, 100)

    # below 2**428 every squared center distance of a box the reader
    # takes is finite; 10**173 and 10**400 once gave overflow warnings
    # and an OverflowError traceback
    @pytest.mark.parametrize("stride", [1, 2 ** 427, 10 ** 128, 2 ** 428 - 1])
    def test_takes_a_stride_below_2_to_the_428(self, stride):
        assert AnchorConfig(stride=stride).stride == stride

    @pytest.mark.parametrize("stride", [2 ** 428, 2 ** 428 + 1, 10 ** 129,
                                        10 ** 173, 10 ** 400])
    def test_refuses_a_stride_of_2_to_the_428_or_more(self, stride):
        with pytest.raises(ValueError, match=rf"^stride must be below "
                                             rf"2\*\*428, got {stride}$"):
            AnchorConfig(stride=stride)


class TestRandomShift:
    def test_zero_shift_is_identity(self):
        boxes = np.array([[0, 0, 10, 10], [5, 5, 20, 30]], dtype=float)
        (dx,), (dy,) = shift_offsets(7, [3], 0)
        assert (dx, dy) == (0, 0)
        shifted, kept = apply_shift(boxes, (100, 100), dx, dy)
        np.testing.assert_array_equal(shifted, boxes)
        np.testing.assert_array_equal(kept, [0, 1])

    def test_forced_translation(self):
        shifted, kept = apply_shift([[0, 0, 10, 10]], (100, 100), 5, 5)
        np.testing.assert_allclose(shifted, [[5, 5, 15, 15]])
        np.testing.assert_array_equal(kept, [0])

    def test_degenerate_after_clamp_dropped(self):
        shifted, kept = apply_shift([[0, 0, 10, 10]], (100, 100), -20, 0)
        assert len(shifted) == 0 and len(kept) == 0

    def test_clamps_x_to_width_and_y_to_height(self):
        boxes = [[80, 10, 95, 30], [-5, 30, 20, 45.5], [1, 2, 3, 4]]
        image = (100, 40)  # not square, so the axes cannot swap
        shifted, kept = apply_shift(boxes, image, 10.5, 3)
        want = [[min(max(v + d, 0.0), hi) for v, d, hi in
                 zip(box, (10.5, 3, 10.5, 3), (100, 40, 100, 40))]
                for box in boxes]
        np.testing.assert_array_equal(shifted, want)
        np.testing.assert_array_equal(kept, [0, 1, 2])

    def test_offset_draws_dx_then_dy(self):
        rng = np.random.default_rng((7, 3))
        want = tuple(int(rng.integers(-32, 33)) for _ in range(2))
        assert shift_offset_py(32, 7, 3) == want
        assert tuple(shift_offsets(7, [3], 32)[:, 0].tolist()) == want
        assert shift_offsets(5, [0, 1], 0).tolist() == [[0, 0], [0, 0]]

    def test_offset_rejects_negative_max_shift(self):
        with pytest.raises(ValueError, match="got -1"):
            shift_offsets(0, [0], -1)

    def test_offset_of_a_negative_id(self):
        # nothing is drawn at 0; above it, numpy's seeding refuses the id
        assert shift_offsets(0, [-3, 2], 0).tolist() == [[0, 0], [0, 0]]
        with pytest.raises(ValueError, match="image -3 has a negative id"):
            shift_offsets(0, [-3, 2], 4)

    @given(dx=st.integers(-30, 30), dy=st.integers(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_interior_shift_roundtrip(self, dx, dy):
        boxes = [[40, 40, 60, 60]]
        image = (200, 200)
        once, _ = apply_shift(boxes, image, dx, dy)
        back, _ = apply_shift(once, image, -dx, -dy)
        np.testing.assert_allclose(back, boxes)


def rejected(max_shift, seed, image_id) -> bool:
    """Whether numpy rejects and redraws the dx or dy of ``(seed,
    image_id)``: Lemire's low product word of the low or the high half of
    PCG64's first output is below ``(2**32 - span) % span``."""
    bitgen = np.random.PCG64(np.random.SeedSequence((seed, image_id)))
    raw = int(bitgen.random_raw())
    span = 2 * max_shift + 1
    return any((half * span) % 2 ** 32 < (2 ** 32 - span) % span
               for half in (raw & 0xFFFFFFFF, raw >> 32))


def counting_default_rng(monkeypatch) -> list:
    """Record the seed of every ``np.random.default_rng`` call from now
    on; the list is returned."""
    seeds, real = [], np.random.default_rng

    def counting(seed):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return seeds


class TestShiftOffsetsDifferential:
    """The vectorised draw against one ``default_rng`` per row."""

    SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 6_104_227_930_129, 2 ** 63 - 1)

    @staticmethod
    def image_ids(n: int) -> np.ndarray:
        # small ids, ids around the one/two-word boundary, and ids up to
        # the largest int64
        rng = np.random.default_rng(n)
        return np.concatenate([
            np.arange(n // 5), 2 ** 32 + np.arange(-(n // 10), n // 10),
            rng.integers(0, 2 ** 63 - 1, n - n // 5 - 2 * (n // 10) - 1,
                         endpoint=True), [2 ** 63 - 1]])

    # 6 seeds x 2500 ids = 15,000 rows for each range of 32 bits, 105,000
    # rows in all; numpy draws the 64-bit ranges itself, on fewer rows
    @pytest.mark.parametrize("max_shift,n", [
        *((m, 2500) for m in (0, 1, 16, 32, 1000, 2 ** 20, 2 ** 31 - 1)),
        *((m, 100) for m in (2 ** 31, 2 ** 40, 2 ** 62))])
    def test_equals_default_rng(self, monkeypatch, max_shift, n):
        ids = self.image_ids(n)
        want = [[shift_offset_py(max_shift, seed, i) for i in ids.tolist()]
                for seed in self.SEEDS]
        drawn = counting_default_rng(monkeypatch)
        got = [shift_offsets(seed, ids, max_shift).T.tolist()
               for seed in self.SEEDS]
        assert got == [[list(row) for row in rows] for rows in want]
        if max_shift >= 2 ** 31:
            assert len(drawn) == n * len(self.SEEDS)
        else:  # only the rows whose draw numpy rejects, and few
            assert all(rejected(max_shift, *seed) for seed in drawn)
            assert len(drawn) < n * len(self.SEEDS) // 100

    def test_rejected_row_drawn_by_numpy(self, monkeypatch):
        # seed 0, image 487 at 2**20: a half of PCG64's first output,
        # times the range, leaves a low word under Lemire's threshold, so
        # numpy rejects that draw and draws again
        max_shift = 2 ** 20
        assert rejected(max_shift, 0, 487)
        assert not rejected(max_shift, 0, 486)
        want = [shift_offset_py(max_shift, 0, i) for i in (486, 487, 488)]
        drawn = counting_default_rng(monkeypatch)
        got = shift_offsets(0, [486, 487, 488], max_shift)
        assert got.T.tolist() == [list(w) for w in want]
        assert drawn == [(0, 487)]


def test_pairwise_iou_shape_and_agreement():
    a = np.array([[0, 0, 4, 4], [2, 2, 6, 6]], dtype=float)
    b = np.array([[0, 0, 4, 4], [10, 10, 11, 11], [3, 3, 5, 5]], dtype=float)
    m = pairwise_iou(a, b)
    assert m.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert m[i, j] == pytest.approx(iou(a[i], b[j]))


def _iou_table(a, b):
    return np.array([[iou_py(x, y) for y in b] for x in a]).reshape(len(a),
                                                                    len(b))


@pytest.mark.parametrize("seed", range(4))
def test_pairwise_iou_equals_scalar_oracle_exactly(seed):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-50, 150, (60, 2))
    wh = np.exp(rng.uniform(-3, 5, (60, 2)))
    boxes = np.concatenate([xy, xy + wh], axis=1)
    a, b = boxes[:17], boxes[17:]
    np.testing.assert_array_equal(pairwise_iou(a, b), _iou_table(a, b))
    np.testing.assert_array_equal(pairwise_iou(b, a), _iou_table(b, a))


def test_pairwise_iou_equals_scalar_oracle_on_degenerate_and_touching():
    boxes = np.array([
        [0, 0, 10, 10], [10, 0, 20, 10], [0, 10, 10, 20],  # shared edges
        [10, 10, 20, 20],  # shares one corner with the first
        [5, 5, 5, 5], [10, 10, 10, 10],  # points, one on a corner
        [0, 3, 10, 3], [4, 0, 4, 10],  # zero height, zero width
        [3, 3, 2, 8],  # inverted x
        [0, 0, 10, 10],  # duplicate
        [0.1, 0.2, 0.30000000000000004, 0.7], [0.1, 0.2, 0.3, 0.7],
    ], dtype=float)
    np.testing.assert_array_equal(pairwise_iou(boxes, boxes),
                                  _iou_table(boxes, boxes))
    np.testing.assert_array_equal(pairwise_iou(boxes[:0], boxes),
                                  np.zeros((0, len(boxes))))


# coordinates that stress the kernel: NaN, infinities, repeated values
# (zero-width and touching boxes) and a few ordinary ones
odd_coord = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, 2.5,
                             10.0, -3.0, 1e308, -1e308])
odd_boxes = st.lists(st.tuples(odd_coord, odd_coord, odd_coord, odd_coord),
                     min_size=1, max_size=6)


@given(a=odd_boxes, b=odd_boxes)
@settings(max_examples=200, deadline=None)
def test_pairwise_iou_in_unit_interval_and_never_nan(a, b):
    # the uniform matcher skips its neg_ignore_iou test at 1.0 because no
    # IoU exceeds 1, and a NaN never ranks above anything
    rows = np.broadcast_to(np.asarray(b, dtype=float), (len(a), len(b), 4))
    with np.errstate(over="ignore", invalid="ignore"):  # NaN and inf boxes
        full = pairwise_iou(a, b)
        gathered = pairwise_iou(a, rows)
    assert not np.isnan(full).any()
    assert ((0.0 <= full) & (full <= 1.0)).all()
    np.testing.assert_array_equal(gathered, full)
