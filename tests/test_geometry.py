import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yolof_assign.geometry import (AnchorConfig, ImageSize, apply_shift,
                                   generate_anchors, iou, pairwise_iou,
                                   shift_offset)

from oracles import iou_py, raster_iou

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


class TestRandomShift:
    def test_zero_shift_is_identity(self):
        boxes = np.array([[0, 0, 10, 10], [5, 5, 20, 30]], dtype=float)
        dx, dy = shift_offset(0, 7)
        assert (dx, dy) == (0, 0)
        shifted, kept = apply_shift(boxes, ImageSize(100, 100), dx, dy)
        np.testing.assert_array_equal(shifted, boxes)
        np.testing.assert_array_equal(kept, [0, 1])

    def test_forced_translation(self):
        shifted, kept = apply_shift([[0, 0, 10, 10]], ImageSize(100, 100),
                                    5, 5)
        np.testing.assert_allclose(shifted, [[5, 5, 15, 15]])
        np.testing.assert_array_equal(kept, [0])

    def test_degenerate_after_clamp_dropped(self):
        shifted, kept = apply_shift([[0, 0, 10, 10]], ImageSize(100, 100),
                                    -20, 0)
        assert len(shifted) == 0 and len(kept) == 0

    def test_clamps_x_to_width_and_y_to_height(self):
        boxes = [[80, 10, 95, 30], [-5, 30, 20, 45.5], [1, 2, 3, 4]]
        image = ImageSize(100, 40)  # not square, so the axes cannot swap
        shifted, kept = apply_shift(boxes, image, 10.5, 3)
        want = [[min(max(v + d, 0.0), hi) for v, d, hi in
                 zip(box, (10.5, 3, 10.5, 3), (100, 40, 100, 40))]
                for box in boxes]
        np.testing.assert_array_equal(shifted, want)
        np.testing.assert_array_equal(kept, [0, 1, 2])

    def test_offset_draws_dx_then_dy(self):
        rng = np.random.default_rng((7, 3))
        want = tuple(int(rng.integers(-32, 33)) for _ in range(2))
        assert shift_offset(32, (7, 3)) == want
        assert shift_offset(0, 5) == (0, 0)

    def test_offset_rejects_negative_max_shift(self):
        with pytest.raises(ValueError, match="got -1"):
            shift_offset(-1, 0)

    @given(dx=st.integers(-30, 30), dy=st.integers(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_interior_shift_roundtrip(self, dx, dy):
        boxes = [[40, 40, 60, 60]]
        image = ImageSize(200, 200)
        once, _ = apply_shift(boxes, image, dx, dy)
        back, _ = apply_shift(once, image, -dx, -dy)
        np.testing.assert_allclose(back, boxes)


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
