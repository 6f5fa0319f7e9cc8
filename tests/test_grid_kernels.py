"""The anchor-grid kernels against the flat ones and the naive oracles.

Every matcher computes its IoUs and center distances from a grid's thin
per-slot column and row arrays; here each kernel result must equal, float
for float, the one computed from ``grid.anchors`` as a plain box array,
and the labels must equal the scalar oracles'.  The kernels take raw box
arrays, non-finite ones too; the matchers take a ``GroundTruthSet``,
which refuses a non-finite box.
"""

import numpy as np
import pytest

from yolof_assign import matching
from yolof_assign.geometry import (AnchorConfig, AnchorGrid, ImageSize,
                                   box_centers, generate_anchors,
                                   pairwise_iou)
from yolof_assign.matching import (ATSSConfig, GroundTruthSet, MaxIoUConfig,
                                   NEGATIVE, TopKConfig, UniformMatchConfig,
                                   _center_distances, _grid_distances,
                                   hungarian_cost, nearest_candidates,
                                   solve_assignment)

from oracles import (_center_distance, atss_py, iou_py, knearest_py,
                     max_iou_py, uniform_py)

CONFIGS = {
    "default": AnchorConfig(),
    "stride16": AnchorConfig(stride=16, sizes=(24.0, 48.0, 96.0)),
    # RetinaNet-style: 45 slots whose float centers differ in the last bits
    "slots45": AnchorConfig(scale_multipliers=(1.0, 2 ** (1 / 3),
                                               2 ** (2 / 3)),
                            aspect_ratios=(0.5, 1.0, 2.0)),
}
IMAGE = ImageSize(256, 200)  # a partial last row of cells at stride 32
TINY = ImageSize(20, 20)  # 5, 12 or 45 anchors: fewer than k


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def grid(request):
    return generate_anchors(CONFIGS[request.param], IMAGE)


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def tiny_grid(request):
    return generate_anchors(CONFIGS[request.param], TINY)


def scene(rng, stride, kind):
    """GT boxes of one kind of scene, shape (M, 4)."""
    n = 7
    i = rng.integers(0, -(-IMAGE.height // stride), n)
    j = rng.integers(0, -(-IMAGE.width // stride), n)
    # centers on cell centers (+0.5 cell) and on cell corners (+0)
    centers = (np.stack([j, i], axis=1)
               + rng.choice([0.0, 0.5], (n, 1))) * stride
    half = rng.choice([4.0, 8.0, 16.0, 24.0, 40.0, 96.0], (n, 2))
    boxes = np.concatenate([centers - half, centers + half], axis=1)
    boxes[n // 2] = boxes[0]  # a repeated GT contests every candidate
    if kind == "edge":
        # crossing each image edge, and one box holding the whole image
        w, h = IMAGE.width, IMAGE.height
        boxes = np.vstack([boxes, [[-30, -20, 40, 30], [w - 25, 60, w + 50,
                                    90], [70, h - 10, 120, h + 40],
                                   [-5, -5, w + 5, h + 5]]])
    elif kind == "nonfinite":
        # a box over the top-left corner, a NaN box and two inf boxes
        boxes = np.vstack([boxes, [[-10, -10, 30, 20], [np.nan] * 4,
                                   [10, 10, np.inf, 50],
                                   [-np.inf, -np.inf, np.inf, np.inf]]])
    return boxes


SCENES = [(kind, seed) for kind in ("aligned", "edge", "nonfinite")
          for seed in range(2)]


def boxes_for(grid, kind, seed):
    return scene(np.random.default_rng(seed), grid.config.stride, kind)


def gts_for(grid, kind, seed):
    """The scene's finite boxes as a ``GroundTruthSet``: the set refuses
    the others (``test_ground_truths_must_be_finite``)."""
    boxes = boxes_for(grid, kind, seed)
    boxes = boxes[np.isfinite(boxes).all(axis=1)]
    return GroundTruthSet(boxes=boxes, class_ids=np.zeros(len(boxes)))


def test_ground_truths_must_be_finite():
    for value in (np.nan, np.inf, -np.inf):
        for coord in range(4):
            boxes = np.array([[10.0, 10.0, 50.0, 40.0], [0.0, 0.0, 8.0, 8.0]])
            boxes[1, coord] = value
            with pytest.raises(ValueError, match="must be finite"):
                GroundTruthSet(boxes=boxes, class_ids=[0, 0])


def grid_distances(boxes, grid):
    """Center distances from ``boxes`` to every anchor of ``grid``."""
    return _grid_distances(box_centers(boxes), grid, len(grid.slot_centers))


def solved_labels(grid, g):
    """Hungarian's labels from the solver run on the full cost, or on its
    transpose when the GTs outnumber the anchors."""
    cost = hungarian_cost(grid, g)
    labels = np.full(len(grid), NEGATIVE)
    if len(g) > len(grid):
        anchor, gt, _ = solve_assignment(cost.T)
    else:
        gt, anchor, _ = solve_assignment(cost)
    labels[anchor] = gt
    return labels.tolist()


def assert_same_floats(got, want):
    """Equal shapes, NaN at the same places and every other bit equal."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64),
                                  want[~nan].view(np.uint64))


class TestGridArrays:
    def test_thin_arrays_match_the_anchors(self, grid):
        a = grid.config.anchors_per_position
        cells = grid.anchors.reshape(grid.grid_h, grid.grid_w, a, 4)
        size = max(grid.grid_w, grid.grid_h)
        for arr in (grid.slot_lo, grid.slot_hi, grid.slot_centers):
            assert arr.shape == (a, 2, size)
        i, j, s = np.indices(cells.shape[:3])
        centers = box_centers(grid.anchors).reshape(cells.shape[:3] + (2,))
        for axis, line in ((0, j), (1, i)):
            for arr, want in ((grid.slot_lo, cells[..., axis]),
                              (grid.slot_hi, cells[..., axis + 2]),
                              (grid.slot_centers, centers[..., axis])):
                assert_same_floats(arr[s, axis, line], want)
        # padding: no box overlaps an empty extent, no center is near
        for axis, n in ((0, grid.grid_w), (1, grid.grid_h)):
            assert (grid.slot_lo[:, axis, n:] == np.inf).all()
            assert (grid.slot_hi[:, axis, n:] == -np.inf).all()
            assert (grid.slot_centers[:, axis, n:] == np.inf).all()
        for arr in (grid.slot_lo, grid.slot_hi, grid.slot_centers,
                    grid.slot_max_sides, grid.slot_min_areas, grid.areas):
            assert not arr.flags.writeable

    def test_shared_centers_only_where_they_are_equal(self):
        flags = {name: generate_anchors(cfg, IMAGE).shared_centers
                 for name, cfg in CONFIGS.items()}
        assert flags == {"default": True, "stride16": True, "slots45": False}

    def test_rejects_anchors_that_are_not_a_grid(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(64, 64))
        anchors = grid.anchors.copy()
        anchors[7, 0] += 1.0
        with pytest.raises(ValueError, match="grid"):
            AnchorGrid(grid.config, grid.grid_h, grid.grid_w, anchors)


class TestKernelsExact:
    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_iou_grid_equals_flat(self, grid, kind, seed):
        boxes = boxes_for(grid, kind, seed)
        assert_same_floats(pairwise_iou(boxes, grid),
                           pairwise_iou(boxes, grid.anchors))

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_center_distances_grid_equals_flat(self, grid, kind, seed):
        boxes = boxes_for(grid, kind, seed)
        with np.errstate(invalid="ignore"):  # the inf boxes' centers
            assert_same_floats(grid_distances(boxes, grid),
                               _center_distances(boxes, grid.anchors))

    # no GT: a (0, N) matrix, as the flat anchors give
    def test_iou_without_gts(self, grid):
        none = np.empty((0, 4))
        assert_same_floats(pairwise_iou(none, grid),
                           pairwise_iou(none, grid.anchors))
        assert pairwise_iou(none, grid).shape == (0, len(grid))

    def test_center_distances_without_gts(self, grid):
        none = np.empty((0, 4))
        assert_same_floats(grid_distances(none, grid),
                           _center_distances(none, grid.anchors))
        assert grid_distances(none, grid).shape == (0, len(grid))

    def test_hungarian_cost_without_gts(self, grid):
        none = GroundTruthSet(boxes=np.empty((0, 4)), class_ids=[])
        assert hungarian_cost(grid, none).shape == (0, len(grid))

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_gathered_rows_equal_the_full_matrix(self, grid, kind, seed):
        boxes = boxes_for(grid, kind, seed)
        cand = np.random.default_rng(seed).integers(0, len(grid),
                                                    (len(boxes), 9))
        rows = grid.anchors[cand]
        assert_same_floats(pairwise_iou(boxes, rows), np.take_along_axis(
            pairwise_iou(boxes, grid.anchors), cand, axis=1))
        with np.errstate(invalid="ignore"):  # the inf boxes' centers
            assert_same_floats(_center_distances(boxes, rows),
                               np.take_along_axis(_center_distances(
                                   boxes, grid.anchors), cand, axis=1))

    def test_iou_equals_scalar_oracle(self, grid):
        g = gts_for(grid, "edge", 0)
        anchors = grid.anchors.tolist()
        want = np.array([[iou_py(b, a) for a in anchors]
                         for b in g.boxes.tolist()])
        assert_same_floats(pairwise_iou(g.boxes, grid), want)

    @pytest.mark.parametrize("k", [1, 4, 5, 9, 15])
    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_nearest_candidates(self, grid, kind, seed, k):
        g = gts_for(grid, kind, seed)
        got = nearest_candidates(grid, g, k)
        anchors = grid.anchors.tolist()
        assert got.tolist() == [knearest_py(anchors, b, k)
                                for b in g.boxes.tolist()]


class TestMatchersDifferential:
    """Each matcher on a grid against its oracle."""

    @pytest.mark.parametrize("cfg", [UniformMatchConfig(),
                                     UniformMatchConfig(k=7,
                                                        pos_ignore_iou=0.3,
                                                        neg_ignore_iou=0.5)])
    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_uniform(self, grid, kind, seed, cfg):
        g = gts_for(grid, kind, seed)
        got = matching.uniform_match(grid, g, cfg).labels.tolist()
        assert got == uniform_py(grid.anchors.tolist(), g.boxes.tolist(),
                                 cfg.k, cfg.pos_ignore_iou,
                                 cfg.neg_ignore_iou)

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_topk(self, grid, kind, seed):
        g = gts_for(grid, kind, seed)
        got = matching.topk_match(grid, g).labels.tolist()
        assert got == uniform_py(grid.anchors.tolist(), g.boxes.tolist(), 4,
                                 0.0, 1.0)

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_atss(self, grid, kind, seed):
        g = gts_for(grid, kind, seed)
        cfg = ATSSConfig(k=9)
        got = matching.atss_match(grid, g, cfg).labels.tolist()
        assert got == atss_py(grid.anchors.tolist(), g.boxes.tolist(), 9)

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_fewer_anchors_than_k(self, tiny_grid, kind, seed):
        """Uniform, top-k and ATSS take every anchor when k exceeds them."""
        g = gts_for(tiny_grid, kind, seed)
        k = len(tiny_grid) + 2
        assert nearest_candidates(tiny_grid, g, k).shape \
            == (len(g), len(tiny_grid))
        anchors, boxes = tiny_grid.anchors.tolist(), g.boxes.tolist()
        for match, cfg, want in (
                (matching.uniform_match, UniformMatchConfig(k=k),
                 uniform_py(anchors, boxes, k, 0.15, 0.7)),
                (matching.topk_match, TopKConfig(k=k),
                 uniform_py(anchors, boxes, k, 0.0, 1.0)),
                (matching.atss_match, ATSSConfig(k=k),
                 atss_py(anchors, boxes, k))):
            assert match(tiny_grid, g, cfg).labels.tolist() == want

    @pytest.mark.parametrize("rescue", [True, False])
    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_max_iou(self, grid, kind, seed, rescue):
        g = gts_for(grid, kind, seed)
        cfg = MaxIoUConfig(rescue=rescue)
        got = matching.max_iou_match(grid, g, cfg).labels.tolist()
        anchors = grid.anchors.tolist()
        ious = [[iou_py(b, a) for a in anchors] for b in g.boxes.tolist()]
        assert got == max_iou_py(ious, cfg.pos_iou, cfg.neg_iou, rescue)

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_hungarian(self, grid, kind, seed):
        g = gts_for(grid, kind, seed)
        stride = grid.config.stride
        cost = hungarian_cost(grid, g)
        anchors = grid.anchors.tolist()
        assert_same_floats(cost, np.array([
            [_center_distance(b, a) - stride * iou_py(b, a) for a in anchors]
            for b in g.boxes.tolist()]))
        assert matching.hungarian_match(grid, g).labels.tolist() \
            == solved_labels(grid, g)
