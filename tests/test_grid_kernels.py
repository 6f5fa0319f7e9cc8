"""The anchor-grid kernels against the flat ones and the naive oracles.

Every matcher computes its IoUs and center distances from a grid's thin
per-slot column and row arrays; here each kernel result must equal, float
for float, the one computed from ``grid.anchors`` as a plain box array or
by the scalar oracles, and the labels must equal the oracles'.  The
kernels take raw box arrays, non-finite ones too; the matchers take a
``GroundTruthSet``, which refuses a non-finite box.
"""

import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from yolof_assign import matching
from yolof_assign.coco import parse_corpus
from yolof_assign.geometry import (AnchorConfig, AnchorGrid, ImageSize,
                                   box_centers, generate_anchors,
                                   pairwise_iou)
from yolof_assign.matching import (ATSSConfig, GroundTruthSet, MaxIoUConfig,
                                   NEGATIVE, TopKConfig, UniformMatchConfig,
                                   _grid_distances, hungarian_cost,
                                   hungarian_match, nearest_candidates)

import test_io_cli
from oracles import (_center_distance, atss_py, hungarian_cost_np, iou_py,
                     knearest_py, max_iou_py, uniform_py)

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
    return GroundTruthSet(boxes=boxes)


def test_ground_truths_must_be_finite():
    for value in (np.nan, np.inf, -np.inf):
        for coord in range(4):
            boxes = np.array([[10.0, 10.0, 50.0, 40.0], [0.0, 0.0, 8.0, 8.0]])
            boxes[1, coord] = value
            with pytest.raises(ValueError, match="must be finite"):
                GroundTruthSet(boxes=boxes)


def grid_distances(boxes, grid):
    """Center distances from ``boxes`` to every anchor of ``grid``."""
    return _grid_distances(box_centers(boxes), grid, len(grid.slot_centers))


def oracle_distances(boxes, anchors):
    """The scalar oracle's center distance of every (box, anchor) pair."""
    return np.array([[_center_distance(b, a) for a in anchors.tolist()]
                     for b in boxes.tolist()]).reshape(len(boxes),
                                                       len(anchors))


class TestHungarianCost:
    """Every cost of ``hungarian_cost`` is the naive oracle's float."""

    def assert_oracle(self, grid, boxes):
        assert_same_floats(hungarian_cost(grid, boxes), hungarian_cost_np(
            grid.anchors, boxes, grid.config.stride))

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_scenes(self, grid, kind, seed):
        self.assert_oracle(grid, gts_for(grid, kind, seed).boxes)

    # one GT up to more GTs than the 280 anchors of the default grid
    @pytest.mark.parametrize("n", [1, 2, 40, 300])
    def test_gt_counts(self, grid, n):
        rng = np.random.default_rng(n)
        corner = rng.uniform(-40.0, 260.0, (n, 2))
        boxes = np.hstack([corner, corner + rng.uniform(1.0, 300.0, (n, 2))])
        self.assert_oracle(grid, boxes)

    def test_translated_grid(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(64, 64))
        grid = AnchorGrid(grid.config, 2, 2, grid.anchors + 13.5)
        rng = np.random.default_rng(5)
        corner = rng.uniform(-20.0, 90.0, (9, 2))
        boxes = np.hstack([corner, corner + rng.uniform(2.0, 200.0, (9, 2))])
        self.assert_oracle(grid, boxes)

    def test_tied_costs(self, grid):
        # boxes centered on cell corners, equally far from four positions
        # and overlapping them alike, twice each
        stride = grid.config.stride
        corners = np.array([[1, 1], [2, 3], [4, 2]] * 2, float) * stride
        boxes = np.hstack([corners - stride, corners + stride])
        want = hungarian_cost_np(grid.anchors, boxes, grid.config.stride)
        assert (np.ptp(np.sort(want, axis=1)[:, :2], axis=1) == 0).any()
        self.assert_oracle(grid, boxes)

    def test_more_gts_than_anchors(self):
        # image 6 of the CLI tests' odd corpus: 6 GTs on 5 anchors
        corpus = parse_corpus(test_io_cli.ODD_IMAGE_DOC)
        grid = generate_anchors(AnchorConfig(), ImageSize(20, 20))
        g = corpus.ground_truths(6)
        assert (len(g), len(grid)) == (6, 5)
        self.assert_oracle(grid, g.boxes)


def unique_optimum(cost, rows, cols):
    """Whether ``(rows, cols)`` is the only minimum-cost assignment: any
    other one leaves some pair of it out, so it is unique when forbidding
    each pair in turn raises the optimum."""
    best = math.fsum(cost[rows, cols])
    for r, c in zip(rows, cols):
        forbidden = cost.copy()
        forbidden[r, c] = np.inf
        try:
            other = linear_sum_assignment(forbidden)
        except ValueError:  # no assignment is left
            continue
        if not math.fsum(forbidden[other]) > best:
            return False
    return True


def assert_hungarian_optimal(grid, g):
    """Hungarian's labels against scipy's solve of the oracle cost.

    Each GT has one positive, or, where the GTs outnumber the anchors,
    each anchor is positive for a distinct GT; the labels' total cost is
    scipy's optimum; and where that optimum is unique the labels are
    scipy's.  Returns whether it was unique.
    """
    labels = hungarian_match(grid, g).labels
    cost = hungarian_cost_np(grid.anchors, g.boxes, grid.config.stride)
    rows, cols = linear_sum_assignment(cost)
    pos = np.flatnonzero(labels >= 0)
    if len(g) > len(grid):
        assert len(pos) == len(grid) == len(set(labels.tolist()))
    else:
        assert np.bincount(labels[pos], minlength=len(g)).tolist() \
            == [1] * len(g)
    assert math.fsum(cost[labels[pos], pos]) == math.fsum(cost[rows, cols])
    unique = unique_optimum(cost, rows, cols)
    if unique:
        want = np.full(len(grid), NEGATIVE)
        want[cols] = rows
        assert labels.tolist() == want.tolist()
    return unique


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
        assert_same_floats(pairwise_iou(boxes, grid.anchors, grid.areas),
                           pairwise_iou(boxes, grid.anchors))

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_center_distances_equal_scalar_oracle(self, grid, kind, seed):
        boxes = boxes_for(grid, kind, seed)
        with np.errstate(invalid="ignore"):  # the inf boxes' centers
            assert_same_floats(grid_distances(boxes, grid),
                               oracle_distances(boxes, grid.anchors))

    # no GT: a (0, N) matrix, as the flat anchors give
    def test_iou_without_gts(self, grid):
        none = np.empty((0, 4))
        got = pairwise_iou(none, grid.anchors, grid.areas)
        assert_same_floats(got, pairwise_iou(none, grid.anchors))
        assert got.shape == (0, len(grid))

    def test_center_distances_without_gts(self, grid):
        none = np.empty((0, 4))
        assert_same_floats(grid_distances(none, grid),
                           oracle_distances(none, grid.anchors))
        assert grid_distances(none, grid).shape == (0, len(grid))

    def test_nearest_candidates_without_gts(self, grid):
        cand, dist = nearest_candidates(grid, np.empty((0, 4)), 4)
        assert cand.shape == dist.shape == (0, 4)

    def test_hungarian_cost_without_gts(self, grid):
        none = np.empty((0, 4))
        assert hungarian_cost(grid, none).shape == (0, len(grid))

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_gathered_rows_equal_the_full_matrix(self, grid, kind, seed):
        boxes = boxes_for(grid, kind, seed)
        cand = np.random.default_rng(seed).integers(0, len(grid),
                                                    (len(boxes), 9))
        rows = grid.anchors[cand]
        assert_same_floats(pairwise_iou(boxes, rows), np.take_along_axis(
            pairwise_iou(boxes, grid.anchors), cand, axis=1))

    def test_iou_equals_scalar_oracle(self, grid):
        g = gts_for(grid, "edge", 0)
        anchors = grid.anchors.tolist()
        want = np.array([[iou_py(b, a) for a in anchors]
                         for b in g.boxes.tolist()])
        assert_same_floats(pairwise_iou(g.boxes, grid.anchors, grid.areas),
                           want)

    @pytest.mark.parametrize("k", [1, 4, 5, 9, 15])
    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_nearest_candidates(self, grid, kind, seed, k):
        g = gts_for(grid, kind, seed)
        got, _ = nearest_candidates(grid, g.boxes, k)
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
        cand, dist = nearest_candidates(tiny_grid, g.boxes, k)
        assert cand.shape == dist.shape == (len(g), len(tiny_grid))
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
        cost = hungarian_cost(grid, g.boxes)
        anchors = grid.anchors.tolist()
        assert_same_floats(cost, np.array([
            [_center_distance(b, a) - stride * iou_py(b, a) for a in anchors]
            for b in g.boxes.tolist()]))
        assert_hungarian_optimal(grid, g)
