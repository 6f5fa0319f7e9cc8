"""The window kernels against the full matrices and the naive oracles.

``iou_window`` and ``distance_window`` score only the anchors of a grid
that may pass a threshold.  Every pair they return must carry the full
matrix's float, and no passing pair of the full matrix may be missing.
The matchers built on them must keep the oracles' labels at the edges:
thresholds at 0 or equal, IoUs exactly at a threshold, GTs off the grid
or larger than the image, and grids with fewer anchors than GTs.
"""

import numpy as np
import pytest

from yolof_assign import matching
from yolof_assign.geometry import (AnchorConfig, ImageSize, distance_window,
                                   generate_anchors, iou_window,
                                   pairwise_iou)
from yolof_assign.matching import (GroundTruthSet, MaxIoUConfig,
                                   UniformMatchConfig, _center_distances,
                                   hungarian_cost, hungarian_match,
                                   max_iou_match, solve_assignment,
                                   uniform_match)

from oracles import iou_py, max_iou_py, uniform_py
from test_grid_kernels import (CONFIGS, IMAGE, SCENES, TINY,
                               assert_same_floats, gts_for, solved_labels)


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def grid(request):
    return generate_anchors(CONFIGS[request.param], IMAGE)


def gts(boxes):
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    return GroundTruthSet(boxes=boxes, class_ids=np.zeros(len(boxes)))


def as_pairs(gt, anchor, values):
    """``{(gt, anchor): value bits}`` of a kernel's pairs."""
    assert len(set(zip(gt.tolist(), anchor.tolist()))) == len(gt)
    return dict(zip(zip(gt.tolist(), anchor.tolist()),
                    np.asarray(values).view(np.uint64).tolist()))


def full_pairs(mask, values):
    gt, anchor = np.nonzero(mask)
    return as_pairs(gt, anchor, values[gt, anchor])


THRESHOLDS = [0.0, 0.05, 0.15, 0.4, 0.5, 0.7, 1.0]


class TestIoUWindow:
    @pytest.mark.parametrize("t", THRESHOLDS)
    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_equals_the_full_matrix(self, grid, kind, seed, t):
        g = gts_for(grid, kind, seed)
        full = pairwise_iou(g.boxes, grid.anchors)
        got = iou_window(g.boxes, grid, np.full(len(g), t))
        assert as_pairs(*got) == full_pairs((full > 0) & (full >= t), full)

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_per_box_thresholds(self, grid, kind, seed):
        g = gts_for(grid, kind, seed)
        t = np.random.default_rng(seed).choice(THRESHOLDS, len(g))
        full = pairwise_iou(g.boxes, grid.anchors)
        got = iou_window(g.boxes, grid, t)
        assert as_pairs(*got) == full_pairs((full > 0) & (full >= t[:, None]),
                                            full)

    def test_thresholds_met_exactly(self):
        # on the default grid: anchor 1 is [-16, -16, 48, 48], anchor 0 is
        # [0, 0, 32, 32]; IoUs 2048 / 4096 and 1024 / 2560
        grid = generate_anchors(AnchorConfig(), IMAGE)
        boxes = np.array([[-16.0, -16.0, 48.0, 16.0], [0.0, 0.0, 32.0, 80.0]])
        full = pairwise_iou(boxes, grid.anchors)
        assert (full[0, 1], full[1, 0]) == (0.5, 0.4)
        for t in (0.4, 0.5):
            got = iou_window(boxes, grid, [t, t])
            assert as_pairs(*got) == full_pairs((full > 0) & (full >= t),
                                                full)

    def test_box_off_the_grid_has_no_pair(self, grid):
        got = iou_window([[1e4, 1e4, 1e4 + 50, 1e4 + 40]], grid, [0.0])
        assert [len(x) for x in got] == [0, 0, 0]

    def test_no_boxes(self, grid):
        got = iou_window(np.empty((0, 4)), grid, np.empty(0))
        assert [len(x) for x in got] == [0, 0, 0]


class TestDistanceWindow:
    # the margin in strides: 0 keeps only each center's nearest anchors,
    # 1 is Hungarian's window
    @pytest.mark.parametrize("strides", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_equals_the_full_matrix(self, grid, kind, seed, strides):
        g = gts_for(grid, kind, seed)
        dist = _center_distances(g.boxes, grid.anchors)
        margin = strides * grid.config.stride
        centers = (g.boxes[:, :2] + g.boxes[:, 2:]) * 0.5
        want = full_pairs(dist - margin <= dist.min(axis=1)[:, None], dist)
        assert as_pairs(*distance_window(centers, grid, margin)) == want


class TestHungarianWindow:
    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_holds_each_gts_cheapest_anchors(self, grid, kind, seed):
        # the nearest window carries the full cost's floats and holds
        # every anchor tied with its GT's cheapest cost
        g = gts_for(grid, kind, seed)
        dist = _center_distances(g.boxes, grid.anchors)
        window = dist - grid.config.stride <= dist.min(axis=1)[:, None]
        full = hungarian_cost(grid, g)
        assert as_pairs(*matching._hungarian_window(grid, g)) \
            == full_pairs(window, full)
        cheapest = full <= full.min(axis=1)[:, None]
        assert not (cheapest & ~window).any()

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_collision_solves_the_cut_of_the_full_cost(self, monkeypatch,
                                                       grid, kind, seed):
        # every scene repeats a GT, so the argmins collide: the solver
        # gets the columns at or below some GT's M-th cheapest cost of the
        # full cost, with its floats
        g = gts_for(grid, kind, seed)
        full = hungarian_cost(grid, g)
        kth = np.sort(full, axis=1)[:, len(g) - 1]
        keep = np.flatnonzero((full <= kth[:, None]).any(axis=0))
        solve, seen = matching._shortest_augmenting_paths, []

        def spy(cost):
            seen.append(cost.copy())
            return solve(cost)

        monkeypatch.setattr(matching, "_shortest_augmenting_paths", spy)
        hungarian_match(grid, g)
        assert len(seen) == 1
        assert_same_floats(seen[0], full[:, keep])


def oracle_max_iou(grid, g, cfg):
    anchors = grid.anchors.tolist()
    ious = [[iou_py(b, a) for a in anchors] for b in g.boxes.tolist()]
    return max_iou_py(ious, cfg.pos_iou, cfg.neg_iou, cfg.rescue)


MAX_IOU_EDGES = [MaxIoUConfig(), MaxIoUConfig(neg_iou=0.0),
                 MaxIoUConfig(pos_iou=0.0, neg_iou=0.0),
                 MaxIoUConfig(pos_iou=0.4, neg_iou=0.4),
                 MaxIoUConfig(pos_iou=0.5, neg_iou=0.5, rescue=False),
                 MaxIoUConfig(pos_iou=1.0, neg_iou=0.0)]


class TestMatchersAtTheEdges:
    @pytest.mark.parametrize("cfg", MAX_IOU_EDGES, ids=repr)
    @pytest.mark.parametrize("kind,seed", SCENES[:4])
    def test_max_iou_thresholds(self, grid, kind, seed, cfg):
        g = gts_for(grid, kind, seed)
        assert max_iou_match(grid, g, cfg).labels.tolist() \
            == oracle_max_iou(grid, g, cfg)

    def test_max_iou_at_each_threshold(self):
        grid = generate_anchors(AnchorConfig(), IMAGE)
        # IoU 0.5 with anchor 1 and 0.4 with anchor 0 (see above)
        g = gts([[-16.0, -16.0, 48.0, 16.0], [0.0, 0.0, 32.0, 80.0]])
        for cfg in (MaxIoUConfig(), MaxIoUConfig(pos_iou=0.4, neg_iou=0.4),
                    MaxIoUConfig(pos_iou=0.5, neg_iou=0.5, rescue=False)):
            assert max_iou_match(grid, g, cfg).labels.tolist() \
                == oracle_max_iou(grid, g, cfg)

    def test_max_iou_rescue_of_a_gt_off_the_grid(self, grid):
        # IoU 0 with every anchor: the rescue forces anchor 0, as argmax
        # does, and a second such GT takes it only on a higher IoU
        g = gts([[1e4, 1e4, 1e4 + 30, 1e4 + 20], [40, 40, 90, 70],
                 [-900, -900, -850, -860]])
        got = max_iou_match(grid, g).labels
        assert got[0] == 0
        assert got.tolist() == oracle_max_iou(grid, g, MaxIoUConfig())

    def test_uniform_ignore_at_its_threshold(self):
        # IoU exactly 0.75 with anchor 1: not above neg_ignore_iou 0.75
        grid = generate_anchors(AnchorConfig(), IMAGE)
        g = gts([[-16.0, -16.0, 48.0, 32.0], [100, 60, 180, 120]])
        assert pairwise_iou(g.boxes[:1], grid.anchors)[0, 1] == 0.75
        for neg in (0.75, np.nextafter(0.75, 0)):
            cfg = UniformMatchConfig(k=1, pos_ignore_iou=0.1,
                                     neg_ignore_iou=float(neg))
            assert uniform_match(grid, g, cfg).labels.tolist() == uniform_py(
                grid.anchors.tolist(), g.boxes.tolist(), 1, 0.1, float(neg))

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_tiny_grid_and_gts_larger_than_the_image(self, name):
        grid = generate_anchors(CONFIGS[name], TINY)
        g = gts([[-30, -25, 60, 50], [-5, -5, 25, 25], [2, 3, 9, 8],
                 [-100, -100, 200, 200], [10, 0, 11, 20], [3, 3, 17, 17],
                 [0, 0, 20, 20]])
        anchors, boxes = grid.anchors.tolist(), g.boxes.tolist()
        for cfg in MAX_IOU_EDGES:
            assert max_iou_match(grid, g, cfg).labels.tolist() \
                == oracle_max_iou(grid, g, cfg)
        for cfg in (UniformMatchConfig(),
                    UniformMatchConfig(k=2, neg_ignore_iou=0.3)):
            assert uniform_match(grid, g, cfg).labels.tolist() == uniform_py(
                anchors, boxes, cfg.k, cfg.pos_ignore_iou, cfg.neg_ignore_iou)
        # more GTs than anchors on the 5-anchor grid: the transposed cost
        assert hungarian_match(grid, g).labels.tolist() \
            == solved_labels(grid, g)

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_hungarian_equals_the_full_cost(self, grid, kind, seed):
        # every scene repeats a GT, so the row argmins collide
        g = gts_for(grid, kind, seed)
        labels = hungarian_match(grid, g).labels
        _, cols, _ = solve_assignment(hungarian_cost(grid, g))
        assert labels[cols].tolist() == list(range(len(g)))
        assert np.count_nonzero(labels >= 0) == len(g)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_full_grid_matrix(monkeypatch, name):
    """Max-IoU and Hungarian on a 1280x800 grid never build an IoU or
    distance matrix over every anchor or every position, and uniform's
    ignore test builds no IoU matrix.  Uniform's k-nearest candidates
    still score every position, or every anchor where the slots' centers
    differ.  The GTs' Hungarian argmins are distinct: on a collision
    Hungarian solves the full cost."""
    grid = generate_anchors(CONFIGS[name], ImageSize(1280, 800))
    full = {len(grid), grid.grid_h * grid.grid_w}
    spied = ("pairwise_iou", "_center_distances", "_grid_distances")
    shapes = {fn: [] for fn in spied}
    originals = {fn: getattr(matching, fn) for fn in spied}

    def spy(fn):
        def wrapped(*args, **kwargs):
            out = originals[fn](*args, **kwargs)
            shapes[fn].append(out.shape)
            return out
        return wrapped

    rng = np.random.default_rng(3)
    xy = rng.uniform(0, 1000, (9, 2))
    g = gts(np.hstack([xy, xy + rng.uniform(8, 300, (9, 2))]))
    assert len(np.unique(hungarian_cost(grid, g).argmin(axis=1))) == len(g)
    for fn in spied:
        monkeypatch.setattr(matching, fn, spy(fn))
    seen = 0
    for match, checked in ((matching.uniform_match, spied[:1]),
                           (matching.max_iou_match, spied),
                           (matching.hungarian_match, spied)):
        for fn in spied:
            shapes[fn].clear()
        match(grid, g, matching.MATCHERS[match.__name__[:-6]]())
        got = [s for fn in checked for s in shapes[fn]]
        assert all(s[-1] not in full for s in got), (match.__name__, got)
        seen += len(got)
    assert seen  # uniform's pair IoUs and Hungarian's window costs
