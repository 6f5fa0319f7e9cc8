"""The window kernel against the full matrices and the naive oracles.

``iou_window`` scores only the anchors of a grid that may pass a
threshold.  Every pair it returns must carry the full matrix's float,
and no passing pair of the full matrix may be missing.  The matchers must
keep the oracles' labels at the edges: thresholds at 0 or equal, IoUs
exactly at a threshold, GTs off the grid or larger than the image, ties
in Hungarian's cost, and grids with fewer anchors than GTs.
"""

import numpy as np
import pytest

from yolof_assign import matching
from yolof_assign.coco import AnnotationCorpus, RunConfig, run_match_stats
from yolof_assign.geometry import (AnchorConfig, AnchorGrid, ImageSize,
                                   generate_anchors, iou_window, pairwise_iou)
from yolof_assign.matching import (GroundTruthSet, MaxIoUConfig,
                                   UniformMatchConfig, hungarian_cost,
                                   hungarian_match, max_iou_match,
                                   solve_assignment, uniform_match)

from oracles import iou_py, max_iou_py, uniform_py
from test_grid_kernels import (CONFIGS, IMAGE, SCENES, TINY,
                               assert_hungarian_optimal, assert_same_floats,
                               gts_for)


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def grid(request):
    return generate_anchors(CONFIGS[request.param], IMAGE)


def gts(boxes):
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    return GroundTruthSet(boxes=boxes)


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


class TestHungarianTies:
    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_offset_slots(self, kind, seed):
        # slots whose centers lie a few pixels apart: a GT's cheapest
        # anchor may sit at another position than its nearest anchor
        base = generate_anchors(AnchorConfig(), IMAGE)
        offsets = np.array([[0, 0], [7, -5], [-11, 9], [13, 12], [-6, -14]])
        anchors = (base.anchors.reshape(-1, 5, 4)
                   + np.tile(offsets, 2)).reshape(-1, 4)
        grid = AnchorGrid(base.config, base.grid_h, base.grid_w, anchors)
        assert not grid.shared_centers
        assert_hungarian_optimal(grid, gts_for(grid, kind, seed))

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    @pytest.mark.parametrize("place", ["line", "corner"])
    def test_positions_tied_on_cell_lines(self, grid, place, nudge):
        # GT centers on the line between two columns, or on the corner of
        # four positions, and an ulp either side: costs tie, or nearly
        # tie, across the 2 or 4 nearest positions
        stride = grid.config.stride
        rng = np.random.default_rng(11)
        cx = rng.integers(1, IMAGE.width // stride, 24) * float(stride)
        cy = rng.integers(1, IMAGE.height // stride, 24) * float(stride)
        if place == "line":
            cy += stride / 2
        cx, cy = (np.nextafter(c, c + nudge) for c in (cx, cy))
        half = rng.choice([3.0, 8.0, 16.0, 24.5, 40.0, 96.0], (24, 2))
        centers = np.stack([cx, cy], axis=1)
        assert_hungarian_optimal(
            grid, gts(np.hstack([centers - half, centers + half])))

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_collision_solves_the_full_cost(self, monkeypatch, grid, kind,
                                            seed):
        # every scene repeats a GT, so the argmins collide: the search
        # gets the whole cost, with its floats, once, and its labels are
        # optimal
        g = gts_for(grid, kind, seed)
        full = hungarian_cost(grid, g.boxes)
        solve, seen = matching._shortest_augmenting_paths, []

        def spy(cost):
            seen.append(cost.copy())
            return solve(cost)

        monkeypatch.setattr(matching, "_shortest_augmenting_paths", spy)
        assert_hungarian_optimal(grid, g)
        assert len(seen) == 1
        assert_same_floats(seen[0], full)

    @pytest.mark.parametrize("finite", [0, 2])
    def test_a_gt_of_overflowing_costs_raises(self, grid, finite):
        # a box whose center's squares overflow, alone or after finite
        # GTs: its every cost is +inf, so no assignment has a finite cost
        boxes = [[10, 10, 40, 30], [100, 60, 150, 90]][:finite] \
            + [[1e200, 1e200, 2e200, 2e200]]
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match="infeasible"):
            hungarian_match(grid, gts(boxes))


def hungarian_positives(anchors, image, groups):
    """``run_match_stats``' Hungarian counts on a corpus of images of size
    ``image`` whose GT boxes are ``groups``, taken as they are."""
    ids = np.arange(sum(len(b) for b in groups))
    corpus = AnnotationCorpus(
        image_ids=np.arange(len(groups)),
        sizes=np.tile([image.width, image.height], (len(groups), 1)),
        ids=ids, boxes=np.vstack(groups), category_ids=np.zeros_like(ids),
        offsets=np.cumsum([0] + [len(b) for b in groups]), categories=[])
    dist = run_match_stats(corpus, RunConfig(matcher="hungarian",
                                             anchors=anchors))
    return dist.per_gt_counts[:, 1].tolist()


def label_counts(grid, g):
    """Each GT's positive count in ``hungarian_match``'s labels."""
    labels = hungarian_match(grid, g).labels
    return np.bincount(labels[labels >= 0], minlength=len(g)).tolist()


class TestHungarianCount:
    """``run_match_stats`` gives each GT of an image with no more GTs than
    anchors one positive without a solve; its counts are the labels'."""

    @pytest.mark.parametrize("image", [IMAGE, TINY],
                             ids=["256x200", "20x20"])
    @pytest.mark.parametrize("kind,seed", SCENES)
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_scenes(self, name, kind, seed, image):
        # 7, 8 or 11 GTs, one of them repeated: only the tiny grid of 5
        # anchors has fewer anchors than GTs
        grid = generate_anchors(CONFIGS[name], image)
        g = gts_for(grid, kind, seed)
        want = label_counts(grid, g)
        assert sum(want) == min(len(g), len(grid))
        assert hungarian_positives(CONFIGS[name], image, [g.boxes]) == want

    @pytest.mark.parametrize("image", [TINY, ImageSize(64, 40)],
                             ids=["20x20", "64x40"])
    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["spread", "stacked"])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_a_run_across_the_anchor_count(self, monkeypatch, name, stacked,
                                           image):
        # images of one GT fewer than anchors, twice as many, as many, one
        # and one more, their boxes spread over the image or all one box:
        # only the two images of more GTs are solved, in id order
        grid = generate_anchors(CONFIGS[name], image)
        n = len(grid)
        rng = np.random.default_rng(n)
        groups = []
        for m in (n - 1, 2 * n, n, 1, n + 1):
            corner = rng.uniform(-8.0, [image.width, image.height],
                                 (1 if stacked else m, 2))
            box = np.hstack([corner, corner + rng.uniform(2.0, 40.0,
                                                          corner.shape)])
            groups.append(np.repeat(box, m // len(box), axis=0))
        want = [c for b in groups for c in label_counts(grid, gts(b))]
        solved, solve = [], matching.solve_assignment

        def recording(cost):
            solved.append(cost.shape)
            return solve(cost)

        monkeypatch.setattr(matching, "solve_assignment", recording)
        assert hungarian_positives(CONFIGS[name], image, groups) == want
        assert solved == [(2 * n, n), (n + 1, n)]


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
        # more GTs than anchors on the 5-anchor grid: the transposed cost,
        # whose optimum is unique but on the stride-16 grid's 12 anchors
        assert assert_hungarian_optimal(grid, g) == (name != "stride16")

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_hungarian_equals_the_full_cost(self, grid, kind, seed):
        # every scene repeats a GT, so the row argmins collide
        g = gts_for(grid, kind, seed)
        labels = hungarian_match(grid, g).labels
        _, cols, _ = solve_assignment(hungarian_cost(grid, g.boxes))
        assert labels[cols].tolist() == list(range(len(g)))
        assert np.count_nonzero(labels >= 0) == len(g)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_full_grid_matrix(monkeypatch, name):
    """Max-IoU on a 1280x800 grid never builds an IoU or distance matrix
    over every anchor or every position, and uniform's ignore test builds
    no IoU matrix.  Uniform's k-nearest candidates still score every
    position, or every anchor where the slots' centers differ."""
    grid = generate_anchors(CONFIGS[name], ImageSize(1280, 800))
    full = {len(grid), grid.grid_h * grid.grid_w}
    spied = ("pairwise_iou", "_grid_distances")
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
    for fn in spied:
        monkeypatch.setattr(matching, fn, spy(fn))
    seen = 0
    for match, checked in ((matching.uniform_match, spied[:1]),
                           (matching.max_iou_match, spied)):
        for fn in spied:
            shapes[fn].clear()
        match(grid, g, matching.MATCHERS[match.__name__[:-6]]())
        got = [s for fn in checked for s in shapes[fn]]
        assert all(s[-1] not in full for s in got), (match.__name__, got)
        seen += len(got)
    assert seen  # uniform's pair IoUs and max_iou's rescue floors
