import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from yolof_assign import matching
from yolof_assign.geometry import (AnchorConfig, AnchorGrid, ImageSize,
                                   generate_anchors)
from yolof_assign.matching import (ATSSConfig, GroundTruthSet, IGNORED,
                                   MaxIoUConfig, NEGATIVE, TopKConfig,
                                   UniformMatchConfig,
                                   atss_match, hungarian_match, max_iou_match,
                                   nearest_candidates, solve_assignment,
                                   topk_match, uniform_match)

from oracles import (assignment_cost_enum, atss_py, iou_py, knearest_py,
                     max_iou_py, uniform_py)


def gts(boxes):
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    return GroundTruthSet(boxes=boxes)


def paved(anchors, rows=1, cols=1):
    """Hand-built anchors, ``rows`` by ``cols`` positions of one slot each,
    as a grid of stride 32."""
    anchors = np.asarray(anchors, dtype=float)
    return AnchorGrid(AnchorConfig(sizes=(32.0,)), rows, cols, anchors)


@pytest.fixture
def small_grid():
    # 2x2 cells, 5 anchor sizes per position, 20 anchors total
    return generate_anchors(AnchorConfig(), ImageSize(64, 64))


class TestUniformMatch:
    def test_single_small_gt(self, small_grid):
        result = uniform_match(small_grid, gts([[8, 8, 24, 24]]),
                               UniformMatchConfig(k=4))
        # candidates are the four smallest-index anchors at cell (0, 0);
        # only the size-32 anchor clears the 0.15 positive-ignore IoU
        assert result.labels[0] == 0
        assert all(result.labels[a] == IGNORED for a in (1, 2, 3))
        assert all(result.labels[a] == NEGATIVE for a in range(4, 20))
        np.testing.assert_array_equal(result.gt_positives[0], [0])

    def test_empty_gts_all_negative(self, small_grid):
        result = uniform_match(small_grid, gts(np.zeros((0, 4))))
        assert np.all(result.labels == NEGATIVE)
        assert result.gt_positives == []

    def test_duplicate_gt_conflict_goes_to_first(self, small_grid):
        box = [8, 8, 24, 24]
        result = uniform_match(small_grid, gts([box, box]),
                               UniformMatchConfig(k=1))
        assert result.labels[0] == 0
        assert len(result.gt_positives[0]) == 1
        assert len(result.gt_positives[1]) == 0

    def test_conflict_resolved_by_distance(self, small_grid):
        # GT 1 is closer to cell (0, 0) than GT 0
        result = uniform_match(
            small_grid, gts([[8, 8, 30, 30], [2, 2, 28, 28]]),
            UniformMatchConfig(k=1, pos_ignore_iou=0.0))
        assert result.labels[0] == 1

    def test_neg_ignore_filter(self, small_grid):
        # perfect-IoU anchor box as GT: non-candidates with IoU > 0.7 ignored
        result = uniform_match(
            small_grid, gts([[0, 0, 32, 32]]),
            UniformMatchConfig(k=4, pos_ignore_iou=0.15, neg_ignore_iou=0.7))
        # anchors 0..3 are the candidates (cell (0,0), distance tie-break);
        # sizes 32 and 64 clear the 0.15 threshold, 128 and 256 do not
        assert result.labels[0] == 0
        assert result.labels[1] == 0
        assert result.labels[2] == IGNORED
        # no non-candidate anchor overlaps the GT above 0.7 in this layout
        assert not np.any(result.labels[4:] == IGNORED)

    def test_candidate_counts_pre_filter(self, small_grid):
        g = gts([[8, 8, 24, 24], [40, 40, 60, 60]])
        cands, _ = nearest_candidates(small_grid, g.boxes, 4)
        assert all(len(c) == 4 for c in cands)
        # agrees with a naive nearest-k oracle
        for i in range(len(g)):
            assert list(cands[i]) == knearest_py(small_grid.anchors.tolist(),
                                                 g.boxes[i], 4)

    def test_translation_invariance(self, small_grid):
        g = gts([[8, 8, 24, 24], [30, 30, 60, 62]])
        base = uniform_match(small_grid, g)
        shifted_grid = AnchorGrid(small_grid.config, 2, 2,
                                  small_grid.anchors + 13.5)
        shifted = uniform_match(shifted_grid, gts(g.boxes + 13.5))
        np.testing.assert_array_equal(base.labels, shifted.labels)

    def test_oversized_k_takes_every_anchor(self, small_grid):
        g = gts([[0, 0, 10, 10], [40, 20, 90, 60]])
        cands, dist = nearest_candidates(small_grid, g.boxes, 21)
        assert cands.shape == dist.shape == (2, 20)
        got = uniform_match(small_grid, g, UniformMatchConfig(k=21))
        np.testing.assert_array_equal(
            got.labels,
            uniform_match(small_grid, g, UniformMatchConfig(k=20)).labels)

    def test_deterministic(self, small_grid):
        g = gts([[3, 5, 40, 44], [20, 10, 55, 61]])
        a = uniform_match(small_grid, g)
        b = uniform_match(small_grid, g)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_labels_partition_anchors(self, small_grid):
        g = gts([[3, 5, 40, 44], [20, 10, 55, 61]])
        result = uniform_match(small_grid, g)
        assert len(result.labels) == len(small_grid)
        assert np.all((result.labels >= 0) | (result.labels == NEGATIVE)
                      | (result.labels == IGNORED))


class TestTopkMatch:
    def test_top1_unique_nearest(self, small_grid):
        result = topk_match(small_grid, gts([[2, 2, 28, 28]]),
                            TopKConfig(k=1))
        assert np.sum(result.labels >= 0) == 1
        assert result.labels[0] == 0

    def test_equals_uniform_when_filters_idle(self, small_grid):
        # the size-32 anchor at every claimed cell clears both thresholds
        g = gts([[2, 2, 30, 30]])
        top = topk_match(small_grid, g, TopKConfig(k=1))
        uni = uniform_match(small_grid, g, UniformMatchConfig(k=1))
        np.testing.assert_array_equal(top.labels, uni.labels)

    def test_all_anchors_positive(self, small_grid):
        result = topk_match(small_grid, gts([[0, 0, 64, 64]]),
                            TopKConfig(k=20))
        assert np.all(result.labels == 0)


class TestMaxIoUMatch:
    def test_perfect_anchor(self, small_grid):
        result = max_iou_match(small_grid, gts([[0, 0, 32, 32]]))
        assert result.labels[0] == 0

    def test_small_gt_zero_positives_without_rescue(self, small_grid):
        result = max_iou_match(small_grid, gts([[8, 8, 24, 24]]),
                               MaxIoUConfig(rescue=False))
        assert np.all(result.labels != 0)
        # the best anchor (IoU 0.25) falls in the negative band, not ignore
        assert result.labels[0] == NEGATIVE

    def test_rescue_recovers_best_anchor(self, small_grid):
        result = max_iou_match(small_grid, gts([[8, 8, 24, 24]]),
                               MaxIoUConfig(rescue=True))
        assert result.labels[0] == 0

    def test_large_gt_multiple_positives(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(1280, 800))
        result = max_iou_match(grid, gts([[0, 0, 512, 512]]),
                               MaxIoUConfig(rescue=False))
        assert np.sum(result.labels == 0) >= 2

    def test_ignore_band(self):
        # IoU 0.45 falls between neg 0.4 and pos 0.5
        grid = paved([[0.0, 0.0, 10.0, 9.0]])
        result = max_iou_match(grid, gts([[0, 0, 10, 20]]),
                               MaxIoUConfig(rescue=False))
        assert result.labels[0] == IGNORED

    @pytest.mark.parametrize("rescue", [True, False])
    def test_translated_grid_equals_oracle(self, small_grid, rescue):
        # Off the stride lattice the rescue floor still looks a GT's cell
        # up by stride: the cell holding (44, 44) is position 3, centered
        # at (61.5, 61.5), while position 0 at (29.5, 29.5) is nearer.  Its
        # IoU is then below the GT's best, a lower bound all the same.
        grid = AnchorGrid(small_grid.config, 2, 2, small_grid.anchors + 13.5)
        g = gts([[34, 34, 54, 54], [20, 22, 36, 40], [8, 40, 60, 90],
                 [50, 4, 90, 30], [0, 0, 100, 100]])
        ious = [[iou_py(b, a) for a in grid.anchors.tolist()]
                for b in g.boxes.tolist()]
        best = np.max(ious, axis=1)
        floor = matching._rescue_floor(grid, g.boxes)
        assert (floor <= best).all() and floor[0] < best[0]
        cfg = MaxIoUConfig(rescue=rescue)
        assert max_iou_match(grid, g, cfg).labels.tolist() \
            == max_iou_py(ious, cfg.pos_iou, cfg.neg_iou, rescue)

    def test_monotone_in_iou(self, small_grid):
        # growing a GT's overlap with an anchor never turns it negative
        base = max_iou_match(small_grid, gts([[0, 4, 32, 36]]),
                             MaxIoUConfig(rescue=False))
        closer = max_iou_match(small_grid, gts([[0, 1, 32, 33]]),
                               MaxIoUConfig(rescue=False))
        assert base.labels[0] == 0
        assert closer.labels[0] == 0

    def test_empty_gts(self, small_grid):
        result = max_iou_match(small_grid, gts(np.zeros((0, 4))))
        assert np.all(result.labels == NEGATIVE)


class TestATSSMatch:
    def test_single_anchor_degenerate(self):
        grid = paved([[0.0, 0.0, 32.0, 32.0]])
        result = atss_match(grid, gts([[0, 0, 40, 40]]), ATSSConfig(k=1))
        assert result.labels[0] == 0

    def test_two_candidate_threshold_selects_best(self):
        # with two candidates the mean+std threshold equals the larger IoU
        grid = paved([[0.0, 0.0, 10.0, 10.0], [8.0, 0.0, 18.0, 10.0]], cols=2)
        result = atss_match(grid, gts([[0, 0, 10, 20]]), ATSSConfig(k=2))
        assert result.labels[0] == 0
        assert result.labels[1] == NEGATIVE

    def test_center_outside_rejected(self):
        grid = paved([[20.0, 0.0, 40.0, 20.0]])
        result = atss_match(grid, gts([[0, 0, 18, 20]]), ATSSConfig(k=1))
        assert result.labels[0] == NEGATIVE

    def test_empty_gts(self):
        grid = paved([[0.0, 0.0, 32.0, 32.0]])
        result = atss_match(grid, gts(np.zeros((0, 4))), ATSSConfig(k=1))
        assert np.all(result.labels == NEGATIVE)

    def test_no_ignored_class(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(256, 256))
        result = atss_match(grid, gts([[30, 30, 120, 140], [5, 5, 60, 50]]),
                            ATSSConfig(k=8))
        assert not np.any(result.labels == IGNORED)

    def test_positive_centers_inside_gt(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(512, 512))
        g = gts([[40, 40, 200, 260], [300, 100, 480, 220]])
        result = atss_match(grid, g, ATSSConfig(k=15))
        centers = (grid.anchors[:, :2] + grid.anchors[:, 2:]) / 2
        for a in np.flatnonzero(result.labels >= 0):
            x1, y1, x2, y2 = g.boxes[result.labels[a]]
            assert x1 < centers[a, 0] < x2
            assert y1 < centers[a, 1] < y2

    def test_oversized_k_takes_every_anchor(self):
        grid = paved([[0.0, 0.0, 32.0, 32.0]])
        result = atss_match(grid, gts([[0, 0, 20, 20]]), ATSSConfig(k=2))
        assert result.labels.tolist() == [0]


class TestHungarianMatch:
    def test_injected_cost_matrix(self):
        rows, cols, total = solve_assignment([[1.0, 2.0], [3.0, 1.0]])
        assert list(rows) == [0, 1]
        assert list(cols) == [0, 1]
        assert total == 2.0

    def test_gt_on_anchor(self, small_grid):
        result = hungarian_match(small_grid, gts([[0, 0, 32, 32]]))
        assert result.labels[0] == 0
        assert np.sum(result.labels >= 0) == 1

    def test_one_to_one(self, small_grid):
        g = gts([[0, 0, 32, 32], [32, 32, 64, 64], [0, 32, 32, 64]])
        result = hungarian_match(small_grid, g)
        positives = result.labels[result.labels >= 0]
        assert len(positives) == 3
        assert len(set(positives)) == 3

    def test_more_gts_than_anchors_matches_enumeration_oracle(self):
        # a 20x20 image has 5 anchors: each goes to a distinct GT at the
        # least total cost, and the other GTs get no positive
        grid = generate_anchors(AnchorConfig(), ImageSize(20, 20))
        rng = np.random.default_rng(0)
        for m in (6, 7, 8):
            xy = rng.uniform(0, 16, (m, 2))
            g = gts(np.concatenate([xy, xy + rng.uniform(1, 8, (m, 2))], 1))
            labels = hungarian_match(grid, g).labels
            assert sorted(np.bincount(labels, minlength=m)) \
                == [0] * (m - 5) + [1] * 5
            cost = matching.hungarian_cost(grid, g.boxes)
            assert cost[labels, np.arange(5)].sum() == pytest.approx(
                assignment_cost_enum(cost.T), abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m, 50))
        cost = rng.uniform(0, 100, size=(m, n))
        _, _, total = solve_assignment(cost)
        assert total == pytest.approx(assignment_cost_enum(cost), abs=1e-9)


SOLVER_KINDS = ["random", "tied", "square", "one_row", "tall", "collide",
                "inf"]


# the kinds whose transpose has more rows than columns, or as many
TALL_KINDS = [k for k in SOLVER_KINDS if k != "square"]


def solver_case(kind, rng):
    """One cost matrix of the given kind, at most 40 rows."""
    m = 1 if kind == "one_row" else int(rng.integers(1, 41))
    n = {"square": m, "tall": m + int(rng.integers(0, 3))}.get(
        kind, int(rng.integers(m, 301)))
    if kind == "tied":
        return rng.integers(0, 4, (m, n)).astype(float)
    cost = rng.uniform(-50.0, 100.0, (m, n))
    if kind == "collide":
        # every row's argmin on one of three columns
        hot = rng.integers(0, min(n, 3), m)
        cost[np.arange(m), hot] = rng.uniform(-80.0, -60.0, m)
    elif kind == "inf":
        # forbid most pairs, but keep one complete assignment finite
        keep = np.zeros((m, n), dtype=bool)
        keep[np.arange(m), rng.permutation(n)[:m]] = True
        cost[~keep & (rng.uniform(size=(m, n)) < 0.7)] = np.inf
    return cost


class TestSolveAssignment:
    @pytest.mark.parametrize("seed,kind", enumerate(SOLVER_KINDS))
    def test_total_matches_scipy(self, seed, kind):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        for _ in range(40):
            cost = solver_case(kind, rng)
            rows, cols, total = solve_assignment(cost)
            assert rows.tolist() == list(range(len(cost)))
            assert len(set(cols.tolist())) == len(cost)
            assert total == float(cost[rows, cols].sum())
            r, c = optimize.linear_sum_assignment(cost)
            assert total == pytest.approx(float(cost[r, c].sum()),
                                          rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("seed,kind", enumerate(TALL_KINDS))
    def test_tall_matches_scipy(self, seed, kind):
        # more rows than columns: every column gets one distinct row, the
        # rows ascending, at scipy's total
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(100 + seed)
        for _ in range(40):
            cost = solver_case(kind, rng).T.copy()
            rows, cols, total = solve_assignment(cost)
            assert sorted(cols.tolist()) == list(range(cost.shape[1]))
            assert rows.tolist() == sorted(set(rows.tolist()))
            assert len(rows) == len(cols)
            assert total == float(cost[rows, cols].sum())
            r, c = optimize.linear_sum_assignment(cost)
            assert total == pytest.approx(float(cost[r, c].sum()),
                                          rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("seed,kind", enumerate(SOLVER_KINDS))
    def test_transpose_mirrors_the_pairs(self, seed, kind):
        # a tall cost is solved as its transpose: the pairs are the wide
        # cost's, mirrored, whatever the ties (a square cost's transpose
        # is solved as it is, so only its total must agree)
        rng = np.random.default_rng(200 + seed)
        for _ in range(40):
            cost = solver_case(kind, rng)
            rows, cols, total = solve_assignment(cost)
            t_rows, t_cols, t_total = solve_assignment(cost.T)
            assert t_rows.tolist() == sorted(set(t_rows.tolist()))
            if cost.shape[0] < cost.shape[1]:
                assert sorted(zip(t_cols.tolist(), t_rows.tolist())) \
                    == list(zip(rows.tolist(), cols.tolist()))
            assert t_total == pytest.approx(total, rel=1e-12, abs=1e-9)

    def test_tall_cost_is_one_call(self, monkeypatch):
        # the transpose is solved inside the call: a spy on the module
        # attribute sees the tall cost once, and the search its transpose
        solve, search = matching.solve_assignment, \
            matching._shortest_augmenting_paths
        calls, searched = [], []

        def spy(cost):
            calls.append(np.array(cost))
            return solve(cost)

        def search_spy(cost):
            searched.append(cost.copy())
            return search(cost)

        monkeypatch.setattr(matching, "solve_assignment", spy)
        monkeypatch.setattr(matching, "_shortest_augmenting_paths",
                            search_spy)
        # both columns' cheapest row is row 1
        cost = np.array([[1.0, 4.0], [0.0, 0.0], [2.0, 3.0]])
        rows, cols, total = matching.solve_assignment(cost)
        assert (rows.tolist(), cols.tolist(), total) == ([0, 1], [0, 1], 1.0)
        assert len(calls) == 1 and calls[0].shape == (3, 2)
        assert len(searched) == 1
        assert searched[0].tolist() == cost.T.tolist()

    def test_distinct_argmins_taken_as_they_are(self, monkeypatch):
        def no_search(cost):
            raise AssertionError("the augmenting-path search ran")

        monkeypatch.setattr(matching, "_shortest_augmenting_paths", no_search)
        cost = np.array([[5.0, 1.0, 9.0, 2.0], [0.5, 3.0, 4.0, 1.0],
                         [7.0, 8.0, 6.0, -1.0]])
        rows, cols, total = solve_assignment(cost)
        assert cols.tolist() == [1, 0, 3]
        assert total == 0.5

    @pytest.mark.parametrize("seed", range(6))
    def test_dearer_columns_change_nothing(self, seed):
        # integer-tied costs whose argmins collide: columns dearer than
        # every row's m-th cheapest change nothing, wherever they go
        rng = np.random.default_rng(seed)
        for _ in range(40):
            m = int(rng.integers(2, 6))
            cost = rng.integers(0, 4, (m, int(rng.integers(m, 20)))) * 1.0
            kth = np.sort(cost, axis=1)[:, m - 1].max()
            extra = kth + rng.integers(1, 3, (m, int(rng.integers(1, 40))))
            rows, cols, total = solve_assignment(cost)
            wide = np.hstack([cost, extra])
            assert [a.tolist() for a in solve_assignment(wide)[:2]] \
                == [rows.tolist(), cols.tolist()]
            # appended columns keep their index only if the others stay
            # in front; inserted in front, every index shifts by as many
            shifted = solve_assignment(np.hstack([extra, cost]))
            assert shifted[1].tolist() == (cols + extra.shape[1]).tolist()
            assert shifted[2] == total == assignment_cost_enum(cost)

    def test_contested_argmin(self):
        # both rows want column 0; moving row 1 costs less than row 0
        rows, cols, total = solve_assignment([[1.0, 9.0, 5.0],
                                              [2.0, 3.0, 8.0]])
        assert cols.tolist() == [0, 1]
        assert total == 4.0

    def test_empty(self):
        for shape in ((0, 0), (0, 3), (3, 0)):
            rows, cols, total = solve_assignment(np.zeros(shape))
            assert (len(rows), len(cols), total) == (0, 0, 0.0)

    @pytest.mark.parametrize("cost,message", [
        (np.ones(3), "2-D"),
        (np.ones((2, 2, 2)), "2-D"),
        # more rows than columns, and a column of +inf only
        ([[np.inf, 1.0], [np.inf, 2.0], [np.inf, 3.0]], "infeasible"),
        ([[1.0, np.nan], [2.0, 3.0]], "invalid numeric entries"),
        ([[1.0, 2.0], [-np.inf, 3.0]], "invalid numeric entries"),
        # a row of +inf only, found on the distinct-argmin path
        ([[np.inf, np.inf, np.inf], [3.0, 1.0, 2.0]], "infeasible"),
        # two rows whose only finite column is the same one
        ([[1.0, np.inf, np.inf], [2.0, np.inf, np.inf]], "infeasible"),
        ([[1.0, np.inf, np.inf], [2.0, np.inf, np.inf],
          [0.0, 1.0, 2.0]], "infeasible"),
    ])
    def test_rejects(self, cost, message):
        with pytest.raises(ValueError, match=message):
            solve_assignment(cost)


def test_cli_import_leaves_scipy_out():
    # scipy.optimize takes most of a second to import on every CLI run
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    subprocess.run([sys.executable, "-c", "import yolof_assign.cli, sys; "
                    "assert 'scipy' not in sys.modules"],
                   env=dict(os.environ, PYTHONPATH=str(src)), check=True)


def unaligned_scene(rng, image, n):
    wh = np.exp(rng.uniform(np.log(6), np.log(300), (n, 2)))
    wh = np.minimum(wh, [image.width - 1, image.height - 1])
    xy = rng.uniform(0, 1, (n, 2)) * ([image.width, image.height] - wh)
    return gts(np.concatenate([xy, xy + wh], axis=1))


def aligned_scene(rng, image, n, stride=32):
    """Boxes centered on anchor centers or cell corners, some repeated."""
    i = rng.integers(0, image.height // stride, n)
    j = rng.integers(0, image.width // stride, n)
    off = rng.choice([0.0, 0.5], (n, 1)) * stride
    centers = np.stack([j, i], axis=1) * stride + off
    half = rng.choice([8.0, 16.0, 24.0, 32.0, 64.0, 128.0], (n, 2))
    boxes = np.concatenate([centers - half, centers + half], axis=1)
    boxes[n // 2] = boxes[0]  # a duplicate GT contests every candidate
    return gts(boxes)


DIFF_IMAGE = ImageSize(320, 256)  # 10 x 8 positions, 400 anchors
SCENES = [(kind, seed) for kind in ("unaligned", "aligned")
          for seed in range(4)]


@pytest.fixture(scope="module")
def diff_grid():
    return generate_anchors(AnchorConfig(), DIFF_IMAGE)


def make_scene(kind, seed):
    rng = np.random.default_rng(seed)
    make = unaligned_scene if kind == "unaligned" else aligned_scene
    return make(rng, DIFF_IMAGE, int(rng.integers(2, 12)))


class TestDifferential:
    @pytest.mark.parametrize("k", [1, 4, 5, 7, 15])
    @pytest.mark.parametrize("seed", range(3))
    def test_nearest_candidates_on_tied_centers(self, diff_grid, k, seed):
        g = aligned_scene(np.random.default_rng(seed), DIFF_IMAGE, 9)
        cands, _ = nearest_candidates(diff_grid, g.boxes, k)
        assert cands.shape == (len(g), k)
        anchors = diff_grid.anchors.tolist()
        for i, box in enumerate(g.boxes.tolist()):
            assert cands[i].tolist() == knearest_py(anchors, box, k)

    @pytest.mark.parametrize("kind,seed", SCENES)
    @pytest.mark.parametrize("cfg", [UniformMatchConfig(),
                                     UniformMatchConfig(k=7,
                                                        pos_ignore_iou=0.3,
                                                        neg_ignore_iou=0.5)])
    def test_uniform_equals_oracle(self, diff_grid, kind, seed, cfg):
        g = make_scene(kind, seed)
        want = uniform_py(diff_grid.anchors.tolist(), g.boxes.tolist(), cfg.k,
                          cfg.pos_ignore_iou, cfg.neg_ignore_iou)
        assert uniform_match(diff_grid, g, cfg).labels.tolist() == want

    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_topk_equals_oracle(self, diff_grid, kind, seed):
        g = make_scene(kind, seed)
        want = uniform_py(diff_grid.anchors.tolist(), g.boxes.tolist(), 6,
                          0.0, 1.0)
        assert topk_match(diff_grid, g,
                          TopKConfig(k=6)).labels.tolist() == want

    @pytest.mark.parametrize("kind,seed", SCENES)
    @pytest.mark.parametrize("k", [9, 15])
    def test_atss_equals_oracle(self, diff_grid, kind, seed, k):
        g = make_scene(kind, seed)
        want = atss_py(diff_grid.anchors.tolist(), g.boxes.tolist(), k)
        assert atss_match(diff_grid, g, ATSSConfig(k=k)).labels.tolist() \
            == want

    @pytest.mark.parametrize("rescue", [True, False])
    @pytest.mark.parametrize("kind,seed", SCENES)
    def test_max_iou_equals_oracle(self, diff_grid, kind, seed, rescue):
        # aligned scenes repeat a GT, so two GTs share a best anchor at
        # equal IoU; the appended far box has IoU 0 with every anchor
        g = make_scene(kind, seed)
        g = gts(np.vstack([g.boxes, [[1000.0, 1000.0, 1010.0, 1010.0]]]))
        cfg = MaxIoUConfig(rescue=rescue)
        anchors = diff_grid.anchors.tolist()
        ious = [[iou_py(box, a) for a in anchors] for box in g.boxes.tolist()]
        want = max_iou_py(ious, cfg.pos_iou, cfg.neg_iou, rescue)
        assert max_iou_match(diff_grid, g, cfg).labels.tolist() == want

    def test_max_iou_equals_oracle_on_tied_ious(self, monkeypatch):
        # IoU matrices drawn from a few values, so that best anchors
        # collide and tie, on a 1 x n grid: the IoU window returns the
        # matrix's positive pairs at or above each GT's threshold, and
        # the rescue floor is 0, so every positive pair is scored
        rng = np.random.default_rng(0)
        values = [0.0, 0.1, 0.3, 0.4, 0.45, 0.5, 0.8, 1.0]
        monkeypatch.setattr(matching, "_rescue_floor",
                            lambda grid, g: np.zeros(len(g)))
        for _ in range(300):
            m, n = rng.integers(1, 7), rng.integers(1, 10)
            ious = rng.choice(values, size=(m, n))

            def window(a, grid, thresh, ious=ious):
                gt, anchor = np.nonzero((ious > 0)
                                        & (ious >= thresh[:, None]))
                return gt, anchor, ious[gt, anchor]

            monkeypatch.setattr(matching, "iou_window", window)
            grid = paved([[32.0 * j, 0.0, 32.0 * j + 8.0, 8.0]
                          for j in range(n)], cols=n)
            g = gts(np.tile([0.0, 0.0, 8.0, 8.0], (m, 1)))
            for rescue in (True, False):
                cfg = MaxIoUConfig(rescue=rescue)
                want = max_iou_py(ious.tolist(), cfg.pos_iou, cfg.neg_iou,
                                  rescue)
                got = max_iou_match(grid, g, cfg)
                assert got.labels.tolist() == want, (ious, rescue)


class TestMatcherTable:
    @pytest.mark.parametrize("name", sorted(matching.MATCHERS))
    def test_every_matcher_takes_its_config(self, small_grid, name):
        match = getattr(matching, f"{name}_match")
        result = match(small_grid, gts([[4, 4, 40, 36]]),
                       matching.MATCHERS[name]())
        assert len(result.gt_positives) == 1

    @pytest.mark.parametrize("cls", list(matching.MATCHERS.values()))
    def test_unknown_parameter_rejected(self, cls):
        with pytest.raises(TypeError, match="kk"):
            cls(kk=1)

    def test_topk_rejects_zero_k(self):
        with pytest.raises(ValueError):
            TopKConfig(k=0)
