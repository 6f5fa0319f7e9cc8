import dataclasses
import math

import numpy as np
import pytest

from yolof_assign.balance import (BUCKET_NAMES, MatchDistribution,
                                  SizeBuckets, distribution, imbalance_ratio)
from yolof_assign.geometry import AnchorConfig, ImageSize, generate_anchors
from yolof_assign.matching import (MATCHERS, GroundTruthSet, MatchResult,
                                   MaxIoUConfig, TopKConfig, max_iou_match,
                                   nearest_candidates, topk_match,
                                   uniform_match)
from yolof_assign.reports import (distribution_to_dict, distribution_to_json,
                                  to_json)

from oracles import distribution_py, per_image_py, split_positives_np


def gts(boxes):
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    return GroundTruthSet(boxes=boxes)


def fake_match(labels, num_gts):
    return MatchResult(np.asarray(labels), num_gts)


def records(pairs):
    """``distribution`` records of ``(GroundTruthSet, MatchResult)`` pairs,
    with image ids 1, 2, ..."""
    return [(i, len(m.labels), g, m.positives_per_gt)
            for i, (g, m) in enumerate(pairs, 1)]


def columns(rows):
    """``distribution``'s per-image, box and positive columns of records
    ``(image_id, num_anchors, gts, positives_per_gt)``."""
    return ([(i, n, len(g)) for i, n, g, _ in rows],
            np.concatenate([np.empty((0, 4))]
                           + [g.boxes for *_, g, _ in rows]),
            np.concatenate([np.empty(0, np.int64)] + [p for *_, p in rows]))


def dist_from_means(means):
    """Distribution with one GT per bucket carrying the given counts."""
    boxes = [[0, 0, 10, 10], [0, 0, 70, 70], [0, 0, 400, 50]]
    labels = []
    for g, count in enumerate(means):
        labels += [g] * int(count)
    labels += [-1] * 5
    return distribution(
        *columns(records([(gts(boxes), fake_match(labels, 3))])), "uniform")


class TestSizeBuckets:
    def test_default_edges(self):
        areas = [0.0, 100.0, np.nextafter(32.0 ** 2, 0), 32.0 ** 2, 5000.0,
                 np.nextafter(96.0 ** 2, 0), 96.0 ** 2, 1e9, np.nan]
        codes = SizeBuckets().codes(areas)
        np.testing.assert_array_equal(codes, [0, 0, 0, 1, 1, 1, 2, 2, 2])
        assert [BUCKET_NAMES[c] for c in codes[[1, 3, 6]]] \
            == ["small", "medium", "large"]

    def test_custom_edges(self):
        np.testing.assert_array_equal(
            SizeBuckets(small_max=4.0, medium_max=9.0).codes([3, 4, 8, 9]),
            [0, 1, 1, 2])

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            SizeBuckets(small_max=100.0, medium_max=100.0)


class TestDistribution:
    def test_uniform_counts(self):
        boxes = [[0, 0, 10, 10], [0, 0, 70.8, 70.8], [0, 0, 200, 100]]
        labels = [0] * 4 + [1] * 4 + [2] * 4 + [-1] * 3
        d = distribution(
            *columns(records([(gts(boxes), fake_match(labels, 3))])),
            "uniform")
        for name in ("small", "medium", "large"):
            assert d.mean(name) == 4.0
        assert imbalance_ratio(d) == 1.0

    def test_totals_and_counts(self):
        boxes = [[0, 0, 10, 10], [0, 0, 200, 100]]
        labels = [0, 1, 1, -1, -2]
        d = distribution(
            *columns(records([(gts(boxes), fake_match(labels, 2))])),
            "uniform")
        assert d.total_gts == 2
        assert d.total_positives == 3
        assert d.counts("small") == (1, 1, 0)
        assert d.counts("medium") == (0, 0, 0)
        assert d.counts("large") == (1, 2, 0)
        assert d.zero_fraction("small") == 0.0
        assert math.isnan(d.mean("medium"))
        np.testing.assert_array_equal(d.per_gt_counts, [[0, 1], [2, 2]])
        assert d.per_gt_counts.dtype == np.int64
        np.testing.assert_array_equal(d.per_image, [[1, 5, 2]])
        assert d.per_image.dtype == np.int64

    def test_max_iou_small_vs_large(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
        g = gts([[100, 100, 116, 116], [100, 100, 500, 500]])
        match = max_iou_match(grid, g, MaxIoUConfig(rescue=False))
        d = distribution(*columns(records([(g, match)])), "max_iou")
        assert d.mean("small") == 0.0
        assert d.mean("large") >= 1.0

    def test_uniform_candidates_balanced(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
        g = gts([[100, 100, 116, 116], [100, 100, 500, 500]])
        cands, _ = nearest_candidates(grid, g.boxes, 4)
        assert all(len(c) == 4 for c in cands)

    def test_scene_permutation_invariant(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
        scenes = [gts([[100, 100, 116, 116]]),
                  gts([[64, 64, 364, 364], [300, 32, 350, 90]])]
        pairs = [(g, uniform_match(grid, g)) for g in scenes]
        a = distribution(*columns(records(pairs)), "uniform")
        b = distribution(*columns(records(pairs[::-1])), "uniform")
        for name in BUCKET_NAMES:
            assert a.counts(name) == b.counts(name)

    def test_totals_match_positive_labels(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
        scenes = [gts([[10, 10, 40, 44], [64, 64, 364, 364]]),
                  gts([[200, 200, 290, 280]])]
        pairs = [(g, topk_match(grid, g, TopKConfig(k=4))) for g in scenes]
        d = distribution(*columns(records(pairs)), "topk")
        assert d.total_positives == sum(int(np.sum(m.labels >= 0))
                                        for _, m in pairs)

    def test_rejects_inconsistent_pair(self):
        g = gts([[0, 0, 10, 10]])
        bad = fake_match([0, 1, -1], 2)  # labels for two GTs, one box
        with pytest.raises(ValueError, match="2 ground truths for 1 boxes"):
            distribution(*columns(records([(g, bad)])), "uniform")

    def test_rejects_scenes_that_miscount_their_gts(self):
        rows, boxes, positives = columns(records([(gts([[0, 0, 10, 10]]),
                                                   fake_match([0, -1], 1))]))
        with pytest.raises(ValueError, match="scenes hold 2 ground truths, "
                                             "not 1"):
            distribution([(1, 2, 2)], boxes, positives, "uniform")
        assert distribution(rows, boxes, positives, "uniform").total_gts == 1

    def test_accepts_plain_lists(self):
        g = gts([[0, 0, 10, 10], [0, 0, 200, 100]])
        match = MatchResult(labels=[1, -1, 1], num_gts=2)
        assert match.labels.dtype == np.int64
        assert distribution(*columns(records([(g, match)])),
                            "uniform").total_positives == 2

    def test_rejects_out_of_range_label(self):
        for labels in ([5, -1], [1, -1], [0, -3]):
            with pytest.raises(ValueError, match=r"labels must lie in "
                                                 r"\[-2, 1\)"):
                MatchResult(labels=np.array(labels), num_gts=1)
        with pytest.raises(ValueError):
            MatchResult(labels=np.array([0]), num_gts=0)


class TestMatchResult:
    def test_counts_follow_the_labels(self):
        match = MatchResult(np.array([2, -1, 0, 2, -2, 2]), num_gts=4)
        np.testing.assert_array_equal(match.positives_per_gt, [1, 0, 3, 0])
        got = match.gt_positives
        assert len(got) == 4
        for have, want in zip(got, [[2], [], [0, 3, 5], []]):
            np.testing.assert_array_equal(have, want)

    def test_no_gts(self):
        match = MatchResult(np.array([-1, -2, -1]), num_gts=0)
        assert match.positives_per_gt.shape == (0,)
        assert match.gt_positives == []

    def test_only_labels_are_stored(self):
        match = MatchResult(np.array([0, -1]), num_gts=1)
        assert [f.name for f in dataclasses.fields(match)] \
            == ["labels", "num_gts"]
        with pytest.raises(AttributeError):
            match.gt_positives = []

    @pytest.mark.parametrize("seed", range(20))
    def test_gt_positives_match_label_split(self, seed):
        rng = np.random.default_rng(seed)
        num_gts = int(rng.integers(0, 6))
        labels = rng.integers(-2, num_gts, int(rng.integers(0, 40)))
        match = MatchResult(labels, num_gts)
        want = split_positives_np(labels, num_gts)
        got = match.gt_positives
        assert len(got) == len(want) == num_gts
        for g, (have, expect) in enumerate(zip(got, want)):
            np.testing.assert_array_equal(have, expect)
            np.testing.assert_array_equal(have, np.flatnonzero(labels == g))
        np.testing.assert_array_equal(match.positives_per_gt,
                                      [len(p) for p in want])


def random_scenes(rng):
    """Scenes as ``(GroundTruthSet, MatchResult)`` pairs: some empty, GTs
    on and beside the bucket edges, and GTs without positives."""
    # sides with areas 32^2, 32^2 - 1, 96^2 and 96^2 - 3, exact from
    # integer corners
    edges = np.array([[32.0, 32.0], [32.0, 31.96875], [96.0, 96.0],
                      [96.0, 95.96875]])
    pairs = []
    for s in range(int(rng.integers(1, 12))):
        n = int(rng.integers(0, 7)) if s % 4 else 0
        xy = np.floor(rng.uniform(0, 500, (n, 2)))
        side = np.exp(rng.uniform(0.0, np.log(400.0), (n, 2)))
        on_edge = rng.random(n) < 0.4
        side[on_edge] = edges[rng.integers(0, 4, on_edge.sum())]
        boxes = np.concatenate([xy, xy + side], axis=1)
        num_anchors = int(rng.integers(n + 1, 30))
        # a label per anchor in [-2, n): positives for some GTs, none for
        # the rest
        labels = rng.integers(-2, max(n, 1), num_anchors)
        labels[labels >= n] = -1
        pairs.append((gts(boxes), MatchResult(labels, n)))
    return pairs


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(25))
    def test_distribution_equals_per_gt_loop(self, seed):
        pairs = random_scenes(np.random.default_rng(seed))
        d = distribution(*columns(records(pairs)), "uniform")
        scenes = [(g.boxes.tolist(), m.labels.tolist()) for g, m in pairs]
        rows, stats = distribution_py(scenes)
        assert d.matcher == "uniform"
        assert [(BUCKET_NAMES[b], c) for b, c in d.per_gt_counts.tolist()] \
            == rows
        for name in BUCKET_NAMES:
            gt_count, total, zeros = stats[name]
            assert d.counts(name) == (gt_count, total, zeros)
            if gt_count:
                assert d.mean(name) == total / gt_count
                assert d.zero_fraction(name) == zeros / gt_count
            else:
                assert math.isnan(d.mean(name))
                assert math.isnan(d.zero_fraction(name))
        assert d.total_gts == len(rows)
        assert d.total_positives == sum(c for _, c in rows)

    @pytest.mark.parametrize("seed", range(25))
    def test_per_image_rows_equal_per_scene_loop(self, seed):
        pairs = random_scenes(np.random.default_rng(seed))
        rows = records(pairs)
        want = per_image_py(
            [(g.boxes.tolist(), m.labels.tolist()) for g, m in pairs])
        got = distribution_to_dict(
            distribution(*columns(rows), "uniform"))["per_image"]
        assert [r["image_id"] for r in got] == list(range(1, len(pairs) + 1))
        keys = ("num_gts", "num_anchors", "num_positive", "positives_per_gt")
        assert [{k: r[k] for k in keys} for r in got] == want

    def test_scenes_cover_the_edge_cases(self):
        pairs = [p for seed in range(25)
                 for p in random_scenes(np.random.default_rng(seed))]
        boxes = np.concatenate([g.boxes for g, _ in pairs])
        counts = np.concatenate([m.positives_per_gt for _, m in pairs])
        sides = boxes[:, 2:] - boxes[:, :2]
        assert any(len(g) == 0 for g, _ in pairs)
        assert (counts == 0).any() and (counts > 1).any()
        areas = np.prod(sides, axis=1)
        for area in (32.0 ** 2 - 1, 32.0 ** 2, 96.0 ** 2 - 3, 96.0 ** 2):
            assert (areas == area).any()


def assert_template_text(d, seed=7, dropped=3):
    """The template writer's text equals the dict report's."""
    want = to_json({**distribution_to_dict(d), "seed": seed,
                    "dropped_annotations": dropped})
    assert distribution_to_json(d, seed=seed, dropped_annotations=dropped) \
        == want
    return want


class TestTemplateWriter:
    """``distribution_to_json`` against ``to_json`` of the dict report."""

    def test_no_images(self):
        d = MatchDistribution("atss", np.empty((0, 2), dtype=np.int64),
                              np.empty((0, 3), dtype=np.int64))
        text = assert_template_text(d)
        assert '"per_gt_counts": []' in text and '"per_image": []' in text
        assert '"imbalance_ratio": null' in text

    def test_images_without_gts(self):
        d = distribution(
            *columns(records([(gts([]), fake_match([-1] * 4, 0))] * 3)),
            "uniform")
        text = assert_template_text(d, seed=0, dropped=0)
        assert '"positives_per_gt": []' in text
        assert '"imbalance_ratio": null' in text

    def test_empty_buckets_and_unbounded_ratio(self):
        d = dist_from_means([0, 1, 2])
        assert '"imbalance_ratio": "unbounded"' in assert_template_text(d)
        # only small GTs: the other buckets' means are null
        d = distribution(*columns(records([(gts([[0, 0, 5, 5]]),
                                   fake_match([0, -1], 1))])), "topk")
        text = assert_template_text(d)
        assert '"positives_mean": null' in text
        assert '"imbalance_ratio": 1.0' in text

    def test_one_gt_images(self):
        pairs = [(gts([[0, 0, 10 * k, 10 * k]]), fake_match([0] * k, 1))
                 for k in range(1, 6)]
        text = assert_template_text(
            distribution(*columns(records(pairs)), "max_iou"))
        assert '"positives_per_gt": [\n        5\n      ]' in text

    def test_image_ids_at_int64_extremes(self):
        ids = [-2 ** 63, 0, 2 ** 63 - 1]
        d = MatchDistribution(
            "hungarian", np.array([[0, 1], [2, 0]], dtype=np.int64),
            np.array([[i, 5000, n] for i, n in zip(ids, (1, 0, 1))],
                     dtype=np.int64))
        text = assert_template_text(d, seed=2 ** 63 - 1, dropped=2 ** 40)
        assert f'"image_id": {-2 ** 63},' in text

    @pytest.mark.parametrize("seed", range(25))
    def test_random_scenes(self, seed):
        pairs = random_scenes(np.random.default_rng(seed))
        assert_template_text(
            distribution(*columns(records(pairs)), "uniform"), seed=seed)


class TestTableWriter:
    """The lookup-table writer, which formats each distinct (bucket,
    positives) row and each distinct count once, against ``to_json`` of
    the dict report for every matcher."""

    @pytest.mark.parametrize("matcher", sorted(MATCHERS))
    @pytest.mark.parametrize("seed", range(6))
    def test_random_scenes(self, matcher, seed):
        pairs = random_scenes(np.random.default_rng(100 + seed))
        assert_template_text(distribution(*columns(records(pairs)), matcher),
                             seed=seed, dropped=seed)

    @pytest.mark.parametrize("matcher", sorted(MATCHERS))
    def test_empty_corpus(self, matcher):
        d = MatchDistribution(matcher, np.empty((0, 2), dtype=np.int64),
                              np.empty((0, 3), dtype=np.int64))
        assert_template_text(d)

    @pytest.mark.parametrize("matcher", sorted(MATCHERS))
    def test_images_without_gts_around_others(self, matcher):
        # empty images first, between and last: their GT slices are empty
        # and their sums 0
        d = MatchDistribution(
            matcher, np.array([[0, 3], [2, 0], [1, 3]], dtype=np.int64),
            np.array([[1, 10, 0], [2, 10, 2], [3, 10, 0], [4, 10, 1],
                      [5, 10, 0]], dtype=np.int64))
        text = assert_template_text(d)
        assert text.count('"positives_per_gt": []') == 3

    @pytest.mark.parametrize("matcher", sorted(MATCHERS))
    def test_counts_above_a_million(self, matcher):
        rng = np.random.default_rng(5)
        n = 400
        counts = rng.choice([0, 1, 7, 10 ** 6, 10 ** 6 + 1, 2 ** 40], n)
        per_gt = np.stack([rng.integers(0, len(BUCKET_NAMES), n), counts],
                          axis=1)
        sizes = rng.multinomial(n, np.full(60, 1 / 60))
        per_image = np.stack([np.arange(60), np.full(60, 2 ** 41), sizes],
                             axis=1)
        text = assert_template_text(MatchDistribution(matcher, per_gt,
                                                      per_image))
        assert f'"positives": {2 ** 40}\n' in text


class TestImbalanceRatio:
    def test_uniform_means(self):
        assert imbalance_ratio(dist_from_means([4, 4, 4])) == 1.0

    def test_ratio_arithmetic(self):
        d = dist_from_means([1, 5, 20])
        assert imbalance_ratio(d) == pytest.approx(20.0)

    def test_zero_mean_is_unbounded(self):
        d = dist_from_means([0, 1, 2])
        assert math.isinf(imbalance_ratio(d))

    def test_rejects_empty(self):
        empty = MatchDistribution("", np.empty((0, 2), dtype=np.int64),
                                  np.empty((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            imbalance_ratio(empty)
