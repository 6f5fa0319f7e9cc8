import math

import numpy as np
import pytest

from yolof_assign.balance import (BucketStats, MatchDistribution, SizeBuckets,
                                  distribution, imbalance_ratio,
                                  merge_distributions)
from yolof_assign.geometry import AnchorConfig, ImageSize, generate_anchors
from yolof_assign.matching import (GroundTruthSet, MatchResult, MaxIoUConfig,
                                   TopKConfig, max_iou_match,
                                   nearest_candidates, topk_match,
                                   uniform_match)


def gts(boxes):
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    return GroundTruthSet(boxes=boxes,
                          class_ids=np.zeros(len(boxes), dtype=int))


def fake_match(labels, num_gts):
    return MatchResult.from_labels(np.asarray(labels), num_gts)


def dist_from_means(means):
    """Distribution with one GT per bucket carrying the given counts."""
    boxes = [[0, 0, 10, 10], [0, 0, 70, 70], [0, 0, 400, 50]]
    labels = []
    for g, count in enumerate(means):
        labels += [g] * int(count)
    labels += [-1] * 5
    return distribution([(gts(boxes), fake_match(labels, 3))])


class TestSizeBuckets:
    def test_default_edges(self):
        b = SizeBuckets()
        assert b.bucket_of(100.0) == "small"
        assert b.bucket_of(32.0 ** 2) == "medium"
        assert b.bucket_of(5000.0) == "medium"
        assert b.bucket_of(96.0 ** 2) == "large"

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            SizeBuckets(small_max=100.0, medium_max=100.0)


class TestDistribution:
    def test_uniform_counts(self):
        boxes = [[0, 0, 10, 10], [0, 0, 70.8, 70.8], [0, 0, 200, 100]]
        labels = [0] * 4 + [1] * 4 + [2] * 4 + [-1] * 3
        d = distribution([(gts(boxes), fake_match(labels, 3))])
        for name in ("small", "medium", "large"):
            assert d.mean(name) == 4.0
        assert imbalance_ratio(d) == 1.0

    def test_totals_and_counts(self):
        boxes = [[0, 0, 10, 10], [0, 0, 200, 100]]
        labels = [0, 1, 1, -1, -2]
        d = distribution([(gts(boxes), fake_match(labels, 2))])
        assert d.total_gts == 2
        assert d.total_positives == 3
        assert d.buckets["small"].gt_count == 1
        assert d.buckets["large"].positives_total == 2
        assert d.zero_fraction("small") == 0.0

    def test_max_iou_small_vs_large(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
        g = gts([[100, 100, 116, 116], [100, 100, 500, 500]])
        match = max_iou_match(grid, g, MaxIoUConfig(rescue=False))
        d = distribution([(g, match)])
        assert d.mean("small") == 0.0
        assert d.mean("large") >= 1.0

    def test_uniform_candidates_balanced(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
        g = gts([[100, 100, 116, 116], [100, 100, 500, 500]])
        cands = nearest_candidates(grid, g, 4)
        assert all(len(c) == 4 for c in cands)

    def test_scene_permutation_invariant(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
        scenes = [gts([[100, 100, 116, 116]]),
                  gts([[64, 64, 364, 364], [300, 32, 350, 90]])]
        pairs = [(g, uniform_match(grid, g)) for g in scenes]
        a = distribution(pairs)
        b = distribution(pairs[::-1])
        for name in ("small", "medium", "large"):
            assert a.buckets[name].gt_count == b.buckets[name].gt_count
            assert a.buckets[name].positives_total \
                == b.buckets[name].positives_total

    def test_merge_of_consecutive_runs_equals_one_call(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
        scenes = [gts([[100, 100, 116, 116]]), gts([]),
                  gts([[64, 64, 364, 364], [300, 32, 350, 90]]),
                  gts([[10, 10, 40, 44], [200, 200, 290, 280]])]
        pairs = [(g, max_iou_match(grid, g)) for g in scenes]
        whole = distribution(pairs, matcher="max_iou")
        for cuts in ([4], [0, 4], [1, 2, 4], [2, 2, 3, 4]):
            parts = [distribution(pairs[lo:hi], matcher="max_iou")
                     for lo, hi in zip([0] + cuts, cuts)]
            assert merge_distributions(parts) == whole

    def test_totals_match_positive_labels(self):
        grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
        scenes = [gts([[10, 10, 40, 44], [64, 64, 364, 364]]),
                  gts([[200, 200, 290, 280]])]
        pairs = [(g, topk_match(grid, g, TopKConfig(k=4))) for g in scenes]
        d = distribution(pairs)
        assert d.total_positives == sum(int(np.sum(m.labels >= 0))
                                        for _, m in pairs)

    def test_rejects_inconsistent_pair(self):
        g = gts([[0, 0, 10, 10]])
        bad = fake_match([0, 1, -1], 2)  # two GT lists for one GT
        with pytest.raises(ValueError):
            distribution([(g, bad)])

    def test_rejects_anchor_labelled_for_another_gt(self):
        g = gts([[0, 0, 10, 10], [0, 0, 200, 100]])
        bad = MatchResult(labels=np.array([0, 1, -1]),
                          gt_positives=[np.array([0, 1]), np.array([1])])
        with pytest.raises(ValueError, match="GT 0 disagrees"):
            distribution([(g, bad)])

    # GT 0's true list is [0, 1]: a repeat added, and a repeat in place of
    # anchor 1, which keeps the length
    @pytest.mark.parametrize("listed", [[0, 1, 0], [0, 0]])
    def test_rejects_duplicated_index(self, listed):
        g = gts([[0, 0, 10, 10], [0, 0, 200, 100]])
        bad = MatchResult(labels=np.array([0, 0, 1]),
                          gt_positives=[np.array(listed), np.array([2])])
        with pytest.raises(ValueError, match="GT 0 disagrees"):
            distribution([(g, bad)])

    # -3 would wrap around to anchor 0, which is GT 0's
    @pytest.mark.parametrize("listed", [[-3], [3]])
    def test_rejects_listed_index_out_of_range(self, listed):
        g = gts([[0, 0, 10, 10], [0, 0, 200, 100]])
        bad = MatchResult(labels=np.array([0, 1, -1]),
                          gt_positives=[np.array(listed), np.array([1])])
        with pytest.raises(ValueError, match="GT 0 disagrees"):
            distribution([(g, bad)])

    def test_rejects_missing_index(self):
        g = gts([[0, 0, 10, 10], [0, 0, 200, 100]])
        bad = MatchResult(labels=np.array([0, 1, 1]),
                          gt_positives=[np.array([0]), np.array([2])])
        with pytest.raises(ValueError, match="GT 1 disagrees"):
            distribution([(g, bad)])

    def test_accepts_plain_lists(self):
        g = gts([[0, 0, 10, 10], [0, 0, 200, 100]])
        match = MatchResult(labels=np.array([1, -1, 1]),
                            gt_positives=[[], [2, 0]])
        assert distribution([(g, match)]).total_positives == 2

    def test_rejects_out_of_range_label(self):
        g = gts([[0, 0, 10, 10]])
        bad = MatchResult(labels=np.array([5, -1]),
                          gt_positives=[np.array([], dtype=int)])
        with pytest.raises(ValueError):
            distribution([(g, bad)])


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
        empty = MatchDistribution(
            matcher="", zero_counts={"small": 0, "medium": 0, "large": 0},
            buckets={n: BucketStats()
                     for n in ("small", "medium", "large")})
        with pytest.raises(ValueError):
            imbalance_ratio(empty)
