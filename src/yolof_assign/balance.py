"""Positive-anchor balance statistics across object size buckets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import box_area
from .matching import GroundTruthSet, MatchResult

BUCKET_NAMES = ("small", "medium", "large")


@dataclass(frozen=True)
class SizeBuckets:
    """Small/medium/large partition of GTs by box area.

    Defaults follow the COCO convention: small below 32^2, large at or
    above 96^2.
    """

    small_max: float = 32.0 ** 2
    medium_max: float = 96.0 ** 2

    def __post_init__(self):
        if not 0 < self.small_max < self.medium_max:
            raise ValueError("need 0 < small_max < medium_max")

    def bucket_of(self, area: float) -> str:
        if area < self.small_max:
            return "small"
        if area < self.medium_max:
            return "medium"
        return "large"


@dataclass
class BucketStats:
    gt_count: int = 0
    positives_total: int = 0

    @property
    def positives_mean(self) -> float:
        return self.positives_total / self.gt_count if self.gt_count else math.nan

    def zero_fraction(self, zero_count: int) -> float:
        return zero_count / self.gt_count if self.gt_count else math.nan


@dataclass
class MatchDistribution:
    """Per-bucket positive-anchor statistics aggregated over scenes."""

    matcher: str
    buckets: dict  # bucket name -> BucketStats
    zero_counts: dict  # bucket name -> GTs with no positives
    per_gt_counts: list = field(default_factory=list)  # (bucket, count) pairs

    def mean(self, bucket: str) -> float:
        return self.buckets[bucket].positives_mean

    def zero_fraction(self, bucket: str) -> float:
        return self.buckets[bucket].zero_fraction(self.zero_counts[bucket])

    @property
    def total_gts(self) -> int:
        return sum(b.gt_count for b in self.buckets.values())

    @property
    def total_positives(self) -> int:
        return sum(b.positives_total for b in self.buckets.values())


def distribution(results, buckets: SizeBuckets = SizeBuckets(),
                 matcher: str = "") -> MatchDistribution:
    """Aggregate positives-per-GT over ``(GroundTruthSet, MatchResult)`` pairs."""
    stats = {name: BucketStats() for name in BUCKET_NAMES}
    zeros = {name: 0 for name in BUCKET_NAMES}
    per_gt = []
    for gts, match in results:
        _check_consistent(gts, match)
        if not matcher:
            matcher = match.matcher
        areas = box_area(gts.boxes)
        for g in range(len(gts)):
            name = buckets.bucket_of(float(areas[g]))
            count = len(match.gt_positives[g])
            stats[name].gt_count += 1
            stats[name].positives_total += count
            if count == 0:
                zeros[name] += 1
            per_gt.append((name, count))
    return MatchDistribution(matcher=matcher, buckets=stats,
                             zero_counts=zeros, per_gt_counts=per_gt)


def merge_distributions(parts: list) -> MatchDistribution:
    """Combine distributions over disjoint scene sets; per-GT counts keep
    the order of ``parts``, so merging consecutive runs of scenes gives
    what one ``distribution`` call over all of them gives."""
    return MatchDistribution(
        matcher=parts[0].matcher,
        buckets={name: BucketStats(
            gt_count=sum(p.buckets[name].gt_count for p in parts),
            positives_total=sum(p.buckets[name].positives_total
                                for p in parts))
            for name in BUCKET_NAMES},
        zero_counts={name: sum(p.zero_counts[name] for p in parts)
                     for name in BUCKET_NAMES},
        per_gt_counts=[c for p in parts for c in p.per_gt_counts])


def _check_consistent(gts: GroundTruthSet, match: MatchResult):
    if len(match.gt_positives) != len(gts):
        raise ValueError(f"match carries {len(match.gt_positives)} GT lists "
                         f"for {len(gts)} ground truths")
    labels = match.labels
    positive = labels >= 0
    if np.any(positive) and labels[positive].max() >= len(gts):
        raise ValueError("match labels reference a ground truth out of range")
    # one pass: a GT disagrees when it lists an anchor out of range or
    # labelled otherwise, or lists one of its own anchors other than once
    lists = [np.asarray(p, dtype=np.int64) for p in match.gt_positives]
    idx = np.concatenate([np.empty(0, np.int64), *lists])
    owner = np.repeat(np.arange(len(gts)), [len(p) for p in lists])
    wrong = (idx < 0) | (idx >= len(labels))
    wrong[~wrong] = labels[idx[~wrong]] != owner[~wrong]
    hits = np.bincount(idx[~wrong], minlength=len(labels))
    bad = np.concatenate([owner[wrong], labels[positive & (hits != 1)]])
    if len(bad):
        raise ValueError(f"positive list for GT {bad.min()} disagrees with "
                         f"labels")


def imbalance_ratio(dist: MatchDistribution) -> float:
    """Max over min of per-bucket mean positives; ``inf`` when a non-empty
    bucket has zero mean while another does not."""
    means = [b.positives_mean for b in dist.buckets.values() if b.gt_count]
    if not means:
        raise ValueError("no bucket contains any ground truth")
    lo, hi = min(means), max(means)
    if lo == 0.0:
        return math.inf if hi > 0.0 else 1.0
    return hi / lo
