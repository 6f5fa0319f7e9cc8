"""Positive-anchor balance statistics across object size buckets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import box_area

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

    def codes(self, areas) -> np.ndarray:
        """Each area's index into :data:`BUCKET_NAMES`; a NaN area is
        large."""
        return np.searchsorted([self.small_max, self.medium_max], areas,
                               side="right")


@dataclass
class MatchDistribution:
    """Positives per GT over scenes, and the per-bucket statistics derived
    from them.

    ``per_gt_counts`` is an ``(N, 2)`` int64 array with one row per GT in
    scene order: the GT's index into :data:`BUCKET_NAMES` and its number
    of positive anchors.
    """

    matcher: str
    per_gt_counts: np.ndarray

    def counts(self, bucket: str) -> tuple:
        """``(GTs, positives, GTs without a positive)`` of one bucket."""
        code, positives = self.per_gt_counts.T
        mine = positives[code == BUCKET_NAMES.index(bucket)]
        return len(mine), int(mine.sum()), int(np.count_nonzero(mine == 0))

    def mean(self, bucket: str) -> float:
        gts, positives, _ = self.counts(bucket)
        return positives / gts if gts else math.nan

    def zero_fraction(self, bucket: str) -> float:
        gts, _, zeros = self.counts(bucket)
        return zeros / gts if gts else math.nan

    @property
    def total_gts(self) -> int:
        return len(self.per_gt_counts)

    @property
    def total_positives(self) -> int:
        return int(self.per_gt_counts[:, 1].sum())


def distribution(results, buckets: SizeBuckets = SizeBuckets(),
                 matcher: str = "") -> MatchDistribution:
    """Aggregate positives-per-GT over ``(GroundTruthSet, MatchResult)`` pairs."""
    areas, counts = [np.empty(0)], [np.empty(0, np.int64)]
    for gts, match in results:
        if match.num_gts != len(gts):
            raise ValueError(f"match labels {match.num_gts} ground truths "
                             f"for {len(gts)} boxes")
        if not matcher:
            matcher = match.matcher
        areas.append(box_area(gts.boxes))
        counts.append(match.positives_per_gt)
    return MatchDistribution(matcher, np.stack(
        [buckets.codes(np.concatenate(areas)), np.concatenate(counts)],
        axis=1))


def merge_distributions(parts: list) -> MatchDistribution:
    """Combine distributions over disjoint scene sets; per-GT counts keep
    the order of ``parts``, so merging consecutive runs of scenes gives
    what one ``distribution`` call over all of them gives."""
    return MatchDistribution(parts[0].matcher, np.concatenate(
        [p.per_gt_counts for p in parts]))


def imbalance_ratio(dist: MatchDistribution) -> float:
    """Max over min of per-bucket mean positives; ``inf`` when a non-empty
    bucket has zero mean while another does not."""
    means = [dist.mean(name) for name in BUCKET_NAMES
             if dist.counts(name)[0]]
    if not means:
        raise ValueError("no bucket contains any ground truth")
    lo, hi = min(means), max(means)
    if lo == 0.0:
        return math.inf if hi > 0.0 else 1.0
    return hi / lo
