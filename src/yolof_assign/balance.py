"""Positive-anchor balance statistics across object size buckets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import _check_types, box_area

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
        _check_types(self)
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
    of positive anchors.  ``per_image`` is a ``(K, 3)`` int64 array with
    one row per scene (image id, anchors, GTs); each scene's GTs are the
    next rows of ``per_gt_counts``.
    """

    matcher: str
    per_gt_counts: np.ndarray
    per_image: np.ndarray

    @cached_property
    def _bucket_counts(self) -> dict:  # every bucket's counts, in one pass
        code, positives = self.per_gt_counts.T
        n = len(BUCKET_NAMES)
        columns = (np.bincount(code, minlength=n),
                   np.bincount(code, positives, n).astype(np.int64),
                   np.bincount(code[positives == 0], minlength=n))
        return dict(zip(BUCKET_NAMES, zip(*(c.tolist() for c in columns))))

    def counts(self, bucket: str) -> tuple:
        """``(GTs, positives, GTs without a positive)`` of one bucket."""
        return self._bucket_counts[bucket]

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


def distribution(per_image, boxes, positives, matcher: str,
                 buckets: SizeBuckets = SizeBuckets()) -> MatchDistribution:
    """Aggregate scenes given as columns: ``per_image`` rows ``(image_id,
    num_anchors, num_gts)``, then each GT's box ``(N, 4)`` and positive
    count ``(N,)``, scene after scene."""
    per_image = np.array(per_image, np.int64).reshape(-1, 3)
    positives = np.asarray(positives, np.int64)
    if len(positives) != len(boxes):
        raise ValueError(f"match labels {len(positives)} ground truths "
                         f"for {len(boxes)} boxes")
    if per_image[:, 2].sum() != len(boxes):
        raise ValueError(f"scenes hold {per_image[:, 2].sum()} ground "
                         f"truths, not {len(boxes)}")
    codes = buckets.codes(box_area(boxes))
    return MatchDistribution(matcher, np.stack([codes, positives], axis=1),
                             per_image)


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
