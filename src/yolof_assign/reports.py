"""Deterministic JSON/CSV report emission with atomic file writes."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile

from .balance import BUCKET_NAMES, MatchDistribution, imbalance_ratio

CSV_COLUMNS = ("matcher", "bucket", "gt_count", "positives_total",
               "positives_mean", "zero_fraction")


def _safe(value: float):
    """A float for JSON: NaN becomes null and +inf ``"unbounded"``."""
    if isinstance(value, float) and not math.isfinite(value):
        return "unbounded" if value > 0 else None
    return value


def distribution_to_dict(dist: MatchDistribution,
                         per_image: list | None = None) -> dict:
    buckets = {}
    for name in BUCKET_NAMES:
        gts, positives, _ = dist.counts(name)
        buckets[name] = {"gt_count": gts, "positives_total": positives,
                         "positives_mean": _safe(dist.mean(name)),
                         "zero_fraction": _safe(dist.zero_fraction(name))}
    doc = {
        "matcher": dist.matcher,
        "buckets": buckets,
        "per_gt_counts": [{"bucket": BUCKET_NAMES[b], "positives": c}
                          for b, c in dist.per_gt_counts.tolist()],
        "total_gts": dist.total_gts,
        "total_positives": dist.total_positives,
        "imbalance_ratio": (_safe(imbalance_ratio(dist))
                            if dist.total_gts else None),
    }
    if per_image is not None:
        doc["per_image"] = per_image
    return doc


def distribution_to_csv(dist: MatchDistribution) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for name in BUCKET_NAMES:
        gts, positives, _ = dist.counts(name)
        mean = dist.mean(name)
        zf = dist.zero_fraction(name)
        writer.writerow([
            dist.matcher, name, gts, positives,
            "" if math.isnan(mean) else f"{mean:.6f}",
            "" if math.isnan(zf) else f"{zf:.6f}",
        ])
    return buf.getvalue()


def to_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file beside the target, then rename over it.

    A symlink is followed, so the file it points to is replaced.  A target
    that exists and is not a regular file (a FIFO, a device such as
    ``/dev/null``) is written directly: renaming over it would replace the
    node itself.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".report-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
