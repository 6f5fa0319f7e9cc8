"""Deterministic JSON/CSV report emission with atomic file writes."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile

import numpy as np

from .balance import BUCKET_NAMES, MatchDistribution, imbalance_ratio

CSV_COLUMNS = ("matcher", "bucket", "gt_count", "positives_total",
               "positives_mean", "zero_fraction")


def _safe(value: float):
    """A float for JSON: NaN becomes null and +inf ``"unbounded"``."""
    if isinstance(value, float) and not math.isfinite(value):
        return "unbounded" if value > 0 else None
    return value


def _bucket_rows(dist: MatchDistribution) -> list:
    """Each bucket's ``(name, GTs, positives, mean, zero fraction)``."""
    return [(name, *dist.counts(name)[:2], dist.mean(name),
             dist.zero_fraction(name)) for name in BUCKET_NAMES]


def _summary(dist: MatchDistribution) -> dict:
    """A ``match-stats`` report's fields besides its two row sections."""
    return {
        "matcher": dist.matcher,
        "buckets": {name: {"gt_count": gts, "positives_total": positives,
                           "positives_mean": _safe(mean),
                           "zero_fraction": _safe(zf)}
                    for name, gts, positives, mean, zf in _bucket_rows(dist)},
        "total_gts": dist.total_gts,
        "total_positives": dist.total_positives,
        "imbalance_ratio": (_safe(imbalance_ratio(dist))
                            if dist.total_gts else None),
    }


def distribution_to_dict(dist: MatchDistribution) -> dict:
    counts = dist.per_gt_counts[:, 1].tolist()
    ends = np.cumsum(dist.per_image[:, 2]).tolist()
    # image i's n GTs are the rows that end at ends[i]
    return {
        **_summary(dist),
        "per_gt_counts": [{"bucket": BUCKET_NAMES[b], "positives": c}
                          for b, c in dist.per_gt_counts.tolist()],
        "per_image": [{"image_id": i, "num_gts": n, "num_anchors": a,
                       "num_positive": sum(counts[end - n:end]),
                       "positives_per_gt": counts[end - n:end]}
                      for (i, a, n), end in zip(dist.per_image.tolist(),
                                                ends)],
    }


# One row of each row section as to_json indents it, keys sorted
_GT_ROW = '{\n      "bucket": %s,\n      "positives": %d\n    }'
_IMAGE_ROW = ('{\n      "image_id": %d,\n      "num_anchors": %d,\n'
              '      "num_gts": %d,\n      "num_positive": %d,\n'
              '      "positives_per_gt": %s\n    }')


def _json_list(items: list, indent: str) -> str:
    """``items``, already JSON text, as to_json writes a list whose
    closing bracket is indented by ``indent``."""
    if not items:
        return "[]"
    inner = ",\n  " + indent
    return "[\n  " + indent + inner.join(items) + "\n" + indent + "]"


def distribution_to_json(dist: MatchDistribution, **fields) -> str:
    """``to_json({**distribution_to_dict(dist), **fields})``, with the two
    row sections written from the arrays by lookup table instead of dicts:
    each distinct ``(bucket, positives)`` row and each distinct count is
    formatted once, and the GTs index them."""
    buckets, counts = dist.per_gt_counts.T
    width = int(counts.max()) + 1 if len(counts) else 1
    # one code per (bucket, positives) row
    codes, row = np.unique(buckets * width + counts, return_inverse=True)
    names = [json.dumps(name) for name in BUCKET_NAMES]
    gt_rows = [_GT_ROW % (names[c // width], c % width)
               for c in codes.tolist()]
    # each GT's line in its image's positives_per_gt list, comma included
    # (np.unique without an inverse would import numpy.ma on first use)
    values, value = np.unique(counts, return_inverse=True)
    lines = ["\n        %d," % v for v in values.tolist()]
    line = list(map(lines.__getitem__, value.tolist()))
    num_gts = dist.per_image[:, 2]
    ends = np.cumsum(num_gts)
    totals = np.concatenate([[0], np.cumsum(counts)])
    # image i's n GTs are the rows that end at ends[i]
    image_rows = [
        _IMAGE_ROW % (i, a, n, total,
                      "[%s\n      ]" % "".join(line[end - n:end])[:-1]
                      if n else "[]")
        for (i, a, n), end, total in zip(
            dist.per_image.tolist(), ends.tolist(),
            (totals[ends] - totals[ends - num_gts]).tolist())]
    sections = {
        "per_gt_counts": list(map(gt_rows.__getitem__, row.tolist())),
        "per_image": image_rows,
    }
    text = to_json({**_summary(dist), **fields,
                    **{key: [] for key in sections}})
    # each top-level key is on its own line, indented by two spaces
    for key, rows in sections.items():
        text = text.replace(f'\n  "{key}": []',
                            f'\n  "{key}": {_json_list(rows, "  ")}', 1)
    return text


# One detection as to_json indents it in a top-level list, keys sorted
_DETECTION_ROW = ('{\n    "bbox": [\n      %r,\n      %r,\n      %r,\n'
                  '      %r\n    ],\n    "category_id": %d,\n'
                  '    "score": %r\n  }')


def detections_to_json(boxes, scores, class_ids) -> str:
    """``to_json`` of the list of ``{"bbox", "score", "category_id"}``
    objects, one per row, written by template."""
    rows = [_DETECTION_ROW % (*box, class_id, score) for box, score, class_id
            in zip(boxes.tolist(), scores.tolist(), class_ids.tolist())]
    return _json_list(rows, "") + "\n"


def distribution_to_csv(dist: MatchDistribution) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for name, gts, positives, mean, zf in _bucket_rows(dist):
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
