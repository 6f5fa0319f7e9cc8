"""Label-assignment strategies for anchors on a single feature level.

Every matcher returns a :class:`MatchResult` whose ``labels`` array tags
each anchor as positive for one ground-truth box, negative, or ignored.
All matchers are pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import (AnchorGrid, _anchor_layout, _grid_outer, as_boxes,
                       box_area, box_centers, pairwise_iou)

NEGATIVE = -1
IGNORED = -2


@dataclass
class GroundTruthSet:
    """Ground-truth boxes with parallel class ids."""

    boxes: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        self.boxes = as_boxes(self.boxes)
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64).reshape(-1)
        if len(self.class_ids) != len(self.boxes):
            raise ValueError("boxes and class_ids must have equal length")
        if np.any(self.class_ids < 0):
            raise ValueError("class ids must be non-negative")
        if len(self.boxes) and np.any(box_area(self.boxes) <= 0):
            raise ValueError("every ground-truth box must have positive area")

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass
class MatchResult:
    """Per-anchor assignment labels, from which every per-GT count follows.

    ``labels[a]`` is the ground-truth index (below ``num_gts``) when anchor
    ``a`` is positive, ``NEGATIVE`` (-1) or ``IGNORED`` (-2) otherwise.
    """

    labels: np.ndarray
    num_gts: int
    matcher: str = ""

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.labels) and not (IGNORED <= self.labels.min()
                                     and self.labels.max() < self.num_gts):
            raise ValueError(f"labels must lie in [{IGNORED}, "
                             f"{self.num_gts})")

    @property
    def positives_per_gt(self) -> np.ndarray:
        return np.bincount(self.labels[self.labels >= 0],
                           minlength=self.num_gts)

    @property
    def gt_positives(self) -> list:
        """Each GT's positive anchor indices, ascending."""
        pos = np.flatnonzero(self.labels >= 0)
        pos = pos[np.argsort(self.labels[pos], kind="stable")]
        return np.split(pos, np.cumsum(self.positives_per_gt))[:self.num_gts]

    @property
    def num_positive(self) -> int:
        return int(np.sum(self.labels >= 0))


# parameter type -> (accepted value types, what the message asks for)
_PARAM_TYPES = {
    "int": ((int, np.integer), "an integer"),
    "bool": ((bool, np.bool_), "a bool"),
    "float": ((int, float, np.integer, np.floating), "a finite real number"),
}


def _check_types(cfg) -> None:
    """Reject a parameter value that does not fit its field's type.

    A bool is only a bool (Python counts it as an int), and a ``float``
    parameter must be finite.
    """
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        types, want = _PARAM_TYPES[f.type]
        ok = isinstance(v, types) \
            and isinstance(v, (bool, np.bool_)) == (f.type == "bool")
        if not ok or (f.type == "float" and not abs(v) < np.inf):
            raise ValueError(f"{f.name} must be {want}, got {v!r}")


@dataclass(frozen=True)
class UniformMatchConfig:
    k: int = 4
    pos_ignore_iou: float = 0.15
    neg_ignore_iou: float = 0.7

    def __post_init__(self):
        _check_types(self)
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.0 <= self.pos_ignore_iou < self.neg_ignore_iou <= 1.0:
            raise ValueError("need 0 <= pos_ignore_iou < neg_ignore_iou <= 1")


@dataclass(frozen=True)
class TopKConfig:
    k: int = 4

    def __post_init__(self):
        _check_types(self)
        if self.k < 1:
            raise ValueError("k must be a positive integer")


@dataclass(frozen=True)
class MaxIoUConfig:
    pos_iou: float = 0.5
    neg_iou: float = 0.4
    rescue: bool = True

    def __post_init__(self):
        _check_types(self)
        if not 0.0 <= self.neg_iou <= self.pos_iou <= 1.0:
            raise ValueError("need 0 <= neg_iou <= pos_iou <= 1")


@dataclass(frozen=True)
class ATSSConfig:
    k: int = 15

    def __post_init__(self):
        _check_types(self)
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class HungarianConfig:
    """Hungarian matching has no parameters."""


# matcher name -> parameter dataclass; ``<name>_match(anchors, gts, cfg)``
MATCHERS = {"uniform": UniformMatchConfig, "topk": TopKConfig,
            "max_iou": MaxIoUConfig, "atss": ATSSConfig,
            "hungarian": HungarianConfig}


def _center_distances(gt_boxes: np.ndarray, anchors) -> np.ndarray:
    """Euclidean center distances from each GT box to ``anchors``.

    ``anchors`` are shaped as ``b`` in :func:`pairwise_iou`: ``(N, 4)``
    boxes or a grid give the ``(M, N)`` matrix, ``(M, k, 4)`` gathered
    anchors the ``(M, k)`` rows.
    """
    gc = box_centers(gt_boxes)
    if isinstance(anchors, AnchorGrid):
        return _grid_distances(gc, anchors.x_centers, anchors.y_centers)
    ac = box_centers(anchors)
    dist = gc[:, None, 0] - ac[..., 0]
    dist *= dist
    dy = gc[:, None, 1] - ac[..., 1]
    dy *= dy
    dist += dy
    return np.sqrt(dist, out=dist)


def _grid_distances(gc: np.ndarray, xc: np.ndarray, yc: np.ndarray):
    """Distances from centers ``gc`` ``(M, 2)`` to a grid whose x centers
    are ``xc`` ``(W, A)`` and y centers ``yc`` ``(H, A)``, as ``(M, H*W*A)``:
    squared x offsets per column, squared y offsets per row, then one add
    per anchor and one sqrt."""
    dx = gc[:, None, None, 0] - xc
    dx *= dx
    dy = gc[:, None, None, 1] - yc
    dy *= dy
    dist = _grid_outer(np.add, dx, dy)
    return np.sqrt(dist, out=dist)


def nearest_candidates(anchors, gts: GroundTruthSet, k: int) -> np.ndarray:
    """The k center-nearest anchors of each GT, shape ``(M, k)``.

    This is the pre-filter candidate set of uniform, top-k and ATSS
    matching.  Each row is ordered by distance; ties in distance break by
    ascending anchor index.
    """
    anchors, boxes = _anchor_layout(anchors)
    if k > len(boxes):
        raise ValueError(f"k={k} exceeds the {len(boxes)} available anchors")
    if len(gts) == 0:
        return np.empty((0, k), dtype=np.int64)
    if isinstance(anchors, AnchorGrid) and anchors.shared_centers:
        # Every slot of a position has the same distance, and its anchors
        # are consecutive, so (distance, index) order over anchors is that
        # order over positions with each expanded into its slots.
        per = anchors.config.anchors_per_position
        pos = _k_smallest(_grid_distances(box_centers(gts.boxes),
                                          anchors.x_centers[:, :1],
                                          anchors.y_centers[:, :1]),
                          -(-k // per))
        return (pos[:, :, None] * per + np.arange(per)).reshape(
            len(gts), -1)[:, :k]
    return _k_smallest(_center_distances(gts.boxes, anchors), k)


def _k_smallest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest values, ``(M, k)``, ordered
    by (value, index)."""
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    # Every column at most the k-th value, as "not farther" so that a row
    # of NaN distances (a NaN box) keeps all its columns: such rows sort
    # like argsort, NaN last and then by index.
    near = np.flatnonzero(~(dist > kth))
    rows, cols = np.divmod(near, dist.shape[1])
    order = np.lexsort((cols, dist.ravel()[near], rows))
    starts = np.searchsorted(rows, np.arange(len(dist)))
    return cols[order][starts[:, None] + np.arange(k)]


def _candidate_matrix(cand: np.ndarray, values, fill: float):
    """GT-by-candidate matrix holding ``values`` at ``cand``, else ``fill``.

    Returns ``(cols, matrix)``: the distinct candidate anchors, ascending,
    and the ``(M, len(cols))`` matrix whose column ``j`` is anchor
    ``cols[j]``.  Only anchors some GT claims need a column.
    """
    cols, slot = np.unique(cand, return_inverse=True)
    matrix = np.full((len(cand), len(cols)), fill)
    matrix[np.arange(len(cand))[:, None], slot.reshape(cand.shape)] = values
    return cols, matrix


def uniform_match(anchors, gts: GroundTruthSet,
                  cfg: UniformMatchConfig = UniformMatchConfig()) -> MatchResult:
    """k-nearest-anchor matching with IoU-based ignore filters.

    Each GT takes its k center-nearest anchors as candidates.  An anchor
    claimed by several GTs goes to the closest one (tie: smaller GT index).
    A resolved candidate with IoU below ``pos_ignore_iou`` for its GT is
    ignored rather than positive; a non-candidate whose best IoU over all
    GTs exceeds ``neg_ignore_iou`` is ignored rather than negative.
    """
    anchors, boxes = _anchor_layout(anchors)
    cand = nearest_candidates(anchors, gts, cfg.k)
    labels = np.full(len(boxes), NEGATIVE, dtype=np.int64)
    if len(gts) == 0:
        return MatchResult(labels, 0, matcher="uniform")

    # Conflict resolution, as a scan over the GTs in index order that hands
    # an anchor to a strictly nearer claim: the nearest claim wins (tie:
    # smaller GT index), and a NaN distance never takes an anchor claimed
    # before it nor loses one it claimed first.
    claims = cand.ravel()
    claimer = np.repeat(np.arange(len(gts)), cfg.k)
    dist = _center_distances(gts.boxes, boxes[cand]).ravel()
    owner = np.empty(len(boxes), dtype=np.int64)
    by_dist = np.lexsort((claimer, dist))  # NaN last
    best = by_dist[np.unique(claims[by_dist], return_index=True)[1]]
    owner[claims[best]] = claimer[best]
    a, first = np.unique(claims, return_index=True)
    kept = first[np.isnan(dist[first])]
    owner[claims[kept]] = claimer[kept]
    g = owner[a]

    if cfg.neg_ignore_iou < 1.0:  # no IoU exceeds 1, so 1 ignores nothing
        hot = pairwise_iou(gts.boxes, anchors).max(axis=0) \
            > cfg.neg_ignore_iou
        hot[a] = False
        labels[hot] = IGNORED
    # only each resolved (GT, anchor) pair's IoU: (n, 4) against (n, 1, 4)
    pair_iou = pairwise_iou(gts.boxes[g], boxes[a, None])[:, 0]
    labels[a] = np.where(pair_iou >= cfg.pos_ignore_iou, g, IGNORED)
    return MatchResult(labels, len(gts), matcher="uniform")


def topk_match(anchors, gts: GroundTruthSet,
               cfg: TopKConfig = TopKConfig()) -> MatchResult:
    """Pure k-nearest matching: uniform matching with ignore filters off."""
    result = uniform_match(anchors, gts, UniformMatchConfig(
        k=cfg.k, pos_ignore_iou=0.0, neg_ignore_iou=1.0))
    result.matcher = "topk"
    return result


def max_iou_match(anchors, gts: GroundTruthSet,
                  cfg: MaxIoUConfig = MaxIoUConfig()) -> MatchResult:
    """IoU-threshold matching.

    An anchor is positive for its argmax-IoU GT when that IoU reaches
    ``pos_iou``, negative below ``neg_iou``, ignored in between.  With
    ``rescue`` on, each GT's best-IoU anchor is forced positive for it
    even below the threshold.
    """
    anchors, boxes = _anchor_layout(anchors)
    n = len(boxes)
    labels = np.full(n, NEGATIVE, dtype=np.int64)
    if len(gts) == 0:
        return MatchResult(labels, 0, matcher="max_iou")

    ious = pairwise_iou(gts.boxes, anchors)
    best_gt = np.argmax(ious, axis=0)
    best_iou = ious[best_gt, np.arange(n)]
    labels[best_iou >= cfg.pos_iou] = best_gt[best_iou >= cfg.pos_iou]
    ignore = (best_iou >= cfg.neg_iou) & (best_iou < cfg.pos_iou)
    labels[ignore] = IGNORED

    if cfg.rescue:
        # force each GT's best anchor; on contention the higher IoU wins,
        # then the smaller GT index, and a NaN IoU never does
        best = np.argmax(ious, axis=1)
        forced_iou = ious[np.arange(len(gts)), best]
        g = np.flatnonzero(~np.isnan(forced_iou))
        g = g[np.argsort(-forced_iou[g], kind="stable")]
        a, first = np.unique(best[g], return_index=True)
        labels[a] = g[first]
    return MatchResult(labels, len(gts), matcher="max_iou")


def atss_match(anchors, gts: GroundTruthSet,
               cfg: ATSSConfig = ATSSConfig()) -> MatchResult:
    """Adaptive matching with a per-GT dynamic IoU threshold (single level).

    For each GT the k center-nearest anchors form the candidate pool; the
    threshold is the mean plus population standard deviation of their IoUs.
    Candidates at or above it whose center lies strictly inside the GT box
    become positive; conflicts go to the higher IoU (tie: smaller GT
    index).  There is no ignored class.
    """
    anchors, boxes = _anchor_layout(anchors)
    cand = nearest_candidates(anchors, gts, cfg.k)
    labels = np.full(len(boxes), NEGATIVE, dtype=np.int64)
    if len(gts) == 0:
        return MatchResult(labels, 0, matcher="atss")

    # only the candidates' IoUs, each row in (distance, index) order, so it
    # sums as a 1-D pool would
    cand_ious = pairwise_iou(gts.boxes, boxes[cand])
    thresh = (cand_ious.mean(axis=1, keepdims=True)
              + cand_ious.std(axis=1, keepdims=True))  # population std
    cx, cy = np.moveaxis(box_centers(boxes[cand]), -1, 0)
    x1, y1, x2, y2 = gts.boxes.T[:, :, None]
    inside = (x1 < cx) & (cx < x2) & (y1 < cy) & (cy < y2)
    cols, score = _candidate_matrix(
        cand, np.where((cand_ious >= thresh) & inside, cand_ious, -1.0), -1.0)
    owner = np.argmax(score, axis=0)  # first max -> smaller gt index on ties
    positive = score.max(axis=0) > -1.0
    labels[cols[positive]] = owner[positive]
    return MatchResult(labels, len(gts), matcher="atss")


_INFEASIBLE = "cost matrix is infeasible"


def solve_assignment(cost: np.ndarray):
    """Minimum-cost one-to-one assignment on an arbitrary cost matrix.

    Rows must not outnumber columns.  Returns ``(rows, cols, total_cost)``
    with ``rows == arange(M)`` and one distinct column per row.  A ``+inf``
    entry forbids its pair; NaN or ``-inf`` entries, and a matrix that no
    assignment of finite cost fits, raise ``ValueError``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    m, n = cost.shape
    if m > n:
        raise ValueError(f"cannot assign {m} rows to {n} columns")
    if not (cost > -np.inf).all():
        raise ValueError("matrix contains invalid numeric entries")
    rows = np.arange(m)
    # Each row paying its own minimum is a lower bound, so distinct row
    # argmins are an optimal assignment.
    cols = cost.argmin(axis=1) if m else rows
    if len(np.unique(cols)) < m:
        # Some optimal assignment gives every row one of its m cheapest
        # columns: a row on any other column can move to one of those that
        # is free (at most m - 1 are taken) without raising the cost.
        keep = np.unique(np.argpartition(cost, m - 1, axis=1)[:, :m])
        cols = keep[_shortest_augmenting_paths(cost[:, keep])]
    total = float(cost[rows, cols].sum())
    if total == np.inf:  # a row of +inf only
        raise ValueError(_INFEASIBLE)
    return rows, cols, total


def _shortest_augmenting_paths(cost: np.ndarray) -> np.ndarray:
    """Each row's column in a minimum-cost assignment of ``cost`` (M <= N).

    The shortest augmenting path method for rectangular problems (D. F.
    Crouse, "On implementing 2D rectangular assignment algorithms", IEEE
    TAES 2016; Jonker and Volgenant 1987): rows join one at a time, each by
    a Dijkstra search over reduced costs from the new row to a free column,
    and each Dijkstra step is one pass over all columns.
    """
    m, n = cost.shape
    u, v = np.zeros(m), np.zeros(n)  # row and column duals
    col4row = np.full(m, -1)
    row4col = np.full(n, -1)
    for cur in range(m):
        dist = np.full(n, np.inf)  # shortest path cost to each column
        path = np.full(n, -1)  # the row before each column on its path
        done = np.zeros(n, dtype=bool)  # columns whose dist is final
        reached = [cur]
        i, low = cur, 0.0
        while True:
            reduced = low + cost[i] - u[i] - v
            better = (reduced < dist) & ~done
            dist[better] = reduced[better]
            path[better] = i
            open_dist = np.where(done, np.inf, dist)
            low = open_dist.min()
            if low == np.inf:
                raise ValueError(_INFEASIBLE)
            # on a tie a free column ends the search
            ties = np.flatnonzero(open_dist == low)
            free = ties[row4col[ties] < 0]
            j = free[0] if len(free) else ties[-1]
            done[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
            reached.append(i)
        u[cur] += low
        others = reached[1:]
        u[others] += low - dist[col4row[others]]
        v[done] -= low - dist[done]
        while True:  # flip the path's edges back to ``cur``
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def hungarian_cost(anchors, gts: GroundTruthSet,
                   iou_scale: float | None = None) -> np.ndarray:
    """Assignment cost: center distance minus scaled IoU, shape ``(M, N)``."""
    anchors, _ = _anchor_layout(anchors)
    if iou_scale is None:
        iou_scale = float(anchors.config.stride) \
            if isinstance(anchors, AnchorGrid) else 32.0
    return (_center_distances(gts.boxes, anchors)
            - iou_scale * pairwise_iou(gts.boxes, anchors))


def hungarian_match(anchors, gts: GroundTruthSet,
                    cfg: HungarianConfig = HungarianConfig()) -> MatchResult:
    """Optimal one-to-one GT-to-anchor assignment (Kuhn-Munkres)."""
    anchors, boxes = _anchor_layout(anchors)
    n = len(boxes)
    labels = np.full(n, NEGATIVE, dtype=np.int64)
    if len(gts) == 0:
        return MatchResult(labels, 0, matcher="hungarian")
    if len(gts) > n:
        raise ValueError(f"{len(gts)} ground truths exceed {n} anchors")
    rows, cols, _ = solve_assignment(hungarian_cost(anchors, gts))
    labels[cols] = rows
    return MatchResult(labels, len(gts), matcher="hungarian")
