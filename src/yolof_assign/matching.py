"""Label-assignment strategies for anchors on a single feature level.

Every matcher returns a :class:`MatchResult` whose ``labels`` array tags
each anchor as positive for one ground-truth box, negative, or ignored.
All matchers are pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import (AnchorGrid, _anchor_layout, _grid_outer, as_boxes,
                       box_area, box_centers, distance_window, iou_window,
                       pairwise_iou)

NEGATIVE = -1
IGNORED = -2


@dataclass
class GroundTruthSet:
    """Ground-truth boxes with parallel class ids.

    Every coordinate is finite and every box has positive area, so the
    matchers never see a NaN distance or IoU.
    """

    boxes: np.ndarray
    class_ids: np.ndarray

    def __post_init__(self):
        self.boxes = as_boxes(self.boxes)
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64).reshape(-1)
        if len(self.class_ids) != len(self.boxes):
            raise ValueError("boxes and class_ids must have equal length")
        if np.any(self.class_ids < 0):
            raise ValueError("class ids must be non-negative")
        if not np.isfinite(self.boxes).all():
            raise ValueError("every ground-truth coordinate must be finite")
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
        return _grid_distances(gc, anchors, len(anchors.slot_centers))
    ac = box_centers(anchors)
    dist = gc[:, None, 0] - ac[..., 0]
    dist *= dist
    dy = gc[:, None, 1] - ac[..., 1]
    dy *= dy
    dist += dy
    return np.sqrt(dist, out=dist)


def _grid_distances(gc: np.ndarray, grid: AnchorGrid, slots: int):
    """Distances from centers ``gc`` ``(M, 2)`` to the anchors of the first
    ``slots`` slots of every position of ``grid``, as ``(M, H*W*slots)``:
    squared x offsets per column, squared y offsets per row, then one add
    per anchor and one sqrt."""
    # contiguous (W, slots) and (H, slots) centers: offsets taken from a
    # transposed view come out in an order the later passes walk slowly
    xc = grid.slot_centers[:slots, 0, :grid.grid_w].T.copy()
    yc = grid.slot_centers[:slots, 1, :grid.grid_h].T.copy()
    dx = gc[:, None, None, 0] - xc
    dx *= dx
    dy = gc[:, None, None, 1] - yc
    dy *= dy
    dist = _grid_outer(dx, dy)
    return np.sqrt(dist, out=dist)


def nearest_candidates(anchors, gts: GroundTruthSet, k: int) -> np.ndarray:
    """The k center-nearest anchors of each GT, shape ``(M, k)``.

    This is the pre-filter candidate set of uniform, top-k and ATSS
    matching.  Each row is ordered by distance; ties in distance break by
    ascending anchor index.  An image with fewer than k anchors gives
    every GT all of them, as ATSS takes ``min(k, anchors on the level)``.
    """
    anchors, boxes = _anchor_layout(anchors)
    k = min(k, len(boxes))
    if len(gts) == 0:
        return np.empty((0, k), dtype=np.int64)
    if isinstance(anchors, AnchorGrid) and anchors.shared_centers:
        # Every slot of a position has the same distance, and its anchors
        # are consecutive, so (distance, index) order over anchors is that
        # order over positions with each expanded into its slots.
        per = anchors.config.anchors_per_position
        pos = _k_smallest(_grid_distances(box_centers(gts.boxes), anchors, 1),
                          -(-k // per))
        return (pos[:, :, None] * per + np.arange(per)).reshape(
            len(gts), -1)[:, :k]
    return _k_smallest(_center_distances(gts.boxes, anchors), k)


def _k_smallest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest values, ``(M, k)``, ordered
    by (value, index)."""
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    near = np.flatnonzero(dist <= kth)
    rows, cols = np.divmod(near, dist.shape[1])
    order = np.lexsort((cols, dist.ravel()[near], rows))
    starts = np.searchsorted(rows, np.arange(len(dist)))
    return cols[order][starts[:, None] + np.arange(k)]


def _resolve_claims(anchor: np.ndarray, gt: np.ndarray, cost: np.ndarray):
    """Settle the parallel claims ``(anchor[i], gt[i])`` of cost ``cost[i]``.

    Each claimed anchor goes to its least-cost claim, ties to the smaller
    GT index.  Returns the index of each winning claim, in ascending order
    of the claimed anchors.
    """
    order = np.lexsort((gt, cost, anchor))
    anchor = anchor[order]
    first = np.empty(len(order), dtype=bool)  # where each anchor's run starts
    first[:1] = True
    np.not_equal(anchor[1:], anchor[:-1], out=first[1:])
    return order[first]


def _iou_pairs(anchors, gts: GroundTruthSet, thresh: np.ndarray):
    """``(gt, anchor, iou)`` of every pair whose IoU is positive and at
    least ``thresh[gt]``: the window of a grid, or the pairs of the full
    matrix of ``(N, 4)`` anchors."""
    if isinstance(anchors, AnchorGrid):
        return iou_window(gts.boxes, anchors, thresh)
    ious = pairwise_iou(gts.boxes, anchors)
    gt, anchor = np.nonzero((ious > 0) & (ious >= thresh[:, None]))
    return gt, anchor, ious[gt, anchor]


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
        return MatchResult(labels, 0)

    gt = np.repeat(np.arange(len(gts)), cand.shape[1])
    win = _resolve_claims(cand.ravel(), gt,
                          _center_distances(gts.boxes, boxes[cand]).ravel())
    a, g = cand.ravel()[win], gt[win]

    if cfg.neg_ignore_iou < 1.0:  # no IoU exceeds 1, so 1 ignores nothing
        # the resolved candidates among them are labelled below
        _, hot, ious = _iou_pairs(anchors, gts,
                                  np.full(len(gts), cfg.neg_ignore_iou))
        labels[hot[ious > cfg.neg_ignore_iou]] = IGNORED
    # only each resolved (GT, anchor) pair's IoU: (n, 4) against (n, 1, 4)
    pair_iou = pairwise_iou(gts.boxes[g], boxes[a, None])[:, 0]
    labels[a] = np.where(pair_iou >= cfg.pos_ignore_iou, g, IGNORED)
    return MatchResult(labels, len(gts))


def topk_match(anchors, gts: GroundTruthSet,
               cfg: TopKConfig = TopKConfig()) -> MatchResult:
    """Pure k-nearest matching: uniform matching with ignore filters off."""
    return uniform_match(anchors, gts, UniformMatchConfig(
        k=cfg.k, pos_ignore_iou=0.0, neg_ignore_iou=1.0))


def max_iou_match(anchors, gts: GroundTruthSet,
                  cfg: MaxIoUConfig = MaxIoUConfig()) -> MatchResult:
    """IoU-threshold matching.

    An anchor is positive for its argmax-IoU GT when that IoU reaches
    ``pos_iou``, negative below ``neg_iou``, ignored in between.  With
    ``rescue`` on, each GT's best-IoU anchor is forced positive for it
    even below the threshold.
    """
    anchors, boxes = _anchor_layout(anchors)
    m = len(gts)
    if m == 0:
        return MatchResult(np.full(len(boxes), NEGATIVE, dtype=np.int64), 0)
    # Only pairs of positive IoU at or above ``low`` are scored.  An anchor
    # with none has every IoU below ``low``: negative, or with neg_iou at 0
    # ignored, or with pos_iou at 0 too positive for GT 0, its first best.
    low = cfg.neg_iou or cfg.pos_iou
    default = NEGATIVE if cfg.neg_iou else IGNORED if cfg.pos_iou else 0
    labels = np.full(len(boxes), default, dtype=np.int64)
    # Each GT's best IoU is at least its rescue floor, so a pair at the
    # floor or above holds it.
    thresh = np.minimum(_rescue_floor(anchors, gts), low) if cfg.rescue \
        else np.full(m, low)
    g, a, v = _iou_pairs(anchors, gts, thresh)

    # each anchor takes its best GT, the first on a tie
    cost = -v
    win = _resolve_claims(a, g, cost)
    win = win[v[win] >= low]
    labels[a[win]] = np.where(v[win] >= cfg.pos_iou, g[win], IGNORED)

    if cfg.rescue:
        # force each GT's first best anchor, the higher IoU winning a
        # contested one; a GT of IoU 0 everywhere has anchor 0
        win = _resolve_claims(g, a, cost)
        best, best_iou = np.zeros(m, dtype=np.int64), np.zeros(m)
        best[g[win]], best_iou[g[win]] = a[win], v[win]
        win = _resolve_claims(best, np.arange(m), -best_iou)
        labels[best[win]] = win
    return MatchResult(labels, m)


def _rescue_floor(grid, gts: GroundTruthSet) -> np.ndarray:
    """A lower bound on each GT's best IoU: its best IoU with the slots of
    the grid position that holds its center, clamped to the grid, or 0 off
    a grid.  Each IoU is the float :func:`pairwise_iou` gives."""
    if not isinstance(grid, AnchorGrid):
        return np.zeros(len(gts))
    boxes = gts.boxes
    cell = (boxes[:, :2] + boxes[:, 2:]) * (0.5 / grid.config.stride)
    np.minimum(cell, (grid.grid_w - 1, grid.grid_h - 1), out=cell)
    cell = np.maximum(cell, 0.0, out=cell).T.astype(np.int64)  # (2, M)
    axis = np.arange(2)[:, None]  # each slot's x, then y, spans: (A, 2, M)
    span = np.minimum(boxes[:, 2:].T, grid.slot_hi[:, axis, cell])
    span -= np.maximum(boxes[:, :2].T, grid.slot_lo[:, axis, cell])
    np.maximum(span, 0.0, out=span)
    inter = span[:, 0] * span[:, 1]
    union = box_area(boxes) + grid.areas.reshape(
        -1, len(grid.slot_lo))[cell[1] * grid.grid_w + cell[0]].T
    union -= inter
    return (inter / union).max(axis=0)


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
        return MatchResult(labels, 0)

    # only the candidates' IoUs, each row in (distance, index) order, so it
    # sums as a 1-D pool would
    cand_ious = pairwise_iou(gts.boxes, boxes[cand])
    thresh = (cand_ious.mean(axis=1, keepdims=True)
              + cand_ious.std(axis=1, keepdims=True))  # population std
    cx, cy = np.moveaxis(box_centers(boxes[cand]), -1, 0)
    x1, y1, x2, y2 = gts.boxes.T[:, :, None]
    inside = (x1 < cx) & (cx < x2) & (y1 < cy) & (cy < y2)
    ok = (cand_ious >= thresh) & inside
    a, g = cand[ok], np.nonzero(ok)[0]
    win = _resolve_claims(a, g, -cand_ious[ok])
    labels[a[win]] = g[win]
    return MatchResult(labels, len(gts))


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
        # is free (at most m - 1 are taken) without raising the cost.  The
        # cut keeps every column tied with a row's m-th cheapest, so it
        # depends on the cost values alone.
        kth = np.partition(cost, m - 1, axis=1)[:, m - 1:m]
        keep = np.flatnonzero((cost <= kth).any(axis=0))
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
    """Optimal one-to-one GT-to-anchor assignment (Kuhn-Munkres).

    With more GTs than anchors the transposed cost is solved instead, as
    a rectangular assignment does: every anchor goes positive for a
    distinct GT, and the other GTs get no positive.
    """
    anchors, boxes = _anchor_layout(anchors)
    labels = np.full(len(boxes), NEGATIVE, dtype=np.int64)
    if len(gts) == 0:
        return MatchResult(labels, 0)
    if isinstance(anchors, AnchorGrid):
        # Each GT's cheapest anchor lies in its nearest window.  Distinct
        # ones are the assignment, as each row paying its own minimum is a
        # lower bound; else the solver cuts the full cost.
        gt, anchor, cost = _hungarian_window(anchors, gts)
        win = _resolve_claims(gt, anchor, cost)  # each GT's first argmin
        anchor, gt = anchor[win], gt[win]
        labels[anchor] = gt
        if (labels[anchor] == gt).all():  # no GT overwritten
            return MatchResult(labels, len(gts))
        labels[anchor] = NEGATIVE
    cost = hungarian_cost(anchors, gts)
    if len(gts) > len(boxes):
        anchor, gt, _ = solve_assignment(cost.T)
    else:
        gt, anchor, _ = solve_assignment(cost)
    labels[anchor] = gt
    return MatchResult(labels, len(gts))


def _hungarian_window(grid: AnchorGrid, gts: GroundTruthSet):
    """``(gt, anchor, cost)`` of every pair whose center distance ``d`` has
    ``d - stride`` at most the GT's nearest distance: a cost lies in
    ``[d - stride, d]``, so these hold each GT's cheapest anchors.  Each
    cost is the float :func:`hungarian_cost` gives.
    """
    stride = float(grid.config.stride)
    gt, anchor, dist = distance_window(box_centers(gts.boxes), grid, stride)
    return gt, anchor, dist - stride * pairwise_iou(
        gts.boxes[gt], grid.anchors[anchor, None])[:, 0]
