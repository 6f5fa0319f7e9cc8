"""Label-assignment strategies for anchors on a single feature level.

Every matcher takes the :class:`AnchorGrid` of one feature level and
returns a :class:`MatchResult` whose ``labels`` array tags each anchor as
positive for one ground-truth box, negative, or ignored.
All matchers are pure and deterministic.

Each matcher but Hungarian takes its labels from one claims kernel over
a run of images that share a grid, keyed by (image, anchor).
``<name>_match`` writes them for one image, and :func:`run_positives`
counts each GT's positives over a run.  Hungarian matching solves one
image's full cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (AnchorGrid, _check_types, _grid_outer, as_boxes,
                       box_area, box_centers, iou_window, pairwise_iou)

NEGATIVE = -1
IGNORED = -2


@dataclass
class GroundTruthSet:
    """Ground-truth boxes; matching reads geometry alone, not classes.

    Every coordinate is finite and every box has positive area, so the
    matchers never see a NaN distance or IoU.
    """

    boxes: np.ndarray

    def __post_init__(self):
        self.boxes = as_boxes(self.boxes)
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


# matcher name -> parameter dataclass; ``<name>_match(grid, gts, cfg)``
MATCHERS = {"uniform": UniformMatchConfig, "topk": TopKConfig,
            "max_iou": MaxIoUConfig, "atss": ATSSConfig,
            "hungarian": HungarianConfig}


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


def nearest_candidates(grid: AnchorGrid, boxes: np.ndarray, k: int):
    """The k center-nearest anchors of each of the ``(M, 4)`` GT boxes,
    and their center distances: two ``(M, k)`` arrays.

    This is the pre-filter candidate set of uniform, top-k and ATSS
    matching.  Each row is ordered by distance; ties in distance break by
    ascending anchor index.  An image with fewer than k anchors gives every
    GT all of them, as ATSS takes ``min(k, anchors on the level)``.
    """
    k = min(k, len(grid))
    centers = box_centers(boxes)
    per = len(grid.slot_centers)
    if not grid.shared_centers:
        return _k_smallest(_grid_distances(centers, grid, per), k)
    # Every slot of a position has the same distance, and its anchors are
    # consecutive, so (distance, index) order over anchors is that order
    # over positions with each expanded into its slots.
    pos, dist = _nearest_positions(centers, grid, -(-k // per))
    return ((pos[:, :, None] * per + np.arange(per)).reshape(
        -1, pos.shape[1] * per)[:, :k], np.repeat(dist, per, axis=1)[:, :k])


def _nearest_positions(centers: np.ndarray, grid: AnchorGrid, k: int):
    """The k nearest positions of each center and their distances, each
    ``(M, k)``: what ``_k_smallest(_grid_distances(centers, grid, 1), k)``
    gives, bit for bit.

    Only a square of positions around each center's nearest row and
    column is scored, with the same float operations.  A position outside
    the square lies in a row or a column outside it, so its distance is at
    least that line's offset.  Where the square's k-th distance is below
    every outside line's offset, nothing outside ties or beats it; the
    other centers are scored on the full grid.
    """
    h, w = grid.grid_h, grid.grid_w
    side = 3 + 2 * (math.isqrt(k) // 2)
    sh, sw = min(side, h), min(side, w)
    if sh * sw < k or (sh, sw) == (h, w):
        return _k_smallest(_grid_distances(centers, grid, 1), k)
    # squared offsets of every column and row, as _grid_distances takes them
    dx = centers[:, :1] - grid.slot_centers[0, 0, :w]
    dx *= dx
    dy = centers[:, 1:] - grid.slot_centers[0, 1, :h]
    dy *= dy
    row0 = np.clip(dy.argmin(axis=1) - side // 2, 0, h - sh)[:, None]
    col0 = np.clip(dx.argmin(axis=1) - side // 2, 0, w - sw)[:, None]
    rows, cols = row0 + np.arange(sh), col0 + np.arange(sw)
    square = _grid_outer(np.take_along_axis(dx, cols, 1)[..., None],
                         np.take_along_axis(dy, rows, 1)[..., None])
    np.sqrt(square, out=square)
    near, dist = _k_smallest(square, k)  # row-major, as in the grid
    # the smallest offset of a line outside the square
    np.put_along_axis(dx, cols, np.inf, 1)
    np.put_along_axis(dy, rows, np.inf, 1)
    bound = np.sqrt(np.minimum(dx.min(axis=1), dy.min(axis=1)))
    pos = (row0 + near // sw) * w + col0 + near % sw
    full = np.flatnonzero(~(dist[:, -1] < bound))
    if len(full):
        pos[full], dist[full] = _k_smallest(
            _grid_distances(centers[full], grid, 1), k)
    return pos, dist


def _k_smallest(dist: np.ndarray, k: int):
    """Column indices of each row's k smallest values, ordered by (value,
    index), and those values: two ``(M, k)`` arrays."""
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    near = np.flatnonzero(dist <= kth)
    rows, cols = np.divmod(near, dist.shape[1])
    values = dist.ravel()[near]
    order = np.lexsort((cols, values, rows))
    at = np.searchsorted(rows, np.arange(len(dist)))[:, None] + np.arange(k)
    return cols[order][at], values[order][at]


def _resolve_claims(anchor: np.ndarray, gt: np.ndarray, cost: np.ndarray):
    """Settle the parallel claims ``(anchor[i], gt[i])`` of cost ``cost[i]``.

    Each claimed anchor goes to its least-cost claim, ties to the smaller
    GT index.  Returns the index of each winning claim, in ascending order
    of the claimed anchors.  Over a run of images ``anchor`` is the
    (image, anchor) key of :func:`_keys`.
    """
    order = np.lexsort((gt, cost, anchor))
    anchor = anchor[order]
    first = np.empty(len(order), dtype=bool)  # where each anchor's run starts
    first[:1] = True
    np.not_equal(anchor[1:], anchor[:-1], out=first[1:])
    return order[first]


def _first_minima(gt: np.ndarray, anchor: np.ndarray, cost: np.ndarray):
    """``_resolve_claims(gt, anchor, cost)`` where each GT's claims are
    consecutive, as the window kernels give them: the index of each GT's
    least-cost claim, ties to the smaller anchor, in GT order, found
    without a sort."""
    if len(gt) == 0:
        return gt
    starts = np.flatnonzero(np.diff(gt, prepend=gt[0] - 1))
    sizes = np.diff(starts, append=len(gt))
    hit = np.flatnonzero(cost == np.minimum.reduceat(cost, starts).repeat(
        sizes))
    starts = np.flatnonzero(np.diff(gt[hit], prepend=gt[0] - 1))
    sizes = np.diff(starts, append=len(hit))
    anchor = anchor[hit]
    return hit[anchor == np.minimum.reduceat(anchor, starts).repeat(sizes)]


def _keys(grid: AnchorGrid, image: np.ndarray, anchor: np.ndarray):
    """One key per (image, anchor) of a run of images on ``grid``; in a
    one-image call the key is the anchor."""
    return image * len(grid) + anchor


def _first_gts(image: np.ndarray) -> np.ndarray:
    """The index of each image's first GT in a run's ``image`` column."""
    return np.flatnonzero(np.diff(image, prepend=-1))


def run_positives(matcher: str, grid: AnchorGrid, boxes: np.ndarray,
                  image: np.ndarray, cfg) -> np.ndarray:
    """Each GT's positive count over a run of images on ``grid``, for any
    matcher of ``_CLAIMS`` (all but Hungarian).

    GT ``i`` has the box ``boxes[i]`` and lies in image ``image[i]``, a
    non-decreasing index from 0 in which every image has a GT.  The boxes
    are finite with positive area, as :class:`GroundTruthSet` checks.  The
    counts are each image's ``<matcher>_match(...).positives_per_gt`` in
    turn.
    """
    default, key, label = _CLAIMS[matcher](grid, boxes, image, cfg)
    counts = np.bincount(label[label >= 0], minlength=len(boxes))
    if default == 0:  # each image's unclaimed anchors go to its first GT
        first = _first_gts(image)
        counts[first] += len(grid) - np.bincount(key // len(grid),
                                                 minlength=len(first))
    return counts


def _labels(claims, grid: AnchorGrid, gts: GroundTruthSet,
            cfg) -> MatchResult:
    """One image's labels: the claims of the kernel ``claims`` written
    over its default label."""
    if len(gts) == 0:
        return MatchResult(np.full(len(grid), NEGATIVE, dtype=np.int64), 0)
    default, key, label = claims(grid, gts.boxes,
                                 np.zeros(len(gts), dtype=np.int64), cfg)
    labels = np.full(len(grid), default, dtype=np.int64)
    labels[key] = label
    return MatchResult(labels, len(gts))


def _uniform_claims(grid: AnchorGrid, boxes, image, cfg: UniformMatchConfig):
    """Uniform matching's claims over a run: each GT's k nearest anchors,
    each (image, anchor) to the closest claim (tie: smaller GT index),
    positive when its IoU reaches ``pos_ignore_iou`` and ignored
    otherwise."""
    cand, dist = nearest_candidates(grid, boxes, cfg.k)
    gt = np.repeat(np.arange(len(boxes)), cand.shape[1])
    cand = cand.ravel()
    key = _keys(grid, image[gt], cand)
    win = _resolve_claims(key, gt, dist.ravel())
    a, g = cand[win], gt[win]
    # only each resolved (GT, anchor) pair's IoU: (n, 4) against (n, 1, 4)
    pair_iou = pairwise_iou(boxes[g], grid.anchors[a, None],
                            grid.areas[a, None])[:, 0]
    return NEGATIVE, key[win], np.where(pair_iou >= cfg.pos_ignore_iou, g,
                                        IGNORED)


def uniform_match(grid: AnchorGrid, gts: GroundTruthSet,
                  cfg: UniformMatchConfig = UniformMatchConfig()) -> MatchResult:
    """k-nearest-anchor matching with IoU-based ignore filters.

    Each GT takes its k center-nearest anchors as candidates.  An anchor
    claimed by several GTs goes to the closest one (tie: smaller GT index).
    A resolved candidate with IoU below ``pos_ignore_iou`` for its GT is
    ignored rather than positive; a non-candidate whose best IoU over all
    GTs exceeds ``neg_ignore_iou`` is ignored rather than negative.
    """
    result = _labels(_uniform_claims, grid, gts, cfg)
    # no IoU exceeds 1, so 1 ignores nothing
    if len(gts) and cfg.neg_ignore_iou < 1.0:
        _, hot, ious = iou_window(gts.boxes, grid,
                                  np.full(len(gts), cfg.neg_ignore_iou))
        hot = hot[ious > cfg.neg_ignore_iou]
        result.labels[hot[result.labels[hot] == NEGATIVE]] = IGNORED
    return result


def _topk_claims(grid: AnchorGrid, boxes, image, cfg: TopKConfig):
    """Top-k matching is uniform matching with the ignore filters off."""
    return _uniform_claims(grid, boxes, image, UniformMatchConfig(
        k=cfg.k, pos_ignore_iou=0.0, neg_ignore_iou=1.0))


def topk_match(grid: AnchorGrid, gts: GroundTruthSet,
               cfg: TopKConfig = TopKConfig()) -> MatchResult:
    """Pure k-nearest matching: uniform matching with ignore filters off."""
    return _labels(_topk_claims, grid, gts, cfg)


def _max_iou_claims(grid: AnchorGrid, boxes, image, cfg: MaxIoUConfig):
    """max_iou's claims over a run.

    Each (image, anchor) with a best IoU of at least ``low`` is labelled
    for its best GT, the first on a tie: positive at ``pos_iou``, ignored
    below.  With ``rescue`` on, each GT's first best anchor, the higher IoU
    winning a contested one, is positive for it instead.
    """
    # Only pairs of positive IoU at or above ``low`` are scored.  An anchor
    # with none has every IoU below ``low``: negative, or with neg_iou at 0
    # ignored, or with pos_iou at 0 too positive for GT 0, its first best.
    low = cfg.neg_iou or cfg.pos_iou
    default = NEGATIVE if cfg.neg_iou else IGNORED if cfg.pos_iou else 0
    # Each GT's best IoU is at least its rescue floor, so a pair at the
    # floor or above holds it.
    thresh = np.minimum(_rescue_floor(grid, boxes), low) if cfg.rescue \
        else np.full(len(boxes), low)
    g, a, v = iou_window(boxes, grid, thresh)
    key = _keys(grid, image[g], a)

    # each anchor takes its best GT, the first on a tie
    cost = -v
    win = _resolve_claims(key, g, cost)
    win = win[v[win] >= low]
    claimed = key[win]
    label = np.where(v[win] >= cfg.pos_iou, g[win], IGNORED)
    if not cfg.rescue:
        return default, claimed, label
    # a GT of IoU 0 everywhere has anchor 0 of its image
    win = _first_minima(g, a, cost)
    best, best_iou = _keys(grid, image, 0), np.zeros(len(boxes))
    best[g[win]] += a[win]
    best_iou[g[win]] = v[win]
    win = _resolve_claims(best, np.arange(len(boxes)), -best_iou)
    rescued = best[win]
    # drop the labels a rescue overrides: np.isin by search, as the rescued
    # keys come sorted (in _resolve_claims' order); its own sort would load
    # numpy.ma
    found = rescued[np.searchsorted(rescued, claimed).clip(
        max=len(rescued) - 1)]
    kept = found != claimed
    return (default, np.concatenate([claimed[kept], rescued]),
            np.concatenate([label[kept], win]))


def max_iou_match(grid: AnchorGrid, gts: GroundTruthSet,
                  cfg: MaxIoUConfig = MaxIoUConfig()) -> MatchResult:
    """IoU-threshold matching.

    An anchor is positive for its argmax-IoU GT when that IoU reaches
    ``pos_iou``, negative below ``neg_iou``, ignored in between.  With
    ``rescue`` on, each GT's best-IoU anchor is forced positive for it
    even below the threshold.
    """
    return _labels(_max_iou_claims, grid, gts, cfg)


def _rescue_floor(grid: AnchorGrid, boxes: np.ndarray) -> np.ndarray:
    """A lower bound on each GT box's best IoU: its best IoU with the
    slots of the grid position whose stride-sized cell holds its center,
    clamped to the grid."""
    cell = (boxes[:, :2] + boxes[:, 2:]) * (0.5 / grid.config.stride)
    np.minimum(cell, (grid.grid_w - 1, grid.grid_h - 1), out=cell)
    cell = np.maximum(cell, 0.0, out=cell).astype(np.int64)
    per = len(grid.slot_lo)
    near = (cell[:, 1:] * grid.grid_w + cell[:, :1]) * per + np.arange(per)
    return pairwise_iou(boxes, grid.anchors[near], grid.areas[near]).max(
        axis=1)


def _atss_claims(grid: AnchorGrid, boxes, image, cfg: ATSSConfig):
    """ATSS's positive claims over a run of images."""
    cand, _ = nearest_candidates(grid, boxes, cfg.k)
    # only the candidates' IoUs, each row in (distance, index) order, so it
    # sums as a 1-D pool would
    cand_ious = pairwise_iou(boxes, grid.anchors[cand], grid.areas[cand])
    thresh = (cand_ious.mean(axis=1, keepdims=True)
              + cand_ious.std(axis=1, keepdims=True))  # population std
    cx, cy = np.moveaxis(box_centers(grid.anchors[cand]), -1, 0)
    x1, y1, x2, y2 = boxes.T[:, :, None]
    inside = (x1 < cx) & (cx < x2) & (y1 < cy) & (cy < y2)
    ok = (cand_ious >= thresh) & inside
    g = np.nonzero(ok)[0]
    key = _keys(grid, image[g], cand[ok])
    win = _resolve_claims(key, g, -cand_ious[ok])
    return NEGATIVE, key[win], g[win]


def atss_match(grid: AnchorGrid, gts: GroundTruthSet,
               cfg: ATSSConfig = ATSSConfig()) -> MatchResult:
    """Adaptive matching with a per-GT dynamic IoU threshold (single level).

    For each GT the k center-nearest anchors form the candidate pool; the
    threshold is the mean plus population standard deviation of their IoUs.
    Candidates at or above it whose center lies strictly inside the GT box
    become positive; conflicts go to the higher IoU (tie: smaller GT
    index).  There is no ignored class.
    """
    return _labels(_atss_claims, grid, gts, cfg)


_INFEASIBLE = "cost matrix is infeasible"


def solve_assignment(cost: np.ndarray):
    """Minimum-cost one-to-one assignment on an arbitrary cost matrix.

    As ``scipy.optimize.linear_sum_assignment`` does, it assigns every row
    or, with more rows than columns, every column, and returns ``(rows,
    cols, total_cost)`` with ``rows`` ascending and distinct partners.  A
    ``+inf`` entry forbids its pair; NaN or ``-inf`` entries, and a matrix
    that no assignment of finite cost fits, raise ``ValueError``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if not (cost > -np.inf).all():
        raise ValueError("matrix contains invalid numeric entries")
    tall = len(cost) > cost.shape[1]
    wide = cost.T if tall else cost  # no more rows than columns
    rows = np.arange(len(wide))
    # Each row paying its own minimum is a lower bound, so distinct row
    # argmins are an optimal assignment.
    cols = wide.argmin(axis=1) if len(rows) else rows
    if len(set(cols.tolist())) < len(rows):
        cols = _shortest_augmenting_paths(wide)
    if tall:
        order = np.argsort(cols)
        rows, cols = cols[order], rows[order]
    total = float(cost[rows, cols].sum())
    if total == np.inf:  # a row of ``wide`` is +inf only
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


def hungarian_cost(grid: AnchorGrid, boxes: np.ndarray) -> np.ndarray:
    """Assignment cost: center distance minus stride times IoU, shape
    ``(M, N)``, of the ``(M, 4)`` GT boxes."""
    cost = _grid_distances(box_centers(boxes), grid, len(grid.slot_centers))
    cost -= float(grid.config.stride) * pairwise_iou(boxes, grid.anchors,
                                                     grid.areas)
    return cost


def hungarian_match(grid: AnchorGrid, gts: GroundTruthSet,
                    cfg: HungarianConfig = HungarianConfig()) -> MatchResult:
    """Optimal one-to-one GT-to-anchor assignment (Kuhn-Munkres).

    With more GTs than anchors every anchor goes positive for a distinct
    GT, as a rectangular assignment does, and the other GTs get no
    positive.  A cost that overflows to ``+inf`` forbids its pair, so a
    GT whose every cost overflows raises ``ValueError``.
    """
    labels = np.full(len(grid), NEGATIVE, dtype=np.int64)
    gt, anchor, _ = solve_assignment(hungarian_cost(grid, gts.boxes))
    labels[anchor] = gt
    return MatchResult(labels, len(gts))


# matcher name -> its claims kernel, ``(grid, boxes, image, cfg) ->
# (default, key, label)`` over a run of images as run_positives takes them.
# Each (image, anchor) key of :func:`_keys` appears at most once, and its
# label is a GT index of the run or ``IGNORED``; every other anchor of the
# run's images has the label ``default``.
_CLAIMS = {"uniform": _uniform_claims, "topk": _topk_claims,
           "max_iou": _max_iou_claims, "atss": _atss_claims}
