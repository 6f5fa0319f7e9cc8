"""Corpus-wide matching against the one-image matchers it replaces.

``match-stats`` matches each run of same-shape images with one
``matching.run_positives`` call, which counts the claims of the matcher's
kernel; for Hungarian it solves only the images of more GTs than
anchors, with no ``run_positives`` call.  ``nearest_candidates`` scores a
small square of positions before the full grid.  All must give what the
per-image, full-grid code gives, bit for bit.
"""

import math
import sys

import numpy as np
import pytest

import test_io_cli
from conftest import mixed_size_corpus, seeded_corpus
from oracles import _center_distance
from test_grid_kernels import assert_same_floats
from yolof_assign import coco, matching
from yolof_assign.balance import distribution
from yolof_assign.coco import (CorpusError, RunConfig, parse_corpus,
                               run_match_stats)
from yolof_assign.geometry import (AnchorConfig, AnchorGrid, ImageSize,
                                   box_centers, generate_anchors)
from yolof_assign.matching import (IGNORED, MATCHERS, NEGATIVE,
                                   _grid_distances, _k_smallest,
                                   nearest_candidates)
from yolof_assign.reports import distribution_to_csv, distribution_to_json

SLOTS45 = AnchorConfig(scale_multipliers=(1.0, 2 ** (1 / 3), 2 ** (2 / 3)),
                       aspect_ratios=(0.5, 1.0, 2.0))
KS = [1, 4, 5, 9, 15, 40]


def full_nearest(grid, boxes, k):
    """The k nearest anchors and their distances, scored on the full
    grid."""
    k = min(k, len(grid))
    return _k_smallest(_grid_distances(box_centers(boxes), grid,
                                       len(grid.slot_centers)), k)


def assert_same_nearest(got, want):
    """Equal candidates, and distances equal bit for bit."""
    assert got[0].tolist() == want[0].tolist()
    assert_same_floats(got[1], want[1])


def centers_to_boxes(centers, rng):
    half = rng.uniform(0.5, 40.0, (len(centers), 2))
    return np.concatenate([centers - half, centers + half], axis=1)


def probe_centers(grid, rng):
    """Centers on cell lines and midpoints (ties), at the grid's edges and
    corners, outside it, and at random."""
    xs = np.unique(grid.slot_centers[0, 0, :grid.grid_w])
    ys = np.unique(grid.slot_centers[0, 1, :grid.grid_h])
    step = grid.config.stride / 2
    lines_x = np.concatenate([xs, xs + step, xs[:1] - 3 * step,
                              xs[-1:] + 3 * step])
    lines_y = np.concatenate([ys, ys + step, ys[:1] - 3 * step,
                              ys[-1:] + 3 * step])
    grid_pts = np.stack(np.meshgrid(lines_x, lines_y), -1).reshape(-1, 2)
    lo = np.array([xs[0], ys[0]]) - 2 * step
    hi = np.array([xs[-1], ys[-1]]) + 2 * step
    return np.concatenate([grid_pts, rng.uniform(lo, hi, (60, 2))])


# (name, image size): shared-center grids, and one whose slots do not
# share centers
LAYOUTS = [("default", ImageSize(320, 256)), ("default", ImageSize(1280, 800)),
           ("stride16", ImageSize(200, 136)), ("one-row", ImageSize(640, 32)),
           ("tiny", ImageSize(20, 20)), ("translated", ImageSize(64, 64)),
           ("slots45", ImageSize(320, 256))]


def layout_grid(layout):
    name, size = layout
    config = {"stride16": AnchorConfig(stride=16, sizes=(24.0, 48.0, 96.0)),
              "slots45": SLOTS45}.get(name, AnchorConfig())
    grid = generate_anchors(config, size)
    if name == "translated":
        grid = AnchorGrid(grid.config, 2, 2, grid.anchors + 13.5)
    return grid


def layout_id(layout):
    return f"{layout[0]}-{layout[1].width}x{layout[1].height}"


class TestWindowedNearest:
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("layout", LAYOUTS[:-1], ids=layout_id)
    def test_equals_the_full_grid(self, layout, k):
        grid = layout_grid(layout)
        assert grid.shared_centers
        rng = np.random.default_rng(k)
        boxes = centers_to_boxes(probe_centers(grid, rng), rng)
        assert_same_nearest(nearest_candidates(grid, boxes, k),
                            full_nearest(grid, boxes, k))

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("layout", LAYOUTS, ids=layout_id)
    def test_distances_equal_the_scalar_oracle(self, monkeypatch, layout, k):
        # every distance is the scalar oracle's float for its candidate:
        # from the square, and from the full grid, where a row falls back
        # to it or the slots do not share centers
        grid = layout_grid(layout)
        rng = np.random.default_rng(k)
        boxes = centers_to_boxes(probe_centers(grid, rng), rng)
        scored = []
        real = matching._grid_distances

        def recording(gc, grid, slots):
            scored.append(len(gc))
            return real(gc, grid, slots)

        monkeypatch.setattr(matching, "_grid_distances", recording)
        cand, dist = nearest_candidates(grid, boxes, k)
        assert scored  # some rows, or all, scored on the full grid
        anchors = grid.anchors.tolist()
        assert_same_floats(dist, np.array([
            [_center_distance(box, anchors[a]) for a in row]
            for box, row in zip(boxes.tolist(), cand.tolist())]))

    def test_unproven_centers_take_the_full_row(self, monkeypatch):
        # one row of 20 cells: a center on a cell line ties its 2nd and
        # 3rd nearest positions with the first one outside the 1x3 square
        grid = generate_anchors(AnchorConfig(), ImageSize(640, 32))
        centers = np.array([[320.0, 16.0], [336.0, 16.0], [330.0, 16.0]])
        boxes = centers_to_boxes(centers, np.random.default_rng(0))
        scored = []
        real = matching._grid_distances

        def recording(gc, grid, slots):
            scored.append(len(gc))
            return real(gc, grid, slots)

        monkeypatch.setattr(matching, "_grid_distances", recording)
        got = nearest_candidates(grid, boxes, 15)
        assert scored == [1]  # only the center on the line
        assert_same_nearest(got, full_nearest(grid, boxes, 15))

    def test_slots_without_shared_centers_keep_the_full_path(self,
                                                             monkeypatch):
        grid = generate_anchors(SLOTS45, ImageSize(320, 256))
        assert not grid.shared_centers
        rng = np.random.default_rng(3)
        boxes = centers_to_boxes(probe_centers(grid, rng), rng)
        scored = []
        real = matching._grid_distances

        def recording(gc, grid, slots):
            scored.append((len(gc), slots))
            return real(gc, grid, slots)

        monkeypatch.setattr(matching, "_grid_distances", recording)
        for k in KS:
            assert_same_nearest(nearest_candidates(grid, boxes, k),
                                full_nearest(grid, boxes, k))
        assert scored == [(len(boxes), 45)] * len(KS)


# (matcher, parameters): the defaults, and the settings that reach other
# branches: uniform's ignore filters, max_iou's default labels of
# ignored and positive, and ATSS with more candidates than a tiny grid has
CONFIGS = [
    ("uniform", {}),
    ("uniform", {"k": 9, "pos_ignore_iou": 0.3, "neg_ignore_iou": 0.5}),
    ("topk", {}), ("topk", {"k": 1}),
    ("max_iou", {}), ("max_iou", {"rescue": False}),
    ("max_iou", {"pos_iou": 0.3, "neg_iou": 0.0}),
    ("max_iou", {"pos_iou": 0.0, "neg_iou": 0.0}),
    ("max_iou", {"pos_iou": 0.0, "neg_iou": 0.0, "rescue": False}),
    ("atss", {}), ("atss", {"k": 40}),
    ("hungarian", {}),
]
DOCS = {"seeded": seeded_corpus(),
        "odd-image": test_io_cli.ODD_IMAGE_DOC,
        "over-full": test_io_cli.OVER_FULL_DOC}


# (axis, sign) of the side of the image on which edge_doc's far boxes lie
EDGES = {"-x": (0, -1), "+x": (0, 1), "-y": (1, -1), "+y": (1, 1)}


def edge_doc(c: float, edge: str = "-x") -> dict:
    """A 64x64 image of one box and, twice, a far box on the side ``edge``
    of the image, whose center lies near ``sign * c`` on that axis and near
    15 on the other.  Across the axis the far box spans 5 to 25; along it,
    it runs from -2c to one ulp past 0, or from 63 to about 2c."""
    axis, sign = EDGES[edge]
    if sign < 0:
        lo, extent = -2 * c, 2 * c + math.ulp(2 * c)
    else:
        lo, extent = 63, 2 * c - 63
    far = [lo, 5, extent, 20] if axis == 0 else [5, lo, 20, extent]
    boxes = [[5, 5, 20, 20]] + [far] * 2
    return {"images": [{"id": 1, "width": 64, "height": 64}],
            "annotations": [{"id": i, "image_id": 1, "bbox": box,
                             "category_id": 1}
                            for i, box in enumerate(boxes)],
            "categories": [{"id": 1}]}


def reader_edge(edge: str = "-x") -> float:
    """The largest ``c`` of :func:`edge_doc` whose boxes the reader takes:
    the squares of its center sum to a finite float."""
    c = math.sqrt(sys.float_info.max) * (1 + 1e-15)
    while True:
        try:
            parse_corpus(edge_doc(c, edge))
            return c
        except CorpusError as exc:
            assert "overflows float64" in str(exc)
            c = math.nextafter(c, 0)


def far_box(dx: int, dy: int) -> np.ndarray:
    """A box of side 2 whose center lies on the ray ``(dx, dy)`` as far out
    as the reader takes: its center's squares sum to a finite float, and
    one ulp further out they overflow."""
    start = r = math.sqrt(sys.float_info.max / (dx * dx + dy * dy)) \
        * (1 + 1e-15)
    with np.errstate(over="ignore"):
        while True:
            center = np.array([dx * r, dy * r])
            box = np.concatenate([center - 1, center + 1])
            cx, cy = box_centers(box[None])[0]
            if np.isfinite(cx * cx + cy * cy):
                assert r < start  # the ulp further out overflowed
                return box
            r = math.nextafter(r, 0)


def per_image_positives(corpus, config):
    """Each image's ``<matcher>_match`` counts, concatenated."""
    match = getattr(matching, f"{config.matcher}_match")
    return np.concatenate([np.empty(0, np.int64)] + [
        match(generate_anchors(config.anchors, ImageSize(*size)),
              corpus.ground_truths(image_id),
              config.matcher_config).positives_per_gt
        for image_id, size in zip(corpus.image_ids.tolist(),
                                  corpus.sizes.tolist())]).tolist()


class TestRunPositives:
    @pytest.mark.parametrize("block", [1, 7, None])
    @pytest.mark.parametrize("shift", [0, 32])
    @pytest.mark.parametrize("doc", sorted(DOCS))
    @pytest.mark.parametrize("matcher,params", CONFIGS)
    def test_equals_the_per_image_matchers(self, monkeypatch, matcher,
                                           params, doc, shift, block):
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "1")
        if block is not None:
            monkeypatch.setattr(coco, "_BLOCK", block)
        corpus = parse_corpus(DOCS[doc])
        config = RunConfig(matcher=matcher, matcher_params=params,
                           shift_max=shift, seed=7)
        calls = []  # (GTs, images) of each kernel call
        real = matching.run_positives

        def recording(name, grid, boxes, image, cfg):
            calls.append((len(boxes), int(image[-1]) + 1))
            return real(name, grid, boxes, image, cfg)

        monkeypatch.setattr(matching, "run_positives", recording)
        dist = run_match_stats(corpus, config)
        if shift:
            corpus = corpus.shifted(shift, 7)
        assert dist.per_gt_counts[:, 1].tolist() \
            == per_image_positives(corpus, config)
        if matcher == "hungarian":  # counted without a claims kernel
            assert calls == []
            return
        # memory guard: a call holds at most _BLOCK GTs, or one image
        assert all(gts <= coco._BLOCK or images == 1
                   for gts, images in calls)
        assert sum(gts for gts, _ in calls) == dist.total_gts
        if block == 1:
            assert all(images == 1 for _, images in calls)
        if block is None:  # one call per feature-map shape
            shapes = {(-(-w // 32), -(-h // 32)) for i, (w, h)
                      in enumerate(corpus.sizes.tolist())
                      if corpus.offsets[i + 1] > corpus.offsets[i]}
            assert len(calls) == len(shapes)

    @pytest.mark.parametrize("doc,want", [
        ("odd-image", [(6, 5)]),  # image 6: 6 GTs on 5 anchors
        ("over-full", [(21, 20)]),  # not image 1, whose argmins collide
        ("seeded", [])])
    def test_only_images_of_more_gts_than_anchors_are_solved(
            self, monkeypatch, doc, want):
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "1")
        solved = []
        real = matching.solve_assignment

        def recording(cost):
            solved.append(cost.shape)
            return real(cost)

        monkeypatch.setattr(matching, "solve_assignment", recording)
        corpus = parse_corpus(DOCS[doc])
        run_match_stats(corpus, RunConfig(matcher="hungarian"))
        assert solved == want  # each solved once

    @pytest.mark.parametrize("edge", sorted(EDGES))
    @pytest.mark.parametrize("matcher,params", CONFIGS)
    def test_reader_edge_boxes_at_the_largest_stride(self, monkeypatch,
                                                     matcher, params, edge):
        # boxes at the reader's center limit on each side of the image,
        # far from the one anchor position, near 2**427: every distance is
        # finite (an overflow warning fails the test), so Hungarian still
        # gives each of the two equal GTs, whose argmins collide, one
        # positive
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "1")
        c = reader_edge(edge)
        with pytest.raises(CorpusError, match="overflows float64"):
            parse_corpus(edge_doc(math.nextafter(c, math.inf), edge))
        corpus = parse_corpus(edge_doc(c, edge))
        config = RunConfig(matcher=matcher, matcher_params=params,
                           anchors=AnchorConfig(stride=2 ** 428 - 1))
        assert run_match_stats(corpus, config).per_gt_counts[:, 1].tolist() \
            == per_image_positives(corpus, config)

    # (stride, image side): the largest stride on the largest and a small
    # image, one cell of a huge stride, four cells of an int64 side, and
    # the default stride
    @pytest.mark.parametrize("stride,side", [
        (2 ** 428 - 1, 2 ** 63 - 1), (2 ** 428 - 1, 64), (2 ** 300, 1),
        (2 ** 61, 2 ** 63 - 1), (32, 64)])
    @pytest.mark.parametrize("dx,dy", [(dx, dy) for dx in (-1, 0, 1)
                                       for dy in (-1, 0, 1) if dx or dy])
    def test_far_centers_keep_finite_distances(self, stride, side, dx, dy):
        # below 2**428 no anchor center moves a center the reader takes,
        # on one axis or on both, far enough to square its distance to
        # inf (an overflow warning fails the test): every matcher's
        # distances and Hungarian's costs are finite
        grid = generate_anchors(AnchorConfig(stride=stride),
                                ImageSize(side, side))
        boxes = far_box(dx, dy)[None]
        assert np.isfinite(_grid_distances(
            box_centers(boxes), grid, len(grid.slot_centers))).all()
        assert np.isfinite(matching.hungarian_cost(grid, boxes)).all()

    def test_error_names_the_first_image_by_id(self, monkeypatch):
        # images 2 and 3 hold more GTs than anchors, so both are solved;
        # image 3 shares image 1's size, so its run is matched first
        box = [0, 0, 20, 20]
        doc = {"images": [{"id": 1, "width": 64, "height": 64},
                          {"id": 2, "width": 20, "height": 20},
                          {"id": 3, "width": 64, "height": 64}],
               "annotations": [{"id": i, "image_id": image, "bbox": box,
                                "category_id": 1}
                               for i, image in enumerate(
                                   [1] + [2] * 6 + [3] * 21)],
               "categories": [{"id": 1}]}

        def failing(cost):  # one row per GT
            raise ValueError(f"no assignment for {len(cost)}")

        monkeypatch.setattr(matching, "solve_assignment", failing)
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "1")
        with pytest.raises(ValueError, match=r"^image 2: no assignment "
                                             r"for 6$"):
            run_match_stats(parse_corpus(doc), RunConfig(matcher="hungarian"))


MIXED = mixed_size_corpus()


class TestGridsByShape:
    """Images of one feature-map shape share one grid and one kernel run:
    on a corpus of many sizes, ``run_match_stats`` builds one grid per
    shape, and its reports equal, byte for byte, those of the per-image
    matchers on each image's own grid."""

    @pytest.mark.parametrize("shift", [0, 32])
    @pytest.mark.parametrize("matcher,params", CONFIGS)
    def test_reports_equal_a_per_image_loop(self, monkeypatch, matcher,
                                            params, shift):
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "1")
        corpus = parse_corpus(MIXED)
        config = RunConfig(matcher=matcher, matcher_params=params,
                           shift_max=shift, seed=7)
        built, real = [], coco.generate_anchors

        def spy(anchors, size):
            built.append(real(anchors, size))
            return built[-1]

        monkeypatch.setattr(coco, "generate_anchors", spy)
        got = run_match_stats(corpus, config)
        shapes = {(-(-w // 32), -(-h // 32))
                  for w, h in corpus.sizes.tolist()}
        assert len(shapes) < len(np.unique(corpus.sizes, axis=0))
        assert sorted((g.grid_w, g.grid_h) for g in built) == sorted(shapes)

        if shift:
            corpus = corpus.shifted(shift, 7)
        match = getattr(matching, f"{matcher}_match")
        per_image, counts = [], [np.empty(0, np.int64)]
        for image_id, size in zip(corpus.image_ids.tolist(),
                                  corpus.sizes.tolist()):
            grid = real(config.anchors, ImageSize(*size))
            gts = corpus.ground_truths(image_id)
            per_image.append((image_id, len(grid), len(gts)))
            counts.append(match(grid, gts, config.matcher_config)
                          .positives_per_gt)
        want = distribution(per_image, corpus.boxes, np.concatenate(counts),
                            matcher)
        assert distribution_to_json(got) == distribution_to_json(want)
        assert distribution_to_csv(got) == distribution_to_csv(want)


@pytest.mark.parametrize("anchors", [AnchorConfig(), SLOTS45],
                         ids=["5-slot", "45-slot"])
@pytest.mark.parametrize("doc", sorted(DOCS))
@pytest.mark.parametrize("matcher,params", [
    (matcher, params) for matcher, params in CONFIGS
    if matcher in matching._CLAIMS])
def test_claims_write_each_images_labels(matcher, params, doc, anchors):
    """Each size's images as one run: its claims hold unique keys and run
    GT labels, and written over the default they give each image's
    ``<matcher>_match`` labels, but for uniform's ``neg_ignore_iou`` band,
    which only the one-image call reports."""
    cfg = MATCHERS[matcher](**params)
    match = getattr(matching, f"{matcher}_match")
    corpus = parse_corpus(DOCS[doc]).shifted(32, 7)
    by_size = {}
    for i, size in enumerate(corpus.sizes.tolist()):
        if corpus.offsets[i + 1] > corpus.offsets[i]:
            by_size.setdefault(ImageSize(*size), []).append(i)
    for size, members in by_size.items():
        grid = generate_anchors(anchors, size)
        n = np.diff(corpus.offsets)[members]
        first = np.cumsum(n) - n  # each image's first run GT
        rows = np.concatenate([np.arange(corpus.offsets[i],
                                         corpus.offsets[i + 1])
                               for i in members])
        default, key, label = matching._CLAIMS[matcher](
            grid, corpus.boxes[rows], np.repeat(np.arange(len(members)), n),
            cfg)
        assert len(np.unique(key)) == len(key)
        assert ((0 <= key) & (key < len(members) * len(grid))).all()
        assert ((label == IGNORED)
                | ((0 <= label) & (label < len(rows)))).all()
        # default 0 is each image's first GT
        labels = np.full((len(members), len(grid)), default, dtype=np.int64)
        if default == 0:
            labels[:] = first[:, None]
        labels.reshape(-1)[key] = label
        for j, i in enumerate(members):
            got = np.where(labels[j] >= 0, labels[j] - first[j], labels[j])
            want = match(grid, corpus.ground_truths(corpus.image_ids[i]),
                         cfg).labels
            outside = ~((got == NEGATIVE) & (want == IGNORED)) \
                if matcher == "uniform" else slice(None)
            assert got[outside].tolist() == want[outside].tolist()


@pytest.mark.parametrize("seed", range(20))
def test_first_minima_equals_the_claim_resolver(seed):
    # GT-grouped claims of few distinct costs, so minima tie
    rng = np.random.default_rng(seed)
    gt = np.sort(rng.integers(0, 12, int(rng.integers(0, 80))))
    anchor = rng.permutation(200)[:len(gt)]
    cost = rng.integers(-3, 3, len(gt)).astype(float)
    assert matching._first_minima(gt, anchor, cost).tolist() \
        == matching._resolve_claims(gt, anchor, cost).tolist()
