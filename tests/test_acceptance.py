"""Acceptance suite: one test per release criterion.

Each test prints a PASS line after its assertions; run with ``pytest -s``
to see the lines as they go, or rely on the test outcome itself.
"""

import json
import time

import numpy as np
import pytest

from yolof_assign.balance import SizeBuckets, distribution
from yolof_assign.cli import main
from yolof_assign.encoder import EncoderSpec, impulse_footprint, rf_profile
from yolof_assign.flops import ConvLayer, DecoderSpec, EncoderTopology, \
    encoder_decoder_flops
from yolof_assign.geometry import (AnchorConfig, AnchorGrid, ImageSize,
                                   generate_anchors)
from yolof_assign.matching import (GroundTruthSet, MaxIoUConfig, TopKConfig,
                                   hungarian_cost, hungarian_match,
                                   max_iou_match, nearest_candidates,
                                   solve_assignment, topk_match,
                                   uniform_match)
from yolof_assign.postprocess import nms

from oracles import assignment_cost_enum, nms_py, rf_extents_py

IMAGE = ImageSize(1280, 800)


def ok(line):
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_1_anchor_sparsity():
    start = time.perf_counter()
    single = generate_anchors(AnchorConfig(), IMAGE)
    assert len(single) == 5000

    # five-level pyramid, 3 scales x 3 ratios = 9 anchors per position
    multi = 0
    for stride, size in zip((8, 16, 32, 64, 128), (32, 64, 128, 256, 512)):
        cfg = AnchorConfig(stride=stride, sizes=(float(size),),
                           scale_multipliers=(1.0, 2 ** (1 / 3), 2 ** (2 / 3)),
                           aspect_ratios=(0.5, 1.0, 2.0))
        multi += len(generate_anchors(cfg, IMAGE))
    assert multi == 191_970
    assert multi >= 20 * len(single)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(f"1 anchor sparsity: 5000 single-level vs {multi} multi-level "
       f"({elapsed:.2f}s)")


def synthetic_scene(index, rng):
    """One GT per size bucket, centers jittered off anchor-cell centers."""
    sides_cells = [
        (16 if index % 3 < 2 else 26, (2, 6)),  # small (two thirds tiny)
        (44, (8, 12)),                          # medium
        (96, (14, 17)),                         # large
    ]
    boxes = []
    for side, (lo, hi) in sides_cells:
        ci = int(rng.integers(lo, hi + 1))
        cj = int(rng.integers(lo, hi + 1))
        cx = (cj + 0.5) * 32 + rng.uniform(-4, 4)
        cy = (ci + 0.5) * 32 + rng.uniform(-4, 4)
        boxes.append((cx - side / 2, cy - side / 2,
                      cx + side / 2, cy + side / 2))
    return GroundTruthSet(boxes=np.array(boxes),
                          class_ids=np.zeros(3, dtype=int))


def columns(rows):
    """``distribution``'s per-image, box and positive columns of records
    ``(image_id, num_anchors, gts, positives_per_gt)``."""
    return ([(i, n, len(g)) for i, n, g, _ in rows],
            np.concatenate([g.boxes for *_, g, _ in rows]),
            np.concatenate([p for *_, p in rows]))


def test_criterion_2_uniform_balance():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
    scenes = [synthetic_scene(i, rng) for i in range(200)]

    uniform_rows = []
    for i, gts in enumerate(scenes):
        for cand in nearest_candidates(grid, gts, 4):
            assert len(cand) == 4  # pre-filter candidates are uniform
        uniform_rows.append((i, len(grid), gts,
                             uniform_match(grid, gts).positives_per_gt))
    dist = distribution(*columns(uniform_rows), "uniform", SizeBuckets())
    means = [dist.mean(b) for b in ("small", "medium", "large")]
    assert max(means) - min(means) <= 1.0

    maxiou_rows = [(i, len(grid), gts, max_iou_match(
        grid, gts, MaxIoUConfig(rescue=False)).positives_per_gt)
        for i, gts in enumerate(scenes)]
    mdist = distribution(*columns(maxiou_rows), "max_iou", SizeBuckets())
    assert mdist.zero_fraction("small") >= 0.5
    assert mdist.mean("large") >= 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(f"2 uniform balance: bucket means {np.round(means, 3)}, max-IoU "
       f"small zero-fraction {mdist.zero_fraction('small'):.2f} "
       f"({elapsed:.1f}s)")


def spread_instance(rng):
    """GTs each near a distinct one of the first ``n`` well-separated
    anchors.

    Anchor spacing (>= 100px) exceeds the IoU term's 32px scale plus the
    10px placement jitter, so nearest-anchor assignment dominates the
    Hungarian cost row-wise and no two GTs contest a candidate.  The last
    row of the lattice is filled, so the anchors pave a grid; its stride,
    32, is the IoU term's scale.
    """
    m = int(rng.integers(1, 11))
    n = int(rng.integers(max(m, 10), 201))
    cols = int(np.ceil(np.sqrt(n)))
    rows = -(-n // cols)
    centers = np.array([(100.0 * (i % cols), 100.0 * (i // cols))
                        for i in range(rows * cols)])
    anchors = np.hstack([centers - 16.0, centers + 16.0])
    chosen = rng.choice(n, size=m, replace=False)
    g_centers = centers[chosen] + rng.uniform(-7, 7, size=(m, 2))
    side = rng.uniform(20, 40, size=(m, 1))
    boxes = np.hstack([g_centers - side / 2, g_centers + side / 2])
    grid = AnchorGrid(AnchorConfig(sizes=(32.0,)), rows, cols, anchors)
    return grid, GroundTruthSet(boxes=boxes, class_ids=np.zeros(m, dtype=int))


def test_criterion_3_top1_hungarian_equivalence():
    rng = np.random.default_rng(7)
    oracle_checked = 0
    for _ in range(100):
        grid, gts = spread_instance(rng)
        hung = hungarian_match(grid, gts)
        top1 = topk_match(grid, gts, TopKConfig(k=1))
        np.testing.assert_array_equal(hung.labels >= 0, top1.labels >= 0)
        np.testing.assert_array_equal(
            np.flatnonzero(hung.labels >= 0),
            np.flatnonzero(top1.labels >= 0))
        if len(gts) <= 6:
            cost = hungarian_cost(grid, gts)
            _, _, total = solve_assignment(cost)
            assert total == assignment_cost_enum(cost)  # tolerance 0
            oracle_checked += 1
    assert oracle_checked >= 10
    ok(f"3 top1/Hungarian equivalence on 100 instances, cost oracle exact "
       f"on {oracle_checked}")


RF_SPECS = [
    ((1, 1, 1, 1), 11),
    ((2, 2, 2, 2), 19),
    ((3, 3, 3, 3), 27),
    ((1, 2, 3, 4), 23),
    ((2, 4, 6, 8), 43),
    ((3, 6, 9, 12), 63),
]
BLOCK_COUNTS = (0, 2, 4, 6, 8, 10)


def test_criterion_4_receptive_field():
    start = time.perf_counter()
    for dilations, expected in RF_SPECS:
        spec = EncoderSpec(in_channels=3, mid_channels=4,
                           num_blocks=4, dilations=dilations)
        assert rf_profile(spec).max_extent == expected
        assert impulse_footprint(spec, 96) == expected
    for blocks in BLOCK_COUNTS:
        spec = EncoderSpec(in_channels=3, mid_channels=4, num_blocks=blocks,
                           dilations=(1,) * blocks)
        analytic = rf_profile(spec).max_extent
        assert analytic == 3 + 2 * blocks
        assert impulse_footprint(spec, 96) == analytic
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(f"4 receptive field: numeric footprint equals analytic extent for "
       f"{len(RF_SPECS) + len(BLOCK_COUNTS)} configurations ({elapsed:.1f}s)")


def test_criterion_5_shortcut_structure():
    closed = rf_profile(EncoderSpec(shortcuts=False))
    assert len(closed.extents) == 1
    open_ = rf_profile(EncoderSpec(shortcuts=True))
    assert open_.extents == rf_extents_py((2, 4, 6, 8))
    assert len(open_.extents) == 11
    ok("5 shortcut structure: 1 extent without shortcuts, 11 with")


def test_criterion_6_nms_oracle():
    rng = np.random.default_rng(99)
    for _ in range(500):
        n = int(rng.integers(1, 51))
        boxes, scores, classes = [], [], []
        for _ in range(n):
            x, y = rng.uniform(0, 60, 2)
            w, h = rng.uniform(1, 50, 2)
            boxes.append((x, y, x + w, y + h))
            scores.append(round(float(rng.uniform()), 3))
            classes.append(int(rng.integers(0, 4)))
        thr = float(rng.uniform(0.05, 0.95))
        cols = np.array(boxes), np.array(scores), np.array(classes)
        kept = nms(*cols, thr)
        expected = nms_py(boxes, scores, classes, thr)
        assert kept == expected  # exact index-set equality
        again = nms(*(col[kept] for col in cols), thr)
        assert again == list(range(len(kept)))  # idempotence
    ok("6 NMS: greedy equals simulation oracle on 500 instances, idempotent")


def test_criterion_7_flops_monotonicity_and_ratio():
    dec = DecoderSpec(cls_convs=4, reg_convs=4, channels=256,
                      anchors_per_position=9)
    totals = {kind: encoder_decoder_flops(
        EncoderTopology.by_name(kind, 256), dec, IMAGE).total
        for kind in ("mimo", "simo", "miso", "siso")}
    ratio = totals["mimo"] / totals["siso"]
    assert ratio >= 15.0
    assert totals["mimo"] >= totals["simo"] >= totals["siso"]
    assert totals["mimo"] >= totals["miso"] >= totals["siso"]

    # additivity and quadratic channel scaling on a synthetic stack
    def stack(c):
        layers = [ConvLayer(f"l{i}", c, c, 3, "P5") for i in range(4)]
        topo = EncoderTopology("stack", c, ("C5",), ("P5",), layers)
        report = encoder_decoder_flops(
            topo, DecoderSpec(cls_convs=0, reg_convs=0,
                              anchors_per_position=0), IMAGE)
        assert report.total == sum(l.flops(IMAGE) for l in layers)
        return report.total

    assert stack(256) == 4 * stack(128) == 16 * stack(64)
    ok(f"7 FLOPs: MiMo/SiSo ratio {ratio:.1f} >= 15, additive, "
       f"quadratic in channels")


def test_criterion_8_cli_determinism(tmp_path, tiny_corpus_path):
    dets = [{"bbox": [0, 0, 10, 10], "score": 0.9, "category_id": 1},
            {"bbox": [0, 0, 10, 9], "score": 0.8, "category_id": 1},
            {"bbox": [40, 40, 60, 60], "score": 0.7, "category_id": 2}]
    dets_path = tmp_path / "dets.json"
    dets_path.write_text(json.dumps(dets))
    corpus = str(tiny_corpus_path)

    commands = {
        "anchors": ["anchors", "--image", "1280x800"],
        "match-stats-json": ["match-stats", "--input", corpus,
                             "--seed", "3"],
        "match-stats-csv": ["match-stats", "--input", corpus,
                            "--format", "csv"],
        "rf": ["rf", "--dilations", "2,4,6,8"],
        "flops": ["flops", "--topology", "mimo"],
        "nms": ["nms", "--input", str(dets_path), "--iou", "0.6"],
        "shift": ["shift", "--input", corpus, "--seed", "9"],
    }
    for name, argv in commands.items():
        outputs = []
        for run in (0, 1):
            out = tmp_path / f"{name}-{run}"
            assert main(argv + ["--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} output not reproducible"
    ok(f"8 determinism: {len(commands)} CLI invocations byte-identical "
       f"across repeated runs")
