import json
import math

import numpy as np
import pytest

from yolof_assign import postprocess
from yolof_assign.coco import CorpusError, load_detections
from yolof_assign.postprocess import nms

from oracles import nms_blocked, nms_py


def det(box, score, class_id=0):
    return tuple(box), score, class_id


def columns(dets):
    """The (boxes, scores, class ids) columns :func:`nms` takes, of a list
    of :func:`det` rows."""
    boxes, scores, classes = zip(*dets) if dets else ((), (), ())
    return (np.array(boxes, dtype=np.float64).reshape(-1, 4),
            np.array(scores, dtype=np.float64),
            np.array(classes, dtype=np.int64))


def random_detections(rng, n):
    dets = []
    for _ in range(n):
        x, y = rng.uniform(0, 80, 2)
        w, h = rng.uniform(1, 40, 2)
        dets.append(det((x, y, x + w, y + h),
                        round(float(rng.uniform()), 3),
                        int(rng.integers(0, 3))))
    return dets


class TestNMS:
    def test_single_detection(self):
        assert nms(*columns([det((0, 0, 10, 10), 0.5)])) == [0]

    def test_empty(self):
        assert nms(*columns([])) == []

    def test_overlapping_same_class(self):
        dets = [det((0, 0, 10, 10), 0.9), det((0, 0, 10, 9), 0.8)]
        assert nms(*columns(dets), iou_threshold=0.6) == [0]

    def test_overlapping_different_class(self):
        dets = [det((0, 0, 10, 10), 0.9, 0), det((0, 0, 10, 9), 0.8, 1)]
        assert nms(*columns(dets), iou_threshold=0.6) == [0, 1]

    def test_score_tie_breaks_by_index(self):
        dets = [det((0, 0, 10, 10), 0.5), det((0, 0, 10, 10), 0.5)]
        assert nms(*columns(dets), iou_threshold=0.6) == [0]
        assert nms(*columns(dets[::-1]), iou_threshold=0.6) == [0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_simulation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, int(rng.integers(1, 50)))
        thr = float(rng.uniform(0.1, 0.9))
        expected = nms_py(*map(list, zip(*dets)), thr)
        assert nms(*columns(dets), thr) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_threshold_monotone(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, 30)
        lo = set(nms(*columns(dets), 0.3))
        hi = set(nms(*columns(dets), 0.7))
        assert lo <= hi

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, 40)
        kept = nms(*columns(dets), 0.5)
        again = nms(*columns([dets[i] for i in kept]), 0.5)
        assert again == list(range(len(kept)))

    def test_matches_oracle_on_large_clustered_input(self):
        rng = np.random.default_rng(7)
        objects = rng.uniform(0, 300, (60, 2))
        sides = rng.uniform(8, 80, (60, 2))
        obj = rng.integers(0, 60, 1200)
        jitter = rng.uniform(-0.2, 0.2, (1200, 4)) * np.tile(sides[obj], 2)
        boxes = np.concatenate([objects[obj], objects[obj] + sides[obj]],
                               axis=1) + jitter
        scores = np.round(rng.uniform(0, 1, 1200), 2)  # many repeats
        classes = obj % 6
        dets = [det(b, float(s), int(c))
                for b, s, c in zip(boxes, scores, classes)]
        # same class, IoU exactly 0.5: at the threshold, so both survive
        dets += [det((500, 500, 510, 510), 1.0, 3),
                 det((500, 500, 510, 505), 1.0, 3)]
        kept = nms(*columns(dets), 0.5)
        assert kept == nms_py(*map(list, zip(*dets)), 0.5)
        assert {1200, 1201} <= set(kept)
        assert len(kept) < len(dets) // 2

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            nms(*columns([det((0, 0, 1, 1), 0.5)]),
                iou_threshold=1.5)


def clustered_columns(rng, n, num_objects, num_classes, score_decimals):
    """``n`` jittered copies of ``num_objects`` boxes; an object's class is
    its index mod ``num_classes``."""
    xy = rng.uniform(0, 500, (num_objects, 2))
    wh = rng.uniform(4, 120, (num_objects, 2))
    obj = rng.integers(0, num_objects, n)
    boxes = np.concatenate([xy[obj], xy[obj] + wh[obj]], axis=1) \
        + rng.uniform(-0.2, 0.2, (n, 4)) * np.tile(wh[obj], 2)
    scores = np.round(rng.uniform(0, 1, n), score_decimals)
    return boxes, scores, obj % num_classes


def oracle(boxes, scores, classes, thr):
    return nms_py(boxes.tolist(), scores.tolist(), classes.tolist(), thr)


class TestBlockedNMS:
    """Cases that cross the row blocks each class is suppressed in."""

    @pytest.mark.parametrize("thr", [0.3, 0.6, 0.9])
    def test_one_class_over_several_blocks(self, thr):
        cols = clustered_columns(np.random.default_rng(11), 400, 60, 1, 6)
        assert len(cols[0]) > 10 * postprocess._BLOCK
        assert nms(*cols, thr) == oracle(*cols, thr)

    def test_many_classes(self):
        cols = clustered_columns(np.random.default_rng(12), 1500, 300, 90, 6)
        assert len(set(cols[2].tolist())) == 90
        assert nms(*cols, 0.5) == oracle(*cols, 0.5)

    @pytest.mark.parametrize("thr", [0.2, 0.7])
    def test_score_ties(self, thr):
        # one decimal: about 36 rows share each score in a class
        cols = clustered_columns(np.random.default_rng(13), 800, 40, 2, 1)
        assert nms(*cols, thr) == oracle(*cols, thr)

    @pytest.mark.parametrize("thr", [0.25, 0.5])
    def test_iou_exactly_at_threshold_survives(self, thr):
        # each pair's IoU is exactly thr; the pairs lie 20 px apart in a
        # row, so every pair straddles or fills part of a block
        pairs = 50
        x = np.repeat(np.arange(pairs) * 20.0, 2)
        y2 = np.tile([8.0, 8.0 * thr], pairs)
        boxes = np.stack([x, np.zeros_like(x), x + 8.0, y2], axis=1)
        scores = np.linspace(1.0, 0.01, 2 * pairs)
        classes = np.zeros(2 * pairs, dtype=np.int64)
        assert nms(boxes, scores, classes, thr) == list(range(2 * pairs))
        assert nms(boxes, scores, classes, np.nextafter(thr, 0.0)) \
            == list(range(0, 2 * pairs, 2))

    @pytest.mark.parametrize("thr", [0.0, 0.5, 1.0])
    def test_zero_area_and_duplicate_boxes(self, thr):
        rng = np.random.default_rng(14)
        boxes, scores, classes = clustered_columns(rng, 300, 20, 2, 2)
        boxes[::7, 2] = boxes[::7, 0]  # zero width
        boxes[3::11, 3] = boxes[3::11, 1]  # zero height
        boxes[5::9] = boxes[4::9][:len(boxes[5::9])]  # exact duplicates
        assert nms(boxes, scores, classes, thr) \
            == oracle(boxes, scores, classes, thr)

    def test_memory_stays_block_rows_by_class_size(self, monkeypatch):
        n = 3000
        boxes, scores, classes = clustered_columns(
            np.random.default_rng(15), n, 150, 1, 6)
        sizes = []
        real = postprocess.pairwise_iou
        index = {tuple(box): i for i, box in enumerate(boxes.tolist())}
        assert len(index) == n
        block_rows = []

        def recording(a, b, *args):
            sizes.append(len(a) * len(b))
            block_rows.append([index[tuple(box)] for box in a.tolist()])
            return real(a, b, *args)

        monkeypatch.setattr(postprocess, "pairwise_iou", recording)
        kept = nms(boxes, scores, classes, 0.6)
        assert 0 < len(kept) < n
        # the standing walk: each box is a block row at most once, every
        # kept box is one, and no call scores more than _BLOCK rows
        flat = [i for rows in block_rows for i in rows]
        assert len(flat) == len(set(flat))
        assert set(kept) <= set(flat)
        assert max(map(len, block_rows)) <= postprocess._BLOCK
        assert len(block_rows) <= math.ceil(n / postprocess._BLOCK)
        assert max(sizes) <= postprocess._BLOCK * n

    def test_nothing_struck_scores_whole_tails(self, monkeypatch):
        # at threshold 1 no IoU is above it: every row stands, so each
        # block is scored against the whole rest of its class
        block = postprocess._BLOCK
        boxes, scores, classes = clustered_columns(
            np.random.default_rng(16), 2000, 100, 2, 1)
        shapes = []
        real = postprocess.pairwise_iou

        def recording(a, b, *args):
            shapes.append((len(a), len(b)))
            return real(a, b, *args)

        monkeypatch.setattr(postprocess, "pairwise_iou", recording)
        kept = nms(boxes, scores, classes, 1.0)
        assert kept == np.lexsort((np.arange(len(scores)), -scores)).tolist()
        class_sizes = np.bincount(classes).tolist()
        assert shapes == [(min(block, size - first), size - first)
                          for size in class_sizes
                          for first in range(0, size, block)]
        assert all(a <= block and b <= max(class_sizes) for a, b in shapes)


def hard_columns(seed, n, num_classes):
    """:func:`clustered_columns` with score ties, zero-area boxes and
    exact duplicate boxes."""
    rng = np.random.default_rng(seed)
    boxes, scores, classes = clustered_columns(rng, n, n // 12,
                                               num_classes, 1)
    boxes[::7, 2] = boxes[::7, 0]  # zero width
    boxes[3::11, 3] = boxes[3::11, 1]  # zero height
    boxes[5::9] = boxes[4::9][:len(boxes[5::9])]  # exact duplicates
    return boxes, scores, classes


class TestAgainstBlockedWalk:
    """The standing walk keeps what the fixed-position blocked walk kept."""

    def test_long_list_in_few_classes(self):
        cols = clustered_columns(np.random.default_rng(20), 40_000, 4000,
                                 3, 6)
        kept = nms(*cols, 0.6)
        assert kept == nms_blocked(*cols, 0.6)
        assert 0 < len(kept) < len(cols[0]) // 2

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("thr", [0.0, 0.3, 0.6, 1.0])
    def test_ties_zero_area_and_duplicates(self, thr, seed):
        cols = hard_columns(30 + seed, 1200, 2)
        assert nms(*cols, thr) == nms_blocked(*cols, thr)

    @pytest.mark.parametrize("thr", [0.0, 0.5])
    def test_blocked_walk_is_greedy(self, thr):
        cols = hard_columns(40, 300, 3)
        assert nms_blocked(*cols, thr) == oracle(*cols, thr)

    def test_simulation_oracle_on_a_long_class_pair(self):
        cols = clustered_columns(np.random.default_rng(21), 3000, 150, 2, 3)
        assert nms(*cols, 0.6) == oracle(*cols, 0.6)


class TestDetectionLoader:
    @pytest.mark.parametrize("score", [1.5, float("nan")])
    def test_invalid_score_rejected(self, tmp_path, score):
        path = tmp_path / "dets.json"
        path.write_text(json.dumps([{"bbox": [0, 0, 1, 1], "score": score,
                                     "category_id": 0}]))
        with pytest.raises(CorpusError) as got:
            load_detections(path)
        assert str(got.value) == (f"{path}: bad detection #0: score must "
                                  f"be finite in [0, 1], got {score}")
