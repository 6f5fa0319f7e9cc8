import numpy as np
import pytest

from yolof_assign.postprocess import Detection, nms, score_filter

from oracles import nms_py


def det(box, score, class_id=0):
    return Detection(box=tuple(box), score=score, class_id=class_id)


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
        assert nms([det((0, 0, 10, 10), 0.5)]) == [0]

    def test_empty(self):
        assert nms([]) == []

    def test_overlapping_same_class(self):
        dets = [det((0, 0, 10, 10), 0.9), det((0, 0, 10, 9), 0.8)]
        assert nms(dets, iou_threshold=0.6) == [0]

    def test_overlapping_different_class(self):
        dets = [det((0, 0, 10, 10), 0.9, 0), det((0, 0, 10, 9), 0.8, 1)]
        assert nms(dets, iou_threshold=0.6) == [0, 1]

    def test_score_tie_breaks_by_index(self):
        dets = [det((0, 0, 10, 10), 0.5), det((0, 0, 10, 10), 0.5)]
        assert nms(dets, iou_threshold=0.6) == [0]
        assert nms(dets[::-1], iou_threshold=0.6) == [0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_simulation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, int(rng.integers(1, 50)))
        thr = float(rng.uniform(0.1, 0.9))
        expected = nms_py([d.box for d in dets], [d.score for d in dets],
                          [d.class_id for d in dets], thr)
        assert nms(dets, thr) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_threshold_monotone(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, 30)
        lo = set(nms(dets, 0.3))
        hi = set(nms(dets, 0.7))
        assert lo <= hi

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        dets = random_detections(rng, 40)
        kept = nms(dets, 0.5)
        again = nms([dets[i] for i in kept], 0.5)
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
        kept = nms(dets, 0.5)
        assert kept == nms_py([d.box for d in dets], [d.score for d in dets],
                              [d.class_id for d in dets], 0.5)
        assert {1200, 1201} <= set(kept)
        assert len(kept) < len(dets) // 2

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            nms([det((0, 0, 1, 1), 0.5)], iou_threshold=1.5)


class TestScoreFilter:
    def test_identity(self):
        dets = [det((0, 0, 1, 1), 0.4), det((1, 1, 2, 2), 0.9)]
        assert score_filter(dets, 0.0, len(dets)) \
            == [dets[1], dets[0]]

    def test_min_score(self):
        dets = [det((0, 0, 1, 1), 0.9), det((0, 0, 1, 1), 0.5),
                det((0, 0, 1, 1), 0.1)]
        kept = score_filter(dets, min_score=0.3)
        assert [d.score for d in kept] == [0.9, 0.5]

    def test_max_keep(self):
        dets = [det((0, 0, 1, 1), 0.5), det((0, 0, 1, 1), 0.9)]
        assert score_filter(dets, max_keep=1) == [dets[1]]

    def test_invalid_score_rejected(self):
        with pytest.raises(ValueError):
            det((0, 0, 1, 1), 1.5)
        with pytest.raises(ValueError):
            det((0, 0, 1, 1), float("nan"))
