import concurrent.futures
import gc
import json
import multiprocessing
import os
import pathlib
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from yolof_assign import cli, coco, matching
from yolof_assign.cli import main
from yolof_assign.coco import (CorpusError, RunConfig, load_corpus,
                               parse_corpus, run_match_stats, worker_count)
from yolof_assign.geometry import apply_shift
from yolof_assign.matching import MATCHERS, MaxIoUConfig, UniformMatchConfig
from yolof_assign.reports import (distribution_to_csv, distribution_to_dict,
                                  to_json, write_atomic)

import test_bench_inputs
from conftest import seeded_corpus
from oracles import shift_offset_py


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


BASE_DOC = {
    "images": [{"id": 1, "width": 64, "height": 64}],
    "annotations": [
        {"id": 1, "image_id": 1, "bbox": [10, 20, 30, 40], "category_id": 2},
    ],
    "categories": [{"id": 2, "name": "thing"}],
}

# bbox values that iterate as four strings: a string of four digits, and
# an object of four numeric keys
NOT_ARRAYS = ["1234", {"5": 0, "6": 0, "7": 0, "8": 0}]

# Annotations shuffled across images, ids out of image order; image 4 has
# none, annotation 8 is degenerate, and 5, 3, 4 and 7 cross an image edge.
SHUFFLED_DOC = {
    "images": [{"id": i, "width": w, "height": h}
               for i, w, h in ((3, 96, 64), (1, 64, 64), (4, 32, 32),
                               (2, 80, 48))],
    "annotations": [
        {"id": i, "image_id": img, "bbox": bbox, "category_id": cat}
        for i, img, bbox, cat in (
            (9, 2, [10.25, 5, 20, 10.5], 3), (2, 3, [30, 12, 8, 9], 1),
            (5, 1, [-4, 50, 12, 20], 2), (1, 2, [0.5, 30, 6, 6], 1),
            (7, 3, [88, 1, 20, 7.75], 2), (3, 1, [-3, 10, 4, 5], 1),
            (8, 1, [5, 5, 0, 3], 1), (4, 2, [70, 40, 20, 20], 3),
            (6, 3, [2, 60, 5, 3], 1))],
    "categories": [{"id": c} for c in (1, 2, 3)],
}


def replay_shift(doc, seed, max_shift):
    """``shift``'s output redone box by box: each image's offset drawn from
    ``(seed, image_id)``, dx first, then clamp and drop the empty boxes,
    in (image id, id) order."""
    annotations = []
    images = sorted(doc["images"], key=lambda img: img["id"])
    for img in images:
        rng = np.random.default_rng((seed, img["id"]))
        dx, dy = (int(rng.integers(-max_shift, max_shift + 1))
                  for _ in range(2))
        for ann in sorted((a for a in doc["annotations"]
                           if a["image_id"] == img["id"]),
                          key=lambda a: a["id"]):
            x, y, w, h = (float(v) for v in ann["bbox"])
            if w <= 0 or h <= 0:
                continue  # dropped on load
            x1, x2 = (min(max(v + dx, 0.0), img["width"]) for v in (x, x + w))
            y1, y2 = (min(max(v + dy, 0.0), img["height"])
                      for v in (y, y + h))
            if x2 > x1 and y2 > y1:
                annotations.append(dict(ann, bbox=[x1, y1, x2 - x1, y2 - y1]))
    return {"images": images, "annotations": annotations,
            "categories": doc["categories"]}


def shifted_by_image(corpus, max_shift, seed):
    """``AnnotationCorpus.shifted`` redone one image at a time with the
    scalar ``apply_shift``: ``(ids, boxes, category ids, offsets)``."""
    ids, boxes, cats, offsets = [], [], [], [0]
    for (image_id, size), lo, hi in zip(corpus.images, corpus.offsets,
                                        corpus.offsets[1:]):
        dx, dy = shift_offset_py(max_shift, seed, image_id)
        moved, kept = apply_shift(corpus.boxes[lo:hi], size, dx, dy)
        ids += corpus.ids[lo:hi][kept].tolist()
        boxes += moved.tolist()
        cats += corpus.category_ids[lo:hi][kept].tolist()
        offsets.append(len(ids))
    return ids, boxes, cats, offsets


def record_calls(monkeypatch):
    """Lists of the pids that call ``coco._match_chunk`` and
    ``coco.distribution`` in this process.  A forked worker's call is
    recorded in the worker's copy of a list, so the chunk list stays
    empty when the chunks ran in workers."""
    lists = []
    for name in ("_match_chunk", "distribution"):
        pids, real = [], getattr(coco, name)

        def recording(*args, pids=pids, real=real, **kwargs):
            pids.append(os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(coco, name, recording)
        lists.append(pids)
    return lists


def edge_corpus(rng) -> dict:
    """Images of mixed sizes, some without annotations, whose small boxes
    sit on and across every edge, so a shift drops some of them."""
    images, annotations = [], []
    for image_id in rng.permutation(np.arange(1, 31)).tolist():
        w, h = (int(v) for v in rng.integers(24, 200, 2))
        images.append({"id": image_id, "width": w, "height": h})
        for _ in range(int(rng.integers(0, 6)) if image_id % 5 else 0):
            bw, bh = (round(float(v), 2) for v in rng.uniform(0.5, 12, 2))
            x = float(rng.choice([-bw / 2, 0, w - bw, w - bw / 2,
                                  rng.uniform(0, w - bw)]))
            y = float(rng.choice([-bh / 2, 0, h - bh, h - bh / 2,
                                  rng.uniform(0, h - bh)]))
            annotations.append({"id": len(annotations) + 1,
                                "image_id": image_id, "bbox": [x, y, bw, bh],
                                "category_id": int(rng.integers(0, 3))})
    return {"images": images, "annotations": annotations, "categories": []}


class TestShift:
    """The corpus-wide ``shifted`` against a per-image loop."""

    @pytest.mark.parametrize("max_shift", [0, 1, 8, 32])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_image_loop(self, seed, max_shift):
        corpus = parse_corpus(edge_corpus(np.random.default_rng(seed)))
        got = corpus.shifted(max_shift, seed)
        ids, boxes, cats, offsets = shifted_by_image(corpus, max_shift, seed)
        assert got.ids.tolist() == ids
        assert got.boxes.tolist() == boxes
        assert got.category_ids.tolist() == cats
        assert got.offsets.tolist() == offsets
        assert (got.ids.dtype, got.boxes.dtype, got.category_ids.dtype) \
            == (np.int64, np.float64, np.int64)
        assert got.images == corpus.images
        assert got.dropped == corpus.dropped
        if max_shift == 0:  # only clamps: every box stays
            assert ids == corpus.ids.tolist()
            assert boxes != corpus.boxes.tolist()  # some crossed an edge

    def test_cases_drop_boxes_and_keep_empty_images(self):
        for seed in range(6):
            corpus = parse_corpus(edge_corpus(np.random.default_rng(seed)))
            assert (np.diff(corpus.offsets) == 0).any()
            assert len({s for _, s in corpus.images}) > 1
        assert len(corpus.shifted(32, 0).ids) < len(corpus.ids)

    def test_shuffled_doc_and_empty_corpus(self):
        for doc in (SHUFFLED_DOC, dict(BASE_DOC, annotations=[]),
                    dict(BASE_DOC, images=[], annotations=[])):
            corpus = parse_corpus(doc)
            got = corpus.shifted(16, 2)
            ids, boxes, cats, offsets = shifted_by_image(corpus, 16, 2)
            assert (got.ids.tolist(), got.boxes.tolist(),
                    got.category_ids.tolist(), got.offsets.tolist()) \
                == (ids, boxes, cats, offsets)

    def test_match_stats_matches_the_shifted_corpus(self):
        corpus = parse_corpus(edge_corpus(np.random.default_rng(9)))
        shifted = run_match_stats(corpus, RunConfig(shift_max=32, seed=4))
        direct = run_match_stats(corpus.shifted(32, 4), RunConfig())
        assert distribution_to_dict(shifted) == distribution_to_dict(direct)

    def test_match_stats_at_shift_0_does_not_clamp(self, monkeypatch):
        # 120 px a side: large; clamped to the 64 px image it is medium
        doc = dict(BASE_DOC, annotations=[
            {"id": 1, "image_id": 1, "bbox": [-40, -40, 120, 120],
             "category_id": 2}])
        monkeypatch.setattr(coco, "apply_shift", None)  # never called
        dist = run_match_stats(parse_corpus(doc), RunConfig(shift_max=0))
        assert dist.counts("large")[0] == 1


class TestLoadCorpus:
    def test_bbox_conversion(self, tmp_path):
        corpus = load_corpus(write_json(tmp_path / "c.json", BASE_DOC))
        assert corpus.boxes.tolist() == [[10, 20, 40, 60]]
        assert corpus.dropped == 0

    def test_empty_annotations(self, tmp_path):
        doc = dict(BASE_DOC, annotations=[])
        corpus = load_corpus(write_json(tmp_path / "c.json", doc))
        assert corpus.boxes.shape == (0, 4) and len(corpus.ids) == 0
        assert corpus.offsets.tolist() == [0, 0]
        assert corpus.dropped == 0

    def test_degenerate_bbox_dropped(self, tmp_path):
        # no width, then stored corners that keep no extent (x + w rounds
        # back to x, y + h to y) or an area that rounds to 0
        for bbox in ([5, 5, 0, 9], [1e20, 5, 1, 3], [5, 5, 3, 1e-300],
                     [0, 0, 1e-200, 1e-200]):
            doc = dict(BASE_DOC)
            doc["annotations"] = BASE_DOC["annotations"] + [
                {"id": 2, "image_id": 1, "bbox": bbox, "category_id": 2}]
            corpus = load_corpus(write_json(tmp_path / "c.json", doc))
            assert corpus.ids.tolist() == [1]
            assert corpus.dropped == 1

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"images": [\n  {broken}\n]}')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(str(path))

    def test_integral_numbers_and_strings_accepted(self):
        doc = dict(BASE_DOC, images=[{"id": 1.0, "width": "64",
                                      "height": 64.0}],
                   annotations=[{"id": "5", "image_id": 1.0,
                                 "bbox": [10, 20, 30, 40],
                                 "category_id": 2.0}])
        corpus = parse_corpus(doc)
        assert [(i, s.width, s.height) for i, s in corpus.images] \
            == [(1, 64, 64)]
        assert corpus.ids.tolist() == [5]
        assert corpus.category_ids.tolist() == [2]

    def test_missing_image_reference(self):
        doc = dict(BASE_DOC)
        doc["annotations"] = [{"id": 77, "image_id": 9, "bbox": [1, 1, 2, 2],
                               "category_id": 2}]
        with pytest.raises(CorpusError, match="77"):
            parse_corpus(doc)

    def test_missing_array(self):
        with pytest.raises(CorpusError, match="categories"):
            parse_corpus({"images": [], "annotations": []})

    def test_ground_truths_per_image_in_id_order(self):
        doc = dict(BASE_DOC, images=[{"id": 1, "width": 64, "height": 64},
                                     {"id": 2, "width": 64, "height": 64}],
                   annotations=[
                       {"id": i, "image_id": img, "bbox": [i, i, 5, 5],
                        "category_id": 2}
                       for i, img in ((5, 2), (3, 1), (4, 2), (1, 2))])
        corpus = parse_corpus(doc)
        np.testing.assert_array_equal(corpus.ground_truths(2).boxes[:, 0],
                                      [1, 4, 5])
        np.testing.assert_array_equal(corpus.ground_truths(1).boxes[:, 0], [3])
        assert len(parse_corpus(dict(doc, annotations=[])).ground_truths(1)) \
            == 0
        corpus = parse_corpus(SHUFFLED_DOC)
        for img in SHUFFLED_DOC["images"]:
            anns = sorted((a for a in SHUFFLED_DOC["annotations"]
                           if a["image_id"] == img["id"]
                           and a["bbox"][2] > 0), key=lambda a: a["id"])
            gts = corpus.ground_truths(img["id"])
            assert gts.boxes.tolist() == [[x, y, x + w, y + h] for x, y, w, h
                                          in (a["bbox"] for a in anns)]
            assert gts.class_ids.tolist() == [a["category_id"] for a in anns]
        assert len(corpus.ground_truths(99)) == 0

    def test_round_trip_fixed_point(self, tiny_corpus_path, tmp_path):
        first = load_corpus(tiny_corpus_path)
        second = parse_corpus(json.loads(json.dumps(first.to_dict())))
        assert first.to_dict() == second.to_dict()


class TestRunConfig:
    def test_default(self):
        config = RunConfig.load("default")
        assert config.matcher == "uniform"
        assert config.anchors.stride == 32

    def test_from_file(self, tmp_path):
        doc = {"matcher": "topk", "matcher_params": {"k": 2},
               "anchors": {"stride": 16, "sizes": [16, 32]},
               "buckets": {"small_max": 400.0, "medium_max": 6400.0},
               "seed": 5}
        config = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert config.matcher == "topk"
        assert config.anchors.sizes == (16, 32)
        assert config.buckets.small_max == 400.0

    def test_matcher_params_built_from_table(self, tmp_path):
        doc = {"matcher": "max_iou", "matcher_params": {"rescue": False}}
        config = RunConfig.load(write_json(tmp_path / "cfg.json", doc))
        assert config.matcher_config == MaxIoUConfig(rescue=False)
        assert RunConfig().matcher_config == UniformMatchConfig()

    def test_config_json_error_names_line_and_column(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"matcher":\n  uniform}')
        with pytest.raises(CorpusError, match="line 2 column 3"):
            RunConfig.load(str(path))

    def test_unknown_matcher_rejected(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"matcher": "magic"})
        with pytest.raises(CorpusError, match="magic"):
            RunConfig.load(path)


class TestRunMatchStats:
    def test_empty_corpus(self, tmp_path):
        doc = dict(BASE_DOC, annotations=[])
        corpus = load_corpus(write_json(tmp_path / "c.json", doc))
        dist = run_match_stats(corpus, RunConfig())
        assert dist.total_gts == 0
        assert distribution_to_dict(dist)["per_image"][0]["num_positive"] \
            == 0

    def test_uniform_candidates_flag(self, tiny_corpus_path):
        corpus = load_corpus(tiny_corpus_path)
        dist = run_match_stats(corpus, RunConfig())
        assert dist.total_gts == 6
        assert dist.per_image[:, 0].tolist() == [1, 2, 3]

    def test_anchor_grid_built_once_per_size(self, monkeypatch):
        grids = []
        real = coco.generate_anchors

        def counting(config, size):
            grids.append(real(config, size))
            return grids[-1]

        monkeypatch.setattr(coco, "generate_anchors", counting)
        doc = dict(BASE_DOC, images=[
            {"id": i, "width": 64 + 32 * (i % 2), "height": 64}
            for i in range(1, 6)])
        run_match_stats(parse_corpus(doc), RunConfig())
        assert sorted(len(g) for g in grids) == [20, 30]
        assert not any(g.anchors.flags.writeable for g in grids)

    def test_max_iou_small_bucket_starved(self, tiny_corpus_path):
        corpus = load_corpus(tiny_corpus_path)
        config = RunConfig(matcher="max_iou",
                           matcher_params={"rescue": False})
        dist = run_match_stats(corpus, config)
        assert dist.zero_fraction("small") == 1.0
        assert dist.mean("large") >= 1.0

    def test_shift_deterministic(self, tiny_corpus_path):
        corpus = load_corpus(tiny_corpus_path)
        config = RunConfig(shift_max=16, seed=11)
        a = run_match_stats(corpus, config)
        b = run_match_stats(corpus, config)
        assert distribution_to_dict(a) == distribution_to_dict(b)

    @pytest.mark.parametrize("workers", ["2", "3", "4", "9"])
    @pytest.mark.parametrize("corpus_doc", [
        None,  # tests/data/tiny_corpus.json, 3 images
        dict(BASE_DOC, images=[], annotations=[]),
        dict(BASE_DOC, annotations=[], images=[
            {"id": i, "width": 64, "height": 48} for i in (7, 2, 5)]),
    ], ids=["tiny", "no-images", "no-annotations"])
    def test_thread_env(self, tiny_corpus_path, monkeypatch, corpus_doc,
                        workers):
        corpus = load_corpus(tiny_corpus_path) if corpus_doc is None \
            else parse_corpus(corpus_doc)
        config = RunConfig(shift_max=16, seed=3)
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "1")
        serial = run_match_stats(corpus, config)
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", workers)
        monkeypatch.setattr(coco, "_FORK_GTS", 1)  # fork on any 2 GTs
        assert worker_count() == int(workers)
        matched_here, aggregated_here = record_calls(monkeypatch)
        threaded = run_match_stats(corpus, config)
        assert distribution_to_dict(serial) == distribution_to_dict(threaded)
        forked = min(len(corpus.images), len(corpus.ids)) > 1
        assert matched_here == ([] if forked else [os.getpid()])
        assert aggregated_here == [os.getpid()]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fork_gts", [1, 3, 5])
    def test_forks_only_at_fork_gts_per_worker(self, monkeypatch, fork_gts):
        # one GT per image, at 2n - 1 GTs then at 2n
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "2")
        monkeypatch.setattr(coco, "_FORK_GTS", fork_gts)
        pools = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def recording_pool(workers, **kwargs):
            pools.append(workers)
            return real_pool(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recording_pool)
        matched_here, aggregated_here = record_calls(monkeypatch)
        for gts, fork in ((2 * fork_gts - 1, []), (2 * fork_gts, [2])):
            doc = dict(BASE_DOC, images=[
                {"id": i, "width": 64, "height": 48} for i in range(gts)],
                annotations=[{"id": i, "image_id": i, "bbox": [3, 3, 10, 12],
                              "category_id": 2} for i in range(gts)])
            pools.clear()
            matched_here.clear()
            aggregated_here.clear()
            dist = run_match_stats(parse_corpus(doc), RunConfig())
            assert dist.total_gts == gts
            assert pools == fork
            assert matched_here == ([] if fork else [os.getpid()])
            assert aggregated_here == [os.getpid()]
            assert multiprocessing.active_children() == []

    def test_auto_worker_count_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("YOLOF_ASSIGN_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5},
                            raising=False)
        assert worker_count() == 2
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "0")
        assert worker_count() == 2
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(12)))
        assert worker_count() == 8
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert worker_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count() == 1

    def test_without_fork_runs_in_process(self, tiny_corpus_path,
                                          monkeypatch):
        corpus = load_corpus(tiny_corpus_path)
        config = RunConfig(shift_max=16, seed=3)
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "1")
        serial = run_match_stats(corpus, config)
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "3")
        monkeypatch.setattr(coco, "_FORK_GTS", 1)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        aggregated_here = []
        real = coco.distribution

        def recording(results, *args, **kwargs):
            aggregated_here.append(len(results))
            return real(results, *args, **kwargs)

        monkeypatch.setattr(coco, "distribution", recording)
        in_process = run_match_stats(corpus, config)
        assert aggregated_here == [3]  # one chunk over the whole corpus
        assert distribution_to_dict(serial) \
            == distribution_to_dict(in_process)

    def test_bad_thread_env(self, monkeypatch):
        monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "lots")
        with pytest.raises(ValueError):
            worker_count()


class TestReports:
    def test_csv_schema(self, tiny_corpus_path):
        corpus = load_corpus(tiny_corpus_path)
        dist = run_match_stats(corpus, RunConfig())
        text = distribution_to_csv(dist)
        lines = text.strip().split("\n")
        assert lines[0] == ("matcher,bucket,gt_count,positives_total,"
                            "positives_mean,zero_fraction")
        assert len(lines) == 4
        assert lines[1].startswith("uniform,small,")

    def test_atomic_write_no_partial_on_error(self, tmp_path):
        target = tmp_path / "out.json"
        write_atomic(str(target), "ok")
        assert target.read_text() == "ok"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []

    def test_atomic_write_keeps_fifo(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        write_atomic(str(fifo), "report")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == ["report"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]

    def test_atomic_write_follows_symlink(self, tmp_path):
        target = tmp_path / "real.json"
        target.write_text("old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        write_atomic(str(link), "new")
        assert link.is_symlink()
        assert target.read_text() == "new"


# anchor and bucket configs of a wrong type, or whose anchor areas overflow
# or underflow, with what the error names
BAD_LAYOUTS = [
    ({"anchors": {"stride": 1.5}}, "stride must be an integer, got 1.5"),
    ({"anchors": {"stride": 32.0}}, "stride must be an integer, got 32.0"),
    ({"anchors": {"stride": True}}, "stride must be an integer, got True"),
    ({"anchors": {"sizes": [32, "64"]}},
     "sizes must be a list of finite real numbers, got (32, '64')"),
    ({"anchors": {"aspect_ratios": [False, 1.0]}},
     "aspect_ratios must be a list of finite real numbers"),
    ({"anchors": {"scale_multipliers": 2}},
     "scale_multipliers must be a list of finite real numbers, got 2"),
    ({"anchors": {"sizes": [1e308]}},
     "every anchor area must be positive and finite"),
    ({"anchors": {"sizes": [1e-170]}},
     "every anchor area must be positive and finite"),
    ({"buckets": {"small_max": True, "medium_max": 2}},
     "small_max must be a finite real number, got True"),
    ({"buckets": {"medium_max": "9216"}},
     "medium_max must be a finite real number, got '9216'"),
]


class TestCLI:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_anchors_count(self, capsys):
        code, out, _ = self.run(capsys, "anchors", "--config", "default",
                                "--image", "1280x800")
        assert code == 0
        assert json.loads(out)["count"] == 5000

    def test_rf_output(self, capsys):
        code, out, _ = self.run(capsys, "rf", "--dilations", "2,4,6,8")
        doc = json.loads(out)
        assert code == 0
        assert doc["max_extent"] == 43
        assert len(doc["extents"]) == 11

    def test_flops_ratio(self, capsys):
        _, mimo_out, _ = self.run(capsys, "flops", "--topology", "mimo")
        _, siso_out, _ = self.run(capsys, "flops", "--topology", "siso")
        mimo = json.loads(mimo_out)["total_macs"]
        siso = json.loads(siso_out)["total_macs"]
        assert mimo / siso >= 15.0

    def test_nms_two_box_fixture(self, capsys, tmp_path):
        dets = [{"bbox": [0, 0, 10, 10], "score": 0.9, "category_id": 1},
                {"bbox": [0, 0, 10, 9], "score": 0.8, "category_id": 1}]
        path = write_json(tmp_path / "dets.json", dets)
        code, out, _ = self.run(capsys, "nms", "--input", path,
                                "--iou", "0.6")
        assert code == 0
        kept = json.loads(out)
        assert len(kept) == 1
        assert kept[0]["score"] == 0.9

    def test_match_stats_csv(self, capsys, tiny_corpus_path):
        code, out, _ = self.run(capsys, "match-stats", "--input",
                                str(tiny_corpus_path), "--format", "csv")
        assert code == 0
        assert out.startswith("matcher,bucket,")

    @pytest.mark.parametrize("max_shift", [16, 0])
    def test_shift_output_replayed_box_by_box(self, capsys, tmp_path,
                                              max_shift):
        path = write_json(tmp_path / "c.json", SHUFFLED_DOC)
        code, out, err = self.run(capsys, "shift", "--input", path,
                                  "--seed", "2", "--max-shift",
                                  str(max_shift))
        assert (code, err) == (0, "")
        want = replay_shift(SHUFFLED_DOC, 2, max_shift)
        assert out == to_json(want)
        # at 16 some boxes leave their image; at 0 the edge-crossers clamp
        assert len(want["annotations"]) == {16: 5, 0: 8}[max_shift]

    def test_shift_roundtrip_parses(self, capsys, tiny_corpus_path):
        code, out, _ = self.run(capsys, "shift", "--input",
                                str(tiny_corpus_path), "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"images", "annotations", "categories"}

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["anchors", "--wrong-flag", "1"])
        assert exc.value.code == 1

    def test_data_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = self.run(capsys, "match-stats", "--input", str(bad))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command,flag", [
        ("match-stats", "--input"), ("match-stats", "--config"),
        ("match-stats", "--output"), ("nms", "--input"), ("nms", "--output")])
    def test_directory_argument_exit_2(self, capsys, tmp_path,
                                       tiny_corpus_path, command, flag):
        args = {"--input": str(tiny_corpus_path)} if command == "match-stats" \
            else {"--input": write_json(tmp_path / "dets.json", [])}
        args[flag] = str(tmp_path)
        code, out, err = self.run(capsys, command,
                                  *[v for kv in args.items() for v in kv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("command,flag", [
        ("match-stats", "--input"), ("match-stats", "--config"),
        ("nms", "--input")])
    def test_file_not_utf8_exit_2(self, capsys, tmp_path, tiny_corpus_path,
                                  command, flag):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"name": "café"}'.encode("latin-1"))
        args = {"--input": str(tiny_corpus_path), flag: str(bad)}
        code, out, err = self.run(capsys, command,
                                  *[v for kv in args.items() for v in kv])
        assert (code, out) == (2, "")
        assert err == (f"error: {bad}: not UTF-8 text: invalid continuation "
                       f"byte at byte 13\n")

    # 20x20 image 6 has 5 anchors and 6 GTs; it sits in the second of two
    # chunks
    ODD_IMAGE_DOC = dict(BASE_DOC, images=[
        {"id": i, "width": 320, "height": 256} for i in range(1, 6)]
        + [{"id": 6, "width": 20, "height": 20},
           {"id": 7, "width": 320, "height": 256}],
        annotations=[{"id": i, "image_id": i, "bbox": [3, 3, 10, 12],
                      "category_id": 2} for i in range(1, 8)]
        + [{"id": 10 + i, "image_id": 6, "bbox": [i, i, 6, 6],
            "category_id": 2} for i in range(5)])

    def test_image_error_from_a_worker_exit_2(self, capsys, tmp_path,
                                              monkeypatch):
        solve_assignment = matching.solve_assignment

        def fail_on_image_6(cost):
            if cost.shape == (5, 6):  # 6 GTs on 5 anchors, transposed
                raise ValueError("no assignment")
            return solve_assignment(cost)

        monkeypatch.setattr(matching, "solve_assignment", fail_on_image_6)
        corpus = write_json(tmp_path / "c.json", self.ODD_IMAGE_DOC)
        cfg = write_json(tmp_path / "cfg.json", {"matcher": "hungarian"})
        runs = []
        monkeypatch.setattr(coco, "_FORK_GTS", 1)  # image 6 in worker 2
        for workers in ("1", "2"):
            monkeypatch.setenv("YOLOF_ASSIGN_THREADS", workers)
            runs.append(self.run(capsys, "match-stats", "--input", corpus,
                                 "--config", cfg))
            assert multiprocessing.active_children() == []
        assert runs[0] == runs[1] == (2, "",
                                      "error: image 6: no assignment\n")

    @staticmethod
    def no_memory_past(width):
        """``generate_anchors`` that raises MemoryError, as numpy does, for
        an image wider than ``width``, allocating nothing."""
        generate_anchors = coco.generate_anchors

        def fake(anchors, size):
            if size.width > width:
                raise MemoryError("Unable to allocate 7.45 GiB for an array")
            return generate_anchors(anchors, size)
        return fake

    def test_grid_too_large_exit_2(self, capsys, tmp_path, monkeypatch):
        doc = dict(BASE_DOC, images=[
            {"id": 3, "width": 3_200_000, "height": 320_000},
            {"id": 1, "width": 64, "height": 64},
            {"id": 2, "width": 3_200_000, "height": 320_000}])
        monkeypatch.setattr(coco, "generate_anchors",
                            self.no_memory_past(64))
        assert self.run(capsys, "match-stats", "--input",
                        write_json(tmp_path / "c.json", doc)) == (
            2, "", "error: image 2: Unable to allocate 7.45 GiB for an "
                   "array\n")
        monkeypatch.setattr(cli, "generate_anchors", self.no_memory_past(64))
        assert self.run(capsys, "anchors", "--image", "3200000x320000") == (
            2, "", "error: Unable to allocate 7.45 GiB for an array\n")

    def test_hungarian_on_more_gts_than_anchors(self, capsys, tmp_path,
                                                monkeypatch):
        # every anchor of image 6 goes to a distinct GT, one GT gets none
        corpus = write_json(tmp_path / "c.json", self.ODD_IMAGE_DOC)
        cfg = write_json(tmp_path / "cfg.json", {"matcher": "hungarian"})
        runs = []
        monkeypatch.setattr(coco, "_FORK_GTS", 1)  # image 6 in worker 2
        for workers in ("1", "2"):
            monkeypatch.setenv("YOLOF_ASSIGN_THREADS", workers)
            runs.append(self.run(capsys, "match-stats", "--input", corpus,
                                 "--config", cfg))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, err) == (0, "")
        row = json.loads(out)["per_image"][5]
        assert row["image_id"] == 6
        assert sorted(row["positives_per_gt"]) == [0, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("doc,named", [
        ({"matcher": "atss", "matcher_params": {"kk": 50}}, "'kk'"),
        ({"matcher": "hungarian", "matcher_params": {"k": 3}}, "'k'"),
        ({"anchors": {"strid": 16}}, "'strid'"),
        ({"anchors": [1, 2]}, "[1, 2]"),
        ({"buckets": {"small_max": 10, "large_max": 99}}, "'large_max'"),
        ([["matcher", "atss"]], "top level must be an object"),
        ({"seed": 1.5, "shift_max": 4},
         "seed must be a non-negative integer, got 1.5"),
        ({"seed": "3"}, "seed must be a non-negative integer, got '3'"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": None}, "seed must be a non-negative integer, got None"),
        ({"seed": 1e400}, "seed must be a non-negative integer, got inf"),
        ({"shift_max": True},
         "shift_max must be a non-negative integer, got True"),
        ({"shift_max": 1.5},
         "shift_max must be a non-negative integer, got 1.5"),
        ({"shift_max": -4},
         "shift_max must be a non-negative integer, got -4"),
        *BAD_LAYOUTS,
    ])
    def test_bad_config_exit_2(self, capsys, tmp_path, tiny_corpus_path,
                               doc, named):
        cfg = write_json(tmp_path / "cfg.json", doc)
        code, out, err = self.run(capsys, "match-stats", "--input",
                                  str(tiny_corpus_path), "--config", cfg)
        assert code == 2
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("doc,named", BAD_LAYOUTS)
    def test_bad_layout_exit_2_from_anchors(self, capsys, tmp_path, doc,
                                            named):
        cfg = write_json(tmp_path / "cfg.json", doc)
        code, out, err = self.run(capsys, "anchors", "--config", cfg,
                                  "--image", "64x64")
        assert (code, out) == (2, "")
        assert named in err

    @pytest.mark.parametrize("matcher,params,named", [
        ("uniform", {"k": 4.5}, "k must be an integer, got 4.5"),
        ("atss", {"k": True}, "k must be an integer, got True"),
        ("topk", {"k": "4"}, "k must be an integer, got '4'"),
        ("max_iou", {"rescue": "no"}, "rescue must be a bool, got 'no'"),
        ("max_iou", {"rescue": 0}, "rescue must be a bool, got 0"),
        ("uniform", {"pos_ignore_iou": "0.1"},
         "pos_ignore_iou must be a finite real number, got '0.1'"),
        ("max_iou", {"pos_iou": float("nan")},
         "pos_iou must be a finite real number, got nan"),
        ("uniform", {"neg_ignore_iou": float("inf")},
         "neg_ignore_iou must be a finite real number, got inf"),
        ("max_iou", {"neg_iou": False},
         "neg_iou must be a finite real number, got False"),
    ])
    def test_bad_matcher_param_value_exit_2(self, capsys, tmp_path,
                                            tiny_corpus_path, matcher,
                                            params, named):
        cfg = write_json(tmp_path / "cfg.json",
                         {"matcher": matcher, "matcher_params": params})
        code, out, err = self.run(capsys, "match-stats", "--input",
                                  str(tiny_corpus_path), "--config", cfg)
        assert code == 2
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("shift_max", [0, 4])
    def test_negative_seed_flag_exit_2(self, capsys, tmp_path,
                                       tiny_corpus_path, shift_max):
        cfg = write_json(tmp_path / "cfg.json", {"shift_max": shift_max})
        code, out, err = self.run(capsys, "match-stats", "--input",
                                  str(tiny_corpus_path), "--config", cfg,
                                  "--seed", "-1")
        assert (code, out) == (2, "")
        assert "seed must be a non-negative integer, got -1" in err

    def test_integral_seed_written_as_an_integer(self, capsys, tmp_path,
                                                 tiny_corpus_path):
        cfg = write_json(tmp_path / "cfg.json", {"seed": 3.0, "shift_max": 4})
        code, out, _ = self.run(capsys, "match-stats", "--input",
                                str(tiny_corpus_path), "--config", cfg)
        assert code == 0
        assert json.loads(out)["seed"] == 3
        assert RunConfig(seed=3.0, shift_max=4.0) == RunConfig(seed=3,
                                                               shift_max=4)

    @pytest.mark.parametrize("argv,named", [
        (["rf", "--stride", "0"], "stride must be >= 1, got 0"),
        (["rf", "--stride", "-32"], "stride must be >= 1, got -32"),
        (["flops", "--anchors-per-position", "-3"],
         "anchors_per_position must be >= 0, got -3"),
        (["flops", "--head-convs", "-1"], "cls_convs must be >= 0, got -1"),
    ])
    def test_negative_model_size_exit_2(self, capsys, argv, named):
        code, out, err = self.run(capsys, *argv)
        assert (code, out) == (2, "")
        assert named in err

    @pytest.mark.parametrize("value", ["a", "2,x", "2,,4", "1.5"])
    def test_bad_dilations_named_exit_2(self, capsys, value):
        code, out, err = self.run(capsys, "rf", "--dilations", value)
        assert (code, out) == (2, "")
        assert err == (f"error: bad --dilations value {value!r}; expected "
                       f"comma-separated integers\n")

    def test_integer_thresholds_accepted(self, capsys, tmp_path,
                                         tiny_corpus_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "matcher": "uniform",
            "matcher_params": {"pos_ignore_iou": 0, "neg_ignore_iou": 1}})
        code, _, _ = self.run(capsys, "match-stats", "--input",
                              str(tiny_corpus_path), "--config", cfg)
        assert code == 0

    @pytest.mark.parametrize("bbox", [[float("nan"), 1, 2, 3],
                                      [1, 1, float("inf"), 3],
                                      ["-inf", 1, 2, 3], [1e308, 1, 1e308, 3]])
    def test_non_finite_bbox_exit_2(self, capsys, tmp_path, bbox):
        doc = dict(BASE_DOC, annotations=BASE_DOC["annotations"] + [
            {"id": 7, "image_id": 1, "bbox": bbox, "category_id": 2}])
        path = write_json(tmp_path / "c.json", doc)
        with pytest.raises(CorpusError, match="annotation 7 has a "
                                              "non-finite bbox"):
            load_corpus(path)
        code, out, err = self.run(capsys, "match-stats", "--input", path)
        assert code == 2
        assert out == ""
        assert "annotation 7" in err

    # a box 640x480 image 1 holds, beside one ordinary annotation
    def huge_box_doc(self, tmp_path, bbox):
        doc = {"images": [{"id": 1, "width": 640, "height": 480}],
               "annotations": [
                   {"id": 1, "image_id": 1, "bbox": [10, 20, 30, 40],
                    "category_id": 2},
                   {"id": 7, "image_id": 1, "bbox": bbox, "category_id": 2}],
               "categories": [{"id": 2}]}
        return write_json(tmp_path / "c.json", doc)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("matcher", sorted(MATCHERS))
    @pytest.mark.parametrize("bbox", [
        # finite corners, but an area and a center norm past float64
        [-1.7e308, -1.7e308, 1.75e308, 1.75e308],
        # an area of 1.5e8, but a center at x = -7.5e307
        [-1.5e308, 0, 1.5000000000000002e+308, 1e-300],
    ], ids=["area", "center"])
    def test_overflowing_bbox_exit_2(self, capsys, tmp_path, matcher, bbox):
        path = self.huge_box_doc(tmp_path, bbox)
        cfg = write_json(tmp_path / "cfg.json", {"matcher": matcher})
        code, out, err = self.run(capsys, "match-stats", "--input", path,
                                  "--config", cfg)
        assert code == 2
        assert out == ""
        assert "annotation 7 in image 1" in err
        assert "overflows" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("matcher", sorted(MATCHERS))
    def test_bbox_extent_rounding_to_zero_dropped(self, capsys, tmp_path,
                                                  matcher):
        # y + h rounds back to y: the stored box has no height
        path = self.huge_box_doc(tmp_path, [-1e308, 10, 1.00001e308, 1e-300])
        cfg = write_json(tmp_path / "cfg.json", {"matcher": matcher})
        code, out, err = self.run(capsys, "match-stats", "--input", path,
                                  "--config", cfg)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["dropped_annotations"] == 1
        assert doc["total_gts"] == 1

    @pytest.mark.parametrize("bbox", [
        [-20, 10, 10, 10],  # left of the image
        [70, 10, 5, 5],  # right
        [10, -30, 5, 10],  # above
        [10, 64.5, 5, 5],  # below
        [-10, 10, 10, 10],  # touches the left edge only
        [10, 64, 5, 5],  # touches the bottom edge only
    ])
    def test_box_outside_image_exit_2(self, capsys, tmp_path, bbox):
        doc = dict(BASE_DOC, annotations=BASE_DOC["annotations"] + [
            {"id": 7, "image_id": 1, "bbox": bbox, "category_id": 2}])
        path = write_json(tmp_path / "c.json", doc)
        with pytest.raises(CorpusError, match=r"annotation 7 has a bbox .* "
                                              r"entirely outside image 1 "):
            load_corpus(path)
        for command in ("match-stats", "shift"):
            code, out, err = self.run(capsys, command, "--input", path)
            assert (code, out) == (2, "")
            assert "annotation 7" in err and "image 1" in err

    @pytest.mark.parametrize("key,record,value", [
        ("images", "image", 2 ** 63),
        ("annotations", "annotation", -2 ** 63 - 1),
        ("annotations", "annotation", 2 ** 64),  # as the category id
    ])
    def test_id_beyond_int64_exit_2(self, capsys, tmp_path, key, record,
                                    value):
        doc = json.loads(json.dumps(BASE_DOC))
        doc[key][0]["category_id" if value == 2 ** 64 else "id"] = value
        path = write_json(tmp_path / "c.json", doc)
        code, out, err = self.run(capsys, "shift", "--input", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad {record} record ")
        assert f"{value} does not fit the int64 columns" in err

    @pytest.mark.parametrize("key,name,value,record", [
        ("images", "id", 1.5, "image"),
        ("images", "width", 640.9, "image"),
        ("images", "height", 64.5, "image"),
        ("annotations", "id", 1.5, "annotation"),
        ("annotations", "image_id", 1.9, "annotation"),
        ("annotations", "image_id", True, "annotation"),
        ("annotations", "category_id", 1.7, "annotation"),
    ], ids=["image-id", "width", "height", "annotation-id", "image_id",
            "image_id-true", "category_id"])
    def test_fractional_or_bool_integer_exit_2(self, capsys, tmp_path, key,
                                               name, value, record):
        # int() would truncate each of these to a valid value
        doc = json.loads(json.dumps(BASE_DOC))
        doc[key][0][name] = value
        path = write_json(tmp_path / "c.json", doc)
        for command in ("match-stats", "shift"):
            code, out, err = self.run(capsys, command, "--input", path)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: bad {record} record {{'id': ")
            assert f"{value!r} is not an integer" in err

    @pytest.mark.parametrize("key,name,literal,record", [
        ("annotations", "bbox", f"[{'9' * 400}, 1, 2, 3]", "annotation"),
        ("images", "width", "Infinity", "image"),
        ("annotations", "image_id", "1e400", "annotation"),
    ], ids=["bbox-400-digits", "width-Infinity", "image_id-1e400"])
    def test_number_overflow_exit_2(self, capsys, tmp_path, key, name,
                                    literal, record):
        # float() of a 400-digit integer and int() of an infinity raise
        # OverflowError, not ValueError
        doc = json.loads(json.dumps(BASE_DOC))
        doc[key][0][name] = "@"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        for command in ("match-stats", "shift"):
            code, out, err = self.run(capsys, command, "--input", str(path))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: bad {record} record {{'id': 1, ")

    @pytest.mark.parametrize("bbox", NOT_ARRAYS, ids=["string", "object"])
    def test_bbox_not_an_array_exit_2(self, capsys, tmp_path, bbox):
        # iterated, each would be read as a box from its characters or keys
        doc = json.loads(json.dumps(BASE_DOC))
        doc["annotations"][0]["bbox"] = bbox
        path = write_json(tmp_path / "c.json", doc)
        for argv in (["match-stats"], ["shift", "--max-shift", "0"]):
            code, out, err = self.run(capsys, *argv, "--input", path)
            assert (code, out) == (2, "")
            assert err == (f"error: bad annotation record "
                           f"{doc['annotations'][0]!r}: bbox must be an "
                           f"array, got {bbox!r}\n")

    @pytest.mark.parametrize("bbox,bad", [([True, 0, 10, 10], True),
                                          ([0, 0, 10, False], False)],
                             ids=["true", "false"])
    def test_bool_in_bbox_exit_2(self, capsys, tmp_path, bbox, bad):
        # float() would read a bool as 1.0 or 0.0: the first box would be
        # counted, the second dropped for its zero height
        doc = json.loads(json.dumps(BASE_DOC))
        doc["annotations"][0]["bbox"] = bbox
        path = write_json(tmp_path / "c.json", doc)
        for command in ("match-stats", "shift"):
            code, out, err = self.run(capsys, command, "--input", path)
            assert (code, out) == (2, "")
            assert err == (f"error: bad annotation record "
                           f"{doc['annotations'][0]!r}: {bad} is not a "
                           f"number\n")

    @pytest.mark.parametrize("bbox", NOT_ARRAYS, ids=["string", "object"])
    def test_detection_bbox_not_an_array_exit_2(self, capsys, tmp_path,
                                                bbox):
        dets = [{"bbox": [0, 0, 1, 1], "score": 0.5, "category_id": 0},
                {"bbox": bbox, "score": 0.5, "category_id": 0}]
        path = write_json(tmp_path / "dets.json", dets)
        code, out, err = self.run(capsys, "nms", "--input", path)
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: bad detection #1: bbox must be an "
                       f"array, got {bbox!r}\n")

    @pytest.mark.parametrize("name,value", [
        ("score", 10 ** 400), ("bbox", [0, 0, 10 ** 400, 1])],
        ids=["score-400-digits", "bbox-400-digits"])
    def test_detection_number_overflow_exit_2(self, capsys, tmp_path, name,
                                              value):
        dets = [{"bbox": [0, 0, 1, 1], "score": 0.5, "category_id": 0},
                {"bbox": [0, 0, 1, 1], "score": 0.5, "category_id": 0}]
        dets[1][name] = value
        path = write_json(tmp_path / "dets.json", dets)
        code, out, err = self.run(capsys, "nms", "--input", path)
        assert (code, out) == (2, "")
        assert "bad detection #1: " in err

    @pytest.mark.parametrize("value", [1.7, True])
    def test_fractional_or_bool_detection_class_exit_2(self, capsys,
                                                       tmp_path, value):
        # int() would truncate both to class 1, which suppresses box #1
        dets = [{"bbox": [0, 0, 10, 10], "score": 0.9, "category_id": 1},
                {"bbox": [0, 0, 10, 9], "score": 0.8, "category_id": value}]
        path = write_json(tmp_path / "dets.json", dets)
        code, out, err = self.run(capsys, "nms", "--input", path)
        assert (code, out) == (2, "")
        assert f"bad detection #1: {value!r} is not an integer" in err

    @pytest.mark.parametrize("name,value,bad", [
        ("bbox", [True, 0, 10, 10], True), ("bbox", [0, 0, 10, False], False),
        ("score", True, True)], ids=["bbox-true", "bbox-false", "score-true"])
    def test_bool_detection_number_exit_2(self, capsys, tmp_path, name,
                                          value, bad):
        # float() would read a bool as 0.0 or 1.0
        dets = [{"bbox": [0, 0, 10, 10], "score": 0.9, "category_id": 1},
                {"bbox": [0, 0, 10, 9], "score": 0.8, "category_id": 1}]
        dets[1][name] = value
        path = write_json(tmp_path / "dets.json", dets)
        code, out, err = self.run(capsys, "nms", "--input", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: bad detection #1: {bad} is not a " \
                      f"number\n"

    @pytest.mark.parametrize("value", [1.0, "1"])
    def test_integral_detection_class_accepted(self, capsys, tmp_path,
                                               value):
        dets = [{"bbox": [0, 0, 10, 10], "score": 0.9, "category_id": 1},
                {"bbox": [0, 0, 10, 9], "score": 0.8, "category_id": value}]
        path = write_json(tmp_path / "dets.json", dets)
        code, out, _ = self.run(capsys, "nms", "--input", path)
        assert code == 0
        assert json.loads(out) == [dict(dets[0], bbox=[0.0, 0.0, 10.0, 10.0],
                                        category_id=1)]

    def test_negative_category_id_exit_2(self, capsys, tmp_path):
        doc = dict(BASE_DOC, annotations=BASE_DOC["annotations"] + [
            {"id": 7, "image_id": 1, "bbox": [5, 5, 10, 10],
             "category_id": -3}])
        path = write_json(tmp_path / "c.json", doc)
        for command in ("match-stats", "shift"):
            code, out, err = self.run(capsys, command, "--input", path)
            assert (code, out) == (2, "")
            assert err == ("error: annotation 7 in image 1 has a negative "
                           "category_id -3\n")

    @pytest.mark.parametrize("literal", [
        "[NaN, 0, 10, 10]", "[0, 0, Infinity, 10]", "[0, -Infinity, 10, 10]"])
    def test_non_finite_detection_exit_2(self, capsys, tmp_path, literal):
        dets = [{"bbox": [0, 0, 10, 10], "score": 0.9, "category_id": 1},
                {"bbox": "@", "score": 0.8, "category_id": 1}]
        path = tmp_path / "dets.json"
        path.write_text(json.dumps(dets).replace('"@"', literal))
        code, out, err = self.run(capsys, "nms", "--input", str(path))
        assert (code, out) == (2, "")
        assert "bad detection #1: box must be finite" in err

    @pytest.mark.parametrize("boxes,bad", [
        ([[0, 0, 10]], 0),
        ([[0, 0, 10, 10], [0, 0, 10], [5, 5, 20, 20]], 1)],
        ids=["lone", "among-four"])
    def test_detection_box_of_three_values_exit_2(self, capsys, tmp_path,
                                                  boxes, bad):
        dets = [{"bbox": b, "score": 0.9, "category_id": 1} for b in boxes]
        path = write_json(tmp_path / "dets.json", dets)
        code, out, err = self.run(capsys, "nms", "--input", path)
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: bad detection #{bad}: box must have "
                       f"4 values, got 3\n")

    def test_box_straddling_edge_accepted(self, capsys, tmp_path):
        doc = dict(BASE_DOC, annotations=BASE_DOC["annotations"] + [
            {"id": 7, "image_id": 1, "bbox": [-5, 60, 10, 10],
             "category_id": 2},
            # degenerate boxes are dropped before the outside check
            {"id": 8, "image_id": 1, "bbox": [99, 99, 0, 5],
             "category_id": 2}])
        corpus = parse_corpus(doc)
        assert corpus.ids.tolist() == [1, 7]
        assert corpus.dropped == 1
        code, out, _ = self.run(capsys, "match-stats", "--input",
                                write_json(tmp_path / "c.json", doc))
        assert code == 0
        assert json.loads(out)["total_gts"] == 2

    def test_duplicate_image_id_exit_2(self, capsys, tmp_path):
        doc = dict(BASE_DOC, images=BASE_DOC["images"] + [
            {"id": 1, "width": 32, "height": 48}])
        path = write_json(tmp_path / "c.json", doc)
        with pytest.raises(CorpusError, match="duplicate image id 1 in "
                                              "image record .*'width': 32"):
            load_corpus(path)
        code, out, err = self.run(capsys, "match-stats", "--input", path)
        assert code == 2
        assert out == ""
        assert "duplicate image id 1" in err

    def test_negative_max_shift_exit_2(self, capsys, tiny_corpus_path):
        code, out, err = self.run(capsys, "shift", "--input",
                                  str(tiny_corpus_path), "--max-shift", "-3")
        assert code == 2
        assert out == ""
        assert "max_shift must be >= 0, got -3" in err

    def test_negative_max_shift_on_no_images_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path / "c.json", {"images": [],
                                                "annotations": [],
                                                "categories": []})
        code, out, err = self.run(capsys, "shift", "--input", path,
                                  "--max-shift", "-1")
        assert (code, out) == (2, "")
        assert "max_shift must be >= 0, got -1" in err

    @pytest.mark.parametrize("corpus", ["tiny", "no-images"])
    def test_negative_seed_exit_2(self, capsys, tmp_path, tiny_corpus_path,
                                  corpus):
        path = str(tiny_corpus_path) if corpus == "tiny" else write_json(
            tmp_path / "c.json",
            {"images": [], "annotations": [], "categories": []})
        code, out, err = self.run(capsys, "shift", "--input", path,
                                  "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    # image -3 is read; only a shift above 0 needs a non-negative id
    NEGATIVE_ID_DOC = dict(BASE_DOC, images=[
        {"id": -3, "width": 64, "height": 64},
        {"id": 1, "width": 64, "height": 64}], annotations=[
        {"id": 1, "image_id": -3, "bbox": [-5, 20, 30, 40],
         "category_id": 2}])

    @pytest.mark.parametrize("command", ["match-stats", "shift"])
    def test_negative_image_id_shifted_exit_2(self, capsys, tmp_path,
                                              command):
        path = write_json(tmp_path / "c.json", self.NEGATIVE_ID_DOC)
        flags = ["--max-shift", "4"] if command == "shift" else [
            "--config", write_json(tmp_path / "cfg.json", {"shift_max": 32})]
        code, out, err = self.run(capsys, command, "--input", path, *flags)
        assert (code, out) == (2, "")
        assert err == ("error: image -3 has a negative id; a shift above 0 "
                       "is drawn only for ids >= 0\n")

    def test_negative_image_id_at_max_shift_0_clamps(self, capsys,
                                                     tmp_path):
        path = write_json(tmp_path / "c.json", self.NEGATIVE_ID_DOC)
        code, out, err = self.run(capsys, "shift", "--input", path,
                                  "--max-shift", "0")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [img["id"] for img in doc["images"]] == [-3, 1]
        assert doc["annotations"] == [
            {"id": 1, "image_id": -3, "bbox": [0.0, 20.0, 25.0, 40.0],
             "category_id": 2}]
        code, out, err = self.run(capsys, "match-stats", "--input", path)
        assert (code, err) == (0, "")
        assert json.loads(out)["total_gts"] == 1

    def test_detections_must_be_an_array(self, capsys, tmp_path):
        path = write_json(tmp_path / "dets.json", {"bbox": [0, 0, 1, 1]})
        code, out, err = self.run(capsys, "nms", "--input", path)
        assert code == 2
        assert "top level must be an array" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = self.run(capsys, "nms", "--input", "/nope/x.json")
        assert code == 2

    def test_output_files_written_atomically(self, tmp_path, capsys):
        out_path = tmp_path / "anchors.json"
        code, _, _ = self.run(capsys, "anchors", "--image", "64x64",
                              "--output", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["count"] == 20

    def test_max_shift_past_int64_exit_2(self, capsys, tiny_corpus_path):
        code, out, err = self.run(capsys, "shift", "--input",
                                  str(tiny_corpus_path), "--max-shift",
                                  str(2 ** 63))
        assert (code, out) == (2, "")
        assert err == (f"error: max_shift must be a non-negative integer, "
                       f"got {2 ** 63}\n")


class TestMainReuse:
    """``main`` builds its parser once per process and runs each command
    with the cyclic GC off, restoring the caller's GC state."""

    @pytest.fixture
    def gc_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def outcomes(self, capsys, monkeypatch):
        """``(exit code, GC on afterwards)`` of a success, a data error, a
        usage error and an exception raised inside a command."""
        got = [(main(["anchors", "--image", "64x64"]), gc.isenabled()),
               (main(["match-stats", "--input", "/nope/x.json"]),
                gc.isenabled())]
        with pytest.raises(SystemExit) as usage:
            main(["match-stats"])
        got.append((usage.value.code, gc.isenabled()))
        monkeypatch.setattr(cli, "rf_profile", self.raise_runtime_error)
        with pytest.raises(RuntimeError):
            main(["rf"])
        got.append(("raised", gc.isenabled()))
        capsys.readouterr()
        return got

    @staticmethod
    def raise_runtime_error(*args):
        raise RuntimeError("from inside a command")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, capsys, monkeypatch, gc_state,
                               enabled):
        (gc.enable if enabled else gc.disable)()
        assert self.outcomes(capsys, monkeypatch) == [
            (0, enabled), (2, enabled), (1, enabled), ("raised", enabled)]

    def test_gc_off_during_a_command(self, capsys, monkeypatch, gc_state):
        gc.enable()
        seen = []
        profile = cli.rf_profile

        def spy(spec):
            seen.append(gc.isenabled())
            return profile(spec)

        monkeypatch.setattr(cli, "rf_profile", spy)
        assert main(["rf"]) == 0
        assert seen == [False] and gc.isenabled()
        capsys.readouterr()

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build())
        for _ in range(3):
            assert main(["anchors", "--image", "64x64"]) == 0
        assert built == [1]
        capsys.readouterr()

    def test_same_bytes_as_separate_processes(self, capsys, tmp_path):
        corpus = write_json(tmp_path / "c.json", seeded_corpus())
        config = write_json(tmp_path / "cfg.json",
                            {"matcher": "atss", "shift_max": 8, "seed": 5})
        dets = write_json(tmp_path / "dets.json", [
            {"bbox": [0, 0, 10, 10], "score": 0.9, "category_id": 1},
            {"bbox": [1, 0, 10, 9], "score": 0.8, "category_id": 1},
            {"bbox": [30, 30, 40, 45], "score": 0.7, "category_id": 2}])
        stats = ["match-stats", "--config", config, "--input", corpus]
        argvs = [stats + ["--seed", "9"], stats,  # the config's seed, 5
                 ["nms", "--input", dets], stats + ["--format", "csv"],
                 stats, ["shift", "--input", corpus, "--seed", "3"],
                 ["shift", "--input", corpus]]
        in_process = []
        for argv in argvs:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        separate = [
            (proc.returncode, proc.stdout) for proc in (
                subprocess.run([sys.executable, "-m", "yolof_assign.cli",
                                *argv], capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=str(src)))
                for argv in argvs)]
        assert in_process == separate
        assert in_process[0] != in_process[1]  # --seed is not kept
        assert in_process[5] != in_process[6]
        assert in_process[3][1].startswith("matcher,bucket,")


# Runs every matcher, nms and shift in one process, with the Hungarian
# solver wrapped to count the colliding images it solves.
LAZY_SCRIPT = """
import sys
from yolof_assign import matching
from yolof_assign.cli import main

solved, solve = [], matching.solve_assignment
matching.solve_assignment = lambda cost: solved.append(1) or solve(cost)
corpus, dets, *configs = sys.argv[1:]
argvs = [["match-stats", "--input", corpus, "--config", c] for c in configs]
argvs += [["nms", "--input", dets], ["shift", "--input", corpus]]
assert [main(argv) for argv in argvs] == [0] * len(argvs)
assert solved, "no Hungarian collision"
assert "numpy.ma" not in sys.modules
"""


def test_commands_leave_numpy_ma_out(tmp_path):
    # numpy.ma takes about 11 ms to import; np.isin, among others, loads it
    inputs = test_bench_inputs.bench_inputs()
    corpus = write_json(tmp_path / "corpus.json", inputs.sweep_corpus(1))
    dets = write_json(tmp_path / "dets.json", inputs.detections(1))
    configs = [write_json(tmp_path / f"{m}.json",
                          {"matcher": m, "shift_max": 32}) for m in MATCHERS]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_SCRIPT, corpus, dets, *configs],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src), YOLOF_ASSIGN_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
