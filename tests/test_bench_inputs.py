"""The benchmark's inputs take the readers' exact-type gate.

``perfbench/inputs.py`` is compiled from its source, and nothing under
``perfbench/`` is written.  A rule change that sent its corpus or its
detections to the row converter would make match-sweep and nms-4k time
the slow path; these tests fail first.
"""

import pathlib
import types

from yolof_assign import cli, coco

INPUTS = pathlib.Path(__file__).parents[1] / "perfbench" / "inputs.py"


def bench_inputs():
    module = types.ModuleType("bench_inputs")
    exec(compile(INPUTS.read_text(), str(INPUTS), "exec"), module.__dict__)
    return module


def no_converter(*args):
    raise AssertionError("the row converter ran")


def test_sweep_corpus_takes_the_gate(monkeypatch):
    doc = bench_inputs().sweep_corpus(1)
    assert coco._typed_corpus(doc) is not None
    monkeypatch.setattr(coco, "_converted_corpus", no_converter)
    assert len(coco.parse_corpus(doc).ids) == len(doc["annotations"])


def test_detections_take_the_gate(monkeypatch, tmp_path):
    inputs = bench_inputs()
    dets = inputs.detections(1)
    assert cli._typed_detections(dets) is not None
    path = tmp_path / "dets.json"
    inputs.write_json(path, dets)
    monkeypatch.setattr(cli, "_converted_detections", no_converter)
    assert len(cli._load_detections(path)[0]) == len(dets)
