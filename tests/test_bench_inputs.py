"""The benchmark's inputs take the reader's per-column gate.

``perfbench/inputs.py`` is compiled from its source, and nothing under
``perfbench/`` is written.  A rule change that sent a column of its
corpus or of its detections to the value converters would make
match-sweep and nms-4k time the slow path; these tests fail first.
"""

import pathlib
import types

import pytest

from yolof_assign import coco

INPUTS = pathlib.Path(__file__).parents[1] / "perfbench" / "inputs.py"


def bench_inputs():
    module = types.ModuleType("bench_inputs")
    exec(compile(INPUTS.read_text(), str(INPUTS), "exec"), module.__dict__)
    return module


def no_converter(*args):
    raise AssertionError("a value converter ran")


@pytest.fixture
def gate_only(monkeypatch):
    for name in ("as_int64", "as_number", "bbox_values"):
        monkeypatch.setattr(coco, name, no_converter)


def test_sweep_corpus_takes_the_gate(gate_only):
    doc = bench_inputs().sweep_corpus(1)
    assert len(coco.parse_corpus(doc).ids) == len(doc["annotations"])


def test_detections_take_the_gate(gate_only, tmp_path):
    inputs = bench_inputs()
    dets = inputs.detections(1)
    path = tmp_path / "dets.json"
    inputs.write_json(path, dets)
    assert len(coco.load_detections(path)[0]) == len(dets)
