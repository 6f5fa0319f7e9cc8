"""The benchmark's traced run still finds every attribute it wraps.

``perfbench/tracer.py`` wraps functions at the module attributes their
callers look them up through; renaming or inlining one makes the traced
benchmark child exit 70.  This runs that child on small inputs.
"""

import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from yolof_assign.matching import MATCHERS

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
HARNESS_EXIT = 70


def test_traced_child_finds_every_layer(tmp_path, tiny_corpus_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"matcher": "uniform", "shift_max": 16}))
    dets = tmp_path / "dets.json"
    dets.write_text(json.dumps([
        {"bbox": [0, 0, 10, 10], "score": 0.9, "category_id": 1},
        {"bbox": [0, 0, 10, 9], "score": 0.8, "category_id": 1}]))
    spans = tmp_path / "spans.json"
    spec = {"argvs": [["match-stats", "--config", str(config),
                       "--input", str(tiny_corpus_path),
                       "--output", str(tmp_path / "match.json"),
                       "--seed", "3"],
                      ["nms", "--input", str(dets),
                       "--output", str(tmp_path / "nms.json")]],
            "src": str(ROOT / "src"), "spans": str(spans), "op": 0}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               YOLOF_ASSIGN_THREADS="1")
    proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != HARNESS_EXIT, proc.stderr
    assert proc.returncode == 0, proc.stderr
    calls = Counter(span[0] for span in json.loads(spans.read_text())["spans"])
    assert calls["geometry.apply_shift"] >= 1
    assert calls["balance.distribution"] == 1
    assert calls["postprocess.nms"] == 1


@pytest.mark.parametrize("matcher", MATCHERS)
def test_traced_counts_equal_the_report(tmp_path, seeded_corpus_path,
                                        matcher):
    """Each matcher's traced aggregation holds its report's GTs."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"matcher": matcher, "shift_max": 32}))
    report = tmp_path / "match.json"
    spans = tmp_path / "spans.json"
    spec = {"argvs": [["match-stats", "--config", str(config),
                       "--input", str(seeded_corpus_path),
                       "--output", str(report),
                       "--seed", "7"]],
            "src": str(ROOT / "src"), "spans": str(spans), "op": 0}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               YOLOF_ASSIGN_THREADS="1")
    proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    extras = {}
    for name, *_, extra in json.loads(spans.read_text())["spans"]:
        extras.setdefault(name, []).append(extra)
    doc = json.loads(report.read_text())
    assert extras["balance.distribution"] == [doc["total_gts"]]
