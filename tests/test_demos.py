"""Each narrative script under ``demos/`` runs to completion and prints
the bytes pinned for it.

The digests are the sha256 of each script's stdout, taken from the
implementation its output was first pinned on, as
``tests/test_report_bytes.py`` pins the reports.  They are never
regenerated from the code under test: a changed digest is a changed demo.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "flops_comparison.py":
        "d4bd3782510ccbae7cc9db8eb864e9348ac67d891aba258f540aa8ecc0f7c46f",
    "matching_balance.py":
        "cd942cf42af0e2fdc0def9c0482752a894510e5905bfbb6a36493dbd072557b8",
    "nms_walkthrough.py":
        "56ffc47d3dfadf1819e97a0299e184b740e0af300adb1c3c6a19bdc810d1728b",
    "receptive_field.py":
        "7b043dc8e1d7ddd21eebaf348f980521ebcf0211098a6ef45cc7b20f99583272",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_prints_its_pinned_bytes(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() \
        == STDOUT_SHA256[demo.name]
