"""The ``nms`` detection reader against the record-by-record reference.

``coco.load_detections`` must give exactly the columns and dtypes of
``oracles.detections_py``, or the byte-identical message where the
reference refuses the list.
"""

import copy
import json

import numpy as np
import pytest

from yolof_assign.coco import CorpusError, load_detections

from conftest import converted_values
from oracles import InputError, detections_py
from test_nms_bytes import MALFORMED, OK, clustered


def check(tmp_path, text: str):
    """Compare both readers on a file holding ``text``: "refused", or the
    path that read it, "gate" for every column or "converter" for one
    column or more."""
    path = tmp_path / "dets.json"
    path.write_text(text)
    doc = json.loads(text)
    try:
        expected = detections_py(doc, path)
    except InputError as exc:
        with pytest.raises(CorpusError) as got:
            load_detections(path)
        assert str(got.value) == str(exc)
        return "refused"
    columns, converted = converted_values(load_detections, path)
    for got, want in zip(columns, expected, strict=True):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    return "converter" if converted else "gate"


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_files(tmp_path, name):
    doc = MALFORMED[name][0]
    text = doc if isinstance(doc, str) else json.dumps(doc)
    if isinstance(doc, list):
        check(tmp_path, text)
    else:  # the file reader refuses it before any record is read
        path = tmp_path / "dets.json"
        path.write_text(text)
        with pytest.raises(CorpusError, match="parse error|top level"):
            load_detections(path)


# replacement values of a score, a class id or one box value
ODD_VALUES = [True, False, None, "0.5", "2", "a", "", [], [0.5], {},
              float("nan"), float("inf"), float("-inf"), 10 ** 400,
              -10 ** 400, 0, 1, -1, 0.0, -0.0, 1.0, 1.5, -0.25, 2.0, 3,
              2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 1e308]
ODD_BOXES = [[1, 2, 3], [1, 2, 3, 4, 5], [], [0, 0, 10, 10, 1, 2], "1234",
             {"a": 1}, None, 5, [0, 0, 0, 0], [1e308, 0, 1e308, 1]]
NOT_OBJECTS = [None, [0, 0, 1, 1], "det", 3, True, 0.5]
# values that every field reads, as a number or as a class id
GOOD_VALUES = [0, 1, 0.0, -0.0, 1.0, "0", "1", "1.0", " 1 ", 2.0]


def mutate(dets: list, rng) -> list:
    """``dets`` with 1-3 random faults or odd values."""
    dets = copy.deepcopy(dets)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(len(dets)))
        kind = int(rng.integers(0, 9))
        if not isinstance(dets[i], dict):
            continue
        odd = ODD_VALUES[rng.integers(len(ODD_VALUES))]
        if kind >= 6:  # a value read the same, on the row converter
            kind, odd = kind - 6, GOOD_VALUES[rng.integers(len(GOOD_VALUES))]
        if kind == 0:
            dets[i]["score"] = odd
        elif kind == 1:
            dets[i]["category_id"] = odd
        elif kind == 2 and isinstance(dets[i].get("bbox"), list) \
                and dets[i]["bbox"]:
            dets[i]["bbox"][rng.integers(len(dets[i]["bbox"]))] = odd
        elif kind == 3:
            dets[i]["bbox"] = copy.deepcopy(
                ODD_BOXES[rng.integers(len(ODD_BOXES))])
        elif kind == 4:
            dets[i].pop(str(rng.choice(["bbox", "score", "category_id"])),
                        None)
        else:
            dets[i] = NOT_OBJECTS[rng.integers(len(NOT_OBJECTS))]
    return dets


@pytest.mark.parametrize("seed", range(5))
def test_mutated_lists(tmp_path, seed):
    rng = np.random.default_rng(seed)
    bases = [clustered(seed, 12, 3), [OK] * 4 + clustered(seed + 10, 6, 1)]
    outcomes = set()
    for n in range(250):
        outcomes.add(check(tmp_path, json.dumps(mutate(bases[n % 2], rng))))
    assert outcomes == {"refused", "gate", "converter"}
