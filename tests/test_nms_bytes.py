"""The bytes of the ``nms`` command, pinned.

Standard output is hashed and compared with sha256 digests taken from an
earlier implementation of the command.  Malformed detection files are pinned
by their exact exit code, standard output and standard error.  Neither
table is regenerated from the code under test.
"""

import hashlib
import json

import numpy as np
import pytest

from yolof_assign.cli import main


def clustered(seed: int, n: int, num_classes: int) -> list:
    """``n`` jittered copies of ``n // 10`` objects, ``obj % num_classes``
    the class; odd rows keep full-precision scores, even rows 3 decimals
    (so scores tie)."""
    rng = np.random.default_rng(seed)
    num_objects = max(n // 10, 1)
    xy = rng.uniform(0, 1000, (num_objects, 2))
    wh = rng.uniform(8, 300, (num_objects, 2))
    obj = rng.integers(0, num_objects, n)
    boxes = np.concatenate([xy[obj], xy[obj] + wh[obj]], axis=1) \
        + rng.uniform(-0.15, 0.15, (n, 4)) * np.tile(wh[obj], 2)
    scores = rng.uniform(0, 1, n)
    return [{"bbox": [round(float(v), 2) for v in box],
             "score": float(s) if i % 2 else round(float(s), 3),
             "category_id": int(o % num_classes)}
            for i, (box, s, o) in enumerate(zip(boxes, scores, obj))]


# name -> (detections, extra argv)
DIGEST_CASES = {
    "empty": ([], []),
    "one": ([{"bbox": [1, 2.5, 30, 40.25], "score": 0.5,
              "category_id": 3}], []),
    "4000-20-classes": (clustered(1501, 4000, 20), []),
    "4000-20-classes-iou-0.3": (clustered(1501, 4000, 20), ["--iou", "0.3"]),
    "4000-20-classes-iou-0.9": (clustered(1501, 4000, 20), ["--iou", "0.9"]),
    "1500-one-class": (clustered(1502, 1500, 1), []),
}

DIGESTS = {
    "1500-one-class":
        "d1fd1d3c882fb8e07a71a12a9fe040c2319a4efd58e095f29102936736d562b4",
    "4000-20-classes":
        "601ae647d28d322dc52d124e5424a92f3d38d093839bf80f686539f08a842bfc",
    "4000-20-classes-iou-0.3":
        "d30670e292548684c7543d737734d9daff7e3eca35c8940d06270b9913433487",
    "4000-20-classes-iou-0.9":
        "b0b476bf85dedc14e0140738e78bd9c1c461bf02871a6629157105d290e4b177",
    "empty":
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "one":
        "873549c722484cfa4b669674f4e036a2c2051410aeb10b072d8d207d4da202ba",
}


def run_nms(capsys, tmp_path, text: str, extra=()):
    """``nms`` on a file holding ``text``: (exit code, stdout, stderr with
    the file's path replaced by ``{path}``)."""
    path = tmp_path / "dets.json"
    path.write_text(text)
    code = main(["nms", "--input", str(path), *extra])
    out, err = capsys.readouterr()
    return code, out, err.replace(str(path), "{path}")


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_nms_stdout_bytes_unchanged(capsys, tmp_path, name):
    dets, extra = DIGEST_CASES[name]
    code, out, err = run_nms(capsys, tmp_path, json.dumps(dets), extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name]


OK = {"bbox": [0, 0, 10, 10], "score": 0.9, "category_id": 1}


def with_(**fields) -> dict:
    return {**OK, **fields}


def without(key: str) -> dict:
    return {k: v for k, v in OK.items() if k != key}


# name -> (detections, or the file's text; extra argv)
MALFORMED = {
    "missing-bbox": ([OK, without("bbox")], []),
    "missing-score": ([OK, without("score")], []),
    "missing-category": ([OK, without("category_id")], []),
    "row-array": ([OK, [0, 0, 1, 1]], []),
    "row-string": ([OK, "det"], []),
    "row-null": ([OK, None], []),
    "row-number": ([OK, 3], []),
    "bbox-number": ([OK, with_(bbox=5)], []),
    "bbox-null": ([OK, with_(bbox=None)], []),
    "bbox-object": ([OK, with_(bbox={"x": 1})], []),
    "bbox-text-value": ([OK, with_(bbox=[0, "a", 1, 1])], []),
    "bbox-null-value": ([OK, with_(bbox=[0, None, 1, 1])], []),
    "bbox-array-value": ([OK, with_(bbox=[0, [1], 1, 1])], []),
    "bbox-empty": ([OK, with_(bbox=[])], []),
    "bbox-3-values": ([OK, with_(bbox=[0, 0, 10])], []),
    "bbox-5-values": ([OK, with_(bbox=[0, 0, 10, 10, 1])], []),
    "bbox-nan": ([OK, with_(bbox=[0, float("nan"), 10, 10])], []),
    "bbox-infinity": ([OK, with_(bbox=[0, 0, float("inf"), 10])], []),
    "bbox-400-digits": ([OK, with_(bbox=[0, 0, 10 ** 400, 1])], []),
    "score-1.5": ([OK, with_(score=1.5)], []),
    "score-negative": ([OK, with_(score=-0.1)], []),
    "score-nan": ([OK, with_(score=float("nan"))], []),
    "score-infinity": ([OK, with_(score=float("inf"))], []),
    "score-text": ([OK, with_(score="high")], []),
    "score-null": ([OK, with_(score=None)], []),
    "score-array": ([OK, with_(score=[0.5])], []),
    "score-400-digits": ([OK, with_(score=10 ** 400)], []),
    "category-negative": ([OK, with_(category_id=-1)], []),
    "category-1.7": ([OK, with_(category_id=1.7)], []),
    "category-bool": ([OK, with_(category_id=True)], []),
    "category-text": ([OK, with_(category_id="x")], []),
    "category-null": ([OK, with_(category_id=None)], []),
    "category-2**63": ([OK, with_(category_id=2 ** 63)], []),
    "category-array": ([OK, with_(category_id=[1])], []),
    # the first bad record wins, whatever its fault and the later one's
    "score-1.5-before-missing-bbox":
        ([OK, with_(score=1.5), without("bbox")], []),
    "bbox-3-values-before-category-1.7":
        ([OK, with_(bbox=[0, 0, 10]), with_(category_id=1.7)], []),
    "missing-score-before-nan-box":
        ([without("score"), with_(bbox=[float("nan"), 0, 1, 1])], []),
    "category-negative-before-row-null":
        ([OK, with_(category_id=-1), None], []),
    "nan-box-before-bbox-text-value":
        ([with_(bbox=[0, 0, float("nan"), 1]), with_(bbox=["a", 0, 1, 1])],
         []),
    # within one record, a missing key or a wrong type beats a bad value
    "bbox-3-values-and-missing-category":
        ([OK, {"bbox": [0, 0, 10], "score": 0.5}], []),
    "score-1.5-and-category-text":
        ([OK, with_(score=1.5, category_id="x")], []),
    "nan-box-and-score-2": ([OK, with_(bbox=[float("nan"), 0, 1, 1],
                                       score=2)], []),
    "score-1.5-and-category-negative":
        ([OK, with_(score=1.5, category_id=-1)], []),
    "top-level-object": ({"bbox": [0, 0, 1, 1]}, []),
    "parse-error": ("[{", []),
    "iou-1.5": ([OK], ["--iou", "1.5"]),
    "iou-nan": ([OK], ["--iou", "nan"]),
    "iou-1.5-empty": ([], ["--iou", "1.5"]),
    "iou-1.5-after-bad-record": ([with_(score=2)], ["--iou", "1.5"]),
    # accepted: numbers as strings, integral floats, and the floats the
    # writer has to spell the way json does
    "numbers-as-strings": ([OK, {"bbox": ["0", "0", "10", "9"],
                                 "score": "0.95", "category_id": "1"}], []),
    "integral-float-category": ([with_(category_id=2.0)], []),
    "float-spelling": ([with_(bbox=[-0.0, 1e-07, 1e+20, 1.5e+30],
                              score=1e-05),
                        with_(bbox=[0, 0, 0, 0], score=0, category_id=0),
                        with_(score=1)], []),
}

EXPECTED = {
    "bbox-3-values": (
        2, "",
        "error: {path}: bad detection #1: box must have 4 values, got 3\n"),
    "bbox-3-values-and-missing-category": (
        2, "",
        "error: {path}: bad detection #1: 'category_id'\n"),
    "bbox-3-values-before-category-1.7": (
        2, "",
        "error: {path}: bad detection #1: box must have 4 values, got 3\n"),
    "bbox-400-digits": (
        2, "",
        "error: {path}: bad detection #1: "
        "int too large to convert to float\n"),
    "bbox-5-values": (
        2, "",
        "error: {path}: bad detection #1: box must have 4 values, got 5\n"),
    "bbox-array-value": (
        2, "",
        "error: {path}: bad detection #1: float() argument must be a "
        "string or a real number, not 'list'\n"),
    "bbox-empty": (
        2, "",
        "error: {path}: bad detection #1: box must have 4 values, got 0\n"),
    "bbox-infinity": (
        2, "",
        "error: {path}: bad detection #1: box must be finite, got "
        "(0.0, 0.0, inf, 10.0)\n"),
    "bbox-nan": (
        2, "",
        "error: {path}: bad detection #1: box must be finite, got "
        "(0.0, nan, 10.0, 10.0)\n"),
    "bbox-null": (
        2, "",
        "error: {path}: bad detection #1: "
        "'NoneType' object is not iterable\n"),
    "bbox-null-value": (
        2, "",
        "error: {path}: bad detection #1: float() argument must be a "
        "string or a real number, not 'NoneType'\n"),
    "bbox-number": (
        2, "",
        "error: {path}: bad detection #1: 'int' object is not iterable\n"),
    "bbox-object": (
        2, "",
        "error: {path}: bad detection #1: bbox must be an array, got "
        "{'x': 1}\n"),
    "bbox-text-value": (
        2, "",
        "error: {path}: bad detection #1: could not convert string to "
        "float: 'a'\n"),
    "category-1.7": (
        2, "",
        "error: {path}: bad detection #1: 1.7 is not an integer\n"),
    "category-2**63": (
        2, "",
        "error: {path}: bad detection #1: 9223372036854775808 does not "
        "fit the int64 columns\n"),
    "category-array": (
        2, "",
        "error: {path}: bad detection #1: int() argument must be a "
        "string, a bytes-like object or a real number, not 'list'\n"),
    "category-bool": (
        2, "",
        "error: {path}: bad detection #1: True is not an integer\n"),
    "category-negative": (
        2, "",
        "error: {path}: bad detection #1: class_id must be non-negative\n"),
    "category-negative-before-row-null": (
        2, "",
        "error: {path}: bad detection #1: class_id must be non-negative\n"),
    "category-null": (
        2, "",
        "error: {path}: bad detection #1: int() argument must be a "
        "string, a bytes-like object or a real number, not 'NoneType'\n"),
    "category-text": (
        2, "",
        "error: {path}: bad detection #1: invalid literal for int() "
        "with base 10: 'x'\n"),
    "float-spelling": (
        0,
        "[\n"
        "  {\n"
        '    "bbox": [\n'
        "      0.0,\n"
        "      0.0,\n"
        "      10.0,\n"
        "      10.0\n"
        "    ],\n"
        '    "category_id": 1,\n'
        '    "score": 1.0\n'
        "  },\n"
        "  {\n"
        '    "bbox": [\n'
        "      -0.0,\n"
        "      1e-07,\n"
        "      1e+20,\n"
        "      1.5e+30\n"
        "    ],\n"
        '    "category_id": 1,\n'
        '    "score": 1e-05\n'
        "  },\n"
        "  {\n"
        '    "bbox": [\n'
        "      0.0,\n"
        "      0.0,\n"
        "      0.0,\n"
        "      0.0\n"
        "    ],\n"
        '    "category_id": 0,\n'
        '    "score": 0.0\n'
        "  }\n"
        "]\n",
        ""),
    "integral-float-category": (
        0,
        "[\n"
        "  {\n"
        '    "bbox": [\n'
        "      0.0,\n"
        "      0.0,\n"
        "      10.0,\n"
        "      10.0\n"
        "    ],\n"
        '    "category_id": 2,\n'
        '    "score": 0.9\n'
        "  }\n"
        "]\n",
        ""),
    "iou-1.5": (
        2, "",
        "error: iou_threshold must lie in [0, 1]\n"),
    "iou-1.5-after-bad-record": (
        2, "",
        "error: {path}: bad detection #0: score must be finite in [0, "
        "1], got 2.0\n"),
    "iou-1.5-empty": (
        2, "",
        "error: iou_threshold must lie in [0, 1]\n"),
    "iou-nan": (
        2, "",
        "error: iou_threshold must lie in [0, 1]\n"),
    "missing-bbox": (
        2, "",
        "error: {path}: bad detection #1: 'bbox'\n"),
    "missing-category": (
        2, "",
        "error: {path}: bad detection #1: 'category_id'\n"),
    "missing-score": (
        2, "",
        "error: {path}: bad detection #1: 'score'\n"),
    "missing-score-before-nan-box": (
        2, "",
        "error: {path}: bad detection #0: 'score'\n"),
    "nan-box-and-score-2": (
        2, "",
        "error: {path}: bad detection #1: box must be finite, got "
        "(nan, 0.0, 1.0, 1.0)\n"),
    "nan-box-before-bbox-text-value": (
        2, "",
        "error: {path}: bad detection #0: box must be finite, got "
        "(0.0, 0.0, nan, 1.0)\n"),
    "numbers-as-strings": (
        0,
        "[\n"
        "  {\n"
        '    "bbox": [\n'
        "      0.0,\n"
        "      0.0,\n"
        "      10.0,\n"
        "      9.0\n"
        "    ],\n"
        '    "category_id": 1,\n'
        '    "score": 0.95\n'
        "  }\n"
        "]\n",
        ""),
    "parse-error": (
        2, "",
        "error: {path}: parse error at line 1 column 3: Expecting "
        "property name enclosed in double quotes\n"),
    "row-array": (
        2, "",
        "error: {path}: bad detection #1: list indices must be "
        "integers or slices, not str\n"),
    "row-null": (
        2, "",
        "error: {path}: bad detection #1: 'NoneType' object is not "
        "subscriptable\n"),
    "row-number": (
        2, "",
        "error: {path}: bad detection #1: "
        "'int' object is not subscriptable\n"),
    "row-string": (
        2, "",
        "error: {path}: bad detection #1: string indices must be "
        "integers, not 'str'\n"),
    "score-1.5": (
        2, "",
        "error: {path}: bad detection #1: score must be finite in [0, "
        "1], got 1.5\n"),
    "score-1.5-and-category-negative": (
        2, "",
        "error: {path}: bad detection #1: score must be finite in [0, "
        "1], got 1.5\n"),
    "score-1.5-and-category-text": (
        2, "",
        "error: {path}: bad detection #1: invalid literal for int() "
        "with base 10: 'x'\n"),
    "score-1.5-before-missing-bbox": (
        2, "",
        "error: {path}: bad detection #1: score must be finite in [0, "
        "1], got 1.5\n"),
    "score-400-digits": (
        2, "",
        "error: {path}: bad detection #1: "
        "int too large to convert to float\n"),
    "score-array": (
        2, "",
        "error: {path}: bad detection #1: float() argument must be a "
        "string or a real number, not 'list'\n"),
    "score-infinity": (
        2, "",
        "error: {path}: bad detection #1: score must be finite in [0, "
        "1], got inf\n"),
    "score-nan": (
        2, "",
        "error: {path}: bad detection #1: score must be finite in [0, "
        "1], got nan\n"),
    "score-negative": (
        2, "",
        "error: {path}: bad detection #1: score must be finite in [0, "
        "1], got -0.1\n"),
    "score-null": (
        2, "",
        "error: {path}: bad detection #1: float() argument must be a "
        "string or a real number, not 'NoneType'\n"),
    "score-text": (
        2, "",
        "error: {path}: bad detection #1: could not convert string to "
        "float: 'high'\n"),
    "top-level-object": (
        2, "",
        "error: {path}: top level must be an array\n"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_nms_exit_and_messages_unchanged(capsys, tmp_path, name):
    doc, extra = MALFORMED[name]
    text = doc if isinstance(doc, str) else json.dumps(doc)
    assert run_nms(capsys, tmp_path, text, extra) == EXPECTED[name]
