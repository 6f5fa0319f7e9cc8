"""The corpus reader against the record-by-record reference.

``parse_corpus`` must give exactly the columns of ``oracles.corpus_py``,
or the byte-identical message where the reference refuses the document.
Of the documents it reads, the per-column gate of
``coco.record_columns`` must take every plain one whole, and leave each
other one's odd columns, and only those, to the value converters.
"""

import copy
import json

import numpy as np
import pytest

from yolof_assign.coco import CorpusError, parse_corpus, record_columns

from oracles import InputError, corpus_py
from conftest import DATA_DIR, converted_values, seeded_corpus
from test_io_cli import BASE_DOC, NEGATIVE_ID_DOC, NOT_ARRAYS, \
    ODD_IMAGE_DOC, SHUFFLED_DOC, edge_corpus


def with_annotation(**fields) -> dict:
    """BASE_DOC with a second annotation, id 7, in image 1."""
    ann = dict({"id": 7, "image_id": 1, "bbox": [5, 5, 10, 10],
                "category_id": 2}, **fields)
    return dict(BASE_DOC, annotations=BASE_DOC["annotations"] + [ann])


def with_field(key: str, name: str, value) -> dict:
    """BASE_DOC with field ``name`` of the first ``key`` record set."""
    doc = copy.deepcopy(BASE_DOC)
    doc[key][0][name] = value
    return doc


def huge_box_doc(bbox) -> dict:
    return {"images": [{"id": 1, "width": 640, "height": 480}],
            "annotations": [
                {"id": 1, "image_id": 1, "bbox": [10, 20, 30, 40],
                 "category_id": 2},
                {"id": 7, "image_id": 1, "bbox": bbox, "category_id": 2}],
            "categories": [{"id": 2}]}


def huge_image_doc(side: int, x: int, axis: int) -> dict:
    """One square image of ``side`` px and a 4096 px box at ``x`` on
    ``axis`` (0 for x, 1 for y)."""
    bbox = [0, 0, 1, 1]
    bbox[axis], bbox[axis + 2] = x, 4096
    return {"images": [{"id": 1, "width": side, "height": side}],
            "annotations": [{"id": 1, "image_id": 1, "bbox": bbox,
                             "category_id": 2}],
            "categories": [{"id": 2}]}


# image sides that float64 rounds down (2**53 + 1 to 2**53) and up
# (2**63 - 1 to 2**63), with the float64 positions just below and at or
# past the side: a box there must be read, or refused as outside
HUGE_SIDES = [(2 ** 53 + 1, 2 ** 53, 2 ** 53 + 2),
              (2 ** 63 - 1, 2 ** 63 - 1024, 2 ** 63)]

# documents whose every value is plain JSON and that pass every rule: the
# gate must take each of them and the reader read it
PLAIN = {
    **{f"side-{side}-box-at-{inside}-axis-{axis}":
       huge_image_doc(side, inside, axis)
       for side, inside, _ in HUGE_SIDES for axis in (0, 1)},
    "base": BASE_DOC,
    "shuffled": SHUFFLED_DOC,
    "odd-image": ODD_IMAGE_DOC,
    "negative-image-id": NEGATIVE_ID_DOC,
    "no-annotations": dict(BASE_DOC, annotations=[]),
    "empty": dict(BASE_DOC, images=[], annotations=[]),
    "seeded": seeded_corpus(),
    "tiny": json.loads((DATA_DIR / "tiny_corpus.json").read_text()),
    **{f"edge-{seed}": edge_corpus(np.random.default_rng(seed))
       for seed in range(6)},
    **{f"degenerate-{i}": with_annotation(bbox=bbox) for i, bbox in
       enumerate(([5, 5, 0, 9], [1e20, 5, 1, 3], [5, 5, 3, 1e-300],
                  [0, 0, 1e-200, 1e-200], [99, 99, 0, 5],
                  [-3, -3, -1, 2]))},
    "extent-rounds-to-0": huge_box_doc([-1e308, 10, 1.00001e308, 1e-300]),
    "straddling-edge": with_annotation(bbox=[-5, 60, 10, 10]),
    "duplicate-annotation-ids": with_annotation(id=1),
    "mixed-int-float-bbox": with_annotation(bbox=[1, 2.5, 3, 4.25]),
    "huge-int-bbox": with_annotation(bbox=[1, 2, 2 ** 70, 3]),
    "int64-extremes": dict(
        BASE_DOC, images=[{"id": 2 ** 63 - 1, "width": 2 ** 63 - 1,
                           "height": 64}],
        annotations=[{"id": -2 ** 63, "image_id": 2 ** 63 - 1,
                      "bbox": [1, 1, 2, 2], "category_id": 2 ** 63 - 1}]),
}

# documents the row converter reads, from values that are not plain JSON
# integers or numbers, and documents that the reader refuses
OTHER = {
    "strings-and-integral-floats": dict(
        BASE_DOC, images=[{"id": 1.0, "width": "64", "height": 64.0}],
        annotations=[{"id": "5", "image_id": 1.0, "bbox": [10, 20, 30, 40],
                      "category_id": 2.0}]),
    "string-id": with_annotation(id="7"),
    "string-image-id": with_annotation(image_id="1"),
    "integral-float-id": with_annotation(id=7.0),
    "integral-float-category": with_annotation(category_id=2.0),
    "bool-id": with_annotation(id=True),
    "bool-in-bbox": with_annotation(bbox=[True, 0, 10, 10]),
    "string-in-bbox": with_annotation(bbox=["1", 0, 10, 10]),
    "bbox-of-3": with_annotation(bbox=[1, 2, 3]),
    "bbox-of-5": with_annotation(bbox=[1, 2, 3, 4, 5]),
    "bbox-400-digits": with_annotation(bbox=[10 ** 400, 1, 2, 3]),
    "id-400-digits": with_annotation(id=10 ** 400),
    "width-0": with_field("images", "width", 0),
    "height-negative": with_field("images", "height", -4),
    "width-Infinity": with_field("images", "width", float("inf")),
    "image_id-1e400": with_annotation(image_id=float("inf")),
    "duplicate-image-id": dict(BASE_DOC, images=BASE_DOC["images"] + [
        {"id": 1, "width": 32, "height": 48}]),
    "missing-image": with_annotation(image_id=9),
    "missing-image-no-images": dict(with_annotation(), images=[]),
    "negative-category": with_annotation(category_id=-3),
    "missing-key": dict(BASE_DOC, annotations=[{"id": 1, "image_id": 1,
                                                "category_id": 2}]),
    "record-not-an-object": dict(BASE_DOC, images=[[1, 64, 64]]),
    "record-null": dict(BASE_DOC, annotations=[None]),
    **{f"image-{name}-{value!r}": with_field("images", name, value)
       for name, value in (("id", 2 ** 63), ("id", 1.5), ("width", 640.9),
                           ("height", 64.5), ("id", True))},
    **{f"annotation-{name}-{value!r}": with_field("annotations", name, value)
       for name, value in (("id", -2 ** 63 - 1), ("category_id", 2 ** 64),
                           ("id", 1.5), ("image_id", 1.9),
                           ("image_id", True), ("category_id", 1.7))},
    **{f"not-array-{i}": with_field("annotations", "bbox", bbox)
       for i, bbox in enumerate(NOT_ARRAYS)},
    **{f"non-finite-{i}": with_annotation(bbox=bbox) for i, bbox in
       enumerate(([float("nan"), 1, 2, 3], [1, 1, float("inf"), 3],
                  ["-inf", 1, 2, 3], [1e308, 1, 1e308, 3],
                  [float("-inf"), 1, float("inf"), 3]))},
    **{f"outside-{i}": with_annotation(bbox=bbox) for i, bbox in
       enumerate(([-20, 10, 10, 10], [70, 10, 5, 5], [10, -30, 5, 10],
                  [10, 64.5, 5, 5], [-10, 10, 10, 10], [10, 64, 5, 5]))},
    **{f"side-{side}-box-at-{outside}-axis-{axis}":
       huge_image_doc(side, outside, axis)
       for side, _, outside in HUGE_SIDES for axis in (0, 1)},
    "overflow-area": huge_box_doc([-1.7e308, -1.7e308, 1.75e308, 1.75e308]),
    "overflow-center": huge_box_doc([-1.5e308, 0, 1.5000000000000002e+308,
                                     1e-300]),
}


def same_columns(a, b):
    """``a``, a corpus, holds exactly the columns of ``b``, one that
    :func:`oracles.corpus_py` gives."""
    assert list(zip(a.image_ids.tolist(), map(tuple, a.sizes.tolist()))) \
        == b["images"]
    for name in ("ids", "boxes", "category_ids", "offsets"):
        x, y = getattr(a, name), b[name]
        assert (x.dtype, x.shape) == (y.dtype, y.shape)
        assert x.tolist() == y.tolist()
    assert (a.categories, a.dropped, type(a.dropped)) \
        == (b["categories"], b["dropped"], int)


def check(doc: dict):
    """Compare ``parse_corpus`` with the reference on ``doc``; the corpus
    if the gate read every column, None if the document is refused or a
    column was converted value by value."""
    try:
        expected = corpus_py(doc)
    except InputError as exc:
        with pytest.raises(CorpusError) as got:
            parse_corpus(doc)
        assert str(got.value) == str(exc)
        return None
    corpus, converted = converted_values(parse_corpus, doc)
    same_columns(corpus, expected)
    return None if converted else corpus


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_plain_document_read_as_columns(name):
    assert check(PLAIN[name]) is not None


@pytest.mark.parametrize("name", sorted(OTHER))
def test_other_document_left_to_the_row_loop(name):
    assert check(OTHER[name]) is None


def test_only_the_odd_column_is_converted():
    doc = copy.deepcopy(SHUFFLED_DOC)
    for ann in doc["annotations"]:
        ann["id"] = str(ann["id"])
    corpus, converted = converted_values(parse_corpus, doc)
    assert converted == [ann["id"] for ann in doc["annotations"]]
    same_columns(corpus, corpus_py(SHUFFLED_DOC))


@pytest.mark.parametrize("records,message", [
    # of two bad keys of one record, the first in kinds order is named
    ([{"a": 1, "b": 2}, {"a": "x", "b": None}], "#1: invalid literal"),
    ([{"a": 1, "b": 2}, {"b": None}], "#1: 'a'"),
    # an earlier record's fault in a later key is named first
    ([{"a": 1, "b": None}, {"a": "x", "b": 2}], "#0: int() argument"),
    ([{"a": 1, "b": "2"}, {"a": "x", "b": 2}, 5], "#1: invalid literal"),
])
def test_earliest_record_named(records, message):
    columns, failure = record_columns(records, lambda i, r: f"#{i}",
                                      a="int", b="int")
    assert str(failure).startswith(message)
    end = int(message[1])
    assert [c.tolist() for c in columns] == [[1, 1][:end], [2, 2][:end]]


@pytest.mark.parametrize("side,outside", [(side, outside) for side, _,
                                           outside in HUGE_SIDES])
@pytest.mark.parametrize("axis", [0, 1])
def test_box_past_a_huge_side_is_outside(side, outside, axis):
    with pytest.raises(CorpusError, match="entirely outside image 1 of "
                                          f"{side}x{side}"):
        parse_corpus(huge_image_doc(side, outside, axis))


# replacement values of one field, JSON integers and others
ODD_INTS = [0, -1, 3, 2 ** 63 - 1, 2 ** 63, -2 ** 63 - 1, 10 ** 400, 1.0,
            1.5, "3", True, False, None, float("inf"), [1]]
ODD_BOXES = [[1, 2, 3], [1, 2, 3, 4, 5], [], "1234", {"1": 0}, None,
             [True, 0, 1, 1], [10 ** 400, 0, 1, 1], [0, 0, 0, 5],
             [0, 0, 5, -1], [1e308, 0, 1e308, 1], [-1e308, 0, 1e308, 1],
             [-1.7e308, -1.7e308, 1.75e308, 1.75e308], [-50, 1, 10, 10],
             [1, 1e9, 1, 1], [float("nan"), 0, 1, 1], [0.5, 0.25, 2, 2],
             [2 ** 62, 0, 1, 1], ["1", 2, 3, 4]]


def mutate(doc: dict, rng) -> dict:
    """``doc`` with 1-3 random faults or odd values."""
    doc = copy.deepcopy(doc)
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 6))
        records = doc["images"] if kind < 2 else doc["annotations"]
        if not records:
            continue
        i = int(rng.integers(len(records)))
        if kind == 0:
            name = str(rng.choice(["id", "width", "height"]))
            records[i][name] = ODD_INTS[rng.integers(len(ODD_INTS))]
        elif kind == 1:  # a duplicate image id
            records[i]["id"] = records[rng.integers(len(records))].get("id")
        elif kind == 2:
            name = str(rng.choice(["id", "image_id", "category_id"]))
            records[i][name] = ODD_INTS[rng.integers(len(ODD_INTS))]
        elif kind == 3:
            records[i]["bbox"] = ODD_BOXES[rng.integers(len(ODD_BOXES))]
        elif kind == 4:  # a duplicate annotation id
            records[i]["id"] = records[rng.integers(len(records))].get("id")
        else:
            records[i].pop(str(rng.choice(["id", "image_id", "bbox"])), None)
    return doc


@pytest.mark.parametrize("seed", range(4))
def test_mutated_corpora(seed):
    rng = np.random.default_rng(seed)
    base = [edge_corpus(np.random.default_rng(seed)), SHUFFLED_DOC]
    outcomes = set()
    for n in range(150):
        plain = check(mutate(base[n % 2], rng))
        outcomes.add(plain is None)
    assert outcomes == {True, False}  # both paths were taken
