"""The bytes of the ``match-stats`` and ``shift`` reports, pinned.

Each case's output file is hashed and compared with a sha256 digest taken
from the implementation these reports were first pinned on.  A change to
how statistics are stored or aggregated must leave every byte in place.
The digests are never regenerated from the code under test: a changed
digest is a changed report.
"""

import hashlib
import json

import pytest

from yolof_assign import coco
from yolof_assign.cli import main
from yolof_assign.matching import MATCHERS

SHIFT = 32
SEED = 7


# (corpus, matcher or "shift", format, YOLOF_ASSIGN_THREADS)
CASES = [(corpus, m, fmt, threads)
         for corpus in ("tiny", "seeded") for m in MATCHERS
         for fmt in ("json", "csv") for threads in (1, 2, 3)] \
    + [("tiny", "shift", "json", 1), ("seeded", "shift", "json", 1)]


def case_id(case) -> str:
    corpus, command, fmt, threads = case
    if command == "shift":
        return f"{corpus}-shift"
    return f"{corpus}-{command}-{fmt}-t{threads}"


def report_bytes(case, tmp_path, path) -> bytes:
    """Run one case's CLI command on the corpus at ``path``; returns its
    output file's bytes.

    The case's worker count must already be in ``YOLOF_ASSIGN_THREADS``.
    """
    _, command, fmt, _ = case
    if command == "shift":
        argv = ["shift", "--max-shift", str(SHIFT), "--seed", str(SEED)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"matcher": command,
                                      "shift_max": SHIFT}))
        argv = ["match-stats", "--config", str(config), "--format", fmt,
                "--seed", str(SEED)]
    out = tmp_path / "out"
    assert main(argv + ["--input", str(path), "--output", str(out)]) == 0
    return out.read_bytes()


DIGESTS = {
    "tiny-uniform-json-t1":
        "b9dd718e191ee8282849ec733592c3ae0ffcb848c9c0d970938a6425c2e70528",
    "tiny-uniform-json-t2":
        "b9dd718e191ee8282849ec733592c3ae0ffcb848c9c0d970938a6425c2e70528",
    "tiny-uniform-json-t3":
        "b9dd718e191ee8282849ec733592c3ae0ffcb848c9c0d970938a6425c2e70528",
    "tiny-uniform-csv-t1":
        "4871cc19fd3d6f14b14726b00227bce76b62ea0e9438a705ac10ea3779b6e33d",
    "tiny-uniform-csv-t2":
        "4871cc19fd3d6f14b14726b00227bce76b62ea0e9438a705ac10ea3779b6e33d",
    "tiny-uniform-csv-t3":
        "4871cc19fd3d6f14b14726b00227bce76b62ea0e9438a705ac10ea3779b6e33d",
    "tiny-topk-json-t1":
        "203cee608552a9092c7d469283dbe48b1a77614e84fdb9a08182afda9a5a6f67",
    "tiny-topk-json-t2":
        "203cee608552a9092c7d469283dbe48b1a77614e84fdb9a08182afda9a5a6f67",
    "tiny-topk-json-t3":
        "203cee608552a9092c7d469283dbe48b1a77614e84fdb9a08182afda9a5a6f67",
    "tiny-topk-csv-t1":
        "fbb2310281f7bcc3f83ba0655647339dce91b653964d26f025f970c3fe733663",
    "tiny-topk-csv-t2":
        "fbb2310281f7bcc3f83ba0655647339dce91b653964d26f025f970c3fe733663",
    "tiny-topk-csv-t3":
        "fbb2310281f7bcc3f83ba0655647339dce91b653964d26f025f970c3fe733663",
    "tiny-max_iou-json-t1":
        "3a4496c936eea56006709461add0c4d33661081be6f261bc1937cc812b4f08d2",
    "tiny-max_iou-json-t2":
        "3a4496c936eea56006709461add0c4d33661081be6f261bc1937cc812b4f08d2",
    "tiny-max_iou-json-t3":
        "3a4496c936eea56006709461add0c4d33661081be6f261bc1937cc812b4f08d2",
    "tiny-max_iou-csv-t1":
        "cf9389e6ffe88215c487a23c026df9a41e1965686d33d4234fe7a2d08af3884b",
    "tiny-max_iou-csv-t2":
        "cf9389e6ffe88215c487a23c026df9a41e1965686d33d4234fe7a2d08af3884b",
    "tiny-max_iou-csv-t3":
        "cf9389e6ffe88215c487a23c026df9a41e1965686d33d4234fe7a2d08af3884b",
    "tiny-atss-json-t1":
        "cb231a65b2f4ed86bbf1d2a4091861b0d3d39c5f19dcc2a3a73d00bc89970899",
    "tiny-atss-json-t2":
        "cb231a65b2f4ed86bbf1d2a4091861b0d3d39c5f19dcc2a3a73d00bc89970899",
    "tiny-atss-json-t3":
        "cb231a65b2f4ed86bbf1d2a4091861b0d3d39c5f19dcc2a3a73d00bc89970899",
    "tiny-atss-csv-t1":
        "ac9c1ae36622ca69e740ab7c09937a050b79a0d43958c34f3b44034b879ea437",
    "tiny-atss-csv-t2":
        "ac9c1ae36622ca69e740ab7c09937a050b79a0d43958c34f3b44034b879ea437",
    "tiny-atss-csv-t3":
        "ac9c1ae36622ca69e740ab7c09937a050b79a0d43958c34f3b44034b879ea437",
    "tiny-hungarian-json-t1":
        "638b1ddfdbaf094be1800064afe29d39c0a778e60cb5cf717bd268a44c2c744d",
    "tiny-hungarian-json-t2":
        "638b1ddfdbaf094be1800064afe29d39c0a778e60cb5cf717bd268a44c2c744d",
    "tiny-hungarian-json-t3":
        "638b1ddfdbaf094be1800064afe29d39c0a778e60cb5cf717bd268a44c2c744d",
    "tiny-hungarian-csv-t1":
        "b10ecbc6eb0cfba5545e12d15fe37f26ac9040d6f56aae2556b1d680dd011e72",
    "tiny-hungarian-csv-t2":
        "b10ecbc6eb0cfba5545e12d15fe37f26ac9040d6f56aae2556b1d680dd011e72",
    "tiny-hungarian-csv-t3":
        "b10ecbc6eb0cfba5545e12d15fe37f26ac9040d6f56aae2556b1d680dd011e72",
    "seeded-uniform-json-t1":
        "f69429d0860049756e89e3950db96a0cb169f698ea38d86aebfe09305bd056e2",
    "seeded-uniform-json-t2":
        "f69429d0860049756e89e3950db96a0cb169f698ea38d86aebfe09305bd056e2",
    "seeded-uniform-json-t3":
        "f69429d0860049756e89e3950db96a0cb169f698ea38d86aebfe09305bd056e2",
    "seeded-uniform-csv-t1":
        "f49fe039be569f3bfe36fd35cd14b514fd4a65d33abfb4213c5f8cf33eb5e9e6",
    "seeded-uniform-csv-t2":
        "f49fe039be569f3bfe36fd35cd14b514fd4a65d33abfb4213c5f8cf33eb5e9e6",
    "seeded-uniform-csv-t3":
        "f49fe039be569f3bfe36fd35cd14b514fd4a65d33abfb4213c5f8cf33eb5e9e6",
    "seeded-topk-json-t1":
        "9323d7267be301f16c00ad46d1e45a1c3867e0a6f35b3b22661708ef41e1696f",
    "seeded-topk-json-t2":
        "9323d7267be301f16c00ad46d1e45a1c3867e0a6f35b3b22661708ef41e1696f",
    "seeded-topk-json-t3":
        "9323d7267be301f16c00ad46d1e45a1c3867e0a6f35b3b22661708ef41e1696f",
    "seeded-topk-csv-t1":
        "33c8d742ab2cc8e04638daa5631e08359a1f36bad090bac030b85645a2a5b91d",
    "seeded-topk-csv-t2":
        "33c8d742ab2cc8e04638daa5631e08359a1f36bad090bac030b85645a2a5b91d",
    "seeded-topk-csv-t3":
        "33c8d742ab2cc8e04638daa5631e08359a1f36bad090bac030b85645a2a5b91d",
    "seeded-max_iou-json-t1":
        "0674576d289f15a6ecfcae84f2a3c3b68a2a31aeaed2d7f64d905950a527b73c",
    "seeded-max_iou-json-t2":
        "0674576d289f15a6ecfcae84f2a3c3b68a2a31aeaed2d7f64d905950a527b73c",
    "seeded-max_iou-json-t3":
        "0674576d289f15a6ecfcae84f2a3c3b68a2a31aeaed2d7f64d905950a527b73c",
    "seeded-max_iou-csv-t1":
        "4fda37b18d9b6bdf3a0c1b1da4805e3a06db542c82be5f100898990df8add16b",
    "seeded-max_iou-csv-t2":
        "4fda37b18d9b6bdf3a0c1b1da4805e3a06db542c82be5f100898990df8add16b",
    "seeded-max_iou-csv-t3":
        "4fda37b18d9b6bdf3a0c1b1da4805e3a06db542c82be5f100898990df8add16b",
    "seeded-atss-json-t1":
        "13771706f970a74add6bf7eead3a426076a16af9022362b102a94b73e23e0b96",
    "seeded-atss-json-t2":
        "13771706f970a74add6bf7eead3a426076a16af9022362b102a94b73e23e0b96",
    "seeded-atss-json-t3":
        "13771706f970a74add6bf7eead3a426076a16af9022362b102a94b73e23e0b96",
    "seeded-atss-csv-t1":
        "d0e3cb3dd7ff33078b83d3ab39887554d5297a1fcb30572aa1ac414bde649a7c",
    "seeded-atss-csv-t2":
        "d0e3cb3dd7ff33078b83d3ab39887554d5297a1fcb30572aa1ac414bde649a7c",
    "seeded-atss-csv-t3":
        "d0e3cb3dd7ff33078b83d3ab39887554d5297a1fcb30572aa1ac414bde649a7c",
    "seeded-hungarian-json-t1":
        "b3c8a24404be457135b70afb463a7da2de1145091ef96070d440a255d85b1f22",
    "seeded-hungarian-json-t2":
        "b3c8a24404be457135b70afb463a7da2de1145091ef96070d440a255d85b1f22",
    "seeded-hungarian-json-t3":
        "b3c8a24404be457135b70afb463a7da2de1145091ef96070d440a255d85b1f22",
    "seeded-hungarian-csv-t1":
        "9ed30f4119e8aff16e4e406b1ec7781b29433267adc0c4bca1f5fbccdea05624",
    "seeded-hungarian-csv-t2":
        "9ed30f4119e8aff16e4e406b1ec7781b29433267adc0c4bca1f5fbccdea05624",
    "seeded-hungarian-csv-t3":
        "9ed30f4119e8aff16e4e406b1ec7781b29433267adc0c4bca1f5fbccdea05624",
    "tiny-shift":
        "2f1b184a89e34fbbced9514b63c42382e7a4006f44f5db0a982a7a10a77edabb",
    "seeded-shift":
        "7af09b0ec87d6fe3a2a5ffd85526a2a9ffac42f9d6695c4d65445fd502c0744b",
}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_bytes_unchanged(case, tmp_path, tiny_corpus_path,
                                seeded_corpus_path, monkeypatch):
    monkeypatch.setenv("YOLOF_ASSIGN_THREADS", str(case[3]))
    if case[3] > 1:  # these corpora are too small to fork by default
        monkeypatch.setattr(coco, "_FORK_GTS", 1)
    path = tiny_corpus_path if case[0] == "tiny" else seeded_corpus_path
    data = report_bytes(case, tmp_path, path)
    assert hashlib.sha256(data).hexdigest() == DIGESTS[case_id(case)]
