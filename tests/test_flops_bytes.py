"""The bytes of the ``flops`` command, pinned.

Each case is one ``--topology`` and ``--image`` run over every
``--channels``, ``--head-convs`` and ``--anchors-per-position`` value of
the grid below.  Its digest is the sha256 of the exit code, standard
output and standard error of those runs, in grid order, taken from an
earlier implementation of the command and never regenerated from the
code under test.
"""

import hashlib
import itertools

import pytest

from yolof_assign.cli import main

TOPOLOGIES = ("siso", "simo", "miso", "mimo", "yolof", "SiSo")
IMAGES = ("800x1280", "1x1", "333x517", "608x608")
# (--channels, --head-convs, --anchors-per-position)
MODEL_SIZES = list(itertools.product((256, 64, 7), (4, 0), (9, 0)))

DIGESTS = {
    ("siso", "800x1280"):
        "603b5b035929ee3f3e1eee5b1c13afb7d33b89454d0753eb95d9878cf379f011",
    ("siso", "1x1"):
        "79ebabc4eb138c65e9051720605d286f9ac58fcb4a0e06a02af16fd1ed163510",
    ("siso", "333x517"):
        "f763780a49ddf15cde9301c9dc451b996ca0bd5df96fc9ac3087806461bd025e",
    ("siso", "608x608"):
        "fd4e8ce24c9dd6d1421af9cbf8e88d345f0500a00aed59f03278cfddaf449a70",
    ("simo", "800x1280"):
        "8c6ba63b008e1ae7c7c0e223b4a16cee8891feb9ab62445cd43e4656e8329f58",
    ("simo", "1x1"):
        "e4ea1b8bafb825ee32b1bfcb0aff4da392275fbc37d9475878d762e51af419cc",
    ("simo", "333x517"):
        "e28e747d9f7f72bdd7a7f0366c3d6286be33b3685aae0a57bf61a8480362575a",
    ("simo", "608x608"):
        "b48b2f3845d2af2e266d15a9962ecaad8e848bdc7bf3ed64926c20e01cc743b8",
    ("miso", "800x1280"):
        "b340ea5d4d19503ddfa7d88a59d9b0fd044825c7d4ffb9c319124736a89894d7",
    ("miso", "1x1"):
        "597cb3245553f91d69905054bafa629589fa559b472cf12432d05e57973b0b25",
    ("miso", "333x517"):
        "f338377ab44eff5d809c9b86b491899f7299ac5b1ac939dad0443641995fdf36",
    ("miso", "608x608"):
        "7a6dd9a808a79698dc4a103408c7711e7d0813f103379980f1102587cd59f8a4",
    ("mimo", "800x1280"):
        "654cc817b643781e496d85c8a6a984af2bbd1c3376eb33028e607efc581d2af5",
    ("mimo", "1x1"):
        "c38c052e627deff06578a4f0bdd9afd45727f0e613887f3d69645efd43c8c27c",
    ("mimo", "333x517"):
        "92665ccdb06715e4290d20ce38a0f114b454c8ce71989319fc25c67725c595b9",
    ("mimo", "608x608"):
        "a0540fdda877969e3d03002242dd88ad8c58a96ef8c0b0f985e1d9ef2408dbda",
    ("yolof", "800x1280"):
        "86a4c2a323e7f8f42312de0358094b2045948581d1cc2464da2bf1712c0d3f70",
    ("yolof", "1x1"):
        "5c742d7cbfea212d577f3546709a5386829dafae122efe650bb497e117f28150",
    ("yolof", "333x517"):
        "723ef041adb713c12e4b1e8efebc2f1e38898fc1e36d38629e582945b49d4d1d",
    ("yolof", "608x608"):
        "3a79a203a087d8aae913c8921dd6eefca040a13ca9ca8b454a1343f50e383076",
    ("SiSo", "800x1280"):
        "603b5b035929ee3f3e1eee5b1c13afb7d33b89454d0753eb95d9878cf379f011",
    ("SiSo", "1x1"):
        "79ebabc4eb138c65e9051720605d286f9ac58fcb4a0e06a02af16fd1ed163510",
    ("SiSo", "333x517"):
        "f763780a49ddf15cde9301c9dc451b996ca0bd5df96fc9ac3087806461bd025e",
    ("SiSo", "608x608"):
        "fd4e8ce24c9dd6d1421af9cbf8e88d345f0500a00aed59f03278cfddaf449a70",
}


def grid_digest(capsys, topology: str, image: str) -> str:
    digest = hashlib.sha256()
    for channels, head_convs, anchors in MODEL_SIZES:
        code = main(["flops", "--topology", topology, "--image", image,
                     "--channels", str(channels),
                     "--head-convs", str(head_convs),
                     "--anchors-per-position", str(anchors)])
        out, err = capsys.readouterr()
        digest.update(f"{code}\n{len(out)}\n{out}{len(err)}\n{err}"
                      .encode("utf-8"))
    return digest.hexdigest()


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(itertools.product(TOPOLOGIES, IMAGES))


@pytest.mark.parametrize("topology,image",
                         list(itertools.product(TOPOLOGIES, IMAGES)))
def test_flops_bytes_unchanged(capsys, topology, image):
    assert grid_digest(capsys, topology, image) == DIGESTS[topology, image]
