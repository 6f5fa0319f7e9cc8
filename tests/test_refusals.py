"""Each refusal that no other test reaches, pinned to its wording, and
through ``cli.main`` (exit 2) wherever a flag, config key or environment
variable reaches it; with the decoder's conv-count bound."""

import json
import os
import re

import numpy as np
import pytest

from yolof_assign import reports
from yolof_assign.cli import main
from yolof_assign.coco import worker_count
from yolof_assign.encoder import EncoderSpec, RFProfile, conv2d, scale_coverage
from yolof_assign.flops import DecoderSpec
from yolof_assign.geometry import AnchorConfig, as_boxes
from yolof_assign.matching import (ATSSConfig, GroundTruthSet, MaxIoUConfig,
                                   UniformMatchConfig)
from yolof_assign.postprocess import nms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refused(capsys, message, *argv):
    """``argv`` exits 2 with ``message`` alone on stderr, nothing on
    stdout."""
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def refused_config(capsys, tmp_path, corpus, message, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    refused(capsys, f"{cfg}: {message}", "match-stats", "--input",
            str(corpus), "--config", str(cfg))


def test_negative_worker_count(monkeypatch, capsys, tiny_corpus_path):
    message = "YOLOF_ASSIGN_THREADS must be >= 0"
    monkeypatch.setenv("YOLOF_ASSIGN_THREADS", "-1")
    with pytest.raises(ValueError, match=f"^{message}$"):
        worker_count()
    refused(capsys, message, "match-stats", "--input", str(tiny_corpus_path))


def test_zero_dilation(capsys):
    message = "dilations must be positive integers"
    with pytest.raises(ValueError, match=f"^{message}$"):
        EncoderSpec(dilations=(2, 0))
    refused(capsys, message, "rf", "--dilations", "2,0")


def test_empty_profile_has_no_coverage():
    with pytest.raises(ValueError, match="^empty receptive-field profile$"):
        scale_coverage(RFProfile(()), 32)


def test_conv2d_channel_mismatch():
    with pytest.raises(ValueError,
                       match="^input has 2 channels, weight expects 3$"):
        conv2d(np.zeros((2, 5, 5)), np.zeros((1, 3, 3, 3)))


def test_boxes_of_three_coordinates():
    with pytest.raises(ValueError, match=re.escape(
            "expected (N, 4) boxes, got shape (2, 3)")):
        as_boxes(np.zeros((2, 3)))


@pytest.mark.parametrize("params,message", [
    ({"stride": 0}, "stride must be a positive integer"),
    ({"sizes": ()}, "sizes must be non-empty and positive"),
    ({"aspect_ratios": (1.0, -2.0)},
     "aspect_ratios must be non-empty and positive"),
])
def test_anchor_layout(capsys, tmp_path, tiny_corpus_path, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AnchorConfig(**params)
    refused_config(capsys, tmp_path, tiny_corpus_path, message,
                   {"anchors": params})  # a tuple is written as a list


def test_zero_width_ground_truth():
    with pytest.raises(ValueError, match="^every ground-truth box must have "
                                         "positive area$"):
        GroundTruthSet(boxes=[[10.0, 10.0, 50.0, 40.0],
                              [20.0, 0.0, 20.0, 8.0]])


@pytest.mark.parametrize("matcher,config,params,message", [
    ("uniform", UniformMatchConfig, {"k": 0}, "k must be a positive integer"),
    ("uniform", UniformMatchConfig,
     {"pos_ignore_iou": 0.7, "neg_ignore_iou": 0.7},
     "need 0 <= pos_ignore_iou < neg_ignore_iou <= 1"),
    ("max_iou", MaxIoUConfig, {"pos_iou": 0.3, "neg_iou": 0.4},
     "need 0 <= neg_iou <= pos_iou <= 1"),
    ("atss", ATSSConfig, {"k": 0}, "k must be >= 1"),
])
def test_matcher_config(capsys, tmp_path, tiny_corpus_path, matcher, config,
                        params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        config(**params)
    refused_config(capsys, tmp_path, tiny_corpus_path, message,
                   {"matcher": matcher, "matcher_params": params})


def test_nms_lengths_must_agree():
    with pytest.raises(ValueError, match="^got 3 boxes, 2 scores and 3 "
                                         "class ids$"):
        nms(np.zeros((3, 4)), np.zeros(2), np.zeros(3))


def test_atomic_write_cleans_up_a_failed_rename(monkeypatch, tmp_path):
    def fail(src, dst):
        raise OSError("rename refused")

    target = tmp_path / "out.json"
    target.write_text("old")
    monkeypatch.setattr(reports.os, "replace", fail)
    with pytest.raises(OSError, match="^rename refused$"):
        reports.write_atomic(str(target), "report")
    assert os.listdir(tmp_path) == ["out.json"]  # no .report-* left
    assert target.read_text() == "old"


class TestHeadConvBound:
    @pytest.mark.parametrize("field", ["cls_convs", "reg_convs"])
    def test_past_bound_names_field(self, field):
        layers = DecoderSpec(**{field: 256}).layers("P5")  # the bound is kept
        assert f"{field[:3]}_conv255" in [layer.name for layer in layers]
        with pytest.raises(ValueError,
                           match=f"^{field} must be <= 256, got 257$"):
            DecoderSpec(**{field: 257})

    def test_cli(self, capsys):
        code, out, err = run(capsys, "flops", "--topology", "mimo",
                             "--head-convs", "256")
        assert (code, err) == (0, "")
        names = [layer["name"] for layer in json.loads(out)["decoder_layers"]]
        assert names.count("cls_conv255") == names.count("reg_conv255") == 5
        refused(capsys, "cls_convs must be <= 256, got 257", "flops",
                "--head-convs", "257")

    def test_yolof_ignores_head_convs(self, capsys):
        assert run(capsys, "flops", "--topology", "yolof",
                   "--head-convs", "257") \
            == run(capsys, "flops", "--topology", "yolof")
