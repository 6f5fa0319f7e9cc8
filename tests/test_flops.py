import dataclasses
import itertools

import pytest

from yolof_assign.encoder import EncoderSpec, WeightSet
from yolof_assign.flops import (ConvLayer, DecoderSpec, EncoderTopology,
                                conv_flops, encoder_decoder_flops,
                                level_size)
from yolof_assign.geometry import ImageSize

from oracles import dilated_encoder_convs_py, fpn_layers_py

IMAGE = ImageSize(1280, 800)


class TestConvFlops:
    def test_unit(self):
        assert conv_flops(1, 1, 1, 1, 1) == 1

    def test_3x3_256(self):
        assert conv_flops(256, 256, 3, 25, 40) == 589_824_000

    def test_1x1_projection(self):
        assert conv_flops(2048, 512, 1, 25, 40) == 1_048_576_000

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            conv_flops(0, 1, 1, 1, 1)


class TestLevelSizes:
    def test_matches_anchor_grid_convention(self):
        assert level_size("P5", IMAGE) == (25, 40)
        assert level_size("P3", IMAGE) == (100, 160)
        assert level_size("P7", IMAGE) == (7, 10)
        assert level_size("C4", IMAGE) == (50, 80)


class TestTopologies:
    def test_kind_level_sets(self):
        assert EncoderTopology.by_name("mimo").output_levels \
            == ("P3", "P4", "P5", "P6", "P7")
        assert EncoderTopology.by_name("simo").input_levels == ("C5",)
        assert EncoderTopology.by_name("miso").output_levels == ("P5",)
        assert EncoderTopology.by_name("siso").input_levels == ("C5",)
        with pytest.raises(ValueError):
            EncoderTopology.by_name("mi-mo")

    def test_dilated_encoder_adapter(self):
        topo = EncoderTopology.from_encoder_spec(EncoderSpec())
        report = encoder_decoder_flops(
            topo, DecoderSpec(channels=512, anchors_per_position=5), IMAGE)
        # projector 1x1 alone costs 2048*512 MACs per position
        assert report.encoder_total > conv_flops(2048, 512, 1, 25, 40)
        assert len(topo.layers) == 2 + 3 * 4


class TestLayerInventories:
    @pytest.mark.parametrize("channels", [1, 7, 256, 512])
    @pytest.mark.parametrize("kind", ["siso", "simo", "miso", "mimo"])
    def test_fpn_layers_equal_the_written_out_lists(self, kind, channels):
        for name in (kind, kind.upper()):
            topo = EncoderTopology.by_name(name, channels)
            assert [dataclasses.astuple(l) for l in topo.layers] \
                == fpn_layers_py(kind, channels)

    @pytest.mark.parametrize("num_blocks", range(6))
    @pytest.mark.parametrize("mid_channels", [4, 8, 12, 64, 256, 512])
    @pytest.mark.parametrize("in_channels", [3, 2048])
    def test_dilated_encoder_convs(self, in_channels, mid_channels,
                                   num_blocks):
        spec = EncoderSpec(in_channels=in_channels, mid_channels=mid_channels,
                           dilations=tuple(range(1, num_blocks + 1)))
        convs = dilated_encoder_convs_py(in_channels, mid_channels,
                                         num_blocks)
        topo = EncoderTopology.from_encoder_spec(spec)
        assert (topo.kind, topo.input_levels, topo.output_levels) \
            == ("DilatedEncoder", ("C5",), ("P5",))
        assert [dataclasses.astuple(l) for l in topo.layers] \
            == [(*conv, "P5") for conv in convs]
        weights = WeightSet.constant(spec)
        kernels = [weights.proj_reduce, weights.proj_refine,
                   *itertools.chain.from_iterable(weights.blocks)]
        assert [w.shape for w in kernels] \
            == [(out, inp, k, k) for _, inp, out, k in convs]
        assert len(weights.blocks) == num_blocks


class TestReports:
    def test_additivity(self):
        topo = EncoderTopology.by_name("mimo")
        dec = DecoderSpec(cls_convs=4, reg_convs=4, anchors_per_position=9)
        report = encoder_decoder_flops(topo, dec, IMAGE)
        manual = sum(l.flops(IMAGE) for l in topo.layers)
        assert report.encoder_total == manual
        assert report.total == report.encoder_total + report.decoder_total
        assert sum(report.per_level().values()) == report.total

    def test_zero_decoder(self):
        dec = DecoderSpec(cls_convs=0, reg_convs=0, anchors_per_position=0)
        report = encoder_decoder_flops(EncoderTopology.by_name("siso"), dec,
                                       IMAGE)
        assert report.decoder_total == 0

    @pytest.mark.parametrize("field", ["cls_convs", "reg_convs",
                                       "anchors_per_position", "num_classes"])
    def test_negative_count_refused(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -3"):
            DecoderSpec(**{field: -3})
        assert DecoderSpec(**{field: 0}).layers("P5")  # 0 stays allowed

    @pytest.mark.parametrize("channels", [0, -8])
    def test_width_below_1_refused(self, channels):
        with pytest.raises(ValueError,
                           match=f"^channels must be >= 1, got {channels}$"):
            DecoderSpec(channels=channels)
        assert DecoderSpec(channels=1).layers("P5")

    def test_rejects_unknown_level(self):
        topo = EncoderTopology.by_name("siso")
        topo.output_levels = ("P9",)
        with pytest.raises(ValueError):
            encoder_decoder_flops(topo, DecoderSpec(), IMAGE)


def total_macs(kind, channels=256):
    topo = EncoderTopology.by_name(kind, channels)
    dec = DecoderSpec(cls_convs=4, reg_convs=4, channels=channels,
                      anchors_per_position=9)
    return encoder_decoder_flops(topo, dec, IMAGE).total


class TestMonotonicity:
    def test_level_count_ordering(self):
        mimo = total_macs("mimo")
        simo = total_macs("simo")
        miso = total_macs("miso")
        siso = total_macs("siso")
        assert mimo >= simo >= siso
        assert mimo >= miso >= siso

    def test_mimo_vs_siso_ratio(self):
        assert total_macs("mimo") / total_macs("siso") >= 15.0

    def test_quadratic_in_channels(self):
        # synthetic stack whose every layer scales both ends with C
        def stack(c):
            layers = [ConvLayer(f"l{i}", c, c, 3, "P5") for i in range(6)]
            topo = EncoderTopology("stack", ("C5",), ("P5",), layers)
            dec = DecoderSpec(cls_convs=0, reg_convs=0,
                              anchors_per_position=0, channels=c)
            return encoder_decoder_flops(topo, dec, IMAGE).total

        assert stack(128) * 4 == stack(256)
        assert stack(64) * 16 == stack(256)
