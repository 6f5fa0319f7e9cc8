"""Multiply-accumulate cost model for encoder topologies and decoder heads.

One MAC counts as one FLOP.  Bias, batch-norm, activation, interpolation,
and addition costs are excluded; convolutions dominate and the exclusion
is recorded in report metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoder import FEATURE_LEVEL_STRIDES, EncoderSpec
from .geometry import ImageSize

# ResNet-style backbone output channels feeding the encoder
BACKBONE_CHANNELS = {"C3": 512, "C4": 1024, "C5": 2048, "DC5": 2048}

COST_NOTES = (
    "MAC counted as 1 FLOP; bias/BN/ReLU/interpolation/addition excluded; "
    "encoder and decoder only, no backbone"
)


def level_size(level: str, image: ImageSize):
    """Spatial extent ``(h, w)`` of a feature level, by ceiling division."""
    stride = FEATURE_LEVEL_STRIDES[level]
    return -(-image.height // stride), -(-image.width // stride)


def conv_flops(in_ch: int, out_ch: int, kernel: int, h: int, w: int) -> int:
    """MACs of one convolution producing an ``h x w`` map."""
    if min(in_ch, out_ch, kernel, h, w) <= 0:
        raise ValueError("all convolution dimensions must be positive")
    return h * w * out_ch * in_ch * kernel * kernel


@dataclass(frozen=True)
class ConvLayer:
    """One convolution placed at a named output level."""

    name: str
    in_ch: int
    out_ch: int
    kernel: int
    level: str  # level whose spatial size the output map has

    def flops(self, image: ImageSize) -> int:
        h, w = level_size(self.level, image)
        return conv_flops(self.in_ch, self.out_ch, self.kernel, h, w)


@dataclass
class EncoderTopology:
    """Layer inventory of one encoder variant plus its output levels."""

    kind: str
    input_levels: tuple
    output_levels: tuple
    layers: list

    @classmethod
    def siso(cls, channels: int = 256) -> "EncoderTopology":
        layers = [
            ConvLayer("lateral_c5", BACKBONE_CHANNELS["C5"], channels, 1, "C5"),
            ConvLayer("out_p5", channels, channels, 3, "P5"),
        ]
        return cls("SiSo", ("C5",), ("P5",), layers)

    @classmethod
    def simo(cls, channels: int = 256) -> "EncoderTopology":
        layers = [
            ConvLayer("lateral_c5", BACKBONE_CHANNELS["C5"], channels, 1, "C5"),
            ConvLayer("out_p3", channels, channels, 3, "P3"),
            ConvLayer("out_p4", channels, channels, 3, "P4"),
            ConvLayer("out_p5", channels, channels, 3, "P5"),
            ConvLayer("down_p6", BACKBONE_CHANNELS["C5"], channels, 3, "P6"),
            ConvLayer("down_p7", channels, channels, 3, "P7"),
        ]
        return cls("SiMo", ("C5",), ("P3", "P4", "P5", "P6", "P7"), layers)

    @classmethod
    def miso(cls, channels: int = 256) -> "EncoderTopology":
        # bottom-up aggregation of C3-C5 into a single P5 output
        layers = [
            ConvLayer("lateral_c3", BACKBONE_CHANNELS["C3"], channels, 1, "C3"),
            ConvLayer("lateral_c4", BACKBONE_CHANNELS["C4"], channels, 1, "C4"),
            ConvLayer("lateral_c5", BACKBONE_CHANNELS["C5"], channels, 1, "C5"),
            ConvLayer("merge_c3", channels, channels, 3, "C3"),
            ConvLayer("merge_c4", channels, channels, 3, "C4"),
            ConvLayer("down_c3_c4", channels, channels, 3, "C4"),
            ConvLayer("down_c4_c5", channels, channels, 3, "C5"),
            ConvLayer("out_p5", channels, channels, 3, "P5"),
        ]
        return cls("MiSo", ("C3", "C4", "C5"), ("P5",), layers)

    @classmethod
    def mimo(cls, channels: int = 256) -> "EncoderTopology":
        layers = [
            ConvLayer("lateral_c3", BACKBONE_CHANNELS["C3"], channels, 1, "C3"),
            ConvLayer("lateral_c4", BACKBONE_CHANNELS["C4"], channels, 1, "C4"),
            ConvLayer("lateral_c5", BACKBONE_CHANNELS["C5"], channels, 1, "C5"),
            ConvLayer("out_p3", channels, channels, 3, "P3"),
            ConvLayer("out_p4", channels, channels, 3, "P4"),
            ConvLayer("out_p5", channels, channels, 3, "P5"),
            ConvLayer("down_p6", BACKBONE_CHANNELS["C5"], channels, 3, "P6"),
            ConvLayer("down_p7", channels, channels, 3, "P7"),
        ]
        return cls("MiMo", ("C3", "C4", "C5"), ("P3", "P4", "P5", "P6", "P7"),
                   layers)

    @classmethod
    def from_encoder_spec(cls, spec: EncoderSpec) -> "EncoderTopology":
        """Adapter: the dilated single-level encoder as a layer inventory
        on P5."""
        b = spec.block_channels
        m = spec.mid_channels
        layers = [
            ConvLayer("proj_reduce", spec.in_channels, m, 1, "P5"),
            ConvLayer("proj_refine", m, m, 3, "P5"),
        ]
        for i in range(spec.num_blocks):
            layers += [
                ConvLayer(f"block{i}_reduce", m, b, 1, "P5"),
                ConvLayer(f"block{i}_dilated", b, b, 3, "P5"),
                ConvLayer(f"block{i}_expand", b, m, 1, "P5"),
            ]
        return cls("DilatedEncoder", ("C5",), ("P5",), layers)

    @classmethod
    def by_name(cls, name: str, channels: int = 256) -> "EncoderTopology":
        builders = {"mimo": cls.mimo, "simo": cls.simo, "miso": cls.miso,
                    "siso": cls.siso}
        try:
            return builders[name.lower()](channels)
        except KeyError:
            raise ValueError(f"unknown topology {name!r}") from None


@dataclass(frozen=True)
class DecoderSpec:
    """Classification/regression head stacks applied on each output level."""

    cls_convs: int = 2
    reg_convs: int = 4
    channels: int = 256
    anchors_per_position: int = 5
    num_classes: int = 80
    objectness: bool = False

    def __post_init__(self):
        for name in ("cls_convs", "reg_convs", "anchors_per_position",
                     "num_classes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)}")

    def layers(self, level: str) -> list:
        out = []
        c = self.channels
        for i in range(self.cls_convs):
            out.append(ConvLayer(f"cls_conv{i}", c, c, 3, level))
        for i in range(self.reg_convs):
            out.append(ConvLayer(f"reg_conv{i}", c, c, 3, level))
        a = self.anchors_per_position
        if a * self.num_classes > 0:
            out.append(ConvLayer("cls_out", c, a * self.num_classes, 3, level))
        if a > 0:
            out.append(ConvLayer("reg_out", c, a * 4, 3, level))
            if self.objectness:
                out.append(ConvLayer("obj_out", c, a, 3, level))
        return out


@dataclass
class FlopsReport:
    """Per-layer MAC breakdown with encoder and decoder totals."""

    topology: str
    encoder_layers: list  # (layer name, level, macs)
    decoder_layers: list

    @property
    def encoder_total(self) -> int:
        return sum(m for _, _, m in self.encoder_layers)

    @property
    def decoder_total(self) -> int:
        return sum(m for _, _, m in self.decoder_layers)

    @property
    def total(self) -> int:
        return self.encoder_total + self.decoder_total

    def per_level(self) -> dict:
        out = {}
        for _, level, macs in self.encoder_layers + self.decoder_layers:
            out[level] = out.get(level, 0) + macs
        return out


def encoder_decoder_flops(topology: EncoderTopology, decoder: DecoderSpec,
                          image: ImageSize) -> FlopsReport:
    """Sum convolution MACs over the encoder inventory and the decoder
    heads applied on every encoder output level."""
    enc = [(l.name, l.level, l.flops(image)) for l in topology.layers]
    dec = []
    for level in topology.output_levels:
        if level not in FEATURE_LEVEL_STRIDES:
            raise ValueError(f"unknown level name {level!r}")
        dec += [(l.name, level, l.flops(image))
                for l in decoder.layers(level)]
    return FlopsReport(topology=topology.kind, encoder_layers=enc,
                       decoder_layers=dec)
