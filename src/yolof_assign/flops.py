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

# name -> (kind, input levels, output levels) of the four feature-pyramid
# encoders: one or several backbone levels in, one or several levels out
FPN_ENCODERS = {
    "mimo": ("MiMo", ("C3", "C4", "C5"), ("P3", "P4", "P5", "P6", "P7")),
    "simo": ("SiMo", ("C5",), ("P3", "P4", "P5", "P6", "P7")),
    "miso": ("MiSo", ("C3", "C4", "C5"), ("P5",)),
    "siso": ("SiSo", ("C5",), ("P5",)),
}

MAX_HEAD_CONVS = 256  # per branch: 128 and 64 times YOLOF's 2 and 4 convs

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
    def from_encoder_spec(cls, spec: EncoderSpec) -> "EncoderTopology":
        """Adapter: the dilated single-level encoder as a layer inventory
        on P5."""
        return cls("DilatedEncoder", ("C5",), ("P5",),
                   [ConvLayer(*conv, "P5") for conv in spec.convs()])

    @classmethod
    def by_name(cls, name: str, channels: int = 256) -> "EncoderTopology":
        """One of the four feature-pyramid encoders of ``FPN_ENCODERS``:
        a 1x1 lateral conv per input level, MiSo's bottom-up aggregation,
        a 3x3 output conv per output level up to P5, then RetinaNet's P6
        (from C5) and P7 when the outputs reach them."""
        try:
            kind, inputs, outputs = FPN_ENCODERS[name.lower()]
        except KeyError:
            raise ValueError(f"unknown topology {name!r}") from None
        c = channels
        layers = [ConvLayer(f"lateral_{level.lower()}",
                            BACKBONE_CHANNELS[level], c, 1, level)
                  for level in inputs]
        if kind == "MiSo":  # bottom-up aggregation of C3-C5 into P5
            layers += [ConvLayer(conv, c, c, 3, level) for conv, level in (
                ("merge_c3", "C3"), ("merge_c4", "C4"),
                ("down_c3_c4", "C4"), ("down_c4_c5", "C5"))]
        layers += [ConvLayer(f"out_{level.lower()}", c, c, 3, level)
                   for level in outputs if level not in ("P6", "P7")]
        if "P6" in outputs:
            layers += [ConvLayer("down_p6", BACKBONE_CHANNELS["C5"], c, 3,
                                 "P6"),
                       ConvLayer("down_p7", c, c, 3, "P7")]
        return cls(kind, inputs, outputs, layers)


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
                     "num_classes", "channels"):
            value = getattr(self, name)
            least = 1 if name == "channels" else 0  # a conv has a width
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            if name.endswith("convs") and value > MAX_HEAD_CONVS:
                raise ValueError(f"{name} must be <= {MAX_HEAD_CONVS}, got "
                                 f"{value}")

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
