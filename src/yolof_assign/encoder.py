"""Structural model of the dilated single-level encoder.

Covers three views of the same structure: analytic receptive-field
enumeration over shortcut paths, a scale-coverage interval model, and a
naive numeric forward pass (convolutions and ReLUs) whose impulse
response checks the analytic extents.  The footprint depends only on
kernel support, so the pass has no batch norm and no training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEATURE_LEVEL_STRIDES = {
    "C3": 8, "C4": 16, "C5": 32, "DC5": 16,
    "P3": 8, "P4": 16, "P5": 32, "P6": 64, "P7": 128,
}


@dataclass(frozen=True)
class EncoderSpec:
    """Projector (1x1 then 3x3 conv) followed by dilated residual blocks,
    one per dilation.

    Each block is 1x1 reduce (rate 4), 3x3 dilated, 1x1 expand, with an
    identity shortcut that can be disabled.
    """

    in_channels: int = 2048
    mid_channels: int = 512
    dilations: tuple = (2, 4, 6, 8)
    shortcuts: bool = True

    def __post_init__(self):
        for name in ("in_channels", "mid_channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")
        if any(d < 1 for d in self.dilations):
            raise ValueError("dilations must be positive integers")
        if self.mid_channels % 4:
            raise ValueError("mid_channels must be divisible by 4")

    @property
    def num_blocks(self) -> int:
        return len(self.dilations)

    @property
    def block_channels(self) -> int:
        return self.mid_channels // 4

    def convs(self) -> list:
        """Every conv in forward order, as ``(name, in, out, kernel)``: the
        projector pair, then each block's reduce, dilated and expand."""
        b, m = self.block_channels, self.mid_channels
        convs = [("proj_reduce", self.in_channels, m, 1),
                 ("proj_refine", m, m, 3)]
        for i in range(self.num_blocks):
            convs += [(f"block{i}_reduce", m, b, 1),
                      (f"block{i}_dilated", b, b, 3),
                      (f"block{i}_expand", b, m, 1)]
        return convs


@dataclass(frozen=True)
class RFProfile:
    """Receptive-field extents (feature-grid cells), one per shortcut path."""

    extents: tuple

    @property
    def max_extent(self) -> int:
        return max(self.extents)

    def pixel_coverage(self, stride: int) -> int:
        """Approximate input-pixel span of the widest path."""
        _check_stride(stride)
        return self.max_extent * stride


def _check_stride(stride: int) -> None:
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")


def rf_profile(spec: EncoderSpec) -> RFProfile:
    """Receptive-field extents over all shortcut path subsets, built as
    the distinct subset sums of the dilations, one block at a time.

    The projector's 3x3 contributes extent 3; a traversed block's dilated
    3x3 adds ``2 * d``; 1x1 layers add nothing.  Without shortcuts only
    the all-through path exists.
    """
    sums = {0}  # the distinct dilation sums of the paths so far
    for d in spec.dilations:
        sums = {s + d for s in sums} | (sums if spec.shortcuts else set())
    return RFProfile(extents=tuple(sorted(3 + 2 * s for s in sums)))


def scale_coverage(profile: RFProfile, stride: int):
    """Heuristic object-scale bands covered by each extent.

    Each extent ``e`` maps to the pixel-scale interval
    ``[e * stride / 2, e * stride]``.  Returns ``(bands, union, gaps)``;
    this is a model of coverage, not a measured quantity.
    """
    if not profile.extents:
        raise ValueError("empty receptive-field profile")
    _check_stride(stride)
    bands = [(e * stride / 2.0, float(e * stride)) for e in profile.extents]
    union = []
    for lo, hi in sorted(bands):
        if union and lo <= union[-1][1]:
            union[-1] = (union[-1][0], max(union[-1][1], hi))
        else:
            union.append((lo, hi))
    gaps = [(union[i][1], union[i + 1][0]) for i in range(len(union) - 1)]
    return bands, union, gaps


@dataclass
class WeightSet:
    """All encoder kernels, each ``(out, in, k, k)``: the projector pair
    plus per-block conv triples."""

    proj_reduce: np.ndarray
    proj_refine: np.ndarray
    blocks: list  # [(reduce, dilated, expand), ...]

    @classmethod
    def constant(cls, spec: EncoderSpec, value: float = 0.05) -> "WeightSet":
        """All-positive constant kernels."""
        convs = [np.full((out, inp, k, k), value)
                 for _, inp, out, k in spec.convs()]
        return cls(proj_reduce=convs[0], proj_refine=convs[1],
                   blocks=[tuple(convs[i:i + 3])
                           for i in range(2, len(convs), 3)])


def conv2d(x: np.ndarray, weight: np.ndarray, dilation: int = 1) -> np.ndarray:
    """Direct 2-D convolution, zero padded to preserve H x W.

    ``x`` is ``(C, H, W)``; ``weight`` is ``(O, C, k, k)`` with odd ``k``.
    Padding equals ``dilation * (k // 2)``.
    """
    out_ch, in_ch, k, _ = weight.shape
    if x.shape[0] != in_ch:
        raise ValueError(f"input has {x.shape[0]} channels, weight expects "
                         f"{in_ch}")
    _, h, w = x.shape
    pad = dilation * (k // 2)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((out_ch, h, w))
    for ky in range(k):
        for kx in range(k):
            patch = xp[:, ky * dilation:ky * dilation + h,
                       kx * dilation:kx * dilation + w]
            out += np.tensordot(weight[:, :, ky, kx], patch, axes=1)
    return out


def forward(spec: EncoderSpec, x: np.ndarray,
            weights: WeightSet) -> np.ndarray:
    """Numeric forward pass: projector (two convs, no activation) then
    residual blocks (every conv followed by ReLU, shortcut added after the
    block)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] != spec.in_channels:
        raise ValueError(f"expected ({spec.in_channels}, H, W) input, got "
                         f"shape {x.shape}")
    x = conv2d(conv2d(x, weights.proj_reduce), weights.proj_refine)
    for (reduce_w, dilated_w, expand_w), d in zip(weights.blocks,
                                                  spec.dilations):
        y = np.maximum(conv2d(x, reduce_w), 0.0)
        y = np.maximum(conv2d(y, dilated_w, dilation=d), 0.0)
        y = np.maximum(conv2d(y, expand_w), 0.0)
        x = x + y if spec.shortcuts else y
    return x


def impulse_footprint(spec: EncoderSpec, grid: int) -> int:
    """Side of the nonzero output square for a centered unit impulse.

    Runs the numeric forward with all-positive constant weights; the
    result should equal the analytic max receptive-field extent when the
    grid is large enough to contain it.
    """
    x = np.zeros((spec.in_channels, grid, grid))
    x[0, grid // 2, grid // 2] = 1.0
    out = forward(spec, x, WeightSet.constant(spec))
    hot = np.abs(out).sum(axis=0) > 0
    ys, xs = np.nonzero(hot)
    if len(ys) == 0:
        return 0
    return int(max(ys.max() - ys.min(), xs.max() - xs.min()) + 1)
