import numpy as np
import pytest

from yolof_assign.encoder import (EncoderSpec, WeightSet, conv2d, forward,
                                  impulse_footprint, rf_profile,
                                  scale_coverage)

from oracles import rf_extents_py


def small_spec(**kwargs):
    kwargs.setdefault("in_channels", 4)
    kwargs.setdefault("mid_channels", 4)
    return EncoderSpec(**kwargs)


class TestRFProfile:
    def test_default_dilations(self):
        profile = rf_profile(EncoderSpec())
        assert profile.extents == (3, 7, 11, 15, 19, 23, 27, 31, 35, 39, 43)
        assert profile.max_extent == 43

    def test_unit_dilations(self):
        profile = rf_profile(EncoderSpec(dilations=(1, 1, 1, 1)))
        assert profile.extents == (3, 5, 7, 9, 11)
        assert profile.max_extent == 11

    def test_projector_only(self):
        profile = rf_profile(EncoderSpec(num_blocks=0, dilations=()))
        assert profile.extents == (3,)

    @pytest.mark.parametrize("dilations", [
        (2, 4, 6, 8), (1, 2, 3, 4), (5,), (1, 1, 2), (3, 6, 9, 12),
    ])
    def test_matches_subset_sum_oracle(self, dilations):
        spec = EncoderSpec(num_blocks=len(dilations), dilations=dilations)
        assert rf_profile(spec).extents == rf_extents_py(dilations)

    def test_random_specs_match_path_enumeration(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            dilations = tuple(rng.integers(1, 13, rng.integers(0, 10)).tolist())
            for shortcuts in (True, False):
                spec = EncoderSpec(num_blocks=len(dilations),
                                   dilations=dilations, shortcuts=shortcuts)
                assert rf_profile(spec).extents \
                    == rf_extents_py(dilations, shortcuts)

    def test_many_blocks(self):
        # 2**64 shortcut paths, 65 distinct extents
        profile = rf_profile(EncoderSpec(num_blocks=64, dilations=(1,) * 64))
        assert profile.extents == tuple(range(3, 3 + 2 * 65, 2))

    def test_shortcuts_off_single_path(self):
        profile = rf_profile(EncoderSpec(shortcuts=False))
        assert profile.extents == (3 + 2 * (2 + 4 + 6 + 8),)

    def test_max_extent_monotone_in_dilation(self):
        base = rf_profile(EncoderSpec(dilations=(2, 4, 6, 8))).max_extent
        grown = rf_profile(EncoderSpec(dilations=(2, 5, 6, 8))).max_extent
        assert grown > base

    def test_pixel_coverage(self):
        profile = rf_profile(EncoderSpec())
        assert profile.pixel_coverage(32) == 43 * 32

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            EncoderSpec(num_blocks=3, dilations=(1, 2))
        with pytest.raises(ValueError):
            EncoderSpec(mid_channels=510)


class TestScaleCoverage:
    def test_single_extent_band(self):
        profile = rf_profile(EncoderSpec(num_blocks=0, dilations=()))
        bands, union, gaps = scale_coverage(profile, 32)
        assert bands == [(48.0, 96.0)]
        assert union == [(48.0, 96.0)]
        assert gaps == []

    def test_default_union(self):
        # bands [16e, 32e] for e in {3, 7, 11, ...}: adjacent bands overlap
        # from e = 7 on (16(e+4) <= 32e), leaving the single gap (96, 112)
        profile = rf_profile(EncoderSpec())
        _, union, gaps = scale_coverage(profile, 32)
        assert union == [(48.0, 96.0), (112.0, 43 * 32.0)]
        assert gaps == [(96.0, 112.0)]

    @pytest.mark.parametrize("stride", [0, -32])
    def test_stride_below_1_refused(self, stride):
        profile = rf_profile(EncoderSpec())
        with pytest.raises(ValueError, match=f"stride must be >= 1, got "
                                             f"{stride}"):
            scale_coverage(profile, stride)
        with pytest.raises(ValueError, match="stride must be >= 1"):
            profile.pixel_coverage(stride)

    def test_gap_reported(self):
        from yolof_assign.encoder import RFProfile
        _, union, gaps = scale_coverage(RFProfile(extents=(3, 43)), 32)
        assert gaps == [(96.0, 688.0)]
        assert len(union) == 2


def identity_weights(spec):
    """Channel-slice 1x1 kernels and center-tap 3x3 kernels."""
    def eye(out, inp, k):
        w = np.zeros((out, inp, k, k))
        w[:, :, k // 2, k // 2] = np.eye(out, inp)
        return w

    b, m = spec.block_channels, spec.mid_channels
    return WeightSet(proj_reduce=eye(m, spec.in_channels, 1),
                     proj_refine=eye(m, m, 3),
                     blocks=[(eye(b, m, 1), eye(b, b, 3), eye(m, b, 1))
                             for _ in range(spec.num_blocks)])


class TestForward:
    def test_identity_weights_double_per_block(self):
        spec = small_spec()
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, size=(4, 8, 8))
        out = forward(spec, x, identity_weights(spec))
        # channel 0 flows through every block's identity path and is
        # doubled by each shortcut add; channels >= block width pass
        # through
        np.testing.assert_array_equal(out[0], x[0] * 2 ** 4)
        np.testing.assert_array_equal(out[2], x[2])

    def test_zero_input_zero_output(self):
        spec = small_spec()
        out = forward(spec, np.zeros((4, 6, 6)), WeightSet.constant(spec))
        np.testing.assert_array_equal(out, 0.0)

    def test_constant_weight_shortcut_adds_projector_output(self):
        on = small_spec(num_blocks=1, dilations=(2,))
        off = small_spec(num_blocks=1, dilations=(2,), shortcuts=False)
        weights = WeightSet.constant(on)
        x = np.random.default_rng(3).normal(size=(4, 9, 9))
        projected = conv2d(conv2d(x, weights.proj_reduce),
                           weights.proj_refine)
        np.testing.assert_allclose(
            forward(on, x, weights) - forward(off, x, weights), projected,
            rtol=1e-12, atol=1e-12)

    def test_impulse_footprint_matches_profile(self):
        spec = small_spec()
        assert impulse_footprint(spec, 96) == rf_profile(spec).max_extent

    def test_shortcuts_off_footprint(self):
        spec = small_spec(shortcuts=False)
        assert impulse_footprint(spec, 96) == 3 + 2 * (2 + 4 + 6 + 8)

    def test_translation_equivariance(self):
        spec = small_spec(dilations=(1, 2, 1, 1))
        weights = WeightSet.constant(spec)
        grid = 48

        def footprint_box(offset):
            x = np.zeros((4, grid, grid))
            x[0, grid // 2 + offset, grid // 2 + offset] = 1.0
            hot = forward(spec, x, weights).sum(axis=0) > 0
            ys, xs = np.nonzero(hot)
            return ys.min(), ys.max(), xs.min(), xs.max()

        base = footprint_box(0)
        shifted = footprint_box(3)
        assert tuple(v + 3 for v in base) == shifted

    def test_rejects_shape_mismatch(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            forward(spec, np.zeros((3, 8, 8)), WeightSet.constant(spec))
