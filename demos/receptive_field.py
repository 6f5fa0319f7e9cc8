"""Receptive-field structure of the dilated residual encoder.

Shows how residual shortcuts turn a single receptive-field extent into a
whole ladder of extents (one per subset of blocks), checks the analytic
numbers against an impulse-response forward pass, and maps extents onto
object-scale coverage bands.
"""

from yolof_assign import (EncoderSpec, impulse_footprint, rf_profile,
                          scale_coverage)


STRIDE = 32


def show(spec, label):
    profile = rf_profile(spec)
    print(f"{label}: extents {profile.extents}")
    print(f"  max extent {profile.max_extent} "
          f"-> {profile.pixel_coverage(STRIDE)} px at stride {STRIDE}")
    footprint = impulse_footprint(
        EncoderSpec(in_channels=3, mid_channels=4, dilations=spec.dilations,
                    shortcuts=spec.shortcuts), 96)
    print(f"  impulse footprint on a 96x96 grid: {footprint}")


def main():
    default = EncoderSpec()
    show(default, "dilations (2,4,6,8), shortcuts on")
    show(EncoderSpec(shortcuts=False), "dilations (2,4,6,8), shortcuts off")
    show(EncoderSpec(dilations=(1, 2, 3, 4)), "dilations (1,2,3,4)")

    bands, union, gaps = scale_coverage(rf_profile(default), STRIDE)
    print("\nscale coverage bands (object-size ranges each extent serves):")
    for extent, (lo, hi) in zip(rf_profile(default).extents, bands):
        print(f"  extent {extent:>2}: [{lo:.0f}, {hi:.0f}] px")
    print(f"union: {union}")
    print(f"gaps:  {gaps if gaps else 'none'}")


if __name__ == "__main__":
    main()
