"""Compare positive-anchor balance across label assignment strategies.

Builds a batch of synthetic scenes with one small, one medium, and one
large ground-truth box each, runs every matcher over the same anchor
grid, and prints per-bucket positive counts. Uniform matching hands each
box the same number of positives regardless of size; IoU-thresholded
matchers starve the small boxes.
"""

import numpy as np

from yolof_assign import (AnchorConfig, GroundTruthSet, ImageSize,
                          MaxIoUConfig, SizeBuckets, atss_match, distribution,
                          generate_anchors, hungarian_match,
                          imbalance_ratio, max_iou_match, uniform_match)


def make_scene(rng):
    boxes = []
    for side in (18.0, 48.0, 140.0):
        cx = rng.uniform(side, 640 - side)
        cy = rng.uniform(side, 640 - side)
        boxes.append((cx - side / 2, cy - side / 2,
                      cx + side / 2, cy + side / 2))
    return GroundTruthSet(boxes=np.array(boxes),
                          class_ids=np.zeros(3, dtype=int))


def main():
    rng = np.random.default_rng(11)
    grid = generate_anchors(AnchorConfig(), ImageSize(640, 640))
    scenes = [make_scene(rng) for _ in range(100)]

    matchers = {
        "uniform": lambda g: uniform_match(grid, g),
        "max_iou": lambda g: max_iou_match(grid, g,
                                           MaxIoUConfig(rescue=False)),
        "atss": lambda g: atss_match(grid, g),
        "hungarian": lambda g: hungarian_match(grid, g),
    }
    print(f"{'matcher':<10} {'small':>8} {'medium':>8} {'large':>8} "
          f"{'zero%(small)':>13} {'imbalance':>10}")
    for name, fn in matchers.items():
        dist = distribution([(i, len(grid), len(g))
                             for i, g in enumerate(scenes)],
                            np.concatenate([g.boxes for g in scenes]),
                            np.concatenate([fn(g).positives_per_gt
                                            for g in scenes]),
                            name, SizeBuckets())
        means = [dist.mean(b) for b in ("small", "medium", "large")]
        ratio = imbalance_ratio(dist)
        print(f"{name:<10} {means[0]:>8.2f} {means[1]:>8.2f} "
              f"{means[2]:>8.2f} {dist.zero_fraction('small'):>12.0%} "
              f"{ratio:>10.2f}")


if __name__ == "__main__":
    main()
