"""Greedy non-maximum suppression, step by step.

Builds a cluster of overlapping detections in two classes and shows what
survives at a few IoU thresholds.
"""

import numpy as np

from yolof_assign import iou, nms

# (box, score, class id)
DETECTIONS = [
    ((10, 10, 60, 60), 0.95, 0),
    ((12, 12, 62, 62), 0.90, 0),  # near dup
    ((40, 40, 90, 90), 0.80, 0),  # partial
    ((10, 10, 60, 60), 0.85, 1),  # other class
    ((200, 200, 240, 240), 0.30, 0),  # isolated
    ((202, 198, 238, 242), 0.25, 0),
]


def main():
    print("detections:")
    for i, (box, score, class_id) in enumerate(DETECTIONS):
        print(f"  [{i}] class {class_id} score {score:.2f} box {box}")
    print(f"\nIoU of [0] vs [1]: "
          f"{iou(DETECTIONS[0][0], DETECTIONS[1][0]):.3f}")

    columns = [np.array(column) for column in zip(*DETECTIONS)]
    for thr in (0.8, 0.6, 0.3):
        kept = nms(*columns, thr)
        print(f"nms @ IoU {thr}: keep {kept}")


if __name__ == "__main__":
    main()
