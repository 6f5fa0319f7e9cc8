"""Greedy non-maximum suppression, step by step.

Builds a cluster of overlapping detections in two classes and shows what
survives at a few IoU thresholds.
"""

from yolof_assign import Detection, detection_columns, iou, nms

DETECTIONS = [
    Detection(box=(10, 10, 60, 60), score=0.95, class_id=0),
    Detection(box=(12, 12, 62, 62), score=0.90, class_id=0),  # near dup
    Detection(box=(40, 40, 90, 90), score=0.80, class_id=0),  # partial
    Detection(box=(10, 10, 60, 60), score=0.85, class_id=1),  # other class
    Detection(box=(200, 200, 240, 240), score=0.30, class_id=0),  # isolated
    Detection(box=(202, 198, 238, 242), score=0.25, class_id=0),
]


def main():
    print("detections:")
    for i, d in enumerate(DETECTIONS):
        print(f"  [{i}] class {d.class_id} score {d.score:.2f} box {d.box}")
    print(f"\nIoU of [0] vs [1]: {iou(DETECTIONS[0].box, DETECTIONS[1].box):.3f}")

    for thr in (0.8, 0.6, 0.3):
        kept = nms(*detection_columns(DETECTIONS), thr)
        print(f"nms @ IoU {thr}: keep {kept}")


if __name__ == "__main__":
    main()
