import json
import pathlib
from unittest import mock

import numpy as np
import pytest

from yolof_assign import coco

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def tiny_corpus_path():
    return DATA_DIR / "tiny_corpus.json"


def seeded_corpus() -> dict:
    """40 images of three sizes, 0-11 GTs each from 4 to 400 px a side.

    Some boxes cross the right or bottom edge, one image has no
    annotation, the sixth annotation has zero width (dropped on parse),
    and annotation ids run opposite to image order.
    """
    rng = np.random.default_rng(20240)
    sizes = [(320, 240), (640, 480), (500, 375)]
    images, annotations = [], []
    for image_id in range(1, 41):
        w, h = sizes[image_id % 3]
        images.append({"id": image_id, "width": w, "height": h})
        n = 0 if image_id == 17 else int(rng.integers(1, 12))
        for _ in range(n):
            side = np.exp(rng.uniform(np.log(4.0), np.log(400.0), 2))
            x = rng.uniform(0, w - 1)
            y = rng.uniform(0, h - 1)
            annotations.append({"image_id": image_id,
                                "bbox": [round(float(v), 2)
                                         for v in (x, y, *side)],
                                "category_id": int(rng.integers(1, 4))})
    for i, ann in enumerate(annotations):
        ann["id"] = len(annotations) - i
    annotations[5]["bbox"][2] = 0.0
    return {"images": images, "annotations": annotations,
            "categories": [{"id": c} for c in (1, 2, 3)]}


@pytest.fixture
def seeded_corpus_path(tmp_path):
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(seeded_corpus()))
    return path


def converted_values(read, *args):
    """``read(*args)``, and the values that the reader's converters,
    ``coco.as_int64`` and ``coco.as_number``, took one at a time while it
    ran: the first values of each call, in call order."""
    with mock.patch.object(coco, "as_int64", wraps=coco.as_int64) as ints, \
            mock.patch.object(coco, "as_number",
                              wraps=coco.as_number) as numbers:
        result = read(*args)
    return result, [c.args[0] for c in ints.call_args_list
                    + numbers.call_args_list]
