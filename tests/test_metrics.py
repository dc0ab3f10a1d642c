"""Metric tests: the array metrics of `tokenloc.localization` against
independent brute-force oracles."""

from collections import namedtuple

import numpy as np
import pytest

from tokenloc.errors import ContractError
from tokenloc.localization import (
    BoundingBox,
    _box_ious,
    gt_known_table,
    max_box_acc_v2_over_grid,
    top_k_loc_acc,
)

from util import iou

# one prediction: its box, the ground truth, and all class ids ordered by
# predicted probability
Record = namedtuple("Record", "box gt_boxes gt_class class_ranking")


def iou_oracle(a, b):
    """Pixel-set IoU; integer boxes make this exactly the analytic value."""
    pa = {(x, y) for x in range(a.x0, a.x1) for y in range(a.y0, a.y1)}
    pb = {(x, y) for x in range(b.x0, b.x1) for y in range(b.y0, b.y1)}
    inter = len(pa & pb)
    union = len(pa | pb)
    return inter / union if union else 0.0


def random_records(rng, count, num_classes=6, size=30):
    records = []
    for _ in range(count):
        def box():
            x0 = int(rng.integers(0, size - 2))
            y0 = int(rng.integers(0, size - 2))
            return BoundingBox(x0, y0,
                               x0 + int(rng.integers(1, size - x0)),
                               y0 + int(rng.integers(1, size - y0)))
        ranking = list(rng.permutation(num_classes).astype(int))
        records.append(Record(box=box(), gt_boxes=[box() for _ in range(int(rng.integers(1, 4)))],
                              gt_class=int(rng.integers(num_classes)), class_ranking=ranking))
    return records


def _arrays(records):
    """(S, 4) predicted boxes, (image, label, gt_boxes) samples and each
    label's rank, as `eval` hands them to the metrics."""
    pred = np.array([(r.box.x0, r.box.y0, r.box.x1, r.box.y1) for r in records])
    samples = [(None, r.gt_class, r.gt_boxes) for r in records]
    return pred, samples, [r.class_ranking.index(r.gt_class) for r in records]


def array_iou(a, b):
    return float(_box_ious(np.array([a.x0, a.y0, a.x1, a.y1]), np.array([b.x0, b.y0, b.x1, b.y1])))


def array_loc_acc(records, mode):
    """GT-known from a one-threshold box table, top-1/top-5 from
    `top_k_loc_acc`."""
    pred, samples, ranks = _arrays(records)
    if mode == "gt-known":
        return gt_known_table(pred[:, None], samples, [0.5])[0][1]
    return top_k_loc_acc(pred, samples, ranks, {"top1": 1, "top5": 5}[mode])


def array_max_box_acc_v2(records):
    pred, samples, _ = _arrays(records)
    return max_box_acc_v2_over_grid(pred[:, None], samples)


def test_iou_identity():
    b = BoundingBox(2, 3, 10, 12)
    assert array_iou(b, b) == 1.0


def test_iou_disjoint():
    assert array_iou(BoundingBox(0, 0, 4, 4), BoundingBox(10, 10, 12, 12)) == 0.0


def test_iou_forced_arithmetic():
    assert array_iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 15, 10)) == pytest.approx(1 / 3)


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for record in random_records(rng, 40):
        a, b = record.box, record.gt_boxes[0]
        assert array_iou(a, b) == array_iou(b, a)
        assert 0.0 <= array_iou(a, b) <= 1.0
        assert (array_iou(a, b) == 1.0) == (a == b)


def test_iou_matches_pixel_set_oracle():
    rng = np.random.default_rng(1)
    for record in random_records(rng, 50, size=20):
        a, b = record.box, record.gt_boxes[0]
        assert array_iou(a, b) == iou_oracle(a, b) == iou(a, b)


def test_loc_acc_perfect_records():
    box = BoundingBox(1, 1, 9, 9)
    records = [Record(box, [box], 2, [2, 0, 1, 3, 4, 5])]
    for mode in ("gt-known", "top1", "top5"):
        assert array_loc_acc(records, mode) == 1.0


def test_loc_acc_rank_rules():
    # IoU 0.6 but ground-truth class at rank 3: counts for gt-known and top5 only
    pred = BoundingBox(0, 0, 10, 6)
    gt = BoundingBox(0, 0, 10, 10)
    assert array_iou(pred, gt) == pytest.approx(0.6)
    records = [Record(pred, [gt], 7, [1, 2, 7, 0, 3, 4, 5, 6])]
    assert array_loc_acc(records, "gt-known") == 1.0
    assert array_loc_acc(records, "top5") == 1.0
    assert array_loc_acc(records, "top1") == 0.0


def test_loc_acc_strict_threshold():
    pred = BoundingBox(0, 0, 10, 5)
    gt = BoundingBox(0, 0, 10, 10)
    assert array_iou(pred, gt) == 0.5
    records = [Record(pred, [gt], 0, [0, 1])]
    for mode in ("gt-known", "top1", "top5"):
        assert array_loc_acc(records, mode) == 0.0


def test_loc_acc_empty_rejected():
    no_boxes = np.zeros((0, 4), np.int64)
    with pytest.raises(ContractError):
        top_k_loc_acc(no_boxes, [], [], 1)
    with pytest.raises(ContractError):
        gt_known_table(no_boxes[:, None], [], [0.5])
    with pytest.raises(ContractError):
        max_box_acc_v2_over_grid(no_boxes[:, None], [])


def test_max_box_acc_single_record_two_thirds():
    pred = BoundingBox(0, 0, 10, 6)
    gt = BoundingBox(0, 0, 10, 10)
    records = [Record(pred, [gt], 0, [0, 1])]
    assert array_max_box_acc_v2(records) == pytest.approx(2 / 3)


def test_max_box_acc_perfect():
    box = BoundingBox(0, 0, 5, 5)
    records = [Record(box, [box], 0, [0, 1]) for _ in range(4)]
    assert array_max_box_acc_v2(records) == 1.0


def test_max_box_acc_permutation_invariant():
    rng = np.random.default_rng(2)
    records = random_records(rng, 20)
    shuffled = [records[i] for i in rng.permutation(len(records))]
    assert array_max_box_acc_v2(records) == array_max_box_acc_v2(shuffled)


def _loc_acc_oracle(records, mode, thresh=0.5):
    hits = 0
    for r in records:
        best = 0.0
        for gt in r.gt_boxes:
            best = max(best, iou_oracle(r.box, gt))
        if best <= thresh:
            continue
        if mode == "top1" and r.class_ranking[0] != r.gt_class:
            continue
        if mode == "top5" and r.gt_class not in r.class_ranking[:5]:
            continue
        hits += 1
    return hits / len(records)


def _max_box_acc_oracle(records):
    total = 0.0
    for level in (0.3, 0.5, 0.7):
        hits = 0
        for r in records:
            best = 0.0
            for gt in r.gt_boxes:
                best = max(best, iou_oracle(r.box, gt))
            if best > level:
                hits += 1
        total = total + hits / len(records)
    return total / 3


def test_metrics_match_brute_force_oracles():
    rng = np.random.default_rng(3)
    for trial in range(100):
        records = random_records(rng, int(rng.integers(1, 12)), size=16)
        for mode in ("gt-known", "top1", "top5"):
            assert array_loc_acc(records, mode) == _loc_acc_oracle(records, mode)
        assert array_max_box_acc_v2(records) == _max_box_acc_oracle(records)


def test_mode_ordering_invariant():
    rng = np.random.default_rng(4)
    for trial in range(20):
        records = random_records(rng, 15)
        gt_known = array_loc_acc(records, "gt-known")
        top5 = array_loc_acc(records, "top5")
        top1 = array_loc_acc(records, "top1")
        assert gt_known >= top5 >= top1
