"""Metric tests: the array metrics of `tokenloc.localization`, read
from `evaluate_heats`, against independent brute-force oracles."""

from collections import namedtuple

import numpy as np
import pytest

from tokenloc.errors import ContractError
from tokenloc.localization import _box_ious, evaluate_heats, max_box_acc_v2, top_k_loc_acc

from util import iou

# one prediction: its (x0, y0, x1, y1) box, the ground-truth boxes, and
# all class ids ordered by predicted probability
Record = namedtuple("Record", "box gt_boxes gt_class class_ranking")
SIDE = 32  # image side of the heats that stand for the records' boxes


def iou_oracle(a, b):
    """Pixel-set IoU; integer boxes make this exactly the analytic value."""
    pa = {(x, y) for x in range(a[0], a[2]) for y in range(a[1], a[3])}
    pb = {(x, y) for x in range(b[0], b[2]) for y in range(b[1], b[3])}
    inter = len(pa & pb)
    union = len(pa | pb)
    return inter / union if union else 0.0


def random_records(rng, count, num_classes=6, size=30):
    records = []
    for _ in range(count):
        def box():
            x0 = int(rng.integers(0, size - 2))
            y0 = int(rng.integers(0, size - 2))
            return (x0, y0, x0 + int(rng.integers(1, size - x0)),
                    y0 + int(rng.integers(1, size - y0)))
        ranking = list(rng.permutation(num_classes).astype(int))
        records.append(Record(box=box(), gt_boxes=[box() for _ in range(int(rng.integers(1, 4)))],
                              gt_class=int(rng.integers(num_classes)), class_ranking=ranking))
    return records


def _evaluate(records):
    """`evaluate_heats` at threshold 0.5 on one heat per record that is 1
    inside the record's box and 0 elsewhere, so the box table holds the
    records' boxes. Returns the (S, 1) best IoUs, the one-row GT-known
    table and each label's rank, as `eval` hands them to the metrics."""
    heats = np.zeros((len(records), SIDE, SIDE), np.float32)
    for heat, (x0, y0, x1, y1) in zip(heats, (r.box for r in records)):
        heat[y0:y1, x0:x1] = 1.0
    boxes, ious, table, _, _ = evaluate_heats(heats, [np.array(r.gt_boxes) for r in records],
                                              [0.5], SIDE)
    assert boxes[:, 0].tolist() == [list(r.box) for r in records]
    return ious, table, [r.class_ranking.index(r.gt_class) for r in records]


def array_iou(a, b):
    return float(_box_ious(np.array(a), np.array(b)))


def array_loc_acc(records, mode):
    """GT-known from the engine's table, top-1/top-5 from `top_k_loc_acc`."""
    ious, table, ranks = _evaluate(records)
    if mode == "gt-known":
        return table[0][1]
    return top_k_loc_acc(ious[:, 0], ranks, {"top1": 1, "top5": 5}[mode])


def array_max_box_acc_v2(records):
    return max_box_acc_v2(_evaluate(records)[0])


def test_iou_identity():
    b = (2, 3, 10, 12)
    assert array_iou(b, b) == 1.0


def test_iou_disjoint():
    assert array_iou((0, 0, 4, 4), (10, 10, 12, 12)) == 0.0


def test_iou_forced_arithmetic():
    assert array_iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3)


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
    box = (1, 1, 9, 9)
    records = [Record(box, [box], 2, [2, 0, 1, 3, 4, 5])]
    for mode in ("gt-known", "top1", "top5"):
        assert array_loc_acc(records, mode) == 1.0


def test_loc_acc_rank_rules():
    # IoU 0.6 but ground-truth class at rank 3: counts for gt-known and top5 only
    pred, gt = (0, 0, 10, 6), (0, 0, 10, 10)
    assert array_iou(pred, gt) == pytest.approx(0.6)
    records = [Record(pred, [gt], 7, [1, 2, 7, 0, 3, 4, 5, 6])]
    assert array_loc_acc(records, "gt-known") == 1.0
    assert array_loc_acc(records, "top5") == 1.0
    assert array_loc_acc(records, "top1") == 0.0


def test_loc_acc_strict_threshold():
    pred, gt = (0, 0, 10, 5), (0, 0, 10, 10)
    assert array_iou(pred, gt) == 0.5
    records = [Record(pred, [gt], 0, [0, 1])]
    for mode in ("gt-known", "top1", "top5"):
        assert array_loc_acc(records, mode) == 0.0


def test_loc_acc_empty_rejected():
    # the metrics read the engine's IoU tables, and the engine takes no empty set
    with pytest.raises(ContractError):
        evaluate_heats(np.zeros((0, SIDE, SIDE), np.float32), [], [0.5], SIDE)
    with pytest.raises(ContractError):
        evaluate_heats([], [], [0.5], SIDE)


def test_max_box_acc_single_record_two_thirds():
    records = [Record((0, 0, 10, 6), [(0, 0, 10, 10)], 0, [0, 1])]
    assert array_max_box_acc_v2(records) == pytest.approx(2 / 3)


def test_max_box_acc_perfect():
    box = (0, 0, 5, 5)
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
