"""Map fusion, thresholding, connected components and box extraction.

The scoring-branch map and the chosen class's activation map are each
min-max normalised (a constant map normalises to zeros), multiplied,
upsampled to image resolution, thresholded, and reduced to the tight
bounding box of the largest 8-connected foreground component. Fusion
runs over a stack of scoring and class maps, and a stack of heat maps
is labelled by foreground runs at every threshold of a grid in one call.
A box is a half-open (x0, y0, x1, y1) int64 row. `evaluate_heats` turns
heats into a box table, its best-IoU table and the calibrated threshold;
GT-known, top-1 and top-5 localization accuracy and MaxBoxAccV2 (Choe et
al., CVPR 2020) read those IoUs: strict comparisons, each sample against
its best-matching ground-truth box. `evaluate_samples` is the one loop
from samples to heats to metrics, behind both `calibrate` and `eval`.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from . import pipeline
from .backbone import ModelConfig
from .errors import ContractError, DimensionError
from .pipeline import forward_chunks, two_branch_forward

DEFAULT_GRID = (0.05, 0.95, 0.05)
# the 0:1:1e-4 grid: a labelling call holds FORWARD_CHUNK * T image-size masks
MAX_GRID_THRESHOLDS = 10_001
MAX_BOX_ACC_LEVELS = (0.3, 0.5, 0.7)
METRIC_NAMES = ("gt-known", "top1", "top5", "maxboxaccv2")


def _minmax(x: np.ndarray) -> np.ndarray:
    """Min-max normalise each (H, W) plane in float64; a constant plane
    normalises to zeros."""
    x = x.astype(np.float64)
    low = x.min(axis=(-2, -1), keepdims=True)
    span = x.max(axis=(-2, -1), keepdims=True) - low
    out = np.zeros(x.shape)
    np.divide(x - low, span, out=out, where=~(span <= 0.0))
    return out.astype(np.float32)


def fuse(refined_map, cam_maps, class_id) -> np.ndarray:
    """Elementwise product of the normalised maps for one class per row.

    refined_map is (..., h, w) and cam_maps (..., K, h, w); class_id is
    an int or an array over the leading axes. The class map is rectified
    at zero first; both maps are min-max normalised to [0, 1] per plane,
    so a constant map zeroes the fusion.
    """
    mt = nm.value_of(refined_map)
    mc = nm.value_of(cam_maps)
    if (mt.ndim < 2 or mc.ndim != mt.ndim + 1 or mc.shape[:-3] != mt.shape[:-2]
            or mc.shape[-2:] != mt.shape[-2:]):
        raise DimensionError(f"map shapes disagree: {mt.shape} vs {mc.shape}")
    try:
        ids = np.broadcast_to(np.asarray(class_id, dtype=np.int64), mt.shape[:-2])
    except OverflowError:  # an id past int64
        raise ContractError(f"class id {class_id} out of range for {mc.shape[-3]} "
                            f"classes") from None
    bad = (ids < 0) | (ids >= mc.shape[-3])
    if bad.any():
        raise ContractError(f"class id {ids[bad][0]} out of range for {mc.shape[-3]} classes")
    picked = np.take_along_axis(mc, ids[..., None, None, None], axis=-3)[..., 0, :, :]
    return _minmax(mt) * _minmax(np.maximum(picked, 0.0))


def check_thresholds(theta) -> np.ndarray:
    """`theta`, one threshold or a sequence of them, as float64; each must
    be in [0, 1]."""
    thetas = np.asarray(theta, dtype=np.float64)
    if not np.all((thetas >= 0.0) & (thetas <= 1.0)):
        raise ContractError(f"threshold must be in [0, 1], got {theta}")
    return thetas


def binarize(heat: np.ndarray, theta) -> np.ndarray:
    """Foreground mask [heat >= theta]; a sequence of T thresholds gives a
    (T, H, W) stack of masks."""
    return nm.value_of(heat) >= check_thresholds(theta).astype(np.float32)[..., None, None]


def heat_boxes(heats: np.ndarray, thetas, width: int, height: int):
    """Box the largest 8-connected component of [heat >= theta] for each
    heat of an (..., H, W) stack and each threshold. Returns an
    (..., T, 4) int array of half-open (x0, y0, x1, y1) rows and an
    (..., T) flag of empty foregrounds, which get the full-image box.

    Components join foreground runs (He, Chao & Suzuki, IEEE TIP 2008):
    run a touches run b of the next row iff start_b <= stop_a and start_a
    <= stop_b. Hooking and pointer jumping over the run graph (Shiloach &
    Vishkin, 1982) name each component by its first run in raster order,
    and size ties go to the earliest.
    """
    masks = binarize(nm.value_of(heats)[..., None, :, :], thetas)
    lead, (h, w) = masks.shape[:-2], masks.shape[-2:]
    padded = np.zeros((masks.size // w, w + 2), bool)
    padded[:, 1:-1] = masks.reshape(-1, w)
    flat = padded.ravel()
    # with background at both ends of every row, the flat mask's changes alternate
    # run start, run stop (half-open), in raster order
    rows, cols = np.divmod(np.flatnonzero(flat[1:] != flat[:-1]).reshape(-1, 2), w + 2)
    (plane, y), (start, stop), n = np.divmod(rows[:, 0], h), cols.T, len(rows)
    boxes = np.tile(np.array([0, 0, width, height]), (len(padded) // h, 1))
    empty = np.bincount(plane, minlength=len(boxes)) == 0
    del masks, padded, flat  # free the masks: only the runs are read below
    if n:
        # keys with a gap row between planes: the runs touching a run from below are a range
        key = (rows[:, 0] + plane) * (w + 1)
        lo = np.searchsorted(key + stop, key + w + 1 + start)
        count = np.maximum(np.searchsorted(key + start, key + w + 1 + stop, "right") - lo, 0)
        above = np.repeat(np.arange(n), count)
        below = np.arange(len(above)) + np.repeat(lo + count - np.cumsum(count), count)
        # hook the larger root of each edge to the smaller, then jump every run to its
        # root: head[a] <= a throughout, so each component ends on its first run
        head = np.arange(n)
        roots_above, roots_below = above, below   # every run is its own root so far
        while (roots_above != roots_below).any():
            np.minimum.at(head, np.maximum(roots_above, roots_below),
                          np.minimum(roots_above, roots_below))
            jumped = head[head]
            while (jumped != head).any():
                head, jumped = jumped, jumped[jumped]
            roots_above, roots_below = head[above], head[below]
        # a component is named by its head, its first run: per plane the largest
        # size wins, then the first head, by one key per run (0 off the heads)
        size = np.bincount(head, stop - start, minlength=n).astype(np.int64)
        plane_start = np.concatenate(([True], plane[1:] != plane[:-1]))
        groups = np.flatnonzero(plane_start)
        best = n - np.maximum.reduceat(size * (n + 1) + np.arange(n, 0, -1), groups) % (n + 1)
        kept = head == best[np.cumsum(plane_start) - 1]
        runs = np.array([start, y, stop, y + 1])[:, kept]
        cuts = np.searchsorted(np.flatnonzero(kept), groups)
        boxes[plane[groups]] = np.concatenate([np.minimum.reduceat(runs[:2], cuts, axis=1),
                                               np.maximum.reduceat(runs[2:], cuts, axis=1)]).T
    return boxes.reshape(*lead, 4), empty.reshape(lead)


def class_heats(scoring_map, cam_maps, class_ids, side: int) -> np.ndarray:
    """(R, side, side) fused localization maps of R (h, w) scoring maps
    and their (K, h, w) class maps, one class per row."""
    return nm.bilinear_resize(fuse(scoring_map, cam_maps, class_ids), side, side)


def localize(params, cfg: ModelConfig, image, class_id="predicted", *,
             theta: float = 0.5, selector=None) -> tuple:
    """Full pipeline from image to box: returns (heat, box, class_id,
    empty), the image-resolution fused map, its (4,) int box at `theta`,
    the class and whether the foreground was empty (the box then spans
    the image). class_id may be an integer or "predicted" (argmax of the
    CAM-branch probabilities, smallest id on ties)."""
    result = two_branch_forward(params, cfg, image[None], selector=selector)
    if class_id == "predicted":
        class_id = int(np.argmax(nm.value_of(result.p_cam)[0]))
    heat = class_heats(result.refined_map, result.cam_maps, [int(class_id)], cfg.image_size)[0]
    boxes, empty = heat_boxes(heat, [theta], cfg.image_size, cfg.image_size)
    return heat, boxes[0], int(class_id), bool(empty[0])


def threshold_grid(start: float, stop: float, step: float) -> list:
    """Inclusive arithmetic grid of thresholds in [0, 1], at most
    MAX_GRID_THRESHOLDS of them."""
    if not (all(map(math.isfinite, (start, stop, step))) and 0.0 <= start <= stop <= 1.0
            and step > 0):
        raise ContractError(f"invalid grid {start}:{stop}:{step}: need finite "
                            f"0 <= start <= stop <= 1 and step > 0")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if count > MAX_GRID_THRESHOLDS:
        raise ContractError(f"grid {start}:{stop}:{step} has {count:.0f} thresholds, "
                            f"more than {MAX_GRID_THRESHOLDS}")
    return [float(round(start + i * step, 9)) for i in range(int(count))]


def _box_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of (..., 4) integer box arrays, broadcast. The intersection
    and union are exact integers, so the float64 quotient is the
    correctly rounded IoU; an all-zero box overlaps nothing."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(ix, 0) * np.maximum(iy, 0)
    areas = np.prod(a[..., 2:] - a[..., :2], axis=-1) + np.prod(b[..., 2:] - b[..., :2], axis=-1)
    return inter / (areas - inter)


def _gt_array(gts) -> np.ndarray:
    """(S, G, 4) int array of each sample's (G_s, 4) ground-truth boxes,
    zero-padded to the longest list (a zero box overlaps nothing)."""
    out = np.zeros((len(gts), max(map(len, gts)), 4), np.int64)
    for row, boxes in zip(out, gts):
        row[:len(boxes)] = boxes
    return out


def best_ious(boxes, gt) -> np.ndarray:
    """(S, T) IoU of each of an (S, T, 4) box table's boxes with its
    sample's best-matching box of the (S, G, 4) ground-truth array."""
    return _box_ious(boxes[:, :, None], gt[:, None]).max(axis=2)


def evaluate_heats(heats, gts, thetas, side: int) -> tuple:
    """Box S heat maps at every threshold and score the boxes against
    `gts`, each sample's (G, 4) ground-truth boxes. The heats are labelled
    one stack of `pipeline.FORWARD_CHUNK` at a time (one call for all of
    them would hold every sample's labels at once). Returns the (S, T, 4)
    box table, its (S, T) best IoUs, the (theta, GT-known accuracy) rows
    at IoU level 0.5, the best theta (ties to the smallest) and the
    (S, G, 4) ground-truth array."""
    if not len(gts):
        raise ContractError("localization metrics need at least one sample")
    step = pipeline.FORWARD_CHUNK
    boxes = np.concatenate([heat_boxes(heats[start:start + step], thetas, side, side)[0]
                            for start in range(0, len(heats), step)])
    gt = _gt_array(gts)
    ious = best_ious(boxes, gt)
    table = list(zip(thetas, (np.count_nonzero(ious > 0.5, axis=0) / len(ious)).tolist()))
    theta_star, _ = max(table, key=lambda row: (row[1], -row[0]))
    return boxes, ious, table, theta_star, gt


def max_box_acc_v2(ious) -> float:
    """Calibrated-threshold MaxBoxAccV2 from an (S, T) best-IoU table: for
    each IoU level pick the best threshold, then average the three best
    hit rates."""
    per_level = [max((np.count_nonzero(ious > level, axis=0) / len(ious)).tolist())
                 for level in MAX_BOX_ACC_LEVELS]
    return sum(per_level) / len(per_level)


def top_k_loc_acc(ious, ranks, k: int) -> float:
    """Top-k localization accuracy: the fraction of samples whose label
    is among the k highest-ranked classes (`ranks` holds each label's
    0-based rank) and whose (S,) predicted-class box IoU beats 0.5."""
    return int(np.count_nonzero((ious > 0.5) & (np.asarray(ranks) < k))) / len(ious)


def evaluate_samples(params, cfg: ModelConfig, samples, metrics, thetas, *, selector=None):
    """The engine behind `calibrate` and `eval` on (image, label, (G, 4)
    boxes) samples: returns (theta_star, table, {metric: value}).

    theta_star maximises GT-known accuracy over `thetas` (a fixed
    threshold is a grid of one), table holds the (theta, GT-known) rows,
    and `metrics` names any of METRIC_NAMES: the class-aware ones are
    computed at theta_star, and maxboxaccv2 takes each IoU level's own
    best threshold. The images go through the forward pass once each, in
    stacks of `pipeline.FORWARD_CHUNK`, and `evaluate_heats` boxes and
    scores the GT-class heats. A predicted-class heat is fused only where
    the top-ranked class is not the GT class, and all of them are labelled
    at theta_star in one call. Classes rank by CAM-branch probability,
    ties by id.
    """
    side = cfg.image_size
    ranked_metrics = any(m in metrics for m in ("top1", "top5"))
    ranks, heats_gt, pred_rows, heats_pred = [], [], [], []
    for labels, result in forward_chunks(params, cfg, samples, selector=selector):
        order = np.argsort(-nm.value_of(result.p_cam), axis=1, kind="stable")
        heats_gt.extend(class_heats(result.refined_map, result.cam_maps, labels, side))
        # a predicted-class heat is needed only where that class is not the GT class
        differ = np.flatnonzero(order[:, 0] != labels)
        if ranked_metrics and differ.size:
            heats_pred.extend(class_heats(result.refined_map[differ], result.cam_maps[differ],
                                          order[differ, 0], side))
            pred_rows.extend(len(ranks) + differ)
        ranks.extend((order == np.array(labels)[:, None]).argmax(axis=1))
    boxes, ious, table, theta_star, gt = evaluate_heats(heats_gt, [g for _, _, g in samples],
                                                        thetas, side)
    if ranked_metrics:
        # where the top-ranked class is the GT class, its box is already in the table
        top_boxes = boxes[:, thetas.index(theta_star)].copy()
        if heats_pred:
            top_boxes[pred_rows] = heat_boxes(heats_pred, [theta_star], side, side)[0][:, 0]
        top_ious = best_ious(top_boxes[:, None], gt)[:, 0]
    results = {}
    for metric in metrics:
        if metric == "gt-known":
            results[metric] = dict(table)[theta_star]
        elif metric == "maxboxaccv2":
            results[metric] = max_box_acc_v2(ious)
        else:
            results[metric] = top_k_loc_acc(top_ious, ranks, {"top1": 1, "top5": 5}[metric])
    return theta_star, table, results

