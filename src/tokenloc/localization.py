"""Map fusion, thresholding, connected components and box extraction.

The scoring-branch map and the chosen class's activation map are each
min-max normalised (a constant map normalises to zeros), multiplied,
upsampled to image resolution, thresholded, and reduced to the tight
bounding box of the largest 8-connected foreground component. Fusion
runs over the rows of a forward result's stack, and a stack of heat
maps is labelled at every threshold of a grid in one call. A box is a
half-open (x0, y0, x1, y1) int64 row. `evaluate_heats` turns heats into
a box table, its best-IoU table and the calibrated threshold; GT-known,
top-1 and top-5 localization accuracy and MaxBoxAccV2 (Choe et al.,
CVPR 2020) read those IoUs: strict comparisons, each sample against its
best-matching ground-truth box.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from . import numerics as nm
from . import pipeline
from .backbone import ModelConfig
from .errors import ContractError, DimensionError
from .pipeline import forward_chunks, two_branch_forward

DEFAULT_GRID = (0.05, 0.95, 0.05)
# the 0:1:1e-4 grid: a labelling call holds FORWARD_CHUNK * T image-size masks
MAX_GRID_THRESHOLDS = 10_001
MAX_BOX_ACC_LEVELS = (0.3, 0.5, 0.7)
# 8-connectivity within each (H, W) plane of a (T, H, W) mask stack, none across planes
_PLANE_EIGHT_CONNECTED = np.stack([np.zeros((3, 3)), np.ones((3, 3)), np.zeros((3, 3))]) > 0


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
    ids = np.broadcast_to(np.asarray(class_id, dtype=np.int64), mt.shape[:-2])
    bad = (ids < 0) | (ids >= mc.shape[-3])
    if bad.any():
        raise ContractError(f"class id {ids[bad][0]} out of range for {mc.shape[-3]} classes")
    picked = np.take_along_axis(mc, ids[..., None, None, None], axis=-3)[..., 0, :, :]
    return _minmax(mt) * _minmax(np.maximum(picked, 0.0))


def binarize(heat: np.ndarray, theta) -> np.ndarray:
    """Foreground mask [heat >= theta]; a sequence of T thresholds gives a
    (T, H, W) stack of masks."""
    thetas = np.asarray(theta, dtype=np.float64)
    if not np.all((thetas >= 0.0) & (thetas <= 1.0)):
        raise ContractError(f"threshold must be in [0, 1], got {theta}")
    return nm.value_of(heat) >= thetas.astype(np.float32)[..., None, None]


def heat_boxes(heats: np.ndarray, thetas, width: int, height: int):
    """Box the largest 8-connected component of [heat >= theta] for each
    heat of an (..., H, W) stack and each threshold. Returns an
    (..., T, 4) int array of half-open (x0, y0, x1, y1) rows and an
    (..., T) flag of empty foregrounds, which get the full-image box.

    The non-empty planes of the (..., T, H, W) mask stack are labelled
    in one `ndimage.label` call whose structure connects pixels only
    within a plane. Labels are numbered in raster order, so each plane
    holds one contiguous label range, and size ties go to the earliest
    label: the component whose first pixel comes first.
    """
    masks = binarize(nm.value_of(heats)[..., None, :, :], thetas)
    lead, (h, w) = masks.shape[:-2], masks.shape[-2:]
    masks = masks.reshape(-1, h, w)
    occupied = masks.reshape(len(masks), -1).any(axis=1)
    boxes = np.tile(np.array([0, 0, width, height]), (len(masks), 1))
    if occupied.any():
        labels, count = ndimage.label(masks[occupied], structure=_PLANE_EIGHT_CONNECTED)
        planes = labels.reshape(len(labels), -1)
        starts = np.concatenate(([0], planes.max(axis=1)[:-1]))  # plane i: labels starts[i]+1..
        # per plane, the largest size wins and then the smallest label: one
        # integer key per label orders both, and reduceat takes each range's max
        key = np.bincount(planes.ravel())[1:] * (count + 1) + np.arange(count, 0, -1)
        best = count + 1 - np.maximum.reduceat(key, starts) % (count + 1)
        chosen = labels == best[:, None, None]
        rows, cols = chosen.any(axis=2), chosen.any(axis=1)
        boxes[occupied] = np.stack([cols.argmax(axis=1), rows.argmax(axis=1),
                                    w - cols[:, ::-1].argmax(axis=1),
                                    h - rows[:, ::-1].argmax(axis=1)], axis=1)
    return boxes.reshape(*lead, 4), ~occupied.reshape(lead)


def class_heats(result, class_ids, side: int, rows=slice(None)) -> np.ndarray:
    """(R, side, side) fused localization maps of the `rows` of a forward
    result's stack (all of them by default), one class per row."""
    maps = nm.value_of(result.refined_map)[rows], nm.value_of(result.cam_maps)[rows]
    return nm.bilinear_resize(fuse(*maps, class_ids), side, side)


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
    heat = class_heats(result, [int(class_id)], cfg.image_size)[0]
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


def gt_class_heats(params, cfg: ModelConfig, samples, *, selector=None) -> list:
    """Fused map per sample for that sample's ground-truth class."""
    heats = []
    for labels, result in forward_chunks(params, cfg, samples, selector=selector):
        heats.extend(class_heats(result, labels, cfg.image_size))
    return heats


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


def grid_search_threshold(params, cfg: ModelConfig, samples, *, grid=None, selector=None):
    """Pick the threshold maximising ground-truth-known accuracy (IoU > 0.5)
    over (image, label, (G, 4) boxes) samples. Returns (theta_star, table)
    where table rows are (theta, accuracy); ties go to the smallest theta."""
    thetas = threshold_grid(*(grid or DEFAULT_GRID))
    heats = gt_class_heats(params, cfg, samples, selector=selector)
    _, _, table, theta_star, _ = evaluate_heats(heats, [gt for _, _, gt in samples], thetas,
                                                cfg.image_size)
    return theta_star, table


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
