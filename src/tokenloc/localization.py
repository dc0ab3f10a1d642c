"""Map fusion, thresholding, connected components and box extraction.

The scoring-branch map and the chosen class's activation map are each
min-max normalised (a constant map normalises to zeros), multiplied,
upsampled to image resolution, thresholded, and reduced to the tight
bounding box of the largest 8-connected foreground component. Fusion
runs over the rows of a forward result's stack, and a stack of heat
maps is labelled at every threshold of a grid in one call. The boxes
are scored by GT-known, top-1 and top-5 localization accuracy and
MaxBoxAccV2 (Choe et al., CVPR 2020): strict IoU comparisons, each
sample against its best-matching ground-truth box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BoundingBox:
    """Pixel-space box, half-open: x0 <= x < x1, y0 <= y < y1."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise DimensionError(f"degenerate box ({self.x0},{self.y0},{self.x1},{self.y1})")
        if self.x0 < 0 or self.y0 < 0:
            raise DimensionError(f"negative box corner ({self.x0},{self.y0})")

    @property
    def area(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)


@dataclass
class LocalizationResult:
    heat: np.ndarray        # image-resolution fused map in [0, 1]
    threshold: float
    box: BoundingBox
    class_id: int
    degenerate: bool        # empty foreground, box fell back to the full image


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


def box_from_heat(heat: np.ndarray, theta: float, width: int, height: int):
    """Threshold a heat map and box its largest component: `heat_boxes`
    at one threshold.

    Empty foreground falls back to the full-image box with a degenerate
    flag so downstream metrics never crash.
    """
    boxes, degenerate = heat_boxes(heat, [theta], width, height)
    return BoundingBox(*boxes[0].tolist()), bool(degenerate[0])


def class_heats(result, class_ids, side: int, rows=slice(None)) -> np.ndarray:
    """(R, side, side) fused localization maps of the `rows` of a forward
    result's stack (all of them by default), one class per row."""
    maps = nm.value_of(result.refined_map)[rows], nm.value_of(result.cam_maps)[rows]
    return nm.bilinear_resize(fuse(*maps, class_ids), side, side)


def localize(params, cfg: ModelConfig, image, class_id="predicted", *,
             theta: float = 0.5, selector=None) -> LocalizationResult:
    """Full pipeline from image to bounding box.

    class_id may be an integer or "predicted" (argmax of the CAM-branch
    probabilities, smallest id on ties).
    """
    result = two_branch_forward(params, cfg, image[None], selector=selector)
    if class_id == "predicted":
        class_id = int(np.argmax(nm.value_of(result.p_cam)[0]))
    heat = class_heats(result, [int(class_id)], cfg.image_size)[0]
    box, degenerate = box_from_heat(heat, theta, cfg.image_size, cfg.image_size)
    return LocalizationResult(heat=heat, threshold=float(theta), box=box,
                              class_id=int(class_id), degenerate=degenerate)


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


def box_table(heats, thetas, width: int, height: int) -> np.ndarray:
    """(S, T, 4) table of half-open (x0, y0, x1, y1) boxes: sample s's
    heat at thresholds[t], from one labelling call per stack of
    `pipeline.FORWARD_CHUNK` heats (one call for the whole table would
    hold every sample's labels at once)."""
    step = pipeline.FORWARD_CHUNK
    return np.concatenate([heat_boxes(heats[start:start + step], thetas, width, height)[0]
                           for start in range(0, len(heats), step)])


def _area(c: np.ndarray) -> np.ndarray:
    return (c[..., 2] - c[..., 0]) * (c[..., 3] - c[..., 1])


def _box_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of (..., 4) integer box arrays, broadcast. The intersection
    and union are exact integers, so the float64 quotient is the
    correctly rounded IoU; an all-zero box overlaps nothing."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(ix, 0) * np.maximum(iy, 0)
    return inter / (_area(a) + _area(b) - inter)


def _best_ious(boxes, samples) -> np.ndarray:
    """(S, T) IoU of each box with its sample's best-matching ground truth."""
    if not samples:
        raise ContractError("localization metrics need at least one sample")
    gts = np.zeros((len(samples), max(len(gt_boxes) for _, _, gt_boxes in samples), 4), np.int64)
    for row, (_, _, gt_boxes) in zip(gts, samples):
        row[:len(gt_boxes)] = [(g.x0, g.y0, g.x1, g.y1) for g in gt_boxes]
    return _box_ious(np.asarray(boxes)[:, :, None], gts[:, None]).max(axis=2)


def _hit_fractions(ious, iou_level: float) -> list:
    """Per threshold: fraction of samples whose best IoU beats `iou_level` (strict)."""
    return (np.count_nonzero(ious > iou_level, axis=0) / len(ious)).tolist()


def gt_known_table(boxes, samples, thetas) -> list:
    """(theta, GT-known accuracy) rows at IoU level 0.5, from a box table."""
    return list(zip(thetas, _hit_fractions(_best_ious(boxes, samples), 0.5)))


def best_threshold(table) -> float:
    """Threshold with the highest accuracy; ties go to the smallest theta."""
    theta, _ = max(table, key=lambda row: (row[1], -row[0]))
    return theta


def grid_search_threshold(params, cfg: ModelConfig, samples, *, grid=None, selector=None):
    """Pick the threshold maximising ground-truth-known accuracy (IoU > 0.5).

    `samples` is a list of (image, label, gt_boxes). Returns
    (theta_star, table) where table rows are (theta, accuracy); ties go
    to the smallest theta.
    """
    if not samples:
        raise ContractError("grid search needs a non-empty manifest")
    thetas = threshold_grid(*(grid or DEFAULT_GRID))
    heats = gt_class_heats(params, cfg, samples, selector=selector)
    boxes = box_table(heats, thetas, cfg.image_size, cfg.image_size)
    table = gt_known_table(boxes, samples, thetas)
    return best_threshold(table), table


def max_box_acc_v2_over_grid(boxes, samples) -> float:
    """Calibrated-threshold MaxBoxAccV2 from a box table: for each IoU
    level pick the best threshold on the grid, then average the three
    best hit rates."""
    ious = _best_ious(boxes, samples)
    per_level = [max(_hit_fractions(ious, level)) for level in MAX_BOX_ACC_LEVELS]
    return sum(per_level) / len(per_level)


def top_k_loc_acc(pred_boxes, samples, ranks, k: int) -> float:
    """Top-k localization accuracy: the fraction of samples whose label
    is among the k highest-ranked classes (`ranks` holds each label's
    0-based rank) and whose (S, 4) predicted-class box beats IoU 0.5."""
    ious = _best_ious(np.asarray(pred_boxes)[:, None], samples)[:, 0]
    return int(np.count_nonzero((ious > 0.5) & (np.asarray(ranks) < k))) / len(samples)
