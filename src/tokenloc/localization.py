"""Map fusion, thresholding, connected components and box extraction.

The scoring-branch map and the chosen class's activation map are each
min-max normalised (a constant map normalises to zeros), multiplied,
upsampled to image resolution, thresholded, and reduced to the tight
bounding box of the largest 8-connected foreground component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from . import numerics as nm
from .backbone import ModelConfig
from .errors import ContractError, DimensionError
from .pipeline import two_branch_forward

DEFAULT_GRID = (0.05, 0.95, 0.05)
_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


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
    x = x.astype(np.float64)
    span = x.max() - x.min()
    if span <= 0.0:
        return np.zeros(x.shape, dtype=np.float32)
    return ((x - x.min()) / span).astype(np.float32)


def fuse(refined_map, cam_maps, class_id: int) -> np.ndarray:
    """Elementwise product of the normalised maps for one class.

    The class map is rectified at zero first; both maps are min-max
    normalised to [0, 1], so a constant map zeroes the fusion.
    """
    mt = nm.value_of(refined_map)
    mc = nm.value_of(cam_maps)
    if mc.ndim != 3 or mt.shape != mc.shape[1:]:
        raise DimensionError(f"map shapes disagree: {mt.shape} vs {mc.shape}")
    if not 0 <= class_id < mc.shape[0]:
        raise ContractError(f"class id {class_id} out of range for {mc.shape[0]} classes")
    rectified = np.maximum(mc[class_id], 0.0)
    return _minmax(mt) * _minmax(rectified)


def binarize(heat: np.ndarray, theta: float) -> np.ndarray:
    """Foreground mask [heat >= theta]."""
    if not 0.0 <= theta <= 1.0:
        raise ContractError(f"threshold must be in [0, 1], got {theta}")
    return nm.value_of(heat) >= np.float32(theta)


def largest_component(mask: np.ndarray):
    """Largest 8-connected foreground component, or None when empty.

    Size ties go to the component containing the smallest raster-order
    pixel (scipy numbers labels in raster scan order, and argmax keeps
    the earliest label on ties).
    """
    labels, count = ndimage.label(np.asarray(mask, dtype=bool), structure=_EIGHT_CONNECTED)
    if count == 0:
        return None
    sizes = np.bincount(labels.ravel())
    return labels == 1 + int(np.argmax(sizes[1:]))


def tight_bbox(component: np.ndarray) -> BoundingBox:
    """Tight half-open box around the set pixels of a component mask."""
    ys, xs = np.nonzero(np.asarray(component, dtype=bool))
    if ys.size == 0:
        raise ContractError("cannot box an empty component")
    return BoundingBox(int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def box_from_heat(heat: np.ndarray, theta: float, width: int, height: int):
    """Threshold a heat map and box its largest component.

    Empty foreground falls back to the full-image box with a degenerate
    flag so downstream metrics never crash.
    """
    component = largest_component(binarize(heat, theta))
    if component is None:
        return BoundingBox(0, 0, width, height), True
    return tight_bbox(component), False


def class_heat(result, class_id: int, side: int) -> np.ndarray:
    """Fused localization map of one class of a forward result on a stack
    of one image, at image resolution."""
    fused = fuse(nm.value_of(result.refined_map)[0], nm.value_of(result.cam_maps)[0], class_id)
    return nm.bilinear_resize(fused, side, side)


def localize(params, cfg: ModelConfig, image, class_id="predicted", *, selection_mass=None,
             theta: float = 0.5, selector=None, reattention_on: bool = True) -> LocalizationResult:
    """Full pipeline from image to bounding box.

    class_id may be an integer or "predicted" (argmax of the CAM-branch
    probabilities, smallest id on ties).
    """
    result = two_branch_forward(params, cfg, image[None], selection_mass=selection_mass,
                                selector=selector, reattention_on=reattention_on)
    if class_id == "predicted":
        class_id = int(np.argmax(nm.value_of(result.p_cam)[0]))
    heat = class_heat(result, int(class_id), cfg.image_size)
    box, degenerate = box_from_heat(heat, theta, cfg.image_size, cfg.image_size)
    return LocalizationResult(heat=heat, threshold=float(theta), box=box,
                              class_id=int(class_id), degenerate=degenerate)


def threshold_grid(start: float, stop: float, step: float) -> list:
    """Inclusive arithmetic grid of thresholds."""
    if step <= 0 or stop < start:
        raise ContractError(f"invalid grid {start}:{stop}:{step}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [float(round(start + i * step, 9)) for i in range(count)]


def gt_class_heats(params, cfg: ModelConfig, samples, *, selection_mass=None,
                   selector=None, reattention_on: bool = True) -> list:
    """Fused map per sample for that sample's ground-truth class."""
    return [class_heat(two_branch_forward(params, cfg, image[None], selection_mass=selection_mass,
                                          selector=selector, reattention_on=reattention_on),
                       int(label), cfg.image_size)
            for image, label, _ in samples]


def box_table(heats, thetas, width: int, height: int) -> list:
    """boxes[sample][k]: the box of each heat at thresholds[k], labelled once per pair."""
    return [[box_from_heat(heat, theta, width, height)[0] for theta in thetas] for heat in heats]


def _best_ious(boxes, samples) -> list:
    """Per sample and threshold: IoU of the box with its best-matching ground truth."""
    from .metrics import iou

    return [[max(iou(box, gt) for gt in gt_boxes) for box in row]
            for row, (_, _, gt_boxes) in zip(boxes, samples)]


def _hit_fractions(ious, iou_level: float) -> list:
    """Per threshold: fraction of samples whose best IoU beats `iou_level` (strict)."""
    return [sum(1 for row in ious if row[k] > iou_level) / len(ious)
            for k in range(len(ious[0]))]


def gt_known_table(boxes, samples, thetas) -> list:
    """(theta, GT-known accuracy) rows at IoU level 0.5, from a box table."""
    return list(zip(thetas, _hit_fractions(_best_ious(boxes, samples), 0.5)))


def best_threshold(table) -> float:
    """Threshold with the highest accuracy; ties go to the smallest theta."""
    theta, _ = max(table, key=lambda row: (row[1], -row[0]))
    return theta


def grid_search_threshold(params, cfg: ModelConfig, samples, *, selection_mass=None,
                          grid=None, selector=None, reattention_on: bool = True):
    """Pick the threshold maximising ground-truth-known accuracy (IoU > 0.5).

    `samples` is a list of (image, label, gt_boxes). Returns
    (theta_star, table) where table rows are (theta, accuracy); ties go
    to the smallest theta.
    """
    if not samples:
        raise ContractError("grid search needs a non-empty manifest")
    thetas = threshold_grid(*(grid or DEFAULT_GRID))
    heats = gt_class_heats(params, cfg, samples, selection_mass=selection_mass,
                           selector=selector, reattention_on=reattention_on)
    boxes = box_table(heats, thetas, cfg.image_size, cfg.image_size)
    table = gt_known_table(boxes, samples, thetas)
    return best_threshold(table), table


def max_box_acc_v2_over_grid(boxes, samples) -> float:
    """Calibrated-threshold MaxBoxAccV2 from a box table: for each IoU
    level pick the best threshold on the grid, then average the three
    best hit rates."""
    from .metrics import MAX_BOX_ACC_LEVELS

    ious = _best_ious(boxes, samples)
    per_level = [max(_hit_fractions(ious, level)) for level in MAX_BOX_ACC_LEVELS]
    return sum(per_level) / len(per_level)
