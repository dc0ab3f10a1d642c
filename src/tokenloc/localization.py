"""Map fusion, thresholding, connected components and box extraction.

The scoring-branch map and the chosen class's activation map are each
min-max normalised (a constant map normalises to zeros), multiplied,
upsampled to image resolution, thresholded, and reduced to the tight
bounding box of the largest 8-connected foreground component. Fusion
runs over a stack of scoring and class maps, and a stack of heat maps
is labelled by foreground runs at every threshold of a grid in one call.
A box is a half-open (x0, y0, x1, y1) int64 row. GT-known accuracy and
its calibrated threshold, top-1 and top-5 localization accuracy and
MaxBoxAccV2 (Choe et al., CVPR 2020) are functions of a box table's
(S, T) best IoUs: strict comparisons, each sample against its
best-matching ground-truth box. `evaluate_samples`, behind `calibrate`,
`eval` and `ablate-selection`, runs one forward pass per stack for every
selection rule, with re-attention on and off, and keeps token-grid maps:
a stack's image-size heats live only while it is scored.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from . import pipeline
from .backbone import ModelConfig
from .errors import ContractError, DimensionError
from .pipeline import rescored, two_branch_forward
from .token_refine import spatial_map

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
    MAX_GRID_THRESHOLDS of them, rounded to 1e-9; a value past `stop` by
    less than the 1e-9 tolerance is `stop` itself."""
    if not (all(map(math.isfinite, (start, stop, step))) and 0.0 <= start <= stop <= 1.0
            and step >= 1e-9):
        raise ContractError(f"invalid grid {start}:{stop}:{step}: need finite "
                            f"0 <= start <= stop <= 1 and step >= 1e-9")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if count > MAX_GRID_THRESHOLDS:
        raise ContractError(f"grid {start}:{stop}:{step} has {count:.0f} thresholds, "
                            f"more than {MAX_GRID_THRESHOLDS}")
    first = round(start, 9)   # a lattice point: values a step >= 1e-9 apart round apart
    return [float(min(round(first + i * step, 9), stop)) for i in range(int(count))]


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


def gt_known_table(ious, thetas) -> tuple:
    """The (theta, GT-known accuracy) rows of an (S, T) best-IoU table over
    `thetas`, at IoU level 0.5, and the best theta (ties to the smallest)."""
    table = list(zip(thetas, (np.count_nonzero(ious > 0.5, axis=0) / len(ious)).tolist()))
    theta_star, _ = max(table, key=lambda row: (row[1], -row[0]))
    return table, theta_star


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


def evaluate_samples(params, cfg: ModelConfig, samples, metrics, thetas, *, selectors=(None,),
                     modes=(True,)) -> list:
    """The engine behind `calibrate`, `eval` and `ablate-selection`: on
    (image, label, (G, 4) boxes) samples, returns one (theta_star, table,
    {metric: value}) per (selector, re-attention mode) pair, selector-major,
    in the order of `modes` (True on, False off).

    theta_star and table are `gt_known_table` over `thetas` (a fixed
    threshold is a grid of one); `metrics` names any of METRIC_NAMES, the
    class-aware ones read at theta_star. Each stack of
    `pipeline.FORWARD_CHUNK` images gets one forward pass, with the first
    selector, which later selectors re-select (`pipeline.rescored`);
    re-attention off scores the priority map, once for all selectors and
    with no mask block. The passes keep token-grid maps; after the last,
    each stack is scored: one call labels its GT-class heats over the
    grid and, for top1/top5, one more the heats of the top-ranked class
    (by CAM-branch probability, ties by id) where it is not the GT class.
    """
    if not (len(selectors) and len(samples)):
        raise ContractError("evaluation needs at least one selector and one sample")
    side, step = cfg.image_size, pipeline.FORWARD_CHUNK
    ranked_metrics = any(m in metrics for m in ("top1", "top5"))
    # a setting is a selector's index, or "off"
    settings = [*range(len(selectors))] * (True in modes) + ["off"] * (False in modes)
    gt = _gt_array([boxes for _, _, boxes in samples])
    stacks, ranks = [], []   # per stack: labels, top classes, CAM maps, GT boxes, scoring maps
    for start in range(0, len(samples), step):
        images, labels, _ = zip(*samples[start:start + step])
        first = two_branch_forward(params, cfg, np.stack(images), selector=selectors[0])
        order = np.argsort(-nm.value_of(first.p_cam), axis=1, kind="stable")
        # one backbone, priority and CAM pass per stack for every selector
        maps = {s: spatial_map(first.priorities) if s == "off" else
                (first if s == 0 else rescored(first, selectors[s])).refined_map for s in settings}
        stacks.append((labels, order[:, 0], first.cam_maps, gt[start:start + step], maps))
        ranks += (order == np.array(labels)[:, None]).argmax(axis=1).tolist()

    def score(setting):
        ious, top_ious = [], []   # the GT-class and top-class (S, T) IoU tables, by stack
        for labels, top, cam_maps, rows, maps in stacks:
            heats = class_heats(maps[setting], cam_maps, labels, side)
            ious.append(best_ious(heat_boxes(heats, thetas, side, side)[0], rows))
            if ranked_metrics:   # the GT-class rows, but where the top class misses
                miss = np.flatnonzero(top != labels)
                top_ious.append(ious[-1].copy())
                if miss.size:
                    heats = class_heats(maps[setting][miss], cam_maps[miss], top[miss], side)
                    top_ious[-1][miss] = best_ious(heat_boxes(heats, thetas, side, side)[0],
                                                   rows[miss])
        ious = np.concatenate(ious)
        table, theta_star = gt_known_table(ious, thetas)
        results = {"gt-known": dict(table)[theta_star], "maxboxaccv2": max_box_acc_v2(ious)}
        if ranked_metrics:
            top_ious = np.concatenate(top_ious)[:, thetas.index(theta_star)]
            results.update(top1=top_k_loc_acc(top_ious, ranks, 1),
                           top5=top_k_loc_acc(top_ious, ranks, 5))
        return theta_star, table, {metric: results[metric] for metric in metrics}

    scores = {setting: score(setting) for setting in settings}
    return [scores[i if reatt else "off"] for i in range(len(selectors)) for reatt in modes]
