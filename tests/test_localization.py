"""Fusion, thresholding, component extraction and the localize pipeline."""

import sys

import numpy as np
import pytest
from scipy import ndimage

from tokenloc import localization as loc
from tokenloc import numerics as nm
from tokenloc.backbone import ModelConfig, parameter_shapes
from tokenloc.errors import ContractError, DimensionError
from tokenloc.localization import (
    DEFAULT_GRID,
    MAX_BOX_ACC_LEVELS,
    binarize,
    evaluate_heats,
    evaluate_samples,
    fuse,
    heat_boxes,
    localize,
    max_box_acc_v2,
    threshold_grid,
)
from tokenloc.pipeline import FORWARD_CHUNK

from util import iou


def flood_fill_largest(mask):
    """Recursive flood-fill oracle for the largest 8-connected component."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    sys.setrecursionlimit(20000)

    def fill(y, x, acc):
        if y < 0 or y >= h or x < 0 or x >= w or seen[y, x] or not mask[y, x]:
            return
        seen[y, x] = True
        acc.append((y, x))
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy or dx:
                    fill(y + dy, x + dx, acc)

    best = None
    for y in range(h):
        for x in range(w):
            if mask[y, x] and not seen[y, x]:
                acc = []
                fill(y, x, acc)
                if best is None or len(acc) > len(best):
                    best = acc
    if best is None:
        return None
    out = np.zeros_like(mask)
    for y, x in best:
        out[y, x] = True
    return out


def largest_component(mask):
    """Oracle: largest 8-connected component of one 2-D mask, or None when
    empty, from one `ndimage.label` call per mask (size ties go to the
    earliest raster-order label)."""
    labels, count = ndimage.label(np.asarray(mask, dtype=bool), structure=np.ones((3, 3)))
    if count == 0:
        return None
    sizes = np.bincount(labels.ravel())
    return labels == 1 + int(np.argmax(sizes[1:]))


def tight_bbox(component):
    """Oracle: tight half-open box around the set pixels of a component mask."""
    ys, xs = np.nonzero(np.asarray(component, dtype=bool))
    if ys.size == 0:
        raise ContractError("cannot box an empty component")
    return int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1


def oracle_boxes(heat, thetas):
    """Per threshold: the flood-fill oracle's tight box, or the full-image
    box and True when the foreground is empty."""
    height, width = heat.shape
    out = []
    for theta in thetas:
        component = flood_fill_largest(heat >= np.float32(theta))
        out.append(((0, 0, width, height), True) if component is None
                   else (tight_bbox(component), False))
    return out


def assert_labeller_matches_oracle(heat, thetas):
    boxes, degenerate = heat_boxes(heat, thetas, heat.shape[1], heat.shape[0])
    assert boxes.shape == (len(thetas), 4) and degenerate.shape == (len(thetas),)
    got = [(tuple(row.tolist()), bool(flag)) for row, flag in zip(boxes, degenerate)]
    assert got == oracle_boxes(heat, thetas)


# 8-connectivity within each (H, W) plane of a (P, H, W) mask stack, none across planes
_PLANE_EIGHT_CONNECTED = np.stack([np.zeros((3, 3)), np.ones((3, 3)), np.zeros((3, 3))]) > 0


def stacked_label_boxes(heats, thetas, width, height):
    """Reference for `heat_boxes`: the pixel labeller it replaced. The
    non-empty planes of the (..., T, H, W) mask stack are labelled in one
    `ndimage.label` call whose structure connects pixels only within a
    plane. Labels are numbered in raster order, so each plane holds one
    contiguous label range, and size ties go to the earliest label."""
    masks = binarize(np.asarray(heats)[..., None, :, :], thetas)
    lead, (h, w) = masks.shape[:-2], masks.shape[-2:]
    masks = masks.reshape(-1, h, w)
    occupied = masks.reshape(len(masks), -1).any(axis=1)
    boxes = np.tile(np.array([0, 0, width, height]), (len(masks), 1))
    if occupied.any():
        labels, count = ndimage.label(masks[occupied], structure=_PLANE_EIGHT_CONNECTED)
        planes = labels.reshape(len(labels), -1)
        starts = np.concatenate(([0], planes.max(axis=1)[:-1]))  # plane i: labels starts[i]+1..
        key = np.bincount(planes.ravel())[1:] * (count + 1) + np.arange(count, 0, -1)
        best = count + 1 - np.maximum.reduceat(key, starts) % (count + 1)
        chosen = labels == best[:, None, None]
        rows, cols = chosen.any(axis=2), chosen.any(axis=1)
        boxes[occupied] = np.stack([cols.argmax(axis=1), rows.argmax(axis=1),
                                    w - cols[:, ::-1].argmax(axis=1),
                                    h - rows[:, ::-1].argmax(axis=1)], axis=1)
    return boxes.reshape(*lead, 4), ~occupied.reshape(lead)


def assert_matches_stacked_labeller(heats, thetas):
    height, width = np.shape(heats)[-2:]
    boxes, empty = heat_boxes(heats, thetas, width, height)
    ref_boxes, ref_empty = stacked_label_boxes(heats, thetas, width, height)
    assert boxes.dtype == ref_boxes.dtype and empty.dtype == ref_empty.dtype
    assert np.array_equal(boxes, ref_boxes) and np.array_equal(empty, ref_empty)
    return boxes, empty


def hit_fraction_oracle(heats, samples, theta, iou_level, width, height):
    """Relabel every heat at `theta` alone and count strict IoU hits: the
    per-threshold loop that the box table replaces."""
    hits = 0
    for heat, (_, _, gt_boxes) in zip(heats, samples):
        box = heat_boxes(heat, [theta], width, height)[0][0]
        if max(iou(box, gt) for gt in gt_boxes) > iou_level:
            hits += 1
    return hits / len(samples)


def brightness_checkpoint():
    """Hand-built weights that turn the pipeline into a brightness detector.

    Patch embeddings carry (mean brightness, 1, 0, ...); block-0 attention
    keys read the normalised brightness coordinate against a constant
    class-token query, so the priority vector concentrates on bright
    patches; the CAM kernel is a centre tap on the brightness coordinate.
    """
    cfg = ModelConfig(image_size=32, patch_size=4, embed_dim=8, num_blocks=2,
                      num_heads=1, num_classes=2, mlp_ratio=1, selection_mass=0.5)
    params = {name: np.zeros(shape, np.float32)
              for name, shape in parameter_shapes(cfg).items()}
    params["embed.patch.weight"][:, 0] = 1.0 / cfg.patch_dim
    params["embed.pos"][1:, 1] = 1.0
    params["backbone.block0.ln1.gamma"][:] = 1.0
    params["backbone.block0.attn.q.bias"][0] = 8.0
    params["backbone.block0.attn.k.weight"][0, 0] = 1.0
    params["cam.conv.weight"][:, 0, 1, 1] = 1.0
    return cfg, params


def planted_image(x0, y0, size, side=32, background=0.1):
    image = np.full((3, side, side), background, np.float32)
    image[:, y0:y0 + size, x0:x0 + size] = 1.0
    return image


# --- fuse --------------------------------------------------------------------

def test_fuse_uniform_refined_map_is_degenerate():
    refined = np.full((2, 2), 0.7, np.float32)
    cams = np.random.default_rng(0).standard_normal((3, 2, 2)).astype(np.float32)
    assert np.array_equal(fuse(refined, cams, 1), np.zeros((2, 2), np.float32))


def test_fuse_constant_class_map_is_degenerate():
    refined = np.array([[0.1, 0.9], [0.4, 0.2]], np.float32)
    cams = np.full((2, 2, 2), 3.0, np.float32)
    assert np.array_equal(fuse(refined, cams, 0), np.zeros((2, 2), np.float32))


def test_fuse_matches_per_pixel_oracle():
    rng = np.random.default_rng(1)
    refined = rng.random((2, 2)).astype(np.float32)
    cams = rng.standard_normal((3, 2, 2)).astype(np.float32)
    k = 2
    got = fuse(refined, cams, k)
    mt = refined.astype(np.float64)
    mt = (mt - mt.min()) / (mt.max() - mt.min())
    mc = np.maximum(cams[k].astype(np.float64), 0.0)
    mc = (mc - mc.min()) / (mc.max() - mc.min()) if mc.max() > mc.min() else np.zeros((2, 2))
    assert np.allclose(got, mt * mc, atol=1e-6)
    assert got.min() >= 0.0 and got.max() <= 1.0


def test_fuse_stack_rows_equal_single_rows():
    rng = np.random.default_rng(16)
    refined = rng.random((4, 3, 3)).astype(np.float32)
    cams = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    refined[1] = 0.25       # a constant row zeroes only its own fusion
    cams[2, 1] = -1.0       # as does a class map that is negative everywhere
    classes = np.array([0, 1, 1, 0])
    got = fuse(refined, cams, classes)
    assert got.shape == (4, 3, 3) and got.dtype == np.float32
    def minmax(x):  # one plane, the float64 arithmetic of the single-map fusion
        x = x.astype(np.float64)
        span = x.max() - x.min()
        return np.zeros(x.shape, np.float32) if span <= 0 else ((x - x.min()) / span).astype(
            np.float32)

    for i in range(4):
        expected = minmax(refined[i]) * minmax(np.maximum(cams[i, classes[i]], 0.0))
        assert np.array_equal(got[i], expected)
        assert np.array_equal(got[i], fuse(refined[i], cams[i], int(classes[i])))
    assert not got[1].any() and not got[2].any() and got[0].any()
    with pytest.raises(ContractError):
        fuse(refined, cams, [0, 1, 2, 0])
    with pytest.raises(DimensionError):
        fuse(refined, cams[:3], classes)


def test_fuse_invalid_class_rejected():
    for class_id in (3, 10**30):   # 10**30 does not fit an int64
        with pytest.raises(ContractError, match=f"class id {class_id} out of range for 3 classes"):
            fuse(np.zeros((2, 2), np.float32), np.zeros((3, 2, 2), np.float32), class_id)


def test_fuse_monotone_in_refined_factor():
    rng = np.random.default_rng(2)
    mc = rng.random((4, 4))
    low = rng.random((4, 4))
    high = np.clip(low + rng.random((4, 4)) * 0.3, 0, 1)
    assert np.all(low * mc <= high * mc)


# --- binarize ----------------------------------------------------------------

def test_binarize_boundaries():
    heat = np.random.default_rng(3).random((4, 4)).astype(np.float32)
    assert binarize(heat, 0.0).all()
    assert not binarize(heat, 1.0).any() or heat.max() == 1.0


def test_binarize_ramp_per_pixel():
    heat = np.linspace(0, 1, 16, dtype=np.float32).reshape(4, 4)
    mask = binarize(heat, 0.5)
    for i in range(4):
        for j in range(4):
            assert mask[i, j] == (float(heat[i, j]) >= 0.5)


def test_binarize_threshold_monotonicity():
    heat = np.random.default_rng(4).random((8, 8)).astype(np.float32)
    counts = [binarize(heat, theta).sum() for theta in np.linspace(0, 1, 11)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_binarize_invalid_theta():
    with pytest.raises(ContractError):
        binarize(np.zeros((2, 2), np.float32), 1.5)


# --- components and boxes ------------------------------------------------------

def test_largest_component_single_blob():
    mask = np.zeros((5, 5), bool)
    mask[1:3, 1:4] = True
    assert np.array_equal(largest_component(mask), mask)


def test_largest_component_picks_bigger_blob():
    mask = np.zeros((6, 8), bool)
    mask[0, 0:3] = True          # 3 pixels
    mask[4:5, 3:8] = True        # 5 pixels
    expected = np.zeros_like(mask)
    expected[4:5, 3:8] = True
    got = largest_component(mask)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, flood_fill_largest(mask))


def test_largest_component_diagonal_is_connected():
    mask = np.zeros((4, 4), bool)
    mask[0, 0] = mask[1, 1] = mask[2, 2] = True
    assert largest_component(mask).sum() == 3


def test_largest_component_empty():
    assert largest_component(np.zeros((3, 3), bool)) is None


def test_largest_component_matches_flood_fill_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        density = rng.uniform(0.3, 0.7)
        mask = rng.random((16, 16)) < density
        got = largest_component(mask)
        expected = flood_fill_largest(mask)
        if expected is None:
            assert got is None
        else:
            assert np.array_equal(got, expected)


def _assert_matches_oracle(mask):
    got = largest_component(mask)
    expected = flood_fill_largest(mask)
    if expected is None:
        assert got is None
    else:
        assert got.dtype == bool and np.array_equal(got, expected)
    # the labeller boxes the same component: a 0/1 heat at threshold 0.5 is the mask
    assert_labeller_matches_oracle(np.asarray(mask, np.float32), [0.5])


def test_largest_component_size_ties_go_to_earliest_raster_component():
    # Two 5-pixel components; the V's arms start at (0, 0) and (0, 4) and
    # only join lower down, while the bar starts at (0, 2) between them.
    mask = np.zeros((6, 7), bool)
    mask[0, 0] = mask[1, 1] = mask[2, 2] = mask[1, 3] = mask[0, 4] = True
    mask[[0, 1, 2, 3, 4], 6] = True
    got = largest_component(mask)
    assert got[0, 0] and got.sum() == 5 and not got[0, 6]
    _assert_matches_oracle(mask)

    rng = np.random.default_rng(8)
    for _ in range(40):
        blob = rng.random((5, 5)) < 0.6
        blob[2, 2] = True
        blob = largest_component(blob)
        copies = int(rng.integers(2, 5))
        mask = np.zeros((32, 32), bool)
        for slot in rng.choice(16, size=copies, replace=False):
            y, x = 8 * (slot // 4), 8 * (slot % 4)
            mask[y:y + 5, x:x + 5] = blob
        got = largest_component(mask)
        first = np.unravel_index(np.flatnonzero(mask)[0], mask.shape)
        assert got[first] and got.sum() == blob.sum()
        _assert_matches_oracle(mask)


@pytest.mark.parametrize("shape", [(32, 32), (7, 19), (23, 5), (1, 12), (12, 1)])
def test_largest_component_oracle_across_shapes(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for _ in range(30):
        _assert_matches_oracle(rng.random(shape) < rng.uniform(0.2, 0.8))
    heat = nm.bilinear_resize(rng.random((8, 8)).astype(np.float32), *shape)
    for theta in threshold_grid(*DEFAULT_GRID):
        _assert_matches_oracle(binarize(heat, theta))
    assert np.array_equal(largest_component(np.ones(shape, bool)), np.ones(shape, bool))
    assert largest_component(np.zeros(shape, bool)) is None


# --- the threshold-stack labeller ------------------------------------------------

def test_heat_boxes_match_oracle_over_grid():
    rng = np.random.default_rng(12)
    thetas = threshold_grid(*DEFAULT_GRID)
    for _ in range(15):
        assert_labeller_matches_oracle(rng.random((32, 32)).astype(np.float32), thetas)
        coarse = rng.random((8, 8)).astype(np.float32) ** 2
        assert_labeller_matches_oracle(nm.bilinear_resize(coarse, 32, 32), thetas)


def test_heat_boxes_size_ties_within_a_plane_go_to_earliest_component():
    rng = np.random.default_rng(13)
    thetas = threshold_grid(*DEFAULT_GRID)
    for _ in range(30):
        # equal 3x4 blocks at random slots, each with its own height: at every
        # threshold the surviving blocks tie, and the first in raster order wins
        heat = np.zeros((32, 32), np.float32)
        slots = rng.choice(16, size=int(rng.integers(2, 6)), replace=False)
        for slot in slots:
            heat[8 * (slot // 4):8 * (slot // 4) + 3,
                 8 * (slot % 4):8 * (slot % 4) + 4] = rng.choice([0.3, 0.6, 0.9])
        boxes, degenerate = heat_boxes(heat, thetas, 32, 32)
        for row, flag, theta in zip(boxes.tolist(), degenerate, thetas):
            alive = [slot for slot in sorted(slots)
                     if heat[8 * (slot // 4), 8 * (slot % 4)] >= np.float32(theta)]
            if not alive:
                assert flag and row == [0, 0, 32, 32]
                continue
            y, x = 8 * (alive[0] // 4), 8 * (alive[0] % 4)
            assert not flag and row == [x, y, x + 4, y + 3]
        assert_labeller_matches_oracle(heat, thetas)


def test_heat_boxes_never_connect_across_thresholds():
    # identical masks in adjacent planes would form one component if planes
    # connected; empty and all-true planes sit between them
    heat = np.zeros((16, 16), np.float32)
    heat[2:5, 3:9] = 0.6      # 18 pixels
    heat[10:14, 10:15] = 0.8  # 20 pixels
    thetas = [0.5, 0.5, 0.9, 0.0, 0.7, 0.7, 1.0, 0.5]
    boxes, degenerate = heat_boxes(heat, thetas, 16, 16)
    assert degenerate.tolist() == [False, False, True, False, False, False, True, False]
    assert boxes.tolist() == [[10, 10, 15, 14], [10, 10, 15, 14], [0, 0, 16, 16],
                              [0, 0, 16, 16], [10, 10, 15, 14], [10, 10, 15, 14],
                              [0, 0, 16, 16], [10, 10, 15, 14]]
    assert_labeller_matches_oracle(heat, thetas)


def test_heat_boxes_all_true_and_all_false_planes():
    thetas = threshold_grid(*DEFAULT_GRID)
    for shape in ((32, 32), (5, 9)):
        boxes, degenerate = heat_boxes(np.ones(shape, np.float32), thetas, shape[1], shape[0])
        assert not degenerate.any()
        assert boxes.tolist() == [[0, 0, shape[1], shape[0]]] * len(thetas)
        boxes, degenerate = heat_boxes(np.zeros(shape, np.float32), thetas, shape[1], shape[0])
        assert degenerate.all()
        assert boxes.tolist() == [[0, 0, shape[1], shape[0]]] * len(thetas)
        assert_labeller_matches_oracle(np.ones(shape, np.float32), [0.0, 1.0, 0.5])


@pytest.mark.parametrize("shape", [(7, 19), (23, 5), (1, 12), (12, 1), (32, 17)])
def test_heat_boxes_match_oracle_on_non_square_heats(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    thetas = threshold_grid(*DEFAULT_GRID)
    for _ in range(5):
        assert_labeller_matches_oracle(rng.random(shape).astype(np.float32), thetas)
        coarse = rng.random((4, 4)).astype(np.float32)
        assert_labeller_matches_oracle(nm.bilinear_resize(coarse, *shape), thetas)


def test_stacked_heat_boxes_equal_per_heat_calls_and_the_oracle(monkeypatch):
    rng = np.random.default_rng(16)
    thetas = threshold_grid(*DEFAULT_GRID)
    ties = np.zeros((32, 32), np.float32)
    ties[2:5, 3:7] = ties[20:23, 9:13] = ties[11:14, 25:29] = 0.7  # three equal blocks
    heats = [np.zeros((32, 32), np.float32),                         # empty at every theta
             np.ones((32, 32), np.float32),                          # all-true at every theta
             ties, np.zeros((32, 32), np.float32)]
    heats += [rng.random((32, 32)).astype(np.float32) for _ in range(3)]
    heats += [nm.bilinear_resize(rng.random((8, 8)).astype(np.float32) ** 2, 32, 32)
              for _ in range(FORWARD_CHUNK + 3 - len(heats))]
    boxes, degenerate = heat_boxes(np.stack(heats), thetas, 32, 32)
    assert boxes.shape == (len(heats), len(thetas), 4)
    assert degenerate.shape == (len(heats), len(thetas))
    assert degenerate[0].all() and degenerate[3].all() and not degenerate[1].any()
    assert boxes[2, :14].tolist() == [[3, 2, 7, 5]] * 14  # theta <= 0.7: earliest block
    assert degenerate[2, 14:].all()
    for heat, rows, flags in zip(heats, boxes, degenerate):
        single_rows, single_flags = heat_boxes(heat, thetas, 32, 32)
        assert np.array_equal(rows, single_rows) and np.array_equal(flags, single_flags)
        got = [(tuple(row.tolist()), bool(flag)) for row, flag in zip(rows, flags)]
        assert got == oracle_boxes(heat, thetas)
    # any leading axes, and one threshold
    square = heat_boxes(np.stack(heats[:8]).reshape(2, 4, 32, 32), thetas, 32, 32)
    assert np.array_equal(square[0], boxes[:8].reshape(2, 4, len(thetas), 4))
    assert np.array_equal(square[1], degenerate[:8].reshape(2, 4, len(thetas)))
    at_half, _ = heat_boxes(np.stack(heats), [0.5], 32, 32)
    assert np.array_equal(at_half[:, 0], boxes[:, thetas.index(0.5)])
    # evaluate_heats' box table: full stacks of FORWARD_CHUNK heats and a short final one
    calls = []
    real = loc.heat_boxes

    def recording(stack, *args):
        calls.append(len(stack))
        return real(stack, *args)

    monkeypatch.setattr(loc, "heat_boxes", recording)
    box_table, *_ = evaluate_heats(heats, [np.array([[0, 0, 1, 1]])] * len(heats), thetas, 32)
    assert np.array_equal(box_table, boxes)
    assert calls == [FORWARD_CHUNK, 3]


def test_heat_boxes_equal_the_stacked_pixel_labeller_on_random_stacks():
    rng = np.random.default_rng(21)
    grid = threshold_grid(*DEFAULT_GRID)
    for _ in range(2400):
        h, w = (int(v) for v in rng.integers(1, 13, size=2))
        lead = tuple(int(v) for v in rng.integers(1, 4, size=int(rng.integers(0, 3))))
        if rng.random() < 0.5:
            heats = (rng.random((*lead, h, w)) ** rng.uniform(0.3, 3.0)).astype(np.float32)
        else:
            coarse = rng.random((*lead, 3, 3)).astype(np.float32)
            heats = nm.bilinear_resize(coarse.reshape(-1, 3, 3), h, w).reshape(*lead, h, w)
        thetas = sorted(rng.choice(grid, size=int(rng.integers(1, 5))).tolist())
        boxes, empty = assert_matches_stacked_labeller(heats, thetas)
        assert boxes.shape == (*lead, len(thetas), 4) and empty.shape == (*lead, len(thetas))


def _mask(*rows):
    return np.array([[c == "#" for c in row] for row in rows], np.float32)


# (name, (P, H, W) 0/1 planes, boxes at threshold 0.5); each plane is a heat
ADVERSARIAL_PLANES = [
    ("last row of a plane, first row of the next",
     [_mask("..###", "#...."), _mask("###..", "....#")],
     [[2, 0, 5, 1], [0, 0, 3, 1]]),
    ("a U merges two runs above it",
     [_mask("#.#...", "#.#.##", "###.##")], [[0, 0, 3, 3]]),
    ("a diagonal-only touch connects",
     [_mask("#....", ".#..#", "..#.#")], [[0, 0, 3, 3]]),
    ("a one-column gap below does not connect",
     [_mask("#....", "..###")], [[2, 1, 5, 2]]),
    ("a corner touch below connects",
     [_mask("##...", "..##.")], [[0, 0, 4, 2]]),
    ("a one-column gap in a row does not connect",
     [_mask("##.##", ".....", "..#..")], [[0, 0, 2, 1]]),
    ("a serpentine is one chain",
     [_mask("#####", "....#", "#####", "#....", "#####")], [[0, 0, 5, 5]]),
    ("diagonals that meet only in the last row",
     [_mask("#...#", "#..#.", "#.#..", "##...", "....#")], [[0, 0, 5, 4]]),
    ("a comb joins runs through its spine",
     [_mask("#.#.#.#", "#######", "#.....#", "#.#.#.#")], [[0, 0, 7, 4]]),
    ("equal sizes: the first pixel in raster order wins",
     [_mask("..##", "#...", "#..."), _mask("#...", "#.##", "....")],
     [[2, 0, 4, 1], [0, 0, 1, 2]]),
    ("a one-row plane", [_mask("#.##.###.#")], [[5, 0, 8, 1]]),
    ("a one-column plane", [_mask("#", ".", "#", "#", ".", "#")], [[0, 2, 1, 4]]),
    ("full and empty planes",
     [_mask("###", "###"), _mask("...", "..."), _mask("###", "###")],
     [[0, 0, 3, 2], [0, 0, 3, 2], [0, 0, 3, 2]]),
]


@pytest.mark.parametrize("planes, expected", [pytest.param(planes, expected, id=name)
                                              for name, planes, expected in ADVERSARIAL_PLANES])
def test_heat_boxes_adversarial_planes(planes, expected):
    heats = np.stack(planes)
    boxes, empty = assert_matches_stacked_labeller(heats, [0.5])
    assert boxes[:, 0].tolist() == expected
    assert empty[:, 0].tolist() == [not plane.any() for plane in planes]
    for heat, box in zip(heats, boxes[:, 0].tolist()):
        assert oracle_boxes(heat, [0.5]) == [(tuple(box), not heat.any())]


def _serpentine(side):
    """Full rows joined at alternate ends: one chain of runs down the plane."""
    plane = np.zeros((side, side), np.float32)
    plane[::2] = 1.0
    plane[1::4, -1] = plane[3::4, 0] = 1.0
    return plane


def _teeth(side):
    """Teeth in every other column, reaching to the bottom row from tops
    at bit-reversed heights: the tooth in column 2i starts at row
    reverse_bits(i) // 2, so the teeth's first runs, which name them, rise
    and fall in raster order along the row at every scale."""
    plane, n = np.zeros((side, side), np.float32), side // 2
    for i in range(n):
        plane[int(format(i, f"0{n.bit_length() - 1}b")[::-1], 2) // 2:, 2 * i] = 1.0
    return plane


def _comb_joined_at_the_bottom(side):
    plane = _teeth(side)
    plane[-1] = 1.0
    return plane


def _ladder(side):
    """The teeth joined pairwise by rungs in two alternating rows: each
    hooking round merges only neighbouring pieces, so a side of 2**k takes
    k - 1 rounds (4 at 32, 5 at 64)."""
    plane = _teeth(side)
    for i in range(side // 2 - 1):
        plane[side - 6 + 2 * (i % 2), 2 * i:2 * i + 3] = 1.0
    return plane


def _diagonal_chains(side):
    """8-connected diagonals one pixel per row: falling ones three columns
    apart (never touching), and rising ones two columns apart, which meet
    only at corners; every pixel is a run of its own."""
    y, x = np.indices((side, side))
    falling = (x - y) % 3 == 0
    rising = (x + y) % 2 == 0
    return np.where(x < side // 2, falling, rising & (y % 4 != 3)).astype(np.float32)


@pytest.mark.parametrize("side", [32, 64])
def test_heat_boxes_equal_the_stacked_pixel_labeller_on_long_chains_and_deep_hooks(side):
    """Planes whose labelling takes several hooking rounds and long
    pointer chains, as 0/1 heats and with seeded values in [0.5, 1] on
    their foreground, so the higher thresholds cut them into pieces."""
    rng = np.random.default_rng(side)
    planes = [_serpentine(side), _comb_joined_at_the_bottom(side), _ladder(side),
              _diagonal_chains(side), _diagonal_chains(side)[::-1], _serpentine(side).T]
    heats = np.stack(planes + [plane * rng.uniform(0.5, 1.0, plane.shape).astype(np.float32)
                               for plane in planes])
    boxes, empty = assert_matches_stacked_labeller(heats, threshold_grid(*DEFAULT_GRID))
    assert not empty.any()
    # under every value, the serpentines, the comb and the ladder are one component each
    assert boxes[[0, 1, 2, 5], 0].tolist() == [[0, 0, side, side]] * 2 + [
        [0, 0, side - 1, side], [0, 0, side, side]]


def test_heat_boxes_at_one_threshold_match_the_oracle():
    rng = np.random.default_rng(14)
    for _ in range(40):
        shape = tuple(int(v) for v in rng.integers(1, 33, size=2))
        heat = nm.bilinear_resize(rng.random((6, 6)).astype(np.float32), *shape)
        theta = float(rng.choice([0.0, 1.0, rng.uniform(0, 1)]))
        assert_labeller_matches_oracle(heat, [theta])


def test_heat_boxes_reject_thresholds_outside_unit_interval():
    with pytest.raises(ContractError):
        heat_boxes(np.zeros((4, 4), np.float32), [0.5, 1.5], 4, 4)
    with pytest.raises(ContractError):
        heat_boxes(np.zeros((4, 4), np.float32), [float("nan")], 4, 4)


def test_box_table_matches_hit_fraction_oracle():
    rng = np.random.default_rng(9)
    side = 32
    thetas = threshold_grid(*DEFAULT_GRID)
    heats, samples = [], []
    for _ in range(12):
        heat = nm.bilinear_resize(rng.random((8, 8)).astype(np.float32), side, side)
        gt_boxes = []
        for _ in range(int(rng.integers(1, 3))):
            (x0, y0, x1, y1), = heat_boxes(heat, [float(rng.choice(thetas))], side, side)[0]
            dx, dy = (int(v) for v in rng.integers(-3, 4, size=2))
            gt_boxes.append((max(0, x0 + dx), max(0, y0 + dy),
                             min(side, x1 + dx), min(side, y1 + dy)))
        heats.append(heat)
        samples.append((None, 0, np.array(gt_boxes)))
    boxes, ious, table, theta_star, _ = evaluate_heats(heats, [gt for _, _, gt in samples],
                                                       thetas, side)
    assert np.array_equal(boxes, heat_boxes(np.stack(heats), thetas, side, side)[0])
    assert table == [
        (theta, hit_fraction_oracle(heats, samples, theta, 0.5, side, side)) for theta in thetas]
    assert all(type(theta) is float and type(acc) is float for theta, acc in table)
    best = max(acc for _, acc in table)
    assert theta_star == min(theta for theta, acc in table if acc == best)
    per_level = [max(hit_fraction_oracle(heats, samples, theta, level, side, side)
                     for theta in thetas) for level in MAX_BOX_ACC_LEVELS]
    assert 0.0 < sum(per_level) < len(per_level)
    assert max_box_acc_v2(ious) == sum(per_level) / len(per_level)
    assert type(max_box_acc_v2(ious)) is float


def test_tight_bbox_cases():
    single = np.zeros((6, 7), bool)
    single[4, 2] = True
    assert tight_bbox(single) == (2, 4, 3, 5)
    assert tight_bbox(np.ones((5, 9), bool)) == (0, 0, 9, 5)


def test_tight_bbox_l_shape_matches_scan():
    mask = np.zeros((8, 8), bool)
    mask[2:6, 3] = True
    mask[5, 3:7] = True
    ys, xs = np.nonzero(mask)
    assert tight_bbox(mask) == (xs.min(), ys.min(), xs.max() + 1, ys.max() + 1)


def test_tight_bbox_empty_rejected():
    with pytest.raises(ContractError):
        tight_bbox(np.zeros((4, 4), bool))


# --- localize ------------------------------------------------------------------

def test_localize_deterministic():
    cfg, params = brightness_checkpoint()
    image = planted_image(12, 8, 8)
    heat, box, class_id, empty = localize(params, cfg, image, 0, theta=0.25)
    again = localize(params, cfg, image, 0, theta=0.25)
    assert box.dtype == np.int64 and box.tolist() == again[1].tolist()
    assert (class_id, empty) == again[2:] == (0, False)
    assert np.array_equal(heat, again[0])


def test_localize_recovers_planted_square():
    cfg, params = brightness_checkpoint()
    for x0, y0, size in ((12, 8, 8), (4, 16, 8), (20, 20, 8), (8, 8, 12)):
        image = planted_image(x0, y0, size)
        _, box, _, empty = localize(params, cfg, image, 0, theta=0.45)
        gt = (x0, y0, x0 + size, y0 + size)
        assert not empty
        assert iou(box, gt) >= 0.8, (box, gt)


def test_localize_theta_zero_gives_full_image_box():
    cfg, params = brightness_checkpoint()
    _, box, _, _ = localize(params, cfg, planted_image(12, 8, 8), 0, theta=0.0)
    assert box.tolist() == [0, 0, 32, 32]


def test_localize_predicted_class():
    cfg, params = brightness_checkpoint()
    _, _, class_id, _ = localize(params, cfg, planted_image(12, 8, 8), "predicted", theta=0.25)
    assert type(class_id) is int and class_id in (0, 1)


def test_localize_degenerate_map_falls_back_to_full_box():
    cfg = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                      num_heads=2, num_classes=2)
    zero_params = {name: np.zeros(shape, np.float32)
                   for name, shape in parameter_shapes(cfg).items()}
    _, box, _, empty = localize(zero_params, cfg, np.zeros((3, 8, 8), np.float32), 0, theta=0.5)
    assert empty is True
    assert box.tolist() == [0, 0, 8, 8]


def test_heat_boxes_stay_in_bounds():
    rng = np.random.default_rng(6)
    for _ in range(25):
        heat = rng.random((16, 16)).astype(np.float32)
        (x0, y0, x1, y1), = heat_boxes(heat, [float(rng.uniform(0, 1))], 16, 16)[0].tolist()
        assert 0 <= x0 < x1 <= 16
        assert 0 <= y0 < y1 <= 16


# --- grid search -----------------------------------------------------------------

def _samples(count=10, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = int(rng.choice([8, 12]))
        x0 = int(rng.integers(0, (32 - size) // 4 + 1)) * 4
        y0 = int(rng.integers(0, (32 - size) // 4 + 1)) * 4
        out.append((planted_image(x0, y0, size), 0, np.array([[x0, y0, x0 + size, y0 + size]])))
    return out


def test_threshold_grid_contents():
    assert threshold_grid(0.05, 0.95, 0.05) == pytest.approx(
        [round(0.05 * i, 9) for i in range(1, 20)])
    assert threshold_grid(0.3, 0.3, 0.1) == [0.3]
    assert len(threshold_grid(0.0, 1.0, 1e-4)) == loc.MAX_GRID_THRESHOLDS == 10_001
    nan, inf = float("nan"), float("inf")
    for bad in [(0.5, 0.3, 0.1), (0.0, 1.0, 1e-7), (0.0, 1.0, 5e-324), (0.05, 0.95, nan),
                (nan, 0.95, 0.05), (0.05, inf, 0.05), (-0.1, 0.9, 0.1), (0.0, 1.5, 0.1),
                (0.0, 1.0, 0.0), (0.0, 1.0, -0.1)]:
        with pytest.raises(ContractError):
            threshold_grid(*bad)


def test_grid_search_singleton():
    cfg, params = brightness_checkpoint()
    theta, table, _ = evaluate_samples(params, cfg, _samples(3), (),
                                       threshold_grid(0.25, 0.25, 0.1))
    assert theta == 0.25
    assert len(table) == 1


def test_grid_search_best_attains_table_max():
    cfg, params = brightness_checkpoint()
    theta, table, _ = evaluate_samples(params, cfg, _samples(5), (), threshold_grid(0.1, 0.9, 0.2))
    best = max(acc for _, acc in table)
    assert dict(table)[theta] == best
    assert theta == min(t for t, acc in table if acc == best)


def test_grid_search_matches_exhaustive_per_theta_oracle():
    cfg, params = brightness_checkpoint()
    samples = _samples(10)
    grid = (0.1, 0.9, 0.1)
    theta_star, table, _ = evaluate_samples(params, cfg, samples, (), threshold_grid(*grid))

    oracle_table = []
    for theta in threshold_grid(*grid):
        hits = 0
        for image, label, gt_boxes in samples:
            _, box, _, _ = localize(params, cfg, image, label, theta=theta)
            if max(iou(box, gt) for gt in gt_boxes) > 0.5:
                hits += 1
        oracle_table.append((theta, hits / len(samples)))
    assert table == oracle_table
    best = max(acc for _, acc in oracle_table)
    assert dict(oracle_table)[theta_star] == best


def test_grid_search_empty_manifest_rejected():
    cfg, params = brightness_checkpoint()
    with pytest.raises(ContractError):
        evaluate_samples(params, cfg, [], (), threshold_grid(*DEFAULT_GRID))
