"""Two-branch pipeline composition tests."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tokenloc import numerics as nm
from tokenloc.backbone import ModelConfig, init_params, parameter_shapes, mhsa
from tokenloc.errors import ContractError
from tokenloc.formats import read_checkpoint
from tokenloc import localization
from tokenloc.localization import (
    DEFAULT_GRID,
    class_heats,
    evaluate_samples,
    fuse,
    heat_boxes,
    threshold_grid,
)
from tokenloc.pipeline import (
    FORWARD_CHUNK,
    rescored,
    two_branch_forward,
)
from tokenloc.token_refine import adaptive, fixed, select, top_k
from tokenloc.training import ToyTaskConfig, make_dataset

from util import gt_heats, selection_matrix

ACCEPTANCE_CKPT = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "acceptance.ckpt"
CFG = ModelConfig(image_size=16, patch_size=4, embed_dim=8, num_blocks=2,
                  num_heads=2, num_classes=3)


def test_degenerate_priorities_fall_back_to_argmax():
    # every rule, whatever it would keep, gets the one fallback on a zero-mass row
    for selector in (adaptive(CFG.selection_mass), adaptive(0.3), top_k(4), fixed(0.0),
                     fixed(0.01), fixed("mean")):
        mask = select(np.zeros((1, 6), np.float32), selector)
        assert np.array_equal(mask, [[1, 0, 0, 0, 0, 0]])


def test_zero_model_runs_end_to_end():
    params = {name: np.zeros(shape, np.float32)
              for name, shape in parameter_shapes(CFG).items()}
    result = two_branch_forward(params, CFG, np.zeros((1, 3, 16, 16), np.float32))
    assert nm.value_of(result.p_cam).shape == (1, 3)
    assert abs(float(nm.value_of(result.p_cam).sum()) - 1.0) < 1e-6
    assert abs(float(nm.value_of(result.p_refine).sum()) - 1.0) < 1e-6


def test_constant_selector_pins_selection():
    params = init_params(CFG, 0)
    image = np.random.default_rng(1).random((3, 16, 16)).astype(np.float32)
    mask = np.zeros(CFG.num_tokens, np.float32)
    mask[3] = 1.0
    result = two_branch_forward(params, CFG, np.stack([image, image[:, ::-1]]),
                                selector=lambda m: np.broadcast_to(mask, m.shape))
    assert np.array_equal(result.mask, [mask, mask])
    lam = nm.value_of(result.weights)
    assert np.array_equal(lam, [mask, mask])  # single selected token takes all the weight


def test_custom_selector_hook():
    params = init_params(CFG, 2)
    image = np.random.default_rng(3).random((3, 16, 16)).astype(np.float32)
    calls = []

    def take_two(m):
        calls.append(m.copy())
        mask = np.zeros_like(m)
        mask[:, :2] = 1.0
        return mask

    result = two_branch_forward(params, CFG, image[None], selector=take_two)
    assert len(calls) == 1
    assert np.array_equal(calls[0], result.priorities)
    assert np.array_equal(result.mask[0, :2], [1, 1])
    assert result.mask[0, 2:].sum() == 0


def test_full_mass_selection_reduces_masked_attention_to_plain():
    # u = 1 with strictly positive priorities selects every token, so the
    # masked block sees an all-ones matrix and equals plain attention.
    params = init_params(CFG, 4)
    rng = np.random.default_rng(5)
    m = (rng.random(CFG.num_tokens) + 0.05).astype(np.float32)
    mask = select(m[None], adaptive(1.0))[0]
    assert np.array_equal(mask, np.ones(CFG.num_tokens, np.float32))
    matrix = selection_matrix(mask)
    n = CFG.num_tokens
    rows = rng.standard_normal((n, CFG.embed_dim)).astype(np.float32)
    masked_out, _ = mhsa(rows, params, "refine.mask_block", CFG.num_heads, n, mask=matrix[None])
    plain_out, _ = mhsa(rows, params, "refine.mask_block", CFG.num_heads, n)
    assert np.allclose(masked_out, plain_out, atol=1e-6)


def test_forward_deterministic():
    params = init_params(CFG, 6)
    image = np.random.default_rng(7).random((1, 3, 16, 16)).astype(np.float32)
    a = two_branch_forward(params, CFG, image)
    b = two_branch_forward(params, CFG, image)
    assert np.array_equal(nm.value_of(a.refined_map), nm.value_of(b.refined_map))
    assert np.array_equal(nm.value_of(a.cam_maps), nm.value_of(b.cam_maps))
    assert np.array_equal(nm.value_of(a.p_refine), nm.value_of(b.p_refine))


def test_taped_forward_matches_untaped_values():
    params = init_params(CFG, 8)
    image = np.random.default_rng(9).random((2, 3, 16, 16)).astype(np.float32)
    plain = two_branch_forward(params, CFG, image)
    tape = nm.GradTape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    taped = two_branch_forward(leaves, CFG, image)
    assert np.array_equal(nm.value_of(plain.p_cam), nm.value_of(taped.p_cam))
    assert np.array_equal(nm.value_of(plain.p_refine), nm.value_of(taped.p_refine))
    assert np.array_equal(nm.value_of(plain.refined_map), nm.value_of(taped.refined_map))


def test_a_taped_forward_keeps_the_priority_path_off_the_tape():
    params = init_params(CFG, 8)
    image = np.random.default_rng(9).random((2, 3, 16, 16)).astype(np.float32)
    tape = nm.GradTape()
    taped = two_branch_forward({k: tape.leaf(v) for k, v in params.items()}, CFG, image)
    assert isinstance(taped.weights, nm.Node)    # the mask block stays on the tape
    for value in (taped.priorities, taped.refined_map):
        assert type(value) is np.ndarray and value.dtype == np.float32


def test_a_rescored_result_equals_a_fresh_forward():
    params = init_params(CFG, 10)
    image = np.random.default_rng(11).random((2, 3, 16, 16)).astype(np.float32)

    def take_three(m):
        return np.argsort(np.argsort(-m, axis=-1, kind="stable"), axis=-1) < 3

    first = two_branch_forward(params, CFG, image, selector=top_k(1))
    _ = first.refined_map, first.p_refine   # a cached read must not carry over
    for selector in (take_three, adaptive(0.3), None):
        fresh = two_branch_forward(params, CFG, image, selector=selector)
        reused = rescored(first, selector)
        assert reused.z_p is first.z_p and reused.cam_maps is first.cam_maps
        for field in ("mask", "weights", "refined_map", "cam_maps", "p_cam", "p_refine"):
            assert np.array_equal(nm.value_of(getattr(reused, field)),
                                  nm.value_of(getattr(fresh, field))), field


def test_a_result_holds_no_callable():
    result = two_branch_forward(init_params(CFG, 10), CFG, np.zeros((1, 3, 16, 16), np.float32))
    assert not [name for name, value in vars(result).items() if callable(value)]


@pytest.mark.parametrize("shape", [(3, 16, 16), (1, 3, 32, 32), (2, 3, 16, 8), (1, 1, 16, 16)])
def test_image_stack_shape_is_checked_against_the_config(shape):
    params = init_params(CFG, 12)
    with pytest.raises(ContractError, match=r"\(3, 16, 16\)") as info:
        two_branch_forward(params, CFG, np.zeros(shape, np.float32))
    assert str(shape[-3:]) in str(info.value)
    assert "\n" not in str(info.value)


def test_each_image_of_a_stack_is_selected_alone():
    params = init_params(CFG, 13)
    images = np.random.default_rng(14).random((3, 3, 16, 16)).astype(np.float32)
    seen = []

    def record(m):
        seen.append(m.copy())
        return adaptive(CFG.selection_mass)(m)

    batched = two_branch_forward(params, CFG, images, selector=record)
    assert len(seen) == 1 and seen[0].shape == (3, CFG.num_tokens)
    for i in range(3):
        single = two_branch_forward(params, CFG, images[i:i + 1])
        assert np.array_equal(seen[0][i], single.priorities[0])
        assert np.array_equal(batched.mask[i], single.mask[0])
        assert np.array_equal(batched.weights[i], single.weights[0])


def test_batched_forward_is_bit_identical_to_single_images_on_the_acceptance_heldout_set():
    # the checkpoint trained on the acceptance toy task, and its 50 held-out images
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    heldout = make_dataset(ToyTaskConfig(samples_per_epoch=50, seed=99))
    images = np.stack([image for image, _, _ in heldout])
    batched = two_branch_forward(params, cfg, images)
    for i in range(len(images)):
        alone = two_branch_forward(params, cfg, images[i:i + 1])
        for field in ("refined_map", "cam_maps", "p_cam", "p_refine", "priorities", "mask",
                      "weights"):
            assert np.array_equal(getattr(batched, field)[i], getattr(alone, field)[0]), field


# One untaped forward of FORWARD_CHUNK acceptance-size images, plus a
# second selection and mask block on the same pass (once a second
# branch pass on its backbone output), allocated about 0.5 MB per image
# at its peak when this budget was set (2.07 MB at 4 images, 4.06 MB at
# 8; 1.23 MB and 2.46 MB once the mask block ran on the gathered
# selected tokens; 1.17 MB and 2.32 MB since the backbone keeps only the
# class-token attention rows and the untaped attention frees its float64
# work array and V copy before the merge, which lets FORWARD_CHUNK be 8;
# 1.17 MB and 2.32 MB with CAM run inside the pass). The budget, that first peak at 4 images plus 15%,
# keeps the chunk at a size whose evaluation peak RSS stays near the
# single-image one and catches float64 temporaries coming back into the
# forward.
CHUNK_FORWARD_BUDGET = 2_385_000


def _acceptance_samples(count):
    return make_dataset(ToyTaskConfig(samples_per_epoch=count, seed=99))


def _single_image_heat(params, cfg, image, class_id):
    """The per-image path: a stack of one, fused and upsampled as matrices."""
    alone = two_branch_forward(params, cfg, image[None])
    fused = fuse(nm.value_of(alone.refined_map)[0], nm.value_of(alone.cam_maps)[0], class_id)
    return alone, nm.bilinear_resize(fused, cfg.image_size, cfg.image_size)


def _stack_forward(params, cfg, samples):
    """One untaped forward over the images of `samples`, as the evaluation
    engine runs each of its stacks."""
    return two_branch_forward(params, cfg, np.stack([image for image, _, _ in samples]))


@pytest.mark.parametrize("count", [1, 3, 4, 5, 9])
def test_forward_stacks_are_bit_identical_to_single_image_forwards(count):
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    samples = _acceptance_samples(count)
    # the engine's stacks: FORWARD_CHUNK images at a time, the last one shorter
    stacks = [_stack_forward(params, cfg, samples[start:start + FORWARD_CHUNK])
              for start in range(0, count, FORWARD_CHUNK)]
    p_cam = np.concatenate([nm.value_of(result.p_cam) for result in stacks])
    p_refine = np.concatenate([nm.value_of(result.p_refine) for result in stacks])
    labels = [label for _, label, _ in samples]
    heats = np.concatenate([class_heats(result.refined_map, result.cam_maps,
                                        labels[start:start + FORWARD_CHUNK], cfg.image_size)
                            for start, result in zip(range(0, count, FORWARD_CHUNK), stacks)])
    assert len(heats) == count
    assert np.array_equal(gt_heats(params, cfg, samples), heats)   # one stack of all
    for i, (image, label, _) in enumerate(samples):
        alone, heat = _single_image_heat(params, cfg, image, label)
        assert np.array_equal(p_cam[i], nm.value_of(alone.p_cam)[0])
        assert np.array_equal(p_refine[i], nm.value_of(alone.p_refine)[0])
        assert np.array_equal(heats[i], heat)


def test_class_heats_rows_equal_one_row_stacks():
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    samples = _acceptance_samples(5)
    stack = two_branch_forward(params, cfg, np.stack([image for image, _, _ in samples]))
    classes = [0, 1, 1, 0, 1]
    heats = class_heats(stack.refined_map, stack.cam_maps, classes, cfg.image_size)
    assert heats.shape == (5, cfg.image_size, cfg.image_size) and heats.dtype == np.float32
    for i, (image, _, _) in enumerate(samples):
        assert np.array_equal(heats[i], _single_image_heat(params, cfg, image, classes[i])[1])


def test_one_chunk_forward_stays_under_its_memory_budget():
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    samples = _acceptance_samples(FORWARD_CHUNK)
    tracemalloc.start()
    try:
        result = _stack_forward(params, cfg, samples)
        _ = result.refined_map
        _ = rescored(result, None).refined_map
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= CHUNK_FORWARD_BUDGET, f"one chunk's forward peaked at {peak} bytes"


# Labelling the 50 acceptance held-out heats over the default 19-theta
# grid, one stack of FORWARD_CHUNK heats per call, peaked at 1,921,440 B
# (tracemalloc) when this budget was set, with the pixel labeller
# (`ndimage.label`); the budget is that peak plus 15%. The run labeller
# peaks at 556,293 B (568,549 B traced through the engine from its first
# labelling call, its IoUs and metrics included), and one call over all
# 50 heats at 3,288,919 B (the pixel labeller: 10,160,682 B), so this
# still catches the table being labelled in one call again.
BOX_TABLE_BUDGET = 2_210_000


def test_box_table_labels_one_stack_at_a_time_under_its_memory_budget(monkeypatch):
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    samples = _acceptance_samples(50)
    thetas = threshold_grid(*DEFAULT_GRID)
    calls, real = [], localization.heat_boxes

    def tracing(heats, *args):
        # the heats are fused before the first call: trace from there, as a
        # labelling of heats already in memory
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        calls.append(len(heats))
        return real(heats, *args)

    monkeypatch.setattr(localization, "heat_boxes", tracing)
    try:
        (_, table, _), = evaluate_samples(params, cfg, samples, ["gt-known", "maxboxaccv2"],
                                          thetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == len(thetas)
    assert calls == [FORWARD_CHUNK] * 6 + [2]
    assert peak <= BOX_TABLE_BUDGET, f"labelling and scoring the box table peaked at {peak} B"
    # the budget tells the two apart: one call over every heat goes past it
    heats = gt_heats(params, cfg, samples)
    tracemalloc.start()
    try:
        heat_boxes(heats, thetas, cfg.image_size, cfg.image_size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak > BOX_TABLE_BUDGET, f"labelling all 50 heats in one call peaked at {peak} B"


# Growth of `evaluate_samples`' tracemalloc peak per sample, from 16 to 112
# acceptance held-out samples (seed 99, every third label flipped, so top-1
# misses). The passes keep each stack's CAM maps and each setting's
# token-grid scoring map, and the scoring keeps IoU rows. When these bounds
# were set, this test read about 1,180 B per sample for all four metrics
# and 2,320-2,350 B for four strategies in both modes (a fresh process:
# 1,045 B and 2,285 B from 48 to 400 samples); each bound is that plus
# about 50%. Keeping every setting's 32x32 heats until the last pass read
# 6,500 B and 20,820 B here.
PER_SAMPLE_GROWTH = {"all metrics": 1_800, "four strategies, both modes": 3_500}


@pytest.mark.parametrize("case", PER_SAMPLE_GROWTH)
def test_evaluation_memory_grows_by_token_grid_maps_per_sample(case):
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    small, large = 16, 112
    samples = [(image, 1 - label if i % 3 == 0 else label, boxes)
               for i, (image, label, boxes) in enumerate(_acceptance_samples(large))]
    thetas = threshold_grid(*DEFAULT_GRID)
    if case == "all metrics":
        kwargs = {"metrics": localization.METRIC_NAMES}
    else:
        kwargs = {"metrics": ("gt-known", "maxboxaccv2"), "modes": (True, False),
                  "selectors": (None, top_k(8), fixed("mean"), adaptive(0.5))}

    def peak(count):
        tracemalloc.start()
        try:
            evaluate_samples(params, cfg, samples[:count], thetas=thetas, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = (peak(large) - peak(small)) / (large - small)
    assert growth <= PER_SAMPLE_GROWTH[case], f"{growth:.0f} B per sample"
