"""Selection-strategy ablation harness tests."""

import numpy as np
import pytest

from tokenloc import numerics as nm
from tokenloc import ablation, pipeline
from tokenloc.ablation import parse_strategy, run_ablation
from tokenloc.backbone import ModelConfig, init_params
from tokenloc.errors import ContractError
from tokenloc.pipeline import two_branch_forward
from tokenloc.token_refine import adaptive, fixed, select, spatial_map, top_k

from test_localization import brightness_checkpoint, planted_image
from test_pipeline import ACCEPTANCE_CKPT
from tokenloc.formats import read_checkpoint
from tokenloc.localization import (
    class_heats,
    evaluate_heats,
    evaluate_samples,
    max_box_acc_v2,
    threshold_grid,
)
from tokenloc.training import ToyTaskConfig, make_dataset
from util import adaptive_row


def select_row(m, selector):
    """`select` on one (N,) priority row."""
    return select(m[None], selector)[0]


def test_parse_strategy_forms():
    m = np.array([[0.5, 0.3, 0.1, 0.1, 0.05, 0.2]], np.float32)
    assert parse_strategy("adaptive") == ("adaptive", None)   # the checkpoint's mass
    for text, label, selector in [("adaptive:0.8", "adaptive:0.8", adaptive(0.8)),
                                  ("topk:5", "topk:5", top_k(5)),
                                  ("fixed:0.25", "fixed:0.25", fixed(0.25)),
                                  ("fixed:0.123456789", "fixed:0.123457", fixed(0.123456789)),
                                  ("adaptive:0.123456789", "adaptive:0.123457",
                                   adaptive(0.123456789)),
                                  ("topk:05", "topk:5", top_k(5)),
                                  ("fixed:mean", "fixed:mean", fixed("mean"))]:
        parsed_label, parsed = parse_strategy(text)
        assert parsed_label == label
        assert np.array_equal(parsed(m), selector(m)), text
    with pytest.raises(ContractError):
        parse_strategy("topk")
    with pytest.raises(ContractError):
        parse_strategy("nonsense:1")


def test_strategy_validation():
    with pytest.raises(ContractError):
        adaptive(1.5)
    with pytest.raises(ContractError):
        top_k(0)
    with pytest.raises(ContractError):
        fixed(-0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ContractError):
            adaptive(bad)
        with pytest.raises(ContractError):
            fixed(bad)


def test_topk_full_selection():
    m = np.array([0.1, 0.4, 0.2, 0.3], np.float32)
    assert np.array_equal(select_row(m, top_k(4)), np.ones(4))


def test_fixed_zero_threshold_selects_all():
    m = np.array([0.1, 0.4, 0.2], np.float32)
    assert np.array_equal(select_row(m, fixed(0.0)), np.ones(3))


def test_fixed_above_max_falls_back_to_argmax():
    m = np.array([0.1, 0.4, 0.2], np.float32)
    assert np.array_equal(select_row(m, fixed(0.9)), [0, 1, 0])


def test_fixed_mean_threshold():
    m = np.array([0.5, 0.3, 0.1, 0.1], np.float32)
    mask = select_row(m, fixed("mean"))
    assert np.array_equal(mask, [1, 1, 0, 0])
    assert m[mask > 0].min() >= m.mean() > m[mask == 0].max()


def test_topk_matches_adaptive_on_shared_prefix():
    m = np.array([0.5, 0.3, 0.2], np.float32)
    topk_mask = select_row(m, top_k(2))
    adaptive_mask = select_row(m, adaptive(0.7))
    assert np.array_equal(topk_mask, [1, 1, 0])
    assert np.array_equal(topk_mask, adaptive_mask)


def test_topk_tie_breaks_by_lower_index():
    m = np.array([0.3, 0.5, 0.3, 0.1], np.float32)
    assert np.array_equal(select_row(m, top_k(2)), [1, 1, 0, 0])


def test_topk_exceeding_token_count_rejected():
    with pytest.raises(ContractError):
        select(np.ones((1, 3), np.float32), top_k(4))


def test_adaptive_uses_checkpoint_default_mass():
    cfg = ModelConfig(image_size=16, patch_size=4, embed_dim=8, num_blocks=2, num_heads=2,
                      num_classes=3, selection_mass=0.7)
    image = np.random.default_rng(3).random((1, 3, 16, 16)).astype(np.float32)
    _, selector = parse_strategy("adaptive")
    params = init_params(cfg, 2)
    first = two_branch_forward(params, cfg, image, selector=selector)
    m = first.priorities[0]
    tau_direct, mask_direct = adaptive_row(m, 0.7)
    assert m[first.mask[0] > 0].min() == tau_direct
    assert np.array_equal(first.mask[0], mask_direct)
    other = two_branch_forward(params, cfg, image, selector=top_k(1))
    assert np.array_equal(pipeline.rescored(other, selector).mask[0], mask_direct)


def _samples(count, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = int(rng.choice([8, 12]))
        x0 = int(rng.integers(0, (32 - size) // 4 + 1)) * 4
        y0 = int(rng.integers(0, (32 - size) // 4 + 1)) * 4
        out.append((planted_image(x0, y0, size), 0, np.array([[x0, y0, x0 + size, y0 + size]])))
    return out


def test_single_strategy_row_matches_grid_search():
    cfg, params = brightness_checkpoint()
    samples = _samples(4)
    thetas = threshold_grid(0.25, 0.65, 0.2)
    rows = run_ablation(params, cfg, samples, [parse_strategy("adaptive")],
                        modes=(True,), thetas=thetas)
    assert len(rows) == 1
    label, reatt, theta, gt_known, _ = rows[0]
    theta_direct, table, _ = evaluate_samples(params, cfg, samples, (), thetas)
    assert reatt is True
    assert theta == theta_direct
    assert gt_known == dict(table)[theta_direct]


def test_duplicate_strategies_give_identical_rows():
    cfg, params = brightness_checkpoint()
    samples = _samples(3)
    rows = run_ablation(params, cfg, samples, [parse_strategy("adaptive:0.5")] * 2,
                        modes=(True,), thetas=[0.3, 0.6])
    assert rows[0][2:] == rows[1][2:]


def test_adaptive_mass_sweep_selection_sizes_monotone():
    cfg, params = brightness_checkpoint()
    image = planted_image(8, 8, 12)
    result = two_branch_forward(params, cfg, image[None])
    m = result.priorities[0]
    sizes = [int(select_row(m, adaptive(u)).sum()) for u in (0.25, 0.45, 0.65, 0.85)]
    assert sizes == sorted(sizes)


def test_adaptive_mass_sweep_emits_one_row_each():
    cfg, params = brightness_checkpoint()
    samples = _samples(2)
    sweep = [parse_strategy(f"adaptive:{u}") for u in (0.25, 0.45, 0.65, 0.85)]
    rows = run_ablation(params, cfg, samples, sweep, modes=(True,), thetas=[0.45])
    assert [row[0] for row in rows] == ["adaptive:0.25", "adaptive:0.45", "adaptive:0.65",
                                        "adaptive:0.85"]


def test_adaptive_equals_topk_when_masses_align():
    rng = np.random.default_rng(12)
    m = rng.random(10).astype(np.float32)
    order = np.argsort(-m, kind="stable")
    k = 4
    mass = float(m.astype(np.float64)[order[:k]].sum() / m.astype(np.float64).sum())
    adaptive_mask = select_row(m, adaptive(mass))
    topk_mask = select_row(m, top_k(k))
    assert np.array_equal(adaptive_mask, topk_mask)


def test_reattention_flag_changes_only_refined_map(monkeypatch):
    from tokenloc import ablation
    from tokenloc.backbone import ModelConfig, init_params

    cfg = ModelConfig(image_size=16, patch_size=4, embed_dim=8, num_blocks=2,
                      num_heads=2, num_classes=3)
    params = init_params(cfg, 13)
    image = np.random.default_rng(14).random((3, 16, 16)).astype(np.float32)
    result = two_branch_forward(params, cfg, image[None])
    maps = []
    real_heats = ablation.class_heats

    def recording_heats(scoring_map, cam_maps, class_ids, side):
        maps.append((nm.value_of(scoring_map).copy(), nm.value_of(cam_maps).copy()))
        return real_heats(scoring_map, cam_maps, class_ids, side)

    monkeypatch.setattr(ablation, "class_heats", recording_heats)
    run_ablation(params, cfg, [(image, 0, np.array([[0, 0, 8, 8]]))],
                 [parse_strategy("adaptive")], thetas=[0.5])
    (on, on_cam), (off, off_cam) = maps
    assert np.array_equal(on_cam, nm.value_of(result.cam_maps))
    assert np.array_equal(off_cam, on_cam)
    assert np.array_equal(on, nm.value_of(result.refined_map))
    assert np.array_equal(off, spatial_map(result.priorities))
    assert np.array_equal(off.ravel(), result.priorities.ravel())
    assert not np.array_equal(on, off)


def test_run_ablation_covers_both_modes_by_default():
    cfg, params = brightness_checkpoint()
    samples = _samples(2)
    rows = run_ablation(params, cfg, samples, [parse_strategy("adaptive")],
                        thetas=[0.45])
    assert [(r[1]) for r in rows] == [True, False]


def test_zero_mass_rows_fall_back_alike_in_the_ablation_and_in_eval(monkeypatch):
    cfg, params = brightness_checkpoint()
    samples = _samples(3)
    masks = []
    weights = pipeline.importance_weights

    def zero_priorities(stack):
        b, _, _, n_plus_1 = nm.value_of(stack[0]).shape
        return np.zeros((b, n_plus_1 - 1), np.float32)

    def recording_weights(z_p, mask, *args):
        masks.append(mask.copy())
        return weights(z_p, mask, *args)

    monkeypatch.setattr(pipeline, "preliminary_attention", zero_priorities)
    monkeypatch.setattr(pipeline, "importance_weights", recording_weights)
    thetas = threshold_grid(0.25, 0.65, 0.2)
    rows = run_ablation(params, cfg, samples, [parse_strategy("adaptive")],
                        modes=(True,), thetas=thetas)
    ablation_masks = np.concatenate(masks)
    masks.clear()
    theta, _, results = evaluate_samples(params, cfg, samples, ["gt-known"], thetas)
    # both select the argmax token, the first one of an all-zero row
    one_hot = np.eye(cfg.num_tokens, dtype=np.float32)[[0] * len(samples)]
    assert np.array_equal(ablation_masks, one_hot)
    assert np.array_equal(np.concatenate(masks), one_hot)
    assert rows[0][2:4] == (theta, results["gt-known"])


def test_both_modes_run_the_mask_block_once_per_strategy_per_stack(monkeypatch):
    cfg, params = brightness_checkpoint()
    samples = _samples(pipeline.FORWARD_CHUNK + 1)
    calls = []
    weights = pipeline.importance_weights

    def counting_weights(z_p, *args):
        calls.append(len(nm.value_of(z_p)))
        return weights(z_p, *args)

    monkeypatch.setattr(pipeline, "importance_weights", counting_weights)
    strategies = [parse_strategy(text) for text in ("adaptive", "topk:4")]
    rows = run_ablation(params, cfg, samples, strategies, thetas=[0.45])
    assert len(rows) == 4
    # two stacks (8 images and 1), each through the mask block once per strategy
    assert calls == [pipeline.FORWARD_CHUNK, pipeline.FORWARD_CHUNK, 1, 1]


def test_both_mode_rows_equal_the_on_and_off_runs_in_order(monkeypatch):
    cfg, params = brightness_checkpoint()
    samples = _samples(5)
    strategies = [parse_strategy(text)
                  for text in ("adaptive", "fixed:mean", "topk:4", "adaptive")]
    thetas = threshold_grid(0.25, 0.65, 0.2)
    calls = []
    weights = pipeline.importance_weights

    def counting_weights(*args):
        calls.append(len(nm.value_of(args[0])))
        return weights(*args)

    monkeypatch.setattr(pipeline, "importance_weights", counting_weights)
    both = run_ablation(params, cfg, samples, strategies, thetas=thetas)
    assert calls == [len(samples)] * len(strategies)   # one stack of 5, once per strategy
    calls.clear()
    labelled, scored = [], []
    for name, log in (("class_heats", labelled), ("evaluate_heats", scored)):
        real = getattr(ablation, name)
        monkeypatch.setattr(ablation, name, lambda *args, log=log, real=real:
                            log.append(1) or real(*args))
    on = run_ablation(params, cfg, samples, strategies, modes=(True,), thetas=thetas)
    assert calls == [len(samples)] * len(strategies)
    # on alone labels and scores no off-mode heats
    assert len(labelled) == len(scored) == len(strategies)
    calls.clear()
    off = run_ablation(params, cfg, samples, strategies, modes=(False,), thetas=thetas)
    # off alone scores the priority map and runs no mask block
    assert calls == []
    assert [row[:2] for row in both] == [(label, mode) for label, _ in strategies
                                        for mode in (True, False)]
    assert both == [row for pair in zip(on, off) for row in pair]
    # the priority map that off scores does not depend on the selector
    assert len({row[2:] for row in off}) == 1


def test_later_strategies_reuse_the_first_pass_cam_and_keep_their_rows(monkeypatch):
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    samples = make_dataset(ToyTaskConfig(samples_per_epoch=pipeline.FORWARD_CHUNK + 1, seed=99))
    strategies = [parse_strategy(text)
                  for text in ("adaptive", "fixed:mean", "topk:20")]
    thetas, side = threshold_grid(0.25, 0.65, 0.1), cfg.image_size
    # the reference: each strategy on its own backbone and CAM pass
    want = []
    for label, selector in strategies:
        for reatt in (True, False):
            heats = []
            for labels, result in pipeline.forward_chunks(params, cfg, samples, selector=selector):
                scoring = result.refined_map if reatt else spatial_map(result.priorities)
                heats.extend(class_heats(scoring, result.cam_maps, labels, side))
            _, ious, table, theta, _ = evaluate_heats(heats, [gt for _, _, gt in samples],
                                                      thetas, side)
            want.append((label, reatt, theta, dict(table)[theta], max_box_acc_v2(ious)))
    calls = []
    cam = pipeline.cam_forward

    def counting_cam(z_p, *args):
        calls.append(len(nm.value_of(z_p)))
        return cam(z_p, *args)

    monkeypatch.setattr(pipeline, "cam_forward", counting_cam)
    assert run_ablation(params, cfg, samples, strategies, thetas=thetas) == want
    # two stacks (8 images and 1), each through the CAM branch once
    assert calls == [pipeline.FORWARD_CHUNK, 1]
