"""Selection-strategy ablation harness tests."""

import numpy as np
import pytest

from tokenloc import numerics as nm
from tokenloc import pipeline
from tokenloc.ablation import parse_strategy, run_ablation
from tokenloc.cli import evaluate_samples
from tokenloc.errors import ContractError
from tokenloc.pipeline import two_branch_forward
from tokenloc.token_refine import adaptive, adaptive_select, fixed, select, top_k

from test_localization import brightness_checkpoint, planted_image
from tokenloc.localization import grid_search_threshold, threshold_grid


def test_parse_strategy_forms():
    m = np.array([0.5, 0.3, 0.1, 0.1, 0.05, 0.2], np.float32)
    for text, label, selector in [("adaptive", "adaptive", adaptive(0.65)),
                                  ("adaptive:0.8", "adaptive:0.8", adaptive(0.8)),
                                  ("topk:5", "topk:5", top_k(5)),
                                  ("fixed:0.25", "fixed:0.25", fixed(0.25)),
                                  ("fixed:0.123456789", "fixed:0.123457", fixed(0.123456789)),
                                  ("adaptive:0.123456789", "adaptive:0.123457",
                                   adaptive(0.123456789)),
                                  ("topk:05", "topk:5", top_k(5)),
                                  ("fixed:mean", "fixed:mean", fixed("mean"))]:
        parsed_label, parsed = parse_strategy(text, 0.65)
        assert parsed_label == label
        (tau, mask), (tau_direct, mask_direct) = parsed(m), selector(m)
        assert tau == tau_direct and np.array_equal(mask, mask_direct), text
    with pytest.raises(ContractError):
        parse_strategy("topk", 0.65)
    with pytest.raises(ContractError):
        parse_strategy("nonsense:1", 0.65)


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
    _, mask = select(m, top_k(4))
    assert np.array_equal(mask, np.ones(4))


def test_fixed_zero_threshold_selects_all():
    m = np.array([0.1, 0.4, 0.2], np.float32)
    tau, mask = select(m, fixed(0.0))
    assert tau == 0.0
    assert np.array_equal(mask, np.ones(3))


def test_fixed_above_max_falls_back_to_argmax():
    m = np.array([0.1, 0.4, 0.2], np.float32)
    _, mask = select(m, fixed(0.9))
    assert np.array_equal(mask, [0, 1, 0])


def test_fixed_mean_threshold():
    m = np.array([0.5, 0.3, 0.1, 0.1], np.float32)
    tau, mask = select(m, fixed("mean"))
    assert tau == pytest.approx(float(m.mean()))
    assert np.array_equal(mask, [1, 1, 0, 0])


def test_topk_matches_adaptive_on_shared_prefix():
    m = np.array([0.5, 0.3, 0.2], np.float32)
    _, topk_mask = select(m, top_k(2))
    _, adaptive_mask = select(m, adaptive(0.7))
    assert np.array_equal(topk_mask, [1, 1, 0])
    assert np.array_equal(topk_mask, adaptive_mask)


def test_topk_tie_breaks_by_lower_index():
    m = np.array([0.3, 0.5, 0.3, 0.1], np.float32)
    _, mask = select(m, top_k(2))
    assert np.array_equal(mask, [1, 1, 0, 0])


def test_topk_exceeding_token_count_rejected():
    with pytest.raises(ContractError):
        select(np.ones(3, np.float32), top_k(4))


def test_adaptive_uses_checkpoint_default_mass():
    m = np.array([0.5, 0.3, 0.2], np.float32)
    tau_default, mask_default = select(m, parse_strategy("adaptive", 0.7)[1])
    tau_direct, mask_direct = adaptive_select(m, 0.7)
    assert tau_default == tau_direct
    assert np.array_equal(mask_default, mask_direct)


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
    grid = (0.25, 0.65, 0.2)
    rows = run_ablation(params, cfg, samples, [parse_strategy("adaptive", cfg.selection_mass)],
                        reattention_on=True, grid=grid)
    assert len(rows) == 1
    label, reatt, theta, gt_known, _ = rows[0]
    theta_direct, table = grid_search_threshold(params, cfg, samples, grid=grid)
    assert reatt is True
    assert theta == theta_direct
    assert gt_known == dict(table)[theta_direct]


def test_duplicate_strategies_give_identical_rows():
    cfg, params = brightness_checkpoint()
    samples = _samples(3)
    rows = run_ablation(params, cfg, samples, [parse_strategy("adaptive:0.5", 0.65)] * 2,
                        reattention_on=True, grid=(0.3, 0.6, 0.3))
    assert rows[0][2:] == rows[1][2:]


def test_adaptive_mass_sweep_selection_sizes_monotone():
    cfg, params = brightness_checkpoint()
    image = planted_image(8, 8, 12)
    result = two_branch_forward(params, cfg, image[None])
    m = result.selection.priorities[0]
    sizes = []
    for u in (0.25, 0.45, 0.65, 0.85):
        _, mask = select(m, adaptive(u))
        sizes.append(int(mask.sum()))
    assert sizes == sorted(sizes)


def test_adaptive_mass_sweep_emits_one_row_each():
    cfg, params = brightness_checkpoint()
    samples = _samples(2)
    sweep = [parse_strategy(f"adaptive:{u}", 0.65) for u in (0.25, 0.45, 0.65, 0.85)]
    rows = run_ablation(params, cfg, samples, sweep, reattention_on=True,
                        grid=(0.45, 0.45, 0.1))
    assert [row[0] for row in rows] == ["adaptive:0.25", "adaptive:0.45", "adaptive:0.65",
                                        "adaptive:0.85"]


def test_adaptive_equals_topk_when_masses_align():
    rng = np.random.default_rng(12)
    m = rng.random(10).astype(np.float32)
    order = np.argsort(-m, kind="stable")
    k = 4
    mass = float(m.astype(np.float64)[order[:k]].sum() / m.astype(np.float64).sum())
    _, adaptive_mask = select(m, adaptive(mass))
    _, topk_mask = select(m, top_k(k))
    assert np.array_equal(adaptive_mask, topk_mask)


def test_reattention_flag_changes_only_refined_map():
    from tokenloc.backbone import ModelConfig, init_params

    cfg = ModelConfig(image_size=16, patch_size=4, embed_dim=8, num_blocks=2,
                      num_heads=2, num_classes=3)
    params = init_params(cfg, 13)
    image = np.random.default_rng(14).random((1, 3, 16, 16)).astype(np.float32)
    on = two_branch_forward(params, cfg, image, reattention_on=True)
    off = two_branch_forward(params, cfg, image, reattention_on=False)
    assert np.array_equal(nm.value_of(on.cam_maps), nm.value_of(off.cam_maps))
    assert np.array_equal(nm.value_of(on.p_cam), nm.value_of(off.p_cam))
    assert np.array_equal(nm.value_of(off.refined_map).ravel(), off.selection.priorities.ravel())
    assert not np.array_equal(nm.value_of(on.refined_map), nm.value_of(off.refined_map))


def test_run_ablation_covers_both_modes_by_default():
    cfg, params = brightness_checkpoint()
    samples = _samples(2)
    rows = run_ablation(params, cfg, samples, [parse_strategy("adaptive", cfg.selection_mass)],
                        grid=(0.45, 0.45, 0.1))
    assert [(r[1]) for r in rows] == [True, False]


def test_zero_mass_rows_fall_back_alike_in_the_ablation_and_in_eval(monkeypatch):
    cfg, params = brightness_checkpoint()
    samples = _samples(3)
    masks = []
    weights = pipeline.importance_weights

    def zero_priorities(stack):
        b, _, _, n_plus_1 = nm.value_of(stack[0]).shape
        return np.zeros((b, n_plus_1 - 1), np.float32)

    def recording_weights(z_p, selection, *args):
        masks.append(selection.mask.copy())
        return weights(z_p, selection, *args)

    monkeypatch.setattr(pipeline, "preliminary_attention", zero_priorities)
    monkeypatch.setattr(pipeline, "importance_weights", recording_weights)
    grid = (0.25, 0.65, 0.2)
    rows = run_ablation(params, cfg, samples, [parse_strategy("adaptive", cfg.selection_mass)],
                        reattention_on=True, grid=grid)
    ablation_masks = np.concatenate(masks)
    masks.clear()
    theta, results = evaluate_samples(params, cfg, samples, ["gt-known"], threshold_grid(*grid))
    # both select the argmax token, the first one of an all-zero row
    one_hot = np.eye(cfg.num_tokens, dtype=np.float32)[[0] * len(samples)]
    assert np.array_equal(ablation_masks, one_hot)
    assert np.array_equal(np.concatenate(masks), one_hot)
    assert rows[0][2:4] == (theta, results["gt-known"])
