"""Token-selection strategy comparison harness.

Runs inference with adaptive, top-k or fixed-threshold selection, with
re-attention on and off, on a fixed checkpoint (no per-strategy
retraining) and reports ground-truth-known accuracy plus MaxBoxAccV2,
each at its own grid-calibrated threshold. One branch pass per strategy
serves both modes: re-attention off reads the pass's priority vector.
"""

from __future__ import annotations

from .backbone import ModelConfig
from .errors import ContractError
from .localization import DEFAULT_GRID, class_heats, evaluate_heats, max_box_acc_v2, threshold_grid
from .pipeline import branch_forward, forward_chunks
from .token_refine import adaptive, fixed, spatial_map, top_k


def _strategy_number(text: str, arg: str, convert):
    try:
        return convert(arg)
    except ValueError:
        what = "an integer" if convert is int else "a number"
        raise ContractError(f"strategy {text!r}: {arg!r} is not {what}") from None


def parse_strategy(text: str, default_mass: float) -> tuple:
    """Parse a CLI form, adaptive[:u], topk:<k> or fixed:<t|mean>, into
    (label, selector); a bare `adaptive` selects at `default_mass`."""
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "adaptive":
        if not arg:
            return "adaptive", adaptive(default_mass)
        mass = _strategy_number(text, arg, float)
        return f"adaptive:{mass:g}", adaptive(mass)
    if kind == "topk":
        if not arg:
            raise ContractError("topk strategy needs a k value, e.g. topk:8")
        k = _strategy_number(text, arg, int)
        return f"topk:{k}", top_k(k)
    if kind == "fixed":
        if not arg:
            raise ContractError("fixed strategy needs a threshold, e.g. fixed:0.01 or fixed:mean")
        if arg == "mean":
            return "fixed:mean", fixed("mean")
        tau = _strategy_number(text, arg, float)
        return f"fixed:{tau:g}", fixed(tau)
    raise ContractError(f"unknown selection strategy {kind!r}")


def run_ablation(params, cfg: ModelConfig, samples, strategies, *,
                 reattention_on=None, grid=None):
    """Evaluate each (label, selector) strategy (optionally restricted to
    one re-attention setting; default covers on and off) on the given
    samples.

    Returns rows of (strategy label, reattention flag, theta_star,
    gt_known accuracy, max_box_acc_v2), strategy-major, on before off.
    """
    if not strategies:
        raise ContractError("ablation needs at least one strategy")
    modes = (True, False) if reattention_on is None else (bool(reattention_on),)
    thetas = threshold_grid(*(grid or DEFAULT_GRID))
    side = cfg.image_size
    heats = {(i, reatt): [] for i in range(len(strategies)) for reatt in modes}
    for labels, first in forward_chunks(params, cfg, samples, selector=strategies[0][1]):
        for i, (_, selector) in enumerate(strategies):
            # one backbone and CAM pass per stack: later strategies re-run only the
            # scoring branch
            result = first if i == 0 else branch_forward(params, cfg, first.tokens, first.stack,
                                                         selector=selector)
            for reatt in modes:
                scoring = result.refined_map if reatt else spatial_map(result.priorities)
                heats[i, reatt].extend(class_heats(scoring, first.cam_maps, labels, side))
    gts = [gt for _, _, gt in samples]
    rows = []
    for (i, reatt), setting_heats in heats.items():
        _, ious, table, theta_star, _ = evaluate_heats(setting_heats, gts, thetas, side)
        rows.append((strategies[i][0], reatt, theta_star, dict(table)[theta_star],
                     max_box_acc_v2(ious)))
    return rows
