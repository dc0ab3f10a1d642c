"""Token-selection strategy comparison harness.

Runs inference with adaptive, top-k or fixed-threshold selection, with
re-attention on and off, on a fixed checkpoint (no per-strategy
retraining) and reports ground-truth-known accuracy plus MaxBoxAccV2,
each at its own grid-calibrated threshold.
"""

from __future__ import annotations

from .backbone import ModelConfig
from .errors import ContractError
from .localization import DEFAULT_GRID, class_heats, evaluate_heats, max_box_acc_v2, threshold_grid
from .pipeline import branch_forward, forward_chunks
from .token_refine import adaptive, fixed, top_k


def parse_strategy(text: str, default_mass: float) -> tuple:
    """Parse a CLI form, adaptive[:u], topk:<k> or fixed:<t|mean>, into
    (label, selector); a bare `adaptive` selects at `default_mass`."""
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "adaptive":
        if not arg:
            return "adaptive", adaptive(default_mass)
        mass = float(arg)
        return f"adaptive:{mass:g}", adaptive(mass)
    if kind == "topk":
        if not arg:
            raise ContractError("topk strategy needs a k value, e.g. topk:8")
        k = int(arg)
        return f"topk:{k}", top_k(k)
    if kind == "fixed":
        if not arg:
            raise ContractError("fixed strategy needs a threshold, e.g. fixed:0.01 or fixed:mean")
        if arg == "mean":
            return "fixed:mean", fixed("mean")
        tau = float(arg)
        return f"fixed:{tau:g}", fixed(tau)
    raise ContractError(f"unknown selection strategy {kind!r}")


def run_ablation(params, cfg: ModelConfig, samples, strategies, *,
                 reattention_on=None, grid=None):
    """Evaluate each (label, selector) strategy (optionally restricted to
    one re-attention setting; default covers on and off) on the given
    samples.

    Returns rows of (strategy label, reattention flag, theta_star,
    gt_known accuracy, max_box_acc_v2).
    """
    if not strategies:
        raise ContractError("ablation needs at least one strategy")
    modes = (True, False) if reattention_on is None else (bool(reattention_on),)
    settings = [(label, selector, reatt) for label, selector in strategies for reatt in modes]
    thetas = threshold_grid(*(grid or DEFAULT_GRID))
    side = cfg.image_size
    heats = [[] for _ in settings]
    (_, first_selector, first_reatt), later = settings[0], settings[1:]
    for labels, result in forward_chunks(params, cfg, samples, selector=first_selector,
                                         reattention_on=first_reatt):
        heats[0].extend(class_heats(result, labels, side))
        # one backbone pass per stack: later settings re-run only the branches
        for setting_heats, (_, selector, reatt) in zip(heats[1:], later):
            branches = branch_forward(params, cfg, result.tokens, result.stack,
                                      selector=selector, reattention_on=reatt)
            setting_heats.extend(class_heats(branches, labels, side))
    gts = [gt for _, _, gt in samples]
    rows = []
    for setting_heats, (label, _, reatt) in zip(heats, settings):
        _, ious, table, theta_star, _ = evaluate_heats(setting_heats, gts, thetas, side)
        rows.append((label, reatt, theta_star, dict(table)[theta_star], max_box_acc_v2(ious)))
    return rows
