"""Token-selection strategy comparison harness.

Runs inference with adaptive, top-k or fixed-threshold selection, with
re-attention on and off, on a fixed checkpoint (no per-strategy
retraining) and reports ground-truth-known accuracy plus MaxBoxAccV2,
each at its own grid-calibrated threshold.
"""

from __future__ import annotations

from .backbone import ModelConfig
from .errors import ContractError
from .localization import (
    DEFAULT_GRID,
    best_threshold,
    box_table,
    class_heats,
    gt_known_table,
    max_box_acc_v2_over_grid,
    threshold_grid,
)
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
    if not samples:
        raise ContractError("ablation needs a non-empty manifest")
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
    rows = []
    for setting_heats, (label, _, reatt) in zip(heats, settings):
        boxes = box_table(setting_heats, thetas, side, side)
        table = gt_known_table(boxes, samples, thetas)
        theta_star = best_threshold(table)
        gt_known = dict(table)[theta_star]
        mbav2 = max_box_acc_v2_over_grid(boxes, samples)
        rows.append((label, reatt, theta_star, gt_known, mbav2))
    return rows
