"""Token-selection strategy comparison harness.

Runs inference with adaptive, top-k or fixed-threshold selection, with
re-attention on and off, on a fixed checkpoint (no per-strategy
retraining) and reports ground-truth-known accuracy plus MaxBoxAccV2,
each at its own grid-calibrated threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from .token_refine import adaptive_select


@dataclass(frozen=True)
class StrategySpec:
    """kind: adaptive (parameter = mass u, None = checkpoint default),
    topk (parameter = k) or fixed (parameter = threshold, or "mean" for
    the per-image mean of the priority vector)."""

    kind: str
    parameter: object = None

    def __post_init__(self):
        if self.kind not in ("adaptive", "topk", "fixed"):
            raise ContractError(f"unknown selection strategy {self.kind!r}")
        if self.kind == "adaptive" and self.parameter is not None:
            if not 0.0 < float(self.parameter) <= 1.0:
                raise ContractError(f"adaptive mass must be in (0, 1], got {self.parameter}")
        if self.kind == "topk":
            if self.parameter is None or int(self.parameter) < 1:
                raise ContractError(f"topk needs k >= 1, got {self.parameter}")
        if self.kind == "fixed" and self.parameter != "mean":
            if self.parameter is None or float(self.parameter) < 0.0:
                raise ContractError(f"fixed threshold must be >= 0, got {self.parameter}")

    def label(self) -> str:
        if self.kind == "adaptive":
            return "adaptive" if self.parameter is None else f"adaptive:{self.parameter:g}"
        if self.kind == "topk":
            return f"topk:{int(self.parameter)}"
        return f"fixed:{self.parameter}" if self.parameter == "mean" else f"fixed:{float(self.parameter):g}"


def parse_strategy(text: str) -> StrategySpec:
    """Parse CLI forms: adaptive[:u], topk:<k>, fixed:<t|mean>."""
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "adaptive":
        return StrategySpec("adaptive", float(arg) if arg else None)
    if kind == "topk":
        if not arg:
            raise ContractError("topk strategy needs a k value, e.g. topk:8")
        return StrategySpec("topk", int(arg))
    if kind == "fixed":
        if not arg:
            raise ContractError("fixed strategy needs a threshold, e.g. fixed:0.01 or fixed:mean")
        return StrategySpec("fixed", "mean" if arg == "mean" else float(arg))
    raise ContractError(f"unknown selection strategy {kind!r}")


def select_with_strategy(priorities: np.ndarray, spec: StrategySpec, default_mass: float):
    """Apply one selection rule to a priority vector, returning
    (effective threshold, binary mask). Empty selections fall back to the
    argmax token."""
    m = np.asarray(priorities, dtype=np.float32)
    if spec.kind == "adaptive":
        mass = default_mass if spec.parameter is None else float(spec.parameter)
        return adaptive_select(m, mass)
    if spec.kind == "topk":
        k = int(spec.parameter)
        if k > m.size:
            raise ContractError(f"topk k={k} exceeds {m.size} tokens")
        order = np.argsort(-m, kind="stable")
        mask = np.zeros(m.shape, dtype=np.float32)
        mask[order[:k]] = 1.0
        return float(m[order[k - 1]]), mask
    tau = float(m.mean()) if spec.parameter == "mean" else float(spec.parameter)
    mask = (m >= tau).astype(np.float32)
    if mask.sum() == 0:
        mask[int(np.argmax(m))] = 1.0
    return tau, mask


def _strategy_selector(spec: StrategySpec, default_mass: float):
    return lambda m: select_with_strategy(m, spec, default_mass)


def run_ablation(params, cfg: ModelConfig, samples, strategies, *,
                 reattention_on=None, grid=None):
    """Evaluate each strategy (optionally restricted to one re-attention
    setting; default covers on and off) on the given samples.

    Returns rows of (strategy label, reattention flag, theta_star,
    gt_known accuracy, max_box_acc_v2).
    """
    if not samples:
        raise ContractError("ablation needs a non-empty manifest")
    if not strategies:
        raise ContractError("ablation needs at least one strategy")
    modes = (True, False) if reattention_on is None else (bool(reattention_on),)
    settings = [(spec, _strategy_selector(spec, cfg.selection_mass), reatt)
                for spec in strategies for reatt in modes]
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
    for setting_heats, (spec, _, reatt) in zip(heats, settings):
        boxes = box_table(setting_heats, thetas, side, side)
        table = gt_known_table(boxes, samples, thetas)
        theta_star = best_threshold(table)
        gt_known = dict(table)[theta_star]
        mbav2 = max_box_acc_v2_over_grid(boxes, samples)
        rows.append((spec.label(), reatt, theta_star, gt_known, mbav2))
    return rows
