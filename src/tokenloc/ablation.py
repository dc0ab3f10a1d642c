"""Token-selection strategy comparison harness.

Runs inference with adaptive, top-k or fixed-threshold selection, with
re-attention on and off, on a fixed checkpoint (no per-strategy
retraining) and reports ground-truth-known accuracy plus MaxBoxAccV2,
each at its own grid-calibrated threshold. The strategies share each
stack's backbone, priority and CAM pass; re-attention off reads the
priority vector, which no selector changes, so it is scored once for all
and runs no mask block.
"""

from __future__ import annotations

from .backbone import ModelConfig
from .errors import ContractError
from .localization import class_heats, evaluate_heats, max_box_acc_v2
from .pipeline import forward_chunks, rescored
from .token_refine import adaptive, fixed, spatial_map, top_k


def _strategy_number(text: str, arg: str, convert):
    try:
        return convert(arg)
    except ValueError:
        what = "an integer" if convert is int else "a number"
        raise ContractError(f"strategy {text!r}: {arg!r} is not {what}") from None


def parse_strategy(text: str) -> tuple:
    """Parse a CLI form, adaptive[:u], topk:<k> or fixed:<t|mean>, into
    (label, selector); a bare `adaptive` has selector None, which selects
    at the checkpoint's own mass as in `pipeline.two_branch_forward`."""
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "adaptive":
        if not arg:
            return "adaptive", None
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


def run_ablation(params, cfg: ModelConfig, samples, strategies, *, thetas,
                 modes=(True, False)):
    """Evaluate each (label, selector) strategy on the given samples under
    each re-attention mode of `modes` (True on, False off), each row at its
    own best threshold of `thetas`.

    Returns rows of (strategy label, reattention flag, theta_star,
    gt_known accuracy, max_box_acc_v2), strategy-major, in the order of
    `modes`. Re-attention off scores the priority map, which no selector
    changes, so its heats are labelled once and its row repeats under
    every strategy; the strategies run their mask block, and later ones
    their selection, only when re-attention is on.
    """
    if not strategies:
        raise ContractError("ablation needs at least one strategy")
    side = cfg.image_size
    on_heats = {i: [] for i in range(len(strategies))} if True in modes else {}
    off_heats = []
    for labels, first in forward_chunks(params, cfg, samples, selector=strategies[0][1]):
        for i, setting_heats in on_heats.items():
            # one backbone, priority and CAM pass per stack: later strategies re-run
            # only the selection and the mask block
            result = first if i == 0 else rescored(first, strategies[i][1])
            setting_heats.extend(class_heats(result.refined_map, first.cam_maps, labels, side))
        if False in modes:
            off_heats.extend(class_heats(spatial_map(first.priorities), first.cam_maps, labels,
                                         side))
    gts = [gt for _, _, gt in samples]

    def score(setting_heats):
        _, ious, table, theta_star, _ = evaluate_heats(setting_heats, gts, thetas, side)
        return theta_star, dict(table)[theta_star], max_box_acc_v2(ious)

    scores = {i: score(setting_heats) for i, setting_heats in on_heats.items()}
    if False in modes:
        scores["off"] = score(off_heats)
    return [(label, reatt, *scores[i if reatt else "off"])
            for i, (label, _) in enumerate(strategies) for reatt in modes]
