"""Command-line interface.

Exit codes: 0 success, 2 usage, 3 format/IO failure, 4 contract
violation. Every failure writes a single line to stderr of the form
`error: <kind>: <detail>`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import typing
from pathlib import Path

import numpy as np

from . import numerics as nm
from .ablation import parse_strategy, run_ablation
from .errors import ContractError, DegenerateInputError, DimensionError, FormatError
from .formats import (
    load_samples,
    parse_manifest,
    read_checkpoint,
    read_image,
    read_tensor,
    write_checkpoint,
    write_heatmap,
    write_tensor,
)
from .localization import (
    DEFAULT_GRID,
    best_ious,
    class_heats,
    evaluate_heats,
    grid_search_threshold,
    heat_boxes,
    localize,
    max_box_acc_v2,
    threshold_grid,
    top_k_loc_acc,
)
from .pipeline import forward_chunks, two_branch_forward
from .token_refine import adaptive
from .training import ToyTaskConfig, TrainConfig, default_model_config, train_toy

METRIC_NAMES = ("gt-known", "top1", "top5", "maxboxaccv2")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_grid(text: str) -> tuple:
    if text == "grid":
        return DEFAULT_GRID
    parts = text.split(":")
    if parts[0] == "grid":
        parts = parts[1:]
    if len(parts) != 3:
        raise ContractError(f"grid must be start:stop:step, got {text!r}")
    return tuple(float(p) for p in parts)


def _selector(args):
    """The adaptive selector at `--u`; None leaves the checkpoint's mass."""
    return None if args.u is None else adaptive(args.u)


def evaluate_samples(params, cfg, samples, metrics, thetas, *, selector=None):
    """Shared engine behind `eval`: returns (theta_star, {metric: value}).

    theta_star maximises GT-known accuracy over `thetas` (a fixed
    threshold is a grid of one) and the class-aware metrics are computed
    there; maxboxaccv2 takes each IoU level's own best threshold. The
    images go through the forward pass once each, in stacks of
    `pipeline.FORWARD_CHUNK`, and `evaluate_heats` boxes and scores the
    GT-class heats. A predicted-class heat is fused only where the
    top-ranked class is not the GT class, and all of them are labelled at
    theta_star in one call. Classes rank by CAM-branch probability, ties
    by id.
    """
    side = cfg.image_size
    ranked_metrics = any(m in metrics for m in ("top1", "top5"))
    ranks, heats_gt, pred_rows, heats_pred = [], [], [], []
    for labels, result in forward_chunks(params, cfg, samples, selector=selector):
        order = np.argsort(-nm.value_of(result.p_cam), axis=1, kind="stable")
        heats_gt.extend(class_heats(result, labels, side))
        # a predicted-class heat is needed only where that class is not the GT class
        differ = np.flatnonzero(order[:, 0] != labels)
        if ranked_metrics and differ.size:
            heats_pred.extend(class_heats(result, order[differ, 0], side, rows=differ))
            pred_rows.extend(len(ranks) + differ)
        ranks.extend((order == np.array(labels)[:, None]).argmax(axis=1))
    boxes, ious, table, theta_star, gt = evaluate_heats(heats_gt, [g for _, _, g in samples],
                                                        thetas, side)
    if ranked_metrics:
        # where the top-ranked class is the GT class, its box is already in the table
        top_boxes = boxes[:, thetas.index(theta_star)].copy()
        if heats_pred:
            top_boxes[pred_rows] = heat_boxes(heats_pred, [theta_star], side, side)[0][:, 0]
        top_ious = best_ious(top_boxes[:, None], gt)[:, 0]
    results = {}
    for metric in metrics:
        if metric == "gt-known":
            results[metric] = dict(table)[theta_star]
        elif metric == "maxboxaccv2":
            results[metric] = max_box_acc_v2(ious)
        else:
            results[metric] = top_k_loc_acc(top_ious, ranks, {"top1": 1, "top5": 5}[metric])
    return theta_star, results


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_manifest_samples(path):
    records = parse_manifest(path)
    if not records:
        raise ContractError(f"manifest {path} is empty")
    return load_samples(records)


def cmd_infer(args):
    cfg, params = read_checkpoint(args.ckpt)
    image = read_image(args.input)
    result = two_branch_forward(params, cfg, image[None], selector=_selector(args))
    write_tensor(args.out_logits, nm.value_of(result.p_cam)[0])
    write_tensor(args.out_pt, nm.value_of(result.p_refine)[0])
    return 0


def cmd_localize(args):
    cfg, params = read_checkpoint(args.ckpt)
    image = read_image(args.input)
    class_id = "predicted" if args.class_id == "auto" else int(args.class_id)
    heat, box, _, empty = localize(params, cfg, image, class_id, theta=args.theta,
                                   selector=_selector(args))
    Path(args.out_box).write_text(" ".join(map(str, box.tolist())) + "\n", encoding="ascii")
    if args.out_map:
        write_tensor(args.out_map, heat)
    if empty:
        print("warning: empty foreground, emitted the full-image box", file=sys.stderr)
    return 0


def cmd_eval(args):
    cfg, params = read_checkpoint(args.ckpt)
    samples = _load_manifest_samples(args.manifest)
    metrics = [m.strip() for m in args.metrics.split(",")]
    for metric in metrics:
        if metric not in METRIC_NAMES:
            raise ContractError(f"unknown metric {metric!r}, expected one of {METRIC_NAMES}")
    if len(set(metrics)) < len(metrics):
        raise ContractError(f"--metrics {args.metrics!r} names a metric more than once")
    thetas = (threshold_grid(*_parse_grid(args.theta)) if args.theta.startswith("grid")
              else [float(args.theta)])
    theta_star, results = evaluate_samples(params, cfg, samples, metrics, thetas,
                                           selector=_selector(args))
    rows = [(metric, repr(results[metric])) for metric in metrics]
    rows.append(("theta", repr(theta_star)))
    _write_csv(args.out_report, ("metric", "value"), rows)
    return 0


def cmd_calibrate(args):
    cfg, params = read_checkpoint(args.ckpt)
    samples = _load_manifest_samples(args.manifest)
    theta_star, table = grid_search_threshold(params, cfg, samples, grid=_parse_grid(args.grid),
                                              selector=_selector(args))
    _write_csv(args.out_table, ("theta", "gt_known"),
               [(repr(theta), repr(acc)) for theta, acc in table])
    print(f"theta_star={theta_star!r}")
    return 0


# JSON types each dataclass field type accepts; bool is an int subclass, not a number here
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _config_from_json(base, payload, where):
    """Config dataclass `base` with the fields of a JSON object put over
    it, checking each field's JSON type first."""
    for name, kind in typing.get_type_hints(type(base)).items():
        types, what = _JSON_TYPES[kind]
        value = payload.get(name)
        if name in payload and (isinstance(value, bool) or not isinstance(value, types)):
            raise ContractError(f"{where}: field {name!r} must be {what}, got {value!r}")
    try:
        return dataclasses.replace(base, **payload)
    except (TypeError, ContractError) as exc:
        raise ContractError(f"{where}: {exc}") from exc


def _read_json_object(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return payload


def cmd_train_toy(args):
    toy = _config_from_json(ToyTaskConfig(), _read_json_object(args.toy_config), args.toy_config)
    sections = _read_json_object(args.train_config)
    train = _config_from_json(TrainConfig(), {k: v for k, v in sections.items() if k != "model"},
                              args.train_config)
    # a partial "model" object overrides the defaults field by field
    model, where = sections.get("model", {}), f"{args.train_config}: model section"
    if not isinstance(model, dict):
        raise ContractError(f"{where}: expected a JSON object")
    model = _config_from_json(default_model_config(toy), model, where)
    cfg, params, curve = train_toy(toy, train, model)
    write_checkpoint(args.out_ckpt, cfg, params)
    _write_csv(args.out_curve, ("step", "phase", "loss"),
               [(step, phase, repr(loss)) for step, phase, loss in curve])
    return 0


def cmd_ablate(args):
    cfg, params = read_checkpoint(args.ckpt)
    samples = _load_manifest_samples(args.manifest)
    strategies = [parse_strategy(part, cfg.selection_mass)
                  for part in args.strategies.split(",") if part]
    modes = {"both": None, "on": True, "off": False}[args.reattention]
    grid = _parse_grid(args.grid) if args.grid else None
    rows = run_ablation(params, cfg, samples, strategies, reattention_on=modes, grid=grid)
    _write_csv(args.out_table, ("strategy", "reattention", "theta", "gt_known", "max_box_acc_v2"),
               [(label, "on" if reatt else "off", repr(theta), repr(gt), repr(mb))
                for label, reatt, theta, gt, mb in rows])
    return 0


def cmd_heatmap(args):
    heat = read_tensor(args.map)
    image = read_image(args.image)
    write_heatmap(args.out, heat, image, args.alpha)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command grammar, built on the first call and shared after it:
    `parse_args` returns a fresh namespace and leaves the parser as it was."""
    parser = _Parser(prog="tokenloc",
                     description="Token re-attention localization pipeline")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("infer", help="run both branches on one image tensor")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out-logits", required=True, help="CAM-branch class probabilities")
    p.add_argument("--out-pt", required=True, help="scoring-branch class probabilities")
    p.add_argument("--u", type=float, default=None)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("localize", help="predict one bounding box")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--class", dest="class_id", default="auto",
                   help="class id, or 'auto' for the CAM prediction")
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--out-box", required=True)
    p.add_argument("--out-map", default=None)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("eval", help="evaluate localization metrics on a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--theta", required=True,
                   help="fixed threshold, or grid[:start:stop:step]")
    p.add_argument("--metrics", default="gt-known,top1,top5,maxboxaccv2")
    p.add_argument("--out-report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("calibrate", help="grid-search the binarization threshold")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--grid", default="grid")
    p.add_argument("--out-table", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train-toy", help="train on the synthetic square task")
    p.add_argument("--toy-config", required=True)
    p.add_argument("--train-config", required=True)
    p.add_argument("--out-ckpt", required=True)
    p.add_argument("--out-curve", required=True)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("ablate-selection", help="compare token-selection strategies")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--strategies", required=True,
                   help="comma list: adaptive[:u], topk:<k>, fixed:<t|mean>")
    p.add_argument("--reattention", choices=("both", "on", "off"), default="both")
    p.add_argument("--grid", default=None)
    p.add_argument("--out-table", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("heatmap", help="render a heat map over an image as PPM")
    p.add_argument("--map", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return 3
    except (ContractError, DimensionError, DegenerateInputError, ValueError) as exc:
        print(f"error: contract: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
