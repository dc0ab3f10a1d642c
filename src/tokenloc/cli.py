"""Command-line interface.

Exit codes: 0 success, 2 usage, 3 format/IO failure, 4 contract
violation. Every failure writes a single line to stderr of the form
`error: <kind>: <detail>`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import sys
import typing

import numpy as np

from . import numerics as nm
from .errors import ContractError, FormatError, cited
from .formats import (
    check_alpha,
    mass_fixed_point,
    parse_manifest,
    read_checkpoint,
    read_file,
    read_image,
    write_checkpoint,
    write_file,
    write_heatmap,
    write_tensor,
)
from .localization import (
    DEFAULT_GRID,
    METRIC_NAMES,
    check_thresholds,
    evaluate_samples,
    localize,
    threshold_grid,
)
from .pipeline import two_branch_forward
from .token_refine import adaptive, parse_strategy
from .training import ToyTaskConfig, TrainConfig, check_model_fits, default_model_config, train_toy


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_grid(option: str, text: str) -> list:
    """The thresholds of `option`'s grid[:start:stop:step] value."""
    parts = text.split(":")
    if parts[0] == "grid":
        parts = parts[1:] or DEFAULT_GRID
    try:
        start, stop, step = map(float, parts)
    except ValueError:  # not three parts, or not numbers
        raise ContractError(f"{option} must be grid[:start:stop:step] with three numbers, "
                            f"got {text!r}") from None
    with cited(option):
        return threshold_grid(start, stop, step)


def _parse_theta(text: str) -> list:
    """The thresholds of eval's --theta: one number, or a grid."""
    if text.startswith("grid"):
        return _parse_grid("--theta", text)
    try:
        theta = float(text)
    except ValueError:
        raise ContractError(f"--theta must be a number or grid[:start:stop:step], "
                            f"got {text!r}") from None
    with cited("--theta"):
        check_thresholds(theta)
    return [theta]


def _parse_class(text: str):
    """The class of localize's --class: "predicted" for auto, else an id
    written in ASCII digits (checked against the checkpoint once read)."""
    if text == "auto":
        return "predicted"
    if text.isascii() and text.isdigit():
        return int(text)
    raise ContractError(f"--class: expected 'auto' or a class id in ASCII digits, got {text!r}")


def _selector(args):
    """The adaptive selector at `--u`; None leaves the checkpoint's mass."""
    with cited("--u"):
        return None if args.u is None else adaptive(args.u)


def _write_csv(path, header, rows):
    text = io.StringIO(newline="")
    csv.writer(text).writerows([header, *rows])
    write_file(path, text.getvalue().encode("utf-8"))


def _load_manifest_samples(path, cfg):
    samples = parse_manifest(path, cfg)
    if not samples:
        raise ContractError(f"manifest {path} is empty")
    return samples


def _read_input(path, cfg):
    """The --input image, checked to fit the checkpoint's `cfg`."""
    image = read_image(path)
    with cited(path):
        cfg.check_image(image.shape)
    return image


@contextlib.contextmanager
def _finite_forward(path):
    """Trap numpy's overflow and invalid-value results inside: an input
    whose values carry the forward out of the float32 range is a contract
    error that names `path`, not a warning followed by NaN outputs."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise ContractError(f"{path}: the forward pass is not finite ({exc})") from None


def cmd_infer(args):
    selector = _selector(args)
    cfg, params = read_checkpoint(args.ckpt)
    image = _read_input(args.input, cfg)
    with _finite_forward(args.input):
        result = two_branch_forward(params, cfg, image[None], selector=selector)
        p_cam, p_refine = nm.value_of(result.p_cam)[0], nm.value_of(result.p_refine)[0]
    write_tensor(args.out_logits, p_cam)
    write_tensor(args.out_pt, p_refine)
    return 0


def cmd_localize(args):
    selector, class_id = _selector(args), _parse_class(args.class_id)
    with cited("--theta"):
        check_thresholds(args.theta)
    cfg, params = read_checkpoint(args.ckpt)
    if class_id != "predicted" and class_id >= cfg.num_classes:
        raise ContractError(f"--class must be 'auto' or a class id in [0, {cfg.num_classes}), "
                            f"got {args.class_id!r}")
    image = _read_input(args.input, cfg)
    with _finite_forward(args.input):
        heat, box, _, empty = localize(params, cfg, image, class_id, theta=args.theta,
                                       selector=selector)
    write_file(args.out_box, (" ".join(map(str, box.tolist())) + "\n").encode("ascii"))
    if args.out_map:
        write_tensor(args.out_map, heat)
    if empty:
        print("warning: empty foreground, emitted the full-image box", file=sys.stderr)
    return 0


def cmd_eval(args):
    selector, thetas = _selector(args), _parse_theta(args.theta)
    metrics = [m.strip() for m in args.metrics.split(",")]
    for metric in metrics:
        if metric not in METRIC_NAMES:
            raise ContractError(f"--metrics: unknown metric {metric!r}, expected one of "
                                f"{METRIC_NAMES}")
    if len(set(metrics)) < len(metrics):
        raise ContractError(f"--metrics {args.metrics!r} names a metric more than once")
    cfg, params = read_checkpoint(args.ckpt)
    samples = _load_manifest_samples(args.manifest, cfg)
    with _finite_forward(args.manifest):
        theta_star, _, results = evaluate_samples(params, cfg, samples, metrics, thetas,
                                                  selectors=[selector])[0]
    rows = [(metric, repr(results[metric])) for metric in metrics]
    rows.append(("theta", repr(theta_star)))
    _write_csv(args.out_report, ("metric", "value"), rows)
    return 0


def cmd_calibrate(args):
    selector, thetas = _selector(args), _parse_grid("--grid", args.grid)
    cfg, params = read_checkpoint(args.ckpt)
    samples = _load_manifest_samples(args.manifest, cfg)
    with _finite_forward(args.manifest):
        theta_star, table, _ = evaluate_samples(params, cfg, samples, (), thetas,
                                                selectors=[selector])[0]
    _write_csv(args.out_table, ("theta", "gt_known"),
               [(repr(theta), repr(acc)) for theta, acc in table])
    print(f"theta_star={theta_star!r}")
    return 0


# JSON types each dataclass field type accepts; bool is an int subclass, not a number here
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _config_from_json(base, payload, where):
    """Config dataclass `base` with the fields of the JSON object `payload` put
    over it, checking each field's name and JSON type first; errors cite `where`."""
    with cited(where):
        if not isinstance(payload, dict):
            raise ContractError("expected a JSON object")
        hints = typing.get_type_hints(type(base))
        for name, value in payload.items():
            if name not in hints:
                raise ContractError(f"unknown field {name!r}")
            types, what = _JSON_TYPES[hints[name]]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ContractError(f"field {name!r} must be {what}, got {value!r}")
        return dataclasses.replace(base, **payload)


def _unique_keys(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key is a FormatError."""
    payload = {}
    for key, value in pairs:
        if key in payload:
            raise FormatError(f"key {key!r} repeated")
        payload[key] = value
    return payload


def _read_json_object(path) -> dict:
    """The JSON object in `path`, decoded with universal newlines, no key repeated."""
    data = read_file(path)
    with cited(path):
        try:
            payload = json.loads(io.StringIO(data.decode("utf-8"), newline=None).getvalue(),
                                 object_pairs_hook=_unique_keys)
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 at byte {exc.start}: {exc.reason}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON, a long integer, deep nesting
            raise FormatError(str(exc)) from exc
        if not isinstance(payload, dict):
            raise FormatError("expected a JSON object")
    return payload


def cmd_train_toy(args):
    toy = _config_from_json(ToyTaskConfig(), _read_json_object(args.toy_config), args.toy_config)
    sections = _read_json_object(args.train_config)
    train = _config_from_json(TrainConfig(), {k: v for k, v in sections.items() if k != "model"},
                              args.train_config)
    # a partial "model" object overrides the defaults field by field; else the toy task sets them
    where = f"{args.train_config}: model section" if "model" in sections else args.toy_config
    model = _config_from_json(default_model_config(toy), sections.get("model", {}), where)
    with cited(where):  # the budgets too, ahead of train_toy's own unnamed check
        mass_fixed_point(model.selection_mass)
        check_model_fits(toy, model)
        model.check_memory()
    cfg, params, curve = train_toy(toy, train, model)
    write_checkpoint(args.out_ckpt, cfg, params)
    _write_csv(args.out_curve, ("step", "phase", "loss"),
               [(step, phase, repr(loss)) for step, phase, loss in curve])
    return 0


def cmd_ablate(args):
    with cited("--strategies"):
        parts = args.strategies.split(",")
        if not any(parts):
            raise ContractError(f"no strategy in {args.strategies!r}")
        if not all(parts):
            raise ContractError(f"{args.strategies!r} has an empty item")
        strategies = [parse_strategy(part) for part in parts]
    thetas = _parse_grid("--grid", args.grid)
    cfg, params = read_checkpoint(args.ckpt)
    # compared as resolved: a bare `adaptive` selects at the checkpoint's mass
    resolved = {f"adaptive:{cfg.selection_mass:g}" if label == "adaptive" else label
                for label, _ in strategies}
    with cited("--strategies"):
        if len(resolved) < len(strategies):
            raise ContractError(f"{args.strategies!r} names a strategy more than once")
        # a rule's bounds on the token count, such as topk's k <= N
        for _, selector in strategies:
            if selector is not None:
                selector(np.ones((1, cfg.num_tokens), np.float32))
    samples = _load_manifest_samples(args.manifest, cfg)
    modes = {"both": (True, False), "on": (True,), "off": (False,)}[args.reattention]
    with _finite_forward(args.manifest):
        rows = evaluate_samples(params, cfg, samples, ("gt-known", "maxboxaccv2"), thetas,
                                selectors=[selector for _, selector in strategies], modes=modes)
    settings = [(label, reatt) for label, _ in strategies for reatt in modes]
    _write_csv(args.out_table, ("strategy", "reattention", "theta", "gt_known", "max_box_acc_v2"),
               [(label, "on" if reatt else "off", repr(theta),
                 repr(results["gt-known"]), repr(results["maxboxaccv2"]))
                for (label, reatt), (theta, _, results) in zip(settings, rows)])
    return 0


def cmd_heatmap(args):
    with cited("--alpha"):
        check_alpha(args.alpha)
    heat, image = read_image(args.map, "heat map has non-finite value"), read_image(args.image)
    with cited(f"--map {args.map}, --image {args.image}"):  # only the shapes can fail here
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
    p.add_argument("--grid", default="grid")
    p.add_argument("--out-table", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("heatmap", help="render a heat map over an image as PPM")
    p.add_argument("--map", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_heatmap)

    return parser


@functools.cache
def _keep_freed_heap() -> None:
    """Once per process, have glibc keep freed heap pages until exit
    (M_TRIM_THRESHOLD 1 GiB) and serve blocks under 32 MiB from the heap
    (M_MMAP_THRESHOLD), so a step's temporaries are not page-faulted in
    anew. Without glibc's mallopt this does nothing."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD; a 0 returned (refused) changes nothing
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's 64-bit maximum


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return 3
    except (ContractError, ValueError) as exc:
        print(f"error: contract: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
