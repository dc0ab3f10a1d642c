"""Span tracing of tokenloc from outside the program.

The tracer replaces public functions of each tokenloc module with timing
wrappers while a traced loop runs, and restores them afterwards. A name
bound by ``from .x import y`` is a separate reference in each importing
module, so every module-level reference to a wrapped function is
replaced, not only the defining one. Kernel ops are called as ``nm.op``
and need patching once.

Each span is aggregated under its (name, parent) pair with its call
count, inclusive time and self time (inclusive time minus the time its
child spans cover). Names that no longer exist are listed in
``unpatched`` rather than failing the run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

SPANS = {
    "numerics": ("matmul", "softmax", "masked_softmax", "layer_norm", "gelu", "conv2d3x3",
                 "bilinear_resize", "crop", "concat", "reshape", "transpose", "add", "mul",
                 "div", "scale", "neg", "reduce_sum", "log", "clip_min", "GradTape.backward"),
    "backbone": ("patchify", "embed", "block_forward", "backbone_forward"),
    "token_refine": ("preliminary_attention", "adaptive_select", "selection_matrix",
                     "importance_weights", "reattention", "refine_classify"),
    "cam": ("cam_forward",),
    "pipeline": ("two_branch_forward", "select_tokens"),
    "localization": ("fuse", "binarize", "largest_component", "tight_bbox", "box_from_heat",
                     "image_heat", "localize", "gt_class_heats", "hit_fraction",
                     "gt_known_table", "max_box_acc_v2_over_grid"),
    "metrics": ("iou", "loc_acc", "max_box_acc_v2"),
    "ablation": ("select_with_strategy", "run_ablation"),
    "training": ("train_toy", "make_dataset", "cross_entropy_joint", "backward", "sgd_step"),
    "formats": ("read_checkpoint", "read_tensor", "write_tensor", "write_checkpoint",
                "parse_manifest", "load_samples", "write_heatmap"),
    "cli": ("main",),
}
KERNEL_OPS = ("matmul", "softmax", "masked_softmax", "layer_norm", "gelu", "conv2d3x3",
              "bilinear_resize")
SHAPE_OPS = ("crop", "concat", "reshape", "transpose")
TAPE_BACKWARD = "numerics.GradTape.backward"


def _value(x):
    return np.asarray(getattr(x, "value", x))


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # (name, parent) -> calls, total, self
        self.counts = defaultdict(float)
        self.forward_s = []       # inclusive time of each two_branch_forward
        self.step_s = []          # wall time of each training step
        self.unpatched = []
        self._stack = []
        self._undo = []
        self.per_command = defaultdict(lambda: defaultdict(int))  # command -> counts
        self._command = None      # the running CLI command's counts and id sets
        self._training = False
        self._step_start = None
        self._hooks = {
            "cli.main": (self._command_start, self._command_end),
            "pipeline.two_branch_forward": (self._forward_start, None),
            "localization.largest_component": (self._labelling, None),
            "localization.box_from_heat": (None, self._box),
            "token_refine.selection_matrix": (self._selection, None),
            "ablation.select_with_strategy": (None, self._strategy_fallback),
            "numerics.matmul": (self._matmul_work, None),
            "training.train_toy": (self._train_start, self._train_end),
            "training.backward": (self._backward_start, None),
            "training.sgd_step": (None, self._step_end),
            "formats.read_checkpoint": (None, self._bytes("bytes_read")),
            "formats.read_tensor": (None, self._bytes("bytes_read")),
            "formats.parse_manifest": (None, self._manifest_bytes),
            "formats.write_tensor": (None, self._bytes("bytes_written")),
            "formats.write_checkpoint": (None, self._bytes("bytes_written")),
            "formats.write_heatmap": (None, self._bytes("bytes_written")),
        }

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "tokenloc" or n.startswith("tokenloc.")]
        for module_name, names in SPANS.items():
            module = sys.modules.get(f"tokenloc.{module_name}")
            for attr in names:
                span = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    owner = getattr(module, cls_name, None)
                    fn = vars(owner).get(method) if owner is not None else None
                    if fn is None:
                        self.unpatched.append(span)
                        continue
                    setattr(owner, method, self._wrap(span, fn))
                    self._undo.append((owner, method, fn))
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.unpatched.append(span)
                    continue
                wrapper = self._wrap(span, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def _wrap(self, name, fn):
        before, after = self._hooks.get(name, (None, None))
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter
        keep = self.forward_s if name == "pipeline.two_branch_forward" else None

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"raised.{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                record = spans[(name, parent[0] if parent else None)]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if keep is not None:
                    keep.append(elapsed)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks ------------------------------------------------------------

    def _command_start(self, args, kwargs):
        argv = args[0] if args else kwargs["argv"]
        self._command = {"name": argv[0], "images": set(), "pairs": set(),
                         "forwards": 0, "labellings": 0}

    def _command_end(self, args, kwargs, result):
        cmd, self._command = self._command, None
        counts = self.per_command[cmd["name"]]
        counts["commands"] += 1
        counts["forwards"] += cmd["forwards"]
        counts["labellings"] += cmd["labellings"]
        counts["distinct_images"] += len(cmd["images"])
        counts["distinct_pairs"] += len(cmd["pairs"])

    def _forward_start(self, args, kwargs):
        image = args[2] if len(args) > 2 else kwargs.get("image")
        if self._command is not None:
            self._command["images"].add(id(image))
            self._command["forwards"] += 1
        if self._training and self._step_start is None:
            self._step_start = time.perf_counter()

    def _labelling(self, args, kwargs):
        if self._command is not None:
            self._command["labellings"] += 1

    def _box(self, args, kwargs, result):
        if self._command is not None:
            self._command["pairs"].add((id(args[0]), float(args[1])))
        self.counts["degenerate_boxes"] += bool(result[1])

    def _selection(self, args, kwargs):
        mask = _value(args[0])
        self.counts["selected_tokens"] += int(np.count_nonzero(mask))
        self.counts["candidate_tokens"] += mask.size

    def _strategy_fallback(self, args, kwargs, result):
        if args[1].kind == "fixed":
            priorities = np.asarray(args[0], dtype=np.float32)
            if not (priorities >= result[0]).any():
                self.counts["fixed_fallbacks"] += 1

    def _matmul_work(self, args, kwargs):
        (m, k), (_, n) = _value(args[0]).shape, _value(args[1]).shape
        self.counts["matmul_flops"] += 2 * m * k * n
        self.counts["matmul_bytes"] += 4 * (m * k + k * n + m * n)

    def _train_start(self, args, kwargs):
        self._training, self._step_start = True, None

    def _train_end(self, args, kwargs, result):
        self._training = False

    def _backward_start(self, args, kwargs):
        if self._step_start is not None:
            self.counts["train_forward_s"] += time.perf_counter() - self._step_start

    def _step_end(self, args, kwargs, result):
        if self._step_start is not None:
            self.step_s.append(time.perf_counter() - self._step_start)
            self._step_start = None

    def _bytes(self, counter):
        def hook(args, kwargs, result):
            self.counts[counter] += os.path.getsize(args[0])
        return hook

    def _manifest_bytes(self, args, kwargs, result):
        # the manifest text plus one 3-extent tensor header per record
        self.counts["bytes_read"] += os.path.getsize(args[0]) + 18 * len(result)

    # -- aggregation ------------------------------------------------------

    def calls(self, name) -> int:
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def total(self, name) -> float:
        return sum(rec[1] for (n, _), rec in self.spans.items() if n == name)

    def self_time(self, name) -> float:
        return sum(rec[2] for (n, _), rec in self.spans.items() if n == name)

    def table(self) -> list:
        rows = [{"span": n, "parent": p, "calls": rec[0], "total_ms": rec[1] * 1e3,
                 "self_ms": rec[2] * 1e3} for (n, p), rec in self.spans.items()]
        return sorted(rows, key=lambda row: -row["self_ms"])


def _ratio(a, b):
    return a / b if b else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tr: Tracer, requests: int) -> dict:
    """Per-layer metrics, as {name: (value, unit)}.

    Counts and times are per request unless the name says otherwise.
    Stage spans (backbone, token_refine, cam, pipeline, training) are
    inclusive of the kernel ops they call; the rest are self times.
    """
    steps = tr.calls("training.sgd_step")
    forwards = tr.calls("pipeline.two_branch_forward")
    per_req = lambda x: _ratio(x, requests)            # noqa: E731
    ms = lambda seconds: per_req(seconds) * 1e3         # noqa: E731
    command_total = lambda key: sum(c[key] for c in tr.per_command.values())  # noqa: E731

    top_calls, top_total = 0, 0.0
    for (name, parent), rec in tr.spans.items():
        if name.startswith("numerics.") and name != TAPE_BACKWARD and not (
                parent and parent.startswith("numerics.")):
            top_calls += rec[0]
            top_total += rec[1]

    out = {
        "numerics.ops_per_step": (_ratio(top_calls, steps or forwards), "count"),
        "numerics.us_per_op": (_ratio(top_total, top_calls) * 1e6, "us"),
        "numerics.backward_ms_per_step": (_ratio(tr.total(TAPE_BACKWARD), steps) * 1e3, "ms"),
    }
    for op in KERNEL_OPS:
        out[f"numerics.{op}.calls"] = (per_req(tr.calls(f"numerics.{op}")), "count")
        out[f"numerics.{op}.ms"] = (ms(tr.total(f"numerics.{op}")), "ms")
    out["numerics.shape_ops.calls"] = (per_req(sum(tr.calls(f"numerics.{op}") for op in SHAPE_OPS)),
                                       "count")
    out["numerics.shape_ops.ms"] = (ms(sum(tr.total(f"numerics.{op}") for op in SHAPE_OPS)), "ms")
    out["numerics.matmul.flops"] = (per_req(tr.counts["matmul_flops"]), "flop")
    out["numerics.matmul.bytes"] = (per_req(tr.counts["matmul_bytes"]), "B")

    out["backbone.embed.ms"] = (ms(tr.total("backbone.patchify") + tr.total("backbone.embed")), "ms")
    out["backbone.block.calls"] = (per_req(tr.calls("backbone.block_forward")), "count")
    out["backbone.block.ms"] = (ms(tr.total("backbone.block_forward")), "ms")

    select = tr.total("token_refine.adaptive_select") + tr.total("token_refine.selection_matrix")
    out["token_refine.priority.ms"] = (ms(tr.total("token_refine.preliminary_attention")), "ms")
    out["token_refine.select.ms"] = (ms(select), "ms")
    out["token_refine.mask_block.ms"] = (ms(tr.total("token_refine.importance_weights")), "ms")
    out["token_refine.reattention.ms"] = (ms(tr.total("token_refine.reattention")), "ms")
    out["token_refine.head.ms"] = (ms(tr.total("token_refine.refine_classify")), "ms")
    out["token_refine.selected_frac"] = (
        _ratio(tr.counts["selected_tokens"], tr.counts["candidate_tokens"]), "ratio")
    degenerate = tr.counts["raised.token_refine.adaptive_select.DegenerateInputError"]
    out["token_refine.select_fallbacks"] = (per_req(degenerate + tr.counts["fixed_fallbacks"]),
                                            "count")

    out["cam.forward.ms"] = (ms(tr.total("cam.cam_forward")), "ms")
    out["pipeline.forward.ms_p50"] = (_percentile(tr.forward_s, 50) * 1e3, "ms")
    out["pipeline.forward.calls_per_image"] = (
        _ratio(command_total("forwards"), command_total("distinct_images")), "ratio")

    labellings = tr.calls("localization.largest_component")
    out["localization.fuse_resize.ms"] = (
        ms(tr.total("localization.fuse") + tr.total("numerics.bilinear_resize")), "ms")
    out["localization.components.calls"] = (per_req(labellings), "count")
    out["localization.components.ms"] = (ms(tr.self_time("localization.largest_component")), "ms")
    out["localization.components.calls_per_pair"] = (
        _ratio(command_total("labellings"), command_total("distinct_pairs")), "ratio")
    out["localization.degenerate_boxes"] = (per_req(tr.counts["degenerate_boxes"]), "count")

    out["metrics.ms"] = (ms(sum(tr.self_time(f"metrics.{f}") for f in SPANS["metrics"])), "ms")
    out["ablation.select.ms"] = (ms(tr.self_time("ablation.select_with_strategy")), "ms")
    out["ablation.run.ms"] = (ms(tr.self_time("ablation.run_ablation")), "ms")

    out["training.step_ms_p50"] = (_percentile(tr.step_s, 50) * 1e3, "ms")
    out["training.step_ms_p90"] = (_percentile(tr.step_s, 90) * 1e3, "ms")
    out["training.forward.ms_per_step"] = (_ratio(tr.counts["train_forward_s"], steps) * 1e3, "ms")
    out["training.backward.ms_per_step"] = (_ratio(tr.total("training.backward"), steps) * 1e3,
                                            "ms")
    out["training.sgd.ms_per_step"] = (_ratio(tr.total("training.sgd_step"), steps) * 1e3, "ms")

    for fn in ("read_checkpoint", "read_tensor", "write_tensor", "write_checkpoint",
               "parse_manifest"):
        out[f"formats.{fn}.ms"] = (ms(tr.self_time(f"formats.{fn}")), "ms")
    out["formats.bytes_read"] = (per_req(tr.counts["bytes_read"]), "B")
    out["formats.bytes_written"] = (per_req(tr.counts["bytes_written"]), "B")

    out["cli.overhead.ms"] = (ms(tr.self_time("cli.main")), "ms")
    out["cli.main.ms"] = (ms(tr.total("cli.main")), "ms")
    return out
