"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop with one client. A request is one or
more ``tokenloc`` commands sent through ``tokenloc.cli.main``, and the
next request starts only after the previous one returned. Each command's
outputs are checked outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from inputs import BATCH_SIZE, HELDOUT_IMAGES, IMAGE_SIZE, TRAIN_STEPS, Inputs, read_tensor

# Losses may move in the last float32 ulps when the kernel changes its
# reduction order or precision. Accumulating the forward matmuls in
# float32 instead of float64 moved them by at most 9e-8 (relative); a 10%
# error in the GELU backward rule moved them by 1.3e-5 at the second step.
LOSS_RTOL = 1e-5
# Class probabilities, same reasoning.
PROB_ATOL = 1e-5
EVAL_METRICS = "gt-known,top1,top5,maxboxaccv2"
ABLATE_STRATEGIES = "adaptive:0.65,fixed:mean"


def call_cli(cli, argv):
    """Run one command through ``cli.main``; returns (exit code, stdout).

    ``main`` is looked up on the module at each call so that a traced
    run sees the wrapped function.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def reference_box(heat: np.ndarray, theta: float) -> tuple:
    """Box of the largest 8-connected component of heat >= theta.

    ``ndimage.label`` numbers components in raster order of their first
    pixel, so argmax over sizes keeps the earliest label on ties. An
    empty foreground gives the full-image box.
    """
    labels, count = ndimage.label(heat >= np.float32(theta), structure=np.ones((3, 3)))
    if count == 0:
        return 0, 0, heat.shape[1], heat.shape[0]
    best = 1 + int(np.argmax(np.bincount(labels.ravel())[1:]))
    ys, xs = np.nonzero(labels == best)
    return int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1


def _curve_error(text: str, expected: str):
    got = list(csv.reader(io.StringIO(text)))
    want = list(csv.reader(io.StringIO(expected)))
    if len(got) != len(want) or got[0] != want[0]:
        return f"curve has {len(got)} rows, expected {len(want)}"
    for row, ref in zip(got[1:], want[1:]):
        loss, ref_loss = float(row[2]), float(ref[2])
        if row[:2] != ref[:2] or not math.isfinite(loss):
            return f"curve row {row} does not match {ref}"
        if abs(loss - ref_loss) > LOSS_RTOL * max(1.0, abs(ref_loss)):
            return f"loss {loss!r} at step {row[0]} differs from recorded {ref_loss!r}"
    return None


def command_argv(command: str, inp: Inputs, work: Path, i: int) -> list:
    """Arguments of one command; ``i`` picks the held-out image."""
    image = inp.images[i % HELDOUT_IMAGES]
    ckpt = ["--ckpt", inp.checkpoint]
    manifest = ckpt + ["--manifest", inp.manifest]
    if command == "train-toy":
        args = ["--toy-config", inp.toy_config, "--train-config", inp.train_config,
                "--out-ckpt", work / "train.ckpt", "--out-curve", work / "curve.csv"]
    elif command == "calibrate":
        args = manifest + ["--out-table", work / "calibrate.csv"]
    elif command == "eval":
        args = manifest + ["--theta", "grid", "--metrics", EVAL_METRICS,
                           "--out-report", work / "report.csv"]
    elif command == "ablate-selection":
        args = manifest + ["--strategies", ABLATE_STRATEGIES, "--reattention", "on",
                           "--out-table", work / "ablation.csv"]
    elif command == "localize":
        args = ckpt + ["--input", image, "--class", "auto", "--theta", inp.expected["theta_star"],
                       "--out-box", work / "box.txt", "--out-map", work / "map.trt"]
    else:
        args = ckpt + ["--input", image, "--out-logits", work / "p_cam.trt",
                       "--out-pt", work / "p_refine.trt"]
    return [command] + args


def check(command: str, inp: Inputs, work: Path, i: int, code: int, stdout: str, state: dict):
    """None when the command's outputs are correct, else what is wrong."""
    if code != 0:
        return f"{command} exit code {code}"
    exp = inp.expected
    if command == "train-toy":
        outputs = ((work / "train.ckpt").read_bytes(), (work / "curve.csv").read_text())
        first = state.setdefault("train_outputs", outputs)
        if outputs != first:
            return "checkpoint or curve differs from the first repeat"
        return _curve_error(outputs[1], exp["train_curve"])
    if command == "calibrate":
        if (work / "calibrate.csv").read_text() != exp["calibrate_table"]:
            return "calibrate table differs from the recorded one"
        return None if stdout == exp["calibrate_stdout"] else f"calibrate stdout {stdout!r}"
    if command == "eval":
        same = (work / "report.csv").read_text() == exp["eval_report"]
        return None if same else "eval report differs from the recorded one"
    if command == "ablate-selection":
        same = (work / "ablation.csv").read_text() == exp["ablate_table"]
        return None if same else "ablation table differs from the recorded one"
    if command == "localize":
        box = tuple(int(v) for v in (work / "box.txt").read_text().split())
        heat = read_tensor(work / "map.trt")
        if heat.shape != (IMAGE_SIZE, IMAGE_SIZE):
            return f"map shape {heat.shape}"
        want = reference_box(heat, float(exp["theta_star"]))
        return None if box == want else f"box {box} != reference {want} for image {i}"
    got = np.concatenate([read_tensor(work / "p_cam.trt"), read_tensor(work / "p_refine.trt")])
    want = np.asarray(exp["infer"][i % HELDOUT_IMAGES], dtype=np.float64)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= PROB_ATOL):
        return f"probabilities {got.tolist()} differ from recorded {want.tolist()}"
    return None


@dataclass(frozen=True)
class Workload:
    """One request is ``commands`` sent in order on the same input."""

    name: str
    why: str
    commands: tuple
    images_per_request: int      # each command of the request handles these images
    round_size: int = 1          # requests per pass over the inputs


WORKLOADS = {w.name: w for w in (
    Workload("train", "train-toy at the toy defaults: the time goes to the taped forward and "
             "backward through the gradient tape; box extraction and file reads do almost nothing",
             ("train-toy",), sum(TRAIN_STEPS) * BATCH_SIZE),
    Workload("evaluate", "calibrate, eval and ablate-selection on the 50 held-out images: "
             "labelling over the theta grid dominates, forward passes are a small share",
             ("calibrate", "eval", "ablate-selection"), HELDOUT_IMAGES),
    Workload("localize", "localize then infer on one image: checkpoint decode, untaped forward, "
             "one labelling and file writes; latency, not throughput",
             ("localize", "infer"), 1, HELDOUT_IMAGES),
)}
