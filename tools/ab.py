"""Paired A/B of two tokenloc revisions: in-process levels with an A/A noise
floor from the same rounds, and a fresh-process level.

    python3 tools/ab.py --base 5d2b143 --workloads evaluate,localize,train --out BENCH_20.json
    python3 tools/ab.py --base HEAD --seconds 20    # A/A only, on a clean tree

Run from the repository root. Each level is one pass of rounds over three
sides, in an order that rotates every round: ``base``, the ``git archive``
of ``--base``'s ``src/tokenloc`` imported as ``tk_base``; ``head``, the
working tree's ``tokenloc``; and ``copy``, a copy of the working tree's package
imported as ``tk_copy`` (both under ``.bench_build/ab/packages``). Each is
reached only through ``cli.main`` and the kernel ops of ``numerics``. A row
gives the quartiles of the per-round ratios head/base (A/B) and head/copy
(A/A); where it has a verdict, an A/B median inside the A/A quartiles, the
method's noise floor, is flat. Head has the same role in both ratios, so a
bias tied to the working-tree package sits in the floor: identical code
reads 0.5-5% apart on the sub-5 us forwards, with no side found slower.
The report also carries the ``src/tokenloc`` line count of the base and
the working tree, in total and per module, and the machine: perfbench's
block, plus the OpenBLAS kernel set and numpy SIMD targets that the
golden hashes depend on (``tools/golden.py``).

- End to end: each workload's requests, sent through every side's
  ``cli.main`` on perfbench's inputs for ``--seconds`` (10 rounds at
  least); perfbench/workloads.py's ``check`` checks every output. Wall ms
  per request, with perfbench's host-speed probe alongside, and a verdict.
- Stages: a third as long (STAGE_ROUNDS rounds at least) under
  ``cProfile`` around ``cli.main``: per command and side, calls and
  cumulative ms per request of each STAGES function; one that only some
  sides reach is ``absent``. The profiler slows small calls most, so the
  rows attribute time; the profiled and plain ms per request stand beside
  them. Stage rows carry ratios but no verdict: at ten rounds the quartile
  rule calls unchanged commands faster or slower. ``evaluate`` also sends
  ``ablate-selection`` in the CLI's default mode (re-attention on and
  off), which perfbench never runs; every side's table must equal base's.
- Kernel ops: forward and backward of each op of ``op_cases`` at the toy
  shapes (65 tokens, width 32, 4 heads), and the convolution and resize
  at the evaluate stack of head's ``pipeline.FORWARD_CHUNK`` images, each
  with a verdict. A backward is timed alone on a tape recorded
  beforehand, with the adjoint of the sum to a scalar loss. A side whose numerics lacks the op or rejects the
  call (TypeError, AttributeError or ValueError, which a DimensionError
  is) is ``absent`` for that op, with the error, and the op has no
  verdict. A side on which the op records no tape step, as the untaped
  bilinear_resize, has its backward ``absent``: only the forward is
  timed there.
- Tape: per side, the records of one taped phase-1 step at the toy
  defaults and its bytes (tracemalloc) held after the forward and at peak.
- Tier-1: the working tree's wall time and outcome counts from one child
  run of TIER1, the suite's Tier-1 command, after the other levels.
- Fresh processes: FRESH_ROUNDS rounds of base's and head's FRESH_CHILDREN,
  one child process at a time (never a pool), with base and head taking
  turns to go first: ``python -c "import <package>.cli"``, a ``train-toy``
  at the default configs and one ``localize`` on perfbench's inputs. Per
  side and child, the medians of its wall ms and of what ``os.wait4``
  reads of its own use: user and system CPU seconds, minor page faults and
  peak RSS. Every round, both sides' children must exit 0 and leave the
  same output bytes.

The in-process levels share one process, and so one C allocator: once head's
``cli.main`` has set its heap policy (glibc's ``mallopt``), base runs under
it too, and a change of that policy reads flat there. Only the fresh-process
level measures it.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import importlib
import io
import json
import math
import os
import pstats
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "ab"
WORKLOADS = ("evaluate", "localize", "train")
MODULES = ("cli", "numerics")
STAGE_ROUNDS = 10
FRESH_ROUNDS = 6
# each fresh child's code after `python -c`, for the package's name
_MAIN = "import sys; from {}.cli import main; sys.exit(main())"
FRESH_CHILDREN = {"import": "import {}.cli", "train-toy": _MAIN, "localize": _MAIN}
# Linux starts a child's peak RSS at the RSS of the process it was forked
# from, so each child is forked from this small one, which prints what
# os.wait4 reads of the child's own use
LAUNCHER = """import json, os, subprocess, sys, time
start = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
print(json.dumps({"exit_code": child.returncode, "wall_ms": (time.perf_counter() - start) * 1e3,
                  "user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                  "minor_faults": usage.ru_minflt, "peak_rss_mb": usage.ru_maxrss / 1024}))
"""
OP_REPEATS = 60
TOKENS, WIDTH, HEADS = 65, 32, 4
# pipeline stage -> the (module, function) whose cumulative time is the stage
STAGES = {
    "checkpoint decode": ("formats", "read_checkpoint"), "image read": ("formats", "read_image"),
    "manifest read": ("formats", "parse_manifest"), "output writes": ("formats", "write_file"),
    "embed": ("backbone", "embed"), "backbone blocks": ("backbone", "backbone_forward"),
    "TPSM priority": ("token_refine", "preliminary_attention"),
    "selection": ("token_refine", "select"), "mask block": ("token_refine", "importance_weights"),
    "re-attention": ("token_refine", "reattention"),
    "refine head": ("token_refine", "refine_classify"), "CAM": ("cam", "cam_forward"),
    "fuse+resize": ("localization", "class_heats"), "components": ("localization", "heat_boxes"),
    "metrics": ("localization", "best_ious"), "training loss": ("training", "_batch_loss"),
    "training backward": ("training", "backward"), "training sgd": ("training", "sgd_step")}
# the CLI's default-mode ablation, which only the stage level sends
DEFAULT_ABLATION = "ablate-selection --reattention both"
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")  # after the interpreter


def quartiles(values) -> dict:
    values = list(values)
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                  else values * 3)
    return {"q1": q1, "median": q2, "q3": q3}


def head_ratios(samples: dict) -> dict:
    """Quartiles of head's per-round ratios to base (A/B) and to copy (A/A),
    for those of the three sides that `samples` holds."""
    head = samples.get("head")
    return {f"ratio_head_over_{side}": quartiles(h / o for h, o in zip(head, samples[side]))
            for side in ("base", "copy") if head is not None and side in samples}


def verdict(entry: dict) -> str:
    ratio = entry["ratio_head_over_base"]["median"]
    floor = entry["ratio_head_over_copy"]
    if floor["q1"] <= ratio <= floor["q3"]:
        return "flat (inside the A/A quartiles)"
    return "faster" if ratio < floor["q1"] else "slower"


def rotation(sides, i: int) -> list:
    """`sides` in round i's order: over a multiple of len(sides) rounds,
    each side takes each position equally often."""
    sides = list(sides)
    return sides[i % len(sides):] + sides[:i % len(sides)]


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def import_package(name: str):
    """Import package `name` with the MODULES this script reads."""
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return sys.modules[name]


def load_package(name: str, rev: str | None = None):
    """Write BUILD/packages/<name>, the ``git archive`` of `rev`'s
    src/tokenloc or a copy of the working tree's when None, and import it."""
    target = BUILD / "packages" / name
    shutil.rmtree(target, ignore_errors=True)
    if rev is None:
        shutil.copytree(SRC / "tokenloc", target, ignore=shutil.ignore_patterns("__pycache__"))
    else:
        data = subprocess.run(["git", "archive", f"{rev}:src/tokenloc"], cwd=ROOT, check=True,
                              capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(target, filter="data")
    sys.path.insert(0, str(target.parent))
    try:
        return import_package(name)
    finally:
        sys.path.pop(0)


def run_pairs(commands, packages: dict, inp, more, profiles=None) -> tuple:
    """Send a request, the `commands` in order, through every one of
    `packages`' ``cli.main`` in round i while more(i), in rotation order,
    then to the end of the rotation, under the cProfile.Profile of
    `profiles` if given. Returns the wall ms per round of each (side,
    command) and each side's failures."""
    from workloads import call_cli, check, command_argv

    times = {(side, command): [] for side in packages for command in commands}
    failed = {side: [] for side in packages}
    states = {side: {} for side in packages}
    i = 0
    while more(i) or i % len(packages):
        tables = {}
        for side in rotation(packages, i):
            work = BUILD / f"work-{side}"
            work.mkdir(parents=True, exist_ok=True)
            for command in commands:
                argv = command_argv(command.split()[0], inp, work, i)
                cli = packages[side].cli
                if profiles:
                    cli = types.SimpleNamespace(
                        main=functools.partial(profiles[side, command].runcall, cli.main))
                if command == DEFAULT_ABLATION:
                    argv = [arg for arg in argv if arg not in ("--reattention", "on")]
                start = time.perf_counter()
                code, stdout = call_cli(cli, argv)
                times[side, command].append((time.perf_counter() - start) * 1e3)
                if command == DEFAULT_ABLATION:
                    error = f"{command} exit code {code}" if code else None
                    tables[side] = None if code else (work / "ablation.csv").read_bytes()
                else:
                    error = check(command, inp, work, i, code, stdout, states[side])
                if error:
                    failed[side].append(f"{command} #{i}: {error}")
        for side, table in tables.items():
            if table != tables["base"]:
                failed[side].append(f"{DEFAULT_ABLATION} #{i}: table differs from the base's")
        i += 1
    return times, failed


def per_request(times: dict, side: str, commands) -> list:
    """Wall ms of each of `side`'s requests: the sum over `commands`."""
    return [sum(ms) for ms in zip(*(times[side, command] for command in commands))]


def compare(workload, packages: dict, inp, seconds: float) -> dict:
    """The end-to-end level of `workload` for `seconds` (at least 10
    rounds); per-request wall times in ms."""
    from hostspeed import HostSpeed

    with HostSpeed() as host:
        first_probe = host.mark()
        deadline = time.perf_counter() + seconds
        times, failed = run_pairs(workload.commands, packages, inp,
                                  lambda i: i < 10 or time.perf_counter() < deadline)
    requests = {side: per_request(times, side, workload.commands) for side in packages}
    out = {"rounds": len(requests["head"]), "host_probe": host.summary(first_probe),
           "failed": failed}
    for side in packages:
        out[f"{side}_ms"] = quartiles(requests[side])
        out[f"{side}_images_per_s"] = (workload.images_per_request * 1e3
                                       / statistics.median(requests[side]))
    out.update(head_ratios(requests))
    out["verdict"] = verdict(out)
    return out


def profile_stages(workload, packages: dict, inp, seconds: float, rounds: int = STAGE_ROUNDS):
    """The stage level of `workload`: `rounds` rounds, and more until
    `seconds` have passed (see the module docstring)."""
    commands = list(workload.commands)
    if "ablate-selection" in commands:
        commands.append(DEFAULT_ABLATION)
    profiles = {(side, command): cProfile.Profile() for side in packages for command in commands}
    deadline = time.perf_counter() + seconds
    times, failed = run_pairs(commands, packages, inp,
                              lambda i: i < rounds or time.perf_counter() < deadline, profiles)
    rounds = len(times["head", commands[0]])
    out = {"rounds": rounds, "failed": failed, "absent": [], "commands": {},
           "profiled_ms": {side: statistics.median(per_request(times, side, workload.commands))
                           for side in packages}}
    for command in commands:
        entry = out["commands"][command] = head_ratios({side: times[side, command]
                                                        for side in packages})
        for side, package in packages.items():
            # every STAGES function is a module-level one, so (file, name) is unique
            found = {(path, name): (calls, cumulative) for (path, _, name), (_, calls, _,
                     cumulative, _) in pstats.Stats(profiles[side, command]).stats.items()}
            folder = Path(package.cli.__file__).parent
            hits = {stage: found.get((str(folder / f"{module}.py"), function))
                    for stage, (module, function) in STAGES.items()}
            entry[side] = {"profiled_ms": statistics.median(times[side, command]), "stages": {
                stage: {"calls": hit[0] / rounds, "ms": round(hit[1] * 1e3 / rounds, 3)}
                for stage, hit in hits.items() if hit}}
        reached = [[stage in entry[side]["stages"] for side in packages] for stage in STAGES]
        out["absent"] += [f"{command}: {stage} absent on {side}"
                          for stage, seen in zip(STAGES, reached) if any(seen)
                          for side, hit in zip(packages, seen) if not hit]
        entry["not_reached"] = [stage for stage, seen in zip(STAGES, reached) if not any(seen)]
    return out


def run_child(argv, env) -> dict:
    """Exit code, wall ms and the resource use ``os.wait4`` reads of one
    child process running `argv`, started by LAUNCHER."""
    done = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, *argv], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def fresh_process(sides: dict, rounds: int = FRESH_ROUNDS) -> dict:
    """The fresh-process level: `sides` maps each side to (work folder,
    env, {child: argv}); see the module docstring."""
    samples = {(side, name): [] for side, (_, _, children) in sides.items() for name in children}
    failed = {side: [] for side in sides}
    for i in range(rounds):
        for side in rotation(sides, i):
            work, env, children = sides[side]
            for name, argv in children.items():
                sample = run_child(argv, env)
                code = sample.pop("exit_code")
                if code:
                    failed[side].append(f"{name} #{i}: exit code {code}")
                samples[side, name].append(sample)
        outputs = [{path.name: path.read_bytes() for path in sorted(work.iterdir())}
                   for work, _, _ in sides.values()]
        for side, files in zip(sides, outputs):
            if files != outputs[0]:
                failed[side].append(f"round #{i}: outputs differ from the first side's")
    out = {"rounds": rounds, "failed": failed}
    for (side, name), runs in samples.items():
        out.setdefault(name, {})[side] = {key: statistics.median(run[key] for run in runs)
                                          for key in runs[0]}
    return out


def fresh_sides(inp) -> dict:
    """base's and head's children of the fresh-process level, each side
    writing into its own work folder."""
    from workloads import command_argv

    configs = BUILD / "fresh-configs"
    configs.mkdir(parents=True, exist_ok=True)
    for name in ("toy.json", "train.json"):
        (configs / name).write_text("{}", encoding="utf-8")
    sides = {}
    for side, package, path in (("base", "tk_base", BUILD / "packages"), ("head", "tokenloc", SRC)):
        work = BUILD / f"fresh-{side}"
        work.mkdir(parents=True, exist_ok=True)
        args = {"import": [],
                "train-toy": ["train-toy", "--toy-config", configs / "toy.json",
                              "--train-config", configs / "train.json",
                              "--out-ckpt", work / "train.ckpt", "--out-curve", work / "curve.csv"],
                "localize": command_argv("localize", inp, work, 0)}
        sides[side] = (work, {**os.environ, "PYTHONPATH": str(path)}, {
            name: [sys.executable, "-c", code.format(package), *map(str, args[name])]
            for name, code in FRESH_CHILDREN.items()})
    return sides


def timed(cases: dict, repeats: int, inner: int) -> dict:
    """Quartiles in microseconds per call of each side's case, the sides in
    rotation order every repeat, and head's ratios per repeat. A case is a
    (prepare, run) pair: `inner` prepare() results are made before the
    clock starts and run(prepared) is timed on each."""
    samples = {side: [] for side in cases}
    for prepare, run in cases.values():
        run(prepare())   # warm-up
    for r in range(repeats):
        for side in rotation(cases, r):
            prepare, run = cases[side]
            states = [prepare() for _ in range(inner)]
            start = time.perf_counter()
            for state in states:
                run(state)
            samples[side].append((time.perf_counter() - start) / inner * 1e6)
    return {**{side: quartiles(values) for side, values in samples.items()},
            **head_ratios(samples)}


def filesystem(path: Path) -> str:
    """Type and mount options of the filesystem holding `path`, which writer
    costs depend on (ext4 with ``auto_da_alloc`` makes truncation dear,
    tmpfs much less), from /proc/self/mounts ("unknown" where there is none)."""
    path, best = path.resolve(), ("", "unknown")
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for _, mount, kind, options, *_ in map(str.split, fh):
                if Path(mount) in (path, *path.parents) and len(mount) >= len(best[0]):
                    best = (mount, f"{kind} {options} (mounted on {mount})")
    except OSError:
        pass
    return best[1]


def machine() -> dict:
    """perfbench's machine block, plus the OpenBLAS kernel set and numpy SIMD
    targets that tools/golden.py records and the filesystem under BUILD."""
    from golden import openblas_core, simd_targets
    from run import machine_block

    return {**machine_block(), "openblas_core": openblas_core(), "numpy_simd": simd_targets(),
            "filesystem": filesystem(BUILD)}


def line_count(package: Path) -> dict:
    """Lines of the package's Python files, as ``wc -l`` counts them: the
    total and each module's, by file name."""
    modules = {path.name: path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py"))}
    return {"total": sum(modules.values()), "modules": modules}


def tier1_counts(output: str) -> dict:
    """The outcome counts of pytest's closing summary line in `output`,
    e.g. ``1 failed, 663 passed, 2 errors in 30.1s``; passed and failed
    are always present."""
    lines = output.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {"passed": 0, "failed": 0}
    for number, outcome in re.findall(r"(\d+) ([a-z]+)", summary):
        counts[{"error": "errors", "warning": "warnings"}.get(outcome, outcome)] = int(number)
    return counts


def tier1() -> dict:
    """Wall seconds, exit code and outcome counts of one run of TIER1 on
    the working tree, in a child process with src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1),
            "wall_s": round(time.perf_counter() - start, 2), "exit_code": done.returncode,
            **tier1_counts(done.stdout)}


def op_cases(rng) -> dict:
    """(call(nm, *args), args) per kernel op at the shapes the toy model
    calls it with on one image: a block's matmul, softmax, attention,
    layer_norm and MLP gelu, the CAM's 3x3 convolution of the token grid,
    a bias add, the refine head's product of the importance weights with
    the diagonal, the CAM logits' spatial sum and scale, then the shape
    ops (the mask block keeps 42 of the 64 tokens); then the convolution
    and the untaped bilinear_resize at the evaluate stack of head's
    FORWARD_CHUNK images."""
    import numpy as np
    from tokenloc.pipeline import FORWARD_CHUNK as stack

    side, kept, classes = math.isqrt(TOKENS - 1), 42, 2

    def arrays(*shapes):
        return [rng.standard_normal(shape).astype("float32") for shape in shapes]

    picked = (np.zeros((1, 1), np.intp), np.sort(rng.permutation(TOKENS - 1)[:kept])[None])

    return {
        "matmul": (lambda nm, a, b: nm.matmul(a, b), arrays((TOKENS, WIDTH), (WIDTH, WIDTH))),
        "softmax": (lambda nm, x: nm.softmax(x), arrays((HEADS, TOKENS, TOKENS))),
        "attention": (lambda nm, q, k, v: nm.attention(q, k, v, HEADS, TOKENS)[0],
                      arrays(*[(TOKENS, WIDTH)] * 3)),
        "layer_norm": (lambda nm, x, g, b: nm.layer_norm(x, g, b),
                       arrays((TOKENS, WIDTH), (WIDTH,), (WIDTH,))),
        "gelu": (lambda nm, x: nm.gelu(x), arrays((TOKENS, 4 * WIDTH))),
        "conv2d3x3": (lambda nm, x, k, b: nm.conv2d3x3(x, k, b),
                      arrays((side, side, WIDTH), (classes, WIDTH, 3, 3), (classes,))),
        "add": (lambda nm, a, b: nm.add(a, b), arrays((TOKENS, WIDTH), (WIDTH,))),
        "mul": (lambda nm, a, b: nm.mul(a, b), arrays((1, 1, TOKENS - 1), (1, 1, 1))),
        "scale": (lambda nm, x: nm.scale(x, 1.0 / (TOKENS - 1)), arrays((1, classes))),
        "reshape": (lambda nm, x: nm.reshape(x, (1, TOKENS, WIDTH)), arrays((TOKENS, WIDTH))),
        "take slice": (lambda nm, x: nm.take(x, (slice(None), slice(1, None))),
                       arrays((1, TOKENS, WIDTH))),
        "take": (lambda nm, x: nm.take(x, picked), arrays((1, TOKENS - 1, WIDTH))),
        "concat": (lambda nm, a, b: nm.concat([a, b], axis=1),
                   arrays((1, 1, WIDTH), (1, TOKENS - 1, WIDTH))),
        "reduce_sum": (lambda nm, x: nm.reduce_sum(x, axis=(-2, -1)),
                       arrays((1, classes, side, side))),
        "conv2d3x3 stack": (lambda nm, x, k, b: nm.conv2d3x3(x, k, b),
                            arrays((stack, side, side, WIDTH), (classes, WIDTH, 3, 3), (classes,))),
        "bilinear_resize": (lambda nm, m: nm.bilinear_resize(m, 4 * side, 4 * side),
                            arrays((stack, side, side))),
    }


def kernel_ops(packages: dict) -> dict:
    """Forward and backward of each kernel op on every side of `packages`
    whose numerics takes the case; see the module docstring."""
    import numpy as np

    out = {}
    for op, (call, args) in op_cases(np.random.default_rng(0)).items():
        sides, absent = {}, {}
        for side, package in packages.items():
            try:
                call(package.numerics, *args)
            except (TypeError, AttributeError, ValueError) as exc:
                absent[side] = f"{type(exc).__name__}: {exc}"
            else:
                sides[side] = package.numerics

        def forward(nm, call=call, args=args):
            return (lambda: None), (lambda _: call(nm, *args))

        def backward(nm, call=call, args=args):
            def prepare():
                tape = nm.GradTape()
                return tape, nm.reduce_sum(call(nm, *[tape.leaf(a) for a in args]))
            return prepare, lambda recorded: recorded[0].backward(recorded[1])

        untaped = {side: "records no tape step" for side, nm in sides.items()
                   if not isinstance(backward(nm)[0]()[1], nm.Node)}
        out[op] = {"absent": absent} if absent else {}
        for direction, build, skip in (("forward", forward, {}),
                                       ("backward", backward, untaped)) if sides else ():
            timed_sides = {side: build(nm) for side, nm in sides.items() if side not in skip}
            entry = out[op][direction] = timed(timed_sides, OP_REPEATS, 20) if timed_sides else {}
            if skip:
                entry["absent"] = skip
            elif not absent:
                entry["verdict"] = verdict(entry)
    return out


def tape_step(package) -> dict:
    """Records, held bytes after the forward and peak bytes of one taped
    phase-1 step through `package`; see the module docstring."""
    import tracemalloc

    training = importlib.import_module(f"{package.__name__}.training")
    toy = training.ToyTaskConfig(samples_per_epoch=training.TrainConfig().batch_size)
    cfg = training.default_model_config(toy)
    params, batch = training.init_params(cfg, 9), training.make_dataset(toy)
    tracemalloc.start()
    tape = package.numerics.GradTape()
    leaves = {name: tape.leaf(value) for name, value in params.items()
              if not name.startswith("cam.")}
    loss = training._batch_loss({**params, **leaves}, cfg, batch)
    records, (held, _) = len(tape), tracemalloc.get_traced_memory()
    training.backward(loss, tape, leaves)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"records": records, "held_bytes": held, "peak_bytes": peak}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workloads", default="evaluate,localize",
                        help=f"comma-separated subset of {','.join(WORKLOADS)}")
    parser.add_argument("--seconds", type=float, default=30.0, help="per workload")
    parser.add_argument("--seed", type=int, default=0, help="perfbench fixture seed")
    parser.add_argument("--out", help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(PERFBENCH)]
    from run import BLAS_THREAD_VARS, BLAS_THREADS
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, BLAS_THREADS))   # before numpy is imported
    import inputs
    from workloads import WORKLOADS as PERFBENCH_WORKLOADS

    names = args.workloads.split(",")
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload in {args.workloads!r}")

    inp = inputs.build(BUILD / "inputs", args.seed)
    inp.expected = inputs.load_expected(args.seed)
    base_rev = git("rev-parse", args.base)
    dirty = git("status", "--porcelain", "src/tokenloc") and " + uncommitted src/tokenloc changes"
    packages = {"base": load_package("tk_base", base_rev), "head": import_package("tokenloc"),
                "copy": load_package("tk_copy")}
    report = {"base_commit": base_rev, "head": git("rev-parse", "HEAD") + dirty,
              "src_tokenloc_lines": {"base": line_count(BUILD / "packages" / "tk_base"),
                                     "head": line_count(SRC / "tokenloc")},
              "machine": machine(),
              "method": (f"tools/ab.py on perfbench fixture seed {args.seed}: base, head and "
                         f"copy in rotating order each round, end to end {args.seconds:g} s per "
                         f"workload, stages {args.seconds / 3:g} s (at least {STAGE_ROUNDS} "
                         f"rounds) under cProfile, fresh processes {FRESH_ROUNDS} rounds; see "
                         "its docstring"),
              "end_to_end": {}, "stages": {}}
    correct = True
    for name in names:
        workload = PERFBENCH_WORKLOADS[name]
        e2e = report["end_to_end"][name] = compare(workload, packages, inp, args.seconds)
        stages = report["stages"][name] = profile_stages(workload, packages, inp,
                                                         args.seconds / 3)
        stages["plain_ms"] = {side: e2e[f"{side}_ms"]["median"] for side in packages}
        correct = correct and not any([*e2e["failed"].values(), *stages["failed"].values()])
    report["kernel_ops_us"] = kernel_ops(packages)
    report["tape_step"] = {side: tape_step(package) for side, package in packages.items()}
    report["fresh_process"] = fresh = fresh_process(fresh_sides(inp))
    correct = correct and not any(fresh["failed"].values())
    report["tier1"] = tier1()
    report["outputs_correct"] = correct
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    shutil.rmtree(BUILD, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
