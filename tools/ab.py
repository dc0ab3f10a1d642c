"""Paired in-process A/B of two tokenloc revisions, with an A/A noise floor.

    python3 tools/ab.py --base 238f820 --out BENCH_13.json
    python3 tools/ab.py --aa --seconds 20

Run from the repository root. The base revision's ``src/tokenloc`` is
extracted with ``git archive`` into ``.bench_build/ab/`` and imported as
``tk_base`` next to the working tree's ``tokenloc`` (the package uses only
relative imports). Each workload's requests go through both packages'
``cli.main`` on perfbench's inputs, in pairs whose order alternates, and
every command's outputs are checked by perfbench/workloads.py's own
``check`` (imported, never changed). Times are wall clock; the pairing
cancels slow drifts of the shared host, and perfbench's host-speed probe
runs alongside so that its spread is on record.

Each comparison is measured twice: base against the working tree (A/B),
then the working tree against a copy of itself (A/A). The A/A run is the
method's noise floor: an A/B median pair ratio inside the A/A quartiles
is reported as flat. ``--aa`` runs the A/A comparison alone.

Without ``--aa`` the report also holds stage timings of both revisions
on the fixture's held-out set: ``localization.heat_boxes`` on one stack
of 8 heats x 19 thresholds, on one plane whose run graph is a set of
chains and on one whose run graph forks (both at the fixture's
calibrated threshold), and ``token_refine.importance_weights`` (the
mask block) on the fixture's first 8 held-out images twice: unpadded,
under the checkpoint's adaptive rule (every image keeps the same
count), and padded, under perfbench's ``fixed:mean`` strategy (the
counts differ, so the block runs under a key-padding mask), with the
tracemalloc peak of
``evaluate_heats`` on all 50 heats. ``ablation.run_ablation`` in its
default mode (re-attention on and off) with perfbench's strategies on
all 50 images is timed base against head and, for its noise floor, head
against the A/A copy, and so are the writers: ``formats.write_tensor`` of
a 32 x 32 map and ``formats.write_checkpoint`` of perfbench's acceptance
checkpoint, each over an existing file in ``.bench_build/ab/``. What a
writer costs depends on the filesystem (rewriting a file in place avoids
truncating it to zero, which ext4 with ``auto_da_alloc`` makes dear and
tmpfs much less so), so the report names the filesystem and its mount
options. Last comes the kernel-op level: forward and
backward of each op of ``op_cases`` at the toy shapes (65 tokens, width
32, 4 heads), base against head and, for its noise floor, head against
the A/A copy. A backward is timed alone, on a tape recorded beforehand,
and includes the adjoint of the sum that reduces the op's output to a
scalar loss.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "ab"
WORKLOADS = ("evaluate", "localize", "train")
MODULES = ("ablation", "cli", "formats", "localization", "numerics", "pipeline", "token_refine")
STAGE_REPEATS = 60
ABLATION_REPEATS = 20
TOKENS, WIDTH, HEADS = 65, 32, 4


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def base_package(rev: str | None) -> str:
    """Write the base package as BUILD/<tag>/tk_base and return the tag:
    ``git archive`` of `rev`, or a copy of the working tree when None."""
    tag = "aa" if rev is None else "rev-" + rev.replace("/", "_")
    target = BUILD / tag / "tk_base"
    shutil.rmtree(target.parent, ignore_errors=True)
    target.parent.mkdir(parents=True)
    if rev is None:
        shutil.copytree(SRC / "tokenloc", target,
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        data = subprocess.run(["git", "archive", rev, "src/tokenloc"], cwd=ROOT, check=True,
                              capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(target.parent, filter="data")
        (target.parent / "src" / "tokenloc").rename(target)
        shutil.rmtree(target.parent / "src")
    return tag


def import_package(name: str):
    """Import package `name` with the MODULES this script reads."""
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return sys.modules[name]


def import_base(tag: str):
    """Import BUILD/<tag>/tk_base fresh, dropping any earlier tk_base."""
    for name in [m for m in sys.modules if m == "tk_base" or m.startswith("tk_base.")]:
        del sys.modules[name]
    sys.path.insert(0, str(BUILD / tag))
    try:
        return import_package("tk_base")
    finally:
        sys.path.pop(0)


def compare(workload, base, head, inp, seconds: float, host) -> dict:
    """Alternate base and head requests of `workload` for `seconds` (an
    even number of pairs, at least 10); per-request wall times in ms."""
    from workloads import call_cli, check, command_argv

    sides = {"base": base.cli, "head": head.cli}
    times = {side: [] for side in sides}
    failed = {side: [] for side in sides}
    states = {side: {} for side in sides}
    for side in sides:
        (BUILD / f"work-{side}").mkdir(parents=True, exist_ok=True)
    first_probe = host.mark()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 10 or i % 2 or time.perf_counter() < deadline:
        for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
            work = BUILD / f"work-{side}"
            total = 0.0
            for command in workload.commands:
                argv = command_argv(command, inp, work, i)
                start = time.perf_counter()
                code, stdout = call_cli(sides[side], argv)
                total += time.perf_counter() - start
                error = check(command, inp, work, i, code, stdout, states[side])
                if error:
                    failed[side].append(f"{command} #{i}: {error}")
            times[side].append(total * 1e3)
        i += 1
    ratios = [h / b for b, h in zip(times["base"], times["head"])]
    out = {"pairs": i, "host_probe": host.summary(first_probe)}
    for side in sides:
        out[f"{side}_ms"] = quartiles(times[side])
        out[f"{side}_images_per_s"] = (workload.images_per_request * 1e3
                                       / statistics.median(times[side]))
        out[f"{side}_failed"] = failed[side]
    out["pair_ratio_head_over_base"] = quartiles(ratios)
    out["head_faster_pairs"] = sum(r < 1.0 for r in ratios)
    return out


def verdict(ab: dict, aa: dict) -> str:
    ratio = ab["pair_ratio_head_over_base"]["median"]
    floor = aa["pair_ratio_head_over_base"]
    if floor["q1"] <= ratio <= floor["q3"]:
        return "flat (inside the A/A quartiles)"
    return "faster" if ratio < floor["q1"] else "slower"


def timed(cases: dict, repeats: int, inner: int) -> dict:
    """Median and quartiles in microseconds per call of each case, the
    cases interleaved and their order reversed every repeat. A case is a
    zero-argument callable, or a (prepare, run) pair: then `inner`
    prepare() results are made before the clock starts and run(prepared)
    is timed on each. With cases "base" and "head", the per-repeat ratio
    head / base is reported as ``pair_ratio_head_over_base``."""
    pairs = {name: case if isinstance(case, tuple) else (lambda: None, lambda _, f=case: f())
             for name, case in cases.items()}
    names = list(pairs)
    samples = {name: [] for name in names}
    for prepare, run in pairs.values():
        run(prepare())   # warm-up
    for r in range(repeats):
        for name in (names if r % 2 == 0 else names[::-1]):
            prepare, run = pairs[name]
            states = [prepare() for _ in range(inner)]
            start = time.perf_counter()
            for state in states:
                run(state)
            samples[name].append((time.perf_counter() - start) / inner * 1e6)
    out = {name: quartiles(values) for name, values in samples.items()}
    if {"base", "head"} <= samples.keys():
        out["pair_ratio_head_over_base"] = quartiles(
            [h / b for b, h in zip(samples["base"], samples["head"])])
    return out


def forks(mask) -> bool:
    """Whether a 2-D mask's run graph is more than a set of chains: some
    run touches two runs of the next row, or one that is not the next run
    in raster order (8-connectivity, half-open runs)."""
    import numpy as np

    runs = []
    for y, row in enumerate(mask):
        changes = np.flatnonzero(np.diff(np.concatenate(([0], row.astype(int), [0]))))
        runs += [(y, int(a), int(b)) for a, b in changes.reshape(-1, 2)]
    for i, (y, a, b) in enumerate(runs):
        below = [j for j, (y2, a2, b2) in enumerate(runs) if y2 == y + 1 and a2 <= b and a <= b2]
        if below not in ([], [i + 1]):
            return True
    return False


def mask_block_args(package, params, cfg, images, strategy=None) -> tuple:
    """``importance_weights`` arguments from `package`'s own forward of
    `images` under the selection `strategy` (a CLI strategy text; None is
    the checkpoint's adaptive rule): its (B, N) mask, or its selection
    record in revisions before the forward result carried the mask
    itself."""
    selector = (None if strategy is None
                else package.ablation.parse_strategy(strategy, cfg.selection_mass)[1])
    result = package.pipeline.two_branch_forward(params, cfg, images, selector=selector)
    selected = result.mask if hasattr(result, "mask") else result.selection
    return result.tokens[:, 1:], selected, params, cfg.num_heads


def stages(base, head, inp) -> dict:
    """Stage timings of both revisions; see the module docstring."""
    import numpy as np
    from workloads import ABLATE_STRATEGIES

    loc, base_loc = head.localization, base.localization
    cfg, params = head.formats.read_checkpoint(inp.checkpoint)
    samples = head.formats.parse_manifest(inp.manifest)
    side = cfg.image_size
    heats = np.concatenate([loc.class_heats(result.refined_map, result.cam_maps, labels, side)
                            for labels, result in head.pipeline.forward_chunks(params, cfg,
                                                                               samples)])
    thetas = loc.threshold_grid(*loc.DEFAULT_GRID)
    theta = float(inp.expected["theta_star"])

    forked = [forks(heat >= np.float32(theta)) for heat in heats]
    chain_plane, fork_plane = heats[forked.index(False)], heats[forked.index(True)]
    box_cases = {"stack_8x19": (heats[:8], thetas), "chain_plane": (chain_plane, [theta]),
                 "forked_plane": (fork_plane, [theta])}
    out = {"forked_planes_at_theta_star": f"{sum(forked)} of {len(forked)}"}
    for case, (stack, case_thetas) in box_cases.items():
        got = loc.heat_boxes(stack, case_thetas, side, side)
        want = base_loc.heat_boxes(stack, case_thetas, side, side)
        same = all(np.array_equal(a, b) for a, b in zip(got, want))
        out[f"heat_boxes.{case}"] = {"identical": same, **timed({
            "base": lambda: base_loc.heat_boxes(stack, case_thetas, side, side),
            "head": lambda: loc.heat_boxes(stack, case_thetas, side, side)},
            STAGE_REPEATS, 20 if stack.ndim == 2 else 4)}

    images = np.stack([image for image, _, _ in samples[:8]])
    # the mask block on an unpadded stack, and on a stack of mixed counts that pads:
    # perfbench's second ablation strategy, fixed:mean
    mixed = ABLATE_STRATEGIES.split(",")[1]
    for case, strategy in (("mask_block", None), ("mask_block_mixed", mixed)):
        args = {name: mask_block_args(package, params, cfg, images, strategy)
                for name, package in (("base", base), ("head", head))}
        counts = np.asarray(args["head"][1]).sum(axis=-1)
        same = np.array_equal(head.token_refine.importance_weights(*args["head"]),
                              base.token_refine.importance_weights(*args["base"]))
        out[case] = {"strategy": strategy or "adaptive",
                     "selected_per_image": sorted(set(counts.astype(int).tolist())),
                     "identical": same, **timed({
                         "base": lambda a=args: base.token_refine.importance_weights(*a["base"]),
                         "head": lambda a=args: head.token_refine.importance_weights(*a["head"])},
                         STAGE_REPEATS, 10)}

    gts = [gt for _, _, gt in samples]
    peaks = {}
    for name, module in (("base", base_loc), ("head", loc)):
        tracemalloc.start()
        try:
            module.evaluate_heats(list(heats), gts, thetas, side)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    out["evaluate_heats_tracemalloc_peak_bytes"] = peaks
    return out


def ablation_stage(packages: dict, head, inp) -> dict:
    """``run_ablation`` in its default mode on the held-out set, base
    against head for each of `packages` ("ab": the base revision, "aa":
    the copy of the working tree), with the rows of both checked equal."""
    from workloads import ABLATE_STRATEGIES

    cfg, params = head.formats.read_checkpoint(inp.checkpoint)
    samples = head.formats.parse_manifest(inp.manifest)

    def run(package):
        strategies = [package.ablation.parse_strategy(text, cfg.selection_mass)
                      for text in ABLATE_STRATEGIES.split(",")]
        return lambda: package.ablation.run_ablation(params, cfg, samples, strategies)

    out = {"strategies": ABLATE_STRATEGIES, "images": len(samples)}
    for kind, base in packages.items():
        same = run(base)() == run(head)()
        out[kind] = {"identical": same, **timed({"base": run(base), "head": run(head)},
                                                ABLATION_REPEATS, 1)}
    if "ab" in out:
        out["verdict"] = verdict(out["ab"], out["aa"])
    return out


def filesystem(path: Path) -> str:
    """Type and mount options of the filesystem holding `path`, read from
    /proc/self/mounts ("unknown" where there is none)."""
    path, best = path.resolve(), ("", "unknown")
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, mount, kind, options = line.split()[:4]
                inside = path == Path(mount) or Path(mount) in path.parents
                if inside and len(mount) >= len(best[0]):
                    best = (mount, f"{kind} {options} (mounted on {mount})")
    except OSError:
        pass
    return best[1]


def write_stage(packages: dict, head) -> dict:
    """The writers over existing files of BUILD, base against head for
    each of `packages` as in ``ablation_stage``, with the bytes of both
    checked equal; see the module docstring."""
    import numpy as np

    cfg, params = head.formats.read_checkpoint(PERFBENCH / "data" / "acceptance.ckpt")
    heat = np.random.default_rng(0).random((32, 32), dtype=np.float32)
    cases = {"write_tensor_32x32": lambda formats, path: formats.write_tensor(path, heat),
             "write_checkpoint_acceptance":
                 lambda formats, path: formats.write_checkpoint(path, cfg, params)}
    out = {"filesystem": filesystem(BUILD),
           "note": "the writers rewrite each file in place instead of truncating it to zero "
                   "first; what that saves depends on the filesystem named here (much on "
                   "ext4 with auto_da_alloc, far less on tmpfs)"}
    for case, write in cases.items():
        def run(package, side, case=case, write=write):
            path = BUILD / f"{case}-{side}"
            write(package.formats, path)   # the file exists before the clock starts
            return lambda: write(package.formats, path)

        entry = out[case] = {}
        for kind, base in packages.items():
            runs = {"base": run(base, "base"), "head": run(head, "head")}
            same = (BUILD / f"{case}-base").read_bytes() == (BUILD / f"{case}-head").read_bytes()
            entry[kind] = {"identical": same, **timed(runs, STAGE_REPEATS, 20)}
        if "ab" in entry:
            entry["verdict"] = verdict(entry["ab"], entry["aa"])
    return out


def op_cases(rng) -> dict:
    """(call(nm, *args), args) per kernel op at the toy shapes: a
    (65, 32) @ (32, 32) product, softmax over (4, 65, 65) scores, 4-head
    attention over one (65, 32) sequence, layer_norm over (65, 32), gelu
    over the (65, 128) MLP hidden layer, the CAM's 3x3 convolution of the
    8 x 8 x 32 token grid into 2 maps, and an 8 x 8 -> 32 x 32 resize;
    then the shape ops as the pipeline calls them: a linear layer's bias
    add, the mask block's (1, 64) x (1, 1) reweighting, a (1, 64) scale,
    (65, 32) rows to one (1, 65, 32) sequence, cropping the class token
    off, taking 42 of the 64 patch tokens, the class token concatenated
    in front of them, and a (1, 64) sum over tokens."""
    import numpy as np

    side = math.isqrt(TOKENS - 1)
    kept = 42  # the selected-token count of the toy checkpoints

    def arrays(*shapes):
        return [rng.standard_normal(shape).astype("float32") for shape in shapes]

    picked = (np.zeros((1, 1), np.intp), np.sort(rng.permutation(TOKENS - 1)[:kept])[None])

    return {
        "matmul": (lambda nm, a, b: nm.matmul(a, b), arrays((TOKENS, WIDTH), (WIDTH, WIDTH))),
        "softmax": (lambda nm, x: nm.softmax(x), arrays((HEADS, TOKENS, TOKENS))),
        "attention": (lambda nm, q, k, v: nm.attention(q, k, v, HEADS)[0],
                      arrays(*[(1, TOKENS, WIDTH)] * 3)),
        "layer_norm": (lambda nm, x, g, b: nm.layer_norm(x, g, b),
                       arrays((TOKENS, WIDTH), (WIDTH,), (WIDTH,))),
        "gelu": (lambda nm, x: nm.gelu(x), arrays((TOKENS, 4 * WIDTH))),
        "conv2d3x3": (lambda nm, x, k, b: nm.conv2d3x3(x, k, b),
                      arrays((side, side, WIDTH), (2, WIDTH, 3, 3), (2,))),
        "bilinear_resize": (lambda nm, m: nm.bilinear_resize(m, 4 * side, 4 * side),
                            arrays((side, side))),
        "add": (lambda nm, a, b: nm.add(a, b), arrays((TOKENS, WIDTH), (WIDTH,))),
        "mul": (lambda nm, a, b: nm.mul(a, b), arrays((1, TOKENS - 1), (1, 1))),
        "scale": (lambda nm, x: nm.scale(x, 1.0 / HEADS), arrays((1, TOKENS - 1))),
        "reshape": (lambda nm, x: nm.reshape(x, (1, TOKENS, WIDTH)), arrays((TOKENS, WIDTH))),
        "crop": (lambda nm, x: nm.crop(x, (0, 1, 0), (1, TOKENS - 1, WIDTH)),
                 arrays((1, TOKENS, WIDTH))),
        "take": (lambda nm, x: nm.take(x, picked), arrays((1, TOKENS - 1, WIDTH))),
        "concat": (lambda nm, a, b: nm.concat([a, b], axis=1),
                   arrays((1, 1, WIDTH), (1, TOKENS - 1, WIDTH))),
        "reduce_sum": (lambda nm, x: nm.reduce_sum(x, axis=-1, keepdims=True),
                       arrays((1, TOKENS - 1))),
    }


def kernel_ops(packages: dict, head) -> dict:
    """Forward and backward of each kernel op, base against head for each
    of `packages` as in ``ablation_stage``; see the module docstring."""
    import numpy as np

    out = {}
    for op, (call, args) in op_cases(np.random.default_rng(0)).items():
        def forward(nm, call=call, args=args):
            return lambda: call(nm, *args)

        def backward(nm, call=call, args=args):
            def prepare():
                tape = nm.GradTape()
                return tape, nm.reduce_sum(call(nm, *[tape.leaf(a) for a in args]))
            return prepare, lambda recorded: recorded[0].backward(recorded[1])

        out[op] = {}
        for direction, build in (("forward", forward), ("backward", backward)):
            entry = out[op][direction] = {
                kind: timed({"base": build(base.numerics), "head": build(head.numerics)},
                            STAGE_REPEATS, 20)
                for kind, base in packages.items()}
            if "ab" in entry:
                entry["verdict"] = verdict(entry["ab"], entry["aa"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--aa", action="store_true",
                        help="compare the working tree with a copy of itself only")
    parser.add_argument("--workloads", default="evaluate,localize",
                        help=f"comma-separated subset of {','.join(WORKLOADS)}")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="per workload and comparison")
    parser.add_argument("--seed", type=int, default=0, help="perfbench fixture seed")
    parser.add_argument("--out", help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"   # as perfbench/run.py, before numpy is imported
    sys.path[:0] = [str(SRC), str(PERFBENCH)]
    import inputs
    from hostspeed import HostSpeed
    from run import machine_block
    from workloads import WORKLOADS as PERFBENCH_WORKLOADS

    head = import_package("tokenloc")
    names = args.workloads.split(",")
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")

    BUILD.mkdir(parents=True, exist_ok=True)
    inp = inputs.build(BUILD / "inputs", args.seed)
    inp.expected = inputs.load_expected(args.seed)
    base_rev = None if args.aa else subprocess.run(
        ["git", "rev-parse", args.base], cwd=ROOT, check=True, capture_output=True,
        text=True).stdout.strip()
    head_rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain", "src/tokenloc"], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout.strip())

    report = {"base_commit": base_rev or "working tree (A/A)",
              "head": f"{head_rev}{' + uncommitted src/tokenloc changes' if dirty else ''}",
              "machine": machine_block(),
              "method": ("in-process: base imported as tk_base next to tokenloc; per "
                         "workload, requests (all of the workload's commands on perfbench "
                         f"fixture seed {args.seed}) sent in pairs for {args.seconds:g} s, "
                         "order alternating; wall ms per request; outputs checked by "
                         "perfbench/workloads.py. A/A: the working tree against a copy of "
                         "itself, measured right after the A/B of the same workload."),
              "end_to_end": {}}
    sides = [("aa", None)] if args.aa else [("ab", base_rev), ("aa", None)]
    packages = {kind: import_base(base_package(rev)) for kind, rev in sides}
    correct = True
    with HostSpeed() as host:
        for name in names:
            entry = report["end_to_end"][name] = {}
            for kind, _ in sides:
                entry[kind] = compare(PERFBENCH_WORKLOADS[name], packages[kind], head, inp,
                                      args.seconds, host)
                correct = correct and not (entry[kind]["base_failed"]
                                           or entry[kind]["head_failed"])
            if not args.aa:
                entry["verdict"] = verdict(entry["ab"], entry["aa"])
        report["ablation_us"] = ablation_stage(packages, head, inp)
        report["writes_us"] = write_stage(packages, head)
        if not args.aa:
            report["stages_us"] = stages(packages["ab"], head, inp)
        report["kernel_ops_us"] = kernel_ops(packages, head)
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
