"""tokenloc benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from the repository root. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced loop with ``--trace 1``. perfbench/README.md describes
the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"     # one client; the matrices are at most 65 x 64
SETUP_REPEATS = 15
# Each command's own numbers, printed by name: (command, statistic, name, unit).
COMMAND_METRICS = (
    ("train-toy", "images_per_s", "train_images_per_s", "1/s"),
    ("calibrate", "images_per_s", "calibrate_images_per_s", "1/s"),
    ("eval", "images_per_s", "eval_images_per_s", "1/s"),
    ("ablate-selection", "images_per_s", "ablate_images_per_s", "1/s"),
    ("localize", "ms_p50", "localize_ms_p50", "ms"),
    ("localize", "ms_p90", "localize_ms_p90", "ms"),
    ("infer", "ms_p50", "infer_ms_p50", "ms"),
    ("infer", "ms_p90", "infer_ms_p90", "ms"),
)


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def machine_block() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "commit": commit}


def request_loop(wl, inp, work, seconds, state, cli, host):
    """Send requests back to back for `seconds`, then finish the current
    pass over the inputs.

    Returns ([(command, seconds, error or None)] per command,
    [seconds] per request), in seconds scaled by the host-speed probe.
    """
    from workloads import call_cli, check, command_argv

    commands, requests = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or i % wl.round_size or time.perf_counter() < deadline:
        total = 0.0
        for command in wl.commands:
            mark, start = host.mark(), time.perf_counter()
            try:
                code, stdout = call_cli(cli, command_argv(command, inp, work, i))
                elapsed = host.scale(mark, time.perf_counter() - start)
                error = check(command, inp, work, i, code, stdout, state)
            except Exception:  # a crash is one failed command; keep measuring
                elapsed = host.scale(mark, time.perf_counter() - start)
                error = traceback.format_exc(limit=4)
            commands.append((command, elapsed, error))
            total += elapsed
        requests.append(total)
        i += 1
    return commands, requests


def by_command(wl, commands) -> dict:
    """Throughput and latency of each command kind in a loop."""
    out = {}
    for kind in wl.commands:
        times = [elapsed for command, elapsed, _ in commands if command == kind]
        out[kind] = {"images_per_s": wl.images_per_request * len(times) / sum(times),
                     "ms_p50": _percentile(times, 50) * 1e3,
                     "ms_p90": _percentile(times, 90) * 1e3, "count": len(times)}
    return out


def run_workload(wl, seed, seconds, trace, work, cli, host) -> dict:
    import inputs
    from tracer import Tracer, layer_metrics
    from workloads import call_cli, command_argv

    expected = inputs.load_expected(seed)
    first_probe = host.mark()
    setups, setup_errors = [], []
    for _ in range(SETUP_REPEATS):
        mark, start = host.mark(), time.perf_counter()
        inp = inputs.build(work / "inputs", seed)
        inp.expected = expected
        code, _ = call_cli(cli, command_argv("infer", inp, work, 0))
        setups.append(host.scale(mark, time.perf_counter() - start))
        if code != 0:
            setup_errors.append(f"set-up infer exited {code}")

    state = {}
    commands, requests = request_loop(wl, inp, work, seconds, state, cli, host)
    loops = [commands]
    metrics = {
        "images_per_s": (wl.images_per_request * len(requests) / sum(requests), "1/s"),
        "request_ms_p50": (_percentile(requests, 50) * 1e3, "ms"),
        "request_ms_p90": (_percentile(requests, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    layers, trace_file = None, None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_requests = request_loop(wl, inp, work, seconds, state, cli, host)
        finally:
            tracer.uninstall()
        loops.append(traced)
        layers = layer_metrics(tracer, len(traced_requests))
        overhead = statistics.mean(traced_requests) / statistics.mean(requests) - 1.0
        layers["trace.overhead_pct"] = (overhead * 100.0, "%")
        trace_file = SCRATCH / f"trace-{wl.name}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": wl.name, "seed": seed, "requests": len(traced_requests),
            "unpatched": tracer.unpatched, "counts": dict(tracer.counts),
            "per_command": tracer.per_command, "spans": tracer.table()}, indent=1) + "\n",
            encoding="utf-8")

    errors = setup_errors + [error for loop in loops for _, _, error in loop if error]
    attempted = SETUP_REPEATS + sum(len(loop) for loop in loops)
    return {"workload": wl.name, "seed": seed, "fixture": inputs.fixture_index(seed),
            "attempted": attempted, "failed": len(errors), "errors": errors,
            "metrics": metrics, "by_command": by_command(wl, commands), "layers": layers,
            "trace_file": trace_file, "host": host.summary(first_probe)}


def command_metrics(result) -> dict:
    """The per-command metrics of this workload's commands."""
    return {name: (result["by_command"][command][stat], unit)
            for command, stat, name, unit in COMMAND_METRICS if command in result["by_command"]}


def print_report(result) -> None:
    print(f"workload {result['workload']}: seed {result['seed']} (fixture {result['fixture']}), "
          f"{result['attempted']} commands, {result['failed']} failed, "
          f"fail_frac {result['failed'] / result['attempted']:.4g}")
    print("  host probe: " + json.dumps(result["host"]))
    for metric, (value, unit) in result["metrics"].items():
        print(f"  {metric:<42} {value:>14.6g} {unit}")
    for metric, (value, unit) in command_metrics(result).items():
        print(f"  {metric:<42} {value:>14.6g} {unit}")
    for metric, (value, unit) in (result["layers"] or {}).items():
        print(f"  {metric:<42} {value:>14.6g} {unit}")
    if result["trace_file"]:
        print(f"  spans written to {result['trace_file']}")
    for error in result["errors"][:5]:
        print(f"error: {error.strip()}", file=sys.stderr)


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the acceptance fixture")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS      # before numpy is imported
    sys.path.insert(0, str(HERE))
    missing = [p for p in (SRC / "tokenloc" / "__init__.py", HERE / "data" / "expected.json",
                           HERE / "data" / "acceptance.ckpt") if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import tokenloc.cli as cli
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = SCRATCH / f"run-{os.getpid()}"
    results = []
    try:
        work.mkdir(parents=True, exist_ok=True)
        print("machine: " + json.dumps(machine_block()))
        with HostSpeed() as host:
            for name in names:
                results.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                            args.trace, work, cli, host))
                print_report(results[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    key = "layers" if args.trace else "metrics"
    if len(results) == 1:
        metrics = results[0][key]
    else:   # every workload: prefix each metric, and add the per-command ones
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r[key].items()}
        for r in results:
            metrics.update({} if args.trace else command_metrics(r))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
