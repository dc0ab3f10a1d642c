"""Record the expected outputs that the benchmark's checks compare against.

Run once, from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record.py

For every fixture (see inputs.py) it runs, through ``tokenloc.cli.main``,
one ``train-toy`` command, each evaluation command on the 50 held-out
images (``calibrate`` also gives theta* for ``localize``), and ``infer``
on each image. It stores their outputs in perfbench/data/expected.json. It
takes about 25 s per fixture on one core.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import tokenloc.cli as cli  # noqa: E402

import inputs  # noqa: E402
from workloads import call_cli, command_argv  # noqa: E402


def _run(command: str, inp, work: Path, i: int) -> str:
    code, stdout = call_cli(cli, command_argv(command, inp, work, i))
    if code != 0:
        raise SystemExit(f"{command} on {inp.root} (index {i}) exited {code}")
    return stdout


def record_fixture(k: int, work: Path) -> dict:
    inp = inputs.build(work / "inputs", k)
    _run("train-toy", inp, work, 0)
    fixture = {"train_curve": (work / "curve.csv").read_text()}
    calibrate_stdout = _run("calibrate", inp, work, 0)
    _run("eval", inp, work, 0)
    _run("ablate-selection", inp, work, 0)
    fixture.update({
        "theta_star": calibrate_stdout.strip().split("=", 1)[1],   # for localize
        "calibrate_table": (work / "calibrate.csv").read_text(),
        "calibrate_stdout": calibrate_stdout,
        "eval_report": (work / "report.csv").read_text(),
        "ablate_table": (work / "ablation.csv").read_text(),
    })
    fixture["infer"] = []
    for i in range(inputs.HELDOUT_IMAGES):
        _run("infer", inp, work, i)
        probs = np.concatenate([inputs.read_tensor(work / "p_cam.trt"),
                                inputs.read_tensor(work / "p_refine.trt")])
        fixture["infer"].append([float(f"{p:.9g}") for p in probs])
    return fixture


def main_record() -> None:
    work = HERE.parent / ".bench_build" / "perfbench" / "record"
    fixtures = []
    try:
        for k in range(inputs.SEED_SPACE):
            fixtures.append(record_fixture(k, work))
            print(f"fixture {k}: theta*={fixtures[-1]['theta_star']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rows = ",\n".join(json.dumps(f, separators=(",", ":")) for f in fixtures)
    inputs.EXPECTED.write_text('{"fixtures": [\n' + rows + "\n]}\n", encoding="utf-8")


if __name__ == "__main__":
    main_record()
