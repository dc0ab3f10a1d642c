"""Record the golden output hashes that tests/test_golden.py checks.

    python3 tools/golden.py

Run from the repository root, at the commit whose outputs are the
reference. For perfbench fixtures 0 and 3 (built by perfbench/inputs.py)
it runs the command matrix of ``commands`` in-process through
``tokenloc.cli.main`` and writes tests/data/golden.json: per fixture and
command, the exit code and the SHA-256 of stdout, stderr and every file
the command wrote, plus the machine block (Python, numpy, scipy, BLAS,
the OpenBLAS core and numpy's active SIMD targets) of the recording.
Re-record only for a deliberate change of output bits, and list each
changed hash with its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden.json"
FIXTURES = (0, 3)
# six strategies covering every rule and the edges of topk (1 and all 64 tokens) and fixed
SIX_STRATEGIES = "adaptive,adaptive:0.3,topk:1,topk:64,fixed:0,fixed:mean"


class Out(str):
    """An output file name, placed in the directory of the command using it."""


def commands(inp, out) -> list:
    """(name, argv) of each command on one fixture's inputs `inp`; the
    command named `name` writes its files into out(name)'s directory."""
    ckpt = ["--ckpt", inp.checkpoint]
    manifest = ckpt + ["--manifest", inp.manifest]
    img0, img1 = inp.images[0], inp.images[1]
    rows = [
        ("train-toy", ["--toy-config", inp.toy_config, "--train-config", inp.train_config,
                       "--out-ckpt", Out("train.ckpt"), "--out-curve", Out("curve.csv")]),
        ("calibrate", manifest + ["--out-table", Out("table.csv")]),
        ("calibrate --grid 0.1:0.9:0.2 --u 0.4",
         manifest + ["--grid", "0.1:0.9:0.2", "--u", "0.4", "--out-table", Out("table.csv")]),
        ("eval --theta grid", manifest + ["--theta", "grid", "--out-report", Out("report.csv")]),
        ("eval --theta 0.5 --u 0.8 --metrics maxboxaccv2,gt-known",
         manifest + ["--theta", "0.5", "--u", "0.8", "--metrics", "maxboxaccv2,gt-known",
                     "--out-report", Out("report.csv")]),
        # the matrix's own checkpoint: its top class misses the label on some images, so
        # this row reaches eval's predicted-class heats
        ("eval --theta grid --metrics top1,top5 (train-toy checkpoint)",
         ["--ckpt", out("train-toy") / "train.ckpt", "--manifest", inp.manifest,
          "--theta", "grid", "--metrics", "top1,top5", "--out-report", Out("report.csv")]),
        (f"ablate-selection --strategies {SIX_STRATEGIES}",
         manifest + ["--strategies", SIX_STRATEGIES, "--out-table", Out("table.csv")]),
        ("ablate-selection --reattention on",
         manifest + ["--strategies", "adaptive:0.65,fixed:mean", "--reattention", "on",
                     "--out-table", Out("table.csv")]),
        ("ablate-selection --reattention off --grid 0.2:0.8:0.3",
         manifest + ["--strategies", "adaptive:0.9,topk:8", "--reattention", "off",
                     "--grid", "0.2:0.8:0.3", "--out-table", Out("table.csv")]),
        ("localize --class auto",
         ckpt + ["--input", img0, "--class", "auto", "--theta", "0.3",
                 "--out-box", Out("box.txt"), "--out-map", Out("map.trt")]),
        ("localize --class 1 --u 0.5", ckpt + ["--input", img1, "--class", "1", "--u", "0.5",
                                               "--theta", "0.5", "--out-box", Out("box.txt")]),
        ("infer", ckpt + ["--input", img0, "--out-logits", Out("p_cam.trt"),
                          "--out-pt", Out("p_t.trt")]),
        ("infer --u 0.9", ckpt + ["--input", img1, "--u", "0.9",
                                  "--out-logits", Out("p_cam.trt"), "--out-pt", Out("p_t.trt")]),
        ("heatmap", ["--map", out("localize --class auto") / "map.trt", "--image", img0,
                     "--alpha", "0.5", "--out", Out("overlay.ppm")]),
    ]
    return [(name, [name.split()[0]] + [out(name) / a if isinstance(a, Out) else a
                                        for a in argv])
            for name, argv in rows]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_fixture(cli, inputs, seed: int, work: Path, stale: bytes = b"") -> dict:
    """{command name: {"exit": code, "stdout": sha, "stderr": sha, <file>: sha}}
    for one fixture, built and run under `work`; with `stale`, each output
    path holds those bytes before its command runs."""
    inp = inputs.build(work / "inputs", seed)
    dirs = {}

    def out(name):
        return dirs.setdefault(name, work / f"cmd{len(dirs)}")

    hashes = {}
    for name, argv in commands(inp, out):
        out(name).mkdir()
        for path in argv:
            if stale and isinstance(path, Path) and path.parent == out(name):
                path.write_bytes(stale)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([str(a) for a in argv])
        hashes[name] = {"exit": code, "stdout": _sha(stdout.getvalue().encode()),
                        "stderr": _sha(stderr.getvalue().encode()),
                        **{path.name: _sha(path.read_bytes())
                           for path in sorted(out(name).iterdir())}}
    return hashes


def run_matrix(work: Path, stale: bytes = b"") -> dict:
    """{fixture seed: run_fixture(...)} over FIXTURES; `work` must be empty."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import inputs
        import tokenloc.cli as cli
    finally:
        del sys.path[:2]
    return {str(seed): run_fixture(cli, inputs, seed, work / f"fixture{seed}", stale)
            for seed in FIXTURES}


def openblas_core() -> str:
    """The CPU kernel set that numpy's bundled OpenBLAS runs ("SkylakeX",
    "Haswell", ...; OPENBLAS_CORETYPE overrides it), or "unknown"."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):   # not loadable, or no such symbol
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def simd_targets() -> list:
    """numpy's SIMD dispatch targets that this CPU runs, less those that
    NPY_DISABLE_CPU_FEATURES turns off."""
    import numpy as np

    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath   # numpy 2 or 1
    return [target for target in getattr(umath, "__cpu_dispatch__", [])
            if umath.__cpu_features__.get(target)]


def machine() -> dict:
    """What the output bits may depend on besides the code."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "machine": platform.machine(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "openblas_core": openblas_core(), "numpy_simd": simd_targets()}


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="golden-"))
    try:
        outputs = run_matrix(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps({"machine": machine(), "outputs": outputs}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(ROOT)}: {sum(map(len, outputs.values()))} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
