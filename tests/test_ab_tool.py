"""tools/ab.py's stage level, the working tree against a copy of itself on
one `localize` request (localize, then infer) of perfbench fixture 0, and
its kernel-op cases."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the stages each command of the request reaches
REACHED = {
    "localize": {"checkpoint decode", "image read", "embed", "backbone blocks", "TPSM priority",
                 "selection", "mask block", "re-attention", "CAM", "fuse+resize", "components",
                 "output writes"},
    "infer": {"checkpoint decode", "image read", "embed", "backbone blocks", "TPSM priority",
              "selection", "mask block", "refine head", "CAM", "output writes"},
}


@pytest.fixture()
def ab(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # write only under tmp_path
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BUILD", tmp_path / "ab")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    yield module
    for name in [m for m in sys.modules if m == "tk_base" or m.startswith("tk_base.")]:
        del sys.modules[name]


def test_stage_level_reaches_every_stage_of_the_request_on_both_sides(ab):
    import inputs
    from workloads import WORKLOADS

    inp = inputs.build(ab.BUILD / "inputs", 0)
    inp.expected = inputs.load_expected(0)
    packages = {"base": ab.import_base(ab.base_package(None)),
                "head": ab.import_package("tokenloc")}
    out = ab.profile_stages(WORKLOADS["localize"], packages, inp, seconds=0.0, pairs=1)
    # perfbench's check passed every output of both sides
    assert out["failed"] == {"base": [], "head": []}
    assert out["absent"] == []
    assert list(out["commands"]) == list(REACHED)
    for command, stages in REACHED.items():
        entry = out["commands"][command]
        for side in packages:
            rows = entry[side]["stages"]
            assert set(rows) == stages, (command, side)
            assert all(row["calls"] > 0 for row in rows.values()), (command, side)
        assert set(entry["not_reached"]) == set(ab.STAGES) - stages
    assert sorted(path.name for path in ab.BUILD.iterdir()) == ["aa", "inputs", "work-base",
                                                                "work-head"]


def test_every_kernel_op_case_runs_forward_and_backward(ab):
    import numpy as np
    from tokenloc import numerics as nm

    for op, (call, args) in ab.op_cases(np.random.default_rng(0)).items():
        tape = nm.GradTape()
        leaves = [tape.leaf(arg) for arg in args]
        tape.backward(nm.reduce_sum(call(nm, *leaves)))
        assert all(leaf.grad is not None for leaf in leaves), op


@pytest.mark.parametrize("output, counts", [
    ("....\n664 passed in 31.53s\n", {"passed": 664, "failed": 0}),
    ("F.\nFAILED tests/x.py::t\n1 failed, 663 passed, 2 warnings in 30.10s\n",
     {"passed": 663, "failed": 1, "warnings": 2}),
    ("E\n1 error in 0.50s\n", {"passed": 0, "failed": 0, "errors": 1}),
    ("2 failed, 5 passed, 1 skipped, 3 errors in 3723.00s (1:02:03)\n",
     {"passed": 5, "failed": 2, "skipped": 1, "errors": 3}),
    ("", {"passed": 0, "failed": 0}),
], ids=["passed", "failed", "error", "every kind", "no output"])
def test_tier1_counts_read_pytest_s_summary_line(ab, output, counts):
    assert ab.tier1_counts(output) == counts


def test_line_count_counts_newlines_of_the_package_files(ab, tmp_path):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text("z = 3\n")
    (tmp_path / "notes.txt").write_text("not counted\n")
    assert ab.line_count(tmp_path) == 3
