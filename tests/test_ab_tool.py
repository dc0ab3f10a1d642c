"""tools/ab.py: the rotation of the sides in each round, the ratio sets of a
report entry, the stage level on three copies of the working tree for one
`localize` request (localize, then infer) of perfbench fixture 0, its
kernel-op cases, its tape row, its machine block, and its fresh-process
level on fake child commands."""

import importlib.util
import os
import sys
import time
import types
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
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    yield module
    for name in [m for m in sys.modules if m.split(".")[0] in ("tk_base", "tk_copy")]:
        del sys.modules[name]


SIDES = ("base", "head", "copy")


def assert_each_side_in_each_position_equally_often(order, rounds):
    """`order` lists the sides as they ran, one round of SIDES after another."""
    assert len(order) == rounds * len(SIDES)
    for position in range(len(SIDES)):
        seen = [order[r * len(SIDES) + position] for r in range(rounds)]
        assert {side: seen.count(side) for side in SIDES} == dict.fromkeys(
            SIDES, rounds // len(SIDES)), position


def fake_packages(order) -> dict:
    """Sides whose ``cli.main`` appends the side to `order` and exits 1,
    which perfbench's check fails without reading an output, after 2 ms:
    the host-speed probe of the end-to-end level fires every 10 ms."""
    def package(side):
        def main(argv):
            order.append(side)
            time.sleep(0.002)
            return 1
        return types.SimpleNamespace(cli=types.SimpleNamespace(main=main))
    return {side: package(side) for side in SIDES}


FAKE_INPUTS = types.SimpleNamespace(images=["image.trt"] * 50, checkpoint="c.ckpt",
                                    manifest="m.manifest")


def test_run_pairs_rotates_the_sides_through_every_position(ab):
    order = []
    # asked for 4 rounds, it ends the rotation at 6
    times, failed = ab.run_pairs(["calibrate"], fake_packages(order), FAKE_INPUTS,
                                 lambda i: i < 4)
    assert_each_side_in_each_position_equally_often(order, 6)
    assert all(len(times[side, "calibrate"]) == 6 for side in SIDES)
    assert failed == {side: [f"calibrate #{i}: calibrate exit code 1" for i in range(6)]
                      for side in SIDES}


def test_end_to_end_entry_carries_head_s_ratios_to_base_and_copy_and_a_verdict(ab):
    order = []
    workload = types.SimpleNamespace(commands=("calibrate",), images_per_request=50)
    entry = ab.compare(workload, fake_packages(order), FAKE_INPUTS, seconds=0.0)
    # 10 rounds at least, to the end of the rotation
    assert entry["rounds"] == 12 and len(order) == 36
    assert all(len(entry["failed"][side]) == 12 for side in SIDES)
    for key in ("ratio_head_over_base", "ratio_head_over_copy", *(f"{side}_ms" for side in SIDES)):
        assert set(entry[key]) == {"q1", "median", "q3"}, key
    assert entry["verdict"] == ab.verdict(entry)


def test_timed_rotates_the_sides_and_reports_head_s_ratios_to_base_and_copy(ab):
    order = []
    cases = {side: (lambda: None, lambda _, side=side: order.append(side)) for side in SIDES}
    entry = ab.timed(cases, repeats=6, inner=1)
    assert order[:3] == list(SIDES)   # the warm-up
    assert_each_side_in_each_position_equally_often(order[3:], 6)
    assert set(entry) == {*SIDES, "ratio_head_over_base", "ratio_head_over_copy"}
    for key in entry:
        assert set(entry[key]) == {"q1", "median", "q3"}, key
    assert ab.verdict(entry) in ("flat (inside the A/A quartiles)", "faster", "slower")


def test_stage_level_reaches_every_stage_of_the_request_on_every_side(ab):
    import inputs
    from workloads import WORKLOADS

    inp = inputs.build(ab.BUILD / "inputs", 0)
    inp.expected = inputs.load_expected(0)
    packages = {"base": ab.load_package("tk_base"), "head": ab.import_package("tokenloc"),
                "copy": ab.load_package("tk_copy")}
    assert list(packages) == list(SIDES)
    out = ab.profile_stages(WORKLOADS["localize"], packages, inp, seconds=0.0, rounds=1)
    # one whole rotation; perfbench's check passed every output of every side
    assert out["rounds"] == 3
    assert out["failed"] == {side: [] for side in SIDES}
    assert out["absent"] == []
    assert list(out["commands"]) == list(REACHED)
    for command, stages in REACHED.items():
        entry = out["commands"][command]
        assert "verdict" not in entry
        assert {"ratio_head_over_base", "ratio_head_over_copy"} <= set(entry)
        for side in packages:
            rows = entry[side]["stages"]
            assert set(rows) == stages, (command, side)
            assert all(row["calls"] > 0 for row in rows.values()), (command, side)
        assert set(entry["not_reached"]) == set(ab.STAGES) - stages
    assert sorted(path.name for path in ab.BUILD.iterdir()) == [
        "inputs", "packages", "work-base", "work-copy", "work-head"]
    assert sorted(path.name for path in (ab.BUILD / "packages").iterdir()) == ["tk_base",
                                                                                "tk_copy"]


def test_every_kernel_op_case_runs_forward_and_backward_but_the_resize(ab):
    import numpy as np
    from tokenloc import numerics as nm

    for op, (call, args) in ab.op_cases(np.random.default_rng(0)).items():
        tape = nm.GradTape()
        leaves = [tape.leaf(arg) for arg in args]
        loss = nm.reduce_sum(call(nm, *leaves))
        if op == "bilinear_resize":   # forward only: it records no tape step
            assert not isinstance(loss, nm.Node) and len(tape) == 0
            continue
        tape.backward(loss)
        assert all(leaf.grad is not None for leaf in leaves), op


def test_the_stacked_op_cases_take_head_s_forward_chunk(ab, monkeypatch):
    import numpy as np
    from tokenloc import pipeline

    monkeypatch.setattr(pipeline, "FORWARD_CHUNK", 3)
    cases = ab.op_cases(np.random.default_rng(0))
    assert len(cases["conv2d3x3 stack"][1][0]) == len(cases["bilinear_resize"][1][0]) == 3


def test_the_machine_block_names_the_blas_kernel_and_the_simd_targets(ab, monkeypatch):
    import golden

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")   # perfbench's block reads it
    block = ab.machine()
    assert block["openblas_core"] == golden.openblas_core() != ""
    assert block["numpy_simd"] == golden.simd_targets()
    assert {"cpu", "numpy", "blas", "blas_threads", "filesystem"} <= set(block)


def test_a_kernel_op_that_a_side_cannot_take_is_absent_there(ab, monkeypatch):
    import numpy as np
    from tokenloc import numerics as nm
    from tokenloc.errors import DimensionError

    cases = ab.op_cases(np.random.default_rng(0))
    monkeypatch.setattr(ab, "op_cases", lambda rng: {
        op: cases[op] for op in ("add", "attention", "take slice", "reshape", "bilinear_resize")})
    monkeypatch.setattr(ab, "OP_REPEATS", 3)

    def attention(q, k, v, num_heads):   # takes no seq_len
        return nm.attention(q, k, v, num_heads, len(q))

    def take(x, index):   # rejects slices
        raise DimensionError("take expects integer arrays")

    # base's numerics lacks add and has the attention and take above
    base = {name: value for name, value in vars(nm).items() if name != "add"}
    base.update(attention=attention, take=take)
    packages = {"base": types.SimpleNamespace(numerics=types.SimpleNamespace(**base)),
                "head": types.SimpleNamespace(numerics=nm),
                "copy": types.SimpleNamespace(numerics=nm)}
    out = ab.kernel_ops(packages)
    assert {op: {side: error.split(":")[0] for side, error in entry["absent"].items()}
            for op, entry in out.items() if "absent" in entry} == {
        "add": {"base": "AttributeError"}, "attention": {"base": "TypeError"},
        "take slice": {"base": "DimensionError"}}
    # the untaped resize: a forward with a verdict, and a backward absent on every side
    assert set(out["bilinear_resize"]["forward"]) == {*SIDES, "ratio_head_over_base",
                                                      "ratio_head_over_copy", "verdict"}
    assert out.pop("bilinear_resize")["backward"] == {
        "absent": dict.fromkeys(SIDES, "records no tape step")}
    for op, entry in out.items():
        for direction in ("forward", "backward"):
            if op == "reshape":
                assert set(entry[direction]) == {*SIDES, "ratio_head_over_base",
                                                 "ratio_head_over_copy", "verdict"}
            else:   # head's ratio to the copy, and no verdict without base
                assert set(entry[direction]) == {"head", "copy", "ratio_head_over_copy"}


def test_tape_step_reads_a_phase1_step_s_records_and_bytes(ab):
    import tokenloc

    step = ab.tape_step(tokenloc)
    assert step["records"] == 101
    assert 0 < step["held_bytes"] <= step["peak_bytes"]


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
    assert ab.line_count(tmp_path) == {"total": 3, "modules": {"a.py": 2, "b.py": 1}}


_FAKE_CHILD = ("import sys; log, side, out, text, code = sys.argv[1:]; "
               "open(log, 'a').write(side + '\\n'); open(out, 'w').write(text); "
               "sys.exit(int(code))")


def test_fresh_process_level_runs_one_child_at_a_time_alternating_the_first_side(ab, tmp_path):
    log = tmp_path / "order.log"

    def side(name, code, text):
        """Three children: one exits `code`, and the last writes `text`."""
        work = tmp_path / name
        work.mkdir()
        child = [sys.executable, "-S", "-c", _FAKE_CHILD, str(log), name]
        return work, dict(os.environ), {"ok": [*child, str(work / "a.txt"), "same", "0"],
                                        "fails": [*child, str(work / "b.txt"), "same", code],
                                        "writes": [*child, str(work / "c.txt"), text, "0"]}

    ballast = b"\1" * (64 << 20)   # a child forked from this process would read its RSS
    start = time.perf_counter()
    out = ab.fresh_process({"base": side("base", "0", "same"),
                            "head": side("head", "3", "other")}, rounds=2)
    assert time.perf_counter() - start < 2
    # each side runs its three children in a row, the first side alternating
    assert log.read_text().split() == ["base"] * 3 + ["head"] * 6 + ["base"] * 3
    assert out["rounds"] == 2
    assert out["failed"] == {"base": [], "head": [
        message for i in range(2) for message in (
            f"fails #{i}: exit code 3", f"round #{i}: outputs differ from the first side's")]}
    for name in ("ok", "fails", "writes"):
        assert set(out[name]) == {"base", "head"}
        for entry in out[name].values():
            assert set(entry) == {"wall_ms", "user_s", "sys_s", "minor_faults", "peak_rss_mb"}
            assert entry["wall_ms"] > 0 and entry["minor_faults"] > 0
            assert 0 < entry["peak_rss_mb"] < 64, entry
    del ballast
