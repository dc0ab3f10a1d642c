"""tools/ab.py's stage level: the working tree against a copy of itself on
one `localize` request (localize, then infer) of perfbench fixture 0."""

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
