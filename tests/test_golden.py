"""Every byte the CLI writes on the golden command matrix, compared by
SHA-256 with tests/data/golden.json (recorded by tools/golden.py)."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import golden  # noqa: E402

# longer than every output of the matrix, the ~122 KB checkpoints included
STALE = b"\xaa" * (256 * 1024)


def _assert_matches_the_recording(got):
    recorded = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    mismatches = []
    for fixture in sorted(recorded["outputs"].keys() | got.keys()):
        want, have = recorded["outputs"].get(fixture, {}), got.get(fixture, {})
        for command in sorted(want.keys() | have.keys()):
            streams, seen = want.get(command, {}), have.get(command, {})
            mismatches += [f"fixture {fixture}, {command}: {stream} "
                           f"{streams.get(stream)} -> {seen.get(stream)}"
                           for stream in sorted(streams.keys() | seen.keys())
                           if streams.get(stream) != seen.get(stream)]
    moved = [f"{key}: recorded {recorded['machine'].get(key)!r}, here {value!r}"
             for key, value in golden.machine().items() if recorded["machine"].get(key) != value]
    assert not mismatches, "\n".join(
        [f"{len(mismatches)} outputs differ from tests/data/golden.json:", *mismatches,
         "machine block: " + ("; ".join(moved) if moved else "unchanged")])


def test_cli_outputs_match_the_recorded_hashes(tmp_path):
    _assert_matches_the_recording(golden.run_matrix(tmp_path))


def test_cli_outputs_over_longer_stale_files_match_the_recorded_hashes(tmp_path):
    """Each output path holds 256 KiB of 0xAA before its command runs: an
    output written in place must leave no stale tail."""
    _assert_matches_the_recording(golden.run_matrix(tmp_path, STALE))
