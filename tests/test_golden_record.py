"""The acceptance bisection against its committed history and three records.

A change that moves the record on purpose regenerates the files, from the
repository root, with

    PYTHONPATH=src python tests/test_golden_record.py

and reports the move (``twobubble diff`` old → new, per record) with the
change.  Before it replaces the files the script prints that move: per
record the chunk-count flips, the changed scalars and each field's largest
absolute difference against the old file, then the history's old and new
last s.
"""

import json
import sys
from pathlib import Path

from twobubble.experiments import (RunRecord, ShootConfig, bisect_zeta, compare_records,
                                   read_record_json)
from twobubble.groundstate import solve_profile, structure_constants
from twobubble.nls_core import write_atomically

GOLDEN = Path(__file__).parent / "data" / "acceptance"
# the lower and upper bracket endpoints' records, then the deepest shot's
NAMES = ("lo", "hi", "main")
FIELD_TOL = 1e-10


def _records(outcome) -> dict:
    return dict(zip(NAMES, (*outcome["endpoint_records"], outcome["record"])))


def test_acceptance_matches_golden_record(shoot_outcome):
    # reuses the session's acceptance bisection; the records go first, so
    # that a chunk-count flip is named as a flip, not as a field that moved
    for name, fresh in _records(shoot_outcome).items():
        golden = RunRecord.from_dict(read_record_json(GOLDEN / f"{name}.json"))
        assert golden.config == shoot_outcome["config"]
        rep = compare_records(golden, fresh)
        assert not rep["flips"], f"{name}: chunk-count flips {rep['flips']}"
        assert not rep["changes"], f"{name}: changed {rep['changes']}"
        moved = {key: f["max_abs"] for key, f in rep["fields"].items() if f["max_abs"] > FIELD_TOL}
        assert not moved, f"{name}: fields moved past {FIELD_TOL} from sample " \
                          f"{rep['first_diff']}: {moved}"
    history = json.loads((GOLDEN / "history.json").read_text())
    assert [list(h) for h in shoot_outcome["history"]] == history


def test_save_reproduces_committed_records(tmp_path):
    # RunRecord.save is the one writer of the record format: each committed
    # record, read and saved again, is the same file byte for byte
    for name in NAMES:
        golden = GOLDEN / f"{name}.json"
        RunRecord.from_dict(read_record_json(golden)).save(tmp_path / f"{name}.json")
        assert (tmp_path / f"{name}.json").read_bytes() == golden.read_bytes(), name


def test_golden_move_against_committed_files(shoot_outcome, tmp_path):
    # the regeneration's report: one line per record, then the history's last s
    lines = golden_move(GOLDEN, shoot_outcome)
    assert [line.split(" ")[0] for line in lines] == [*NAMES, "history"]
    assert all("flips [], changes {}" in line for line in lines[:-1])
    last = shoot_outcome["history"][-1][-1]
    assert lines[-1] == f"history last s: {last!r} -> {last!r}"
    assert golden_move(tmp_path, shoot_outcome)[0] == "lo: no old record"


def golden_move(out: Path, outcome) -> list[str]:
    """One line per record of the outcome on how it moved from the record
    file in out, read at any schema, and one on the history's last s."""
    lines = []
    for name, fresh in _records(outcome).items():
        path = out / f"{name}.json"
        if not path.exists():
            lines.append(f"{name}: no old record")
            continue
        old, schema = RunRecord.from_any_schema(read_record_json(path))
        rep = compare_records(old, fresh)
        moves = ", ".join(f"{key} {f['max_abs']:.2g}" for key, f in rep["fields"].items())
        lines.append(f"{name} (old schema {schema}): flips {rep['flips']}, changes "
                     f"{rep['changes']}, {rep['compared']} samples compared, max_abs {moves}")
    path = out / "history.json"
    old_s = json.loads(path.read_text())[-1][-1] if path.exists() else None
    lines.append(f"history last s: {old_s!r} -> {outcome['history'][-1][-1]!r}")
    return lines


def write_golden(out: Path) -> None:
    """Run the acceptance bisection, print its move from the files in out,
    and write its history and records there."""
    gs = solve_profile(3.0, 1)
    config = ShootConfig(s_in=300.0, s0=30.0, N=2048, L=64.0, dt=2e-3)
    outcome = bisect_zeta(config, gs, structure_constants(gs))
    print("\n".join(golden_move(out, outcome)))
    out.mkdir(parents=True, exist_ok=True)
    # each file is whole or untouched, even if the regeneration is interrupted
    for name, record in _records(outcome).items():
        record.save(out / f"{name}.json")
    write_atomically(out / "history.json", "golden history",
                     (json.dumps(outcome["history"]) + "\n").encode())


if __name__ == "__main__":
    write_golden(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
