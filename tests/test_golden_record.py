"""The acceptance bisection against its committed history and three records.

A change that moves the record on purpose regenerates the files, from the
repository root, with

    PYTHONPATH=src python tests/test_golden_record.py

and reports the move (``twobubble diff`` old → new, per record) with the
change.
"""

import json
import sys
from pathlib import Path

from twobubble.experiments import RunRecord, ShootConfig, bisect_zeta, compare_records
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
        golden = RunRecord.from_dict(json.loads((GOLDEN / f"{name}.json").read_text()))
        assert golden.config == shoot_outcome["config"]
        rep = compare_records(golden, fresh)
        assert not rep["flips"], f"{name}: chunk-count flips {rep['flips']}"
        assert not rep["changes"], f"{name}: changed {rep['changes']}"
        moved = {key: f["max_abs"] for key, f in rep["fields"].items() if f["max_abs"] > FIELD_TOL}
        assert not moved, f"{name}: fields moved past {FIELD_TOL} from sample " \
                          f"{rep['first_diff']}: {moved}"
    history = json.loads((GOLDEN / "history.json").read_text())
    assert [list(h) for h in shoot_outcome["history"]] == history


def write_golden(out: Path) -> None:
    """Run the acceptance bisection and write its history and records to out."""
    gs = solve_profile(3.0, 1)
    config = ShootConfig(s_in=300.0, s0=30.0, N=2048, L=64.0, dt=2e-3)
    outcome = bisect_zeta(config, gs, structure_constants(gs))
    out.mkdir(parents=True, exist_ok=True)
    files = {"history": json.dumps(outcome["history"])}
    files.update((name, json.dumps(record.to_dict(), sort_keys=True))
                 for name, record in _records(outcome).items())
    for name, text in files.items():
        # each file is whole or untouched, even if the regeneration is interrupted
        write_atomically(out / f"{name}.json", f"golden {name}", (text + "\n").encode())


if __name__ == "__main__":
    write_golden(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
