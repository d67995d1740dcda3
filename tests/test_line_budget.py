"""The standing line budget: ``wc -l src/twobubble/*.py`` stays at most
LINE_BUDGET, so code that only tests read lives in ``tests/``."""

from pathlib import Path

LINE_BUDGET = 3000


def test_src_within_line_budget():
    modules = sorted((Path(__file__).parents[1] / "src" / "twobubble").glob("*.py"))
    counts = {m.name: m.read_bytes().count(b"\n") for m in modules}
    assert "modulation_fit.py" in counts
    assert sum(counts.values()) <= LINE_BUDGET, counts
