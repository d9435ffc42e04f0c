"""The library's size budget: aim 2 asks for the same verdicts from the least code."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wno"

# Lines of src/wno/*.py.  A change that raises the budget says why in CHANGES.md.
BUDGET = 2857


def test_library_stays_within_its_line_budget():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= BUDGET, f"src/wno/*.py has {lines} lines, over the budget of {BUDGET}"
