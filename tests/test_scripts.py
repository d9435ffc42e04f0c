"""The two scripts run end to end and agree with the README."""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_worked_examples_match_the_readme_table():
    sections = {}
    for block in run_script("worked_examples.py").strip().split("\n\n"):
        head, *body = block.splitlines()
        sections[head.split()[-1]] = [line.strip() for line in body]
    readme = (REPO / "README.md").read_text()
    rows = re.findall(r"^\| `cases/\w+\.wno` \| `(\w+)` \| `(check|geom)` \| ([01]) \|$", readme, re.M)
    assert len(rows) == 6 and set(sections) == {name for name, _, _ in rows}
    for name, command, code in rows:
        lines = sections[name]
        if command == "check":
            assert lines[-1] == ("verdict: Hamiltonian" if code == "0" else "verdict: not Hamiltonian")
        else:  # every condition passes exactly when the bracket cross-check says Hamiltonian
            passes = all(line.endswith(": pass") for line in lines[:-1])
            hamiltonian = lines[-1] == "bracket cross-check: Hamiltonian"
            assert passes == hamiltonian == (code == "0"), (name, lines)


def test_first_order_sweep_agrees_on_every_row():
    header, *rows = run_script("first_order_sweep.py").splitlines()
    assert header.split()[-1] == "agree"
    assert len(rows) == 7
    for row in rows:  # ... bracket, agree, [timing]
        assert re.search(r" (yes|no) +yes +\[\d+\.\d+s\]$", row), row
