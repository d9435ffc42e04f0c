"""The two scripts run end to end and agree with the README."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"


def run_script(name: str, block_sympy: bool = False) -> str:
    argv = [sys.executable, str(SCRIPTS / name)]
    if block_sympy:  # run it as __main__ in a process where every import of sympy raises
        argv[1:] = ["-c", f"import runpy, sys; sys.modules['sympy'] = None; sys.path.insert(0, {str(SCRIPTS)!r}); "
                    f"runpy.run_path({argv[1]!r}, run_name='__main__')"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
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


@pytest.mark.parametrize("name", ["worked_examples.py", "first_order_sweep.py"])
def test_scripts_run_without_sympy(name):
    """With sympy impossible to import, each script prints what it prints with
    it, timings aside: the scripts reach the library through ``wno.cli`` only."""
    untimed = [re.sub(r"\[\d+\.\d+s\]$", "", line) for line in run_script(name).splitlines()]
    blocked = run_script(name, block_sympy=True).splitlines()
    assert [re.sub(r"\[\d+\.\d+s\]$", "", line) for line in blocked] == untimed
    assert len(untimed) >= 8
