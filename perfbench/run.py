#!/usr/bin/env python3
"""The wno benchmark: time to verdict of the ``wno`` CLI on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scalar|firstorder|reports \\
        --seed N --seconds S --trace 0|1

The workload is generated from the seed (see ``workloads.py``) into
``perfbench/work/`` and run in a fresh child interpreter (``child.py``),
one process at a time.  With ``--trace 0`` the last line of standard output
reports the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` it reports the per-layer metrics from a traced run
(``spans.py``).  Per-op exit codes, report digests and times go to
``perfbench/results/<workload>-seed<N>-trace<T>.json`` and, for a traced
run, the spans to ``...spans.tsv.gz`` beside it.  ``compare.py`` lists the
ops whose report digest differs between two such files.

Every op has an expected exit code from its family's construction.  An op
fails if it raises, exits with another code, or prints different report
bytes on a repeat within the run.  ``correct`` is false if any op fails
other than one marked as a known defect; known-defect failures still count
in ``failed`` and ``ok_share``.

Reported times are seconds at a reference machine speed: each op and each
setup is scaled by REFERENCE_S over the mean of the NEAREST reference
samples (``child.reference``) taken closest to it in time.  The results file
keeps the unscaled metrics too.  ``PREDICTIONS.md`` says why, and what each
metric should do under the changes queued in the ROADMAP.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters timed for setup_s, besides the measuring one
# Time of child.reference() on a 2.0 GHz Xeon vCPU in its fast phase.  A
# timed interval is scaled by REFERENCE_S / (mean of the NEAREST reference
# samples taken closest to it), which gives seconds at that speed.
REFERENCE_S = 0.03
NEAREST = 4
RUN_LIMIT_S = 170.0  # the whole run, children included, ends before this


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the next child process")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def scaled(start: float, seconds: float, reference: list[list[float]]) -> float:
    """``seconds`` at the reference speed, judged from the samples nearest in time."""
    middle = start + seconds / 2
    nearest = sorted(reference, key=lambda sample: abs(sample[0] - middle))[:NEAREST]
    return seconds * REFERENCE_S / statistics.fmean(s for _, s in nearest)


def end_to_end(child: dict, probes: list[dict], scale: bool) -> dict[str, float]:
    """The end-to-end metrics, with times at the reference speed if ``scale``."""
    def at_speed(start, seconds, reference):
        return scaled(start, seconds, reference) if scale else seconds

    times = [
        at_speed(start, seconds, child["reference"])
        for op in child["ops"]
        for start, seconds in zip(op["starts"], op["seconds"])
    ]
    setups = [at_speed(*p["setup"], p["reference"]) for p in probes]
    setups.append(at_speed(*child["setup"], child["reference"]))
    return {
        "verdict_p50_s": statistics.median(times),
        "verdict_p90_s": p90(times),
        "verdicts_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child["peak_rss_mb"],
        "ok_share": (child["attempted"] - child["failed"]) / child["attempted"],
    }


def per_layer(child: dict, names: list[str]) -> dict[str, float]:
    trace = child["trace"]
    summary, sizes = trace["summary"], trace["sizes"]
    integrations = summary.get("nonlocal_vars.integrate_density", {}).get("calls", 0)
    special = {
        "nonlocal_vars.integrate_density.ok_ratio":
            sizes.get("nonlocal_vars.integrate_density.ok", 0) / integrations
            if integrations else 0.0,
        "sympy.import_s": child["import_s"],
        "trace.overhead_ratio": trace["traced_s"] / trace["untraced_s"],
    }
    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif field in ("calls", "self_s"):
            out[name] = summary.get(span, {}).get(field, 0)
        else:
            out[name] = sizes.get(name, 0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "wno" / "cli.py").is_file():
        return fail(f"no wno sources under {ROOT / 'src'}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    hash_seed = args.seed % 2**32
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        ops = workloads.generate(args.workload, args.seed).write(work)
        manifest = work / "ops.json"
        manifest.write_text(json.dumps({"ops": [vars(op) for op in ops]}), encoding="utf-8")
        probes = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probes.append(run_child([str(manifest), "--setup-only"], env, deadline))
        child_args = [str(manifest), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            child_args += ["--spans", f"{stem}.spans.tsv.gz"]
        child = run_child(child_args, env, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(f"{args.workload} seed {args.seed}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = per_layer(child, [m["name"] for m in wanted])
    else:
        values = end_to_end(child, probes, scale=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    problems = list(child["unexpected_failures"])
    if args.trace and child["trace"]["unbalanced_ops"]:
        problems.append(f"self times do not sum to wall time: {child['trace']['unbalanced_ops']}")
    samples = sum(len(op["seconds"]) for op in child["ops"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pythonhashseed": hash_seed,
        "rounds": child["rounds"],
        "samples": samples,
        "setup_probes": probes,
        "problems": problems,
        "metrics": metrics,
        "reference_samples": child["reference"],
        "unscaled_metrics": None if args.trace else end_to_end(child, probes, scale=False),
        "trace_detail": child.get("trace"),
        "ops": [
            {**op, "argv": [op["argv"][0], Path(op["argv"][1]).name, *op["argv"][2:]]}
            for op in child["ops"]
        ],
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(
        f"{args.workload} seed {args.seed}: {samples} ops in {child['rounds']} rounds, "
        f"{child['failed']} failed, PYTHONHASHSEED={hash_seed}; details in {stem}.json",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"unexpected failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
