"""Run one workload in a fresh interpreter and print its raw measurements.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and a fixed ``PYTHONHASHSEED``.  Usage:

    python3 perfbench/child.py MANIFEST --setup-only
    python3 perfbench/child.py MANIFEST --seconds S --trace 0|1 [--spans FILE]

The manifest is the JSON op list written by ``run.py``.  The last line of
standard output is one JSON object.  ``setup`` is the start and length of
the interval from the start of this interpreter's script to ``wno.cli``
imported and every input file parsed.

Each timed op is one ``wno.cli.main(argv)`` call in a closed loop: the next
op starts when the previous one has returned.  Before each op, outside the
timed interval, the sympy cache is cleared and garbage collected, because a
user's process starts with an empty cache.  Ops run in whole rounds over
the manifest.  With ``--trace 0`` rounds repeat while the next one is
expected to end within ``--seconds`` (there is always one); with
``--trace 1`` one untraced round is followed by one traced round, so that
every count in the trace is fixed by the seed.

Between untraced ops, at most every ``CALIBRATE_EVERY_S`` and once after
the last one, the child times a fixed reference computation that does not
touch wno; ``--setup-only`` takes a few right after the setup.  On a
shared machine the CPU speed changes by tens of percent over seconds to
minutes, and ``run.py`` scales each timed interval by the reference samples
nearest to it, so that runs made in slow and fast phases compare.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# A small first-order block whose `geom` reaches the parser, the geometry,
# tail registration, density integration and the bracket, so that sympy's
# lazy imports are done before the first timed op.
WARMUP = "fields u;\nfirstorder M {\n  g[1,1]: 1 + u^2;\n  w[1,1]: u;\n}\n"

CALIBRATE_EVERY_S = 0.25


def reference() -> tuple[float, float]:
    """(start, seconds) of a fixed sympy diff-and-cancel from an empty cache.

    It is the same kind of work as wno's, so slow phases of the machine
    slow both alike; the start time places the sample among the ops.
    """
    import sympy as sp
    from sympy.core.cache import clear_cache

    clear_cache()
    gc.collect()
    x, y = sp.symbols("x y")
    t0 = time.perf_counter()
    sp.cancel(sp.diff((1 + x**2 + y**2) ** 2 / (1 + x * y) ** 3, x))
    return t0, time.perf_counter() - t0


def setup(manifest: Path):
    """Import wno and parse every input file; returns the loaded pieces."""
    t = time.perf_counter()
    import sympy  # noqa: F401

    import_s = time.perf_counter() - t
    import wno.cli
    from wno.dsl import ParseError, parse

    ops = json.loads(manifest.read_text(encoding="utf-8"))["ops"]
    for path in sorted({op["argv"][1] for op in ops}):
        try:
            parse(Path(path).read_text(encoding="utf-8"))
        except ParseError:
            pass  # malformed inputs are part of the workload
    return ops, wno.cli, [T0, time.perf_counter() - T0], import_s


def run_op(cli, argv, tracer=None, op_index=-1):
    """One CLI call; returns (start, seconds, exit code or error text, stdout).

    ``main`` is looked up on the module at each call, so a traced run
    reaches the patched one.
    """
    from sympy.core.cache import clear_cache

    clear_cache()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv)

    t0 = time.perf_counter()
    try:
        code = tracer.run_op(op_index, call) if tracer else call()
    except Exception:  # a raising op is a failed op; the run goes on
        code = "raised: " + traceback.format_exc(limit=3)
    return t0, time.perf_counter() - t0, code, out.getvalue()


class Record:
    """Per-op outcomes of one run, with failures as defined by the benchmark."""

    def __init__(self, ops):
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]
        self.starts: list[list[float]] = [[] for _ in ops]
        self.digests: list[str | None] = [None] * len(ops)
        self.problems: list[list[str]] = [[] for _ in ops]
        self.failed = 0
        self.reference: list[tuple[float, float]] = []

    def calibrate(self, force: bool = False) -> None:
        """Take a reference sample if forced or if the last one is old enough."""
        if (force or not self.reference
                or time.perf_counter() - self.reference[-1][0] >= CALIBRATE_EVERY_S):
            self.reference.append(reference())

    def add(self, index: int, start: float, seconds: float, code, report: str) -> None:
        op = self.ops[index]
        digest = hashlib.sha256(report.encode("utf-8")).hexdigest()[:16]
        problem = None
        if not isinstance(code, int):
            problem = str(code)
        elif code != op["expect"]:
            problem = f"exit {code}, expected {op['expect']}"
        elif self.digests[index] not in (None, digest):
            problem = "report bytes differ between repeats"
        if self.digests[index] is None:
            self.digests[index] = digest
        self.times[index].append(seconds)
        self.starts[index].append(start)
        if problem:
            self.failed += 1
            if problem not in self.problems[index]:
                self.problems[index].append(problem)

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times)

    def unexpected_failures(self) -> list[str]:
        return [
            op["name"]
            for op, problems in zip(self.ops, self.problems)
            if problems and not op.get("known_defect")
        ]

    def as_json(self) -> list[dict]:
        return [
            {**op, "digest": digest, "seconds": times, "starts": starts, "problems": problems}
            for op, digest, times, starts, problems in zip(
                self.ops, self.digests, self.times, self.starts, self.problems
            )
        ]


def run_round(cli, record: Record, tracer=None) -> float:
    """Every op once; a traced round takes no reference samples, whose
    number depends on timing and would change the trace's counts."""
    busy = 0.0
    for index, op in enumerate(record.ops):
        if tracer is None:
            record.calibrate()
        start, seconds, code, report = run_op(cli, op["argv"], tracer, index)
        record.add(index, start, seconds, code, report)
        busy += seconds
    return busy


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    ops, cli, setup_span, import_s = setup(args.manifest)
    result = {"setup": setup_span, "import_s": import_s}
    if args.setup_only:
        result["reference"] = [reference() for _ in range(4)]
        print(json.dumps(result))
        return 0

    warmup = args.manifest.parent / "warmup.wno"
    warmup.write_text(WARMUP, encoding="utf-8")
    run_op(cli, ["geom", str(warmup), "M"])
    gc.collect()
    gc.freeze()  # keep the imported modules out of every later collection

    record = Record(ops)
    if args.trace:
        from spans import Tracer

        untraced = run_round(cli, record)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(cli, record, tracer)
        finally:
            tracer.uninstall()
        balance = tracer.op_balance()
        result["trace"] = {
            "untraced_s": untraced,
            "traced_s": traced,
            "summary": tracer.summary(),
            "sizes": dict(tracer.sizes),
            "spans": len(tracer.name),
            "unbalanced_ops": [
                ops[op]["name"]
                for op, (own, wall) in balance.items()
                if abs(own - wall) > 1e-6 * max(1.0, wall)
            ],
        }
        if args.spans:
            tracer.write(args.spans)
        rounds = 2
    else:
        start = time.perf_counter()
        rounds = 0
        while True:
            run_round(cli, record)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > args.seconds:
                break
        record.calibrate(force=True)
    result.update(
        rounds=rounds,
        attempted=record.attempted,
        failed=record.failed,
        unexpected_failures=record.unexpected_failures(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        reference=record.reference,
        ops=record.as_json(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
