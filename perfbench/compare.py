#!/usr/bin/env python3
"""List the ops whose report digest differs between two benchmark results.

Usage:

    python3 perfbench/compare.py OLD.json NEW.json

Pass two ``perfbench/results/<workload>-seed<N>-trace<T>.json`` files from
runs of the same workload and seed, e.g. on a parent commit and on a
change.  A changed digest is reported, not failed: a change may alter a
report on purpose, and then says so.
"""

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.load(open(path, encoding="utf-8")) for path in argv[1:])
    if (old["workload"], old["seed"]) != (new["workload"], new["seed"]):
        print("the two files hold different workloads or seeds", file=sys.stderr)
        return 2
    new_ops = {op["name"]: op for op in new["ops"]}
    changed = 0
    for op in old["ops"]:
        other = new_ops.get(op["name"])
        if other is None or other["digest"] != op["digest"]:
            changed += 1
            after = other["digest"] if other else "missing"
            print(f"{op['name']} ({' '.join(op['argv'])}): {op['digest']} -> {after}")
    print(f"{changed} of {len(old['ops'])} report digests changed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
