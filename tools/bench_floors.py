#!/usr/bin/env python3
"""Check bench JSON results against their regression floors.

    python3 tools/bench_floors.py [BENCH_FILE ...]

Every floor lives in the FLOORS table below. The named files (default:
every file the table mentions) are read into one pool of result rows;
each floor whose file is among them is then checked against that pool.
A missing file, a missing row, or a row pattern that matches nothing is
a failure, like a floor that does not hold. Exit status 0 only when
every checked floor holds.
"""

import json
import operator
import os
import sys

OPS = {">=": operator.ge, "<=": operator.le, "<": operator.lt, "==": operator.eq}

# (file, row, field, op, bound, why)
#   row:   a result row name, or a prefix ending in "*" that checks every
#          row starting with it (at least one must exist);
#   bound: a number, a function of the row name, or (other row, factor):
#          factor times that row's value of the same field.
FLOORS = [
    ("BENCH_sim_batch.json", "speedup:skno-o8-gap-1M", "speedup", ">=", 5,
     "SKnO count-space speedup (target 10)"),
    ("BENCH_sim_batch.json", "speedup:sid-gap-4096", "speedup", ">=", 1.0,
     "engine=auto no slower than step-wise on dispersed SID"),
    ("BENCH_sim_batch.json", "engine:sid-gap-4096", "agent_space", "==", 1.0,
     "engine=auto runs dispersed SID in agent space"),
    ("BENCH_sim_batch.json", "speedup:skno-o2-pairing-16-budget", "speedup",
     ">=", 0.75, "engine=auto on the adversarial Thm 4.1 cell"),
    ("BENCH_dense.json", "speedup:dense-*", "speedup", ">=",
     lambda name: 1.0 if "skno" in name else 2.0,
     "round face over the leap face (auto on the dense SKnO cell)"),
    ("BENCH_dense.json", "dense-round-ns:n=1e9", "ns_per_interaction", "<",
     ("dense-round-ns:n=1e6", 1.0),
     "round-face cost per interaction falls with n"),
    ("BENCH_dense.json", "dense-round-ns-uo:n=1e9", "ns_per_interaction", "<=",
     ("dense-round-ns:n=1e9", 4.0), "round face under uo:0.1 within 4x plain"),
    ("BENCH_obs_overhead.json", "speedup:obs-overhead", "speedup", ">=", 0.95,
     "metrics-on hot path within 5% of metrics-off"),
    ("BENCH_sweep_shard.json", "speedup:sweep-shard-1to4", "speedup", ">=",
     2.0, "4 forked shards on 4 vCPUs at least halve the wall clock"),
]


def load(files):
    rows = {}
    for path in files:
        try:
            with open(path) as f:
                results = json.load(f)["results"]
        except (OSError, ValueError, KeyError) as e:
            sys.exit(f"bench_floors: cannot read results from {path}: {e}")
        for r in results:
            rows[r["name"]] = r
    return rows


def value(rows, name, field):
    if name not in rows:
        raise LookupError(f"row {name!r} missing")
    if field not in rows[name]:
        raise LookupError(f"row {name!r} has no {field!r}")
    return rows[name][field]


def check(rows, row, field, op, bound):
    """Yield (row name, value, bound, holds) for every row the floor names."""
    if row.endswith("*"):
        names = sorted(n for n in rows if n.startswith(row[:-1]))
        if not names:
            raise LookupError(f"no row matches {row!r}")
    else:
        names = [row]
    for name in names:
        got = value(rows, name, field)
        if callable(bound):
            want = bound(name)
        elif isinstance(bound, tuple):
            want = bound[1] * value(rows, bound[0], field)
        else:
            want = bound
        yield name, got, want, OPS[op](got, want)


def main(argv):
    files = argv or sorted({f for f, *_ in FLOORS})
    given = {os.path.basename(f) for f in files}
    rows = load(files)
    failed = 0
    for file, row, field, op, bound, why in FLOORS:
        if file not in given:
            continue
        try:
            for name, got, want, ok in check(rows, row, field, op, bound):
                verdict = "ok  " if ok else "FAIL"
                print(f"{verdict} {name} {field} = {got:.4g} "
                      f"(want {op} {want:.4g}): {why}")
                failed += not ok
        except LookupError as e:
            print(f"FAIL {file}: {e}: {why}")
            failed += 1
    if failed:
        sys.exit(f"bench_floors: {failed} floor(s) failed")


if __name__ == "__main__":
    main(sys.argv[1:])
