#!/usr/bin/env python3
"""Compare the measured rows of two `cnfetsim bench --format json` reports.

    python scripts/compare_reports.py BEFORE.json AFTER.json [--rtol 1e-9]

Rows are matched by design and supply.  For power, delay, PDP and the
delay of every transition, prints the largest relative difference
|after - before| / |before| over all rows; exits 1 when any exceeds
--rtol, when either report holds a NaN in one of them, or when the two reports do not hold the same rows and
transitions.  Use it where a change may move the last bits of a result,
so the reports are no longer byte-identical.
"""

import argparse
import json
import math
import sys

FIELDS = ("power_w", "delay_s", "pdp_j")


def _rows(path: str) -> dict[tuple[str, float], dict]:
    with open(path, encoding="utf-8") as fh:
        return {(r["design"], r["vdd"]): r for r in json.load(fh)["rows"]}


def _rel(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.inf
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a else float("inf")


def compare(before: dict, after: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Largest relative difference per field, with the row it occurs in,
    and the structural mismatches (missing rows or transitions)."""
    worst = {field: (0.0, "") for field in (*FIELDS, "transition_delay_s")}
    problems = [f"row {key} only in one report" for key in sorted(before.keys() ^ after.keys())]
    for key in sorted(before.keys() & after.keys()):
        b, a = before[key], after[key]
        where = f"{key[0]} @ {key[1]:g} V"
        pairs = [(field, b[field], a[field]) for field in FIELDS]
        edges_b = [(t["edge_time"], t["output"]) for t in b["transitions"]]
        edges_a = [(t["edge_time"], t["output"]) for t in a["transitions"]]
        if edges_b != edges_a:
            problems.append(f"{where}: transitions differ")
        else:
            pairs += [("transition_delay_s", tb["delay_s"], ta["delay_s"])
                      for tb, ta in zip(b["transitions"], a["transitions"])]
        for field, vb, va in pairs:
            rel = _rel(vb, va)
            if rel > worst[field][0]:
                worst[field] = (rel, where)
    return worst, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--rtol", type=float, default=1e-9)
    args = parser.parse_args(argv)
    worst, problems = compare(_rows(args.before), _rows(args.after))
    ok = not problems
    for field, (rel, where) in worst.items():
        flag = "" if rel <= args.rtol else "  FAIL"
        ok = ok and rel <= args.rtol
        print(f"{field:20s} {rel:.3e}  {where}{flag}")
    for problem in problems:
        print(f"mismatch: {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
