#!/usr/bin/env python3
"""Show that every benchmark check passes on real output and fails on a perturbed one.

    python3 perfbench/selftest.py

Runs one proposed-cell round (both supplies) and one gate-dc round, then
perturbs one result at a time and requires the matching check to report
it.  Exits 0 when every check behaves, 1 otherwise.  About 15 s.
"""

from __future__ import annotations

import program  # first: pins BLAS to one thread before numpy loads

import copy
import json
import sys

import checks
import prepare
import reference
import run


class Waves:
    """Node voltages of a transient result, some of them replaced."""

    def __init__(self, result, **replace):
        self.times = result.times
        self._nodes = {**result.node_voltages, **replace}

    def voltage(self, node):
        return self._nodes[node]


def main() -> int:
    program.require_sources()
    ref = reference.load()
    pkg, cells = run.set_up("proposed-cell")
    ops, _ = next(cells.rounds(seed=1))
    outputs = [op() for op in ops]
    _, gates = run.set_up("gate-dc")
    (gate_op,), _ = next(gates.rounds(seed=1))
    gate_out = gate_op()

    config = cells.config
    by_vdd = {res.vdd: (res, json.loads(reports["json"])["rows"][0])
              for (res,), reports, _ in outputs}
    rows = {vdd: r for vdd, (_, r) in by_vdd.items()}
    res_hi, row = by_vdd[0.9]
    tb = prepare.testbench(pkg, config, res_hi.kind, 0.9)
    ref_row = ref[reference.key(row["design"], 0.9)]

    def with_row(**changes):
        r = copy.deepcopy(row)
        r.update(changes)
        return r

    def shifted_transition(factor):
        r = copy.deepcopy(row)
        r["transitions"][0]["delay_s"] *= factor
        return r

    function, vdd, gate, vin, vout = gate_out[0]
    n, p = checks.inverter_pair(gate)
    vm = pkg["adders"].measure_switching_threshold(n["params"].chirality, p["params"].chirality, vdd)

    def sweep(edit):
        v = list(vout)
        edit(v)
        return checks.check_sweep(function.value, vdd, n, p, vin, v)

    def swap(v):
        i = max(range(len(v) - 1), key=lambda k: v[k] - v[k + 1])  # the steepest step
        v[i], v[i + 1] = v[i + 1], v[i]

    def squeeze(v):  # still monotone, but the high end is 0.2% below vdd
        v[:] = [x * (1 - 2e-3) for x in v]

    def nudge(v):  # half-way to a neighbour on the steep part: still monotone, off KCL
        k = max(range(1, len(v) - 1), key=lambda k: min(v[k - 1] - v[k], v[k] - v[k + 1]))
        v[k] += 0.5 * (v[k - 1] - v[k])

    sum_b2 = res_hi.result.voltage("sum_b2")
    # (case, a phrase the failure must contain, or None where the check must pass, failures)
    cases = [
        ("cell as reported", None, checks.check_cell(row, res_hi.result, tb, 0.9, config)),
        ("logic: sum_b2 inverted", "sum_b2",
         checks.check_logic(Waves(res_hi.result, sum_b2=0.9 - sum_b2), 0.9, config)),
        ("power +0.1%", "recomputed",
         checks.check_cell(with_row(power_w=row["power_w"] * 1.001), res_hi.result, tb, 0.9, config)),
        ("worst delay +1%", "worst delay",
         checks.check_cell(with_row(delay_s=row["delay_s"] * 1.01), res_hi.result, tb, 0.9, config)),
        ("one transition delay +0.1%", "transition",
         checks.check_cell(shifted_transition(1.001), res_hi.result, tb, 0.9, config)),
        ("pdp off by 1e-9", "pdp",
         checks.check_cell(with_row(pdp_j=row["pdp_j"] * (1 + 1e-9)), res_hi.result, tb, 0.9, config)),
        ("supply order as reported", None, checks.check_supply_order([rows[0.9], rows[0.65]])),
        ("supply order: power swapped", "power at",
         checks.check_supply_order([with_row(power_w=rows[0.65]["power_w"] * 0.99), rows[0.65]])),
        ("reference as reported", None, checks.check_reference(row, ref_row)),
        ("reference: power +1%", "power", checks.check_reference(with_row(power_w=row["power_w"] * 1.01), ref_row)),
        ("reference: delay +2%", "delay", checks.check_reference(with_row(delay_s=row["delay_s"] * 1.02), ref_row)),
        ("threshold as measured", None, checks.check_threshold(function.value, vdd, n, p, vm)),
        ("threshold +1 mV", "predicted", checks.check_threshold(function.value, vdd, n, p, vm + 1e-3)),
        ("sweep as computed", None, sweep(lambda v: None)),
        ("sweep: two points swapped", "rises", sweep(swap)),
        ("sweep: high end off the rail", "not at the rails", sweep(squeeze)),
        ("sweep: one point off KCL", "KCL", sweep(nudge)),
    ]
    ok = True
    for name, phrase, fails in cases:
        good = not fails if phrase is None else any(phrase in f for f in fails)
        ok &= good
        verdict = "detected" if fails else "passes"
        print(f"{'ok ' if good else 'BAD'} {name}: {verdict}" + (f" ({fails[0]})" if fails else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
