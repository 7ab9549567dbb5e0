#!/usr/bin/env python3
"""Sweep the DC transfer curves of the threshold-tuned inverters.

Writes one CSV per gate function with columns vin,vout for each supply,
handy for eyeballing the switching thresholds against their bands.
"""

import os
import sys

from cnfetsim import netlist, solver
from cnfetsim.adders import GATE_CHIRALITIES


def transfer(n_chir, p_chir, vdd, points=121):
    text = (
        f".model nsw cnfet polarity=n chirality={n_chir.n},{n_chir.m}\n"
        f".model psw cnfet polarity=p chirality={p_chir.n},{p_chir.m}\n"
        f"vdd vdd 0 dc {vdd}\n"
        "vin in 0 dc 0\n"
        "qn out in 0 nsw\n"
        "qp out in vdd psw\n"
    )
    base = netlist.parse(text)
    rows = []
    guess = None
    for k in range(points):
        vin = vdd * k / (points - 1)
        op = solver.dc_operating_point(base.with_dc_source("vin", vin), initial_guess=guess)
        guess = op
        rows.append((vin, op["out"]))
    return rows


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "gate_curves"
    os.makedirs(out_dir, exist_ok=True)
    for function, (n_chir, p_chir) in GATE_CHIRALITIES.items():
        for vdd in (0.9, 0.65):
            rows = transfer(n_chir, p_chir, vdd)
            path = os.path.join(out_dir, f"{function.value}_{vdd:g}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("vin,vout\n")
                fh.writelines(f"{vin:.6f},{vout:.6f}\n" for vin, vout in rows)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
