"""Fine-step reference for the 12 benchmark cells.

Runs the packaged benchmark config with the timestep cut from 0.2 ps to
FINE_TIMESTEP_S and records each cell's average power and worst delay.
Regenerate with

    python3 perfbench/reference.py

which rewrites perfbench/reference_fine_step.json (about four minutes on
one core).  The cells are checked with the benchmark's own checks before
they are written, so a reference is never made from a wrong run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import program

PATH = Path(__file__).resolve().parent / "reference_fine_step.json"
FINE_TIMESTEP_S = 5e-14


def key(design: str, vdd: float) -> str:
    return f"{design}@{vdd:g}"


def load() -> dict[str, dict]:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)["cells"]


def main() -> int:
    program.require_sources()
    import checks
    import prepare

    pkg = prepare.import_package()
    adders, bench = pkg["adders"], pkg["bench"]
    config = dataclasses.replace(bench.load_config(), timestep_s=FINE_TIMESTEP_S)
    cells = {}
    failures = []
    for vdd in prepare.VDDS:
        for kind in adders.BENCH_ORDER:
            results, errors = bench.run_matrix([kind], [vdd], config)
            failures += errors
            for res, row in zip(results, json.loads(bench.report_json(results, config))["rows"]):
                tb = prepare.testbench(pkg, config, kind, vdd)
                failures += checks.check_cell(row, res.result, tb, vdd, config)
                cells[key(row["design"], vdd)] = {
                    "design": row["design"], "vdd": vdd,
                    "power_w": row["power_w"], "delay_s": row["delay_s"]}
                print(f"{key(row['design'], vdd)}: {row['power_w']:.9e} W {row['delay_s']:.9e} s",
                      flush=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    payload = {
        "command": "python3 perfbench/reference.py",
        "timestep_s": FINE_TIMESTEP_S,
        "config": config.as_dict(),
        "cells": cells,
    }
    PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
