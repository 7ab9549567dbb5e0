#!/usr/bin/env python3
"""A workload's set-up: import cnfetsim, load the config, make the first builds.

    python3 perfbench/prepare.py gate-dc

Run as a program, this is one timed set-up as a user's fresh process does
it, interpreter start and the numpy import included: it prints the
CLOCK_MONOTONIC time at which set-up ended, and run.py subtracts the time
at which it started the process.  run.py also imports it to set up its own
process the same way, untimed.  It imports nothing of the benchmark but
program.py, so the time is the program's.
"""

from __future__ import annotations

import program  # first: pins BLAS to one thread before numpy loads

import importlib
import sys
import time

MODULES = ("devices", "netlist", "solver", "measure", "logic", "adders", "bench", "charts")
VDDS = (0.9, 0.65)


def import_package() -> dict[str, object]:
    """Fresh import of every cnfetsim module, as a new process would do."""
    for name in [m for m in sys.modules if m == "cnfetsim" or m.startswith("cnfetsim.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"cnfetsim.{m}") for m in MODULES}


def testbench(pkg, config, kind, vdd: float):
    """The circuit bench.run_cell simulates for one cell, built the same way."""
    adders = pkg["adders"]
    dut = adders.build_adder(kind, vdd, input_cap=config.unit_capacitance_f)
    return adders.build_testbench(
        dut, vdd, config.transition_time_s, config.hold_time_s,
        periods=config.warmup_periods + config.measure_periods,
        load_cap=config.load_capacitance_f,
    )


def first_builds(workload: str, pkg, config) -> None:
    """The builds a workload's first operation would otherwise pay for."""
    adders = pkg["adders"]
    if workload == "gate-dc":
        for fn in adders.GateFunction:
            adders.build_threshold_inverter_gate(adders.GateSpec(fn, VDDS[0]), verify=False)
        return
    kinds = adders.BENCH_ORDER if workload == "paper-matrix" else [adders.AdderKind.PROPOSED]
    for vdd in VDDS:
        for kind in kinds:
            testbench(pkg, config, kind, vdd)


def set_up(workload: str):
    """Import, load the config, make the first builds; returns (package, config)."""
    pkg = import_package()
    config = pkg["bench"].load_config()
    first_builds(workload, pkg, config)
    return pkg, config


if __name__ == "__main__":
    program.require_sources()
    set_up(sys.argv[1])
    print(repr(time.monotonic()))
