#!/usr/bin/env python3
"""cnfetsim benchmark: closed-loop, sequential, one process, one thread.

    python3 perfbench/run.py --workload gate-dc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each run times the program's set-up in several fresh processes (reporting
the median as setup_s), sets itself up the same way, then attempts whole
rounds of operations until --seconds have passed, checks every output
against the computations in checks.py and the fine-step reference, and
prints one metric per line followed by a JSON summary as the last line.  Times are calibrated host seconds (see
calibrate.py).  With --trace 1 it runs the same rounds twice, untraced
and then traced, and reports the per-layer metrics of the traced pass
and the difference in time between the two passes; attempted and failed
count the untraced pass, and a failure in either makes the run incorrect.

paper-matrix is here for runs by hand and for --workload all; it is not
in BENCHMARK.json because one of its operations takes longer than a
single benchmark run may (README.md).

Exit codes: 0 every operation completed and every check passed, 1 otherwise,
2 no cnfetsim sources.
"""

from __future__ import annotations

import program  # first: pins BLAS to one thread before numpy loads

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import prepare
import reference
from tracing import Tracer

WORKLOADS = ("paper-matrix", "proposed-cell", "gate-dc")
GATE_VDD_RANGE = (0.65, 0.9)
SWEEP_POINTS = 121          # as scripts/gate_transfer.py
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
TAIL_MIN_OPS = 40           # a tail needs ten samples beyond it
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


# --- workloads ------------------------------------------------------------------
#
# A workload is set up once per run, then yields rounds.  A round is a
# list of operations (zero-argument callables run under the clock) plus a
# check that turns the outputs of the operations that completed into a
# list of failures.  Kernel passes are timed for `sample_s` seconds (at
# least one pass) before a round's first operation and after each
# operation (calibrate.py).


class TransientCells:
    """Rows of the benchmark matrix, with their reports, checked cell by cell."""

    # One pass varies by 30% and neighbouring passes vary together, so a
    # 5-15 s operation needs passes spread over seconds, not a handful.
    sample_s = 2.0

    def __init__(self, pkg, config, out_dir: Path):
        self.pkg = pkg
        self.config = config
        self.ref = reference.load()
        self.out_dir = out_dir
        self.drift = [0.0, 0.0]  # largest power, delay distance from the reference
        self._benches: dict = {}

    def run(self, kinds, vdds):
        """bench.run_matrix plus the md/csv/json reports and charts the CLI writes."""
        bench, charts = self.pkg["bench"], self.pkg["charts"]
        results, errors = bench.run_matrix(kinds, list(vdds), self.config)
        if errors:
            raise RuntimeError("; ".join(errors))
        reports = {}
        for fmt, formatter in bench.FORMATTERS.items():
            reports[fmt] = formatter(results, self.config)
            (self.out_dir / f"report.{fmt}").write_text(reports[fmt], encoding="utf-8")
        written = charts.write_charts(results, str(self.out_dir / "charts"))
        return results, reports, written

    def check(self, outputs) -> tuple[list[str], list[dict]]:
        """Every cell of every output, then the reports against each other."""
        fails, all_rows = [], []
        for results, reports, written in outputs:
            rows = json.loads(reports["json"])["rows"]
            if len(rows) != len(results):
                fails.append(f"json report has {len(rows)} rows for {len(results)} cells")
                continue
            for res, row in zip(results, rows):
                key = (res.kind, res.vdd)
                if key not in self._benches:
                    self._benches[key] = prepare.testbench(self.pkg, self.config, res.kind, res.vdd)
                fails += checks.check_cell(row, res.result, self._benches[key], res.vdd, self.config)
                ref = self.ref[reference.key(row["design"], row["vdd"])]
                fails += checks.check_reference(row, ref)
                dp, dd = checks.reference_drift(row, ref)
                self.drift = [max(self.drift[0], dp), max(self.drift[1], dd)]
            fails += checks.check_reports(rows, reports, written)
            all_rows += rows
        return fails + checks.check_supply_order(all_rows), all_rows


class PaperMatrix(TransientCells):
    """All six designs at both supplies, with md/csv/json reports and charts."""

    def rounds(self, seed: int):
        kinds = list(self.pkg["adders"].AdderKind)
        while True:
            yield [lambda: self.run(kinds, prepare.VDDS)], self.check_round

    def check_round(self, outputs) -> list[str]:
        fails, rows = self.check(outputs)
        if len(rows) != 12:
            fails.append(f"matrix has {len(rows)} cells, expected 12")
        return fails


class ProposedCell(TransientCells):
    """One proposed-adder cell at a time, alternating supplies, reports and charts each."""

    def rounds(self, seed: int):
        proposed = [self.pkg["adders"].AdderKind.PROPOSED]
        vdds = prepare.VDDS
        order = list(vdds) if random.Random(seed).random() < 0.5 else list(reversed(vdds))
        while True:
            ops = [lambda v=vdd: self.run(proposed, [v]) for vdd in order]
            yield ops, lambda outputs: self.check(outputs)[0]


class GateDC:
    """The four threshold gates at a seeded supply, each with a warm-started DC sweep."""

    sample_s = 0.0  # one pass: a run holds 50-70 operations, so over a hundred passes

    def __init__(self, pkg, config, out_dir: Path):
        self.pkg = pkg
        self.drift = [0.0, 0.0]

    def rounds(self, seed: int):
        rng = random.Random(seed)
        functions = list(self.pkg["adders"].GateFunction)
        while True:
            vdd = rng.uniform(*GATE_VDD_RANGE)
            yield [lambda v=vdd: [self.gate(fn, v) for fn in functions]], self.check_round

    def gate(self, function, vdd: float):
        """build_threshold_inverter_gate, then the sweep gate_transfer.py makes."""
        adders, netlist, solver = self.pkg["adders"], self.pkg["netlist"], self.pkg["solver"]
        gate = adders.build_threshold_inverter_gate(adders.GateSpec(function, vdd), verify=True)
        cn, cp = (tr["params"].chirality for tr in checks.inverter_pair(gate))
        base = netlist.parse(
            f".model nsw cnfet polarity=n chirality={cn.n},{cn.m}\n"
            f".model psw cnfet polarity=p chirality={cp.n},{cp.m}\n"
            f"vdd vdd 0 dc {vdd!r}\n"
            "vin in 0 dc 0\n"
            "qn out in 0 nsw\n"
            "qp out in vdd psw\n"
        )
        cfg = solver.SolverConfig()
        vin, vout, guess = [], [], None
        for k in range(SWEEP_POINTS):
            v = vdd * k / (SWEEP_POINTS - 1)
            guess = solver.dc_operating_point(base.with_dc_source("vin", v), cfg, initial_guess=guess)
            vin.append(v)
            vout.append(guess["out"])
        return function, vdd, gate, vin, vout

    def check_round(self, outputs) -> list[str]:
        adders = self.pkg["adders"]
        fails = []
        for function, vdd, gate, vin, vout in (outputs[0] if outputs else []):
            n, p = checks.inverter_pair(gate)
            measured = adders.measure_switching_threshold(
                n["params"].chirality, p["params"].chirality, vdd)
            fails += checks.check_threshold(function.value, vdd, n, p, measured)
            fails += checks.check_sweep(function.value, vdd, n, p, vin, vout)
        return fails


CLASSES = {"paper-matrix": PaperMatrix, "proposed-cell": ProposedCell, "gate-dc": GateDC}


# --- the run ----------------------------------------------------------------------


def set_up(name: str):
    """Set this process up for a workload, untimed; returns (package, workload)."""
    pkg, config = prepare.set_up(name)
    out_dir = OUT / name
    (out_dir / "charts").mkdir(parents=True, exist_ok=True)
    return pkg, CLASSES[name](pkg, config, out_dir)


def timed_set_up(name: str) -> float:
    """One set-up in a fresh process, from its start to its first builds done,
    scaled by the kernel passes timed right before and after it."""
    before = calibrate.kernel()
    t0 = time.monotonic()  # CLOCK_MONOTONIC, the clock prepare.py reports in
    child = subprocess.run([sys.executable, str(HERE / "prepare.py"), name],
                           capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    dt = float(child.stdout.split()[-1]) - t0
    after = calibrate.kernel()
    return dt * calibrate.REFERENCE_S / statistics.median([before, after])


def run_rounds(work, seed: int, seconds: float | None, n_rounds: int | None,
               tracer: Tracer | None = None) -> tuple[dict, list[float], float]:
    """Whole rounds until `seconds` pass (or exactly `n_rounds`).

    Returns the counts and failures, the operation latencies in calibrated
    seconds, and the scale factor they were calibrated with: the median of
    the kernel passes timed between the operations.
    """
    state = {"attempted": 0, "failed": 0, "rounds": 0, "errors": [], "fails": []}
    timed = []  # raw seconds per operation
    gauge = calibrate.Gauge()
    start = time.perf_counter()
    for done, (ops, check) in enumerate(work.rounds(seed)):
        if n_rounds is not None and done == n_rounds:
            break
        outputs = []
        gauge.sample(work.sample_s)  # the check of the last round ran since the last passes
        for op in ops:
            state["attempted"] += 1
            if tracer:
                tracer.op += 1
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                state["failed"] += 1
                state["errors"].append(f"{type(exc).__name__}: {exc}")
            else:
                timed.append(time.perf_counter() - t0)
                outputs.append(out)
            finally:
                if tracer:
                    tracer.enabled = False
            gauge.sample(work.sample_s)
        state["fails"] += check(outputs)
        state["rounds"] += 1
        if n_rounds is None and time.perf_counter() - start >= seconds:
            break
    state["kernel_s"] = gauge.samples
    scale = gauge.scale()
    return state, [raw * scale for raw in timed], scale


def end_to_end(latencies: list[float], setup_s: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from calibrated latencies and set-up time."""
    lat = sorted(latencies)
    p50 = statistics.median(lat)
    # Highest percentile with at least ten samples beyond it; below forty
    # operations there is no tail and the median stands in for it.
    tail = lat[len(lat) - 11] if len(lat) >= TAIL_MIN_OPS else p50
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    setups = [timed_set_up(name) for _ in range(SETUP_REPEATS)]
    pkg, work = set_up(name)
    state, latencies, _ = run_rounds(work, seed, seconds, None)
    if not latencies:
        metrics = {}
    elif not trace:
        metrics = end_to_end(latencies, statistics.median(setups))
    else:
        tracer = Tracer()
        tracer.install(pkg)
        try:
            traced_state, traced, traced_scale = run_rounds(work, seed, None, state["rounds"], tracer)
        finally:
            tracer.restore()
        state["errors"] += traced_state["errors"]
        state["fails"] += traced_state["fails"]
        state["traced_failed"] = traced_state["failed"]
        metrics = tracer.metrics(len(traced), traced_scale) if traced else {}
        if traced:
            metrics["measure.power_drift"] = (work.drift[0], "ratio")
            metrics["measure.delay_drift"] = (work.drift[1], "ratio")
            overhead = (sum(traced) - sum(latencies)) / len(traced)
            metrics["trace.overhead_s"] = (overhead, "s")
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{name}-{seed}.json",
                         {"workload": name, "seed": seed, "ops": len(traced),
                          "untraced_s": latencies, "traced_s": traced})
    return state, metrics


def report(name: str, state: dict, metrics: dict) -> dict:
    correct = (not state["fails"] and not state["failed"] and not state.get("traced_failed")
               and bool(metrics))
    for line in state["errors"][:20] + state["fails"][:20]:
        print(f"{name}: {line}", file=sys.stderr)
    print(f"{name}: attempted {state['attempted']} failed {state['failed']} "
          f"rounds {state['rounds']} correct {str(correct).lower()}")
    kernel = state["kernel_s"]
    print(f"{name}: calibration kernel {statistics.median(kernel):.6g} s median of {len(kernel)} "
          f"(times are scaled to {calibrate.REFERENCE_S:g} s)")
    for key, (value, unit) in metrics.items():
        print(f"{name}: {key} = {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    program.require_sources()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        state, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summaries[name] = report(name, state, metrics)
    if len(names) == 1:
        result = summaries[names[0]]
    else:
        result = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}/{k}": v for n, s in summaries.items() for k, v in s["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
