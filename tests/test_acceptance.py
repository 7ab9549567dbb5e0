"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full benchmark matrix runs once in a session fixture and is
shared by the criteria that need it (a second full run feeds the
byte-identity check).
"""

import importlib.util
import json
import math
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from cnfetsim import adders, bench, logic, measure, netlist, solver
from cnfetsim.adders import AdderKind, GateFunction, GateSpec
from cnfetsim.devices import Chirality, diameter, threshold_voltage
from cnfetsim.solver import SolverConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _report(criterion: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {description}: {status}", flush=True)
    assert ok, f"criterion {criterion} failed: {description}"


@pytest.fixture(scope="session")
def bench_runs():
    """Two consecutive full benchmark runs plus the first run's wall time."""
    config = bench.BenchConfig()
    kinds = list(AdderKind)
    vdds = [0.9, 0.65]
    t0 = time.monotonic()
    results_a, errors_a = bench.run_matrix(kinds, vdds, config)
    elapsed_first = time.monotonic() - t0
    results_b, errors_b = bench.run_matrix(kinds, vdds, config)
    return {
        "config": config,
        "a": (results_a, errors_a),
        "b": (results_b, errors_b),
        "elapsed_first": elapsed_first,
    }


def test_criterion_1_device_formulas():
    vth = threshold_voltage(diameter(Chirality(19, 0), 0.249))
    ok = abs(vth - 0.2789) <= 0.0005 and threshold_voltage(1.0) == 0.42
    _report(1, "threshold laws: (19,0) -> 0.2789 V +/- 0.5 mV, d=1 nm -> 0.42 V", ok)


def test_criterion_2_rc_solver_fidelity():
    tau = 1e-12
    circuit = netlist.parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")
    cfg = SolverConfig(timestep=tau / 100)
    t0 = time.monotonic()
    res = solver.transient(circuit, cfg, 5 * tau,
                           initial_conditions={"in": 0.9, "out": 0.0})
    elapsed = time.monotonic() - t0
    worst = 0.0
    for mult in (1, 2, 5):
        idx = mult * 100
        exact = 0.9 * (1 - math.exp(-res.times[idx] / tau))
        worst = max(worst, abs(res.voltage("out")[idx] - exact) / exact)
    ok = worst <= 1e-3 and elapsed < 1.0
    _report(2, f"RC step within 0.1% at tau/2tau/5tau (worst {worst:.2e}), "
               f"runtime {elapsed:.3f}s < 1s", ok)


def test_criterion_3_mvl_levels():
    vdd = 0.9
    gate = adders.build_threshold_inverter_gate(GateSpec(GateFunction.MAJORITY_NOT, vdd))
    base = netlist.serialize(gate) + f"vdd vdd 0 dc {vdd}\n"
    t0 = time.monotonic()
    worst = 0.0
    cfg = SolverConfig(timestep=1e-12)
    for bits in product((0, 1), repeat=3):
        text = base + "".join(
            f"v{n} {n} 0 dc {bit * vdd}\n" for n, bit in zip("abc", bits)
        )
        circuit = netlist.parse(text)
        init = solver.initialize_floating_nodes(circuit)
        res = solver.transient(circuit, cfg, 1e-10, initial_conditions=init)
        settled = float(np.mean(res.voltage("x")[-20:]))
        target = sum(bits) * vdd / 3
        worst = max(worst, abs(settled - target))
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 * vdd and elapsed < 10.0
    _report(3, f"majority-not node at {{0, vdd/3, 2vdd/3, vdd}} +/- 5% "
               f"(worst {worst * 1e3:.2f} mV), runtime {elapsed:.2f}s < 10s", ok)


def test_criterion_4_oracle_equivalence(bench_runs):
    results, errors = bench_runs["a"]
    elapsed = bench_runs["elapsed_first"]
    expected_cells = {(k, v) for k in AdderKind for v in (0.9, 0.65)}
    seen_cells = {(r.kind, r.vdd) for r in results}
    all_pass = not errors
    for r in results:
        # 2 outputs x 32 settled phases (warmup + measurement period)
        all_pass &= r.swing_report.ok and len(r.swing_report.entries) == 64
    sched = adders.InputSchedule(1e-11, 2e-10, 1)
    covered = set(sched.vectors)
    all_vectors_checked = covered == set(product((0, 1), repeat=3))
    ok = (seen_cells == expected_cells and all_pass and all_vectors_checked
          and elapsed < 300.0)
    _report(4, f"all 6 adders pass exhaustive transient verification at 0.9 V "
               f"and 0.65 V (matrix runtime {elapsed:.0f}s < 300s)", ok)


def test_criterion_5_structural_counts():
    expected = {
        AdderKind.PROPOSED: (14, 3),
        AdderKind.CNT_FA1: (8, 7),
        AdderKind.CNT_FA3: (8, 5),
        AdderKind.C_CMOS: (28, 0),
    }
    ok = True
    for kind, (t_count, c_count) in expected.items():
        s = netlist.stats(adders.build_adder(kind))
        ok &= (s.transistor_count, s.capacitor_count) == (t_count, c_count)
    _report(5, "stats: proposed 14T/3C, cnt-fa1 8T/7C, cnt-fa3 8T/5C, c-cmos 28T", ok)


def test_criterion_6_five_input_majority_identity():
    ok = True
    for a, b, c in product((0, 1), repeat=3):
        ncout = 1 - logic.majority((a, b, c))
        ok &= logic.majority((a, b, c, ncout, ncout)) == (a ^ b ^ c)
    _report(6, "Maj(a,b,c,~cout,~cout) equals a^b^c on all 8 vectors", ok)


def test_criterion_7_report_contract(bench_runs):
    config = bench_runs["config"]
    results_a, _ = bench_runs["a"]
    results_b, _ = bench_runs["b"]

    # (a) pdp is exactly power * delay for every measured row
    payload = json.loads(bench.report_json(results_a, config))
    exact = all(row["pdp_j"] == row["power_w"] * row["delay_s"] for row in payload["rows"])

    # (b) the paper's reference values appear verbatim, labeled
    md = bench.report_markdown(results_a, config)
    verbatim = (
        bench.REFERENCE_LABEL in md
        and "6.26E-07" in md and "5.27E-11" in md and "3.30E-17" in md
        and "1.25E-11" in md and "1.05E-17" in md
    )

    # (c) byte-identical reports across two consecutive full runs
    identical = all(
        fmt(results_a, config) == fmt(results_b, config)
        for fmt in bench.FORMATTERS.values()
    )
    ok = exact and verbatim and identical
    _report(7, "report: pdp = power*delay exactly, paper values verbatim, "
               "byte-identical across two runs", ok)


def test_matrix_stays_within_the_fine_step_reference(bench_runs):
    # The benchmark's drift gate, cell by cell, against a run of the same
    # config at a finer timestep: the bounds and the drift come from
    # perfbench/checks.py, so the two gates cannot disagree.
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    with open(PERFBENCH / "reference_fine_step.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    config = bench_runs["config"]
    settings = json.loads(json.dumps(config.as_dict()))
    assert {**settings, "timestep_s": reference["timestep_s"]} == reference["config"]
    results, _ = bench_runs["a"]
    rows = json.loads(bench.report_json(results, config))["rows"]
    cells = {f"{row['design']}@{row['vdd']:g}": row for row in rows}
    assert cells.keys() == reference["cells"].keys()
    fails = [fail for key, row in cells.items()
             for fail in checks.check_reference(row, reference["cells"][key])]
    assert fails == []


def test_no_measured_toggle_runs_into_the_next_input_edge(bench_runs):
    # A delay is searched for only up to the next input edge (the end of
    # the stimulus after the last one), so a toggle that needs the whole
    # gap would be cut off or pinned on the wrong edge.  Every measured
    # delay must use less than its gap; the worst is printed.
    config = bench_runs["config"]
    results, _ = bench_runs["a"]
    assert len(results) == 12
    sched = config.schedule()
    edge_times = [t_mid for t_mid, _, _ in sched.edges()]
    ends = edge_times[1:] + [sched.total_time]
    worst = (0.0, "")
    for r in results:
        assert r.measurement.transitions
        for tr in r.measurement.transitions:
            gap = ends[edge_times.index(tr.edge_time)] - tr.edge_time
            worst = max(worst, (tr.delay / gap, f"{r.measurement.circuit} @ {r.vdd:g} V, "
                                                f"{tr.output} at {tr.edge_time:.4e} s"))
    print(f"worst delay / gap to the next input edge: {worst[0]:.3f} ({worst[1]})")
    assert worst[0] < 1.0, worst


def test_source_levels_equal_np_interp_at_every_step(bench_runs):
    # The transient reads each PWL source level with a bisection and
    # np.interp's own formula; at every accepted step time of the 12
    # cells, and at every PWL corner, it must equal np.interp bit for bit.
    config = bench_runs["config"]
    results, _ = bench_runs["a"]
    assert len(results) == 12
    for r in results:
        sched = adders.InputSchedule(config.transition_time_s, config.hold_time_s,
                                     config.warmup_periods + config.measure_periods)
        devices = config.devices()
        dut = adders.build_adder(r.kind, r.vdd, input_cap=config.unit_capacitance_f,
                                 devices=devices)
        tb = adders.build_testbench(dut, r.vdd, config.transition_time_s, config.hold_time_s,
                                    periods=sched.periods, load_cap=config.load_capacitance_f,
                                    devices=devices)
        waveforms = solver._waveforms(solver._compiled(tb), tb)
        pwl = [b for b, wf in enumerate(waveforms) if wf.kind == "pwl"]
        assert pwl
        corners = {t for b in pwl for t, _ in waveforms[b].points}
        times = np.array(sorted(set(r.result.times.tolist()) | corners))
        at = solver._source_values(waveforms)
        got = np.array([at(t) for t in times.tolist()])
        for b in pwl:
            xp, fp = (np.array(col) for col in zip(*waveforms[b].points))
            want = np.interp(times, xp, fp)
            assert got[:, b].tobytes() == want.tobytes(), (r.kind, r.vdd, b)


def test_criterion_8_measurement_units():
    # pure shift returns the shift exactly
    t = np.linspace(0, 100e-12, 4001)
    vout = np.interp(t, [45e-12, 55e-12], [0.0, 0.9])
    shift_ok = measure.propagation_delay(
        t, vout, 0.9, 0.0, "out", [45e-12], [45e-12]
    )[0].delay == pytest.approx(5e-12, rel=1e-9)

    # RC 50% crossing returns tau*ln2 within 1%
    tau = 1e-12
    circuit = netlist.parse("v1 in 0 pwl(0 0 1e-15 0.9)\nr1 in out 1k\nc1 out 0 1f\n")
    cfg = SolverConfig(timestep=tau / 200)
    res = solver.transient(circuit, cfg, 6 * tau,
                           initial_conditions={"in": 0.0, "out": 0.0})
    # The input edge is the middle of its 1 fs ramp.
    delay = measure.propagation_delay(res.times, res.voltage("out"), 0.9, 0.0, "out",
                                      [0.5e-15], [0.5e-15])[0].delay
    rc_ok = abs(delay - tau * math.log(2)) / (tau * math.log(2)) <= 0.01

    # DC resistor power within 1e-9 relative
    circuit = netlist.parse("v1 a 0 dc 0.9\nr1 a 0 1k\n")
    res = solver.transient(circuit, SolverConfig(timestep=1e-13), 1e-12)
    p = measure.average_power(res, "v1", 0.9, (0.0, 1e-12))
    power_ok = abs(p - 0.9 * 0.9 / 1e3) / (0.9 * 0.9 / 1e3) <= 1e-9

    _report(8, "pure-shift delay exact, RC crossing = tau*ln2 within 1%, "
               "resistor power within 1e-9", shift_ok and rc_ok and power_ok)
