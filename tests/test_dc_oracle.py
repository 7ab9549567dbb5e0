"""DC operating points of random small CNFET circuits against an independent KCL check.

Each drawn circuit is a chain of CNFET inverter pairs, each pair's gate
driven by `in` or an earlier pair's output, with random resistors and
pass devices between its nodes and the rails.  gmin ties every node to
ground, so each circuit has a solution.  A solve that converges must meet
KCL at every node no source drives, with the currents taken from
perfbench/checks.py's own square law (not devices.drain_currents) and
its tolerance KCL_ATOL_A + KCL_RTOL * (largest incident current).  A
solve that fails must raise ConvergenceError naming a node.  Each chain's
neighbours at vin -/+ vdd/20, warm-started from its solution, are held to
the same check.  Examples are derandomized, so every run draws the same
circuits.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cnfetsim.netlist import ElementKind, parse
from cnfetsim.solver import ConvergenceError, dc_operating_point

_spec = importlib.util.spec_from_file_location(
    "perfbench_checks", Path(__file__).resolve().parents[1] / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

CHIRALITIES = (10, 13, 19, 59)  # (n, 0) tubes, all semiconducting
MODELS = "".join(f".model c{pol}{n} cnfet polarity={pol} chirality={n},0 tubes=3 k=1e-4\n"
                 for n in CHIRALITIES for pol in "np")
RESISTANCES = ("1k", "10k", "100k", "1meg")


@st.composite
def inverter_chains(draw):
    """(netlist text, vdd, vin): 2-6 inverter pairs, 0-3 resistors, 0-2 pass devices."""
    vdd = draw(st.sampled_from((0.65, 0.9)))
    vin = draw(st.integers(0, 20)) * vdd / 20
    chirality = st.sampled_from(CHIRALITIES)
    lines = [MODELS, f"vdd vdd 0 dc {vdd!r}", f"vin in 0 dc {vin!r}"]
    nodes = ["in"]
    for k in range(1, draw(st.integers(2, 6)) + 1):
        gate = draw(st.sampled_from(nodes))
        lines += [f"qn{k} n{k} {gate} 0 cn{draw(chirality)}",
                  f"qp{k} n{k} {gate} vdd cp{draw(chirality)}"]
        nodes.append(f"n{k}")
    ends = st.sampled_from(nodes + ["0", "vdd"])
    for j in range(draw(st.integers(0, 3))):
        a, b = draw(st.lists(ends, min_size=2, max_size=2, unique=True))
        lines.append(f"r{j} {a} {b} {draw(st.sampled_from(RESISTANCES))}")
    for j in range(draw(st.integers(0, 2))):
        d, s = draw(st.lists(ends, min_size=2, max_size=2, unique=True))
        pol = draw(st.sampled_from("np"))
        lines.append(f"qx{j} {d} {draw(st.sampled_from(nodes))} {s} c{pol}{draw(chirality)}")
    return "\n".join(lines) + "\n", vdd, vin


def _kcl_failures(circuit, op: dict[str, float]) -> list[str]:
    """Nodes no source drives whose square-law KCL misses its tolerance."""
    leaving = defaultdict(float)
    scale = defaultdict(float)

    def flow(a: str, b: str, i: float) -> None:
        for node, out in ((a, i), (b, -i)):
            leaving[node] += out
            scale[node] = max(scale[node], abs(out))

    for t in checks.transistors(circuit):
        vs = op[t["s"]]
        i = checks.drain_current(t["polarity"], t["k"], t["vth"], t["lam"],
                                 op[t["g"]] - vs, op[t["d"]] - vs)
        flow(t["d"], t["s"], float(i))
    for el in circuit.elements:
        if el.kind is ElementKind.RESISTOR:
            a, b = el.terminals
            flow(a, b, (op[a] - op[b]) / el.value)
    driven = {"0"} | {node for el in circuit.elements if el.kind is ElementKind.VSOURCE
                      for node in el.terminals}
    fails = []
    for node in set(leaving) - driven:
        resid = abs(leaving[node] + checks.GMIN_S * op[node])
        tol = checks.KCL_ATOL_A + checks.KCL_RTOL * scale[node]
        if resid > tol:
            fails.append(f"{node}: KCL off by {resid:.3e} A (tolerance {tol:.3e} A)")
    return fails


def _solve_and_check(circuit, vdd: float, vin: float, guess=None):
    """The checked DC solution, or None when the solve fails naming a node."""
    try:
        op = dc_operating_point(circuit, initial_guess=guess)
    except ConvergenceError as exc:
        nodes = {node for el in circuit.elements for node in el.terminals}
        assert exc.node in nodes or exc.node in ("i(vdd)", "i(vin)"), str(exc)
        return None
    assert op["vdd"] == pytest.approx(vdd, abs=1e-6)
    assert op["in"] == pytest.approx(vin, abs=1e-6)
    assert _kcl_failures(circuit, op) == []
    return op


def test_random_inverter_chains_meet_kcl_or_name_a_node():
    converged = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(inverter_chains())
    def check(drawn):
        text, vdd, vin = drawn
        converged.append(_solve_and_check(parse(text), vdd, vin) is not None)

    check()
    # A solver that gave up on every circuit would pass the check above.
    assert sum(converged) >= 0.8 * len(converged)


def test_warm_started_neighbours_meet_kcl_or_name_a_node():
    # Each chain that converges is solved again at vin -/+ vdd/20, each
    # from its first solution, as a sweep's next point would be.
    warm = []

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(inverter_chains())
    def check(drawn):
        text, vdd, vin = drawn
        circuit = parse(text)
        op = _solve_and_check(circuit, vdd, vin)
        if op is not None:
            for v in (vin - vdd / 20, vin + vdd / 20):
                warm.append(_solve_and_check(circuit.with_dc_source("vin", v), vdd, v, op))

    check()
    assert len(warm) >= 100
    assert warm.count(None) <= 0.2 * len(warm)
