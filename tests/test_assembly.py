"""Batched Newton assembly against the scalar stamping loop it replaced.

The solver stamps device Jacobian and current values through one
np.add.at per iterate into ground-padded arrays: `_Newton._assemble`
builds the residual and scale, `_Newton._jacobian` the Jacobian.  Every
entry must be summed in the scalar loop's order, so the comparisons here
use ==, not a tolerance.  The single equilibrated LU solve of each
iterate is checked here too, by its row-wise backward error.
"""

import itertools

import numpy as np
import pytest

from cnfetsim import adders, bench, solver
from cnfetsim.devices import Polarity, drain_currents
from cnfetsim.netlist import parse
from cnfetsim.solver import (
    GMIN,
    SolverConfig,
    _Compiled,
    _floating_nodes,
    _lin_solve,
    _Newton,
    initialize_floating_nodes,
)

# --- reference: the scalar kernel, base matrix and assembly loop ------------


def _ref_square_law(k, vth, lam, vgs, vds):
    vov = vgs - vth
    if vov <= 0.0:
        return 0.0, 0.0, 0.0
    scale = 1.0 + lam * vds
    if vds < vov:
        base = k * (vov * vds - 0.5 * vds * vds)
        return base * scale, k * vds * scale, k * (vov - vds) * scale + base * lam
    i_sat = 0.5 * k * vov * vov
    return i_sat * scale, k * vov * scale, i_sat * lam


def _ref_drain_current_n(k, vth, lam, vgs, vds):
    if vds >= 0.0:
        return _ref_square_law(k, vth, lam, vgs, vds)
    i, gm, gds = _ref_square_law(k, vth, lam, vgs - vds, -vds)
    return -i, -gm, gm + gds


def _ref_drain_current(polarity, k, vth, lam, vgs, vds):
    if polarity is Polarity.N:
        return _ref_drain_current_n(k, vth, lam, vgs, vds)
    i, gm, gds = _ref_drain_current_n(k, vth, lam, -vgs, -vds)
    return -i, gm, gds


def _ref_stamp_conductance(g, i, j, cond):
    if i >= 0:
        g[i, i] += cond
    if j >= 0:
        g[j, j] += cond
    if i >= 0 and j >= 0:
        g[i, j] -= cond
        g[j, i] -= cond


def _ref_base_matrix(comp, gmin, cap_geq, charge_rows):
    g = np.zeros((comp.size, comp.size))
    for i in range(comp.n_nodes):
        g[i, i] += gmin
    for i, j, cond in comp.resistors:
        _ref_stamp_conductance(g, i, j, cond)
    if cap_geq is not None:
        for i, j, c in comp.capacitors:
            _ref_stamp_conductance(g, i, j, cap_geq * c)
    for b, (_, p, m) in enumerate(comp.sources):
        row = comp.n_nodes + b
        if p >= 0:
            g[p, row] += 1.0
            g[row, p] += 1.0
        if m >= 0:
            g[m, row] -= 1.0
            g[row, m] -= 1.0
    for n in charge_rows:
        # v_n - sum(C_j v_j) / sum(C_j) over the capacitors at n
        far = [(j if i == n else i, c) for i, j, c in comp.capacitors if n in (i, j)]
        total = sum(c for _, c in far)
        g[n, :] = 0.0
        g[n, n] = 1.0
        for other, c in far:
            if other >= 0:
                g[n, other] -= c / total
    return g


def _ref_assemble(comp, base, const, cap_companion, x):
    nn = comp.n_nodes
    f = base @ x + const
    jac = base.copy()
    xp = np.append(x, 0.0)
    scale = np.zeros(comp.size)  # a source row's scale stays 0

    def bump(node, current):
        if node >= 0 and abs(current) > scale[node]:
            scale[node] = abs(current)

    for i, j, g in comp.resistors:
        current = g * (xp[i] - xp[j])
        bump(i, current)
        bump(j, current)
    geq, hist = cap_companion
    for n, (i, j, _) in enumerate(comp.capacitors):
        current = geq[n] * (xp[i] - xp[j]) + hist[n]
        bump(i, current)
        bump(j, current)
    for b, (_, p, m) in enumerate(comp.sources):
        for t in (p, m):
            bump(t, x[nn + b])

    xl = x.tolist()
    xl.append(0.0)
    for d, g_, s, mirrored, k, vth, lam in comp.devices:
        pol = Polarity.P if mirrored else Polarity.N
        vs = xl[s]
        i_ds, gm, gds = _ref_drain_current(pol, k, vth, lam, xl[g_] - vs, xl[d] - vs)
        a_i = abs(i_ds)
        if d >= 0:
            f[d] += i_ds
            jac[d, d] += gds
            if g_ >= 0:
                jac[d, g_] += gm
            if s >= 0:
                jac[d, s] -= gm + gds
            if a_i > scale[d]:
                scale[d] = a_i
        if s >= 0:
            f[s] -= i_ds
            jac[s, s] += gm + gds
            if d >= 0:
                jac[s, d] -= gds
            if g_ >= 0:
                jac[s, g_] -= gm
            if a_i > scale[s]:
                scale[s] = a_i
    return f, jac, scale


# --- cases -------------------------------------------------------------------


def _testbench(kind, vdd):
    config = bench.BenchConfig()
    dut = adders.build_adder(kind, vdd, input_cap=config.unit_capacitance_f)
    return adders.build_testbench(dut, vdd, config.transition_time_s, config.hold_time_s,
                                  periods=1, load_cap=config.load_capacitance_f)


# A device with every terminal grounded in turn, and one with drain and
# gate both at ground, around a resistor and a capacitor.
GROUNDED = parse(
    ".model n19 cnfet polarity=n chirality=19,0 tubes=3 k=1e-4\n"
    ".model p19 cnfet polarity=p chirality=19,0 tubes=3 k=1e-4\n"
    ".model mn mosfet polarity=n vth=0.3 k=2e-4 lambda=0.1\n"
    "vdd vdd 0 dc 0.9\nvin in 0 dc 0.4\n"
    "q1 0 in a n19\nq2 a 0 vdd p19\nm3 b a 0 mn\nm4 0 0 b mn\nq5 b b vdd p19\n"
    "r1 a b 10k\nc1 b 0 1f\nc2 a in 2f\n"
)

# An inverter alone: no resistor or capacitor, so assembly skips that block.
NO_RC = parse(
    ".model n19 cnfet polarity=n chirality=19,0 tubes=3 k=1e-4\n"
    ".model p19 cnfet polarity=p chirality=19,0 tubes=3 k=1e-4\n"
    "vdd vdd 0 dc 0.9\nvin in 0 dc 0.4\nqn out in 0 n19\nqp out in vdd p19\n"
)

CIRCUITS = [
    pytest.param(lambda kind=kind, vdd=vdd: (_testbench(kind, vdd), vdd), id=f"{kind.value}-{vdd}")
    for kind, vdd in itertools.product(adders.BENCH_ORDER, (0.9, 0.65))
] + [pytest.param(lambda: (GROUNDED, 0.9), id="grounded-terminals"),
     pytest.param(lambda: (NO_RC, 0.9), id="no-rc")]

LINEAR_RC = pytest.param(
    lambda: (parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n"), 0.9), id="linear-rc"
)


def _random_state(comp, vdd, rng):
    x = np.empty(comp.size)
    x[: comp.n_nodes] = rng.uniform(-0.2, vdd + 0.2, comp.n_nodes)
    x[comp.n_nodes:] = rng.normal(0.0, 1e-5, comp.n_src)
    const = rng.normal(0.0, 1e-6, comp.size + 1)
    geq = rng.uniform(0.0, 1e-2, comp.n_cap)
    hist = rng.normal(0.0, 1e-6, comp.n_cap)
    return x, const, (geq, hist)


def _newton_case(make, analysis):
    """(comp, vdd, charge rows, cap_geq, newton) for one circuit and analysis.

    "dc-charge" is the floating-node initializer's system: each floating
    node's row holds its zero-charge equation.
    """
    circuit, vdd = make()
    comp = _Compiled(circuit)
    cap_geq = 2.0 / 2e-13 if analysis == "transient" else None
    charge_rows = sorted(_floating_nodes(comp)) if analysis == "dc-charge" else []
    base = comp.base_matrix(cap_geq)
    comp.stamp_charge_rows(base, charge_rows)
    newton = _Newton(comp, comp.system(base, charge_rows))
    return comp, vdd, charge_rows, cap_geq, newton


@pytest.mark.parametrize("make", CIRCUITS)
@pytest.mark.parametrize("analysis", ["transient", "dc-charge"])
def test_assemble_equals_scalar_loop(make, analysis):
    comp, vdd, charge_rows, cap_geq, newton = _newton_case(make, analysis)
    ref_base = _ref_base_matrix(comp, GMIN, cap_geq, charge_rows)
    assert np.array_equal(newton.base[: comp.size, : comp.size], ref_base)
    rng = np.random.default_rng(1234)
    for _ in range(4):
        x, const, companion = _random_state(comp, vdd, rng)
        f, scale, stamps = newton._assemble(np.append(x, 0.0), const, comp.companion(*companion))
        jac = newton._jacobian(stamps)
        ref_f, ref_jac, ref_scale = _ref_assemble(comp, ref_base, const[: comp.size], companion, x)
        assert np.array_equal(f[: comp.size], ref_f)
        assert np.array_equal(jac[: comp.size, : comp.size], ref_jac)
        assert np.array_equal(scale, ref_scale)


@pytest.mark.parametrize("make", CIRCUITS + [LINEAR_RC])
@pytest.mark.parametrize("analysis", ["transient", "dc-charge"])
def test_single_solve_is_backward_stable_per_row(make, analysis):
    # One equilibrated LU, no refinement: every row of J dx = -f must hold
    # to within a few ulps of that row's own magnitude.
    comp, vdd, _, _, newton = _newton_case(make, analysis)
    size = comp.size
    rng = np.random.default_rng(1234)
    for _ in range(4):
        x, const, companion = _random_state(comp, vdd, rng)
        f, _, stamps = newton._assemble(np.append(x, 0.0), const, comp.companion(*companion))
        jac = newton._jacobian(stamps)[:size, :size]
        rhs = -f[:size]
        dx = _lin_solve(jac, rhs)
        resid = np.abs(jac @ dx - rhs)
        bound = 1e-14 * (np.abs(jac).max(axis=1) * np.abs(dx).max() + np.abs(rhs))
        assert (resid <= bound).all(), (resid / bound).max()


@pytest.mark.parametrize("make", CIRCUITS + [LINEAR_RC])
@pytest.mark.parametrize("analysis", ["transient", "dc-charge"])
@pytest.mark.parametrize("gufunc", [True, False], ids=["gufunc", "fallback"])
def test_lin_solve_returns_numpy_solve_bits(make, analysis, gufunc, monkeypatch):
    # _lin_solve calls LAPACK through np.linalg.solve's gufunc directly,
    # or through np.linalg.solve where NumPy lacks it; either way the
    # equilibrated system's solution is np.linalg.solve's, bit for bit.
    if not gufunc:
        monkeypatch.setattr(solver, "_solve1", None)
    comp, vdd, _, _, newton = _newton_case(make, analysis)
    size = comp.size
    rng = np.random.default_rng(1234)
    for _ in range(4):
        x, const, companion = _random_state(comp, vdd, rng)
        f, _, stamps = newton._assemble(np.append(x, 0.0), const, comp.companion(*companion))
        jac = newton._jacobian(stamps)[:size, :size]
        rhs = -f[:size]
        r = np.abs(jac).max(axis=1)
        r[r == 0.0] = 1.0
        assert np.array_equal(_lin_solve(jac, rhs), np.linalg.solve(jac / r[:, None], rhs / r))


def test_drain_current_equals_three_stage_kernel():
    # One batch call, one device per grid point, each on its own three
    # nodes (drain, gate, source at ground); the values must match the
    # reference to the bit, the sign of a zero included.
    grid = np.linspace(-1.2, 1.2, 49).tolist() + [0.0, -0.0, 0.3, 0.5]
    cases = [
        (pol, lam, vth, vgs, vds)
        for pol, lam, vth in itertools.product(Polarity, (0.0, 0.1), (0.25, 0.5))
        for vgs, vds in itertools.product(grid, grid)
    ]
    devices, v = [], []
    for n, (pol, lam, vth, vgs, vds) in enumerate(cases):
        devices.append((3 * n, 3 * n + 1, 3 * n + 2, pol is Polarity.P, 3e-4, vth, lam))
        v += (vds, vgs, 0.0)
    new = np.array(drain_currents(devices, v)).reshape(-1, 4)
    ref = []
    for pol, lam, vth, vgs, vds in cases:
        i, gm, gds = _ref_drain_current(pol, 3e-4, vth, lam, vgs, vds)
        ref.append((gds, gm, gm + gds, i))
    ref = np.array(ref)
    assert np.array_equal(new, ref)
    assert np.array_equal(np.signbit(new), np.signbit(ref))


def test_carried_stamps_equal_fresh_evaluation():
    tb = _testbench(adders.AdderKind.PROPOSED, 0.9)
    cfg = SolverConfig(timestep=2e-13)
    init = initialize_floating_nodes(tb)
    comp = _Compiled(tb)
    x = np.zeros(comp.size)
    for name, v in init.items():
        if comp.node_index.get(name, -1) >= 0:
            x[comp.node_index[name]] = v
    newton = _Newton(comp, comp.system(comp.base_matrix(1.0 / cfg.timestep)))
    const = np.zeros(comp.size + 1)
    const[comp.n_nodes: comp.size] = -0.9
    companion = comp.companion(comp.cap_c / cfg.timestep, np.zeros(comp.n_cap))
    x_new, _, carried = newton.solve(np.append(x, 0.0), const, companion)
    _, _, fresh = newton._assemble(x_new, const, companion)
    assert np.array_equal(carried, fresh)
