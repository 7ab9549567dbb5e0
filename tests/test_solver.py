"""MNA solver: DC operating point, transient integration, floating nodes."""

import dataclasses
import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from cnfetsim import solver
from cnfetsim.netlist import parse
from cnfetsim.solver import (
    ABSTOL,
    CHGTOL,
    RELTOL,
    TRTOL,
    VTOL,
    ConvergenceError,
    IllConditionedDividerError,
    SolverConfig,
    dc_operating_point,
    _lte_past,
    _lte_ratio,
    initialize_floating_nodes,
    transient,
)
from scalar_device import drain_current

CNFET_MODELS = """\
.model n19 cnfet polarity=n chirality=19,0 tubes=3 k=1e-4
.model p19 cnfet polarity=p chirality=19,0 tubes=3 k=1e-4
"""

INVERTER = CNFET_MODELS + """\
vdd vdd 0 dc 0.9
vin in 0 dc 0
qn out in 0 n19
qp out in vdd p19
"""

# The inverter driven by a ramp from 0 V at 1 ps to 0.9 V at 2 ps, into 1 fF.
INVERTER_PWL = CNFET_MODELS + """\
vdd vdd 0 dc 0.9
vin in 0 pwl(0 0 1p 0 2p 0.9)
qn out in 0 n19
qp out in vdd p19
cl out 0 1f
"""

# x feeds an inverter whose output is coupled back onto x ten times more
# strongly than the driven side; x has no DC path, so it is a floating node.
COUPLED_INVERTER = CNFET_MODELS + """\
vdd vdd 0 dc 0.9
va a 0 dc 0.45
c1 a x 1f
c2 out x 10f
qn out x 0 n19
qp out x vdd p19
"""


def _hold_inputs(tb, levels):
    """The testbench with each input source v<name> held at its level."""
    for name, level in levels.items():
        tb = tb.with_dc_source(f"v{name}", level)
    return tb


class TestDcOperatingPoint:
    def test_ohms_law(self):
        op = dc_operating_point(parse("v1 a 0 dc 0.9\nr1 a 0 1k\n"))
        assert op["a"] == pytest.approx(0.9, abs=1e-9)
        assert op["i(v1)"] == pytest.approx(-0.9e-3, rel=1e-9)

    def test_divider(self):
        op = dc_operating_point(parse("v1 a 0 dc 1\nr1 a b 1k\nr2 b 0 3k\n"))
        assert op["b"] == pytest.approx(0.75, rel=1e-9)

    def test_unconnected_node_pulled_to_ground(self):
        op = dc_operating_point(parse("v1 a 0 dc 0.9\nr1 a 0 1k\nc1 lonely b 1f\nr2 b 0 1k\n"))
        assert op["lonely"] == pytest.approx(0.0, abs=1e-9)

    def test_inverter_output_near_rail(self):
        op = dc_operating_point(parse(INVERTER))
        assert op["out"] == pytest.approx(0.9, abs=1e-3)

    def test_inverter_output_low(self):
        c = parse(INVERTER).with_dc_source("vin", 0.9)
        op = dc_operating_point(c)
        assert op["out"] == pytest.approx(0.0, abs=1e-3)

    def test_kcl_residual_property(self):
        # At the solution, the net current into each internal node is
        # below abstol + reltol * (largest incident branch current).
        c = parse("v1 a 0 dc 2\nr1 a b 1k\nr2 b 0 2k\nr3 b 0 2k\n")
        op = dc_operating_point(c)
        i1 = (op["a"] - op["b"]) / 1e3
        i2 = op["b"] / 2e3
        i3 = op["b"] / 2e3
        residual = abs(i1 - i2 - i3)
        assert residual <= ABSTOL + RELTOL * max(i1, i2, i3)

    def test_nonconvergence_reports_residual(self, monkeypatch):
        # Force failure with a pathologically tight iteration budget.
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(parse(INVERTER).with_dc_source("vin", 0.45))
        assert math.isfinite(err.value.residual)

    def test_nonconvergence_names_worst_row(self, monkeypatch):
        # Three clamped steps bring the supply node to its level; the
        # output's KCL row is then the one left unmet.
        c = parse(INVERTER).with_dc_source("vin", 0.45)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 3)
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(c)
        assert err.value.node == "out"
        assert err.value.unit == "A"
        assert "A at 'out'" in str(err.value)

    def test_clamped_supply_row_is_named_in_volts(self, monkeypatch):
        # One step clamped to 0.3 V leaves v(vdd) 0.6 V short of the
        # supply while every KCL row is met.
        c = parse(INVERTER).with_dc_source("vin", 0.45)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(c)
        assert err.value.node == "i(vdd)"
        assert err.value.residual == pytest.approx(0.6)
        assert "V at 'i(vdd)'" in str(err.value)

    def test_failed_dc_solve_is_not_retried(self, monkeypatch):
        # Five iterations cannot walk the output from 0 V onto the vertical
        # segment: the one solve at GMIN fails, and its error is raised.
        requests = []
        system = solver._Compiled.system

        def recording(comp, cap_geq=None, charge_rows=()):
            requests.append(charge_rows)
            return system(comp, cap_geq, charge_rows)

        monkeypatch.setattr(solver._Compiled, "system", recording)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 5)
        c = parse(INVERTER).with_dc_source("vin", 0.45)
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(c)
        assert requests == [()]
        assert err.value.node == "out"

    @pytest.mark.parametrize("gufunc", [True, False], ids=["gufunc", "fallback"])
    def test_parallel_sources_are_a_singular_matrix(self, monkeypatch, gufunc):
        # Two sources across one node ask for two levels there: the MNA
        # matrix is singular, with the direct LAPACK call and with
        # np.linalg.solve standing in for it alike.
        if not gufunc:
            monkeypatch.setattr(solver, "_solve1", None)
        with pytest.raises(ConvergenceError, match="singular MNA matrix") as err:
            dc_operating_point(parse("v1 a 0 dc 1\nv2 a 0 dc 2\n"))
        assert err.value.node == "i(v2)"

    def test_worst_row_ranks_each_row_by_its_own_tolerance(self):
        # A source row at 2x vtol (2e-6 V) fails by less than a node row
        # at 1000x abstol (1e-9 A), although 2e-6 > 1e-9.
        from cnfetsim.solver import _Compiled, _Newton
        comp = _Compiled(parse(INVERTER))
        newton = _Newton(comp, comp.system())
        f = np.zeros(comp.size + 1)
        f[comp.node_index["out"]] = 1e-9
        f[comp.n_nodes] = 2e-6
        err = newton._failure("failed", f, np.zeros(comp.size), None)
        assert err.node == "out"
        assert err.residual == 1e-9

    def test_nan_residual_does_not_converge(self):
        # NaN > tol is False, so a test written as "fail when above the
        # tolerance" would accept a NaN iterate as a solution.
        from cnfetsim.solver import _Compiled, _Newton
        comp = _Compiled(parse(INVERTER))
        newton = _Newton(comp, comp.system())
        scale = np.zeros(comp.size)
        f = np.zeros(comp.size + 1)
        assert newton._converged(f, scale)
        for row in range(comp.size):
            f[:] = 0.0
            f[row] = math.nan
            assert not newton._converged(f, scale), row
        # A NaN scale makes a KCL row's tolerance NaN, which fails too.
        f[:] = 0.0
        scale[comp.node_index["out"]] = math.nan
        assert not newton._converged(f, scale)
        comp = _Compiled(parse(COUPLED_INVERTER))
        x = comp.node_index["x"]
        charge = _Newton(comp, comp.system(None, [x]))
        f = np.zeros(comp.size + 1)
        f[x] = math.nan
        assert not charge._converged(f, np.zeros(comp.size))

    def test_failure_on_a_charge_row_names_the_floating_node_in_volts(self):
        # A zero-charge row's residual is a voltage, held to vtol: at 2x
        # vtol it fails by less than a KCL row at 1000x abstol, and alone
        # it is reported in volts at the floating node.
        from cnfetsim.solver import _Compiled, _Newton
        comp = _Compiled(parse(COUPLED_INVERTER))
        x = comp.node_index["x"]
        newton = _Newton(comp, comp.system(None, [x]))
        scale = np.zeros(comp.size)
        f = np.zeros(comp.size + 1)
        f[x] = 2e-6
        f[comp.node_index["out"]] = 1e-9
        assert newton._failure("failed", f, scale, None).node == "out"
        f[comp.node_index["out"]] = 0.0
        err = newton._failure("failed", f, scale, None)
        assert (err.node, err.unit, err.residual) == ("x", "V", 2e-6)
        assert "V at 'x'" in str(err)


def _record_starts(monkeypatch):
    """(newton, x0_pad, const) of every Newton solve, as each one starts."""
    starts = []
    solve = solver._Newton.solve

    def recording(newton, x0_pad, const, *args):
        starts.append((newton, x0_pad.copy(), const))
        return solve(newton, x0_pad, const, *args)

    monkeypatch.setattr(solver._Newton, "solve", recording)
    return starts


class TestWarmStart:
    """dc_operating_point(initial_guess=...) starts on every source's level."""

    # (netlist, swept source, new level): the swept source's - terminal at
    # ground, its + terminal at ground (with the supply's), and between
    # two nodes that are not ground.
    PLACEMENTS = {
        "minus-at-ground": (CNFET_MODELS + "vdd vdd 0 dc 0.9\nvin in 0 dc 0.3\n"
                            "qn out in 0 n19\nqp out in vdd p19\n", "vin", 0.6),
        "plus-at-ground": (CNFET_MODELS + "vss 0 vss dc 0.9\nvin 0 in dc 0.3\n"
                           "qn out in vss n19\nqp out in 0 p19\n", "vin", 0.6),
        "between-nodes": (CNFET_MODELS + "vdd vdd 0 dc 0.9\nvmid mid 0 dc 0.3\n"
                          "vin in mid dc 0\nqn out in 0 n19\nqp out in vdd p19\n", "vin", 0.3),
    }

    @pytest.mark.parametrize("text, source, level", PLACEMENTS.values(), ids=list(PLACEMENTS))
    def test_first_iterate_meets_every_source_row(self, monkeypatch, text, source, level):
        c = parse(text)
        previous = dc_operating_point(c)
        moved = c.with_dc_source(source, level)
        starts = _record_starts(monkeypatch)
        warm = dc_operating_point(moved, initial_guess=previous)
        (newton, x0_pad, const), = starts
        comp = newton.comp
        f, _ = newton._assemble(x0_pad, const)
        assert np.all(np.abs(f[comp.n_nodes: comp.size]) <= VTOL)
        cold = dc_operating_point(moved)
        assert warm.keys() == cold.keys()
        for name in comp.node_names:
            assert abs(warm[name] - cold[name]) <= VTOL, name
        for name in comp.current_names:
            assert abs(warm[name] - cold[name]) <= ABSTOL + RELTOL * abs(cold[name]), name

    def test_branch_currents_start_at_the_guess_or_zero(self, monkeypatch):
        c = parse(INVERTER).with_dc_source("vin", 0.6)
        previous = dc_operating_point(c)
        nodes_only = {k: v for k, v in previous.items() if not k.startswith("i(")}
        starts = _record_starts(monkeypatch)
        dc_operating_point(c.with_dc_source("vin", 0.3), initial_guess=previous)
        dc_operating_point(c.with_dc_source("vin", 0.3), initial_guess=nodes_only)
        comp = starts[0][0].comp
        currents = [x0_pad[comp.n_nodes: comp.size].tolist() for _, x0_pad, _ in starts]
        assert currents[0] == [previous[name] for name in comp.current_names]
        assert all(currents[0])
        assert currents[1] == [0.0] * comp.n_src


def _with_level(text, source, level):
    """The netlist text with `source`'s line replaced by a DC level."""
    lines = [f"{source} {line.split()[1]} {line.split()[2]} dc {level!r}"
             if line.split()[:1] == [source] else line for line in text.splitlines()]
    return "\n".join(lines) + "\n"


# COUPLED_INVERTER with a ramp on va: the transient's breakpoints and
# levels come from va's waveform.
COUPLED_RAMP = COUPLED_INVERTER.replace("va a 0 dc 0.45", "va a 0 pwl(0 0 5p 0 15p 0.9)")


def _assert_same_transient(a, b):
    assert np.array_equal(a.times, b.times)
    assert a.node_voltages.keys() == b.node_voltages.keys()
    for name in a.node_voltages:
        assert np.array_equal(a.voltage(name), b.voltage(name)), name
    for name in a.source_currents:
        assert np.array_equal(a.current(name), b.current(name)), name
    assert (a.lte_rejections, a.newton_iterations) == (b.lte_rejections, b.newton_iterations)


def _count_kernel_and_assembles(monkeypatch):
    """Counters of devices.drain_currents calls and _Newton._assemble calls."""
    counts = {"kernel": 0, "assemble": 0}
    kernel, assemble = solver.drain_currents, solver._Newton._assemble

    def counting_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def counting_assemble(*args, **kwargs):
        counts["assemble"] += 1
        return assemble(*args, **kwargs)

    monkeypatch.setattr(solver, "drain_currents", counting_kernel)
    monkeypatch.setattr(solver._Newton, "_assemble", counting_assemble)
    return counts


class TestSharedCompile:
    """A circuit and its with_dc_source copies share one compiled topology;
    every analysis must read its levels from the circuit it is given."""

    @pytest.mark.parametrize("guess", [False, True], ids=["cold", "warm"])
    def test_derived_equals_freshly_parsed_per_level(self, guess):
        c = parse(INVERTER)
        previous = None
        for vin in (0.0, 0.3, 0.45, 0.6, 0.9):
            fresh = parse(_with_level(INVERTER, "vin", vin))
            derived = dc_operating_point(c.with_dc_source("vin", vin), initial_guess=previous)
            assert derived == dc_operating_point(fresh, initial_guess=previous)
            if guess:
                previous = derived

    def test_analyses_after_a_level_change_see_the_new_level(self):
        # c is analysed first, so its compile is in place when the derived
        # circuit, with va now held at a DC level, is analysed.
        cfg = SolverConfig(timestep=1e-13, timestep_control=True)
        c = parse(COUPLED_RAMP)
        dc_operating_point(c)
        initialize_floating_nodes(c)
        transient(c, cfg, 2e-11)
        derived = c.with_dc_source("va", 0.3)
        fresh = parse(_with_level(COUPLED_RAMP, "va", 0.3))
        assert dc_operating_point(derived) == dc_operating_point(fresh)
        init = initialize_floating_nodes(derived)
        assert init == initialize_floating_nodes(fresh)
        _assert_same_transient(transient(derived, cfg, 2e-11), transient(fresh, cfg, 2e-11))
        ics = {name: v for name, v in init.items() if not name.startswith("i(")}
        _assert_same_transient(transient(derived, cfg, 2e-11, initial_conditions=ics),
                               transient(fresh, cfg, 2e-11, initial_conditions=ics))

    def test_dc_bases_are_kept_apart_by_charge_rows(self):
        # A plain DC point and the floating-node initializer share a
        # compile but not a base matrix: in either order on one circuit,
        # each must return what it returns alone on a fresh one.
        dc_alone = dc_operating_point(parse(COUPLED_INVERTER))
        init_alone = initialize_floating_nodes(parse(COUPLED_INVERTER))
        assert dc_alone != init_alone
        c = parse(COUPLED_INVERTER)
        assert dc_operating_point(c) == dc_alone
        assert initialize_floating_nodes(c) == init_alone
        c = parse(COUPLED_INVERTER)
        assert initialize_floating_nodes(c) == init_alone
        assert dc_operating_point(c) == dc_alone

    def test_sweep_compiles_once(self, monkeypatch):
        built = []
        init = solver._Compiled.__init__

        def counting(comp, circuit):
            built.append(circuit)
            init(comp, circuit)

        monkeypatch.setattr(solver._Compiled, "__init__", counting)
        c = parse(INVERTER)
        guess = None
        for k in range(121):
            guess = dc_operating_point(c.with_dc_source("vin", 0.9 * k / 120),
                                       initial_guess=guess)
        assert len(built) == 1

    def test_threads_sharing_a_compile_get_the_serial_results(self):
        # Four threads sweep copies of one uncompiled circuit at once, with
        # a short switch interval: a race may compile twice, but every
        # point must equal a fresh circuit's.
        c = parse(INVERTER)
        levels = [0.9 * k / 20 for k in range(21)]
        want = [dc_operating_point(parse(_with_level(INVERTER, "vin", v))) for v in levels]
        results = {}

        def sweep(t):
            results[t] = [dc_operating_point(c.with_dc_source("vin", v)) for v in levels]

        threads = [threading.Thread(target=sweep, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert [results.get(t) for t in range(4)] == [want] * 4

    def test_warm_sweep_points_on_a_rail_take_no_linear_solve(self, monkeypatch):
        # Each point after the first starts at the previous solution with
        # `in` moved to its new level.  A point whose devices stay in
        # their regions meets KCL there: 74 of the 121 points converge at
        # their start, and the sweep makes 104 linear solves in all.
        calls = []
        lin_solve = solver._lin_solve
        monkeypatch.setattr(solver, "_lin_solve", lambda *a: calls.append(1) or lin_solve(*a))
        c = parse(INVERTER)
        guess, per_point = None, []
        for k in range(121):
            before = len(calls)
            guess = dc_operating_point(c.with_dc_source("vin", 0.9 * k / 120),
                                       initial_guess=guess)
            per_point.append(len(calls) - before)
        assert per_point.count(0) == 74
        assert sum(per_point) == 104

    def test_threads_warm_sweeping_one_compile_get_the_serial_results(self):
        # The threads share the compile's system cache, and every point
        # must equal the serial sweep's.
        levels = [0.9 * k / 20 for k in range(21)]

        def sweep(c):
            out, guess = [], None
            for v in levels:
                guess = dc_operating_point(c.with_dc_source("vin", v), initial_guess=guess)
                out.append(guess)
            return out

        want = sweep(parse(INVERTER))
        c = parse(INVERTER)
        results = {}
        threads = [threading.Thread(target=lambda t=t: results.__setitem__(t, sweep(c)))
                   for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert [results.get(t) for t in range(4)] == [want] * 4

    def test_threads_running_transients_on_one_compile_get_the_serial_results(self):
        # Transient steps share the compile's systems too, at two supply
        # levels, and every run must equal a fresh circuit's.
        cfg = SolverConfig(timestep=2e-14)
        levels = [0.9, 0.7]
        want = [transient(parse(_with_level(INVERTER_PWL, "vdd", v)), cfg, 2e-12) for v in levels]
        c = parse(INVERTER_PWL)
        results = {}

        def run(t):
            results[t] = [transient(c.with_dc_source("vdd", levels[t % 2]), cfg, 2e-12)
                          for _ in range(2)]

        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for t in range(4):
            for got in results[t]:
                _assert_same_transient(got, want[t % 2])

    def test_replace_with_other_elements_compiles_afresh(self):
        # Same element count and nodes, another resistor value: the copy
        # must not reuse the divider's compile.
        c = parse("v1 a 0 dc 0.9\nr1 a b 1k\nr2 b 0 1k\n")
        assert dc_operating_point(c)["b"] == pytest.approx(0.45, rel=1e-9)
        r2 = dataclasses.replace(c.element("r2"), value=3e3)
        changed = dataclasses.replace(c, elements=(*c.elements[:2], r2))
        assert solver._compiled(changed) is not solver._compiled(c)
        assert dc_operating_point(changed)["b"] == pytest.approx(0.675, rel=1e-9)


class TestLinearOneIteration:
    def test_dc_linear_single_solve(self):
        from cnfetsim.solver import _Compiled, _dc_const, _solve_dc
        c = parse("v1 a 0 dc 0.9\nr1 a b 1k\nr2 b 0 1k\n")
        comp = _Compiled(c)
        _, iters, _ = _solve_dc(comp, _dc_const(comp, c))
        assert iters == 1

    def test_transient_linear_single_solve_per_step(self):
        from cnfetsim.solver import _Compiled, _Newton, _dc_const
        import numpy as np
        cfg = SolverConfig(timestep=1e-14)
        c = parse("v1 a 0 dc 0.9\nr1 a b 1k\nc1 b 0 1f\n")
        comp = _Compiled(c)
        nt = _Newton(comp, comp.system(2.0 / cfg.timestep))
        const = _dc_const(comp, c)
        hist = np.zeros(comp.n_cap)
        x0 = np.zeros(comp.size + 1)
        _, iters, _ = nt.solve(x0, const, hist)
        assert iters == 1


def _samples_sha256(res, times=None) -> str:
    """sha256 of a transient's times (or `times` in their place), node
    voltages (by name) and source currents."""
    h = hashlib.sha256((res.times if times is None else times).tobytes())
    for name in sorted(res.node_voltages):
        h.update(res.node_voltages[name].tobytes())
    for name in res.source_currents:
        h.update(res.source_currents[name].tobytes())
    return h.hexdigest()


class TestTransistorFreeBits:
    """A circuit with no transistor takes the same Newton iterate as any
    other, with an empty device stamp array.  These pins were recorded
    when it still took an iterate of its own, and hold its bits."""

    RC_RAMP = "v1 in 0 pwl(0 0 1p 0 3p 0.9)\nr1 in out 1k\nc1 out 0 1f\n"

    def test_fixed_step_rc_samples(self):
        # Every value but the last time was recorded with the k*dt sample
        # grid, whose 200th point is fl(200 * 5e-14) = 1.0000000000000001e-11;
        # the step ladder lands the last sample on tstop itself.
        res = transient(parse(self.RC_RAMP), SolverConfig(timestep=5e-14), 1e-11,
                        initial_conditions={"in": 0.0, "out": 0.0})
        assert _samples_sha256(res, res.times[:-1]) == (
            "1d7eef383d7f4d3db85a39c3a4ada534b9e6348e1fd8396c0b3f87f066dd6e6b")
        assert res.times[-1] == 1e-11
        assert _samples_sha256(res) == (
            "4087ee28f3dbac4377ba66b1f1b6c9256005ace992cd93a80554b28b779ecd5f")
        assert (len(res.times) - 1, res.newton_iterations, res.lte_rejections) == (200, 180, 0)

    def test_error_controlled_rc_samples_and_counts(self):
        res = transient(parse(self.RC_RAMP), SolverConfig(timestep=5e-13, timestep_control=True),
                        1e-10, initial_conditions={"in": 0.0, "out": 0.0})
        assert _samples_sha256(res) == (
            "bf532416e3f0d8eecd2a8d2ea0663923dc284cbe3a6742bf5941d89a8be8e943")
        assert (len(res.times) - 1, res.newton_iterations, res.lte_rejections) == (28, 23, 2)

    def test_resistor_divider_operating_point(self):
        op = dc_operating_point(parse("v1 a 0 dc 0.9\nr1 a b 1k\nr2 b c 2.2k\nr3 c 0 4.7k\n"))
        assert repr(op) == ("{'a': 0.9, 'b': 0.7860759483619614, 'c': 0.535443036487643, "
                            "'i(v1)': -0.00011392405253803862, '0': 0.0}")


class TestFixedStepGrid:
    """A fixed-step run is the step ladder held at one rung, with tstop its
    only breakpoint: samples at k * dt, bit for bit, then tstop."""

    RC = "v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n"

    @pytest.mark.parametrize("dt,tstop,steps", [
        (5e-14, 1e-11, 200),       # a multiple, though fl(200 * 5e-14) > 1e-11
        (1e-13, 1.0001e-11, 101),  # not a multiple: a short last step
        (2e-13, 2.05e-11, 103),    # a multiple of dt / 16 but not of dt
        (1e-13, 3e-14, 1),         # below dt: one step to tstop
    ], ids=["multiple", "non-multiple", "half-step", "below-dt"])
    def test_samples_are_the_k_dt_grid_then_tstop(self, dt, tstop, steps):
        res = transient(parse(self.RC), SolverConfig(timestep=dt), tstop,
                        initial_conditions={"in": 0.9, "out": 0.0})
        assert len(res.times) - 1 == steps
        assert res.times[:-1].tolist() == [k * dt for k in range(steps)]
        assert res.times[-1] == tstop

    def test_pwl_corner_between_grid_points_adds_no_sample(self):
        # Under step control each corner, 1.03 ps and 2.57 ps here, is a
        # breakpoint; a fixed-step run steps over them.
        c = parse("v1 in 0 pwl(0 0 1.03e-12 0 2.57e-12 0.9)\nr1 in out 1k\nc1 out 0 1f\n")
        res = transient(c, SolverConfig(timestep=1e-13), 5e-12,
                        initial_conditions={"in": 0.0, "out": 0.0})
        assert res.times.tolist() == [k * 1e-13 for k in range(50)] + [5e-12]
        controlled = transient(c, SolverConfig(timestep=1e-13, timestep_control=True), 5e-12,
                               initial_conditions={"in": 0.0, "out": 0.0})
        assert {1.03e-12, 2.57e-12} <= set(controlled.times.tolist())


class TestTransient:
    def test_each_fixed_step_reuses_the_stamps_at_its_start(self, monkeypatch):
        # Every step starts at the last accepted solution, the first at
        # the DC point, and takes the stamps it was accepted on: each
        # step's first assemble calls no device kernel, and only the cold
        # DC start evaluates at its first.
        counts = _count_kernel_and_assembles(monkeypatch)
        res = transient(parse(INVERTER_PWL), SolverConfig(timestep=2e-14), 4e-12)
        assert len(res.times) - 1 == 200
        assert counts["assemble"] - counts["kernel"] == 200

    def test_each_breakpoints_first_step_reuses_the_stamps_it_starts_at(self, monkeypatch):
        # Under step control the ramp's corners, 1 ps and 2 ps, are
        # breakpoints.  The run's first step and each breakpoint's first
        # step start at the solution before them (the DC point, then the
        # step that landed on the breakpoint) and take the stamps it was
        # accepted on; every other step starts from the predictor and
        # evaluates its own start.
        solves = []
        solve = solver._Newton.solve

        def recording(newton, x0_pad, const, hist=None, time=None, stamps=None):
            out = solve(newton, x0_pad, const, hist, time, stamps)
            solves.append((newton, x0_pad.copy(), const, time, stamps, out[2]))
            return out

        monkeypatch.setattr(solver._Newton, "solve", recording)
        cfg = SolverConfig(timestep=2e-14, timestep_control=True)
        res = transient(parse(INVERTER_PWL), cfg, 4e-12)
        times = res.times.tolist()
        firsts = [times[1], times[times.index(1e-12) + 1], times[times.index(2e-12) + 1]]
        carried = [k for k, (*_, stamps, _) in enumerate(solves) if stamps is not None]
        assert [solves[k][3] for k in carried] == firsts
        for k in carried:
            newton, x0_pad, const, _, stamps, _ = solves[k]
            assert stamps is solves[k - 1][5]
            assert np.array_equal(stamps, newton._assemble(x0_pad, const)[1])

    def test_fixed_step_builds_one_companion_matrix_per_method(self, monkeypatch):
        # A benchmark cell's 33,600 steps of 0.2 ps: k*dt sample times
        # differ by 18 distinct float values, but every full step must use
        # one length, so backward Euler and trapezoidal build one each.
        from cnfetsim import solver
        built = []
        base_matrix = solver._Compiled.base_matrix

        def counting(comp, cap_geq):
            if cap_geq is not None:
                built.append(cap_geq)
            return base_matrix(comp, cap_geq)

        monkeypatch.setattr(solver._Compiled, "base_matrix", counting)
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")
        cfg = SolverConfig(timestep=2e-13)
        res = transient(c, cfg, 6.72e-9)
        assert len(res.times) == 33_601
        assert len(built) <= 2
        # A short final step adds at most one more.
        built.clear()
        res = transient(c, cfg, 2.05e-11)
        assert len(res.times) == 104
        assert len(built) <= 3

    def test_rc_charging_matches_analytic(self):
        tau = 1e-12
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")
        cfg = SolverConfig(timestep=tau / 100)
        res = transient(c, cfg, 5 * tau, initial_conditions={"in": 0.9, "out": 0.0})
        for mult in (1, 2, 5):
            idx = int(round(mult * 100))
            t = res.times[idx]
            expected = 0.9 * (1 - math.exp(-t / tau))
            assert res.voltage("out")[idx] == pytest.approx(expected, rel=1e-3)

    def test_initial_conditions_dict_is_the_start(self):
        # A dict is the t=0 state with no flag to set: the given voltages,
        # 0 V for every node when it is empty.  None starts from the DC point.
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")
        cfg = SolverConfig(timestep=1e-13)
        given = transient(c, cfg, 1e-12, initial_conditions={"in": 0.9, "out": 0.3})
        assert given.voltage("in")[0] == 0.9
        assert given.voltage("out")[0] == 0.3
        zeros = transient(c, cfg, 1e-12, initial_conditions={})
        assert zeros.voltage("in")[0] == 0.0
        assert zeros.voltage("out")[0] == 0.0
        dc = transient(c, cfg, 1e-12)
        assert np.all(np.abs(dc.voltage("out") - 0.9) <= 1e-9)

    def test_given_source_current_is_the_start(self):
        # An "i(<source>)" entry is the t=0 branch current as given; a dict
        # that names no source current has each one settled instead, here
        # to the 0.6 mA that r1 draws from v1's + terminal.
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")
        cfg = SolverConfig(timestep=1e-13)
        given = transient(c, cfg, 1e-12,
                          initial_conditions={"in": 0.9, "out": 0.3, "i(v1)": 1e-3})
        assert given.current("v1")[0] == 1e-3
        settled = transient(c, cfg, 1e-12, initial_conditions={"in": 0.9, "out": 0.3})
        assert settled.current("v1")[0] == pytest.approx(-0.6e-3, rel=1e-6)

    def test_source_with_its_plus_terminal_at_ground_is_settled(self):
        # v1 holds a at -0.9 V, so r1 carries 0.9 mA from b into a; with no
        # current given, v1's branch carries it on to ground: KCL at a.
        c = parse("v1 0 a dc 0.9\nr1 a b 1k\nc1 b 0 1f\n")
        settled = transient(c, SolverConfig(timestep=1e-13), 1e-12,
                            initial_conditions={"a": -0.9, "b": 0.0})
        assert settled.current("v1")[0] == pytest.approx(-0.9e-3, rel=1e-6)

    def test_unknown_initial_condition_name_raises(self):
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")
        with pytest.raises(KeyError, match="unknown node 'nowhere'"):
            transient(c, SolverConfig(timestep=1e-13), 1e-12,
                      initial_conditions={"in": 0.9, "nowhere": 0.1})

    def test_ground_initial_condition_is_ignored(self):
        # initialize_floating_nodes returns ground's 0.0 with the rest, so
        # a "0" entry is read as nothing, whatever level it gives.
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")
        cfg = SolverConfig(timestep=1e-13)
        plain = transient(c, cfg, 1e-12, initial_conditions={"in": 0.9, "out": 0.3})
        grounded = transient(c, cfg, 1e-12, initial_conditions={"0": 0.5, "in": 0.9, "out": 0.3})
        _assert_same_transient(grounded, plain)

    def test_first_step_is_backward_euler(self):
        # The run opens with one backward-Euler step, then turns trapezoidal.
        tau, h = 1e-12, 1e-13
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")
        res = transient(c, SolverConfig(timestep=h), 3 * h,
                        initial_conditions={"in": 0.9, "out": 0.0})
        out = res.voltage("out")
        r = h / tau
        assert out[1] == pytest.approx((out[0] + r * 0.9) / (1 + r), rel=1e-9)
        # The Euler step leaves the capacitor current at (0.9 - out[1]) / R.
        trap = (out[1] * (1 - r / 2) + r * 0.9) / (1 + r / 2)
        assert out[2] == pytest.approx(trap, rel=1e-9)

    def test_trapezoidal_second_order(self):
        tau = 1e-12
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")

        def err(dt):
            cfg = SolverConfig(timestep=dt)
            res = transient(c, cfg, tau, initial_conditions={"in": 0.9, "out": 0.0})
            exact = 0.9 * (1 - math.exp(-res.times[-1] / tau))
            return abs(res.voltage("out")[-1] - exact)

        ratio = err(tau / 50) / err(tau / 100)
        assert 3.0 < ratio < 5.0

    def test_nonconvergence_names_node_and_time(self, monkeypatch):
        c = parse(INVERTER_PWL)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        with pytest.raises(ConvergenceError) as err:
            transient(c, SolverConfig(timestep=1e-13), 5e-12,
                      initial_conditions={"vdd": 0.9, "out": 0.9})
        # The output is the node that moves once the input ramp starts; a
        # failed step is not retried shorter, so the time is a grid point.
        assert err.value.node == "out"
        assert err.value.time == 14 * 1e-13
        assert "'out'" in str(err.value)

    def test_equilibrium_persists(self):
        c = parse(INVERTER)
        res = transient(c, SolverConfig(timestep=1e-13), 2e-12)
        for node in ("out", "in", "vdd"):
            series = res.voltage(node)
            assert np.max(np.abs(series - series[0])) <= VTOL

    def test_result_invariants(self):
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")
        res = transient(c, SolverConfig(timestep=1e-13), 1e-12)
        assert res.times[0] == 0.0
        assert np.all(np.diff(res.times) > 0)
        for series in list(res.node_voltages.values()) + list(res.source_currents.values()):
            assert len(series) == len(res.times)

    def test_tstop_must_be_positive(self):
        c = parse("r1 a 0 1k\nv1 a 0 dc 1\n")
        with pytest.raises(ValueError):
            transient(c, SolverConfig(timestep=1e-13), 0.0)

    @pytest.mark.parametrize("tstop", [math.nan, math.inf, -math.inf])
    def test_tstop_must_be_finite(self, tstop):
        c = parse("r1 a 0 1k\nv1 a 0 dc 1\n")
        with pytest.raises(ValueError, match="positive and finite"):
            transient(c, SolverConfig(timestep=1e-13), tstop)

    @pytest.mark.parametrize("timestep", [0.0, -1e-13, math.nan, math.inf])
    def test_timestep_must_be_positive_and_finite(self, timestep):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(timestep=timestep)

    def test_pwl_step_drives_rc(self):
        c = parse("v1 in 0 pwl(0 0 1p 0 1.01p 0.9)\nr1 in out 1k\nc1 out 0 1f\n")
        res = transient(c, SolverConfig(timestep=1e-14), 6e-12)
        assert res.voltage("out")[-1] == pytest.approx(0.9 * (1 - math.exp(-(6e-12 - 1.005e-12) / 1e-12)), rel=0.02)

    def test_csv_export_shape(self):
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")
        res = transient(c, SolverConfig(timestep=5e-13), 1e-12)
        csv = res.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "time,in,out,v1"
        assert len(lines) == 1 + len(res.times)
        # nine significant digits, scientific
        assert "e" in lines[1].split(",")[1]
        mantissa = lines[1].split(",")[1].split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 9


class TestStepControl:
    RC_RAMP = "v1 in 0 pwl(0 0 1p 0 3p 0.9)\nr1 in out 1k\nc1 out 0 1f\n"

    @staticmethod
    def _ramp_response(t, tau=1e-12, t1=1e-12, t2=3e-12, vdd=0.9):
        """RC output for an input at 0 V until t1, ramping to vdd at t2."""
        a = vdd / (t2 - t1)

        def ramp(s):
            return a * (s - tau * (1.0 - np.exp(-s / tau)))

        rising = np.where(t <= t1, 0.0, ramp(np.clip(t - t1, 0.0, None)))
        return np.where(t <= t2, rising, vdd + (ramp(t2 - t1) - vdd) * np.exp(-(t - t2) / tau))

    def test_rc_under_pwl_ramp_matches_analytic(self):
        cfg = SolverConfig(timestep=5e-14, timestep_control=True)
        res = transient(parse(self.RC_RAMP), cfg, 1e-11,
                        initial_conditions={"in": 0.0, "out": 0.0})
        err = np.abs(res.voltage("out") - self._ramp_response(res.times))
        assert err.max() <= 1e-3
        # A quarter of the fixed-step run's 200 steps would do; the long
        # tail after the ramp takes steps far above the timestep.
        assert len(res.times) - 1 < 100
        assert np.diff(res.times).max() > 10 * cfg.timestep

    def test_every_corner_is_a_sample_on_or_off_the_unit_grid(self):
        # 1.0037 ps is off the 6.25 fs unit grid and is reached by one short step.
        corners = [1e-12, 1.0037e-12, 2.5e-12]
        c = parse("v1 in 0 pwl(0 0 1p 0 1.0037p 0.9 2.5p 0.3)\nr1 in out 1k\nc1 out 0 1f\n")
        cfg = SolverConfig(timestep=1e-13, timestep_control=True)
        res = transient(c, cfg, 4e-12)
        for corner in corners:
            assert corner in res.times
        assert res.times[-1] == 4e-12
        assert np.all(np.diff(res.times) > 0)
        assert res.voltage("in")[res.times == 1.0037e-12][0] == pytest.approx(0.9)

    def test_step_after_each_breakpoint_is_backward_euler(self):
        tau = 1e-12
        cfg = SolverConfig(timestep=5e-14, timestep_control=True)
        res = transient(parse(self.RC_RAMP), cfg, 1e-11,
                        initial_conditions={"in": 0.0, "out": 0.0})
        vin, out = res.voltage("in"), res.voltage("out")
        for b in (0.0, 1e-12, 3e-12):
            i = int(np.flatnonzero(res.times == b)[0])
            r = (res.times[i + 1] - b) / tau
            euler = (out[i] + r * vin[i + 1]) / (1 + r)
            assert out[i + 1] == pytest.approx(euler, rel=1e-9)

    @pytest.mark.parametrize("cap, v_end, floor", [
        (1e-15, 0.0, 1.0),   # a settled 1 fF load: held to its 1 V floor
        (1e-15, 0.8, 1.0),   # below the floor, still held to it
        (1e-14, 0.8, 0.8),   # a 10 fF floor is 0.1 V, so |v| leads
    ])
    def test_lte_tolerance_has_a_charge_floor(self, cap, v_end, floor):
        # On a cubic v = v_end + a (t - t3)^3 the third divided difference
        # is a, so the newest step's error estimate is h^3 a / 2, held to
        # TRTOL (reltol max(|v|, CHGTOL / C) + vtol).
        h, a = 1e-12, 1e34
        times = [k * h for k in range(4)]
        points = [(t, np.array([v_end + a * (t - times[3]) ** 3])) for t in times]
        ratio, _ = _lte_ratio(_lte_past(points[:3]), *points[3], CHGTOL / np.array([cap]))
        tol = TRTOL * (RELTOL * floor + VTOL)
        assert ratio == pytest.approx(0.5 * h**3 * a / tol, rel=1e-12)

    def test_fixed_step_counts_steps_and_no_lte_rejections(self):
        cfg = SolverConfig(timestep=1e-13)
        res = transient(parse(self.RC_RAMP), cfg, 1e-11,
                        initial_conditions={"in": 0.0, "out": 0.0})
        assert res.lte_rejections == 0
        assert len(res.times) - 1 == 100
        # A linear circuit lands in one solve per step, and the ten steps
        # before the ramp start converged and take none.
        assert res.newton_iterations == 90


class TestFloatingNodes:
    def test_equal_caps_all_high(self):
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0.9\nvc c 0 dc 0.9\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n")
        init = initialize_floating_nodes(c)
        assert init["x"] == pytest.approx(0.9, abs=1e-6)

    def test_equal_caps_one_third(self):
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0\nvc c 0 dc 0\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n")
        init = initialize_floating_nodes(c)
        assert init["x"] == pytest.approx(0.3, abs=1e-6)

    def test_weighted_divider(self):
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0\nc1 a x 2f\nc2 b x 1f\n")
        init = initialize_floating_nodes(c)
        assert init["x"] == pytest.approx(0.6, abs=1e-6)

    def test_divider_follows_source_levels(self):
        c = parse("va a 0 dc 0\nvb b 0 dc 0\nvc c 0 dc 0\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n")
        init = initialize_floating_nodes(c.with_dc_source("va", 0.9).with_dc_source("vc", 0.9))
        assert init["x"] == pytest.approx(0.6, abs=1e-6)

    def test_coupled_floating_pair_solves_jointly(self):
        # x couples to y through a cap; both stay solvable because the
        # cluster still touches driven nodes.
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0.9\nvc c 0 dc 0.9\nvn n 0 dc 0\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n"
                  "cm x y 3f\ncw n y 1f\n")
        init = initialize_floating_nodes(c)
        # charge equations: 3(x-0.9) + 3(x-y) = 0; 3(y-x) + (y-0) = 0
        y = init["y"]
        x = init["x"]
        assert 3 * (x - 0.9) + 3 * (x - y) == pytest.approx(0.0, abs=1e-6)
        assert 3 * (y - x) + y == pytest.approx(0.0, abs=1e-6)

    def test_chain_of_floating_nodes_is_reached_through_each_other(self):
        # Only p touches a driven node; q is reached through p and r
        # through q, so the chain is not isolated, and with no charge
        # stored every node of it sits at a's level.
        c = parse("v1 a 0 dc 0.9\nc1 a p 1f\nc2 p q 2f\nc3 q r 1f\n")
        init = initialize_floating_nodes(c)
        for name in "pqr":
            assert abs(init[name] - 0.9) <= VTOL, name

    @pytest.mark.parametrize("vdd", [0.9, 0.65])
    def test_slow_fixed_point_converges_for_every_input(self, vdd):
        # CNT-FA3's capacitive feedback contracts by only ~0.24 per pass
        # and needs up to 10 passes for 6 of its 8 input vectors.
        from cnfetsim.adders import AdderKind, build_adder, build_testbench
        tb = build_testbench(build_adder(AdderKind.CNT_FA3, vdd), vdd, 1e-11, 2e-10, periods=2)
        for bits in range(8):
            levels = {name: vdd * (bits >> k & 1) for k, name in enumerate("abc")}
            init = initialize_floating_nodes(_hold_inputs(tb, levels))
            assert init["a"] == pytest.approx(levels["a"], abs=1e-6)

    @pytest.mark.parametrize("stages", [3, 4, 6])
    def test_feed_forward_ladder_converges(self, stages):
        # Each stage divides the previous output by 2/3 onto the gate of
        # an inverter; the last stage's update stays a full swing until
        # the correction has walked down the chain.
        lines = [CNFET_MODELS, "vdd vdd 0 dc 0.9\nva a 0 dc 0.9\n"]
        prev = "a"
        for k in range(1, stages + 1):
            lines.append(f"c{k}a {prev} f{k} 2f\nc{k}b f{k} 0 1f\n"
                         f"qn{k} o{k} f{k} 0 n19\nqp{k} o{k} f{k} vdd p19\n")
            prev = f"o{k}"
        init = initialize_floating_nodes(parse("".join(lines)))
        for k in range(1, stages + 1):
            drive = init["a"] if k == 1 else init[f"o{k - 1}"]
            assert init[f"f{k}"] == pytest.approx(2 * drive / 3, abs=1e-6)
            assert init[f"o{k}"] == pytest.approx(0.0 if k % 2 else 0.9, abs=1e-2)

    def test_inverter_coupled_back_onto_its_gate_meets_both_equations(self):
        # Charge-sharing x and solving the inverter in turn flips both
        # between the rails on every pass.  Solved together, x meets its
        # zero-charge equation and the inverter its KCL at out: x sits at
        # the switching threshold, where out may sit anywhere in between.
        c = parse(COUPLED_INVERTER)
        init = initialize_floating_nodes(c)
        x, out = init["x"], init["out"]
        assert 1 * (x - 0.45) + 10 * (x - out) == pytest.approx(0.0, abs=11 * VTOL)
        assert x == pytest.approx(0.45, abs=1e-6)
        assert out == pytest.approx(0.45, abs=1e-5)
        # out is the inverter's output at x: both devices carry one current.
        i_n, _, _ = drain_current(c.models["n19"].params, x, out)
        i_p, _, _ = drain_current(c.models["p19"].params, x - 0.9, out - 0.9)
        assert abs(i_n + i_p) <= ABSTOL + RELTOL * abs(i_n)

    def test_isolated_capacitive_cluster_is_ill_conditioned(self):
        c = parse("va a 0 dc 0.9\nr1 a 0 1k\nc1 x y 1f\nc2 y x 2f\n")
        with pytest.raises(IllConditionedDividerError):
            initialize_floating_nodes(c)

    def test_every_isolated_cluster_is_named(self):
        # Two isolated pairs beside a driven, resistor-anchored node: the
        # error names all four nodes, not only the first pair found.
        c = parse("va a 0 dc 0.9\nr1 a 0 1k\nc1 x y 1f\nc2 p q 1f\n")
        with pytest.raises(IllConditionedDividerError, match="nodes: p, q, x, y$"):
            initialize_floating_nodes(c)

    def test_only_the_isolated_pair_is_named(self):
        # x is a divider between two driven nodes; p and q touch only
        # each other.
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0\nc1 a x 1f\nc2 b x 1f\nc3 p q 1f\n")
        with pytest.raises(IllConditionedDividerError, match="nodes: p, q$"):
            initialize_floating_nodes(c)

    def test_table_lists_far_ends_in_capacitor_order(self):
        # Ground anchors a node as a resistor does; a capacitor with both
        # ends on a floating node is listed twice, and a gate terminal
        # does not anchor.
        c = parse(CNFET_MODELS + "vdd vdd 0 dc 0.9\nva a 0 dc 0.9\n"
                  "c1 a x 1f\nc2 x 0 2f\nc3 x x 3f\nc4 x y 4f\nc5 y 0 5f\n"
                  "qn out y 0 n19\nqp out y vdd p19\n")
        comp = solver._compiled(c)
        a, x, y = (comp.node_index[n] for n in "axy")
        table = solver._floating_nodes(comp)
        assert {n: [far for far, _ in caps] for n, caps in table.items()} == {
            x: [a, -1, x, x, y], y: [x, -1]}
        assert [c for _, c in table[x]] == pytest.approx([1e-15, 2e-15, 3e-15, 3e-15, 4e-15])
        assert [c for _, c in table[y]] == pytest.approx([4e-15, 5e-15])

    def test_gate_terminals_do_not_anchor(self):
        # The divider node drives transistor gates only; it still counts
        # as floating and takes the charge-shared value.
        c = parse(CNFET_MODELS +
                  "vdd vdd 0 dc 0.9\nva a 0 dc 0.9\nvb b 0 dc 0\nvc c 0 dc 0.9\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n"
                  "qn out x 0 n19\nqp out x vdd p19\n")
        init = initialize_floating_nodes(c)
        assert init["x"] == pytest.approx(0.6, abs=1e-6)
        assert init["out"] == pytest.approx(0.0, abs=1e-2)  # x above threshold

    def test_divider_level_persists_in_transient(self):
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0\nvc c 0 dc 0.9\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n")
        cfg = SolverConfig(timestep=1e-13)
        init = initialize_floating_nodes(c)
        res = transient(c, cfg, 2e-11, initial_conditions=init)
        assert res.voltage("x")[-1] == pytest.approx(2 * 0.9 / 3, rel=1e-3)


class TestColdConvergence:
    @pytest.mark.parametrize("vdd", [0.9, 0.65])
    def test_every_testbench_converges_without_gmin_stepping(self, vdd):
        # Newton's only guard is the per-node clamp, and a failed DC solve
        # is not retried; every benchmark testbench must still reach its
        # floating-node initialization and a cold DC point at each input
        # vector in one solve each.
        from cnfetsim.adders import BENCH_ORDER, build_adder, build_testbench
        for kind in BENCH_ORDER:
            tb = build_testbench(build_adder(kind, vdd), vdd, 1e-11, 2e-10)
            for bits in range(8):
                levels = {name: vdd * (bits >> k & 1) for k, name in enumerate("abc")}
                dc = _hold_inputs(tb, levels)
                initialize_floating_nodes(dc)
                dc_operating_point(dc)


class TestPassivity:
    def test_single_supply_average_power_nonnegative(self):
        c = parse(INVERTER).with_dc_source("vin", 0.45)
        cfg = SolverConfig(timestep=1e-13)
        res = transient(c, cfg, 1e-11)
        p = 0.9 * (-res.current("vdd"))
        assert np.mean(p) >= 0.0



def _record_iterates(monkeypatch):
    """Every iterate of every _Newton.solve from here on, one record per
    solve: [newton, const, hist, iterates, converged], where each iterate
    is the (x_pad, f, stamps) its _assemble saw and returned.  solve goes
    on past an iterate only when its verdict is "not converged", so every
    iterate but a converged solve's last had that verdict."""
    solves = []
    assemble, solve = solver._Newton._assemble, solver._Newton.solve

    def recording_solve(self, x0_pad, const, hist=None, time=None, stamps=None):
        record = [self, const.copy(), None if hist is None else hist.copy(), [], False]
        solves.append(record)
        out = solve(self, x0_pad, const, hist, time, stamps)
        record[4] = True
        return out

    def recording_assemble(self, x_pad, const, stamps=None):
        f, stamps = assemble(self, x_pad, const, stamps)
        if solves and not solves[-1][4]:  # not _settle_source_currents
            solves[-1][3].append((x_pad.copy(), f.copy(), stamps))
        return f, stamps

    monkeypatch.setattr(solver._Newton, "solve", recording_solve)
    monkeypatch.setattr(solver._Newton, "_assemble", recording_assemble)
    return solves


def _verdict_path(newton, f):
    """Which of solve's verdicts decides f: every row within tol_base, a
    source row not within it, or the full test."""
    within = np.abs(f[: newton.comp.size]) <= newton.tol_base
    if within.all():
        return "within"
    return "source" if not within[newton.comp.n_nodes:].all() else "full"


class TestResidualFirstVerdict:
    """solve decides an iterate from its residual before it builds the
    tolerance scale; every verdict must be _converged's with the scale."""

    @staticmethod
    def _check(solves):
        paths = {"within": 0, "source": 0, "full": 0}
        for newton, _, hist, iterates, converged in solves:
            assert iterates
            for k, (x_pad, f, stamps) in enumerate(iterates):
                verdict = converged and k == len(iterates) - 1
                scale = newton._scale(x_pad, hist, stamps)
                assert newton._converged(f, scale) == verdict
                paths[_verdict_path(newton, f)] += 1
        return paths

    @staticmethod
    def _proposed_testbench():
        from cnfetsim.adders import AdderKind, build_adder, build_testbench
        return build_testbench(build_adder(AdderKind.PROPOSED, 0.9), 0.9, 1e-11, 2e-10)

    @pytest.mark.parametrize("vdd", [0.65, 0.9])
    def test_every_iterate_of_each_catalog_gates_warm_sweep(self, monkeypatch, vdd):
        from cnfetsim.adders import GATE_CHIRALITIES
        solves = _record_iterates(monkeypatch)
        for cn, cp in GATE_CHIRALITIES.values():
            c = parse(f".model nsw cnfet polarity=n chirality={cn.n},{cn.m}\n"
                      f".model psw cnfet polarity=p chirality={cp.n},{cp.m}\n"
                      f"vdd vdd 0 dc {vdd}\nvin in 0 dc 0\n"
                      "qn out in 0 nsw\nqp out in vdd psw\n")
            guess = None
            for k in range(121):
                guess = dc_operating_point(c.with_dc_source("vin", vdd * k / 120),
                                           initial_guess=guess)
        assert len(solves) == len(GATE_CHIRALITIES) * 121
        paths = self._check(solves)
        assert min(paths.values()) > 0, paths

    def test_every_iterate_of_a_fixed_step_proposed_testbench(self, monkeypatch):
        # The floating-node initializer's one solve, with its charge rows,
        # then 250 fixed steps across the first input edge at 205 ps.
        tb = self._proposed_testbench()
        solves = _record_iterates(monkeypatch)
        init = initialize_floating_nodes(tb)
        res = transient(tb, SolverConfig(timestep=1e-12), 2.5e-10, initial_conditions=init)
        assert len(solves) == 1 + 250 == len(res.times)
        assert solves[0][0].rel.tolist().count(0.0) > solves[0][0].comp.n_src  # charge rows
        paths = self._check(solves)
        assert min(paths.values()) > 0, paths

    def test_every_iterate_of_a_floating_node_initialization(self, monkeypatch):
        solves = _record_iterates(monkeypatch)
        initialize_floating_nodes(parse(COUPLED_INVERTER))
        assert len(solves) == 1
        self._check(solves)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_states(self, monkeypatch, value):
        # From the last converged transient step and the converged DC
        # point of the proposed testbench, one node voltage, source
        # current or capacitor history at a time is made nonfinite, and
        # the residual is built through _assemble.  With no Newton
        # iteration allowed, solve's verdict on a state is whether it
        # returns; it must be _converged's, and the error must name a row
        # whose residual is nonfinite.
        tb = self._proposed_testbench()
        comp = solver._compiled(tb)
        solves = _record_iterates(monkeypatch)
        transient(tb, SolverConfig(timestep=1e-12), 2.1e-10,
                  initial_conditions=initialize_floating_nodes(tb))
        monkeypatch.undo()
        dc = solver._Newton(comp, comp.system())
        x_dc, _, _ = dc.solve(np.zeros(comp.size + 1), solver._dc_const(comp, tb))
        step, step_const, step_hist, step_iterates, _ = solves[-1]
        levels = (-step_const[comp.n_nodes: comp.size]).tolist()
        states = [(dc, x_dc, None), (step, step_iterates[-1][0], step_hist)]
        for newton, x_star, hist in states[:2]:
            for row in range(comp.size):
                x_pad = x_star.copy()
                x_pad[row] = value
                states.append((newton, x_pad, hist))
        for cap in range(comp.n_cap):
            hist = step_hist.copy()
            hist[cap] = value
            states.append((step, step_iterates[-1][0], hist))
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 0)
        verdicts = []
        with np.errstate(all="ignore"):
            for newton, x_pad, hist in states:
                const = (solver._dc_const(comp, tb) if hist is None
                         else comp.step_const(levels, hist))
                f, stamps = newton._assemble(x_pad, const)
                want = newton._converged(f, newton._scale(x_pad, hist, stamps))
                try:
                    newton.solve(x_pad, const, hist)
                    got = True
                except ConvergenceError as exc:
                    got = False
                    assert not math.isfinite(exc.residual), exc
                assert got == want
                verdicts.append(got)
        # The two unperturbed states converge, and no state with a
        # nonfinite voltage, source current or history current does.  An
        # infinite history current makes its rows' residual and tolerance
        # both infinite, and such a row is not within its tolerance either.
        assert verdicts[:2] == [True, True]
        assert not any(verdicts[2:])
