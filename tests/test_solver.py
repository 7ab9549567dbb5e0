"""MNA solver: DC operating point, transient integration, floating nodes."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from cnfetsim.devices import drain_current
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
    _lte_ratio,
    initialize_floating_nodes,
    transient,
)

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
        dc_system = solver._Compiled.dc_system

        def recording(comp, charge_rows):
            requests.append(charge_rows)
            return dc_system(comp, charge_rows)

        monkeypatch.setattr(solver._Compiled, "dc_system", recording)
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
        newton = _Newton(comp, comp.system(comp.base_matrix(None)))
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
        newton = _Newton(comp, comp.system(comp.base_matrix(None)))
        scale = np.zeros(comp.size)
        f = np.zeros(comp.size + 1)
        assert newton._converged(f, scale)
        for row in range(comp.size):
            f[:] = 0.0
            f[row] = math.nan
            assert not newton._converged(f, scale), row
        comp = _Compiled(parse(COUPLED_INVERTER))
        x = comp.node_index["x"]
        charge = _Newton(comp, comp.system(comp.base_matrix(None), [x]))
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
        newton = _Newton(comp, comp.system(comp.base_matrix(None), [x]))
        scale = np.zeros(comp.size)
        f = np.zeros(comp.size + 1)
        f[x] = 2e-6
        f[comp.node_index["out"]] = 1e-9
        assert newton._failure("failed", f, scale, None).node == "out"
        f[comp.node_index["out"]] = 0.0
        err = newton._failure("failed", f, scale, None)
        assert (err.node, err.unit, err.residual) == ("x", "V", 2e-6)
        assert "V at 'x'" in str(err)


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
        from cnfetsim.solver import _Compiled, _solve_dc
        comp = _Compiled(parse("v1 a 0 dc 0.9\nr1 a b 1k\nr2 b 0 1k\n"))
        _, iters = _solve_dc(comp, [0.9])
        assert iters == 1

    def test_transient_linear_single_solve_per_step(self):
        from cnfetsim.solver import _Compiled, _Newton, _source_const
        import numpy as np
        cfg = SolverConfig(timestep=1e-14)
        comp = _Compiled(parse("v1 a 0 dc 0.9\nr1 a b 1k\nc1 b 0 1f\n"))
        base = comp.base_matrix(2.0 / cfg.timestep)
        nt = _Newton(comp, comp.system(base))
        const = _source_const(comp, [0.9])
        geq = (2.0 / cfg.timestep) * comp.cap_c
        hist = np.zeros(comp.n_cap)
        x0 = np.zeros(comp.size + 1)
        _, iters, _ = nt.solve(x0, const, comp.companion(geq, hist))
        assert iters == 1


class TestTransient:
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
        ratio = _lte_ratio(points, CHGTOL / np.array([cap]))
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
