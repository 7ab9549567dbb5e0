"""MNA solver: DC operating point, transient integration, floating nodes."""

import math

import numpy as np
import pytest

from cnfetsim.netlist import parse
from cnfetsim.solver import (
    ConvergenceError,
    IllConditionedDividerError,
    Integration,
    SolverConfig,
    dc_operating_point,
    dc_source_solver,
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
        cfg = SolverConfig()
        c = parse("v1 a 0 dc 2\nr1 a b 1k\nr2 b 0 2k\nr3 b 0 2k\n")
        op = dc_operating_point(c, cfg)
        i1 = (op["a"] - op["b"]) / 1e3
        i2 = op["b"] / 2e3
        i3 = op["b"] / 2e3
        residual = abs(i1 - i2 - i3)
        assert residual <= cfg.abstol + cfg.reltol * max(i1, i2, i3)

    def test_nonconvergence_reports_residual(self):
        # Force failure with a pathologically tight iteration budget.
        cfg = SolverConfig(max_newton_iters=1)
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(parse(INVERTER).with_dc_source("vin", 0.45), cfg)
        assert math.isfinite(err.value.residual)

    def test_nonconvergence_names_worst_row(self):
        # Three clamped steps bring the supply node to its level; the
        # output's KCL row is then the one left unmet.
        c = parse(INVERTER).with_dc_source("vin", 0.45)
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(c, SolverConfig(max_newton_iters=3))
        assert err.value.node == "out"
        assert err.value.unit == "A"
        assert "A at 'out'" in str(err.value)

    def test_clamped_supply_row_is_named_in_volts(self):
        # One step clamped to 0.3 V leaves v(vdd) 0.6 V short of the
        # supply while every KCL row is met.
        c = parse(INVERTER).with_dc_source("vin", 0.45)
        with pytest.raises(ConvergenceError) as err:
            dc_operating_point(c, SolverConfig(max_newton_iters=1))
        assert err.value.node == "i(vdd)"
        assert err.value.residual == pytest.approx(0.6)
        assert "V at 'i(vdd)'" in str(err.value)

    def test_worst_row_ranks_each_row_by_its_own_tolerance(self):
        # A source row at 2x vtol (2e-6 V) fails by less than a node row
        # at 1000x abstol (1e-9 A), although 2e-6 > 1e-9.
        from cnfetsim.solver import _Compiled, _Newton
        cfg = SolverConfig()
        comp = _Compiled(parse(INVERTER))
        newton = _Newton(comp, cfg, comp.base_matrix(cfg.gmin, None))
        f = np.zeros(comp.size + 1)
        f[comp.node_index["out"]] = 1e-9
        f[comp.n_nodes] = 2e-6
        err = newton._failure("failed", f, np.zeros(comp.n_nodes), None)
        assert err.node == "out"
        assert err.residual == 1e-9


class TestDcSourceSolver:
    def test_matches_dc_operating_point_per_level(self):
        c = parse(INVERTER)
        solve = dc_source_solver(c, "vin")
        for vin in (0.0, 0.3, 0.45, 0.6, 0.9):
            assert solve(vin) == dc_operating_point(c.with_dc_source("vin", vin))

    def test_unknown_source_raises(self):
        with pytest.raises(KeyError):
            dc_source_solver(parse(INVERTER), "nope")


class TestLinearOneIteration:
    def test_dc_linear_single_solve(self):
        from cnfetsim.solver import _Compiled, _solve_dc
        comp = _Compiled(parse("v1 a 0 dc 0.9\nr1 a b 1k\nr2 b 0 1k\n"))
        _, iters = _solve_dc(comp, SolverConfig())
        assert iters == 1

    def test_transient_linear_single_solve_per_step(self):
        from cnfetsim.solver import _Compiled, _Newton, _source_const
        import numpy as np
        cfg = SolverConfig(timestep=1e-14)
        comp = _Compiled(parse("v1 a 0 dc 0.9\nr1 a b 1k\nc1 b 0 1f\n"))
        base = comp.base_matrix(cfg.gmin, 2.0 / cfg.timestep)
        nt = _Newton(comp, cfg, base)
        const = _source_const(comp, [0.9])
        geq = (2.0 / cfg.timestep) * comp.cap_c
        hist = np.zeros(comp.n_cap)
        x0 = np.zeros(comp.size + 1)
        _, iters, _ = nt.solve(x0, const, (geq, hist))
        assert iters == 1


class TestTransient:
    def test_fixed_step_builds_one_companion_matrix_per_method(self, monkeypatch):
        # A benchmark cell's 33,600 steps of 0.2 ps: k*dt sample times
        # differ by 18 distinct float values, but every full step must use
        # one length, so backward Euler and trapezoidal build one each.
        from cnfetsim import solver
        built = []
        base_matrix = solver._Compiled.base_matrix

        def counting(comp, gmin, cap_geq):
            if cap_geq is not None:
                built.append(cap_geq)
            return base_matrix(comp, gmin, cap_geq)

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
        cfg = SolverConfig(timestep=tau / 100, integration=Integration.TRAPEZOIDAL,
                           use_initial_conditions=True)
        res = transient(c, cfg, 5 * tau, initial_conditions={"in": 0.9, "out": 0.0})
        for mult in (1, 2, 5):
            idx = int(round(mult * 100))
            t = res.times[idx]
            expected = 0.9 * (1 - math.exp(-t / tau))
            assert res.voltage("out")[idx] == pytest.approx(expected, rel=1e-3)

    def test_backward_euler_converges_first_order(self):
        tau = 1e-12
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")

        def err(dt):
            cfg = SolverConfig(timestep=dt, integration=Integration.BACKWARD_EULER,
                               use_initial_conditions=True)
            res = transient(c, cfg, tau, initial_conditions={"in": 0.9, "out": 0.0})
            exact = 0.9 * (1 - math.exp(-res.times[-1] / tau))
            return abs(res.voltage("out")[-1] - exact)

        ratio = err(tau / 50) / err(tau / 100)
        assert 1.6 < ratio < 2.4

    def test_trapezoidal_second_order(self):
        tau = 1e-12
        c = parse("v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n")

        def err(dt):
            cfg = SolverConfig(timestep=dt, use_initial_conditions=True)
            res = transient(c, cfg, tau, initial_conditions={"in": 0.9, "out": 0.0})
            exact = 0.9 * (1 - math.exp(-res.times[-1] / tau))
            return abs(res.voltage("out")[-1] - exact)

        ratio = err(tau / 50) / err(tau / 100)
        assert 3.0 < ratio < 5.0

    def test_nonconvergence_names_node_and_time(self):
        c = parse(CNFET_MODELS + "vdd vdd 0 dc 0.9\nvin in 0 pwl(0 0 1p 0 2p 0.9)\n"
                  "qn out in 0 n19\nqp out in vdd p19\ncl out 0 1f\n")
        cfg = SolverConfig(timestep=1e-13, max_newton_iters=1, use_initial_conditions=True)
        with pytest.raises(ConvergenceError) as err:
            transient(c, cfg, 5e-12, initial_conditions={"vdd": 0.9, "out": 0.9})
        # The output is the node that moves once the input ramp starts.
        assert err.value.node == "out"
        assert 1e-12 < err.value.time < 2e-12
        assert "'out'" in str(err.value)

    def test_equilibrium_persists(self):
        cfg = SolverConfig(timestep=1e-13)
        c = parse(INVERTER)
        res = transient(c, cfg, 2e-12)
        for node in ("out", "in", "vdd"):
            series = res.voltage(node)
            assert np.max(np.abs(series - series[0])) <= cfg.vtol

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
        cfg = SolverConfig(timestep=5e-14, use_initial_conditions=True, timestep_control=True)
        res = transient(parse(self.RC_RAMP), cfg, 1e-11,
                        initial_conditions={"in": 0.0, "out": 0.0})
        err = np.abs(res.voltage("out") - self._ramp_response(res.times))
        assert err.max() <= 1e-3
        # A quarter of the fixed-step run's 200 steps would do; the long
        # tail after the ramp takes steps far above the timestep.
        assert res.accepted_steps == len(res.times) - 1 < 100
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

    def test_fixed_step_counts_steps_and_no_lte_rejections(self):
        cfg = SolverConfig(timestep=1e-13, use_initial_conditions=True)
        res = transient(parse(self.RC_RAMP), cfg, 1e-11,
                        initial_conditions={"in": 0.0, "out": 0.0})
        assert res.lte_rejections == 0
        assert res.newton_rejections == 0
        assert res.accepted_steps == len(res.times) - 1 == 100
        # A linear circuit lands in one solve per step, and the ten steps
        # before the ramp start converged and take none.
        assert res.newton_iterations == 90

    def test_control_requires_trapezoidal(self):
        with pytest.raises(ValueError):
            SolverConfig(timestep_control=True, integration=Integration.BACKWARD_EULER)


class TestFloatingNodes:
    def test_equal_caps_all_high(self):
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0.9\nvc c 0 dc 0.9\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n")
        init = initialize_floating_nodes(c, {})
        assert init["x"] == pytest.approx(0.9, abs=1e-6)

    def test_equal_caps_one_third(self):
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0\nvc c 0 dc 0\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n")
        init = initialize_floating_nodes(c, {})
        assert init["x"] == pytest.approx(0.3, abs=1e-6)

    def test_weighted_divider(self):
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0\nc1 a x 2f\nc2 b x 1f\n")
        init = initialize_floating_nodes(c, {})
        assert init["x"] == pytest.approx(0.6, abs=1e-6)

    def test_input_levels_override(self):
        c = parse("va a 0 dc 0\nvb b 0 dc 0\nvc c 0 dc 0\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n")
        init = initialize_floating_nodes(c, {"a": 0.9, "b": 0.0, "c": 0.9})
        assert init["x"] == pytest.approx(0.6, abs=1e-6)

    def test_coupled_floating_pair_solves_jointly(self):
        # x couples to y through a cap; both stay solvable because the
        # cluster still touches driven nodes.
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0.9\nvc c 0 dc 0.9\nvn n 0 dc 0\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n"
                  "cm x y 3f\ncw n y 1f\n")
        init = initialize_floating_nodes(c, {})
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
            init = initialize_floating_nodes(tb, levels)
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
        init = initialize_floating_nodes(parse("".join(lines)), {})
        for k in range(1, stages + 1):
            drive = init["a"] if k == 1 else init[f"o{k - 1}"]
            assert init[f"f{k}"] == pytest.approx(2 * drive / 3, abs=1e-6)
            assert init[f"o{k}"] == pytest.approx(0.0 if k % 2 else 0.9, abs=1e-2)

    def test_oscillating_fixed_point_fails_fast_and_names_node(self):
        # x feeds an inverter whose output is coupled back into x ten
        # times more strongly than the driven side, so each pass flips
        # both between the rails and the update never shrinks.
        c = parse(CNFET_MODELS + "vdd vdd 0 dc 0.9\nva a 0 dc 0.45\n"
                  "c1 a x 1f\nc2 out x 10f\nqn out x 0 n19\nqp out x vdd p19\n")
        with pytest.raises(ConvergenceError, match="stalled") as err:
            initialize_floating_nodes(c, {})
        assert err.value.node == "x"

    def test_isolated_capacitive_cluster_is_ill_conditioned(self):
        c = parse("va a 0 dc 0.9\nr1 a 0 1k\nc1 x y 1f\nc2 y x 2f\n")
        with pytest.raises(IllConditionedDividerError):
            initialize_floating_nodes(c, {})

    def test_gate_terminals_do_not_anchor(self):
        # The divider node drives transistor gates only; it still counts
        # as floating and takes the charge-shared value.
        c = parse(CNFET_MODELS +
                  "vdd vdd 0 dc 0.9\nva a 0 dc 0.9\nvb b 0 dc 0\nvc c 0 dc 0.9\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n"
                  "qn out x 0 n19\nqp out x vdd p19\n")
        init = initialize_floating_nodes(c, {})
        assert init["x"] == pytest.approx(0.6, abs=1e-6)
        assert init["out"] == pytest.approx(0.0, abs=1e-2)  # x above threshold

    def test_divider_level_persists_in_transient(self):
        c = parse("va a 0 dc 0.9\nvb b 0 dc 0\nvc c 0 dc 0.9\n"
                  "c1 a x 1f\nc2 b x 1f\nc3 c x 1f\n")
        cfg = SolverConfig(timestep=1e-13, use_initial_conditions=True)
        init = initialize_floating_nodes(c, {})
        res = transient(c, cfg, 2e-11, initial_conditions=init)
        assert res.voltage("x")[-1] == pytest.approx(2 * 0.9 / 3, rel=1e-3)


class TestPassivity:
    def test_single_supply_average_power_nonnegative(self):
        c = parse(INVERTER).with_dc_source("vin", 0.45)
        cfg = SolverConfig(timestep=1e-13)
        res = transient(c, cfg, 1e-11)
        p = 0.9 * (-res.current("vdd"))
        assert np.mean(p) >= 0.0
