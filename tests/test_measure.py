"""Figure-of-merit extraction over synthetic and simulated waveforms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cnfetsim import measure
from cnfetsim.measure import (
    LogicThresholds,
    Measurement,
    MissingTransitionError,
    Transition,
    average_power,
    full_swing_check,
    propagation_delay,
)
from cnfetsim.netlist import parse
from cnfetsim.solver import GMIN, SolverConfig, TransientResult, transient


def _ramp(t, t0, t1, v0, v1):
    return np.interp(t, [t0, t1], [v0, v1])


class TestPropagationDelay:
    def test_pure_shift_returns_shift(self):
        t = np.linspace(0, 100e-12, 2001)
        shift = 5e-12
        vout = _ramp(t, 40e-12 + shift, 50e-12 + shift, 0.0, 0.9)
        delays = propagation_delay(t, vout, 0.9, 0.0, "out", [45e-12], [45e-12])
        assert len(delays) == 1
        assert delays[0].delay == pytest.approx(shift, rel=1e-9)
        assert (delays[0].edge_time, delays[0].output) == (45e-12, "out")

    def test_rc_50_percent_crossing_is_tau_ln2(self):
        tau = 1e-12
        c = parse("v1 in 0 pwl(0 0 1e-15 0.9)\nr1 in out 1k\nc1 out 0 1f\n")
        cfg = SolverConfig(timestep=tau / 200)
        res = transient(c, cfg, 6 * tau, initial_conditions={"in": 0.0, "out": 0.0})
        # The input edge is the middle of its 1 fs ramp.
        delays = propagation_delay(res.times, res.voltage("out"), 0.9, 0.0, "out",
                                   [0.5e-15], [0.5e-15])
        assert delays[0].delay == pytest.approx(tau * math.log(2), rel=0.01)

    def test_missing_transition_raises(self):
        t = np.linspace(0, 100e-12, 1001)
        vout = np.zeros_like(t)
        with pytest.raises(MissingTransitionError) as err:
            propagation_delay(t, vout, 0.9, 0.0, "out", [45e-12], [45e-12])
        assert err.value.edge_time == 45e-12
        assert err.value.output == "out"
        assert "'out'" in str(err.value) and "4.5e-11" in str(err.value)

    def test_search_ends_at_the_next_input_edge(self):
        # The output ignores the edge at 45 ps and rises only after the
        # next input edge, at which it is not expected to toggle.  As the
        # last edge, 45 ps searches to the end of the run and takes the
        # late rise; with the edge at 245 ps listed, its search ends there.
        t = np.linspace(0, 400e-12, 8001)
        vout = _ramp(t, 250e-12, 260e-12, 0.0, 0.9)
        late = propagation_delay(t, vout, 0.9, 0.0, "out", [45e-12], [45e-12])
        assert late[0].delay == pytest.approx(210e-12, rel=1e-6)
        with pytest.raises(MissingTransitionError) as err:
            propagation_delay(t, vout, 0.9, 0.0, "out", [45e-12, 245e-12], [45e-12])
        assert err.value.edge_time == 45e-12

    def test_glitch_rejected_by_sustain(self):
        t = np.linspace(0, 200e-12, 4001)
        # glitch crossing at ~40 ps, sustained real transition at ~100 ps
        vout = np.where((t > 38e-12) & (t < 44e-12), 0.9, 0.0)
        vout = np.maximum(vout, _ramp(t, 95e-12, 105e-12, 0.0, 0.9))
        with_sustain = propagation_delay(t, vout, 0.9, 10e-12, "out", [25e-12], [25e-12])
        assert with_sustain[0].delay == pytest.approx(100e-12 - 25e-12, rel=0.02)
        without = propagation_delay(t, vout, 0.9, 0.0, "out", [25e-12], [25e-12])
        assert without[0].delay < 20e-12

    def test_per_edge_windows(self):
        t = np.linspace(0, 400e-12, 8001)
        vout = _ramp(t, 50e-12, 60e-12, 0, 0.9) - _ramp(t, 260e-12, 270e-12, 0, 0.9)
        edges = [45e-12, 245e-12]
        delays = propagation_delay(t, vout, 0.9, 0.0, "out", edges, edges)
        assert len(delays) == 2
        assert delays[0].delay == pytest.approx(10e-12, rel=1e-6)
        assert delays[1].delay == pytest.approx(20e-12, rel=1e-6)

    @given(st.floats(-3e-11, 3e-11))
    def test_translation_invariance(self, offset):
        t = np.linspace(0, 100e-12, 2001)
        vout = _ramp(t, 47e-12, 57e-12, 0.0, 0.9)
        base = propagation_delay(t, vout, 0.9, 0.0, "out", [45e-12], [45e-12])[0].delay
        edge = [45e-12 + offset]
        shifted = propagation_delay(t + offset, vout, 0.9, 0.0, "out", edge, edge)[0].delay
        assert shifted == pytest.approx(base, rel=1e-9)


def _dc_result(t_end, n, nodes, currents):
    t = np.linspace(0.0, t_end, n)
    return TransientResult(
        times=t,
        node_voltages={k: np.full_like(t, v) for k, v in nodes.items()},
        source_currents={k: np.full_like(t, v) for k, v in currents.items()},
    )


class TestAveragePower:
    def test_resistive_dissipation_exact(self):
        vdd, r = 0.9, 1e3
        res = _dc_result(1e-9, 101, {"a": vdd}, {"v1": -vdd / r})
        p = average_power(res, "v1", vdd, (0.0, 1e-9))
        assert p == pytest.approx(vdd * vdd / r, rel=1e-9)

    def test_simulated_resistor_power(self):
        c = parse("v1 a 0 dc 0.9\nr1 a 0 1k\n")
        res = transient(c, SolverConfig(timestep=1e-13), 1e-12)
        p = average_power(res, "v1", 0.9, (0.0, 1e-12))
        assert p == pytest.approx(0.9 * 0.9 / 1e3, rel=1e-9)

    def test_quiescent_inverter_leakage_bound(self):
        models = (".model n19 cnfet polarity=n chirality=19,0\n"
                  ".model p19 cnfet polarity=p chirality=19,0\n")
        c = parse(models + "vdd vdd 0 dc 0.9\nvin in 0 dc 0\n"
                           "qn out in 0 n19\nqp out in vdd p19\n")
        cfg = SolverConfig(timestep=1e-13)
        res = transient(c, cfg, 1e-12)
        p = average_power(res, "vdd", 0.9, (0.0, 1e-12))
        n_nodes = 3
        assert 0 <= p <= 0.9 * GMIN * 0.9 * n_nodes

    def test_periodic_load_window_phase_independent(self):
        t = np.linspace(0, 4e-9, 4001)
        i = -1e-6 * (1 + np.sign(np.sin(2 * np.pi * t / 1e-9)))
        res = TransientResult(times=t, node_voltages={}, source_currents={"v1": i})
        p1 = average_power(res, "v1", 1.0, (0.0, 2e-9))
        p2 = average_power(res, "v1", 1.0, (0.5e-9, 2.5e-9))
        assert p1 == pytest.approx(p2, rel=1e-3)

    def test_empty_window_rejected(self):
        res = _dc_result(1e-9, 11, {}, {"v1": -1e-6})
        with pytest.raises(ValueError):
            average_power(res, "v1", 0.9, (5e-10, 5e-10))

    def test_window_outside_span_rejected(self):
        res = _dc_result(1e-9, 11, {}, {"v1": -1e-6})
        with pytest.raises(ValueError):
            average_power(res, "v1", 0.9, (0.0, 2e-9))

    @given(st.floats(0.1, 0.9))
    def test_partition_additivity(self, frac):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 1e-9, 257)
        i = -np.abs(rng.normal(1e-6, 3e-7, t.shape))
        res = TransientResult(times=t, node_voltages={}, source_currents={"v1": i})
        t_mid = frac * 1e-9
        whole = average_power(res, "v1", 0.9, (0.0, 1e-9))
        left = average_power(res, "v1", 0.9, (0.0, t_mid))
        right = average_power(res, "v1", 0.9, (t_mid, 1e-9))
        recombined = (left * t_mid + right * (1e-9 - t_mid)) / 1e-9
        assert recombined == pytest.approx(whole, rel=1e-9)


class TestMeasurementRecord:
    def _measurement(self, power=6.26e-7, delays=(5.27e-11,)):
        return Measurement(
            circuit="C-CMOS", vdd=0.9, avg_power=power,
            transitions=[Transition(0.0, "sum", d) for d in delays],
        )

    def test_pdp_paper_c_cmos_row(self):
        m = self._measurement()
        assert m.pdp == pytest.approx(3.30e-17, rel=0.01)

    def test_zero_delay_zero_pdp(self):
        m = self._measurement(delays=())
        assert m.worst_delay == 0.0
        assert m.pdp == 0.0

    def test_pdp_is_exact_product(self):
        m = self._measurement(power=4.80e-7, delays=(1.29e-11, 0.5e-11))
        assert m.pdp == m.avg_power * m.worst_delay
        assert m.worst_delay == 1.29e-11

    @given(st.floats(0.1, 10.0))
    def test_pdp_scales_linearly_with_power(self, alpha):
        base = self._measurement()
        scaled = self._measurement(power=base.avg_power * alpha)
        assert scaled.pdp == pytest.approx(alpha * base.pdp, rel=1e-12)


class TestFullSwingCheck:
    def _result(self, sum_level, cout_level):
        t = np.linspace(0, 1e-9, 101)
        return TransientResult(
            times=t,
            node_voltages={
                "sum": np.full_like(t, sum_level),
                "cout": np.full_like(t, cout_level),
            },
            source_currents={},
        )

    def test_ideal_rails_pass(self):
        th = LogicThresholds(vdd=0.9, v_high_min=0.81, v_low_max=0.09, settle_window=2e-10)
        res = self._result(0.9, 0.0)
        report = full_swing_check(res, ["sum", "cout"],
                                  [(0.0, 1e-9, {"sum": 1, "cout": 0})], th)
        assert report.ok

    def test_threshold_drop_fails(self):
        # An output stuck one Vth below the rail misses the 0.9*vdd bar.
        th = LogicThresholds(vdd=0.9, v_high_min=0.81, v_low_max=0.09)
        res = self._result(0.9 - 0.28, 0.0)
        report = full_swing_check(res, ["sum"], [(0.0, 1e-9, {"sum": 1})], th)
        assert not report.ok
        assert report.failures[0].output == "sum"

    def test_empty_outputs_vacuous_pass(self):
        th = LogicThresholds(vdd=0.9, v_high_min=0.81, v_low_max=0.09)
        report = full_swing_check(self._result(0, 0), [], [(0.0, 1e-9, {"sum": 1})], th)
        assert report.ok
        assert report.entries == []

    def test_thresholds_require_levels(self):
        # The levels have no default; a run states them (BenchConfig.full_swing_levels).
        with pytest.raises(TypeError):
            LogicThresholds(vdd=1.0)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            LogicThresholds(vdd=1.0, v_high_min=0.2, v_low_max=0.5)


class TestNonuniformGrid:
    """An error-controlled run samples unevenly; every figure must read the
    same piecewise-linear waveform the same way on any grid holding its corners."""

    CORNERS = {
        "in": ([0.0, 40e-12, 50e-12, 100e-12], [0.0, 0.0, 0.9, 0.9]),
        "sum": ([0.0, 47e-12, 57e-12, 100e-12], [0.9, 0.9, 0.0, 0.0]),
        "v1": ([0.0, 45e-12, 60e-12, 100e-12], [-1e-6, -5e-5, -2e-6, -1e-6]),
    }

    def _result(self, t):
        wave = {name: np.interp(t, *pts) for name, pts in self.CORNERS.items()}
        return TransientResult(times=t, node_voltages={"in": wave["in"], "sum": wave["sum"]},
                               source_currents={"v1": wave["v1"]})

    def _grids(self):
        corners = sorted({c for pts, _ in self.CORNERS.values() for c in pts})
        uniform = np.union1d(np.linspace(0.0, 100e-12, 1001), corners)
        rng = np.random.default_rng(7)
        uneven = np.unique(np.concatenate([corners, rng.uniform(0.0, 100e-12, 40),
                                           rng.uniform(45e-12, 58e-12, 200)]))
        return self._result(uniform), self._result(uneven)

    def test_power_and_delay_agree(self):
        a, b = self._grids()
        window = (20e-12, 90e-12)
        pa, pb = (average_power(r, "v1", 0.9, window) for r in (a, b))
        assert pa == pytest.approx(pb, rel=1e-12)
        da, db = (propagation_delay(r.times, r.voltage("sum"), 0.9, 5e-12, "sum",
                                    [45e-12], [45e-12])[0].delay for r in (a, b))
        assert da == pytest.approx(7e-12, rel=1e-9)
        assert db == pytest.approx(da, rel=1e-9)

    def test_swing_check_agrees(self):
        # The second window takes in the tail of the falling ramp.
        th = LogicThresholds(vdd=0.9, v_high_min=0.81, v_low_max=0.09, settle_window=50e-12)
        truth = [(0.0, 47e-12, {"sum": 1}), (47e-12, 100e-12, {"sum": 0})]
        ra, rb = (full_swing_check(r, ["sum"], truth, th) for r in self._grids())
        assert ra.ok and rb.ok
        for ea, eb in zip(ra.entries, rb.entries):
            assert ea.mean_level == pytest.approx(eb.mean_level, rel=1e-12, abs=1e-15)
        # The ramp falls from 0.63 V at 50 ps to 0 V at 57 ps; then 0 V.
        assert ra.entries[1].mean_level == pytest.approx(0.63 * 7e-12 / 2 / 50e-12, rel=1e-9)

    def test_time_average_gives_the_verdict_a_sample_mean_misses(self):
        # The output holds 0.9 V but for a 2 ps dip to 0 V, and 200 of the
        # 211 samples fall in the dip.
        corners = ([0.0, 60e-12, 61e-12, 62e-12, 100e-12], [0.9, 0.9, 0.0, 0.9, 0.9])
        t = np.unique(np.concatenate([np.linspace(0.0, 100e-12, 11), corners[0],
                                      np.linspace(60e-12, 62e-12, 200)]))
        v = np.interp(t, *corners)
        res = TransientResult(times=t, node_voltages={"sum": v}, source_currents={})
        th = LogicThresholds(vdd=0.9, v_high_min=0.81, v_low_max=0.09, settle_window=100e-12)
        assert np.mean(v) < th.v_high_min
        report = full_swing_check(res, ["sum"], [(0.0, 100e-12, {"sum": 1})], th)
        assert report.ok
        assert report.entries[0].mean_level == pytest.approx(0.9 - 0.9 * 1e-12 / 100e-12, rel=1e-9)
