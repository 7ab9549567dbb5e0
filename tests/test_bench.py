"""Benchmark harness pieces that do not need a full matrix run."""

import dataclasses
import functools
import json
import os
import re

import numpy as np
import pytest

from cnfetsim import adders, bench, charts, logic
from cnfetsim.adders import AdderKind, InputSchedule
from cnfetsim.bench import (
    BenchConfig,
    PAPER_REFERENCE,
    REFERENCE_LABEL,
    load_config,
    phase_truth,
    thresholds_for,
)
from cnfetsim.measure import Measurement, MissingTransitionError, Transition
from cnfetsim.solver import TransientResult


# The seventeen defaults as the removed data/bench_config.json held them.
DEFAULTS = {
    "transition_time_s": 1e-11,
    "hold_time_s": 2e-10,
    "timestep_s": 2e-13,
    "settle_window_s": 5e-11,
    "unit_capacitance_f": 1e-15,
    "load_capacitance_f": 1e-15,
    "warmup_periods": 1,
    "measure_periods": 1,
    "min_sustain_fraction": 0.05,
    "full_swing_designs": ["proposed", "c-cmos"],
    "full_swing_levels": [0.9, 0.1],
    "logic_levels": [0.7, 0.3],
    "cnfet_tubes": 3,
    "cnfet_k_per_tube_a_per_v2": 1e-4,
    "mosfet_k_a_per_v2": 4e-4,
    "mosfet_vth_v": 0.25,
    "mosfet_lambda_per_v": 0.05,
}


class TestConfig:
    def test_default_is_the_dataclass(self):
        assert load_config() == BenchConfig()

    def test_defaults_match_the_former_json(self):
        d = BenchConfig().as_dict()
        assert list(d) == list(DEFAULTS)
        assert d == DEFAULTS
        for key, value in DEFAULTS.items():
            assert type(d[key]) is type(value), key

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cnfet_tubes": 6, "logic_levels": [0.8, 0.2]}))
        expected = dataclasses.replace(BenchConfig(), cnfet_tubes=6, logic_levels=(0.8, 0.2))
        assert load_config(str(path)) == expected

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cnfet_tube": 6}))
        with pytest.raises(TypeError):
            load_config(str(path))

    def test_device_record_carries_the_five_device_keys(self):
        cfg = BenchConfig(cnfet_tubes=6, mosfet_vth_v=0.3)
        assert BenchConfig().devices() == adders.DeviceParams()
        assert cfg.devices() == adders.DeviceParams(cnfet_tubes=6, mosfet_vth_v=0.3)

    FLOAT_FIELDS = ("transition_time_s", "hold_time_s", "timestep_s", "settle_window_s",
                    "unit_capacitance_f", "load_capacitance_f", "min_sustain_fraction",
                    "cnfet_k_per_tube_a_per_v2", "mosfet_k_a_per_v2", "mosfet_vth_v",
                    "mosfet_lambda_per_v")

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [True, False, "1e-10", None])
    def test_float_field_must_be_a_number(self, name, value):
        # A bool is an int, so True passed "> 0" and set a 1 s hold.
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {value!r}$"):
            BenchConfig(**{name: value})

    @pytest.mark.parametrize("name", ["full_swing_levels", "logic_levels"])
    @pytest.mark.parametrize("pair,bad", [((True, 0.3), 0), ((0.9, False), 1),
                                          (("0.9", 0.1), 0), ((0.9, None), 1)])
    def test_level_must_be_a_number(self, name, pair, bad):
        with pytest.raises(ValueError,
                           match=rf"^{name}\[{bad}\] must be a number, got {pair[bad]!r}$"):
            BenchConfig(**{name: pair})

    @pytest.mark.parametrize("name", ["full_swing_levels", "logic_levels"])
    @pytest.mark.parametrize("pair,shown", [(0.7, "0.7"), ((0.7,), "[0.7]"),
                                            ((0.7, 0.3, 0.1), "[0.7, 0.3, 0.1]")])
    def test_level_pair_must_be_two_levels(self, name, pair, shown):
        # A bare number gave "'float' object is not iterable", and a
        # pair of the wrong length an unpacking message without the key.
        message = rf"^{name} must be a \[high, low\] pair, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            BenchConfig(**{name: pair})

    @pytest.mark.parametrize("text,type_name", [("[1, 2]", "list"), ("null", "NoneType")])
    def test_top_level_must_be_an_object(self, tmp_path, text, type_name):
        # Each ended in AttributeError: ... has no attribute 'get'.
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError,
                           match=f"^the config must be a JSON object, got {type_name}$"):
            load_config(str(path))

    def test_integer_valued_float_field_accepted(self):
        # JSON writes 1 for 1.0; an int is a number.
        assert BenchConfig(mosfet_lambda_per_v=0, logic_levels=(1, 0)).logic_levels == (1, 0)

    def test_json_true_rejected_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"hold_time_s": true}')
        with pytest.raises(ValueError, match="hold_time_s must be a number, got True"):
            load_config(str(path))

    @pytest.mark.parametrize("text", ['"proposed"', '["propsed"]', '[1, 2]'])
    def test_full_swing_designs_must_be_design_names(self, tmp_path, text):
        # Each was accepted and held Proposed to the relaxed 0.7/0.3 levels;
        # the string became the tuple of its letters.
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"full_swing_designs": {text}}}')
        with pytest.raises(ValueError, match="^full_swing_designs must be a list of design names"):
            load_config(str(path))

    def test_explicit_path_wins(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"hold_time_s": 1e-10}))
        assert load_config(str(path)).hold_time_s == pytest.approx(1e-10)


class TestReferenceData:
    def test_paper_rows_verbatim(self):
        assert PAPER_REFERENCE[0.9]["C-CMOS"] == ("6.26E-07", "5.27E-11", "3.30E-17")
        assert PAPER_REFERENCE[0.9]["Proposed Adder"][1] == "1.25E-11"
        assert PAPER_REFERENCE[0.65]["Proposed Adder"] == ("4.80E-07", "1.29E-11", "1.05E-17")

    def test_known_inconsistent_row_kept_verbatim(self):
        # The printed 0.65 V Proposed PDP is not power*delay; it is
        # reference metadata only and must not be "corrected".
        p, d, e = (float(v) for v in PAPER_REFERENCE[0.65]["Proposed Adder"])
        assert p * d != pytest.approx(e, rel=0.2, abs=0)

    def test_all_nine_designs_present(self):
        for vdd in (0.9, 0.65):
            assert len(PAPER_REFERENCE[vdd]) == 9


class TestPhaseTruth:
    def test_expectations_follow_truth_table(self):
        # Each settled interval ends where the schedule's own ramp starts.
        sched = InputSchedule(3e-11, 2e-10, periods=1)
        truth = phase_truth(sched)
        assert len(truth) == 16
        for k, ((t0, t1, expected), vector) in enumerate(zip(truth, sched.vectors)):
            assert expected == dict(zip(("sum", "cout"), logic.fa_truth(*vector)))
            assert t0 == pytest.approx(k * sched.phase_length)
            assert t1 == pytest.approx((k + 1) * sched.phase_length - 3e-11)


class TestThresholds:
    def test_full_swing_designs(self):
        cfg = BenchConfig()
        th = thresholds_for(AdderKind.PROPOSED, 0.9, cfg)
        assert th.v_high_min == pytest.approx(0.81)
        assert th.v_low_max == pytest.approx(0.09)

    def test_relaxed_designs(self):
        cfg = BenchConfig()
        th = thresholds_for(AdderKind.TGA, 0.9, cfg)
        assert th.v_high_min == pytest.approx(0.63)


def _fake_results():
    rows = []
    for kind in (AdderKind.C_CMOS, AdderKind.PROPOSED):
        m = Measurement(
            circuit=adders.DISPLAY_NAMES[kind], vdd=0.9, avg_power=1e-6,
            transitions=[Transition(1e-10, "sum", 2e-11)],
        )
        rows.append(bench.CellResult(kind=kind, vdd=0.9, measurement=m,
                                     swing_report=None, result=None))
    return rows


class TestVerificationError:
    def test_failure_message_carries_mismatch_report(self):
        from cnfetsim.measure import SwingCheckEntry, SwingReport
        report = SwingReport([
            SwingCheckEntry(0.0, 1e-10, "sum", 1, 0.2, False),
            SwingCheckEntry(0.0, 1e-10, "cout", 0, 0.01, True),
        ])
        err = bench.LogicVerificationError("TGA", 0.9, report)
        message = str(err)
        assert "TGA" in message and "sum" in message
        assert "1 settled interval" in message


class TestReports:
    def test_markdown_contains_config_and_reference(self):
        cfg = BenchConfig()
        text = bench.report_markdown(_fake_results(), cfg)
        assert "transition_time_s" in text
        assert REFERENCE_LABEL in text
        assert "6.26E-07" in text
        assert "| Proposed Adder | 1.000000e-06 | 2.000000e-11 | 2.000000e-17 |" in text

    def test_csv_rows_and_sources(self):
        text = bench.report_csv(_fake_results(), BenchConfig())
        assert "design,vdd,power_w,delay_s,pdp_j,source" in text
        assert "C-CMOS,0.9,1.000000e-06,2.000000e-11,2.000000e-17,measured" in text
        assert f"C-CMOS,0.9,6.26E-07,5.27E-11,3.30E-17,{REFERENCE_LABEL}" in text

    def test_json_schema(self):
        payload = json.loads(bench.report_json(_fake_results(), BenchConfig()))
        assert payload["reference_label"] == REFERENCE_LABEL
        assert payload["rows"][0]["pdp_j"] == pytest.approx(2e-17)
        assert payload["reference"]["0.9"]["CPL"]["power_w"] == "4.87E-07"
        assert "config" in payload

    def test_reports_deterministic(self):
        cfg = BenchConfig()
        rows = _fake_results()
        for fmt in bench.FORMATTERS.values():
            assert fmt(rows, cfg) == fmt(rows, cfg)


class TestCharts:
    def test_files_written(self, tmp_path):
        written = charts.write_charts(_fake_results(), str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert names == {
            "power_0.9.svg", "power_0.9.csv",
            "delay_0.9.svg", "delay_0.9.csv",
            "pdp_0.9.svg", "pdp_0.9.csv",
        }
        svg = (tmp_path / "pdp_0.9.svg").read_text()
        assert svg.startswith("<svg")
        assert REFERENCE_LABEL in svg
        csv = (tmp_path / "power_0.9.csv").read_text()
        assert csv.splitlines()[0] == "design,measured_power,reference_power"

    def test_chart_output_deterministic(self, tmp_path):
        rows = _fake_results()
        a = charts.chart_svg("pdp", 0.9, rows)
        b = charts.chart_svg("pdp", 0.9, rows)
        assert a == b


# A short stimulus and a coarse step keep each cell to a second or two.
SHORT = BenchConfig(hold_time_s=1e-10, timestep_s=1e-12)


@pytest.mark.parametrize("kind, key, value", [
    (AdderKind.PROPOSED, "cnfet_tubes", 6),
    (AdderKind.PROPOSED, "cnfet_k_per_tube_a_per_v2", 2e-4),
    (AdderKind.C_CMOS, "mosfet_k_a_per_v2", 8e-4),
    (AdderKind.C_CMOS, "mosfet_vth_v", 0.3),
    (AdderKind.C_CMOS, "mosfet_lambda_per_v", 0.1),
])
def test_every_device_key_reaches_the_circuit(kind, key, value):
    changed = bench.run_cell(kind, 0.9, dataclasses.replace(SHORT, **{key: value}))
    assert changed.swing_report.ok
    assert changed.measurement.avg_power != _short_power(kind)


@functools.lru_cache
def _short_power(kind):
    return bench.run_cell(kind, 0.9, SHORT).measurement.avg_power


class TestMeasureDelays:
    """bench's delay step on synthetic buffered outputs that switch 0 <-> 0.9 V
    over 2 ps, starting 20 ps after each input edge the oracle says they
    toggle at, so every mid-swing delay is 21 ps."""

    SCHED = InputSchedule(1e-11, 2e-10, 1)
    EDGES = [t_mid for t_mid, _, _ in SCHED.edges()]

    def _result(self, late_rise: float | None = None) -> TransientResult:
        """The ideal outputs; with late_rise, the sum's rise at that edge
        comes 20 ps after the next input edge, and the fall due there
        50 ps later."""
        t = np.linspace(0.0, self.SCHED.total_time, 20001)
        waves = {}
        for k, out in enumerate(("sum", "cout")):
            level = logic.fa_truth(*self.SCHED.vectors[0])[k]
            switches = [(t_mid + 20e-12, logic.fa_truth(*after)[k])
                        for t_mid, before, after in self.SCHED.edges()
                        if logic.fa_truth(*before)[k] != logic.fa_truth(*after)[k]]
            if out == "sum" and late_rise is not None:
                j = self.EDGES.index(late_rise)
                nxt = self.EDGES[j + 1] + 20e-12
                switches[j:j + 2] = [(nxt, 1), (nxt + 50e-12, 0)]
            corners = [(0.0, level)]
            for ts, new in switches:
                corners += [(ts, corners[-1][1]), (ts + 2e-12, new)]
            times, levels = zip(*corners)
            waves[f"{out}_b2"] = 0.9 * np.interp(t, times, levels)
        return TransientResult(times=t, node_voltages=waves, source_currents={})

    def _delays(self, result: TransientResult) -> list[Transition]:
        return bench._measure_delays(result, self.SCHED, 0.9, BenchConfig(),
                                     (0.0, self.SCHED.total_time))

    def test_every_expected_toggle_is_measured_once(self):
        found = self._delays(self._result())
        sums = [tr.edge_time for tr in found if tr.output == "sum"]
        couts = [tr.edge_time for tr in found if tr.output == "cout"]
        assert sums == self.EDGES  # a single-input change always flips the sum
        assert len(couts) == 8  # four carry flips along the Gray walk, four back
        assert [(tr.edge_time, tr.output) for tr in found] == sorted(
            (tr.edge_time, tr.output) for tr in found)
        for tr in found:
            assert tr.delay == pytest.approx(21e-12, rel=1e-9)

    def test_a_toggle_missed_before_the_next_edge_is_an_error(self):
        # The first edge, (0,0,0) -> (0,0,1), raises the sum.  An unbounded
        # search would take the late rise as a delay of about one phase.
        first = self.EDGES[0]
        assert logic.fa_truth(*self.SCHED.vectors[1])[0] == 1
        with pytest.raises(MissingTransitionError) as err:
            self._delays(self._result(late_rise=first))
        assert err.value.edge_time == first
        assert err.value.output == "sum"


@functools.cache
def _proposed_cell() -> bench.CellResult:
    return bench.run_cell(AdderKind.PROPOSED, 0.9)


class TestControlledCell:
    def test_default_cell_takes_at_most_8000_steps(self):
        # A fixed 0.2 ps step takes 33,600.
        assert len(_proposed_cell().result.times) - 1 <= 8000

    def test_default_cell_takes_at_most_3000_steps(self):
        # The charge floor on the truncation-error tolerance (solver.CHGTOL)
        # lets a settled output take long steps: 3,957 steps without it.
        assert len(_proposed_cell().result.times) - 1 <= 3000

    def test_one_companion_system_per_distinct_multiplier(self, monkeypatch):
        # The cell's steps take 11 distinct companion multipliers (1/h for
        # backward Euler, 2/h for trapezoidal); each builds its base matrix
        # once, off-ladder lengths and the two methods alike.
        from cnfetsim import solver
        built = []
        base_matrix = solver._Compiled.base_matrix

        def counting(comp, cap_geq):
            if cap_geq is not None:
                built.append(cap_geq)
            return base_matrix(comp, cap_geq)

        monkeypatch.setattr(solver._Compiled, "base_matrix", counting)
        bench.run_cell(AdderKind.PROPOSED, 0.9)
        assert len(built) == len(set(built)) == 11

    def test_every_pwl_corner_is_a_sample(self):
        config = BenchConfig()
        sched = InputSchedule(config.transition_time_s, config.hold_time_s,
                              config.warmup_periods + config.measure_periods)
        times = set(_proposed_cell().result.times.tolist())
        corners = {t for i in range(3) for t, _ in sched.pwl_points(i, 0.9)}
        assert len(corners) > 50
        assert corners <= times

