"""Command-line interface: outputs, exit-code partitioning."""

import math

import numpy as np
import pytest

from cnfetsim import adders, bench, charts, cli, solver

RC = "v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1f\n"
RC_STEP = "v1 in 0 pwl(0 0 1e-15 0.9)\nr1 in out 1k\nc1 out 0 1f\n"
# An inverter whose gate x sits on a 2f/1f divider; a falls from 0.9 V to 0.
KICKED_GATE = """\
.model n19 cnfet polarity=n chirality=19,0 tubes=3 k=1e-4
.model p19 cnfet polarity=p chirality=19,0 tubes=3 k=1e-4
vdd vdd 0 dc 0.9
va a 0 pwl(0 0.9 2p 0.9 3p 0)
vb b 0 dc 0
c1 a x 2f
c2 b x 1f
qn out x 0 n19
qp out x vdd p19
"""

# An inverter whose input ramps from 0 V at 1 ps to 0.9 V at 2 ps.
INVERTER_PWL = """\
.model n19 cnfet polarity=n chirality=19,0 tubes=3 k=1e-4
.model p19 cnfet polarity=p chirality=19,0 tubes=3 k=1e-4
vdd vdd 0 dc 0.9
vin in 0 pwl(0 0 1p 0 2p 0.9)
qn out in 0 n19
qp out in vdd p19
cl out 0 1f
"""


@pytest.fixture
def rc_path(tmp_path):
    p = tmp_path / "rc.cir"
    p.write_text(RC)
    return str(p)


class TestSimulate:
    def test_rc_waveform_matches_analytic(self, tmp_path, capsys):
        src = tmp_path / "rc_step.cir"
        src.write_text(RC_STEP)
        out = tmp_path / "wave.csv"
        code = cli.main([
            "simulate", str(src), "--tstop", "5e-12", "--dt", "1e-14",
            "--ic", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        header = rows[0].split(",")
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        t = data[:, header.index("time")]
        vout = data[:, header.index("out")]
        tau = 1e-12
        idx = np.argmin(np.abs(t - tau))
        assert vout[idx] == pytest.approx(0.9 * (1 - math.exp(-t[idx] / tau)), rel=5e-3)

    def test_coupled_node_is_driven_below_every_source_level(self, tmp_path, capsys):
        # Without --ic, x starts at 0 V from the DC point, and the 0.9 V
        # fall on a couples two thirds of it onto x: x ends at -0.6 V,
        # below the lowest source level (0 V) by two thirds of the swing.
        src = tmp_path / "kicked.cir"
        src.write_text(KICKED_GATE)
        out = tmp_path / "wave.csv"
        code = cli.main(["simulate", str(src), "--tstop", "1e-11", "--dt", "1e-13",
                         "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        x = [float(r.split(",")[rows[0].split(",").index("x")]) for r in rows[1:]]
        assert x[0] == pytest.approx(0.0, abs=1e-9)
        assert x[-1] == pytest.approx(-0.6, abs=1e-6)

    def test_stdout_output(self, rc_path, capsys):
        code = cli.main(["simulate", rc_path, "--tstop", "1e-12"])
        assert code == 0
        assert capsys.readouterr().out.startswith("time,in,out,v1")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cir"
        bad.write_text("zz nonsense\n")
        assert cli.main(["simulate", str(bad), "--tstop", "1e-12"]) == cli.EXIT_PARSE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["v1 in 0 dc 1e999\nr1 in out 1k\nc1 out 0 1f\n",
                                      "v1 in 0 pwl(0 0 1e999 0.9)\nr1 in out 1k\nc1 out 0 1f\n"],
                             ids=["dc-level", "pwl-corner"])
    def test_overflowing_value_exits_3_with_one_line(self, tmp_path, capsys, text):
        # An infinite dc level ran into a NaN residual (exit 4), and an
        # infinite PWL corner ran with the source held at 0 V (exit 0).
        src = tmp_path / "inf.cir"
        src.write_text(text)
        assert cli.main(["simulate", str(src), "--tstop", "1e-12"]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cnfetsim: error: line 1: [bad-value]")
        assert captured.out == ""

    def test_nonpositive_tstop_is_usage_error(self, rc_path, capsys):
        assert cli.main(["simulate", rc_path, "--tstop", "-1"]) == cli.EXIT_USAGE

    def test_zero_dt_is_usage_error(self, rc_path, capsys):
        assert cli.main(["simulate", rc_path, "--tstop", "1e-12", "--dt", "0"]) == cli.EXIT_USAGE
        assert "dt must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--tstop", "1e-12", "--dt", "nan"],
                                       ["--tstop", "1e-12", "--dt", "inf"],
                                       ["--tstop", "nan"], ["--tstop", "inf"]],
                             ids=["dt-nan", "dt-inf", "tstop-nan", "tstop-inf"])
    def test_nonfinite_time_is_usage_error(self, rc_path, capsys, flags):
        # NaN passes a bare `<= 0` test, and --dt inf ran one step of tstop.
        assert cli.main(["simulate", rc_path, *flags]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cnfetsim: error: ")
        assert "must be positive and finite" in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize("vdd", ["nan", "inf", "-inf", "0", "-0.9"])
    def test_unusable_vdd_is_usage_error(self, tmp_path, capsys, vdd):
        p = tmp_path / "r.cir"
        p.write_text("vvdd vdd 0 dc 0.9\nr1 vdd 0 1k\n")
        assert cli.main(["simulate", str(p), "--tstop", "1e-12", f"--vdd={vdd}"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cnfetsim: error: vdd ")
        assert "must be positive and finite" in lines[0]
        assert captured.out == ""

    def test_transient_nonconvergence_exits_4_naming_node_and_time(self, tmp_path, capsys,
                                                                   monkeypatch):
        # The starting DC point takes four iterations, so it keeps the
        # default limit; each transient step gets one, which the step into
        # the input ramp at 1.4 ps cannot converge in.
        src = tmp_path / "inv.cir"
        src.write_text(INVERTER_PWL)
        solve_dc = solver._solve_dc

        def solve_dc_at_default_limit(*args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(solver, "MAX_NEWTON_ITERS", 100)
                return solve_dc(*args, **kwargs)

        monkeypatch.setattr(solver, "_solve_dc", solve_dc_at_default_limit)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        out = tmp_path / "wave.csv"
        assert cli.main(["simulate", str(src), "--tstop", "5e-12", "--dt", "1e-13",
                         "--out", str(out)]) == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "at t=1.4e-12s" in err
        assert "at 'out'" in err
        assert not out.exists()

    def test_unwritable_out_is_usage_error(self, rc_path, tmp_path, capsys):
        out = tmp_path / "missing" / "wave.csv"
        assert cli.main(["simulate", rc_path, "--tstop", "1e-12",
                         "--out", str(out)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cnfetsim: error: cannot write output")
        assert str(out) in lines[0]

    def test_isolated_capacitive_cluster_exits_4(self, tmp_path, capsys):
        src = tmp_path / "island.cir"
        src.write_text("v1 a 0 dc 1\nr1 a 0 1k\nc1 x y 1f\n")
        assert cli.main(["simulate", str(src), "--tstop", "1e-12", "--ic"]) == cli.EXIT_CONVERGENCE
        assert "floating-node initialization" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert cli.main(["simulate", "/no/such/file", "--tstop", "1e-12"]) == cli.EXIT_USAGE

    def test_vdd_override(self, tmp_path, capsys):
        p = tmp_path / "r.cir"
        p.write_text("vvdd vdd 0 dc 0.9\nr1 vdd 0 1k\n")
        code = cli.main(["simulate", str(p), "--tstop", "1e-12", "--vdd", "0.65"])
        assert code == 0
        last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.65, abs=1e-6)


class TestDevice:
    def test_chirality_report(self, capsys):
        assert cli.main(["device", "--chirality", "19,0"]) == 0
        out = capsys.readouterr().out
        assert "1.5059 nm" in out
        assert "0.2789 V" in out
        assert "semiconducting yes" in out

    def test_metallic_warning(self, capsys):
        assert cli.main(["device", "--chirality", "9,0"]) == 0
        captured = capsys.readouterr()
        assert "semiconducting no" in captured.out
        assert "metallic" in captured.err

    def test_target_vth_search(self, capsys):
        assert cli.main(["device", "--target-vth", "0.2789"]) == 0
        assert "(19,0)" in capsys.readouterr().out

    def test_unreachable_target(self, capsys):
        assert cli.main(["device", "--target-vth", "10"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("flags", [["--target-vth", "nan"], ["--target-vth", "inf"],
                                       ["--target-vth", "0.3", "--tolerance", "nan"],
                                       ["--target-vth", "0.3", "--tolerance", "inf"],
                                       ["--target-vth", "0.3", "--tolerance=-0.01"]])
    def test_nonfinite_target_or_tolerance_exits_2(self, capsys, flags):
        # nan and inf ended in an AssertionError traceback; a NaN tolerance
        # accepted (17,0), 0.0117 V off a 0.3 V target.
        assert cli.main(["device", *flags]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cnfetsim: error: ")

    def test_requires_exactly_one_flag(self, capsys):
        assert cli.main(["device"]) == cli.EXIT_USAGE
        assert cli.main(["device", "--chirality", "19,0", "--target-vth", "0.3"]) == cli.EXIT_USAGE


class TestAdders:
    def test_list_counts(self, capsys):
        assert cli.main(["adders", "list"]) == 0
        out = capsys.readouterr().out
        assert "proposed" in out
        for fragment in ("14", "28", "20"):
            assert fragment in out


class TestBenchUsage:
    def test_unknown_adder_rejected(self, capsys):
        assert cli.main(["bench", "--adders", "frobnicator"]) == cli.EXIT_USAGE

    def test_bad_vdd_rejected(self, capsys):
        assert cli.main(["bench", "--vdd", "zero"]) == cli.EXIT_USAGE

    def test_bad_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{\"no_such_field\": 1}")
        assert cli.main(["bench", "--config", str(cfg)]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("text", [
        '{"unit_capacitance_f": 0}',
        '{"timestep_s": -1e-13}',
        '{"warmup_periods": 0, "measure_periods": 0}',
        '{"full_swing_levels": [0.1, 0.9]}',
        '{"cnfet_tubes": 0}',
        '{"warmup_periods": 1.5}',
        '{"measure_periods": 0.5}',
        '{"cnfet_tubes": 2.5}',
        '{"cnfet_tubes": true}',
    ])
    def test_out_of_range_config_rejected(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["bench", "--adders", "proposed", "--vdd", "0.9",
                         "--config", str(cfg)]) == cli.EXIT_USAGE
        assert "cannot load benchmark config" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"transition_time_s": Infinity}',
        '{"hold_time_s": 1e308}',
        '{"unit_capacitance_f": Infinity}',
        '{"load_capacitance_f": NaN}',
        '{"settle_window_s": Infinity}',
        pytest.param('{"warmup_periods": 1' + "0" * 400 + "}", id="warmup_periods-1e400"),
        pytest.param('{"cnfet_tubes": 1' + "0" * 400 + "}", id="cnfet_tubes-1e400"),
    ])
    def test_nonfinite_config_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch, text):
        # JSON reads Infinity and NaN, and 16 * (transition + hold) can
        # overflow: each ended in a traceback or a NaN residual (exit 4).
        monkeypatch.setattr(bench, "run_cell", lambda *a: pytest.fail("a cell ran"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["bench", "--adders", "proposed", "--vdd", "0.9",
                         "--config", str(cfg)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cnfetsim: error: cannot load benchmark")

    @pytest.mark.parametrize("text,message", [
        ('{"hold_time_s": true}', "hold_time_s must be a number, got True"),
        ('{"unit_capacitance_f": false}', "unit_capacitance_f must be a number, got False"),
        ('{"mosfet_vth_v": "0.3"}', "mosfet_vth_v must be a number, got '0.3'"),
        ('{"timestep_s": null}', "timestep_s must be a number, got None"),
        ('{"logic_levels": [true, 0.3]}', "logic_levels[0] must be a number, got True"),
        ('{"full_swing_levels": [0.9, "0.1"]}',
         "full_swing_levels[1] must be a number, got '0.1'"),
        ('{"logic_levels": 0.7}', "logic_levels must be a [high, low] pair, got 0.7"),
        ('{"logic_levels": [0.7]}', "logic_levels must be a [high, low] pair, got [0.7]"),
        ('{"logic_levels": [0.7, 0.3, 0.1]}',
         "logic_levels must be a [high, low] pair, got [0.7, 0.3, 0.1]"),
        ("[1, 2]", "the config must be a JSON object, got list"),
        ("null", "the config must be a JSON object, got NoneType"),
    ])
    def test_non_number_config_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                        text, message):
        # A JSON true held a 1 s input for 32 s of stimulus; a string gave
        # "'>' not supported between instances of 'str' and 'int'".
        monkeypatch.setattr(bench, "run_cell", lambda *a: pytest.fail("a cell ran"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["bench", "--adders", "proposed", "--vdd", "0.9",
                         "--config", str(cfg)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"cnfetsim: error: cannot load benchmark config: {message}"]

    @pytest.mark.parametrize("text", ['"proposed"', '["propsed"]', '[1, 2]'])
    def test_bad_full_swing_designs_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                            text):
        monkeypatch.setattr(bench, "run_cell", lambda *a: pytest.fail("a cell ran"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"full_swing_designs": {text}}}')
        assert cli.main(["bench", "--adders", "proposed", "--vdd", "0.9",
                         "--config", str(cfg)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cnfetsim: error: cannot load benchmark config: "
                                   "full_swing_designs must be a list of design names")

    def test_nonconvergence_exits_4_without_a_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        report = tmp_path / "report.md"
        assert cli.main(["bench", "--adders", "proposed", "--vdd", "0.9",
                         "--out", str(report)]) == cli.EXIT_CONVERGENCE
        assert "Newton failed after 1 iterations" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("flag,path", [("--out", "missing/report.md")])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, monkeypatch, flag, path):
        monkeypatch.setattr(bench, "run_matrix", lambda kinds, vdds, config: ([], []))
        assert cli.main(["bench", "--adders", "proposed", "--vdd", "0.9",
                         flag, str(tmp_path / path)]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cnfetsim: error: cannot write output")
        assert str(tmp_path / path) in lines[0]

    @pytest.mark.parametrize("vdd", ["-1", "0", "0.9,0"])
    def test_nonpositive_vdd_rejected(self, capsys, vdd):
        assert cli.main(["bench", "--adders", "c-cmos", "--vdd", vdd]) == cli.EXIT_USAGE
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("vdd", ["inf", "nan", "0.9,inf", "-inf,0.9"])
    def test_nonfinite_vdd_rejected(self, capsys, monkeypatch, vdd):
        # inf passes a bare `> 0` test and reached the solver, which
        # failed to converge (exit 4); no cell may run.
        monkeypatch.setattr(bench, "run_matrix", lambda *a: pytest.fail("a cell ran"))
        assert cli.main(["bench", "--adders", "c-cmos", f"--vdd={vdd}"]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cnfetsim: error: --vdd ")
        assert "must be positive and finite" in lines[0]

    def test_supply_below_the_gate_floor_rejected(self, capsys):
        # CNT-FA1's (19,0) gates need more than 0.558 V.
        assert cli.main(["bench", "--adders", "cnt-fa1", "--vdd", "0.3"]) == cli.EXIT_USAGE
        assert "floor" in capsys.readouterr().err

    def test_each_design_is_held_to_the_floor_of_its_own_gates(self, capsys):
        # CNT-FA1 and CNT-FA3 are built from (19,0) gates alone, so 0.6 V
        # and 0.62 V run them; Proposed and CNT-FA2 hold a (59,0)/(10,0)
        # NOR3 gate, whose 0.620 V floor needs vdd > 0.620 + vdd/30, so
        # more than 0.641 V.
        assert cli.main(["bench", "--adders", "cnt-fa1,cnt-fa3", "--vdd", "0.6,0.62",
                         "--format", "csv"]) == cli.EXIT_OK
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.endswith(",measured")]
        assert sorted(row.split(",")[:2] for row in rows) == [
            ["CNT-FA1", "0.6"], ["CNT-FA1", "0.62"], ["CNT-FA3", "0.6"], ["CNT-FA3", "0.62"]]
        for vdd in (0.6, 0.62):
            for design in ("proposed", "cnt-fa2"):
                assert cli.main(["bench", "--adders", design, "--vdd", str(vdd)]) == cli.EXIT_USAGE
                err = capsys.readouterr().err
                assert "needs vdd > 0.641 V, the 0.620 V floor of its nor gate" in err

    def test_missed_toggle_exits_5_naming_the_output_and_edge(self, tmp_path, capsys):
        # The sum toggles on every 210 ps phase, so it cannot hold a new
        # level for 1.5 phases; the first edge of the measurement period,
        # 16.5 phases less half a ramp in, fails first.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_sustain_fraction": 1.5}')
        assert cli.main(["bench", "--adders", "proposed", "--vdd", "0.9",
                         "--config", str(cfg)]) == cli.EXIT_MEASUREMENT
        err = capsys.readouterr().err
        assert "output 'sum'" in err
        assert "input edge at t=3.565e-09s" in err

    def test_every_supply_is_checked_before_the_first_cell(self, capsys, monkeypatch):
        # 0.3 V is below the gate floor, so no cell may run at 0.9 V first.
        calls = []

        def counting_run_cell(kind, vdd, config=None):
            calls.append((kind, vdd))
            adders.build_adder(kind, vdd)  # raises below the floor, as a real cell does

        monkeypatch.setattr(bench, "run_cell", counting_run_cell)
        assert cli.main(["bench", "--adders", "proposed,cnt-fa1",
                         "--vdd", "0.9,0.3"]) == cli.EXIT_USAGE
        assert calls == []
        assert "floor" in capsys.readouterr().err


@pytest.fixture(scope="module")
def one_cell():
    """run_matrix's output for one real cell, proposed at 0.9 V."""
    return bench.run_matrix([adders.AdderKind.PROPOSED], [0.9], bench.BenchConfig())


class TestBenchAll:
    def test_writes_every_report_and_the_charts_as_the_single_formats_do(
            self, tmp_path, capsys, monkeypatch, one_cell):
        monkeypatch.setattr(bench, "run_matrix", lambda kinds, vdds, config: one_cell)
        every, single = tmp_path / "every", tmp_path / "single"
        assert cli.main(["bench", "--format", "all", "--out", str(every)]) == cli.EXIT_OK
        single.mkdir()
        for name in bench.FORMATTERS:
            assert cli.main(["bench", "--format", name,
                             "--out", str(single / f"report.{name}")]) == cli.EXIT_OK
        charts.write_charts(one_cell[0], str(single))
        written = sorted(p.name for p in every.iterdir())
        assert written == sorted(p.name for p in single.iterdir())
        assert len(written) == 3 + 6  # 3 metrics at 1 supply, .svg and .csv each
        for name in written:
            assert (every / name).read_bytes() == (single / name).read_bytes(), name

    def test_without_out_exits_2_before_any_cell(self, capsys, monkeypatch):
        monkeypatch.setattr(bench, "run_cell", lambda *a: pytest.fail("a cell ran"))
        assert cli.main(["bench", "--format", "all"]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "--format all" in lines[0] and "--out DIR" in lines[0]

    def test_out_through_a_regular_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "a-file").write_text("")
        monkeypatch.setattr(bench, "run_matrix", lambda kinds, vdds, config: ([], []))
        assert cli.main(["bench", "--format", "all",
                         "--out", str(tmp_path / "a-file" / "bench")]) == cli.EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cnfetsim: error: cannot write output")

    def test_verification_failure_exits_6_after_writing_the_reports(
            self, tmp_path, capsys, monkeypatch, one_cell):
        monkeypatch.setattr(bench, "run_matrix",
                            lambda kinds, vdds, config: (one_cell[0], ["a row failed"]))
        assert cli.main(["bench", "--format", "all",
                         "--out", str(tmp_path)]) == cli.EXIT_VERIFICATION
        for name in bench.FORMATTERS:
            assert (tmp_path / f"report.{name}").stat().st_size > 0
        assert "verification failure: a row failed" in capsys.readouterr().err

    def test_missed_toggle_exits_5_with_one_line_and_no_report(self, tmp_path, capsys):
        # No cell's sum can hold a level for 1.5 phases, so the first
        # cell's measurement fails before anything is written.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_sustain_fraction": 1.5}')
        out = tmp_path / "out"
        assert cli.main(["bench", "--adders", "proposed", "--vdd", "0.9", "--format", "all",
                         "--out", str(out), "--config", str(cfg)]) == cli.EXIT_MEASUREMENT
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "no sustained transition on output" in lines[0]
        assert not out.exists()
