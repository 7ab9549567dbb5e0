"""Command-line interface: outputs, exit-code partitioning."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

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

    def test_nonpositive_tstop_is_usage_error(self, rc_path, capsys):
        assert cli.main(["simulate", rc_path, "--tstop", "-1"]) == cli.EXIT_USAGE

    def test_zero_dt_is_usage_error(self, rc_path, capsys):
        assert cli.main(["simulate", rc_path, "--tstop", "1e-12", "--dt", "0"]) == cli.EXIT_USAGE
        assert "dt must be positive" in capsys.readouterr().err

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

    def test_nonconvergence_exits_4_without_a_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        report = tmp_path / "report.md"
        assert cli.main(["bench", "--adders", "proposed", "--vdd", "0.9",
                         "--out", str(report)]) == cli.EXIT_CONVERGENCE
        assert "Newton failed after 1 iterations" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("vdd", ["-1", "0", "0.9,0"])
    def test_nonpositive_vdd_rejected(self, capsys, vdd):
        assert cli.main(["bench", "--adders", "c-cmos", "--vdd", vdd]) == cli.EXIT_USAGE
        assert "must be positive" in capsys.readouterr().err

    def test_supply_below_the_gate_floor_rejected(self, capsys):
        # The built-in NAND/NOR gate chiralities need at least 0.62 V.
        assert cli.main(["bench", "--adders", "cnt-fa1", "--vdd", "0.3"]) == cli.EXIT_USAGE
        assert "floor" in capsys.readouterr().err

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


def test_run_bench_script_exits_like_the_cli_on_a_verification_failure(tmp_path, monkeypatch,
                                                                       capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_bench.py"
    spec = importlib.util.spec_from_file_location("run_bench", path)
    run_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_bench)
    monkeypatch.setattr(bench, "run_matrix", lambda kinds, vdds, config: ([], ["a row failed"]))
    monkeypatch.setattr(charts, "write_charts", lambda results, out_dir: [])
    monkeypatch.setattr("sys.argv", ["run_bench.py", str(tmp_path)])
    assert run_bench.main() == cli.EXIT_VERIFICATION
    assert "a row failed" in capsys.readouterr().err


def test_run_bench_script_exits_5_with_one_line_on_a_missed_toggle(tmp_path):
    # No cell's sum can hold a level for 1.5 phases, so the first cell's
    # measurement fails; the script must end as `cnfetsim bench` does.
    root = Path(__file__).resolve().parents[1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"min_sustain_fraction": 1.5}')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env[bench.CONFIG_ENV_VAR] = str(cfg)
    proc = subprocess.run([sys.executable, str(root / "scripts" / "run_bench.py"),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == cli.EXIT_MEASUREMENT
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "no sustained transition on output" in lines[0]
