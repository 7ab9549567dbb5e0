"""scripts/compare_reports.py: tolerance check between two JSON bench reports."""

import importlib.util
import json
import math
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_reports", pathlib.Path(__file__).parents[1] / "scripts" / "compare_reports.py"
)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


def _report(path, power=1e-6, delay=2e-11, edge_delay=1e-11, edges=(1e-10,)):
    rows = [{
        "design": "Proposed Adder", "vdd": 0.9, "power_w": power, "delay_s": delay,
        "pdp_j": power * delay,
        "transitions": [{"edge_time": t, "output": "sum", "delay_s": edge_delay} for t in edges],
    }]
    path.write_text(json.dumps({"rows": rows}))
    return str(path)


def test_identical_reports_pass(tmp_path, capsys):
    a = _report(tmp_path / "a.json")
    assert compare_reports.main([a, a]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("field, rel", [
    ("power", 1e-12), ("delay", 5e-10), ("edge_delay", 9e-10),
])
def test_drift_within_rtol_passes(tmp_path, field, rel):
    kwargs = {"power": 1e-6, "delay": 2e-11, "edge_delay": 1e-11}
    a = _report(tmp_path / "a.json", **kwargs)
    kwargs[field] *= 1 + rel
    b = _report(tmp_path / "b.json", **kwargs)
    assert compare_reports.main([a, b, "--rtol", "1e-9"]) == 0


@pytest.mark.parametrize("field", ["power", "delay", "edge_delay"])
def test_drift_past_rtol_fails_and_names_the_field(tmp_path, capsys, field):
    kwargs = {"power": 1e-6, "delay": 2e-11, "edge_delay": 1e-11}
    a = _report(tmp_path / "a.json", **kwargs)
    kwargs[field] *= 1 + 1e-6
    b = _report(tmp_path / "b.json", **kwargs)
    assert compare_reports.main([a, b, "--rtol", "1e-9"]) == 1
    failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    expected = {"power": ["power_w", "pdp_j"], "delay": ["delay_s", "pdp_j"],
                "edge_delay": ["transition_delay_s"]}[field]
    assert failed == expected


def test_different_transitions_fail(tmp_path, capsys):
    a = _report(tmp_path / "a.json", edges=(1e-10,))
    b = _report(tmp_path / "b.json", edges=(1e-10, 2e-10))
    assert compare_reports.main([a, b]) == 1
    assert "transitions differ" in capsys.readouterr().out


@pytest.mark.parametrize("before, after", [(1e-6, math.nan), (math.nan, 1e-6), (math.nan, math.nan)])
def test_nan_power_fails(tmp_path, capsys, before, after):
    a = _report(tmp_path / "a.json", power=before)
    b = _report(tmp_path / "b.json", power=after)
    assert compare_reports.main([a, b]) == 1
    failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert failed == ["power_w", "pdp_j"]
