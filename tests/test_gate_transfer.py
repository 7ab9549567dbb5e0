"""Warm-started DC sweeps, as scripts/gate_transfer.py makes them.

Each point of a sweep is a with_dc_source copy of one parsed inverter,
solved from the previous point's solution, so the sweep exercises the
shared compile, its cached DC system and the warm start together.  The
curves are pinned bit for bit, and each pinned curve must also pass
perfbench/checks.py's sweep check, which holds it to KCL at `out` under
that file's own square law and to falling with the input (within the
solver's VTOL).  A sweep must leave no cyclic garbage
behind: a compile that referenced itself (through a cached _Newton, say)
would be freed only by the cycle collector.  The script is loaded by
file path, and its main writes one CSV per gate function and supply.
"""

import gc
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cnfetsim.adders import GATE_CHIRALITIES, GateFunction
from cnfetsim.netlist import parse

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "gate_transfer.py"

_spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def _script():
    spec = importlib.util.spec_from_file_location("gate_transfer", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


transfer = _script().transfer

# sha256 of the 121 repr(vout), one per line, of each curve.  majority_not
# and inverter share a chirality pair, so their curves are one.
PINNED_CURVES = {
    ("majority_not", 0.65): "cbf91cb226f7d261a090528fe79de6d9b3e185b19ba57447aab2687285aa701d",
    ("majority_not", 0.9): "a21348cd5c9db95d19b51c31cc9d7bce8ecad2c0ef800e11c01486a3b20036e4",
    ("nand3", 0.65): "e69f5ee761e4dba9c2023c3e21d745e0c3f46f62ffc5190d3612edc824ab1165",
    ("nand3", 0.9): "8295b4a94e953dfed959871d54fc4d24ebd49398255d77b1c27c686f33e5147b",
    ("nor3", 0.65): "9001f1ba97e7ced609d5bd242465d0538845c05bc909c1cf599d598f3305d58f",
    ("nor3", 0.9): "aca2a0f5d3243643687f6d7322b31e47f66f2d9dccb3027fcc5e0060bcb32d5b",
    ("inverter", 0.65): "cbf91cb226f7d261a090528fe79de6d9b3e185b19ba57447aab2687285aa701d",
    ("inverter", 0.9): "a21348cd5c9db95d19b51c31cc9d7bce8ecad2c0ef800e11c01486a3b20036e4",
}


@pytest.mark.parametrize("function, vdd", list(PINNED_CURVES))
def test_warm_sweep_is_pinned_bit_for_bit(function, vdd):
    rows = transfer(*GATE_CHIRALITIES[GateFunction(function)], vdd)
    assert len(rows) == 121
    digest = hashlib.sha256("\n".join(repr(vout) for _, vout in rows).encode()).hexdigest()
    assert digest == PINNED_CURVES[function, vdd]


@pytest.mark.parametrize("function, vdd", list(PINNED_CURVES))
def test_pinned_curve_meets_kcl_and_falls(function, vdd):
    cn, cp = GATE_CHIRALITIES[GateFunction(function)]
    n, p = checks.transistors(parse(
        f".model nsw cnfet polarity=n chirality={cn.n},{cn.m}\n"
        f".model psw cnfet polarity=p chirality={cp.n},{cp.m}\n"
        "qn out in 0 nsw\nqp out in vdd psw\n"))
    vin, vout = zip(*transfer(cn, cp, vdd))
    assert checks.check_sweep(function, vdd, n, p, vin, vout) == []


def test_sweep_makes_no_cyclic_garbage():
    # With automatic collection off, any cycle a sweep drops stays for
    # the explicit collect to find.
    pair = GATE_CHIRALITIES[GateFunction.NAND3]
    enabled = gc.isenabled()
    gc.disable()
    try:
        transfer(*pair, 0.9)
        gc.collect()
        transfer(*pair, 0.9)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_main_writes_one_csv_per_function_and_supply(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gate_transfer.py", str(tmp_path)])
    assert _script().main() == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
        "majority_not_0.9.csv", "majority_not_0.65.csv",
        "nand3_0.9.csv", "nand3_0.65.csv",
        "nor3_0.9.csv", "nor3_0.65.csv",
        "inverter_0.9.csv", "inverter_0.65.csv",
    ])
    lines = (tmp_path / "nand3_0.65.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "vin,vout" and len(lines) == 122
