"""Warm-started DC sweeps, as scripts/gate_transfer.py makes them.

Each point of a sweep is a with_dc_source copy of one parsed inverter,
solved from the previous point's solution, so the sweep exercises the
shared compile, its cached DC system and the warm start together.  The
curves are pinned bit for bit, and a sweep must leave no cyclic garbage
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

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "gate_transfer.py"


def _script():
    spec = importlib.util.spec_from_file_location("gate_transfer", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


transfer = _script().transfer

# sha256 of the 121 repr(vout), one per line, of each curve.  majority_not
# and inverter share a chirality pair, so their curves are one.
PINNED_CURVES = {
    ("majority_not", 0.65): "c944d02a39280419f82230b7a6360679b057efdaaf6a7946ac3ea5d5408c8c3c",
    ("majority_not", 0.9): "adccf7fa69edb8bf12f789b955fad73ca8d34608ce36ef635092f0ea87bc39fe",
    ("nand3", 0.65): "ef2c371dc03dd07e6c2716a9e29a4a01190acb9d8cd28fd4ce01fe7039378568",
    ("nand3", 0.9): "9220eae8e6ce657b9134caf60d03eac1ee1413ccf5d5ed42b52344fbffc493c9",
    ("nor3", 0.65): "82a0d0b7111c39ec342861237acb538df925b26d6736ef112a764a8fa5c10ec9",
    ("nor3", 0.9): "24dca0d56bde8c91ae2374d57b4227122bf155be1e461b57aef7ad7d5995ba51",
    ("inverter", 0.65): "c944d02a39280419f82230b7a6360679b057efdaaf6a7946ac3ea5d5408c8c3c",
    ("inverter", 0.9): "adccf7fa69edb8bf12f789b955fad73ca8d34608ce36ef635092f0ea87bc39fe",
}


@pytest.mark.parametrize("function, vdd", list(PINNED_CURVES))
def test_warm_sweep_is_pinned_bit_for_bit(function, vdd):
    rows = transfer(*GATE_CHIRALITIES[GateFunction(function)], vdd)
    assert len(rows) == 121
    digest = hashlib.sha256("\n".join(repr(vout) for _, vout in rows).encode()).hexdigest()
    assert digest == PINNED_CURVES[function, vdd]


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
