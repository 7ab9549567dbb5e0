"""Threshold-logic oracle: majority, adder truth, network evaluation."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from cnfetsim import logic
from cnfetsim.logic import (
    LogicNetwork,
    ThresholdGate,
    eval_network,
    fa_truth,
    majority,
    verify_adder_network,
)

ALL_BITS = list(product((0, 1), repeat=3))


def parse_network(text: str) -> LogicNetwork:
    """Network from a small line format:

    input <name>
    gate <name> inv|buf <p>/<q> <sig>:<weight> ...
    output <alias> <signal>
    """
    net = LogicNetwork()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].lower()
        try:
            if kind == "input":
                net.add_input(parts[1])
            elif kind == "gate":
                name, mode, thresh = parts[1], parts[2].lower(), parts[3]
                if mode not in ("inv", "buf"):
                    raise ValueError(f"gate mode must be inv or buf, got {mode!r}")
                p, q = thresh.split("/")
                refs, weights = [], []
                for token in parts[4:]:
                    sig, w = token.split(":")
                    refs.append(sig)
                    weights.append(int(w))
                gate = ThresholdGate(
                    weights=tuple(weights),
                    threshold=Fraction(int(p), int(q)),
                    inverting=(mode == "inv"),
                )
                net.add_gate(name, gate, tuple(refs))
            elif kind == "output":
                net.add_output(parts[1], parts[2])
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"network text line {lineno}: {exc}") from exc
    return net


class TestMajority:
    def test_two_of_three(self):
        assert majority((1, 1, 0)) == 1

    def test_none(self):
        assert majority((0, 0, 0)) == 0

    def test_three_of_five(self):
        assert majority((1, 0, 1, 0, 1)) == 1

    def test_rejects_even_or_short(self):
        with pytest.raises(ValueError):
            majority((1, 0))
        with pytest.raises(ValueError):
            majority((1,))

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            majority((1, 2, 0))

    @given(st.lists(st.integers(0, 1), min_size=3, max_size=11).filter(lambda b: len(b) % 2 == 1))
    def test_symmetric_under_permutation(self, bits):
        assert majority(bits) == majority(sorted(bits))

    @given(st.lists(st.integers(0, 1), min_size=3, max_size=11).filter(lambda b: len(b) % 2 == 1))
    def test_self_dual(self, bits):
        assert majority([1 - b for b in bits]) == 1 - majority(bits)


class TestFaTruth:
    @pytest.mark.parametrize(
        "bits,expected",
        [((1, 1, 1), (1, 1)), ((1, 0, 0), (1, 0)), ((1, 1, 0), (0, 1)), ((0, 0, 0), (0, 0))],
    )
    def test_rows(self, bits, expected):
        assert fa_truth(*bits) == expected

    def test_five_input_majority_equals_xor_everywhere(self):
        for a, b, c in ALL_BITS:
            cout = majority((a, b, c))
            nco = 1 - cout
            assert majority((a, b, c, nco, nco)) == a ^ b ^ c

    def test_cout_is_majority(self):
        for bits in ALL_BITS:
            assert fa_truth(*bits)[1] == majority(bits)


class TestThresholdGate:
    def test_majority_not_gate(self):
        g = logic.majority_not_gate()
        assert g.eval((1, 1, 0)) == 0
        assert g.eval((1, 0, 0)) == 1

    def test_nand3_encoding_matches_boolean(self):
        g = logic.nand3_gate()
        for bits in ALL_BITS:
            assert g.eval(bits) == (0 if all(bits) else 1)

    def test_nor3_encoding_matches_boolean(self):
        g = logic.nor3_gate()
        for bits in ALL_BITS:
            assert g.eval(bits) == (0 if any(bits) else 1)

    def test_weighted_five_input(self):
        g = logic.majority_not_gate(weights=(1, 1, 1, 2))
        # (a + b + c + 2*ncout)/5 > 1/2
        assert g.eval((1, 1, 0, 0)) == 1
        assert g.eval((1, 1, 1, 0)) == 0
        assert g.eval((0, 0, 1, 1)) == 0

    def test_weight_sum_must_be_positive(self):
        with pytest.raises(ValueError):
            ThresholdGate(weights=(1, -1), threshold=Fraction(1, 2))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            logic.nand3_gate().eval((1, 0))


def _fa1_network() -> LogicNetwork:
    net = LogicNetwork()
    for name in ("a", "b", "c"):
        net.add_input(name)
    net.add_gate("cob", logic.majority_not_gate(), ("a", "b", "c"))
    net.add_gate("co", logic.not_gate(), ("cob",))
    net.add_gate("nsum", logic.majority_not_gate(weights=(1, 1, 1, 2)), ("a", "b", "c", "cob"))
    net.add_gate("su", logic.not_gate(), ("nsum",))
    net.add_output("sum", "su")
    net.add_output("cout", "co")
    return net


class TestNetwork:
    def test_eval_majority_not(self):
        net = LogicNetwork()
        for name in ("a", "b", "c"):
            net.add_input(name)
        net.add_gate("m", logic.majority_not_gate(), ("a", "b", "c"))
        net.add_output("out", "m")
        assert eval_network(net, {"a": 1, "b": 1, "c": 0})["out"] == 0

    def test_nand_nor_gates_in_network(self):
        net = LogicNetwork()
        for name in ("a", "b", "c"):
            net.add_input(name)
        net.add_gate("nand", logic.nand3_gate(), ("a", "b", "c"))
        net.add_gate("nor", logic.nor3_gate(), ("a", "b", "c"))
        net.add_output("nand", "nand")
        net.add_output("nor", "nor")
        out = eval_network(net, {"a": 1, "b": 1, "c": 0})
        assert out == {"nand": 1, "nor": 0}
        assert eval_network(net, {"a": 0, "b": 0, "c": 0})["nor"] == 1

    def test_forward_reference_rejected(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_gate("g", logic.not_gate(), ("missing",))

    def test_missing_assignment_rejected(self):
        net = _fa1_network()
        with pytest.raises(ValueError):
            eval_network(net, {"a": 1, "b": 0})

    def test_verify_clean_adder(self):
        report = verify_adder_network(_fa1_network())
        assert report.ok
        assert report.mismatches == []

    def test_verify_swapped_outputs(self):
        net = _fa1_network()
        net.outputs["sum"], net.outputs["cout"] = net.outputs["cout"], net.outputs["sum"]
        report = verify_adder_network(net)
        # sum (parity) and cout (majority) agree only on 000 and 111, so
        # swapping them breaks both outputs on the other six vectors.
        assert not report.ok
        assert report.vectors_with_mismatch == 6
        assert report.per_output == {"sum": 6, "cout": 6}

    def test_verify_constant_zero_outputs(self):
        net = LogicNetwork()
        for name in ("a", "b", "c"):
            net.add_input(name)
        # a nand a... constant 0 via threshold gate that never fires
        net.add_gate("zero", ThresholdGate((1, 1, 1), Fraction(2, 1), inverting=False), ("a", "b", "c"))
        net.add_output("sum", "zero")
        net.add_output("cout", "zero")
        report = verify_adder_network(net)
        # Only (0,0,0) is fully right; sum is wrong on its 4 high rows
        # and cout on its 4 high rows, overlapping at (1,1,1).
        assert report.vectors_with_mismatch == 7
        assert report.per_output == {"sum": 4, "cout": 4}

    def test_report_json(self):
        report = verify_adder_network(_fa1_network())
        assert '"ok": true' in report.to_json()


class TestNetworkTextForm:
    def test_parse_and_verify(self):
        text = """
        # five-input majority-not adder
        input a
        input b
        input c
        gate cob inv 1/2 a:1 b:1 c:1
        gate co inv 1/2 cob:1
        gate nsum inv 1/2 a:1 b:1 c:1 cob:2
        gate su inv 1/2 nsum:1
        output sum su
        output cout co
        """
        report = verify_adder_network(parse_network(text))
        assert report.ok

    def test_bad_directive_line_reported(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_network("input a\nfrobnicate b\n")
