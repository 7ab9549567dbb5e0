"""Netlist grammar, validation diagnostics, flattening, canonical form."""

import pickle
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from cnfetsim.netlist import (
    ElementKind,
    NetlistError,
    SourceWaveform,
    flatten,
    parse,
    parse_value,
    serialize,
    stats,
)
from cnfetsim.solver import _source_values


def level_at(wf: SourceWaveform, t: float) -> float:
    """The level the solver reads from `wf` at time t."""
    return _source_values([wf])(t)[0]


MODELS = """\
.model n19 cnfet polarity=n chirality=19,0 tubes=3 k=1e-4
.model p19 cnfet polarity=p chirality=19,0 tubes=3 k=1e-4
.model nmos mosfet polarity=n vth=0.25 k=4e-4 lambda=0.05
"""


class TestValues:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("1k", 1e3), ("1f", 1e-15), ("2.5p", 2.5e-12), ("10n", 1e-8),
            ("3u", 3e-6), ("5m", 5e-3), ("2meg", 2e6), ("0.9", 0.9),
            ("1e-15", 1e-15), ("-3.3", -3.3), ("4.7K", 4.7e3),
        ],
    )
    def test_suffixes(self, token, expected):
        assert parse_value(token) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("token", ["", "abc", "1x2", "--3", "1.2.3"])
    def test_bad_values(self, token):
        with pytest.raises(NetlistError):
            parse_value(token)

    @pytest.mark.parametrize("token", ["1e999", "-1e999", "1e306meg", "1e308k"])
    def test_overflowing_value_is_refused(self, token):
        # float() reads each as +-inf, or the suffix carries it there.
        with pytest.raises(NetlistError) as err:
            parse_value(token, 7)
        assert err.value.code == "bad-value" and err.value.line == 7

    @pytest.mark.parametrize("text", [
        "v1 in 0 dc 1e999\nr1 in 0 1k\n",
        "v1 in 0 -1e999\nr1 in 0 1k\n",
        "v1 in 0 pwl(0 0 1e999 0.9)\nr1 in 0 1k\n",
        "v1 in 0 pwl(0 0 1p 1e306meg)\nr1 in 0 1k\n",
        "v1 in 0 dc 0.9\nr1 in 0 1e308k\n",
        "v1 in 0 dc 0.9\nr1 in out 1k\nc1 out 0 1e999\n",
        ".model n19 cnfet polarity=n chirality=19,0 k=1e999\n",
        ".model nm mosfet polarity=n vth=0.25 k=1e999\n",
        ".model nm mosfet polarity=n vth=1e999\n",
    ], ids=["dc-level", "bare-level", "pwl-time", "pwl-level", "resistor", "capacitor",
            "cnfet-k", "mosfet-k", "mosfet-vth"])
    def test_overflowing_value_is_refused_in_every_element(self, text):
        with pytest.raises(NetlistError) as err:
            parse(text)
        assert err.value.code == "bad-value"
        assert "overflows a float" in str(err.value)


class TestWaveform:
    def test_pwl_interpolation_and_extrapolation(self):
        wf = SourceWaveform("pwl", points=((1e-9, 0.0), (2e-9, 1.0)))
        assert level_at(wf, 0.0) == 0.0
        assert level_at(wf, 1.5e-9) == pytest.approx(0.5)
        assert level_at(wf, 5e-9) == 1.0

    def test_pwl_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            SourceWaveform("pwl", points=((1e-9, 0.0), (1e-9, 1.0)))

    @given(st.floats(-1e-9, 5e-9))
    def test_pwl_bounded_by_levels(self, t):
        wf = SourceWaveform("pwl", points=((0.0, 0.0), (1e-9, 0.9), (2e-9, 0.3)))
        assert 0.0 <= level_at(wf, t) <= 0.9


class TestParse:
    def test_minimal_rc(self):
        c = parse("V1 in 0 DC 0.9\nR1 in out 1k\nC1 out 0 1f\n")
        assert len(c.elements) == 3
        assert c.nodes == {"0", "in", "out"}
        assert c.element("r1").value == pytest.approx(1000.0)
        assert c.element("v1").waveform.level == pytest.approx(0.9)

    def test_comments_and_blank_lines(self):
        c = parse("* a comment\n\nr1 a 0 1k\n.end\n")
        assert len(c.elements) == 1

    def test_case_insensitive(self):
        c = parse("R1 IN OUT 1K\nV1 IN 0 DC 0.9\n")
        assert c.nodes == {"0", "in", "out"}

    def test_crlf_line_endings(self):
        c = parse("r1 a 0 1k\r\nv1 a 0 dc 1\r\n")
        assert len(c.elements) == 2

    def test_pwl_source(self):
        c = parse("v1 a 0 pwl(0 0 1n 0.9 2n 0)\n")
        wf = c.element("v1").waveform
        assert wf.kind == "pwl"
        assert level_at(wf, 0.5e-9) == pytest.approx(0.45)

    def test_bare_dc_level(self):
        c = parse("v1 a 0 0.9\n")
        assert c.element("v1").waveform.level == pytest.approx(0.9)

    def test_transistor_and_model(self):
        c = parse(MODELS + "qn out in 0 n19\nmn2 out in 0 nmos\n")
        assert c.element("qn").kind is ElementKind.CNFET
        assert c.element("mn2").kind is ElementKind.MOSFET

    def test_undefined_subckt_is_error(self):
        with pytest.raises(NetlistError) as err:
            parse("xq a b q\n")
        assert err.value.code == "unknown-subckt"
        assert err.value.line == 1

    def test_unknown_model_error(self):
        with pytest.raises(NetlistError) as err:
            parse("qn out in 0 ghost\n")
        assert err.value.code == "unknown-model"

    def test_model_kind_mismatch(self):
        with pytest.raises(NetlistError) as err:
            parse(MODELS + "qn out in 0 nmos\n")
        assert err.value.code == "unknown-model"

    def test_duplicate_element_error(self):
        with pytest.raises(NetlistError) as err:
            parse("r1 a 0 1k\nr1 b 0 2k\n")
        assert err.value.code == "duplicate-element"
        assert err.value.line == 2

    def test_arity_mismatch(self):
        with pytest.raises(NetlistError) as err:
            parse(MODELS + "qn out in n19\n")
        assert err.value.code == "arity-mismatch"

    def test_duplicate_instance_is_named_as_written(self):
        # The message read 'duplicate element name '1''.
        with pytest.raises(NetlistError, match="duplicate element name 'x1' in top level$") as err:
            parse(".subckt s p q\nr1 p q 1k\n.ends\nx1 a b s\nx1 c d s\n")
        assert err.value.code == "duplicate-element"
        assert err.value.line == 5

    def test_instance_may_share_an_element_name_after_its_x(self):
        # SPICE names include their letter: r1 and xr1 are two names, and
        # they flatten to r1 and r1.r1.  xr1 was refused as a duplicate 'r1'.
        c = parse(".subckt s p q\nr1 p q 1k\n.ends\nr1 a b 1k\nxr1 a b s\n")
        assert [el.name for el in flatten(c).elements] == ["r1", "r1.r1"]

    @pytest.mark.parametrize("text,code,line", [
        (".model x\n", "syntax", 2),
        (".subckt a p\n.subckt b q\n", "syntax", 3),
        (".ends\n", "syntax", 2),
        (".foo\n", "syntax", 2),
        ("v1 a\n", "syntax", 2),
        ("x1 sub\n", "syntax", 2),
        ("r1 a b 1q\n", "bad-value", 2),
        (".model m cnfet polarity\n", "syntax", 2),
        (".model m cnfet polarity=n\n", "syntax", 2),
        (".model m cnfet polarity=n chirality=a,b\n", "bad-value", 2),
        (".model m bjt\n", "unknown-model", 2),
        ("v1 a 0\n", "syntax", 2),
        ("v1 a 0 dc 1 2\n", "syntax", 2),
        ("v1 a 0 pwl(0 1 2)\n", "syntax", 2),
        ("v1 a 0 pwl(1 0 0 1)\n", "bad-value", 2),
        ("v1 a 0 sin 0 1\n", "syntax", 2),
        ("r1 a\n", "arity-mismatch", 2),
        (".subckt inv a y\nr1 a y 1k\n.ends\nx1 a inv\n", "arity-mismatch", 5),
    ], ids=["model-without-type", "nested-subckt", "bare-ends", "unknown-directive",
            "source-one-node", "instance-no-nodes", "unknown-suffix", "model-param-not-key-value",
            "cnfet-without-chirality", "chirality-not-integers", "unknown-model-type",
            "source-without-value", "dc-two-levels", "pwl-odd-count", "pwl-time-goes-back",
            "unknown-waveform", "resistor-one-node", "instance-port-count"])
    def test_diagnostic_code_and_line(self, text, code, line):
        with pytest.raises(NetlistError) as err:
            parse("* the first line is a comment\n" + text)
        assert (err.value.code, err.value.line) == (code, line)

    def test_syntax_error_has_line(self):
        with pytest.raises(NetlistError) as err:
            parse("r1 a 0 1k\nzz what 0 1\n")
        assert err.value.code == "syntax"
        assert err.value.line == 2

    def test_negative_capacitance_rejected(self):
        with pytest.raises(NetlistError) as err:
            parse("c1 a 0 -1f\n")
        assert err.value.code == "bad-value"

    def test_metallic_chirality_rejected(self):
        with pytest.raises(NetlistError) as err:
            parse(".model bad cnfet polarity=n chirality=9,0\n")
        assert err.value.code == "bad-value"

    def test_single_use_node_lint(self):
        c = parse("r1 a typo_node 1k\nr2 a 0 1k\n")
        assert any("typo_node" in w for w in c.warnings)

    def test_unclosed_subckt(self):
        with pytest.raises(NetlistError) as err:
            parse(".subckt inv a y vdd\nr1 a y 1k\n")
        assert err.value.code == "syntax"


SUBCKT_TB = MODELS + """\
.subckt inv in out vdd
qn out in 0 n19
qp out in vdd p19
.ends
vdd vdd 0 dc 0.9
vin a 0 dc 0
xu1 a b vdd inv
xu2 b c vdd inv
"""


class TestFlatten:
    def test_identity_when_flat(self):
        c = parse("r1 a 0 1k\n")
        assert flatten(c) is c

    def test_expansion_counts(self):
        c = flatten(parse(SUBCKT_TB))
        assert c.is_flat
        s = stats(c)
        assert s.transistor_count == 4
        assert {el.name for el in c.elements if el.kind is ElementKind.CNFET} == {
            "u1.qn", "u1.qp", "u2.qn", "u2.qp"
        }

    def test_hierarchical_node_renaming(self):
        text = MODELS + """\
.subckt pair in out vdd
qn mid in 0 n19
qp out mid vdd p19
.ends
x1 a b vdd pair
"""
        c = flatten(parse(text))
        assert "1.mid" in c.nodes
        assert "a" in c.nodes and "b" in c.nodes

    def test_testbench_adds_eight_buffer_transistors(self):
        # A full adder plus two cascaded inverters on each output gains
        # exactly 8 transistors through flattening.
        fa_body = "\n".join(
            f"q{k} sum a 0 n19" for k in range(0)
        )
        text = MODELS + """\
.subckt fa a b c sum cout vdd
q1 sum a 0 n19
q2 sum a vdd p19
q3 cout b 0 n19
q4 cout b vdd p19
.ends
.subckt inv in out vdd
qn out in 0 n19
qp out in vdd p19
.ends
xdut a b c sum cout vdd fa
xb1 sum s1 vdd inv
xb2 s1 s2 vdd inv
xb3 cout c1 vdd inv
xb4 c1 c2 vdd inv
"""
        c = flatten(parse(text))
        dut_count = 4
        assert stats(c).transistor_count == dut_count + 8

    def test_flatten_idempotent(self):
        c = flatten(parse(SUBCKT_TB))
        again = flatten(c)
        assert serialize(again) == serialize(c)

    def test_recursive_subckt_cycle_error(self):
        text = """\
.subckt a x y
xinner x y a
.ends
xtop p q a
"""
        with pytest.raises(NetlistError) as err:
            flatten(parse(text))
        assert err.value.code == "recursive-subckt"

    def test_nested_expansion(self):
        text = MODELS + """\
.subckt inv in out vdd
qn out in 0 n19
qp out in vdd p19
.ends
.subckt buf in out vdd
xi1 in m vdd inv
xi2 m out vdd inv
.ends
xb a b vdd buf
"""
        c = flatten(parse(text))
        assert stats(c).transistor_count == 4
        assert "b.i1.m" not in c.nodes  # port m maps to b.m
        assert "b.m" in c.nodes


class TestStats:
    def test_requires_flat(self):
        with pytest.raises(NetlistError):
            stats(parse(SUBCKT_TB))

    def test_counts(self):
        c = parse(MODELS + "qn y a 0 n19\nc1 y 0 1f\nc2 a 0 1f\nr1 y 0 1k\n")
        s = stats(c)
        assert (s.transistor_count, s.capacitor_count) == (1, 2)
        assert s.node_count == 2  # y, a


class TestTopologySlot:
    """The private slot in which the solver keeps a circuit's compile."""

    TEXT = "v1 in 0 pwl(0 0 1n 0.9)\nr1 in out 1k\nc1 out 0 1f\n"

    def test_with_dc_source_shares_it_and_every_other_constructor_does_not(self):
        c = parse(self.TEXT)
        assert c.with_dc_source("v1", 0.5)._topology is c._topology
        assert parse(self.TEXT)._topology is not c._topology
        assert replace(c, warnings=("w",))._topology is not c._topology
        flat = flatten(parse(SUBCKT_TB))
        assert flat.with_dc_source("vin", 0.9)._topology is flat._topology

    def test_it_is_not_part_of_equality_repr_or_text(self):
        c, filled = parse(self.TEXT), parse(self.TEXT)
        filled._topology.value = object()
        assert c == filled
        assert repr(c) == repr(filled) and "_topology" not in repr(c)
        assert serialize(c) == serialize(filled)

    def test_it_pickles_and_deep_copies_empty(self):
        c = parse(self.TEXT)
        c._topology.value = "compiled"
        for copy in (pickle.loads(pickle.dumps(c)), deepcopy(c)):
            assert copy == c
            assert copy._topology.value is None

    def test_with_dc_source_rejects_unknown_and_non_source_names(self):
        c = parse(self.TEXT)
        with pytest.raises(KeyError):
            c.with_dc_source("nope", 0.5)
        with pytest.raises(KeyError):
            c.with_dc_source("r1", 0.5)


class TestCanonicalForm:
    def test_parse_serialize_fixed_point(self):
        text = "V1 IN 0 DC 0.9\nR1 in out 1K\nC1 out 0 1f\n"
        once = serialize(parse(text))
        twice = serialize(parse(once))
        assert once == twice

    def test_fixed_point_with_subckts_and_models(self):
        once = serialize(parse(SUBCKT_TB))
        twice = serialize(parse(once))
        assert once == twice

    def test_canonical_is_lowercase_single_spaces(self):
        out = serialize(parse("R1   IN  OUT    1K\n"))
        assert out == "r1 in out 1000\n"

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["r", "c"]),
                st.sampled_from(["a", "b", "n1", "n2"]),
                st.sampled_from(["0", "a", "b", "n2"]),
                st.floats(1e-15, 1e6).filter(lambda v: v > 0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_roundtrip_random_rc(self, rows):
        lines = []
        for k, (kind, n1, n2, val) in enumerate(rows):
            lines.append(f"{kind}{k} {n1} {n2} {val!r}")
        text = "\n".join(lines) + "\n"
        once = serialize(parse(text))
        assert serialize(parse(once)) == once
