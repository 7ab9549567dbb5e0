"""Built-in gate and full-adder netlist constructors, plus the benchmark testbench.

The capacitive gates all share one shape: equal input capacitors joined
at an internal node feeding a threshold-tuned inverter.  Three unit caps
give the node four levels {0, vdd/3, 2vdd/3, vdd}; placing the inverter
switching threshold inside the right band turns the same cell into a
majority-not, a NAND3 or a NOR3.  Thresholds are set purely by chirality
choice (diameter -> threshold voltage), never by transistor ratioing.

Adder constructors return flat circuits with terminals a, b, c, sum,
cout, vdd and ground 0.  Each constructor is pure; the emitted netlists
are kept as goldens under tests/goldens.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from . import logic
from .devices import (
    Chirality,
    CnfetParams,
    MosfetParams,
    Polarity,
    chirality_threshold,
    semiconducting_zigzags,
)
from .netlist import (
    Circuit,
    Element,
    ElementKind,
    ModelCard,
    SourceWaveform,
)
from .solver import dc_operating_point

DEFAULT_INPUT_CAP = 1e-15
DEFAULT_LOAD_CAP = 1e-15


@dataclass(frozen=True)
class DeviceParams:
    """Device values every built-in design takes its model cards from.

    Field names and units are those of the benchmark config keys, and
    these defaults are the config's.  They are CnfetParams' and
    MosfetParams' own, except the benchmark's MOSFETs keep a channel-length
    modulation of 0.05/V.  Upsized inverters carry a multiple of
    cnfet_tubes.
    """

    cnfet_tubes: int = CnfetParams.tube_count
    cnfet_k_per_tube_a_per_v2: float = CnfetParams.transconductance_per_tube
    mosfet_k_a_per_v2: float = MosfetParams.transconductance
    mosfet_vth_v: float = MosfetParams.threshold
    mosfet_lambda_per_v: float = 0.05


class GateFunction(Enum):
    MAJORITY_NOT = "majority_not"
    NAND3 = "nand3"
    NOR3 = "nor3"
    INVERTER = "inverter"


# Canonical chirality pairs (N, P) for the threshold-inverter gates.
# Chosen so each gate's switching threshold sits in its band with
# comfortable margin at both 0.9 V and 0.65 V, with no input range where
# both devices are cut off (see tests for the measured thresholds).
GATE_CHIRALITIES: dict[GateFunction, tuple[Chirality, Chirality]] = {
    GateFunction.MAJORITY_NOT: (Chirality(19, 0), Chirality(19, 0)),
    GateFunction.NAND3: (Chirality(10, 0), Chirality(59, 0)),
    GateFunction.NOR3: (Chirality(59, 0), Chirality(10, 0)),
    GateFunction.INVERTER: (Chirality(19, 0), Chirality(19, 0)),
}

# Switching-threshold band for each function, in units of vdd.
GATE_BANDS: dict[GateFunction, tuple[float, float]] = {
    GateFunction.MAJORITY_NOT: (1.0 / 3.0, 2.0 / 3.0),
    GateFunction.NAND3: (2.0 / 3.0, 1.0),
    GateFunction.NOR3: (0.0, 1.0 / 3.0),
    GateFunction.INVERTER: (1.0 / 3.0, 2.0 / 3.0),
}


class GateSynthesisError(Exception):
    """No chirality pair puts the switching threshold inside the band."""


class AdderKind(Enum):
    PROPOSED = "proposed"
    CNT_FA1 = "cnt-fa1"
    CNT_FA2 = "cnt-fa2"
    CNT_FA3 = "cnt-fa3"
    C_CMOS = "c-cmos"
    TGA = "tga"


# Display names follow the benchmark-table row labels, in bench order.
DISPLAY_NAMES = {
    AdderKind.C_CMOS: "C-CMOS",
    AdderKind.TGA: "TGA",
    AdderKind.CNT_FA1: "CNT-FA1",
    AdderKind.CNT_FA2: "CNT-FA2",
    AdderKind.CNT_FA3: "CNT-FA3",
    AdderKind.PROPOSED: "Proposed Adder",
}

BENCH_ORDER = list(DISPLAY_NAMES)


@dataclass(frozen=True)
class GateSpec:
    """A threshold gate: its function and the supply it must work at."""

    function: GateFunction
    vdd: float

    def band(self) -> tuple[float, float]:
        lo, hi = GATE_BANDS[self.function]
        return lo * self.vdd, hi * self.vdd


class _Builder:
    """Accumulates elements and model cards in construction order.

    `devices` sets the transistor model cards and `input_cap` is the unit
    input capacitor of the capacitive gates.
    """

    def __init__(self, devices: DeviceParams = DeviceParams(),
                 input_cap: float = DEFAULT_INPUT_CAP) -> None:
        self.devices = devices
        self.input_cap = input_cap
        self.elements: list[Element] = []
        self.models: dict[str, ModelCard] = {}
        self.cnfet_pairs: list[tuple[str, Chirality, Chirality]] = []  # (tag, n, p)

    def cnfet_model(self, chirality: Chirality, polarity: Polarity,
                    tubes: int | None = None) -> str:
        dev = self.devices
        tubes = dev.cnfet_tubes if tubes is None else tubes
        name = f"{polarity.value}cnt{chirality.n}_{chirality.m}"
        if tubes != dev.cnfet_tubes:
            name += f"t{tubes}"
        if name not in self.models:
            self.models[name] = ModelCard(
                name=name,
                params=CnfetParams(
                    chirality=chirality, polarity=polarity, tube_count=tubes,
                    transconductance_per_tube=dev.cnfet_k_per_tube_a_per_v2,
                ),
            )
        return name

    def mosfet_model(self, polarity: Polarity) -> str:
        dev = self.devices
        name = f"{polarity.value}mos"
        if name not in self.models:
            self.models[name] = ModelCard(
                name=name,
                params=MosfetParams(
                    polarity=polarity, threshold=dev.mosfet_vth_v,
                    transconductance=dev.mosfet_k_a_per_v2,
                    channel_length_modulation=dev.mosfet_lambda_per_v,
                ),
            )
        return name

    def transistor(self, name: str, kind: ElementKind, d: str, g: str, s: str, model: str) -> None:
        self.elements.append(Element(name, kind, (d, g, s), model=model))

    def cap(self, name: str, a: str, b: str, value: float) -> None:
        self.elements.append(Element(name, ElementKind.CAPACITOR, (a, b), value=value))

    def vdc(self, name: str, p: str, m: str, level: float) -> None:
        self.elements.append(
            Element(name, ElementKind.VSOURCE, (p, m), waveform=SourceWaveform("dc", level=level))
        )

    def vpwl(self, name: str, p: str, m: str, points: tuple[tuple[float, float], ...]) -> None:
        self.elements.append(
            Element(name, ElementKind.VSOURCE, (p, m), waveform=SourceWaveform("pwl", points=points))
        )

    def cnfet_inverter(self, tag: str, inp: str, out: str,
                       n_chir: Chirality, p_chir: Chirality,
                       tubes: int | None = None) -> None:
        self.cnfet_pairs.append((tag, n_chir, p_chir))
        nm = self.cnfet_model(n_chir, Polarity.N, tubes)
        pm = self.cnfet_model(p_chir, Polarity.P, tubes)
        self.transistor(f"qn{tag}", ElementKind.CNFET, out, inp, "0", nm)
        self.transistor(f"qp{tag}", ElementKind.CNFET, out, inp, "vdd", pm)

    def mosfet_inverter(self, tag: str, inp: str, out: str) -> None:
        self.transistor(f"mn{tag}", ElementKind.MOSFET, out, inp, "0", self.mosfet_model(Polarity.N))
        self.transistor(f"mp{tag}", ElementKind.MOSFET, out, inp, "vdd", self.mosfet_model(Polarity.P))

    def circuit(self) -> Circuit:
        return Circuit(elements=tuple(self.elements), models=dict(self.models))


# --- switching-threshold prediction, search, measurement ----------------------


def predicted_switching_threshold(vdd: float, vtn: float, vtp: float) -> float:
    """Input level where equal-strength N/P saturation currents balance."""
    return 0.5 * (vdd + vtn - vtp)


def _band_margin(vdd: float) -> float:
    """How far a gate threshold must sit inside its band, and a supply
    above a design's gate floor: vdd / 30."""
    return vdd / 30.0


def synthesize_gate_chiralities(function: GateFunction, vdd: float) -> tuple[Chirality, Chirality]:
    """Zigzag (N, P) pair whose predicted threshold best centers the band.

    Feasibility demands the threshold sit inside the band with >= vdd/30
    margin, both devices turn on inside the supply, and no input range
    leaves both devices cut off (vtn + vtp < vdd).  Raises
    GateSynthesisError when nothing in the n=[4,60] ladder qualifies.
    """
    lo, hi = GateSpec(function, vdd).band()
    margin = _band_margin(vdd)
    target = 0.5 * (lo + hi)
    candidates = semiconducting_zigzags()
    vth = {c: chirality_threshold(c) for c in candidates}
    best: tuple[float, int, int, Chirality, Chirality] | None = None
    for cn in candidates:
        vtn = vth[cn]
        if vtn >= vdd - margin:
            continue
        for cp in candidates:
            vtp = vth[cp]
            if vtp >= vdd - margin or vtn + vtp >= vdd - margin:
                continue
            vm = predicted_switching_threshold(vdd, vtn, vtp)
            if not (lo + margin <= vm <= hi - margin):
                continue
            key = (abs(vm - target), cn.n + cp.n, cn.n, cn, cp)
            if best is None or key < best:
                best = key
    if best is None:
        raise GateSynthesisError(
            f"no zigzag chirality pair reaches the {function.value} band "
            f"({lo:.3f}, {hi:.3f}) V at vdd={vdd} V"
        )
    return best[3], best[4]


@functools.lru_cache(maxsize=64)
def _threshold_circuits(n_chir: Chirality, p_chir: Chirality) -> tuple[Circuit, Circuit]:
    """The two circuits measure_switching_threshold solves for one pair:
    the inverter driven by source vin, and the self-biased inverter.

    Both are built at 0 V and every solve sets its levels with
    Circuit.with_dc_source, so all supplies share each circuit's one
    compile and its DC systems.
    """
    b = _Builder()
    b.vdc("vvdd", "vdd", "0", 0.0)
    b.vdc("vin", "in", "0", 0.0)
    b.cnfet_inverter("1", "in", "out", n_chir, p_chir)
    inverter = b.circuit()
    b = _Builder()
    b.vdc("vvdd", "vdd", "0", 0.0)
    b.cnfet_inverter("1", "out", "out", n_chir, p_chir)
    return inverter, b.circuit()


def measure_switching_threshold(n_chir: Chirality, p_chir: Chirality, vdd: float) -> float:
    """Switching threshold: the input level where the output crosses vdd/2.

    CNFETs have no channel-length modulation (lambda = 0), so wherever
    both devices are saturated their currents depend on vin alone, and
    the transfer curve is vertical, through vdd/2, at the input level
    where they balance.  The output settles there too when the input is
    tied to it: one DC solve of the self-biased inverter (qn out out 0,
    qp out out vdd), in which both devices are saturated and the
    Jacobian is gm_n + gm_p.  That solve starts `out` at the predicted
    threshold (predicted_switching_threshold).  Each pair's circuits are
    built once (see _threshold_circuits).

    Raises GateSynthesisError unless the output is above vdd/2 at vin = 0
    and below it at vin = vdd.  Both checks start `out` at vdd/2: an
    output that neither device drives is held by GMIN alone, whose
    current there is within ABSTOL, so it stays at vdd/2 and fails the
    strict test whichever device never turns on.  From a rail it would
    stay on that rail and pass the check on that side.
    """
    inverter, self_biased = _threshold_circuits(n_chir, p_chir)
    at_vdd = inverter.with_dc_source("vvdd", vdd)
    mid = {"out": vdd / 2}
    high = dc_operating_point(at_vdd, initial_guess=mid)["out"]
    low = dc_operating_point(at_vdd.with_dc_source("vin", vdd), initial_guess=mid)["out"]
    if not (high > vdd / 2 > low):
        raise GateSynthesisError(
            f"inverter ({n_chir}, {p_chir}) does not swing through vdd/2 at vdd={vdd}"
        )
    vm = predicted_switching_threshold(vdd, chirality_threshold(n_chir), chirality_threshold(p_chir))
    biased = self_biased.with_dc_source("vvdd", vdd)
    return dc_operating_point(biased, initial_guess={"out": vm})["out"]


def build_threshold_inverter_gate(spec: GateSpec, verify: bool = True) -> Circuit:
    """Capacitive-input threshold gate with terminals a, b, c, out, vdd.

    Three equal input capacitors join at internal node x driving one
    CNFET inverter (the INVERTER function drops the capacitors and takes
    input a directly).  The inverter is the function's catalog pair
    (GATE_CHIRALITIES) unless that pair's predicted threshold falls
    outside the function's band at spec.vdd, in which case a pair is
    synthesized for spec.vdd.  The pair does not depend on `verify`: with
    verify=True the inverter's switching threshold is also measured with
    one DC solve of it self-biased (see measure_switching_threshold) and
    must land inside the band, or GateSynthesisError is raised.
    """
    n_chir, p_chir = GATE_CHIRALITIES[spec.function]
    lo, hi = spec.band()
    vm = predicted_switching_threshold(
        spec.vdd, chirality_threshold(n_chir), chirality_threshold(p_chir)
    )
    if not (lo < vm < hi):
        n_chir, p_chir = synthesize_gate_chiralities(spec.function, spec.vdd)
    if verify:
        vm = measure_switching_threshold(n_chir, p_chir, spec.vdd)
        if not (lo < vm < hi):
            raise GateSynthesisError(
                f"measured switching threshold {vm:.4f} V outside {spec.function.value} "
                f"band ({lo:.4f}, {hi:.4f}) V for pair ({n_chir}, {p_chir})"
            )
    b = _Builder()
    if spec.function is GateFunction.INVERTER:
        b.cnfet_inverter("1", "a", "out", n_chir, p_chir)
        return b.circuit()
    for inp in ("a", "b", "c"):
        b.cap(f"c{inp}", inp, "x", b.input_cap)
    b.cnfet_inverter("1", "x", "out", n_chir, p_chir)
    return b.circuit()


# --- adders --------------------------------------------------------------------


def _build_proposed(b: _Builder) -> None:
    """14T + 3C: capacitive majority-not plus NAND/NOR readers of the same
    node, combined by a 6-transistor static output stage."""
    maj_n, maj_p = GATE_CHIRALITIES[GateFunction.MAJORITY_NOT]
    nand_n, nand_p = GATE_CHIRALITIES[GateFunction.NAND3]
    nor_n, nor_p = GATE_CHIRALITIES[GateFunction.NOR3]
    inv_n, inv_p = GATE_CHIRALITIES[GateFunction.INVERTER]
    for inp in ("a", "b", "c"):
        b.cap(f"c{inp}", inp, "x", b.input_cap)
    b.cnfet_inverter("maj", "x", "cob", maj_n, maj_p)     # cob = not(cout)
    b.cnfet_inverter("co", "cob", "cout", inv_n, inv_p)
    b.cnfet_inverter("nor", "x", "noro", nor_n, nor_p)    # noro = nor(a,b,c)
    b.cnfet_inverter("nand", "x", "nando", nand_n, nand_p)  # nando = nand(a,b,c)
    # Output stage: sum pulls high via p(nand) or p(nor)*p(cout),
    # low via n(nor) or n(cout)*n(nand); exactly one network conducts
    # on every input vector.
    nm = b.cnfet_model(inv_n, Polarity.N)
    pm = b.cnfet_model(inv_p, Polarity.P)
    b.transistor("qp1", ElementKind.CNFET, "sum", "nando", "vdd", pm)
    b.transistor("qp2", ElementKind.CNFET, "sp", "noro", "vdd", pm)
    b.transistor("qp3", ElementKind.CNFET, "sum", "cout", "sp", pm)
    b.transistor("qn1", ElementKind.CNFET, "sum", "noro", "0", nm)
    b.transistor("qn2", ElementKind.CNFET, "sum", "cout", "sn", nm)
    b.transistor("qn3", ElementKind.CNFET, "sn", "nando", "0", nm)


def _build_cnt_fa1(b: _Builder) -> None:
    """8T + 7C: majority-not carry stage, then a five-input majority-not
    for sum with not(cout) entering at double weight through one 2C cap.

    The sum divider uses half-unit caps (only the 1:1:1:2 ratio matters)
    and the first-stage inverter is upsized: it must slew the not(cout)
    coupling cap within a hold time even at the low supply, where its
    overdrive shrinks to a quarter."""
    maj_n, maj_p = GATE_CHIRALITIES[GateFunction.MAJORITY_NOT]
    inv_n, inv_p = GATE_CHIRALITIES[GateFunction.INVERTER]
    for inp in ("a", "b", "c"):
        b.cap(f"c{inp}1", inp, "x", b.input_cap)
    b.cnfet_inverter("maj", "x", "cob", maj_n, maj_p, tubes=3 * b.devices.cnfet_tubes)
    b.cnfet_inverter("co", "cob", "cout", inv_n, inv_p)
    half = b.input_cap / 2
    for inp in ("a", "b", "c"):
        b.cap(f"c{inp}2", inp, "y", half)
    b.cap("ccob2", "cob", "y", 2 * half)
    b.cnfet_inverter("maj5", "y", "nsum", maj_n, maj_p)
    b.cnfet_inverter("su", "nsum", "sum", inv_n, inv_p)


def _build_cnt_fa2(b: _Builder) -> None:
    """10T + 8C: sum from one inverting threshold gate over a, b, c and
    double-weighted NAND/NOR readings of the shared majority node.

    The sum-stage divider uses half-unit caps (only the 1:1:1:2:2 ratio
    matters) and the NAND/NOR drivers are upsized to twice the tube
    count: they fight ratioed near x = 2vdd/3, and the paper fixes no
    transistor sizing, so the loaded gates get the drive they need."""
    maj_n, maj_p = GATE_CHIRALITIES[GateFunction.MAJORITY_NOT]
    nand_n, nand_p = GATE_CHIRALITIES[GateFunction.NAND3]
    nor_n, nor_p = GATE_CHIRALITIES[GateFunction.NOR3]
    inv_n, inv_p = GATE_CHIRALITIES[GateFunction.INVERTER]
    for inp in ("a", "b", "c"):
        b.cap(f"c{inp}1", inp, "x", b.input_cap)
    b.cnfet_inverter("maj", "x", "cob", maj_n, maj_p)
    b.cnfet_inverter("co", "cob", "cout", inv_n, inv_p)
    b.cnfet_inverter("nor", "x", "noro", nor_n, nor_p, tubes=3 * b.devices.cnfet_tubes)
    b.cnfet_inverter("nand", "x", "nando", nand_n, nand_p, tubes=3 * b.devices.cnfet_tubes)
    half = b.input_cap / 2
    for inp in ("a", "b", "c"):
        b.cap(f"c{inp}2", inp, "y", half)
    b.cap("cnand2", "nando", "y", 2 * half)
    b.cap("cnor2", "noro", "y", 2 * half)
    # The sum node y only ever swings between 3/7 and 4/7 of vdd, so a
    # (19,0) inverter reading it would be nearly cut off at 0.65 V; a
    # symmetric low-threshold pair keeps the switching point at vdd/2
    # with enough overdrive to drive the output load at both supplies.
    low = Chirality(59, 0)
    b.cnfet_inverter("su", "y", "sum", low, low)


def _build_cnt_fa3(b: _Builder) -> None:
    """8T + 5C minority variant with capacitors in the middle of the sum
    path: the majority node x couples through a 3C series capacitor onto
    node y, where not(cout) re-enters through 1C.  The divider algebra
    makes y = (a+b+c+2*not(cout))/5 of vdd, the five-input minority."""
    maj_n, maj_p = GATE_CHIRALITIES[GateFunction.MAJORITY_NOT]
    inv_n, inv_p = GATE_CHIRALITIES[GateFunction.INVERTER]
    for inp in ("a", "b", "c"):
        b.cap(f"c{inp}", inp, "x", b.input_cap)
    b.cap("cmid", "x", "y", 3 * b.input_cap)
    b.cap("ccob", "cob", "y", b.input_cap)
    b.cnfet_inverter("maj", "x", "cob", maj_n, maj_p, tubes=3 * b.devices.cnfet_tubes)
    b.cnfet_inverter("co", "cob", "cout", inv_n, inv_p)
    b.cnfet_inverter("min5", "y", "nsum", maj_n, maj_p)
    b.cnfet_inverter("su", "nsum", "sum", inv_n, inv_p)


def _build_c_cmos(b: _Builder) -> None:
    """28T static complementary CMOS: complex gates for not(cout) and
    not(sum) plus two output inverters; reference 32 nm MOSFET models."""
    nm = b.mosfet_model(Polarity.N)
    pm = b.mosfet_model(Polarity.P)

    def nfet(name: str, d: str, g: str, s: str) -> None:
        b.transistor(name, ElementKind.MOSFET, d, g, s, nm)

    def pfet(name: str, d: str, g: str, s: str) -> None:
        b.transistor(name, ElementKind.MOSFET, d, g, s, pm)

    # not(cout) = not(a*b + c*(a + b))
    nfet("mn1", "cob", "a", "t1")
    nfet("mn2", "t1", "b", "0")
    nfet("mn3", "cob", "c", "t2")
    nfet("mn4", "t2", "a", "0")
    nfet("mn5", "t2", "b", "0")
    pfet("mp1", "t3", "a", "vdd")
    pfet("mp2", "t3", "b", "vdd")
    pfet("mp3", "cob", "c", "t3")
    pfet("mp4", "t4", "a", "t3")
    pfet("mp5", "cob", "b", "t4")
    # not(sum) = not((a + b + c)*not(cout) + a*b*c)
    nfet("mn6", "sumb", "cob", "t5")
    nfet("mn7", "t5", "a", "0")
    nfet("mn8", "t5", "b", "0")
    nfet("mn9", "t5", "c", "0")
    nfet("mn10", "sumb", "a", "t6")
    nfet("mn11", "t6", "b", "t7")
    nfet("mn12", "t7", "c", "0")
    pfet("mp6", "t8", "a", "vdd")
    pfet("mp7", "t9", "b", "t8")
    pfet("mp8", "t10", "c", "t9")
    pfet("mp9", "t10", "cob", "vdd")
    pfet("mp10", "sumb", "a", "t10")
    pfet("mp11", "sumb", "b", "t10")
    pfet("mp12", "sumb", "c", "t10")
    # output inverters
    b.mosfet_inverter("co", "cob", "cout")
    b.mosfet_inverter("su", "sumb", "sum")


def _build_tga(b: _Builder) -> None:
    """20T transmission-gate adder (classical reference, reconstructed):
    h = a xor b via a TG mux, then TG muxes build sum = h xor c and
    cout = c if h else a."""
    nm = b.mosfet_model(Polarity.N)
    pm = b.mosfet_model(Polarity.P)
    b.mosfet_inverter("a", "a", "na")
    b.mosfet_inverter("b", "b", "nb")
    b.mosfet_inverter("c", "c", "nc")

    def tgate(tag: str, src: str, dst: str, on_high: str, on_low: str) -> None:
        # Conducts when on_high = 1 (NMOS) or on_low = 0 (PMOS).
        b.transistor(f"mn{tag}", ElementKind.MOSFET, dst, on_high, src, nm)
        b.transistor(f"mp{tag}", ElementKind.MOSFET, dst, on_low, src, pm)

    tgate("x1", "nb", "h", "a", "na")   # a=1 -> h = not(b)
    tgate("x2", "b", "h", "na", "a")    # a=0 -> h = b
    b.mosfet_inverter("h", "h", "nh")
    tgate("s1", "nc", "sum", "h", "nh")  # h=1 -> sum = not(c)
    tgate("s2", "c", "sum", "nh", "h")   # h=0 -> sum = c
    tgate("c1", "c", "cout", "h", "nh")  # h=1 -> cout = c
    tgate("c2", "a", "cout", "nh", "h")  # h=0 -> cout = a


_BUILDERS: dict[AdderKind, Callable[[_Builder], None]] = {
    AdderKind.PROPOSED: _build_proposed,
    AdderKind.CNT_FA1: _build_cnt_fa1,
    AdderKind.CNT_FA2: _build_cnt_fa2,
    AdderKind.CNT_FA3: _build_cnt_fa3,
    AdderKind.C_CMOS: _build_c_cmos,
    AdderKind.TGA: _build_tga,
}


def build_adder(kind: AdderKind, vdd: float = 0.9, input_cap: float = DEFAULT_INPUT_CAP,
                devices: DeviceParams = DeviceParams()) -> Circuit:
    """Flat full-adder circuit with terminals a, b, c, sum, cout, vdd.

    vdd is not baked into the structure (the testbench supplies power);
    it gates a cheap feasibility check that the built gate chiralities
    work at the requested operating point (see check_operating_point).
    The logic twin of the design is verified against the full-adder truth
    table on every build.  `devices` sets the transistor model cards and
    `input_cap` the unit input capacitor.
    """
    b = _Builder(devices, input_cap)
    _BUILDERS[kind](b)
    check_operating_point(DISPLAY_NAMES[kind], vdd, b.cnfet_pairs)
    report = logic.verify_adder_network(oracle_network(kind))
    assert report.ok, f"{kind.value} logic twin fails the truth table:\n{report.to_json()}"
    return b.circuit()


def check_operating_point(design: str, vdd: float,
                          cnfet_pairs: list[tuple[str, Chirality, Chirality]]) -> None:
    """Raise GateSynthesisError if `design`'s CNFET gate pairs
    `cnfet_pairs`, (tag, n, p) as _Builder records them, cannot work at
    supply `vdd`.

    Below a pair's floor, vtn + vtp, some input range leaves both devices
    off, and the band margins need vdd/30 of headroom above it, so a
    design needs vdd > f + vdd/30, that is vdd > 30f/29, f being its
    highest floor.  Proposed and CNT-FA2 are held to their nor gate's
    (59,0)/(10,0) pair, f = 0.620 V, so vdd > 0.641 V, and CNT-FA1 and
    CNT-FA3 to their maj gate's (19,0)/(19,0) pair, f = 0.558 V, so
    vdd > 0.577 V.  The CMOS designs have no CNFET pair and take any
    supply.
    """
    if not cnfet_pairs:
        return
    floors = [chirality_threshold(n) + chirality_threshold(p) for _, n, p in cnfet_pairs]
    floor = max(floors)
    if vdd <= floor + _band_margin(vdd):
        tag, n, p = cnfet_pairs[floors.index(floor)]
        least = floor / (1.0 - _band_margin(1.0))  # the margin is linear in vdd
        raise GateSynthesisError(
            f"vdd={vdd} V is too low for {design}: it needs vdd > {least:.3f} V, the "
            f"{floor:.3f} V floor of its {tag} gate's {n}/{p} pair plus vdd/30; "
            f"rebuild with resynthesized gates"
        )


def gray_sequence() -> list[tuple[int, int, int]]:
    """Reflected Gray order over {0,1}^3; consecutive vectors differ in one bit."""
    return [
        (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0),
        (1, 1, 0), (1, 1, 1), (1, 0, 1), (1, 0, 0),
    ]


@dataclass(frozen=True)
class InputSchedule:
    """Benchmark stimulus: the Gray sequence then its reverse, per period.

    Each phase holds its vector for hold_time then ramps over
    transition_time into the next phase, so every single-input
    transition is exercised in both directions.  A period is 16 phases.
    """

    transition_time: float
    hold_time: float
    periods: int = 1

    @property
    def phase_length(self) -> float:
        return self.transition_time + self.hold_time

    @property
    def vectors(self) -> list[tuple[int, int, int]]:
        base = gray_sequence()
        return (base + list(reversed(base))) * self.periods

    @property
    def period(self) -> float:
        return 16 * self.phase_length

    @property
    def total_time(self) -> float:
        """periods * 16 * (transition_time + hold_time), the same bits as
        len(vectors) * phase_length without building the vectors."""
        return self.periods * self.period

    def edges(self) -> list[tuple[float, tuple[int, int, int], tuple[int, int, int]]]:
        """(mid-ramp time, vector before, vector after) for each real transition."""
        vecs = self.vectors
        out = []
        for k in range(len(vecs) - 1):
            if vecs[k] == vecs[k + 1]:
                continue
            t_mid = (k + 1) * self.phase_length - self.transition_time / 2.0
            out.append((t_mid, vecs[k], vecs[k + 1]))
        return out

    def pwl_points(self, input_index: int, vdd: float) -> tuple[tuple[float, float], ...]:
        vecs = self.vectors
        pts: list[tuple[float, float]] = [(0.0, vecs[0][input_index] * vdd)]
        for k in range(len(vecs) - 1):
            v0, v1 = vecs[k][input_index], vecs[k + 1][input_index]
            if v0 == v1:
                continue
            ramp_start = (k + 1) * self.phase_length - self.transition_time
            pts.append((ramp_start, v0 * vdd))
            pts.append((ramp_start + self.transition_time, v1 * vdd))
        return tuple(pts)


def build_testbench(dut: Circuit, vdd: float, transition_time: float, hold_time: float,
                    periods: int = 1, load_cap: float = DEFAULT_LOAD_CAP,
                    devices: DeviceParams = DeviceParams()) -> Circuit:
    """Wrap a full adder with stimulus, supply, output buffers and loads.

    PWL sources walk a, b, c through the Gray sequence and its reverse;
    sum and cout each drive two cascaded minimum inverters (same device
    sizing as the gate inverters).  load_cap, recorded in the benchmark
    config, stands in for the gate capacitance this static device model
    does not carry: it loads the adder output and both buffer stages, and
    a load_cap that is not positive raises NetlistError.  The buffers
    take their model cards from `devices`.  Cards merge by name, so a DUT
    card named like a buffer card must match it: build the DUT with the
    same `devices`, or this raises ValueError naming the card.
    """
    for term in ("a", "b", "c", "sum", "cout", "vdd"):
        if term not in dut.nodes:
            raise ValueError(f"device under test is missing terminal {term!r}")
    sched = InputSchedule(transition_time, hold_time, periods)
    b = _Builder(devices)
    b.elements.extend(dut.elements)
    b.vdc("vvdd", "vdd", "0", vdd)
    for i, inp in enumerate(("a", "b", "c")):
        b.vpwl(f"v{inp}", inp, "0", sched.pwl_points(i, vdd))
    uses_cnfet = any(el.kind is ElementKind.CNFET for el in dut.elements)
    inv_n, inv_p = GATE_CHIRALITIES[GateFunction.INVERTER]
    for out in ("sum", "cout"):
        stage1, stage2 = f"{out}_b1", f"{out}_b2"
        if uses_cnfet:
            b.cnfet_inverter(f"b1{out}", out, stage1, inv_n, inv_p)
            b.cnfet_inverter(f"b2{out}", stage1, stage2, inv_n, inv_p)
        else:
            b.mosfet_inverter(f"b1{out}", out, stage1)
            b.mosfet_inverter(f"b2{out}", stage1, stage2)
        b.cap(f"cl_{out}", out, "0", load_cap)
        b.cap(f"cl_{stage1}", stage1, "0", load_cap)
        b.cap(f"cl_{stage2}", stage2, "0", load_cap)
    for name, card in b.models.items():
        if dut.models.get(name, card) != card:
            raise ValueError(
                f"model card {name!r} of the device under test differs from the "
                f"testbench's; build both with the same devices"
            )
    b.models = {**dut.models, **b.models}
    return b.circuit()


# --- logic twins ----------------------------------------------------------------


_ABC = ("a", "b", "c")
_NOT = logic.not_gate()
_AND2, _OR2 = logic.and_gate(2), logic.or_gate(2)
# Every design's carry but TGA's: not(cout) is the majority-not of a, b, c.
_MAJORITY_CARRY = (("cob", logic.majority_not_gate(weights=(1, 1, 1)), _ABC),
                   ("co", _NOT, ("cob",)))
_NAND_NOR = (("nando", logic.nand3_gate(), _ABC), ("noro", logic.nor3_gate(), _ABC))
_MAJORITY_SUM = (("nsum", logic.majority_not_gate(weights=(1, 1, 1, 2)), (*_ABC, "cob")),
                 ("su", _NOT, ("nsum",)))

# Each design's threshold-logic twin: its gates as (signal, gate, inputs)
# in evaluation order, with sum at "su" and cout at "co".
_TWINS: dict[AdderKind, tuple[tuple[str, logic.ThresholdGate, tuple[str, ...]], ...]] = {
    AdderKind.PROPOSED: _MAJORITY_CARRY + _NAND_NOR + (
        ("nnor", _NOT, ("noro",)), ("nnand", _NOT, ("nando",)),
        ("hi1", _AND2, ("cob", "nnor")), ("hi2", _AND2, ("co", "nnand")),
        ("su", _OR2, ("hi1", "hi2"))),
    AdderKind.CNT_FA1: _MAJORITY_CARRY + _MAJORITY_SUM,
    AdderKind.CNT_FA2: _MAJORITY_CARRY + _NAND_NOR + (
        ("su", logic.majority_not_gate(weights=(1, 1, 1, 2, 2)), (*_ABC, "nando", "noro")),),
    AdderKind.CNT_FA3: _MAJORITY_CARRY + _MAJORITY_SUM,
    AdderKind.C_CMOS: _MAJORITY_CARRY + (
        ("any", logic.or_gate(3), _ABC), ("all3", logic.and_gate(3), _ABC),
        ("t1", _AND2, ("any", "cob")), ("sumb_in", _OR2, ("t1", "all3")),
        ("sumb", _NOT, ("sumb_in",)), ("su", _NOT, ("sumb",))),
    AdderKind.TGA: (
        ("na", _NOT, ("a",)), ("nb", _NOT, ("b",)), ("nc", _NOT, ("c",)),
        ("h1", _AND2, ("a", "nb")), ("h2", _AND2, ("na", "b")), ("h", _OR2, ("h1", "h2")),
        ("nh", _NOT, ("h",)),
        ("s1", _AND2, ("h", "nc")), ("s2", _AND2, ("nh", "c")), ("su", _OR2, ("s1", "s2")),
        ("c1", _AND2, ("h", "c")), ("c2", _AND2, ("nh", "a")), ("co", _OR2, ("c1", "c2"))),
}


def oracle_network(kind: AdderKind) -> logic.LogicNetwork:
    """Threshold-logic twin of each analog design (_TWINS), for brute-force verification."""
    net = logic.LogicNetwork()
    for name in _ABC:
        net.add_input(name)
    for name, gate, refs in _TWINS[kind]:
        net.add_gate(name, gate, refs)
    net.add_output("sum", "su")
    net.add_output("cout", "co")
    return net
