"""SPICE-subset netlist: data model, parser, flattener, canonical serializer.

The grammar is a strict subset of SPICE: '*' comment lines, element lines
keyed by first letter (V/R/C/M/Q/X), .model cards, .subckt/.ends blocks,
case-insensitive identifiers, SI value suffixes (f p n u m k meg).
Transistors are three-terminal (drain gate source); Q is a CNFET with a
model card carrying chirality, tube count and polarity, M is a square-law
MOSFET.  Nodes are created implicitly on first reference, with a lint
warning listing single-use nodes (the usual typo tell).

Circuits are immutable after flattening and safe to share across workers.
Each circuit carries one private slot in which the solver keeps its
compiled topology (see solver._compiled); it takes no part in ==, repr
or the serializer, and it pickles empty.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum

from .devices import Chirality, CnfetParams, DeviceError, MosfetParams, Polarity

GROUND = "0"


class ElementKind(Enum):
    CNFET = "cnfet"
    MOSFET = "mosfet"
    CAPACITOR = "capacitor"
    RESISTOR = "resistor"
    VSOURCE = "vsource"


_TERMINAL_COUNT = {
    ElementKind.CNFET: 3,
    ElementKind.MOSFET: 3,
    ElementKind.CAPACITOR: 2,
    ElementKind.RESISTOR: 2,
    ElementKind.VSOURCE: 2,
}


class NetlistError(Exception):
    """Netlist diagnostic with a stable code and a source location."""

    def __init__(self, code: str, message: str, line: int = 0, column: int = 0):
        self.code = code
        self.line = line
        self.column = column
        super().__init__(f"line {line}: [{code}] {message}" if line else f"[{code}] {message}")


@dataclass(frozen=True)
class SourceWaveform:
    """DC level or piecewise-linear waveform for an independent source."""

    kind: str  # "dc" | "pwl"
    level: float = 0.0
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("dc", "pwl"):
            raise ValueError(f"waveform kind must be dc or pwl, got {self.kind!r}")
        if self.kind == "pwl":
            if not self.points:
                raise ValueError("pwl waveform needs at least one breakpoint")
            times = [t for t, _ in self.points]
            if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
                raise ValueError("pwl breakpoint times must be strictly increasing")

    def value_at(self, t: float) -> float:
        """Linear interpolation between breakpoints, constant beyond the ends."""
        if self.kind == "dc":
            return self.level
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        # Few breakpoints in practice; linear scan is fine.
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class Element:
    name: str
    kind: ElementKind
    terminals: tuple[str, ...]
    value: float | None = None  # resistance or capacitance
    model: str | None = None  # transistor model card name
    waveform: SourceWaveform | None = None
    line: int = 0

    def __post_init__(self) -> None:
        want = _TERMINAL_COUNT[self.kind]
        if len(self.terminals) != want:
            raise NetlistError(
                "arity-mismatch",
                f"{self.kind.value} {self.name!r} takes {want} terminals, "
                f"got {len(self.terminals)}",
                self.line,
            )
        if self.kind in (ElementKind.RESISTOR, ElementKind.CAPACITOR):
            if self.value is None or self.value <= 0:
                raise NetlistError(
                    "bad-value",
                    f"{self.kind.value} {self.name!r} needs a positive value, got {self.value}",
                    self.line,
                )
        if self.kind in (ElementKind.CNFET, ElementKind.MOSFET) and not self.model:
            raise NetlistError("unknown-model", f"transistor {self.name!r} has no model", self.line)
        if self.kind is ElementKind.VSOURCE and self.waveform is None:
            raise NetlistError("bad-value", f"source {self.name!r} has no waveform", self.line)


@dataclass(frozen=True)
class ModelCard:
    name: str
    params: CnfetParams | MosfetParams

    @property
    def kind(self) -> ElementKind:
        return ElementKind.CNFET if isinstance(self.params, CnfetParams) else ElementKind.MOSFET


@dataclass(frozen=True)
class SubcktInstance:
    name: str  # instance name without the leading X
    subckt: str
    nodes: tuple[str, ...]
    line: int = 0


@dataclass(frozen=True)
class SubcktDef:
    name: str
    ports: tuple[str, ...]
    elements: tuple[Element, ...]
    instances: tuple[SubcktInstance, ...]


class _Slot:
    """One value computed from a circuit's topology, filled on first use.

    It pickles and deep-copies empty, so the value never travels with
    the circuit.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: object = None

    def __reduce__(self):
        return _Slot, ()


@dataclass(frozen=True)
class Circuit:
    elements: tuple[Element, ...] = ()
    instances: tuple[SubcktInstance, ...] = ()
    subckts: dict[str, SubcktDef] = field(default_factory=dict)
    models: dict[str, ModelCard] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()
    # Not an __init__ argument, so every constructor and every
    # dataclasses.replace starts a fresh one; with_dc_source shares it.
    _topology: _Slot = field(default_factory=_Slot, init=False, repr=False, compare=False)

    @property
    def nodes(self) -> set[str]:
        seen = {GROUND}
        for el in self.elements:
            seen.update(el.terminals)
        for inst in self.instances:
            seen.update(inst.nodes)
        return seen

    @property
    def is_flat(self) -> bool:
        return not self.instances

    def element(self, name: str) -> Element:
        for el in self.elements:
            if el.name == name:
                return el
        raise KeyError(name)

    def with_dc_source(self, name: str, volts: float) -> "Circuit":
        """Copy of the circuit with one source replaced by a DC level.

        Only that waveform changes, so the copy shares this circuit's
        topology slot: an analysis of either reuses the other's compile.
        Both copies are shallow, so neither re-runs validation that the
        originals passed.  Raises KeyError when `name` is no element or
        not a source.
        """
        for k, el in enumerate(self.elements):
            if el.name == name:
                break
        else:
            raise KeyError(name)
        if el.kind is not ElementKind.VSOURCE:
            raise KeyError(f"{name!r} is not a source")
        source = _shallow_copy(el, waveform=SourceWaveform("dc", level=volts))
        elements = (*self.elements[:k], source, *self.elements[k + 1:])
        return _shallow_copy(self, elements=elements)


def _shallow_copy(obj, **changes):
    """A copy of a frozen dataclass sharing every field but `changes`,
    made without __init__: a Circuit copy keeps its topology slot."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__, **changes)
    return new


# --- value and model-card parsing -------------------------------------------

_SUFFIXES = [
    ("meg", 1e6),
    ("f", 1e-15),
    ("p", 1e-12),
    ("n", 1e-9),
    ("u", 1e-6),
    ("m", 1e-3),
    ("k", 1e3),
    ("g", 1e9),
    ("t", 1e12),
]

_NUMBER_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?)([a-z]*)$")


def parse_value(token: str, line: int = 0) -> float:
    """Number with optional SI suffix: '1k' -> 1000.0, '2.5f' -> 2.5e-15."""
    m = _NUMBER_RE.match(token.lower())
    if not m:
        raise NetlistError("bad-value", f"cannot parse value {token!r}", line)
    base, suffix = float(m.group(1)), m.group(2)
    if not suffix:
        return base
    for name, mult in _SUFFIXES:
        if suffix.startswith(name):
            return base * mult
    raise NetlistError("bad-value", f"unknown unit suffix in {token!r}", line)


def _format_value(v: float) -> str:
    """Canonical idempotent float text (no suffixes)."""
    return f"{v:.9g}"


def _parse_model_params(tokens: list[str], line: int) -> dict[str, str]:
    params: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise NetlistError("syntax", f"model parameter {tok!r} is not key=value", line)
        key, val = tok.split("=", 1)
        params[key] = val
    return params


def _build_model(name: str, mtype: str, raw: dict[str, str], line: int) -> ModelCard:
    try:
        if mtype == "cnfet":
            ch = raw.get("chirality")
            if ch is None:
                raise NetlistError("syntax", f"cnfet model {name!r} needs chirality=n,m", line)
            try:
                n_str, m_str = ch.split(",")
                chir = Chirality(int(n_str), int(m_str))
            except (ValueError, DeviceError) as exc:
                raise NetlistError("bad-value", f"bad chirality {ch!r}: {exc}", line) from exc
            params = CnfetParams(
                chirality=chir,
                polarity=Polarity(raw.get("polarity", "n")),
                tube_count=int(raw.get("tubes", "3")),
                transconductance_per_tube=parse_value(raw.get("k", "1e-4"), line),
                lattice_constant=parse_value(raw.get("a", "0.249"), line),
            )
        elif mtype == "mosfet":
            params = MosfetParams(
                polarity=Polarity(raw.get("polarity", "n")),
                threshold=parse_value(raw.get("vth", "0.25"), line),
                transconductance=parse_value(raw.get("k", "4e-4"), line),
                channel_length_modulation=parse_value(raw.get("lambda", "0"), line),
            )
        else:
            raise NetlistError("unknown-model", f"unknown model type {mtype!r}", line)
    except DeviceError as exc:
        raise NetlistError("bad-value", f"model {name!r}: {exc}", line) from exc
    except ValueError as exc:
        raise NetlistError("bad-value", f"model {name!r}: {exc}", line) from exc
    return ModelCard(name=name, params=params)


def _parse_waveform(tokens: list[str], line: int) -> SourceWaveform:
    if not tokens:
        raise NetlistError("syntax", "source line has no value", line)
    head = tokens[0].lower()
    if head == "dc":
        if len(tokens) != 2:
            raise NetlistError("syntax", "dc source takes exactly one level", line)
        return SourceWaveform("dc", level=parse_value(tokens[1], line))
    if head.startswith("pwl"):
        blob = " ".join(tokens)
        inner = blob[3:].strip()
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        nums = inner.replace(",", " ").split()
        if len(nums) < 2 or len(nums) % 2 != 0:
            raise NetlistError("syntax", "pwl needs an even number of time/level values", line)
        vals = [parse_value(tok, line) for tok in nums]
        pts = tuple(zip(vals[0::2], vals[1::2]))
        try:
            return SourceWaveform("pwl", points=pts)
        except ValueError as exc:
            raise NetlistError("bad-value", str(exc), line) from exc
    if len(tokens) == 1:
        return SourceWaveform("dc", level=parse_value(tokens[0], line))
    raise NetlistError("syntax", f"cannot parse source waveform {' '.join(tokens)!r}", line)


# --- parser ------------------------------------------------------------------


def parse(text: str) -> Circuit:
    """Parse netlist text into a validated Circuit (subcircuits unexpanded)."""
    top_elements: list[Element] = []
    top_instances: list[SubcktInstance] = []
    subckts: dict[str, SubcktDef] = {}
    models: dict[str, ModelCard] = {}

    current_sub: str | None = None
    sub_ports: tuple[str, ...] = ()
    sub_elements: list[Element] = []
    sub_instances: list[SubcktInstance] = []

    def target_lists() -> tuple[list[Element], list[SubcktInstance]]:
        if current_sub is None:
            return top_elements, top_instances
        return sub_elements, sub_instances

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        stripped = line.strip()
        if not stripped or stripped.startswith("*"):
            continue
        tokens = stripped.lower().split()
        first = tokens[0]

        if first.startswith("."):
            directive = first
            if directive == ".model":
                if len(tokens) < 3:
                    raise NetlistError("syntax", ".model needs a name and a type", lineno)
                name, mtype = tokens[1], tokens[2]
                models[name] = _build_model(name, mtype, _parse_model_params(tokens[3:], lineno), lineno)
            elif directive == ".subckt":
                if current_sub is not None:
                    raise NetlistError("syntax", "nested .subckt definitions are not supported", lineno)
                if len(tokens) < 2:
                    raise NetlistError("syntax", ".subckt needs a name", lineno)
                current_sub = tokens[1]
                sub_ports = tuple(tokens[2:])
                sub_elements, sub_instances = [], []
            elif directive == ".ends":
                if current_sub is None:
                    raise NetlistError("syntax", ".ends without .subckt", lineno)
                subckts[current_sub] = SubcktDef(
                    name=current_sub,
                    ports=sub_ports,
                    elements=tuple(sub_elements),
                    instances=tuple(sub_instances),
                )
                current_sub = None
            elif directive == ".end":
                continue
            else:
                raise NetlistError("syntax", f"unknown directive {directive!r}", lineno)
            continue

        elements, instances = target_lists()
        key = first[0]
        name = first
        try:
            if key == "v":
                if len(tokens) < 3:
                    raise NetlistError("syntax", "source needs two nodes", lineno)
                el = Element(
                    name, ElementKind.VSOURCE, tuple(tokens[1:3]),
                    waveform=_parse_waveform(tokens[3:], lineno), line=lineno,
                )
            elif key == "r":
                el = Element(
                    name, ElementKind.RESISTOR, tuple(tokens[1:3]),
                    value=parse_value(tokens[3], lineno) if len(tokens) > 3 else None, line=lineno,
                )
            elif key == "c":
                el = Element(
                    name, ElementKind.CAPACITOR, tuple(tokens[1:3]),
                    value=parse_value(tokens[3], lineno) if len(tokens) > 3 else None, line=lineno,
                )
            elif key in ("m", "q"):
                kind = ElementKind.MOSFET if key == "m" else ElementKind.CNFET
                if len(tokens) != 5:
                    raise NetlistError(
                        "arity-mismatch",
                        f"transistor {name!r} takes drain gate source model, got {len(tokens) - 1} fields",
                        lineno,
                    )
                el = Element(name, kind, tuple(tokens[1:4]), model=tokens[4], line=lineno)
            elif key == "x":
                if len(tokens) < 3:
                    raise NetlistError("syntax", f"instance {name!r} needs nodes and a subcircuit name", lineno)
                instances.append(
                    SubcktInstance(name=name[1:] or name, subckt=tokens[-1], nodes=tuple(tokens[1:-1]), line=lineno)
                )
                continue
            else:
                col = line.lower().index(first) + 1
                raise NetlistError("syntax", f"unknown element letter {key!r}", lineno, col)
        except IndexError:
            raise NetlistError("syntax", f"truncated element line {stripped!r}", lineno) from None
        elements.append(el)

    if current_sub is not None:
        raise NetlistError("syntax", f".subckt {current_sub!r} never closed with .ends", 0)

    circuit = Circuit(
        elements=tuple(top_elements),
        instances=tuple(top_instances),
        subckts=subckts,
        models=models,
    )
    _validate(circuit)
    return replace(circuit, warnings=tuple(_lint(circuit)))


def _all_scopes(c: Circuit):
    yield c.elements, c.instances, "top level"
    for sub in c.subckts.values():
        yield sub.elements, sub.instances, f"subckt {sub.name!r}"


def _validate(c: Circuit) -> None:
    for elements, instances, scope in _all_scopes(c):
        seen: set[str] = set()
        for el in elements:
            if el.name in seen:
                raise NetlistError("duplicate-element", f"duplicate element name {el.name!r} in {scope}", el.line)
            seen.add(el.name)
            if el.kind in (ElementKind.CNFET, ElementKind.MOSFET):
                card = c.models.get(el.model or "")
                if card is None:
                    raise NetlistError("unknown-model", f"transistor {el.name!r} references unknown model {el.model!r}", el.line)
                if card.kind is not el.kind:
                    raise NetlistError(
                        "unknown-model",
                        f"transistor {el.name!r} is {el.kind.value} but model {el.model!r} is {card.kind.value}",
                        el.line,
                    )
        for inst in instances:
            if ("x" + inst.name) in seen or inst.name in seen:
                raise NetlistError("duplicate-element", f"duplicate element name {inst.name!r} in {scope}", inst.line)
            seen.add("x" + inst.name)
            sub = c.subckts.get(inst.subckt)
            if sub is None:
                raise NetlistError("unknown-subckt", f"instance x{inst.name} references undefined subcircuit {inst.subckt!r}", inst.line)
            if len(inst.nodes) != len(sub.ports):
                raise NetlistError(
                    "arity-mismatch",
                    f"instance x{inst.name} connects {len(inst.nodes)} nodes but {inst.subckt!r} has {len(sub.ports)} ports",
                    inst.line,
                )


def _lint(c: Circuit) -> list[str]:
    """Single-use node warning (catches node-name typos)."""
    counts: dict[str, int] = {}
    for el in c.elements:
        for t in el.terminals:
            counts[t] = counts.get(t, 0) + 1
    for inst in c.instances:
        for t in inst.nodes:
            counts[t] = counts.get(t, 0) + 1
    lonely = sorted(n for n, k in counts.items() if k == 1 and n != GROUND)
    if lonely:
        return [f"single-use nodes (possible typos): {', '.join(lonely)}"]
    return []


# --- flatten -----------------------------------------------------------------


def flatten(c: Circuit) -> Circuit:
    """Expand all subcircuit instances with hierarchical `instance.node` renaming."""
    if c.is_flat:
        return c

    out: list[Element] = list(c.elements)

    def expand(inst: SubcktInstance, prefix: str, stack: tuple[str, ...]) -> None:
        if inst.subckt in stack:
            chain = " -> ".join(stack + (inst.subckt,))
            raise NetlistError("recursive-subckt", f"recursive subcircuit definition: {chain}", inst.line)
        sub = c.subckts[inst.subckt]
        label = f"{prefix}{inst.name}"
        port_map = dict(zip(sub.ports, inst.nodes))

        def map_node(node: str) -> str:
            if node == GROUND:
                return GROUND
            return port_map.get(node, f"{label}.{node}")

        for el in sub.elements:
            out.append(
                replace(el, name=f"{label}.{el.name}", terminals=tuple(map_node(t) for t in el.terminals))
            )
        for child in sub.instances:
            mapped = SubcktInstance(
                name=child.name, subckt=child.subckt,
                nodes=tuple(map_node(n) for n in child.nodes), line=child.line,
            )
            expand(mapped, f"{label}.", stack + (inst.subckt,))

    for inst in c.instances:
        expand(inst, "", ())

    return Circuit(elements=tuple(out), instances=(), subckts={}, models=dict(c.models), warnings=c.warnings)


# --- stats and serializer ----------------------------------------------------


@dataclass(frozen=True)
class CircuitStats:
    transistor_count: int
    capacitor_count: int
    node_count: int


def stats(c: Circuit) -> CircuitStats:
    """Exact element counts by kind; requires a flattened circuit."""
    if not c.is_flat:
        raise NetlistError("not-flat", "stats requires a flattened circuit")
    transistors = sum(1 for el in c.elements if el.kind in (ElementKind.CNFET, ElementKind.MOSFET))
    capacitors = sum(1 for el in c.elements if el.kind is ElementKind.CAPACITOR)
    nodes = len(c.nodes - {GROUND})
    return CircuitStats(transistors, capacitors, nodes)


def _serialize_element(el: Element) -> str:
    parts = [el.name, *el.terminals]
    if el.kind in (ElementKind.RESISTOR, ElementKind.CAPACITOR):
        parts.append(_format_value(el.value))  # type: ignore[arg-type]
    elif el.kind in (ElementKind.CNFET, ElementKind.MOSFET):
        parts.append(el.model)  # type: ignore[arg-type]
    else:
        wf = el.waveform
        assert wf is not None
        if wf.kind == "dc":
            parts.append(f"dc {_format_value(wf.level)}")
        else:
            flat = " ".join(f"{_format_value(t)} {_format_value(v)}" for t, v in wf.points)
            parts.append(f"pwl({flat})")
    return " ".join(parts)


def _serialize_model(card: ModelCard) -> str:
    p = card.params
    if isinstance(p, CnfetParams):
        return (
            f".model {card.name} cnfet polarity={p.polarity.value} "
            f"chirality={p.chirality.n},{p.chirality.m} tubes={p.tube_count} "
            f"k={_format_value(p.transconductance_per_tube)} a={_format_value(p.lattice_constant)}"
        )
    return (
        f".model {card.name} mosfet polarity={p.polarity.value} "
        f"vth={_format_value(p.threshold)} k={_format_value(p.transconductance)} "
        f"lambda={_format_value(p.channel_length_modulation)}"
    )


def serialize(c: Circuit) -> str:
    """Canonical text form: lowercase, single spaces, elements in input order."""
    lines: list[str] = []
    for name in sorted(c.models):
        lines.append(_serialize_model(c.models[name]))
    for name in sorted(c.subckts):
        sub = c.subckts[name]
        lines.append(f".subckt {sub.name} {' '.join(sub.ports)}".rstrip())
        for el in sub.elements:
            lines.append(_serialize_element(el))
        for inst in sub.instances:
            lines.append(f"x{inst.name} {' '.join(inst.nodes)} {inst.subckt}")
        lines.append(".ends")
    for el in c.elements:
        lines.append(_serialize_element(el))
    for inst in c.instances:
        lines.append(f"x{inst.name} {' '.join(inst.nodes)} {inst.subckt}")
    return "\n".join(lines) + "\n"
