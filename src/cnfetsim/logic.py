"""Gate-level threshold-logic oracle.

Every analog gate in this project is, at heart, a capacitive divider
feeding a threshold-tuned inverter.  Its intended Boolean behaviour is a
weighted-sum-versus-threshold test, so each circuit has an exact logic
twin built from ThresholdGate objects.  The twin is evaluated by brute
force over all input vectors and checked against the full-adder truth
table (fa_truth) on every adders.build_adder call.  A transient is not
checked against the twin: the benchmark checks each cell's settled
phases against fa_truth itself (bench.phase_truth).

Thresholds are exact rationals in units of the supply voltage, so the
oracle is voltage-independent and immune to float boundary effects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction


def majority(bits: tuple[int, ...] | list[int]) -> int:
    """1 iff more than half of an odd-length bit vector is 1."""
    if len(bits) < 3 or len(bits) % 2 == 0:
        raise ValueError(f"majority needs an odd number >= 3 of bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"majority inputs must be bits, got {bits!r}")
    return 1 if sum(bits) * 2 > len(bits) else 0


def fa_truth(a: int, b: int, c: int) -> tuple[int, int]:
    """(sum, cout) of a full adder.

    cout is the three-input majority; sum is computed both as the
    five-input majority of (a, b, c, ~cout, ~cout) and as a^b^c, and the
    two formulations are asserted to agree.
    """
    cout = majority((a, b, c))
    ncout = 1 - cout
    s_maj = majority((a, b, c, ncout, ncout))
    s_xor = a ^ b ^ c
    assert s_maj == s_xor, f"majority/xor sum formulations disagree on {(a, b, c)}"
    return s_maj, cout


@dataclass(frozen=True)
class ThresholdGate:
    """Weighted-sum-vs-threshold abstraction of a capacitive-input inverter.

    output = inverting XOR (sum(w_i * x_i) / sum(w) > threshold)
    """

    weights: tuple[int, ...]
    threshold: Fraction
    inverting: bool = True

    def __post_init__(self) -> None:
        if sum(self.weights) <= 0:
            raise ValueError(f"gate weight sum must be positive, got {self.weights}")

    def eval(self, inputs: tuple[int, ...] | list[int]) -> int:
        if len(inputs) != len(self.weights):
            raise ValueError(
                f"gate takes {len(self.weights)} inputs, got {len(inputs)}"
            )
        acc = sum(w * x for w, x in zip(self.weights, inputs))
        fired = Fraction(acc, sum(self.weights)) > self.threshold
        return int(fired ^ self.inverting)


def majority_not_gate(weights: tuple[int, ...] = (1, 1, 1)) -> ThresholdGate:
    """Inverting majority: 0 iff more than half the (weighted) inputs are 1."""
    return ThresholdGate(weights=weights, threshold=Fraction(1, 2), inverting=True)


def nand3_gate() -> ThresholdGate:
    return ThresholdGate(weights=(1, 1, 1), threshold=Fraction(5, 6), inverting=True)


def nor3_gate() -> ThresholdGate:
    return ThresholdGate(weights=(1, 1, 1), threshold=Fraction(1, 6), inverting=True)


def not_gate() -> ThresholdGate:
    return ThresholdGate(weights=(1,), threshold=Fraction(1, 2), inverting=True)


def and_gate(n: int = 2) -> ThresholdGate:
    return ThresholdGate(weights=(1,) * n, threshold=Fraction(2 * n - 1, 2 * n), inverting=False)


def or_gate(n: int = 2) -> ThresholdGate:
    return ThresholdGate(weights=(1,) * n, threshold=Fraction(1, 2 * n), inverting=False)


@dataclass
class LogicNetwork:
    """Feed-forward network of named threshold gates.

    Gates are stored in evaluation order; every gate input must be a
    primary input or an earlier gate's output.
    """

    inputs: list[str] = field(default_factory=list)
    gates: list[tuple[str, ThresholdGate, tuple[str, ...]]] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)

    def add_input(self, name: str) -> None:
        self.inputs.append(name)

    def add_gate(self, name: str, gate: ThresholdGate, input_names: tuple[str, ...] | list[str]) -> None:
        known = set(self.inputs) | {g[0] for g in self.gates}
        for ref in input_names:
            if ref not in known:
                raise ValueError(f"gate {name!r} references unknown signal {ref!r}")
        if name in known:
            raise ValueError(f"duplicate signal name {name!r}")
        self.gates.append((name, gate, tuple(input_names)))

    def add_output(self, alias: str, signal: str) -> None:
        known = set(self.inputs) | {g[0] for g in self.gates}
        if signal not in known:
            raise ValueError(f"output {alias!r} references unknown signal {signal!r}")
        self.outputs[alias] = signal


def eval_network(net: LogicNetwork, assignment: dict[str, int]) -> dict[str, int]:
    """Topological evaluation; returns output alias -> bit."""
    values: dict[str, int] = {}
    for name in net.inputs:
        if name not in assignment:
            raise ValueError(f"missing assignment for primary input {name!r}")
        values[name] = assignment[name]
    for name, gate, input_names in net.gates:
        values[name] = gate.eval(tuple(values[r] for r in input_names))
    return {alias: values[sig] for alias, sig in net.outputs.items()}


@dataclass
class AdderVerifyReport:
    """Exhaustive comparison of a network against the full-adder truth table.

    Only the mismatches are stored, one {inputs, output, expected, got}
    dict per wrong output bit in vector order; the verdict, the count per
    output (both outputs always present) and the number of input vectors
    with any wrong bit are derived from them.
    """

    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def per_output(self) -> dict[str, int]:
        return {out: sum(m["output"] == out for m in self.mismatches) for out in ("sum", "cout")}

    @property
    def vectors_with_mismatch(self) -> int:
        return len({tuple(m["inputs"]) for m in self.mismatches})

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "vectors_with_mismatch": self.vectors_with_mismatch,
                "per_output": self.per_output,
                "mismatches": self.mismatches,
            },
            indent=2,
            sort_keys=True,
        )


def verify_adder_network(net: LogicNetwork) -> AdderVerifyReport:
    """Compare eval_network against fa_truth over all 8 input vectors."""
    for required in ("a", "b", "c"):
        if required not in net.inputs:
            raise ValueError(f"adder network must have primary input {required!r}")
    for required in ("sum", "cout"):
        if required not in net.outputs:
            raise ValueError(f"adder network must have output {required!r}")
    mismatches: list[dict] = []
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                got = eval_network(net, {"a": a, "b": b, "c": c})
                expected = dict(zip(("sum", "cout"), fa_truth(a, b, c)))
                mismatches += [
                    {"inputs": [a, b, c], "output": out, "expected": want, "got": got[out]}
                    for out, want in expected.items() if got[out] != want
                ]
    return AdderVerifyReport(mismatches)
