"""Device physics: chirality-derived CNFET parameters and drain-current models.

A carbon-nanotube FET channel is identified by its chirality pair (n, m).
The chirality fixes the tube diameter, the diameter fixes the threshold
voltage, and the threshold voltage is the single knob the gate library
turns to build majority-not / NAND / NOR inverters.

Both transistor models here are three-region square laws (cutoff, triode,
saturation), continuous in (vgs, vds), with drain/source symmetry so pass
transistors conduct in either direction.  They are deliberately simple:
closed forms keep the nonlinear solver testable against hand arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

# Graphene lattice constant in nm (sqrt(3) * carbon-carbon bond length).
DEFAULT_LATTICE_CONSTANT_NM = 0.249

# Empirical numerator of the threshold-voltage law, in V*nm.
VTH_NUMERATOR_V_NM = 0.42

# Zigzag chiralities searched when synthesizing a target threshold.
ZIGZAG_SEARCH_MIN_N = 4
ZIGZAG_SEARCH_MAX_N = 60


class Polarity(Enum):
    N = "n"
    P = "p"


class DeviceError(ValueError):
    """Invalid device parameter or unsatisfiable device request."""


class UnreachableThresholdError(DeviceError):
    """No zigzag chirality reaches the requested threshold voltage."""


@dataclass(frozen=True)
class Chirality:
    """Roll-up vector (n, m) of a nanotube, canonically ordered m <= n."""

    n: int
    m: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DeviceError(f"chirality requires n >= 1, got ({self.n},{self.m})")
        if self.m < 0 or self.m > self.n:
            raise DeviceError(
                f"chirality requires 0 <= m <= n, got ({self.n},{self.m})"
            )

    def __str__(self) -> str:
        return f"({self.n},{self.m})"


def is_semiconducting(c: Chirality) -> bool:
    """A tube conducts as a semiconductor iff (n - m) mod 3 != 0."""
    return (c.n - c.m) % 3 != 0


def semiconducting_zigzags() -> list[Chirality]:
    """The semiconducting (n, 0) for n in [4, 60], in n order: the ladder
    every threshold search walks."""
    ladder = (Chirality(n, 0) for n in range(ZIGZAG_SEARCH_MIN_N, ZIGZAG_SEARCH_MAX_N + 1))
    return [c for c in ladder if is_semiconducting(c)]


def diameter(c: Chirality, lattice_constant: float = DEFAULT_LATTICE_CONSTANT_NM) -> float:
    """Tube diameter in nm: a * sqrt(n^2 + n*m + m^2) / pi."""
    if lattice_constant <= 0:
        raise DeviceError(f"lattice constant must be positive, got {lattice_constant}")
    n, m = c.n, c.m
    return lattice_constant * math.sqrt(n * n + n * m + m * m) / math.pi


def threshold_voltage(d_nm: float) -> float:
    """Threshold magnitude in volts for a tube of diameter d (nm): 0.42 / d."""
    if not (d_nm > 0) or math.isinf(d_nm):
        raise DeviceError(f"diameter must be positive and finite, got {d_nm}")
    return VTH_NUMERATOR_V_NM / d_nm


def chirality_threshold(c: Chirality, lattice_constant: float = DEFAULT_LATTICE_CONSTANT_NM) -> float:
    """Threshold magnitude for a chirality (composition of the two laws)."""
    return threshold_voltage(diameter(c, lattice_constant))


def chirality_for_threshold(
    target_vth: float,
    tolerance: float,
    lattice_constant: float = DEFAULT_LATTICE_CONSTANT_NM,
) -> Chirality:
    """Semiconducting zigzag (n, 0) whose threshold is nearest target_vth.

    Searches n in [4, 60].  Ties break toward smaller n.  Raises
    DeviceError unless target_vth is positive and finite and `tolerance`
    is finite and not negative, and UnreachableThresholdError when the
    best candidate misses by more than `tolerance`.
    """
    if not (math.isfinite(target_vth) and target_vth > 0):
        raise DeviceError(f"target threshold must be positive and finite, got {target_vth}")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise DeviceError(f"tolerance must be finite and not negative, got {tolerance}")
    best: Chirality | None = None
    best_err = math.inf
    for cand in semiconducting_zigzags():
        err = abs(chirality_threshold(cand, lattice_constant) - target_vth)
        if err < best_err:
            best, best_err = cand, err
    assert best is not None
    if best_err > tolerance:
        raise UnreachableThresholdError(
            f"no zigzag (n,0), n in [{ZIGZAG_SEARCH_MIN_N},{ZIGZAG_SEARCH_MAX_N}], "
            f"within {tolerance} V of {target_vth} V (best {best} misses by {best_err:.4g} V)"
        )
    return best


@dataclass(frozen=True)
class CnfetParams:
    """Electrical parameters of one MOSFET-like CNFET.

    transconductance_per_tube is the square-law k of a single tube in
    A/V^2; the device conducts tube_count tubes in parallel.  Its default
    is a calibration constant chosen so a minimum inverter at 0.9 V
    drives femtofarad loads on a picosecond scale; it is recorded in the
    benchmark config and not claimed to be physical.
    """

    chirality: Chirality
    polarity: Polarity
    tube_count: int = 3
    transconductance_per_tube: float = 1e-4
    lattice_constant: float = DEFAULT_LATTICE_CONSTANT_NM

    def __post_init__(self) -> None:
        if self.tube_count < 1:
            raise DeviceError(f"tube_count must be >= 1, got {self.tube_count}")
        if self.transconductance_per_tube <= 0:
            raise DeviceError("transconductance_per_tube must be positive")
        if not is_semiconducting(self.chirality):
            raise DeviceError(
                f"chirality {self.chirality} is metallic; only semiconducting "
                f"tubes may form a transistor channel"
            )
        vth = self.threshold
        if not (vth > 0 and math.isfinite(vth)):
            raise DeviceError(f"derived threshold {vth} is not positive and finite")

    @property
    def threshold(self) -> float:
        return chirality_threshold(self.chirality, self.lattice_constant)

    @property
    def transconductance(self) -> float:
        return self.tube_count * self.transconductance_per_tube


@dataclass(frozen=True)
class MosfetParams:
    """Reference bulk-MOSFET parameters for the non-CNFET adder designs."""

    polarity: Polarity
    threshold: float = 0.25
    transconductance: float = 4e-4
    channel_length_modulation: float = 0.0

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise DeviceError(f"threshold magnitude must be positive, got {self.threshold}")
        if self.transconductance <= 0:
            raise DeviceError("transconductance must be positive")
        if self.channel_length_modulation < 0:
            raise DeviceError("channel_length_modulation must be >= 0")


def drain_currents(devices: Sequence[tuple[int, int, int, bool, float, float, float]],
                   v: Sequence[float]) -> list[float]:
    """(gds, gm, gm + gds, id) of every device, flat, in device order.

    Each device is (drain, gate, source, mirrored, k, vth, lam): indices
    into the node voltages `v` (-1 reads its last entry, which a caller
    keeps at ground) and the square law of a P (mirrored) or N device.
    The law has three regions, cutoff, triode and saturation; id is
    positive into the drain of a conducting N device.  A P device
    mirrors the N math (conductances keep their sign), and vds < 0 swaps
    the roles of drain and source, so pass transistors conduct either
    way.  The (1 + lam*vds) factor applies in triode and saturation
    alike, which keeps the current C1 across the region boundary;
    scaling saturation only would leave a jump of lam*vds*i_sat there,
    and Newton limit-cycles on such a kink.  The solver evaluates every
    transistor of a circuit with one call per Newton iterate, so the
    loop makes no call per device.
    """
    out: list[float] = []
    for d, g, s, mirrored, k, vth, lam in devices:
        vs = v[s]
        vgs, vds = v[g] - vs, v[d] - vs
        if mirrored:
            vgs, vds = -vgs, -vds
        reversed_ = vds < 0.0
        if reversed_:
            vgs, vds = vgs - vds, -vds
        vov = vgs - vth
        if vov <= 0.0:
            i, gm, gds = 0.0, 0.0, 0.0
        elif vds < vov:
            scale = 1.0 + lam * vds
            base = k * (vov * vds - 0.5 * vds * vds)
            i, gm, gds = base * scale, k * vds * scale, k * (vov - vds) * scale + base * lam
        else:
            scale = 1.0 + lam * vds
            i_sat = 0.5 * k * vov * vov
            i, gm, gds = i_sat * scale, k * vov * scale, i_sat * lam
        if reversed_:
            i, gm, gds = -i, -gm, gm + gds
        if mirrored:
            i = -i
        out += (gds, gm, gm + gds, i)
    return out


def square_law(p: CnfetParams | MosfetParams) -> tuple[float, float, float]:
    """(k, vth, lambda) of a device's square law; a CNFET has lambda 0."""
    if isinstance(p, CnfetParams):
        return p.transconductance, p.threshold, 0.0
    return p.transconductance, p.threshold, p.channel_length_modulation
