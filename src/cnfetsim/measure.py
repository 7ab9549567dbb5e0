"""Figure-of-merit extraction: average power, propagation delay, PDP.

Delay is measured from the middle of the input voltage swing to the
middle of the output voltage swing; crossings are located by linear
interpolation between samples, and an output crossing only counts if the
output then stays on the new side long enough to rule out glitches.
Input edges are known from the stimulus, never read off a waveform.  An
expected toggle is searched from its input edge to the next input edge;
a toggle not found there raises MissingTransitionError, which ends
`cnfetsim bench` with exit code 5.
Average power integrates vdd * (-i_supply) by trapezoidal quadrature, and
the settled-level check takes time averages the same way, so every figure
holds on a nonuniform (error-controlled) time grid.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .solver import TransientResult


class MissingTransitionError(Exception):
    """An output did not toggle between an input edge and the next one."""

    def __init__(self, edge_time: float, output: str):
        self.edge_time = edge_time
        self.output = output
        super().__init__(f"no sustained transition on output {output!r} "
                         f"after input edge at t={edge_time:.6g}s")


@dataclass(frozen=True)
class LogicThresholds:
    """Operationalized logic levels for settled-interval checks."""

    vdd: float
    v_high_min: float
    v_low_max: float
    settle_window: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.v_low_max < self.v_high_min <= self.vdd):
            raise ValueError(
                f"need 0 <= v_low_max < v_high_min <= vdd, got "
                f"{self.v_low_max}/{self.v_high_min}/{self.vdd}"
            )


@dataclass
class Transition:
    edge_time: float
    output: str
    delay: float

    def as_dict(self) -> dict:
        return {"edge_time": self.edge_time, "output": self.output, "delay_s": self.delay}


def _crossings(t: np.ndarray, wf: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Times and directions of every level crossing, by linear interpolation.

    direction is +1 for rising, -1 for falling.  A sample exactly on the
    level belongs to the side it came from, so a touch without a cross
    does not count.
    """
    above = wf > level
    ks = np.nonzero(above[:-1] != above[1:])[0]
    v0, v1 = wf[ks], wf[ks + 1]
    frac = (level - v0) / (v1 - v0)
    return t[ks] + frac * (t[ks + 1] - t[ks]), np.where(v1 > v0, 1, -1)


def _sustained(t: np.ndarray, wf: np.ndarray, cross_time: float, direction: int,
               level: float, min_sustain: float) -> bool:
    """True if wf stays on the new side of level for min_sustain after the
    cross; with min_sustain <= 0 no sample is selected, so it is."""
    until = cross_time + min_sustain
    sel = (t > cross_time) & (t <= until)
    seg = wf[sel]
    if direction > 0:
        return bool(np.all(seg >= level))
    return bool(np.all(seg <= level))


def propagation_delay(t: np.ndarray, output_wf: np.ndarray, vdd: float, min_sustain: float,
                      output: str, edges: list[float], toggles: list[float]) -> list[Transition]:
    """Mid-swing delay of `output` at each input edge where it should toggle.

    `edges` are the mid-swing times of every input edge of the stimulus,
    in time order; `toggles` are those at which this output should
    change.  A toggle is searched from its edge to the next input edge
    (to the end of the run after the last one).  The delay is the first
    output crossing of vdd/2 there that leaves the level held at the
    edge and stays on the new side for min_sustain, minus the edge time;
    a toggle with no such crossing raises MissingTransitionError.
    """
    level = vdd / 2.0
    cross_t, cross_dir = _crossings(t, output_wf, level)
    transitions: list[Transition] = []
    for edge in toggles:
        n = bisect.bisect_right(edges, edge)
        lo = np.searchsorted(cross_t, edge, side="right")
        hi = np.searchsorted(cross_t, edges[n], side="left") if n < len(edges) else len(cross_t)
        # A glitch's return crossing is sustained but re-asserts the old
        # level, so only a crossing away from the level at the edge counts.
        want = -1 if np.interp(edge, t, output_wf) > level else 1
        found = next((float(tc) for tc, d in zip(cross_t[lo:hi], cross_dir[lo:hi])
                      if d == want and _sustained(t, output_wf, tc, d, level, min_sustain)), None)
        if found is None:
            raise MissingTransitionError(edge, output)
        transitions.append(Transition(edge_time=edge, output=output, delay=found - edge))
    return transitions


def average_power(result: TransientResult, supply_name: str, vdd: float,
                  window: tuple[float, float]) -> float:
    """Mean delivered supply power over the window, trapezoidal quadrature.

    P = (1 / (t1 - t0)) * integral of vdd * (-i_supply(t)) dt.  Window
    endpoints may fall between samples; the integrand is interpolated
    there, so power is exactly additive over any partition of a window.
    """
    t0, t1 = window
    if not (t1 > t0):
        raise ValueError(f"empty power window ({t0}, {t1})")
    t = result.times
    if t0 < t[0] - 1e-18 or t1 > t[-1] * (1 + 1e-12) + 1e-18:
        raise ValueError(f"window ({t0}, {t1}) outside simulated span ({t[0]}, {t[-1]})")
    return _time_average(t, vdd * (-result.current(supply_name)), t0, t1)


def _time_average(t: np.ndarray, y: np.ndarray, t0: float, t1: float) -> float:
    """Time average of the sampled waveform y over [t0, t1], t0 < t1, by the
    trapezoid rule, with y interpolated at window endpoints between
    samples: exact for a piecewise-linear waveform sampled at its
    corners, however unevenly."""
    inside = (t > t0) & (t < t1)
    ts = np.concatenate(([t0], t[inside], [t1]))
    ys = np.concatenate(([np.interp(t0, t, y)], y[inside], [np.interp(t1, t, y)]))
    return float(np.trapezoid(ys, ts) / (t1 - t0))


@dataclass
class SwingCheckEntry:
    t_start: float
    t_end: float
    output: str
    expected: int
    mean_level: float
    ok: bool


@dataclass
class SwingReport:
    entries: list[SwingCheckEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failures(self) -> list[SwingCheckEntry]:
        return [e for e in self.entries if not e.ok]


def full_swing_check(result: TransientResult, truth: list[tuple[float, float, dict[str, int]]],
                     th: LogicThresholds) -> SwingReport:
    """Settled-interval level check against expected logic values.

    `truth` lists (t_start, t_end, {output: expected bit}) intervals, and
    the outputs checked in each are the keys of its dict, in their order;
    an interval that names no output adds no entry.  Over the final
    settle_window of each interval, the time average of each output must
    clear v_high_min (expected 1) or stay under v_low_max (expected 0).
    The window is clipped to the simulated span; an empty one averages to
    NaN and fails.  Failures are report entries, never exceptions.
    """
    t = result.times
    entries: list[SwingCheckEntry] = []
    for t_start, t_end, expected in truth:
        w_start = max(t_start, t_end - th.settle_window) if th.settle_window > 0 else t_start
        w0, w1 = max(w_start, float(t[0])), min(t_end, float(t[-1]))
        for out, want in expected.items():
            mean = _time_average(t, result.voltage(out), w0, w1) if w1 > w0 else float("nan")
            ok = (mean >= th.v_high_min) if want == 1 else (mean <= th.v_low_max)
            entries.append(SwingCheckEntry(t_start, t_end, out, want, mean, bool(ok)))
    return SwingReport(entries)
