"""Figure-of-merit extraction: average power, propagation delay, PDP.

Delay is measured from the middle of the input voltage swing to the
middle of the output voltage swing; crossings are located by linear
interpolation between samples, and an output crossing only counts if the
output then stays on the new side long enough to rule out glitches.
Average power integrates vdd * (-i_supply) by trapezoidal quadrature, and
the settled-level check takes time averages the same way, so every figure
holds on a nonuniform (error-controlled) time grid.
PDP is the plain product of average power and worst-case delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .solver import TransientResult


class MissingTransitionError(Exception):
    """An input edge produced no sustained output response."""

    def __init__(self, edge_time: float, output: str = ""):
        self.edge_time = edge_time
        self.output = output
        what = f" on {output!r}" if output else ""
        super().__init__(f"no sustained output transition{what} after input edge at t={edge_time:.6g}s")


@dataclass(frozen=True)
class LogicThresholds:
    """Operationalized logic levels for settled-interval checks."""

    vdd: float
    v_high_min: float | None = None
    v_low_max: float | None = None
    settle_window: float = 0.0

    def __post_init__(self) -> None:
        if self.v_high_min is None:
            object.__setattr__(self, "v_high_min", 0.9 * self.vdd)
        if self.v_low_max is None:
            object.__setattr__(self, "v_low_max", 0.1 * self.vdd)
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


@dataclass
class Measurement:
    """Power/delay/PDP for one circuit at one supply voltage.

    pdp is avg_power * worst_delay by construction; worst_delay is the
    maximum over the per-transition list.
    """

    circuit: str
    vdd: float
    avg_power: float
    transitions: list[Transition] = field(default_factory=list)

    @property
    def worst_delay(self) -> float:
        return max((t.delay for t in self.transitions), default=0.0)

    @property
    def pdp(self) -> float:
        return self.avg_power * self.worst_delay


def _crossings(t: np.ndarray, wf: np.ndarray, level: float) -> list[tuple[float, int]]:
    """(time, direction) of every level crossing, by linear interpolation.

    direction is +1 for rising, -1 for falling.  A sample exactly on the
    level belongs to the side it came from, so a touch without a cross
    does not count.
    """
    above = wf > level
    ks = np.nonzero(above[:-1] != above[1:])[0]
    if not len(ks):
        return []
    v0, v1 = wf[ks], wf[ks + 1]
    frac = (level - v0) / (v1 - v0)
    cross_t = t[ks] + frac * (t[ks + 1] - t[ks])
    direction = np.where(v1 > v0, 1, -1)
    return [(float(tc), int(d)) for tc, d in zip(cross_t, direction)]


def _sustained(t: np.ndarray, wf: np.ndarray, cross_time: float, direction: int,
               level: float, min_sustain: float) -> bool:
    """True if wf stays on the new side of level for min_sustain after the cross."""
    if min_sustain <= 0:
        return True
    until = cross_time + min_sustain
    sel = (t > cross_time) & (t <= until)
    seg = wf[sel]
    if direction > 0:
        return bool(np.all(seg >= level))
    return bool(np.all(seg <= level))


def propagation_delay(t: np.ndarray, input_wf: np.ndarray | None, output_wf: np.ndarray,
                      vdd: float, min_sustain: float = 0.0,
                      edges: list[float] | None = None,
                      require_response: bool = True) -> list[Transition]:
    """Mid-swing to mid-swing delay for each input edge.

    For every input crossing of vdd/2 (or each time in `edges`, when the
    stimulus is known analytically; input_wf is then not read and may be
    None), the delay is the first subsequent
    output crossing of vdd/2 that leads to a sustained new level, minus
    the input crossing time.  The search window for an edge ends at the
    next edge; with require_response an empty window raises
    MissingTransitionError naming the edge.
    """
    level = vdd / 2.0
    if edges is None:
        edge_times = [tc for tc, _ in _crossings(t, input_wf, level)]
    else:
        edge_times = sorted(edges)
    if not edge_times:
        raise ValueError("input waveform never crosses the mid-swing level")
    out_crossings = _crossings(t, output_wf, level)
    transitions: list[Transition] = []
    for n, edge in enumerate(edge_times):
        window_end = edge_times[n + 1] if n + 1 < len(edge_times) else float(t[-1]) + 1.0
        # The response must land on the side opposite the output's level
        # at the moment of the edge; a glitch's return crossing is
        # sustained but re-asserts the old level and does not count.
        pre_high = float(np.interp(edge, t, output_wf)) > level
        want_direction = -1 if pre_high else +1
        found = None
        for tc, direction in out_crossings:
            if tc <= edge or tc >= window_end or direction != want_direction:
                continue
            if _sustained(t, output_wf, tc, direction, level, min_sustain):
                found = tc
                break
        if found is None:
            if require_response:
                raise MissingTransitionError(edge)
            continue
        transitions.append(Transition(edge_time=edge, output="", delay=found - edge))
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


def full_swing_check(result: TransientResult, outputs: list[str],
                     truth: list[tuple[float, float, dict[str, int]]],
                     th: LogicThresholds) -> SwingReport:
    """Settled-interval level check against expected logic values.

    `truth` lists (t_start, t_end, {output: expected bit}) intervals;
    over the final settle_window of each interval, the time average of
    each output must clear v_high_min (expected 1) or stay under
    v_low_max (expected 0).  The window is clipped to the simulated span;
    an empty one averages to NaN and fails.  Failures are report entries,
    never exceptions.
    """
    t = result.times
    entries: list[SwingCheckEntry] = []
    for t_start, t_end, expected in truth:
        w_start = max(t_start, t_end - th.settle_window) if th.settle_window > 0 else t_start
        w0, w1 = max(w_start, float(t[0])), min(t_end, float(t[-1]))
        for out in outputs:
            if out not in expected:
                continue
            mean = _time_average(t, result.voltage(out), w0, w1) if w1 > w0 else float("nan")
            want = expected[out]
            ok = (mean >= th.v_high_min) if want == 1 else (mean <= th.v_low_max)
            entries.append(SwingCheckEntry(t_start, t_end, out, want, mean, bool(ok)))
    return SwingReport(entries)
