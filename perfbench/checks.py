"""Correctness checks computed apart from cnfetsim.

Every check here re-derives a result from first principles and compares it
with what the program reported.  None of them calls the program's device
model, measurement code or logic oracle: the square law, the chirality
law, the crossing search and the truth functions are written out again
below.  What the checks do take from the program is its input: the
circuits it simulated (read through the public `Circuit` data) and the
waveforms it returned.

Each check returns a list of failure strings; an empty list is a pass.
"""

from __future__ import annotations

import math
import os

import numpy as np

# The documented device laws (README "Model caveats", devices.py docstrings).
VTH_NUMERATOR_V_NM = 0.42
# The solver's default gmin: one conductance from every node to ground.
GMIN_S = 1e-12

# Tolerances, each with the agreement actually seen on the packaged config.
POWER_RTOL = 1e-4          # seen: up to 7.3e-6 over the 12 cells
DELAY_RTOL = 1e-9          # same samples, same interpolation: seen ~1e-14
EDGE_ATOL_S = 1e-15        # analytic mid-ramp time vs sampled input crossing
PDP_RTOL = 1e-12
LOGIC_MARGIN = 0.05        # buffered output past mid-swing, share of vdd; seen: >= 0.126
THRESHOLD_ATOL_VDD = 2e-5  # seen: up to 4.3e-6 * vdd
SWEEP_RAIL_VDD = 1e-3      # sweep ends within this share of vdd of each rail
SWEEP_MONO_ATOL_V = 1e-6   # the solver's vtol; rises seen near the rails: up to 3.4e-8 V
KCL_ATOL_A = 1e-11
KCL_RTOL = 1e-3
# Fine-step reference: loose enough for an error-controlled timestep,
# tight enough that a broken integrator or device model shows; seen at
# 0.2 ps: up to 1.2e-4 (power) and 8.6e-4 (delay).
REF_POWER_RTOL = 5e-3
REF_DELAY_RTOL = 1e-2

# Switching-threshold band of each gate function, in units of vdd.
GATE_BANDS = {
    "majority_not": (1 / 3, 2 / 3),
    "inverter": (1 / 3, 2 / 3),
    "nand3": (2 / 3, 1.0),
    "nor3": (0.0, 1 / 3),
}


# --- device model, written out again ------------------------------------------


def chirality_threshold(n: int, m: int, lattice_nm: float) -> float:
    """Vth = 0.42 / d with d = a * sqrt(n^2 + n*m + m^2) / pi."""
    d = lattice_nm * math.sqrt(n * n + n * m + m * m) / math.pi
    return VTH_NUMERATOR_V_NM / d


def _forward_n(k, vth, lam, vgs, vds):
    """N-type three-region square law for vds >= 0, on arrays."""
    vov = vgs - vth
    triode = k * (vov * vds - 0.5 * vds * vds)
    sat = 0.5 * k * vov * vov
    i = np.where(vds < vov, triode, sat) * (1.0 + lam * vds)
    return np.where(vov > 0.0, i, 0.0)


def drain_current(polarity: str, k: float, vth: float, lam: float, vgs, vds):
    """Drain-to-source current; drain and source swap when vds < 0, and a P
    device is the N law mirrored in both terminal voltages."""
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    if polarity == "p":
        return -drain_current("n", k, vth, lam, -vgs, -vds)
    rev = vds < 0.0
    i = _forward_n(k, vth, lam, np.where(rev, vgs - vds, vgs), np.abs(vds))
    return np.where(rev, -i, i)


def transistors(circuit) -> list[dict]:
    """Terminals and square-law parameters of each transistor in a circuit."""
    out = []
    for el in circuit.elements:
        if el.kind.value not in ("cnfet", "mosfet"):
            continue
        p = circuit.models[el.model].params
        if hasattr(p, "chirality"):
            vth = chirality_threshold(p.chirality.n, p.chirality.m, p.lattice_constant)
            k, lam = p.tube_count * p.transconductance_per_tube, 0.0
        else:
            vth, k, lam = p.threshold, p.transconductance, p.channel_length_modulation
        d, g, s = el.terminals
        out.append({"name": el.name, "d": d, "g": g, "s": s, "params": p,
                    "polarity": p.polarity.value, "k": k, "vth": vth, "lam": lam})
    return out


def _node_v(result, node: str, n: int):
    return np.zeros(n) if node == "0" else result.voltage(node)


# --- transient cells ----------------------------------------------------------


def _crossings(t, wf, level):
    """(time, +1 rising / -1 falling) of each crossing of level, by linear
    interpolation between the samples on either side."""
    side = wf > level
    ks = np.flatnonzero(side[1:] != side[:-1])
    v0, v1 = wf[ks], wf[ks + 1]
    tc = t[ks] + (level - v0) / (v1 - v0) * (t[ks + 1] - t[ks])
    return list(zip(tc.tolist(), np.where(v1 > v0, 1, -1).tolist()))


def phase_ends(config, periods: int) -> list[float]:
    """The moment each phase's input ramp begins: the last instant the
    phase's input vector holds."""
    phase = config.transition_time_s + config.hold_time_s
    return [(k + 1) * phase - config.transition_time_s for k in range(16 * periods)]


def check_logic(result, vdd: float, config) -> list[str]:
    """At the end of every phase, sum_b2/cout_b2 are the parity/majority of
    the a/b/c levels, each output at least LOGIC_MARGIN * vdd past mid-swing."""
    periods = config.warmup_periods + config.measure_periods
    t = result.times
    fails = []
    for te in phase_ends(config, periods):
        bits = []
        for node in ("a", "b", "c"):
            v = float(np.interp(te, t, result.voltage(node)))
            if 0.1 * vdd < v < 0.9 * vdd:
                fails.append(f"input {node} at {v:.4g} V, not at a rail, at {te:.4g}s")
            bits.append(int(v > vdd / 2))
        want = {"sum_b2": sum(bits) % 2, "cout_b2": int(sum(bits) >= 2)}
        for node, bit in want.items():
            v = float(np.interp(te, t, result.voltage(node)))
            past = (v - vdd / 2) if bit else (vdd / 2 - v)
            if not past >= LOGIC_MARGIN * vdd:
                fails.append(f"{node} at {v:.4g} V where {bit} is due, at {te:.4g}s")
    return fails


def measurement_window(config) -> tuple[float, float]:
    period = 16 * (config.transition_time_s + config.hold_time_s)
    start = config.warmup_periods * period
    return start, start + config.measure_periods * period


def average_power(result, testbench, vdd: float, window) -> float:
    """Mean power delivered into node vdd, from the node voltages alone.

    The current leaving node vdd is the sum of the square-law currents of
    the transistors with a terminal there, plus gmin to ground.
    """
    t = result.times
    n = len(t)
    for el in testbench.elements:
        if el.kind.value in ("capacitor", "resistor") and "vdd" in el.terminals:
            raise ValueError(f"{el.name}: only transistors may touch node vdd here")
    i_out = np.full(n, GMIN_S * vdd)
    for tr in transistors(testbench):
        if "vdd" not in (tr["d"], tr["s"]):
            continue
        vs = _node_v(result, tr["s"], n)
        i_ds = drain_current(tr["polarity"], tr["k"], tr["vth"], tr["lam"],
                             _node_v(result, tr["g"], n) - vs, _node_v(result, tr["d"], n) - vs)
        if tr["d"] == "vdd":
            i_out = i_out + i_ds
        if tr["s"] == "vdd":
            i_out = i_out - i_ds
    p = vdd * i_out
    t0, t1 = window
    inside = (t > t0) & (t < t1)
    ts = np.concatenate(([t0], t[inside], [t1]))
    ps = np.concatenate(([np.interp(t0, t, p)], p[inside], [np.interp(t1, t, p)]))
    return float(np.sum(0.5 * (ps[1:] + ps[:-1]) * np.diff(ts)) / (t1 - t0))


def transitions(result, vdd: float, window) -> list[tuple[float, str, float]]:
    """(input edge, output, delay) for every output toggle in the window.

    Input edges are the mid-swing crossings of the a/b/c node voltages; the
    bits on either side of an edge give the expected sum and carry.  The
    delay ends at the output's last mid-swing crossing before the next
    input edge, which is where it settles on its new level.
    """
    t = result.times
    level = vdd / 2
    edges = sorted(tc for node in ("a", "b", "c") for tc, _ in _crossings(t, result.voltage(node), level))
    out = []
    for n, te in enumerate(edges):
        if not (window[0] <= te <= window[1]):
            continue
        t_prev = edges[n - 1] if n else 0.0
        t_next = edges[n + 1] if n + 1 < len(edges) else float(t[-1])
        bits = {}
        for side, probe in (("before", (t_prev + te) / 2), ("after", (te + t_next) / 2)):
            b = [int(np.interp(probe, t, result.voltage(node)) > level) for node in ("a", "b", "c")]
            bits[side] = {"sum": sum(b) % 2, "cout": int(sum(b) >= 2)}
        for name in ("sum", "cout"):
            if bits["before"][name] == bits["after"][name]:
                continue
            want = 1 if bits["after"][name] else -1
            cross = [(tc, d) for tc, d in _crossings(t, result.voltage(f"{name}_b2"), level)
                     if te < tc < t_next]
            if not cross or cross[-1][1] != want:
                out.append((te, name, math.nan))
                continue
            out.append((te, name, cross[-1][0] - te))
    return out


def check_cell(row: dict, result, testbench, vdd: float, config) -> list[str]:
    """Logic, power, delay and PDP of one reported row against recomputation."""
    tag = f"{row['design']} @ {vdd:g} V"
    fails = [f"{tag}: {f}" for f in check_logic(result, vdd, config)]
    window = measurement_window(config)
    p = average_power(result, testbench, vdd, window)
    if not abs(row["power_w"] - p) <= POWER_RTOL * abs(p):
        fails.append(f"{tag}: power {row['power_w']:.6e} W, recomputed {p:.6e} W")
    mine = transitions(result, vdd, window)
    if any(math.isnan(d) for _, _, d in mine):
        fails.append(f"{tag}: an expected output toggle has no settling crossing")
    theirs = sorted((tr["edge_time"], tr["output"], tr["delay_s"]) for tr in row["transitions"])
    if len(theirs) != len(mine):
        fails.append(f"{tag}: {len(theirs)} transitions reported, {len(mine)} recomputed")
    else:
        for (te0, o0, d0), (te1, o1, d1) in zip(theirs, sorted(mine)):
            if o0 != o1 or abs(te0 - te1) > EDGE_ATOL_S or not abs(d0 - d1) <= DELAY_RTOL * abs(d1):
                fails.append(f"{tag}: transition {o0}@{te0:.6g}s delay {d0:.6e} s, "
                             f"recomputed {o1}@{te1:.6g}s {d1:.6e} s")
                break
    worst = max((d for _, _, d in mine), default=math.nan)
    if not abs(row["delay_s"] - worst) <= DELAY_RTOL * worst:
        fails.append(f"{tag}: worst delay {row['delay_s']:.6e} s, recomputed {worst:.6e} s")
    if not abs(row["pdp_j"] - row["power_w"] * row["delay_s"]) <= PDP_RTOL * abs(row["pdp_j"]):
        fails.append(f"{tag}: pdp {row['pdp_j']:.6e} J is not power * delay")
    return fails


def check_supply_order(rows: list[dict]) -> list[str]:
    """Each design draws less power and switches slower at the lower supply."""
    by = {(r["design"], r["vdd"]): r for r in rows}
    fails = []
    for design in sorted({d for d, _ in by}):
        vdds = sorted(v for d, v in by if d == design)
        for lo, hi in zip(vdds, vdds[1:]):
            a, b = by[(design, lo)], by[(design, hi)]
            if not a["power_w"] < b["power_w"]:
                fails.append(f"{design}: power at {lo:g} V not below {hi:g} V")
            if not a["delay_s"] > b["delay_s"]:
                fails.append(f"{design}: delay at {lo:g} V not above {hi:g} V")
    return fails


def reference_drift(row: dict, ref: dict) -> tuple[float, float]:
    """Relative distance of a row's power and delay from the fine-step reference."""
    return (abs(row["power_w"] - ref["power_w"]) / ref["power_w"],
            abs(row["delay_s"] - ref["delay_s"]) / ref["delay_s"])


def check_reference(row: dict, ref: dict) -> list[str]:
    dp, dd = reference_drift(row, ref)
    fails = []
    if not dp <= REF_POWER_RTOL:
        fails.append(f"{row['design']} @ {row['vdd']:g} V: power {dp:.2%} from the fine-step reference")
    if not dd <= REF_DELAY_RTOL:
        fails.append(f"{row['design']} @ {row['vdd']:g} V: delay {dd:.2%} from the fine-step reference")
    return fails


# --- gate DC -------------------------------------------------------------------


def inverter_pair(gate) -> tuple[dict, dict]:
    """The N and P transistor of a threshold gate's inverter."""
    trs = transistors(gate)
    n = [t for t in trs if t["polarity"] == "n"]
    p = [t for t in trs if t["polarity"] == "p"]
    if len(n) != 1 or len(p) != 1:
        raise ValueError(f"expected one N and one P transistor, got {len(n)} and {len(p)}")
    return n[0], p[0]


def predicted_threshold(vdd: float, n: dict, p: dict) -> float:
    """Both devices saturated with equal k and no channel-length modulation:
    k/2 (vm - vtn)^2 = k/2 (vdd - vm - vtp)^2."""
    return 0.5 * (vdd + n["vth"] - p["vth"])


def check_threshold(function: str, vdd: float, n: dict, p: dict, measured: float) -> list[str]:
    vm = predicted_threshold(vdd, n, p)
    lo, hi = GATE_BANDS[function]
    fails = []
    if not abs(measured - vm) <= THRESHOLD_ATOL_VDD * vdd:
        fails.append(f"{function} @ {vdd:.4f} V: switching threshold {measured:.6f} V, "
                     f"predicted {vm:.6f} V")
    if not lo * vdd < measured < hi * vdd:
        fails.append(f"{function} @ {vdd:.4f} V: threshold {measured:.6f} V outside its band")
    return fails


def check_sweep(function: str, vdd: float, n: dict, p: dict, vin, vout) -> list[str]:
    """Monotone, rail to rail, and KCL at `out` under the square law."""
    vin, vout = np.asarray(vin), np.asarray(vout)
    tag = f"{function} @ {vdd:.4f} V sweep"
    fails = []
    if np.any(np.diff(vout) > SWEEP_MONO_ATOL_V):
        fails.append(f"{tag}: output rises with the input")
    if not (vout[0] >= (1 - SWEEP_RAIL_VDD) * vdd and vout[-1] <= SWEEP_RAIL_VDD * vdd):
        fails.append(f"{tag}: ends at {vout[0]:.4g} V and {vout[-1]:.4g} V, not at the rails")
    i_n = drain_current("n", n["k"], n["vth"], n["lam"], vin, vout)
    i_p = drain_current("p", p["k"], p["vth"], p["lam"], vin - vdd, vout - vdd)
    resid = np.abs(i_n + i_p + GMIN_S * vout)
    tol = KCL_ATOL_A + KCL_RTOL * np.maximum(np.abs(i_n), np.abs(i_p))
    if np.any(resid > tol):
        k = int(np.argmax(resid - tol))
        fails.append(f"{tag}: KCL at out off by {resid[k]:.3e} A at vin={vin[k]:.4f} V")
    return fails


def check_reports(rows: list[dict], reports: dict[str, str], charts: list[str]) -> list[str]:
    """The md and csv reports carry the json rows; one chart pair per metric and supply."""
    fails = []
    measured = [ln.split(",") for ln in reports["csv"].splitlines() if ln.endswith(",measured")]
    if len(measured) != len(rows):
        fails.append(f"csv report has {len(measured)} measured rows for {len(rows)} cells")
    for fields, row in zip(measured, rows):
        if fields[0] != row["design"] or not all(
                abs(float(fields[i]) - row[k]) <= 1e-6 * abs(row[k])
                for i, k in ((2, "power_w"), (3, "delay_s"), (4, "pdp_j"))):
            fails.append(f"csv row {','.join(fields)!r} disagrees with the json report")
    for row in rows:
        if f"| {row['design']} | {row['power_w']:.6e} | {row['delay_s']:.6e} |" not in reports["md"]:
            fails.append(f"md report has no row for {row['design']} with its json figures")
    expected = 6 * len({row["vdd"] for row in rows})  # (power, delay, pdp) x (svg, csv)
    if len(charts) != expected or not all(os.path.getsize(p) for p in charts):
        fails.append(f"charts: {len(charts)} files written, expected {expected} non-empty")
    return fails
