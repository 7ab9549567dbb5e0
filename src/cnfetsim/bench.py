"""Benchmark matrix: build, simulate, verify, measure, report.

For each (adder, supply) cell the harness builds the design and its
testbench, initializes the capacitive nodes by charge sharing, runs a
warm-up period plus a measurement period of the Gray-code stimulus,
verifies every settled phase against the threshold-logic oracle, then
extracts average power over the measurement period and the worst
mid-swing delay at the buffered outputs.

Absolute numbers depend on this package's simplified device model and
on the benchmark config, which is echoed into every report header; the
published table values ride along as clearly labeled reference metadata
and are never compared numerically.  The whole pipeline is deterministic,
so a report is byte-identical across repeated runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from . import adders, logic, measure, solver
from .adders import AdderKind, DISPLAY_NAMES, InputSchedule
from .measure import LogicThresholds, Measurement, Transition

REFERENCE_LABEL = "paper (HSPICE, ref model)"

# Published table rows, kept verbatim as printed (power W, delay s, PDP J).
# The Proposed row at 0.65 V prints a PDP that does not equal its own
# power * delay; it is reproduced here untouched, reference-only.
PAPER_REFERENCE: dict[float, dict[str, tuple[str, str, str]]] = {
    0.9: {
        "C-CMOS": ("6.26E-07", "5.27E-11", "3.30E-17"),
        "CPL": ("4.87E-07", "1.57E-10", "7.63E-17"),
        "TFA": ("6.32E-07", "2.89E-10", "1.83E-16"),
        "TGA": ("6.68E-07", "3.46E-10", "2.31E-16"),
        "Hybrid": ("4.96E-07", "2.93E-10", "1.45E-16"),
        "CNT-FA1": ("1.05E-06", "7.83E-11", "8.20E-17"),
        "CNT-FA2": ("3.32E-07", "1.14E-10", "3.80E-17"),
        "CNT-FA3": ("7.83E-07", "5.36E-11", "4.20E-17"),
        "Proposed Adder": ("8.40E-07", "1.25E-11", "6.17E-18"),
    },
    0.65: {
        "C-CMOS": ("2.94E-07", "1.46E-10", "4.28E-17"),
        "CPL": ("2.08E-07", "4.65E-10", "9.67E-17"),
        "TFA": ("1.52E-07", "8.45E-10", "1.29E-16"),
        "TGA": ("1.21E-07", "4.76E-10", "5.77E-17"),
        "Hybrid": ("1.71E-07", "1.10E-09", "1.88E-16"),
        "CNT-FA1": ("5.23E-07", "7.97E-11", "4.17E-17"),
        "CNT-FA2": ("4.71E-07", "8.82E-11", "4.15E-17"),
        "CNT-FA3": ("7.12E-07", "7.51E-11", "5.35E-17"),
        "Proposed Adder": ("4.80E-07", "1.29E-11", "1.05E-17"),
    },
}


def _finite(value: float) -> bool:
    """math.isfinite; an int too large for a float is not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_number(name: str, value: object) -> None:
    """ValueError unless value is an int or a float; a bool, which JSON's
    true and false give, is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")


class LogicVerificationError(Exception):
    """A benchmark cell's transient disagreed with the logic oracle."""

    def __init__(self, design: str, vdd: float, report: measure.SwingReport):
        self.design = design
        self.vdd = vdd
        self.report = report
        failures = [
            {
                "interval": [e.t_start, e.t_end],
                "output": e.output,
                "expected": e.expected,
                "mean_v": e.mean_level,
            }
            for e in report.failures
        ]
        super().__init__(
            f"{design} at {vdd} V fails logic verification on "
            f"{len(failures)} settled interval(s): {json.dumps(failures)}"
        )


@dataclass(frozen=True)
class BenchConfig:
    """Every benchmark parameter, echoed into each report; these are the
    defaults.  The device and capacitance defaults are the `adders` ones.
    A value out of its range or not finite, a count that is not an
    integer, a float field or level that is not a number (a bool is not),
    a level pair that is not two levels, a full_swing_designs that is not
    a list of AdderKind values, or a stimulus too long to be finite raises
    ValueError."""

    transition_time_s: float = 1e-11
    hold_time_s: float = 2e-10
    timestep_s: float = 2e-13
    settle_window_s: float = 5e-11
    unit_capacitance_f: float = adders.DEFAULT_INPUT_CAP
    load_capacitance_f: float = adders.DEFAULT_LOAD_CAP
    warmup_periods: int = 1
    measure_periods: int = 1
    min_sustain_fraction: float = 0.05
    full_swing_designs: tuple[str, ...] = ("proposed", "c-cmos")
    full_swing_levels: tuple[float, float] = (0.9, 0.1)
    logic_levels: tuple[float, float] = (0.7, 0.3)
    cnfet_tubes: int = adders.DeviceParams.cnfet_tubes
    cnfet_k_per_tube_a_per_v2: float = adders.DeviceParams.cnfet_k_per_tube_a_per_v2
    mosfet_k_a_per_v2: float = adders.DeviceParams.mosfet_k_a_per_v2
    mosfet_vth_v: float = adders.DeviceParams.mosfet_vth_v
    mosfet_lambda_per_v: float = adders.DeviceParams.mosfet_lambda_per_v

    def __post_init__(self) -> None:
        for name in ("warmup_periods", "measure_periods", "cnfet_tubes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # Annotations are strings here (from __future__ import annotations).
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float":
                _require_number(f.name, value)
            elif f.type == "tuple[float, float]":
                if not (isinstance(value, (tuple, list)) and len(value) == 2):
                    shown = list(value) if isinstance(value, (tuple, list)) else value
                    raise ValueError(f"{f.name} must be a [high, low] pair, got {shown!r}")
                for k, level in enumerate(value):
                    _require_number(f"{f.name}[{k}]", level)
        designs = self.full_swing_designs
        known = [kind.value for kind in AdderKind]
        if not isinstance(designs, (tuple, list)) or not all(d in known for d in designs):
            raise ValueError(f"full_swing_designs must be a list of design names from "
                             f"{', '.join(known)}; got {designs!r}")
        for name in ("transition_time_s", "hold_time_s", "timestep_s", "unit_capacitance_f",
                     "load_capacitance_f", "measure_periods", "cnfet_tubes",
                     "cnfet_k_per_tube_a_per_v2", "mosfet_k_a_per_v2", "mosfet_vth_v"):
            value = getattr(self, name)
            if not (value > 0 and _finite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("settle_window_s", "warmup_periods", "min_sustain_fraction",
                     "mosfet_lambda_per_v"):
            value = getattr(self, name)
            if not (value >= 0 and _finite(value)):
                raise ValueError(f"{name} must be finite and not negative, got {value}")
        for name in ("full_swing_levels", "logic_levels"):
            hi, lo = getattr(self, name)
            if not 0 <= lo < hi <= 1:
                raise ValueError(f"{name} must be [high, low] fractions of vdd with "
                                 f"0 <= low < high <= 1, got {list(getattr(self, name))}")
        try:
            total = self.schedule().total_time
        except OverflowError:  # a sum of periods too large for a float
            total = math.inf
        if not math.isfinite(total):
            raise ValueError("the stimulus, (warmup_periods + measure_periods) * 16 * "
                             "(transition_time_s + hold_time_s), must last a finite time")

    def schedule(self) -> InputSchedule:
        """The stimulus: warmup_periods then measure_periods of it."""
        return InputSchedule(self.transition_time_s, self.hold_time_s,
                             self.warmup_periods + self.measure_periods)

    def devices(self) -> adders.DeviceParams:
        """The device record built from this config's five device keys."""
        names = (f.name for f in fields(adders.DeviceParams))
        return adders.DeviceParams(**{n: getattr(self, n) for n in names})

    def as_dict(self) -> dict:
        d = asdict(self)
        d["full_swing_designs"] = list(self.full_swing_designs)
        d["full_swing_levels"] = list(self.full_swing_levels)
        d["logic_levels"] = list(self.logic_levels)
        return d


def load_config(path: str | None = None) -> BenchConfig:
    """BenchConfig() with the keys of the JSON file `path` overriding its
    defaults; with no path, the defaults.  An unknown key raises TypeError,
    and a file whose top level is not a JSON object raises ValueError.
    A JSON list becomes a tuple; any other value is passed as it is, for
    BenchConfig to check.
    """
    if path is None:
        return BenchConfig()
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"the config must be a JSON object, got {type(data).__name__}")
    for key in ("full_swing_designs", "full_swing_levels", "logic_levels"):
        if isinstance(data.get(key), list):
            data[key] = tuple(data[key])
    return BenchConfig(**data)


@dataclass
class CellResult:
    kind: AdderKind
    vdd: float
    measurement: Measurement
    swing_report: measure.SwingReport
    result: solver.TransientResult = field(repr=False)


def phase_truth(sched: InputSchedule) -> list[tuple[float, float, dict[str, int]]]:
    """Settled-interval expectations, one per vector of the schedule:
    phase k holds from k * phase_length up to the start of its ramp,
    (k + 1) * phase_length - transition_time."""
    out = []
    for k, vector in enumerate(sched.vectors):
        s, co = logic.fa_truth(*vector)
        out.append((k * sched.phase_length,
                    (k + 1) * sched.phase_length - sched.transition_time,
                    {"sum": s, "cout": co}))
    return out


def thresholds_for(kind: AdderKind, vdd: float, config: BenchConfig) -> LogicThresholds:
    hi, lo = (
        config.full_swing_levels
        if kind.value in config.full_swing_designs
        else config.logic_levels
    )
    return LogicThresholds(
        vdd=vdd, v_high_min=hi * vdd, v_low_max=lo * vdd,
        settle_window=config.settle_window_s,
    )


def run_cell(kind: AdderKind, vdd: float, config: BenchConfig | None = None) -> CellResult:
    """Simulate one (adder, supply) cell and measure it.

    Raises LogicVerificationError when any settled phase disagrees with
    the oracle (the row is aborted rather than reported).
    """
    config = config or BenchConfig()
    sched = config.schedule()
    # One record for both builds: the testbench keeps the DUT's model
    # cards where the names match.
    devices = config.devices()
    dut = adders.build_adder(kind, vdd, input_cap=config.unit_capacitance_f, devices=devices)
    tb = adders.build_testbench(
        dut, vdd, config.transition_time_s, config.hold_time_s,
        periods=sched.periods, load_cap=config.load_capacitance_f, devices=devices,
    )
    cfg = solver.SolverConfig(timestep=config.timestep_s, timestep_control=True)
    init = solver.initialize_floating_nodes(tb)
    result = solver.transient(tb, cfg, sched.total_time, initial_conditions=init)

    swing = measure.full_swing_check(
        result, ["sum", "cout"], phase_truth(sched),
        thresholds_for(kind, vdd, config),
    )
    if not swing.ok:
        raise LogicVerificationError(DISPLAY_NAMES[kind], vdd, swing)

    t_measure_start = config.warmup_periods * sched.period
    window = (t_measure_start, t_measure_start + config.measure_periods * sched.period)
    avg_power = measure.average_power(result, "vvdd", vdd, window)

    transitions = _measure_delays(result, sched, vdd, config, window)
    m = Measurement(
        circuit=DISPLAY_NAMES[kind], vdd=vdd, avg_power=avg_power,
        transitions=transitions,
    )
    return CellResult(kind=kind, vdd=vdd, measurement=m, swing_report=swing, result=result)


def _measure_delays(result: solver.TransientResult, sched: InputSchedule, vdd: float,
                    config: BenchConfig, window: tuple[float, float]) -> list[Transition]:
    """Mid-swing delays at the buffered outputs for oracle-expected toggles.

    One pass per output over the input edges inside the measurement
    window at which fa_truth says that output changes.  Each search ends
    at the next input edge, so a toggle missed there raises
    MissingTransitionError naming the output and the edge.
    """
    min_sustain = config.min_sustain_fraction * sched.phase_length
    edges = sched.edges()
    edge_times = [t_mid for t_mid, _, _ in edges]
    transitions: list[Transition] = []
    for k, out in enumerate(("sum", "cout")):
        toggles = [t_mid for t_mid, before, after in edges
                   if window[0] <= t_mid <= window[1]
                   and logic.fa_truth(*before)[k] != logic.fa_truth(*after)[k]]
        transitions += measure.propagation_delay(
            result.times, result.voltage(f"{out}_b2"), vdd, min_sustain, out, edge_times, toggles,
        )
    transitions.sort(key=lambda tr: (tr.edge_time, tr.output))
    return transitions


def run_matrix(kinds: list[AdderKind], vdds: list[float],
               config: BenchConfig | None = None) -> tuple[list[CellResult], list[str]]:
    """All requested cells in deterministic order; verification failures
    abort their row and are reported alongside the successful ones."""
    config = config or BenchConfig()
    results: list[CellResult] = []
    errors: list[str] = []
    for vdd in vdds:
        for kind in adders.BENCH_ORDER:
            if kind not in kinds:
                continue
            try:
                results.append(run_cell(kind, vdd, config))
            except LogicVerificationError as exc:
                errors.append(str(exc))
    return results, errors


# --- report formats ------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.6e}"


def report_markdown(results: list[CellResult], config: BenchConfig) -> str:
    lines = ["# CNFET MVL full-adder benchmark", ""]
    lines.append("## Configuration")
    lines.append("")
    lines.append("```json")
    lines.append(json.dumps(config.as_dict(), indent=2, sort_keys=True))
    lines.append("```")
    vdds = sorted({r.vdd for r in results}, reverse=True)
    for vdd in vdds:
        rows = [r for r in results if r.vdd == vdd]
        lines.append("")
        lines.append(f"## Results at {vdd:g} V")
        lines.append("")
        lines.append("| Design | Power (W) | Delay (s) | PDP (J) |")
        lines.append("|---|---|---|---|")
        for r in rows:
            m = r.measurement
            lines.append(f"| {m.circuit} | {_fmt(m.avg_power)} | {_fmt(m.worst_delay)} | {_fmt(m.pdp)} |")
        ref = PAPER_REFERENCE.get(vdd)
        if ref:
            lines.append("")
            lines.append(f"Reference values, {REFERENCE_LABEL}; not comparable to the")
            lines.append("simplified device model above, reproduced for context:")
            lines.append("")
            lines.append("| Design | Power (W) | Delay (s) | PDP (J) |")
            lines.append("|---|---|---|---|")
            for name, (p, d, e) in ref.items():
                lines.append(f"| {name} | {p} | {d} | {e} |")
    return "\n".join(lines) + "\n"


def report_csv(results: list[CellResult], config: BenchConfig) -> str:
    lines = ["# cnfetsim benchmark"]
    for key, value in sorted(config.as_dict().items()):
        lines.append(f"# config {key} = {value}")
    lines.append("design,vdd,power_w,delay_s,pdp_j,source")
    for r in results:
        m = r.measurement
        lines.append(
            f"{m.circuit},{m.vdd:g},{_fmt(m.avg_power)},{_fmt(m.worst_delay)},{_fmt(m.pdp)},measured"
        )
    for vdd in sorted({r.vdd for r in results}, reverse=True):
        for name, (p, d, e) in PAPER_REFERENCE.get(vdd, {}).items():
            lines.append(f"{name},{vdd:g},{p},{d},{e},{REFERENCE_LABEL}")
    return "\n".join(lines) + "\n"


def report_json(results: list[CellResult], config: BenchConfig) -> str:
    payload = {
        "config": config.as_dict(),
        "rows": [
            {
                "design": r.measurement.circuit,
                "vdd": r.vdd,
                "power_w": r.measurement.avg_power,
                "delay_s": r.measurement.worst_delay,
                "pdp_j": r.measurement.pdp,
                "transitions": [t.as_dict() for t in r.measurement.transitions],
            }
            for r in results
        ],
        "reference_label": REFERENCE_LABEL,
        "reference": {
            f"{vdd:g}": {
                name: {"power_w": p, "delay_s": d, "pdp_j": e}
                for name, (p, d, e) in table.items()
            }
            for vdd, table in PAPER_REFERENCE.items()
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


FORMATTERS = {"md": report_markdown, "csv": report_csv, "json": report_json}
