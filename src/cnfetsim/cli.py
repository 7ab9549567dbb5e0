"""cnfetsim command line: simulate netlists, benchmark adders, query devices.

Exit codes partition the failure classes:

    0  success
    2  usage error (bad flags or config, unreadable file, unwritable
       output path, a tstop, dt or vdd that is not positive and finite,
       a supply the built-in gates cannot be made for)
    3  netlist parse/validation error
    4  solver convergence failure
    5  measurement error
    6  logic verification failure
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import adders, bench, charts, devices, measure, netlist, solver

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CONVERGENCE = 4
EXIT_MEASUREMENT = 5
EXIT_VERIFICATION = 6


def _fail(code: int, message: str) -> int:
    print(f"cnfetsim: error: {message}", file=sys.stderr)
    return code


def _emit(out: str, text: str) -> None:
    """Write `text` to the file `out`, or to stdout when `out` is '-'."""
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _positive_finite(x: float) -> bool:
    """False for NaN and infinity, which a bare `x > 0` test lets through."""
    return math.isfinite(x) and x > 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if not _positive_finite(args.tstop):
        return _fail(EXIT_USAGE, f"tstop must be positive and finite, got {args.tstop:g}")
    if args.dt is not None and not _positive_finite(args.dt):
        return _fail(EXIT_USAGE, f"dt must be positive and finite, got {args.dt:g}")
    if args.vdd is not None and not _positive_finite(args.vdd):
        return _fail(EXIT_USAGE, f"vdd must be positive and finite, got {args.vdd:g}")
    try:
        with open(args.netlist, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot read {args.netlist}: {exc}")
    try:
        circuit = netlist.flatten(netlist.parse(text))
    except netlist.NetlistError as exc:
        return _fail(EXIT_PARSE, str(exc))
    for warning in circuit.warnings:
        print(f"cnfetsim: warning: {warning}", file=sys.stderr)
    if args.vdd is not None:
        for name in ("vvdd", "vdd"):
            try:
                circuit = circuit.with_dc_source(name, args.vdd)
                break
            except KeyError:
                continue
        else:
            print("cnfetsim: warning: --vdd given but no source named vdd/vvdd",
                  file=sys.stderr)
    dt = args.dt if args.dt is not None else args.tstop / 1000.0
    cfg = solver.SolverConfig(timestep=dt)
    try:
        ics = solver.initialize_floating_nodes(circuit) if args.ic else None
        result = solver.transient(circuit, cfg, args.tstop, initial_conditions=ics)
    except solver.IllConditionedDividerError as exc:
        return _fail(EXIT_CONVERGENCE, f"floating-node initialization: {exc}")
    except solver.ConvergenceError as exc:
        return _fail(EXIT_CONVERGENCE, str(exc))
    try:
        _emit(args.out, result.to_csv())
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write output: {exc}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    all_formats = args.format == "all"
    if all_formats and args.out == "-":
        return _fail(EXIT_USAGE, "--format all writes several files; give --out DIR")
    try:
        config = bench.load_config(args.config)
    except (OSError, ValueError, TypeError) as exc:
        return _fail(EXIT_USAGE, f"cannot load benchmark config: {exc}")
    kind_by_name = {k.value: k for k in adders.AdderKind}
    kinds = []
    for name in args.adders.split(","):
        name = name.strip().lower()
        if name not in kind_by_name:
            return _fail(EXIT_USAGE, f"unknown adder {name!r}; choices: {', '.join(kind_by_name)}")
        kinds.append(kind_by_name[name])
    try:
        vdds = [float(v) for v in args.vdd.split(",")]
    except ValueError as exc:
        return _fail(EXIT_USAGE, f"bad --vdd list: {exc}")
    if not all(_positive_finite(v) for v in vdds):
        return _fail(EXIT_USAGE, f"--vdd levels must be positive and finite, got {args.vdd}")
    try:
        for vdd in vdds:
            for kind in kinds:
                adders.build_adder(kind, vdd)  # raises below the design's supply floor
        results, errors = bench.run_matrix(kinds, vdds, config)
    except adders.GateSynthesisError as exc:
        return _fail(EXIT_USAGE, f"unusable --vdd: {exc}")
    except solver.ConvergenceError as exc:
        return _fail(EXIT_CONVERGENCE, str(exc))
    except measure.MissingTransitionError as exc:
        return _fail(EXIT_MEASUREMENT, str(exc))
    try:
        if all_formats:
            os.makedirs(args.out, exist_ok=True)
            for name, formatter in bench.FORMATTERS.items():
                _emit(os.path.join(args.out, f"report.{name}"), formatter(results, config))
            charts.write_charts(results, args.out)
        else:
            _emit(args.out, bench.FORMATTERS[args.format](results, config))
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write output: {exc}")
    for err in errors:
        print(f"cnfetsim: verification failure: {err}", file=sys.stderr)
    return EXIT_VERIFICATION if errors else EXIT_OK


def cmd_device(args: argparse.Namespace) -> int:
    if (args.chirality is None) == (args.target_vth is None):
        return _fail(EXIT_USAGE, "give exactly one of --chirality or --target-vth")
    if args.chirality is not None:
        try:
            n_str, m_str = args.chirality.split(",")
            c = devices.Chirality(int(n_str), int(m_str))
        except (ValueError, devices.DeviceError) as exc:
            return _fail(EXIT_USAGE, f"bad chirality {args.chirality!r}: {exc}")
        d = devices.diameter(c)
        semi = devices.is_semiconducting(c)
        print(f"chirality {c}")
        print(f"diameter {d:.4f} nm")
        print(f"threshold {devices.threshold_voltage(d):.4f} V")
        print(f"semiconducting {'yes' if semi else 'no'}")
        if not semi:
            print("cnfetsim: warning: metallic tube, not usable as a transistor channel",
                  file=sys.stderr)
        return EXIT_OK
    try:
        c = devices.chirality_for_threshold(args.target_vth, args.tolerance)
    except devices.DeviceError as exc:
        return _fail(EXIT_USAGE, str(exc))
    d = devices.diameter(c)
    print(f"chirality {c}")
    print(f"diameter {d:.4f} nm")
    print(f"threshold {devices.threshold_voltage(d):.4f} V")
    return EXIT_OK


def cmd_adders(args: argparse.Namespace) -> int:
    print(f"{'kind':10s} {'design':16s} {'transistors':>11s} {'capacitors':>10s}")
    for kind in adders.BENCH_ORDER:
        circuit = adders.build_adder(kind)
        s = netlist.stats(circuit)
        print(f"{kind.value:10s} {adders.DISPLAY_NAMES[kind]:16s} "
              f"{s.transistor_count:11d} {s.capacitor_count:10d}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnfetsim",
        description="CNFET multiple-valued-logic full-adder simulator and benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="transient-simulate a netlist to CSV")
    p_sim.add_argument("netlist", help="netlist file path")
    p_sim.add_argument("--tstop", type=float, required=True, help="simulation end time (s)")
    p_sim.add_argument("--dt", type=float, default=None, help="timestep (s); default tstop/1000")
    p_sim.add_argument("--vdd", type=float, default=None,
                       help="override the DC level of a source named vdd/vvdd")
    p_sim.add_argument("--ic", action="store_true",
                       help="initialize capacitive nodes by charge sharing instead of a plain DC solve")
    p_sim.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="run the adder benchmark matrix")
    p_bench.add_argument("--adders", default=",".join(k.value for k in adders.BENCH_ORDER),
                         help="comma list of adder kinds")
    p_bench.add_argument("--vdd", default="0.9,0.65", help="comma list of supply voltages")
    p_bench.add_argument("--format", choices=[*sorted(bench.FORMATTERS), "all"], default="md",
                         help="report format; 'all' writes report.md, report.csv, "
                              "report.json and the charts into the directory --out")
    p_bench.add_argument("--out", default="-",
                         help="report path, '-' for stdout; a directory for --format all")
    p_bench.add_argument("--config", default=None,
                         help="benchmark config JSON whose keys override the defaults")
    p_bench.set_defaults(func=cmd_bench)

    p_dev = sub.add_parser("device", help="chirality/threshold calculator")
    p_dev.add_argument("--chirality", default=None, metavar="N,M")
    p_dev.add_argument("--target-vth", type=float, default=None, metavar="VOLTS")
    p_dev.add_argument("--tolerance", type=float, default=0.01,
                       help="acceptable threshold miss for --target-vth (V)")
    p_dev.set_defaults(func=cmd_device)

    p_add = sub.add_parser("adders", help="enumerate built-in adders")
    p_add.add_argument("action", choices=["list"])
    p_add.set_defaults(func=cmd_adders)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
