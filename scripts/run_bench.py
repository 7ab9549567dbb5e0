#!/usr/bin/env python3
"""Run the full adder benchmark matrix and drop reports + charts in ./bench_out.

Equivalent to:
    cnfetsim bench --format md --out bench_out/report.md --charts bench_out
plus the CSV and JSON renderings of the same run, with the same exit
code and one-line message as the CLI on a verification, convergence or
measurement failure.
"""

import os
import sys

from cnfetsim import adders, bench, charts, cli, measure, solver


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "bench_out"
    os.makedirs(out_dir, exist_ok=True)
    config = bench.load_config()
    try:
        results, errors = bench.run_matrix(list(adders.AdderKind), [0.9, 0.65], config)
    except solver.ConvergenceError as exc:
        return cli._fail(cli.EXIT_CONVERGENCE, str(exc))
    except measure.MissingTransitionError as exc:
        return cli._fail(cli.EXIT_MEASUREMENT, str(exc))
    for name, formatter in bench.FORMATTERS.items():
        path = os.path.join(out_dir, f"report.{name}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(formatter(results, config))
        print(f"wrote {path}")
    for path in charts.write_charts(results, out_dir):
        print(f"wrote {path}")
    for err in errors:
        print(f"verification failure: {err}", file=sys.stderr)
    return cli.EXIT_VERIFICATION if errors else cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
