"""The benchmark's own self-test runs against this checkout.

perfbench/ is frozen between deliberate benchmark changes, so a change to
a signature it calls (solver.SolverConfig(), dc_operating_point(...,
initial_guess=), build_threshold_inverter_gate(..., verify=), ...) must
fail here rather than at the next benchmark run.  The self-test writes
only under the ignored perfbench/out/ and takes a few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_exits_zero():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
