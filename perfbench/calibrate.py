"""A fixed calibration kernel that tracks how fast the host runs right now.

The sandbox this benchmark was built on shares its cores with other
machines: the same code runs up to 2.5 times slower at some hours than at
others, and by 10-15% from one 20 s stretch to the next.  Between
operations, never inside one, the benchmark times short passes of this
kernel and scales every operation of a run by REFERENCE_S over the median
pass of the run, so the figures read as seconds on a host where one pass
takes REFERENCE_S.  Nothing is taken out of an operation's
wall time.  The kernel is the benchmark's own code and never changes with
the program, so a slower program still shows as a larger scaled time.
perfbench/README.md gives what this bought on the sandbox.

The kernel does what the simulator's inner loop does: scalar square-law
device evaluations in Python stamped into a small dense matrix, then a
LAPACK solve of that matrix.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.005
SIZE = 48
DEVICES = 40
ITERATIONS = 150


def _problem():
    rng = np.random.default_rng(0)
    base = np.eye(SIZE) * 1e-3 + rng.random((SIZE, SIZE)) * 1e-6
    devices = [(int(rng.integers(SIZE)), int(rng.integers(SIZE)), int(rng.integers(SIZE)))
               for _ in range(DEVICES)]
    return base, devices, rng.random(SIZE)


def kernel() -> float:
    """Seconds for one pass of ITERATIONS Newton-like iterations."""
    base, devices, x = _problem()
    k, vth = 3e-4, 0.28
    t0 = time.perf_counter()
    for _ in range(ITERATIONS):
        jac = base.copy()
        f = base @ x
        xl = x.tolist()
        for d, g, s in devices:
            vov = xl[g] - xl[s] - vth
            vds = xl[d] - xl[s]
            if vov <= 0.0:
                continue
            if vds < vov:
                i, gm, gds = k * (vov * vds - 0.5 * vds * vds), k * vds, k * (vov - vds)
            else:
                i, gm, gds = 0.5 * k * vov * vov, k * vov, 0.0
            f[d] += i
            f[s] -= i
            jac[d, d] += gds
            jac[d, g] += gm
            jac[d, s] -= gm + gds
            jac[s, s] += gm + gds
            jac[s, d] -= gds
            jac[s, g] -= gm
        x = np.clip(x - 1e-3 * np.linalg.solve(jac, f), 0.0, 1.0)
    return time.perf_counter() - t0


class Gauge:
    """Kernel passes timed between operations, and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, seconds: float) -> None:
        """Passes back to back until `seconds` have gone by; at least one."""
        end = time.perf_counter() + seconds
        self.samples.append(kernel())
        while time.perf_counter() < end:
            self.samples.append(kernel())

    def scale(self) -> float:
        """REFERENCE_S over the median pass: calibrated seconds per raw second."""
        return REFERENCE_S / statistics.median(self.samples)
