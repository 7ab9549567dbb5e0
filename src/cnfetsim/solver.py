"""Modified nodal analysis: DC operating point and implicit transient.

Unknowns are node voltages plus one branch current per voltage source.
Nonlinear devices are linearized by Newton-Raphson under one fixed
policy, the module constants ABSTOL, RELTOL, VTOL, GMIN and
MAX_NEWTON_ITERS (see there for the convergence test).  A GMIN
conductance from every node to ground regularizes the matrix
(capacitive-input gates make nodes that are DC-floating).  A DC
analysis is one Newton solve from its starting point: a solve that
fails raises its ConvergenceError, and no gmin is relaxed to rescue it.
The floating-node initializer is one such DC solve in which each node
that only capacitors reach holds, in place of its KCL row, its
zero-charge equation in volts, also to VTOL.

Transient integration is trapezoidal on capacitor companion models, with
a backward-Euler first step, as in SPICE2 (Nagel, UCB/ERL M520, 1975).
By default every step is SolverConfig.timestep long.  With
SolverConfig.timestep_control the step is error-controlled: the local
truncation error of each capacitor voltage, h^3/12 times its third
derivative, is estimated from the third divided difference over the
last four points and held to TRTOL * (RELTOL * max(|v|, CHGTOL / C) +
VTOL), C being its capacitance and CHGTOL SPICE2's charge floor.  Step
lengths come from a geometric ladder, timestep/16 * 2**rung up to 64 *
timestep, so a run is deterministic and builds few companion matrices;
every PWL corner is a breakpoint that a step lands on, and a
backward-Euler step follows it.  In both modes a step whose Newton
solve fails ends the run with a ConvergenceError at that step's time.

The linear solve is one row-equilibrated dense LU with partial pivoting
per Newton iterate; benchmark circuits stay under a hundred nodes, so
sparse machinery would be dead weight.  An iterate assembles the
residual and per-row scale, tests every row against its tolerance in one
vector expression (see _Compiled.system), and builds the Jacobian only
when that fails and a solve follows, so the converged iterate that ends
every solve builds none.

Assembly works on a ground-padded system: the base matrix, residual and
solution carry one trailing entry whose row and column stand for ground
(node index -1), so no stamp branches on a grounded terminal.  Each
Newton iterate evaluates every transistor in one call of the batch
kernel devices.drain_currents, which returns four values per device;
one take and one sign multiply expand them into the six Jacobian and two
current stamps per device.  The Jacobian stamps and the currents each go
in with one np.add.at, through flat indices built at compile time in
device-major, stamp-minor order; every entry is therefore summed in the
order a scalar stamping loop would use, and results match it bit for
bit.  Resistor and capacitor currents come from one conductance vector
over both (_Compiled.companion), built once per transient step and once
per compile for DC, and a circuit with neither skips them.  Device
stamps depend on x alone, and a fixed step's first iterate is the
previous step's solution, so the stamps evaluated there are carried
into the next step instead of being recomputed; a controlled step starts
from the linear predictor through the last two points.

One run is single-threaded and deterministic.  A circuit's compiled
topology (_Compiled) is built once, into the circuit's topology slot
(see _compiled), and shared with every copy Circuit.with_dc_source
makes: such a copy differs only in one source's level, and no compiled
value depends on a level, since each analysis reads the levels from the
circuit it is given.  The compile also caches its DC systems (see
_Compiled.dc_system), so a DC sweep compiles once and its points build
no matrix and no tolerance vector.  It caches a system's parts, not a
_Newton, which holds its compile: that would make a reference cycle.
Every other way of making a circuit (parse, flatten, the builders,
dataclasses.replace) starts an empty slot, so a changed element never
meets a stale compile.  A compile is not modified once built, except
that its cache of read-only DC systems grows, so threads may analyse
related circuits at once: a race only builds something twice, with
equal results.  The slot pickles empty.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .devices import Polarity, drain_currents, square_law
from .netlist import GROUND, Circuit, ElementKind, NetlistError, SourceWaveform

# Newton's one policy.  An iterate has converged when every KCL row's
# residual is at most ABSTOL + RELTOL * (largest current incident on its
# node) and every source or zero-charge row's at most VTOL; a solve that
# has not converged after MAX_NEWTON_ITERS linear solves fails.  GMIN
# (siemens) ties every node to ground in every analysis; it is never
# relaxed, so a failed solve is not retried.
ABSTOL = 1.0e-12
RELTOL = 1.0e-4
VTOL = 1.0e-6
GMIN = 1.0e-12
MAX_NEWTON_ITERS = 100

# Newton's per-node update clamp, applied only when nonlinear devices are
# present (a linear circuit must converge in one full-length step).  Kept
# at junction scale: larger moves overshoot whole square-law regions and
# re-randomize the device states every iteration.
MAX_VOLTAGE_STEP = 0.3

# Error-controlled transient (SolverConfig.timestep_control).  Time counts
# in units of timestep / UNITS_PER_TIMESTEP and a step is 2**rung units
# long, rung 0 to MAX_RUNG (12.8 ps on the benchmark's 0.2 ps timestep),
# so a run needs few companion matrices.
UNITS_PER_TIMESTEP = 16
TIMESTEP_RUNG = 4
MAX_RUNG = 10
# SPICE2's multiplier on the truncation-error tolerance.
TRTOL = 7.0
# SPICE2's charge floor (coulombs): a capacitor's voltage is held to its
# truncation-error tolerance relative to max(|v|, CHGTOL / C), so a
# settled node near 0 V is not held to microvolts.  SPICE's 1e-14 is
# sized for its reltol of 1e-3; against this solver's 1e-4 it moves
# delays by 2.5e-2, and 1e-15 by at most 3e-3.
CHGTOL = 1.0e-15
# Steps of one timestep after each breakpoint, the first backward Euler,
# before the estimate (which needs four points past the breakpoint) leads.
BREAKPOINT_STEPS = 3

# The gufunc behind np.linalg.solve, called directly to skip its argument
# checks; it is private NumPy API, so np.linalg.solve stands in without it.
try:
    from numpy.linalg._umath_linalg import solve1 as _solve1
except ImportError:  # pragma: no cover
    _solve1 = None


class ConvergenceError(Exception):
    """Newton iteration failed; carries the last residual, its row and the timestamp.

    `node` names the row whose final residual exceeds its tolerance by
    the largest factor: a node name, or "i(<source>)" for a voltage
    source's branch row.  `unit` is the residual's unit: "A" for a KCL
    row, "V" for a source row or a floating node's zero-charge row.
    """

    def __init__(self, message: str, residual: float = math.nan, time: float | None = None,
                 node: str | None = None, unit: str = "A"):
        self.residual = residual
        self.time = time
        self.node = node
        self.unit = unit
        at = "" if time is None else f" at t={time:.6g}s"
        where = "" if node is None else f" at {node!r}"
        super().__init__(f"{message}{at} (last residual {residual:.3e} {unit}{where})")


class IllConditionedDividerError(Exception):
    """A purely-capacitive node cluster has no driven boundary to share charge from."""


@dataclass
class SolverConfig:
    """The transient step policy; Newton's is fixed (ABSTOL and the rest).

    `timestep` is the transient step.  With `timestep_control` it is the
    base of the error-controlled ladder instead (see transient): the step
    taken after each breakpoint, 16 times the shortest step and 1/64 of
    the longest.  Steps are trapezoidal, with a backward-Euler first
    step (see transient).
    """

    timestep: float = 1e-12
    timestep_control: bool = False

    def __post_init__(self) -> None:
        if self.timestep <= 0:
            raise ValueError("SolverConfig.timestep must be positive")


@dataclass
class TransientResult:
    """Time series of node voltages and source branch currents, and step counts.

    Every accepted step is a sample, so a run took len(times) - 1 steps;
    lte_rejections counts the steps retried shorter for truncation error,
    and newton_iterations the linear solves over all steps, rejected ones
    included.
    """

    times: np.ndarray
    node_voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]
    lte_rejections: int = 0
    newton_iterations: int = 0

    def voltage(self, node: str) -> np.ndarray:
        return self.node_voltages[node]

    def current(self, source: str) -> np.ndarray:
        return self.source_currents[source]

    def to_csv(self) -> str:
        """CSV with header time,<node>...,<isource>..., 9 significant digits."""
        names = sorted(self.node_voltages)
        sources = list(self.source_currents)
        header = ",".join(["time", *names, *sources])
        cols = [self.times] + [self.node_voltages[n] for n in names]
        cols += [self.source_currents[s] for s in sources]
        lines = [header]
        for row in zip(*cols):
            lines.append(",".join(f"{v:.8e}" for v in row))
        return "\n".join(lines) + "\n"


class _Compiled:
    """A circuit's topology: index maps, element values and stamp layouts.

    It holds no source waveform and no reference to the circuit, so every
    circuit that shares its topology slot (see _compiled) can use it; an
    analysis reads the source levels from the circuit it is given, through
    source_pos.
    """

    def __init__(self, circuit: Circuit):
        if not circuit.is_flat:
            raise NetlistError("not-flat", "solver requires a flattened circuit")
        self.node_names = sorted(circuit.nodes - {GROUND})
        self.node_index = {name: i for i, name in enumerate(self.node_names)}
        self.node_index[GROUND] = -1
        self.n_nodes = len(self.node_names)

        # (name, + node, - node) per voltage source, in branch order, and
        # each one's position in circuit.elements
        self.sources: list[tuple[str, int, int]] = []
        self.source_pos: list[int] = []
        # (i, j, conductance) with -1 for ground
        self.resistors: list[tuple[int, int, float]] = []
        # (i, j, capacitance)
        self.capacitors: list[tuple[int, int, float]] = []
        # (d, g, s, mirrored, k, vth, lam), the layout devices.drain_currents
        # reads; a P device is mirrored
        self.devices: list[tuple[int, int, int, bool, float, float, float]] = []

        for pos, el in enumerate(circuit.elements):
            idx = [self.node_index[t] for t in el.terminals]
            if el.kind is ElementKind.VSOURCE:
                self.sources.append((el.name, idx[0], idx[1]))
                self.source_pos.append(pos)
            elif el.kind is ElementKind.RESISTOR:
                self.resistors.append((idx[0], idx[1], 1.0 / el.value))  # type: ignore[operator]
            elif el.kind is ElementKind.CAPACITOR:
                self.capacitors.append((idx[0], idx[1], el.value))  # type: ignore[arg-type]
            elif el.kind in (ElementKind.CNFET, ElementKind.MOSFET):
                p = circuit.models[el.model].params  # validated at parse
                mirrored = p.polarity is Polarity.P
                self.devices.append((idx[0], idx[1], idx[2], mirrored, *square_law(p)))

        self.size = self.n_nodes + len(self.sources)
        self.current_names = [f"i({name})" for name, _, _ in self.sources]
        self.has_devices = bool(self.devices)
        self._build_arrays()
        # DC systems by charge rows; see dc_system.
        self._dc_systems: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def _build_arrays(self) -> None:
        """Index arrays for the residual, scale and device-stamp scatters.

        Every vector and matrix the solver assembles, but the per-row scale,
        carries one trailing ground entry (row and column for the
        Jacobian), so a ground index (-1) lands there and needs no branch;
        the solution's ground entry stays zero and the rest of that
        padding is never read.
        """
        # Resistors then capacitors: one gather serves both.
        rc_i = [i for i, _, _ in self.resistors + self.capacitors]
        rc_j = [j for _, j, _ in self.resistors + self.capacitors]
        self.rc_i = np.array(rc_i, dtype=np.intp)
        self.rc_j = np.array(rc_j, dtype=np.intp)
        self.res_g = np.array([g for _, _, g in self.resistors])
        self.n_res = len(self.resistors)
        self.n_cap = len(self.capacitors)
        self.n_rc = self.n_res + self.n_cap
        self.cap_i = self.rc_i[self.n_res:]
        self.cap_j = self.rc_j[self.n_res:]
        self.cap_c = np.array([c for _, _, c in self.capacitors])
        self.n_src = len(self.sources)
        self.n_branch = self.n_rc + self.n_src
        # A DC solve's companions: capacitors open, no history; read-only.
        no_caps = np.zeros(self.n_cap)
        self.dc_companion = self.companion(no_caps, no_caps)
        for a in self.dc_companion:
            a.flags.writeable = False
        # Device stamps, device-major and in the order the scalar loop
        # applied them, so np.add.at sums every entry in that order: drain
        # row (d, g, s), then source row (s, d, g) of the padded Jacobian,
        # and the drain current into d then out of s.  The kernel's four
        # values per device (gds, gm, gm + gds, id) expand into those six
        # Jacobian values and two currents by stamp_take and stamp_sign;
        # a product with -1.0 is an exact negation.
        w = self.size + 1
        jac_idx: list[int] = []
        dev_rows: list[int] = []
        for d, g, s, *_ in self.devices:
            dev_rows += (d, s)
            d, g, s = d % w, g % w, s % w
            jac_idx += (d * w + d, d * w + g, d * w + s, s * w + s, s * w + d, s * w + g)
        self.dev_jac = np.array(jac_idx, dtype=np.intp)
        self.n_jac = len(jac_idx)
        self.dev_rows = np.array(dev_rows, dtype=np.intp)
        self.stamp_take, self.stamp_sign = _stamp_layout(len(self.devices))
        # Current vector layout: resistors, capacitors, sources, the two
        # device stamps, then one zero.  scale_take lists, row by row, the
        # currents incident on that node and then the zero (a source row's
        # run is the zero alone), and scale_start is where each row's run
        # begins, so one np.maximum.reduceat over that gather is every
        # row's scale: max(0, |incident currents|), 0 on a source row.
        ends_i = rc_i + [p for _, p, _ in self.sources]
        ends_j = rc_j + [m for _, _, m in self.sources]
        branches = list(range(self.n_branch))
        self.n_currents = self.n_branch + len(dev_rows)
        incident: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for node, branch in zip(ends_i + ends_j + dev_rows,
                                branches + branches + list(range(self.n_branch, self.n_currents))):
            if node >= 0:
                incident[node].append(branch)
        runs = [row + [self.n_currents] for row in incident] + [[self.n_currents]] * self.n_src
        self.scale_take = np.array([b for row in runs for b in row], dtype=np.intp)
        self.scale_start = np.cumsum([0] + [len(row) for row in runs[:-1]],
                                     dtype=np.intp)[: self.size]

    def companion(self, geq: np.ndarray, hist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Capacitor companions as _Newton reads them: the conductance of
        every resistor, then of every capacitor (geq), and each capacitor's
        history current."""
        return np.concatenate((self.res_g, geq)), hist

    def base_matrix(self, cap_geq: float | None) -> np.ndarray:
        """Constant part of the Jacobian: resistors, GMIN, sources, companions.

        cap_geq is the companion conductance multiplier applied to each
        capacitance (1/h for backward Euler, 2/h for trapezoidal); None
        opens the capacitors (DC analysis).  The matrix is (size+1)^2: the
        last row and column stand for ground.
        """
        g = np.zeros((self.size + 1, self.size + 1))
        for i in range(self.n_nodes):
            g[i, i] += GMIN
        for i, j, cond in self.resistors:
            _stamp_conductance(g, i, j, cond)
        if cap_geq is not None:
            for i, j, c in self.capacitors:
                _stamp_conductance(g, i, j, cap_geq * c)
        for b, (_, p, m) in enumerate(self.sources):
            row = self.n_nodes + b
            g[p, row] += 1.0
            g[row, p] += 1.0
            g[m, row] -= 1.0
            g[row, m] -= 1.0
        return g

    def system(self, base: np.ndarray, charge_rows: Sequence[int] = ()) -> tuple[np.ndarray, ...]:
        """What a _Newton solves against: (base, core, tol_base, rel).

        `base` is a padded base matrix with `charge_rows` stamped, and core
        its view without the ground row and column.  Row r's tolerance is
        tol_base[r] + rel[r] * scale[r]: ABSTOL + RELTOL * scale on a KCL
        row, and VTOL on a source row or a charge row, whose rel is 0.
        Every array is made read-only (_Newton._jacobian copies the base).
        """
        nn = self.n_nodes
        tol_base = np.full(self.size, VTOL)
        rel = np.zeros(self.size)
        tol_base[:nn] = ABSTOL
        rel[:nn] = RELTOL
        if charge_rows:
            rows = list(charge_rows)
            tol_base[rows] = VTOL
            rel[rows] = 0.0
        parts = (base, base[: self.size, : self.size], tol_base, rel)
        for a in parts:
            a.flags.writeable = False
        return parts

    def dc_system(self, charge_rows: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """The DC system (see system) with `charge_rows` stamped, built
        once per set of charge rows."""
        parts = self._dc_systems.get(charge_rows)
        if parts is None:
            base = self.base_matrix(None)
            self.stamp_charge_rows(base, charge_rows)
            parts = self._dc_systems[charge_rows] = self.system(base, charge_rows)
        return parts

    def stamp_charge_rows(self, g: np.ndarray, charge_rows: Sequence[int]) -> None:
        """Replace each row of a DC base matrix named in `charge_rows`, a
        floating node's (see _floating_nodes), by its zero-charge equation
        v_n - sum(C_j v_j) / sum(C_j) over its capacitors' far ends.  No
        device, resistor or source stamp reaches such a row."""
        total = dict.fromkeys(charge_rows, 0.0)
        for i, j, c in self.capacitors:
            for n in (i, j):
                if n in total:
                    total[n] += c
        for n in charge_rows:
            g[n] = 0.0
            g[n, n] = 1.0
        for i, j, c in self.capacitors:
            for n, other in ((i, j), (j, i)):
                if n in total:
                    g[n, other] -= c / total[n]


@functools.lru_cache(maxsize=None)
def _stamp_layout(n_dev: int) -> tuple[np.ndarray, np.ndarray]:
    """_Compiled.stamp_take and stamp_sign for n_dev transistors.

    They depend on the device count alone, so each count builds them once;
    the arrays are shared and read-only.
    """
    first = 4 * np.arange(n_dev, dtype=np.intp)[:, None]
    take = np.concatenate(((first + [0, 1, 2, 2, 0, 1]).ravel(), (first + [3, 3]).ravel()))
    sign = np.concatenate((np.tile([1.0, 1.0, -1.0, 1.0, -1.0, -1.0], n_dev),
                           np.tile([1.0, -1.0], n_dev)))
    take.flags.writeable = sign.flags.writeable = False
    return take, sign


def _lin_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row-equilibrated dense LU solve.

    MNA rows span ~10 decades (gmin-only nodes against capacitor
    companions), which costs a naive LU six digits and leaves Newton
    chasing a residual floor it can never reach, so each row is scaled
    to unit max first.  With that scaling one solve suffices: over 1 ns
    of transient on three designs at 0.65 V the row-wise backward error
    |J dx - rhs|_i / (max_j |J_ij| * |dx|_inf + |rhs_i|) stayed at or
    below 2.4e-16 (2.3e-16 with a round of iterative refinement), and
    refinement moved reported power by at most 1.6e-14 relative and the
    worst delay by at most 6e-13 on the twelve benchmark cells.
    """
    r = np.maximum.reduce(np.abs(jac), axis=1)  # ndarray.max without its wrapper
    r[r == 0.0] = 1.0
    a, b = jac / r[:, None], rhs / r
    if _solve1 is None:
        return np.linalg.solve(a, b)
    # np.linalg.solve's own error state: LAPACK's singular flag is
    # `invalid`, which it turns into LinAlgError.
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            return _solve1(a, b, signature="dd->d")
    except FloatingPointError as exc:
        raise np.linalg.LinAlgError("Singular matrix") from exc


def _stamp_conductance(g: np.ndarray, i: int, j: int, cond: float) -> None:
    g[i, i] += cond
    g[j, j] += cond
    g[i, j] -= cond
    g[j, i] -= cond


class _Newton:
    """Newton solves against one fixed system, as _Compiled.system builds it.

    The residual is F(x) = base @ x + const + device currents; `const`,
    an argument of each solve, holds -V(t) in source rows and capacitor
    companion history currents in node rows.  A charge row is a node row
    whose base-matrix row is a zero-charge equation in volts (see
    _Compiled.stamp_charge_rows), held to VTOL.  Vectors and matrices are
    ground-padded (see _Compiled._build_arrays).  Making one only stores
    references, so a DC analysis makes one per solve from its compile's
    cached system.
    """

    __slots__ = ("comp", "base", "base_core", "tol_base", "rel")

    def __init__(self, comp: _Compiled, system: tuple[np.ndarray, ...]):
        self.comp = comp
        self.base, self.base_core, self.tol_base, self.rel = system

    def _assemble(self, x_pad: np.ndarray, const: np.ndarray,
                  cap_companion: tuple[np.ndarray, np.ndarray], stamps: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded residual, per-row scale and the device stamps.

        `const` and `cap_companion` are as in solve.  The device stamps
        are one float array: six Jacobian values per transistor in
        _Compiled.dev_jac order, then two currents per transistor in
        _Compiled.dev_rows order.  `stamps` are those already evaluated at
        this x_pad; device stamps depend on x alone, so a caller may carry
        them between solves.  The Jacobian at x_pad is _jacobian(stamps).
        """
        comp = self.comp
        size, rc = comp.size, comp.n_rc
        x = x_pad[:size]
        f = const.copy()
        f[:size] += self.base_core @ x

        # Branch currents (resistors, capacitors, sources) and the device
        # stamps feed the per-row tolerance scale.
        currents = np.empty(comp.n_currents + 1)
        if rc:
            g, hist = cap_companion
            currents[:rc] = g * (x_pad[comp.rc_i] - x_pad[comp.rc_j])
            currents[comp.n_res: rc] += hist
        currents[rc: comp.n_branch] = x[comp.n_nodes:]
        currents[-1] = 0.0

        if comp.has_devices:
            if stamps is None:
                values = np.array(drain_currents(comp.devices, x_pad.tolist()), dtype=float)
                stamps = values.take(comp.stamp_take) * comp.stamp_sign
            dev_currents = stamps[comp.n_jac:]
            currents[comp.n_branch: -1] = dev_currents
            np.add.at(f, comp.dev_rows, dev_currents)
        scale = np.maximum.reduceat(np.abs(currents.take(comp.scale_take)), comp.scale_start)
        return f, scale, stamps

    def _jacobian(self, stamps: np.ndarray | None) -> np.ndarray:
        """Padded Jacobian: the base matrix plus the device stamps."""
        jac = self.base.copy()
        if self.comp.has_devices:
            np.add.at(jac.ravel(), self.comp.dev_jac, stamps[: self.comp.n_jac])
        return jac

    def _tolerance(self, scale: np.ndarray) -> np.ndarray:
        """Per-row tolerance: ABSTOL + RELTOL * scale on a KCL row, where
        the residual is a current, and VTOL on a source or charge row."""
        return self.tol_base + self.rel * scale

    def _converged(self, f: np.ndarray, scale: np.ndarray) -> bool:
        """Every row within its tolerance; a NaN in any row fails."""
        return bool((np.abs(f[: self.comp.size]) <= self._tolerance(scale)).all())

    def solve(self, x0_pad: np.ndarray, const: np.ndarray,
              cap_companion: tuple[np.ndarray, np.ndarray], time: float | None = None,
              stamps: np.ndarray | None = None) -> tuple[np.ndarray, int, np.ndarray]:
        """Returns (padded solution, iterations, device stamps at the solution).

        Iterations counts linear solves.  `x0_pad` and `const` are
        ground-padded, and x0_pad is not modified; `cap_companion` is
        _Compiled.companion's pair, the resistor and capacitor
        conductances and the capacitor history currents, read for the
        tolerance scale; `stamps`, if given, are the device
        stamps at x0_pad (the previous solve's third result when x0_pad
        is its solution).  The Jacobian is built only when a linear
        solve follows, so a converged iterate builds none.

        A nonlinear iterate clamps each node's update to
        MAX_VOLTAGE_STEP and takes it; a linear circuit takes the raw
        Newton step and lands exactly in one iteration.  MAX_NEWTON_ITERS
        is read at each call.
        """
        limit = MAX_NEWTON_ITERS
        nn, size = self.comp.n_nodes, self.comp.size
        x_pad = x0_pad.copy()
        x = x_pad[:size]
        for it in range(limit + 1):
            f, scale, stamps = self._assemble(
                x_pad, const, cap_companion, stamps if it == 0 else None
            )
            if self._converged(f, scale):
                return x_pad, it, stamps
            if it == limit:
                break
            jac = self._jacobian(stamps)
            try:
                dx = _lin_solve(jac[:size, :size], -f[:size])
            except np.linalg.LinAlgError as exc:
                raise self._failure(f"singular MNA matrix: {exc}", f, scale, time) from exc
            if self.comp.has_devices:
                # An inverter output on its vertical transfer segment (both
                # devices saturated, gmin-only diagonal) legitimately asks
                # for a kilovolt move; clamping per node lets that node walk
                # to its region in a few steps without squashing the rest
                # of the update.
                dv = dx[:nn]
                np.minimum(dv, MAX_VOLTAGE_STEP, out=dv)
                np.maximum(dv, -MAX_VOLTAGE_STEP, out=dv)
            x += dx
        raise self._failure(f"Newton failed after {limit} iterations", f, scale, time)

    def _failure(self, message: str, f: np.ndarray, scale: np.ndarray,
                 time: float | None) -> ConvergenceError:
        """The error for residual f, naming the row (node or source branch)
        that exceeds its own _converged criterion by the largest factor.

        KCL rows are currents and source or charge rows are voltages, so
        each is measured against its own tolerance before they are compared.
        """
        comp = self.comp
        if not comp.size:
            return ConvergenceError(message, 0.0, time)
        res = np.abs(f[: comp.size])
        row = int((res / self._tolerance(scale)).argmax())
        nn = comp.n_nodes
        node = comp.node_names[row] if row < nn else comp.current_names[row - nn]
        unit = "A" if self.rel[row] else "V"  # only a KCL row has a relative part
        return ConvergenceError(message, float(res[row]), time, node, unit)


def _source_const(comp: _Compiled, levels: list[float]) -> np.ndarray:
    """A DC system's padded constant vector: -level in each source row."""
    const = np.zeros(comp.size + 1)
    np.negative(levels, out=const[comp.n_nodes: comp.size])
    return const


def _compiled(circuit: Circuit) -> _Compiled:
    """The circuit's compiled topology, built on first use.

    It lives in the circuit's topology slot, which Circuit.with_dc_source
    hands on to the copies it makes, so a sweep compiles once.
    """
    slot = circuit._topology
    if slot.value is None:
        slot.value = _Compiled(circuit)
    return slot.value  # type: ignore[return-value]


def _waveforms(comp: _Compiled, circuit: Circuit) -> list[SourceWaveform]:
    """The circuit's source waveforms in branch order."""
    return [circuit.elements[k].waveform for k in comp.source_pos]  # type: ignore[misc]


def _dc_levels(comp: _Compiled, circuit: Circuit) -> list[float]:
    """The circuit's source levels at t=0, in branch order."""
    return [wf.value_at(0.0) for wf in _waveforms(comp, circuit)]


def _solve_dc(comp: _Compiled, levels: list[float], charge_rows: Sequence[int] = (),
              x0_pad: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """One Newton solve with the sources at `levels`, from the padded
    `x0_pad` (zeros if None); returns the padded solution and the
    iteration count, and a failure raises its ConvergenceError.  Each
    floating node in `charge_rows` meets its zero-charge equation in
    place of KCL."""
    if x0_pad is None:
        x0_pad = np.zeros(comp.size + 1)
    newton = _Newton(comp, comp.dc_system(tuple(charge_rows)))
    x, iters, _ = newton.solve(x0_pad, _source_const(comp, levels), comp.dc_companion)
    return x, iters


def dc_operating_point(circuit: Circuit, cfg: SolverConfig | None = None,
                       initial_guess: dict[str, float] | None = None) -> dict[str, float]:
    """Newton-converged DC solution; capacitors open, gmin to ground everywhere.

    Returns node -> volts including ground, plus one "i(<source>)" entry
    per voltage source carrying its branch current (positive current
    flows from the + terminal through the source to the - terminal).

    `initial_guess` seeds the node voltages only: a node it does not name
    starts at 0 V, and its ground and "i(<source>)" entries are ignored,
    so a sweep that passes each point the previous solution starts every
    solve from zero branch currents.  `cfg` is not read, since every DC
    setting is a module constant; it stays for callers that pass one, as
    perfbench/run.py does.
    """
    comp = _compiled(circuit)
    x0 = None
    if initial_guess:
        x0 = np.zeros(comp.size + 1)
        guess = initial_guess.get
        x0[: comp.n_nodes] = [guess(name, 0.0) for name in comp.node_names]
    x, _ = _solve_dc(comp, _dc_levels(comp, circuit), x0_pad=x0)
    return _solution_dict(comp, x)


def _solution_dict(comp: _Compiled, x_pad: np.ndarray) -> dict[str, float]:
    values = x_pad.tolist()
    out = dict(zip(comp.node_names, values))
    out[GROUND] = 0.0
    out.update(zip(comp.current_names, values[comp.n_nodes: comp.size]))
    return out


# --- floating-node initialization --------------------------------------------


def _floating_nodes(comp: _Compiled) -> set[int]:
    """Nodes whose every current-carrying connection is a capacitor.

    Transistor gates draw no current in this model, so a gate terminal
    does not anchor a node; drain and source terminals do.
    """
    caps_at: dict[int, int] = {}
    anchored: set[int] = set()
    for i, j, _ in comp.capacitors:
        for t in (i, j):
            if t >= 0:
                caps_at[t] = caps_at.get(t, 0) + 1
    for i, j, _ in comp.resistors:
        anchored.update(t for t in (i, j) if t >= 0)
    for _, p, m in comp.sources:
        anchored.update(t for t in (p, m) if t >= 0)
    for d, _, s, *_ in comp.devices:
        anchored.update(t for t in (d, s) if t >= 0)
    return {n for n in caps_at if n not in anchored}


def initialize_floating_nodes(circuit: Circuit) -> dict[str, float]:
    """DC operating point with every capacitive node charge-shared.

    A purely-capacitive node (see _floating_nodes) holds no stored charge:
    its voltage is the capacitance-weighted mean of its capacitors' far
    ends.  That equation replaces the node's KCL row in one DC solve at
    the t=0 source levels, so dividers coupled to each other or hanging
    off gate outputs that other dividers drive are all solved jointly.
    Other input levels are set on the circuit with Circuit.with_dc_source.
    Returns what dc_operating_point does.  Raises
    IllConditionedDividerError when a cluster of capacitive nodes touches
    no other node, so its charge cannot fix its voltages.
    """
    comp = _compiled(circuit)
    floating = sorted(_floating_nodes(comp))
    adj: dict[int, set[int]] = {n: set() for n in floating}
    driven: set[int] = set()
    for i, j, _ in comp.capacitors:
        for this, other in ((i, j), (j, i)):
            if this in adj:
                if other in adj:
                    adj[this].add(other)
                else:
                    driven.add(this)
    seen: set[int] = set()
    for start in floating:
        if start in seen:
            continue
        cluster, stack = [], [start]
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                cluster.append(n)
                stack.extend(adj[n] - seen)
        if driven.isdisjoint(cluster):
            names = ", ".join(comp.node_names[n] for n in sorted(cluster))
            raise IllConditionedDividerError(
                f"capacitive nodes coupled only to other capacitive nodes: {names}"
            )
    x, _ = _solve_dc(comp, _dc_levels(comp, circuit), floating)
    return _solution_dict(comp, x)


# --- transient ----------------------------------------------------------------


def _time_grid(tstop: float, dt: float) -> tuple[np.ndarray, int]:
    """Sample times k*dt up to tstop, with tstop appended when dt does not
    divide it, and the number of full dt steps among them."""
    n = int(math.floor(tstop / dt + 1e-9))
    times = [k * dt for k in range(n + 1)]
    if times[-1] < tstop * (1.0 - 1e-12):
        times.append(tstop)
    return np.array(times), n


def _breakpoints(waveforms: list[SourceWaveform], tstop: float, unit: float) -> list[float]:
    """Every PWL corner in (0, tstop), then tstop.  A corner within a
    thousandth of a unit of t=0 or of the next one kept is dropped."""
    corners = sorted({t for wf in waveforms if wf.kind != "dc"
                      for t, _ in wf.points if 0.0 < t < tstop})
    kept = [tstop]
    for b in reversed(corners):
        if kept[-1] - b > 1e-3 * unit and b > 1e-3 * unit:
            kept.append(b)
    return kept[::-1]


def _source_values(waveforms: list[SourceWaveform]
                   ) -> Callable[[float | np.ndarray], np.ndarray]:
    """Source levels at a time or an array of times, one row per source.

    PWL is interpolation with constant extrapolation, which is exactly
    np.interp, so a level read at one time equals the one read on a grid.
    """
    table: list[float | tuple[np.ndarray, np.ndarray]] = []
    for wf in waveforms:
        if wf.kind == "dc":
            table.append(wf.level)
        else:
            table.append((np.array([t for t, _ in wf.points]), np.array([v for _, v in wf.points])))

    def at(t: float | np.ndarray) -> np.ndarray:
        out = np.empty((len(table), *np.shape(t)))
        for b, entry in enumerate(table):
            out[b] = np.interp(t, *entry) if isinstance(entry, tuple) else entry
        return out

    return at


def _lte_ratio(points: list[tuple[float, np.ndarray]], v_floor: np.ndarray) -> float:
    """Largest trapezoidal truncation-error estimate over its tolerance.

    `points` are the last four (time, capacitor voltages), newest last.
    The error of the newest step h is h^3 * DD3 / 2, DD3 being the third
    divided difference over the four points (a sixth of the third
    derivative, so this is the trapezoidal rule's h^3/12 times it); each
    capacitor voltage v is held to TRTOL * (RELTOL * max(|v|, v_floor) +
    VTOL), v_floor being CHGTOL / C per capacitor (SPICE2's charge floor).
    """
    (t0, v0), (t1, v1), (t2, v2), (t3, v3) = points
    d01 = (v1 - v0) / (t1 - t0)
    d12 = (v2 - v1) / (t2 - t1)
    d23 = (v3 - v2) / (t3 - t2)
    dd3 = ((d23 - d12) / (t3 - t1) - (d12 - d01) / (t2 - t0)) / (t3 - t0)
    err = 0.5 * (t3 - t2) ** 3 * np.abs(dd3)
    tol = TRTOL * (RELTOL * np.maximum(np.abs(v3), v_floor) + VTOL)
    return float((err / tol).max(initial=0.0))


def transient(circuit: Circuit, cfg: SolverConfig, tstop: float,
              initial_conditions: dict[str, float] | None = None) -> TransientResult:
    """Implicit transient over [0, tstop], fixed-step or error-controlled.

    With `initial_conditions` None the run starts from the DC operating
    point; a dict, even an empty one, supplies the t=0 node voltages
    (missing nodes default to 0, and source currents given as
    "i(<source>)" are taken, else settled from the node voltages).
    Steps are trapezoidal, except the first one and, with
    cfg.timestep_control, the first one after each breakpoint, which are
    backward Euler.

    Fixed step (the default): the samples are the k*cfg.timestep grid.
    Every step is exactly cfg.timestep long except a short final one when
    the timestep does not divide tstop (the differences of the k*dt sample
    times jitter in their last bits, and each distinct length would build
    its own companion matrix).

    With cfg.timestep_control, time counts in units of cfg.timestep / 16
    and steps are 2**rung units long, up to 64 * cfg.timestep.  Every PWL
    corner is a breakpoint that a step lands on exactly (one short
    off-ladder step when the corner is off the unit grid).  After each
    breakpoint come BREAKPOINT_STEPS steps of cfg.timestep, the first
    backward Euler; from then on a step whose truncation-error ratio r
    (_lte_ratio, each capacitor voltage held to TRTOL * (RELTOL *
    max(|v|, CHGTOL / C) + VTOL)) exceeds 1 is rejected and retried
    ceil(log2(r)/3) rungs down, and an accepted step with r <= 1/8 lets
    the next one be a rung longer.  Newton starts from the linear
    predictor through the last two points, except on a breakpoint's first
    step.

    In both modes every accepted step is a sample, and a step whose Newton
    solve fails raises its ConvergenceError at that step's time.
    """
    if tstop <= 0:
        raise ValueError(f"tstop must be positive, got {tstop}")
    comp = _compiled(circuit)
    waveforms = _waveforms(comp, circuit)
    levels = _dc_levels(comp, circuit)
    control = cfg.timestep_control
    unit = cfg.timestep / UNITS_PER_TIMESTEP
    sources_at = _source_values(waveforms)
    if control:
        targets = _breakpoints(waveforms, tstop, unit)
        v_floor = CHGTOL / comp.cap_c
    else:
        grid, n_full = _time_grid(tstop, cfg.timestep)
        targets = grid[1:].tolist()

    if initial_conditions is None:
        x_pad, _ = _solve_dc(comp, levels)
    else:
        x_pad = np.zeros(comp.size + 1)
        source_rows = {name: comp.n_nodes + b for b, name in enumerate(comp.current_names)}
        have_currents = False
        for name, v in initial_conditions.items():
            if name in source_rows:
                x_pad[source_rows[name]] = float(v)
                have_currents = True
                continue
            idx = comp.node_index.get(name)
            if idx is None:
                raise KeyError(f"initial condition names unknown node {name!r}")
            if idx >= 0:
                x_pad[idx] = float(v)
        if not have_currents:
            _settle_source_currents(comp, levels, x_pad)

    cap_v = x_pad[comp.cap_i] - x_pad[comp.cap_j]
    cap_i_state = np.zeros(comp.n_cap)

    # Companion matrices of ladder lengths are kept; an off-ladder step
    # (a landing on a breakpoint) builds its own.
    base_cache: dict[tuple[bool, float], _Newton] = {}

    def step(x_in, stamps_in, src_vals, t_new, h, euler, ladder):
        geq_mult = (1.0 / h) if euler else (2.0 / h)
        geq = geq_mult * comp.cap_c
        if euler:
            hist = -geq * cap_v
        else:
            hist = -geq * cap_v - cap_i_state
        const = np.zeros(comp.size + 1)
        const[comp.n_nodes: comp.size] = -src_vals
        np.add.at(const, comp.cap_i, hist)
        np.subtract.at(const, comp.cap_j, hist)
        key = (euler, h)
        newton = base_cache.get(key)
        if newton is None:
            newton = _Newton(comp, comp.system(comp.base_matrix(geq_mult)))
            if ladder:
                base_cache[key] = newton
        x_new, iters, stamps_out = newton.solve(
            x_in, const, comp.companion(geq, hist), time=t_new, stamps=stamps_in
        )
        v_new = x_new[comp.cap_i] - x_new[comp.cap_j]
        return x_new, v_new, geq * v_new + hist, stamps_out, iters

    out_times = [0.0]
    history = [x_pad[: comp.size]]
    lte_rejections = newton_iterations = 0
    # t is anchor + n units, or the last target reached.  A fixed-step
    # run keeps its anchor at 0, so its grid points are k * timestep.
    t, anchor, n = 0.0, 0.0, 0
    rung, since = TIMESTEP_RUNG, 0  # since: accepted steps since the last breakpoint
    x_prev, h_prev = x_pad, 0.0
    # The last three (time, capacitor voltages) since the last breakpoint.
    recent = [(0.0, cap_v)]
    # A step's first Newton iterate is the previous step's solution, so the
    # device stamps evaluated there are carried in rather than recomputed.
    stamps = None
    for k, b in enumerate(targets):
        p = (b - anchor) / unit
        if control:
            nb = round(p)
            on_grid = nb >= 1 and abs(p - nb) <= 1e-6
        else:
            nb, on_grid = UNITS_PER_TIMESTEP * (k + 1), k < n_full
        end = nb if on_grid else p  # the target, in units past the anchor
        while True:
            m = 1 << rung
            landed = n + m >= end
            if landed:
                units = end - n
                t_new = b
                h = units * unit if on_grid else b - t
            else:
                units = m
                t_new = anchor + (n + m) * unit
                h = m * unit
            ladder = isinstance(units, int) and units & (units - 1) == 0
            if control and since:
                x_in, stamps_in = x_pad + (h / h_prev) * (x_pad - x_prev), None
            else:
                x_in, stamps_in = x_pad, stamps
            x_new, v_new, i_new, stamps_new, iters = step(
                x_in, stamps_in, sources_at(t_new), t_new, h, since == 0, ladder
            )
            newton_iterations += iters
            if control and since >= BREAKPOINT_STEPS:
                ratio = _lte_ratio([*recent, (t_new, v_new)], v_floor)
                if ratio > 1.0 and units > 1:
                    lte_rejections += 1
                    drop = math.ceil(math.log2(ratio) / 3)
                    rung = max(math.ceil(math.log2(units)) - drop, 0)
                    continue
                if ratio <= 0.125 and rung < MAX_RUNG:
                    rung += 1
            x_prev, h_prev = x_pad, h
            x_pad, cap_v, cap_i_state, stamps = x_new, v_new, i_new, stamps_new
            t = t_new
            since += 1
            out_times.append(t)
            history.append(x_pad[: comp.size])
            if control:
                recent = [*recent[-2:], (t, cap_v)]
            if landed:
                break
            n += m
        if control:
            anchor, n, since, rung = b, 0, 0, TIMESTEP_RUNG
            recent = [(b, cap_v)]
        else:
            n = nb

    samples = np.array(history)
    node_voltages = {name: samples[:, comp.node_index[name]].copy() for name in comp.node_names}
    source_currents = {
        name: samples[:, comp.n_nodes + b].copy() for b, (name, _, _) in enumerate(comp.sources)
    }
    return TransientResult(
        times=np.array(out_times), node_voltages=node_voltages, source_currents=source_currents,
        lte_rejections=lte_rejections, newton_iterations=newton_iterations,
    )


def _settle_source_currents(comp: _Compiled, levels: list[float], x: np.ndarray) -> None:
    """Back-fill source branch currents for a supplied-IC starting point.

    With node voltages fixed and capacitor currents taken as zero at
    t=0, each source current must absorb the static device/resistor
    current at its positive terminal (or negative, if + is ground).
    `levels` are the sources' t=0 levels and `x` is the padded solution.
    """
    newton = _Newton(comp, comp.dc_system(()))
    f, _, _ = newton._assemble(x, _source_const(comp, levels), comp.dc_companion)
    for b, (_, p, m) in enumerate(comp.sources):
        row = comp.n_nodes + b
        if p >= 0:
            delta = -f[p]
            x[row] += delta
            f[p] += delta
        elif m >= 0:
            delta = f[m]
            x[row] += delta
            f[m] -= delta
