"""Modified nodal analysis: DC operating point and implicit transient.

Unknowns are node voltages plus one branch current per voltage source.
Nonlinear devices are linearized by Newton-Raphson under one fixed
policy, the module constants ABSTOL, RELTOL, VTOL, GMIN and
MAX_NEWTON_ITERS.  A GMIN conductance from every node to ground
regularizes the matrix (capacitive-input gates make nodes that are
DC-floating).  A DC analysis is one Newton solve from its starting
point: a solve that fails raises its ConvergenceError, and no gmin is
relaxed to rescue it.  The floating-node initializer is one such solve
in which each node that only capacitors reach holds, in place of its KCL
row, its zero-charge equation in volts.  Transient integration is
trapezoidal on capacitor companion models with a backward-Euler first
step, as in SPICE2 (Nagel, UCB/ERL M520, 1975), fixed-step or
error-controlled (see transient).

A Newton iterate assembles the residual f and decides from it first:
with every row within its tolerance floor (ABSTOL on a KCL row, VTOL
on a source or charge row) it has converged, and with a source row
outside it it has not.  Only an iterate left open builds the per-row
tolerance scale and tests every row against its full tolerance (see
_Newton.solve).  An iterate that has not converged builds the Jacobian
J and makes one row-equilibrated dense LU solve (_lin_solve).
Vectors carry one trailing ground entry and the Jacobian one trailing
sink row, so no stamp branches on a grounded terminal.  Every transistor
is evaluated in one call of devices.drain_currents, and the stamps go in
with np.add.at in device-major, stamp-minor order, the order a scalar
stamping loop would use, so results match it bit for bit.  At these
sizes a NumPy call costs more than its arithmetic, so an iterate makes
as few as it can, in their cheapest forms.

What solves reuse lives on the circuit's compiled topology (_Compiled),
built once into the circuit's topology slot (see _compiled) and shared
with every copy Circuit.with_dc_source makes: no compiled value depends
on a source level, since each analysis reads the levels from the circuit
it is given.  After it is built, a compile changes in its system cache
only (_Compiled.system), which builds what a _Newton solves against once
per companion multiplier and set of charge rows, for DC and for every
transient step length alike.  The cache holds read-only array parts,
never a _Newton, which refers to its compile and would make a reference
cycle; threads may analyse circuits that share a compile, and a race
only builds a system twice, with equal results.  Device stamps pass from
one transient step to the next only (see transient); a DC solve
evaluates its own start.  Every other way of making a circuit (parse,
flatten, the builders, dataclasses.replace) starts an empty slot, so a
changed element never meets a stale compile; the slot pickles empty.
"""

from __future__ import annotations

import bisect
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
# (siemens) ties every node to ground in every analysis and is never
# relaxed.
ABSTOL = 1.0e-12
RELTOL = 1.0e-4
VTOL = 1.0e-6
GMIN = 1.0e-12
MAX_NEWTON_ITERS = 100

# Newton's per-node update clamp, applied only when nonlinear devices are
# present (a linear circuit must converge in one full-length step).  Kept
# at junction scale: larger moves overshoot whole square-law regions.
MAX_VOLTAGE_STEP = 0.3

# Error-controlled transient (SolverConfig.timestep_control).  A step is
# 2**rung units of timestep / UNITS_PER_TIMESTEP, rung 0 to MAX_RUNG, and
# rung TIMESTEP_RUNG is one timestep.
TIMESTEP_RUNG = 4
UNITS_PER_TIMESTEP = 1 << TIMESTEP_RUNG
MAX_RUNG = 10
# SPICE2's multiplier on the truncation-error tolerance.
TRTOL = 7.0
# SPICE2's charge floor (coulombs): a capacitor's voltage is held to its
# truncation-error tolerance relative to max(|v|, CHGTOL / C), so a
# settled node near 0 V is not held to microvolts.
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

    `timestep` is the base of transient's step ladder: the step taken
    after each breakpoint, 16 times the shortest step and 1/64 of the
    longest.  A fixed-step run (the default) is the ladder held at that
    one rung, with tstop as its only breakpoint; `timestep_control` lets
    the truncation-error estimate move the rung and makes every PWL
    corner a breakpoint (see transient).
    """

    timestep: float = 1e-12
    timestep_control: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.timestep) and self.timestep > 0):
            raise ValueError(
                f"SolverConfig.timestep must be positive and finite, got {self.timestep}")


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
        # What the DC wrapper reads: a solution's names in row order, and
        # the zeros that pad the node rows of a source vector.
        self.solution_names = self.node_names + self.current_names
        self.node_zeros = [0.0] * self.n_nodes
        self.has_devices = bool(self.devices)
        self._build_arrays()
        self._systems: dict[tuple[float | None, tuple[int, ...]], tuple[np.ndarray, ...]] = {}

    def _build_arrays(self) -> None:
        """Index arrays for the residual, scale and device-stamp scatters.

        Every vector the solver assembles, but the per-row scale, carries
        one trailing ground entry, so a ground index (-1) lands there and
        needs no branch; the solution's ground entry stays zero.  The
        Jacobian carries one trailing sink row instead (see system).
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
        # Each capacitor's two ends as bins of the padded vector, i ends
        # first, for step_const's one np.bincount.
        self.cap_bins = np.concatenate((self.cap_i, self.cap_j)) % (self.size + 1)
        self.n_src = len(self.sources)
        self.n_branch = self.n_rc + self.n_src
        # Device stamps, device-major and in the order the scalar loop
        # applied them, so np.add.at sums every entry in that order: drain
        # row (d, g, s), then source row (s, d, g) of the Jacobian, and
        # the drain current into d then out of s.  The kernel's four
        # values per device (gds, gm, gm + gds, id) expand into those six
        # Jacobian values and two currents by stamp_take and stamp_sign;
        # a product with -1.0 is an exact negation.  A stamp on a ground
        # row or column lands in the sink row's first entry (see system),
        # which nothing reads.
        size = self.size
        sink = size * size

        def at(r: int, c: int) -> int:
            return r * size + c if r >= 0 and c >= 0 else sink

        jac_idx: list[int] = []
        dev_rows: list[int] = []
        for d, g, s, *_ in self.devices:
            dev_rows += (d, s)
            jac_idx += (at(d, d), at(d, g), at(d, s), at(s, s), at(s, d), at(s, g))
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

    def step_const(self, src_vals: list[float], hist: np.ndarray) -> np.ndarray:
        """A transient step's padded constant vector: -level in each source
        row, and each capacitor's history current `hist` into its i end and
        out of its j end.  One bincount sums every bin in capacitor order,
        i ends first, as np.add.at then np.subtract.at would, and x - h is
        x + (-h) bit for bit."""
        if self.n_cap:
            const = np.bincount(self.cap_bins, weights=np.concatenate((hist, -hist)),
                                minlength=self.size + 1)
        else:  # np.bincount of no entries is an integer array
            const = np.zeros(self.size + 1)
        const[self.n_nodes: self.size] = [-v for v in src_vals]
        return const

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

    def system(self, cap_geq: float | None = None,
               charge_rows: Sequence[int] = ()) -> tuple[np.ndarray, ...]:
        """What a _Newton solves against: (jac_base, core, tol_base, rel, g),
        built once per (cap_geq, charge_rows) and then shared.

        cap_geq is base_matrix's, and each row in `charge_rows` holds its
        zero-charge equation (see stamp_charge_rows).  core is that base
        matrix without the ground row and column, and jac_base is core
        with one more row of zeros: the sink that device stamps to ground
        land in.  core is jac_base's first size rows, so it and every
        Jacobian made from jac_base are contiguous.  Row r's tolerance is
        tol_base[r] + rel[r] * scale[r]: ABSTOL + RELTOL * scale on a KCL
        row, and VTOL on a source or charge row, whose rel is 0.  g is the
        conductance of every resistor, then of every capacitor (cap_geq
        times its capacitance, 0 at DC).  Every array is read-only.
        """
        key = (cap_geq, tuple(charge_rows))
        parts = self._systems.get(key)
        if parts is not None:
            return parts
        base = self.base_matrix(cap_geq)
        self.stamp_charge_rows(base, key[1])
        nn = self.n_nodes
        tol_base = np.full(self.size, VTOL)
        rel = np.zeros(self.size)
        tol_base[:nn] = ABSTOL
        rel[:nn] = RELTOL
        rows = list(charge_rows)
        tol_base[rows] = VTOL
        rel[rows] = 0.0
        jac_base = np.zeros((self.size + 1, self.size))
        jac_base[: self.size] = base[: self.size, : self.size]
        geq = np.zeros(self.n_cap) if cap_geq is None else cap_geq * self.cap_c
        parts = (jac_base, jac_base[: self.size], tol_base, rel,
                 np.concatenate((self.res_g, geq)))
        for a in parts:
            a.flags.writeable = False
        self._systems[key] = parts
        return parts

    def stamp_charge_rows(self, g: np.ndarray, charge_rows: Sequence[int]) -> None:
        """Replace each row of a DC base matrix named in `charge_rows`, a
        floating node's (see _floating_nodes), by its zero-charge equation
        v_n - sum(C_j v_j) / sum(C_j) over its capacitors' far ends.  No
        device, resistor or source stamp reaches such a row."""
        table = _floating_nodes(self)
        for n in charge_rows:
            total = 0.0  # summed in order: sum() compensates from Python 3.12
            for _, c in table[n]:
                total += c
            g[n] = 0.0
            g[n, n] = 1.0
            for other, c in table[n]:
                g[n, other] -= c / total


@functools.lru_cache(maxsize=None)
def _stamp_layout(n_dev: int) -> tuple[np.ndarray, np.ndarray]:
    """_Compiled.stamp_take and stamp_sign for n_dev transistors: shared,
    read-only arrays that depend on the device count alone."""
    first = 4 * np.arange(n_dev, dtype=np.intp)[:, None]
    take = np.concatenate(((first + [0, 1, 2, 2, 0, 1]).ravel(), (first + [3, 3]).ravel()))
    sign = np.concatenate((np.tile([1.0, 1.0, -1.0, 1.0, -1.0, -1.0], n_dev),
                           np.tile([1.0, -1.0], n_dev)))
    take.flags.writeable = sign.flags.writeable = False
    return take, sign


def _lin_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row-equilibrated dense LU solve of jac @ dx = rhs.

    MNA rows span ~10 decades (gmin-only nodes against capacitor
    companions), so each row is scaled to unit max first, and one solve,
    with no refinement, holds every row to within a few ulps.  A row that
    is all zero makes the matrix singular, so it raises LinAlgError before
    any scaling, as LAPACK would after it.  LU and the row scaling commute
    exactly with negation, so Newton's x - solve(J, f) is x + solve(J, -f)
    bit for bit.
    """
    r = np.maximum.reduce(np.abs(jac), axis=1)  # ndarray.max without its wrapper
    if 0.0 in r.tolist():  # a list scan, not a reduction
        raise np.linalg.LinAlgError("Singular matrix")
    a, b = jac / r[:, None], rhs / r
    if _solve1 is None:
        return np.linalg.solve(a, b)
    try:
        return _lapack_solve(a, b)
    except FloatingPointError as exc:
        raise np.linalg.LinAlgError("Singular matrix") from exc


# np.linalg.solve's own error state: LAPACK's singular flag is `invalid`,
# which _lin_solve turns into LinAlgError.  Since NumPy 2.0 the decorator
# keeps each call's context to itself, so threads do not share it.
@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def _lapack_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _solve1(a, b)  # both float64, so its dd->d loop


def _stamp_conductance(g: np.ndarray, i: int, j: int, cond: float) -> None:
    g[i, i] += cond
    g[j, j] += cond
    g[i, j] -= cond
    g[j, i] -= cond


class _Newton:
    """Newton solves against one system, as _Compiled.system builds it.

    The residual is F(x) = base @ x + const + device currents; `const`,
    an argument of each solve, holds -V(t) in source rows and capacitor
    companion history currents in node rows.  Making one only stores
    references, so an analysis makes one per solve.
    """

    __slots__ = ("comp", "base", "base_core", "tol_base", "rel", "g")

    def __init__(self, comp: _Compiled, system: tuple[np.ndarray, ...]):
        self.comp = comp
        self.base, self.base_core, self.tol_base, self.rel, self.g = system

    def _assemble(self, x_pad: np.ndarray, const: np.ndarray,
                  stamps: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Padded residual and the device stamps.

        `const` is as in solve.  The device stamps are one float array:
        six Jacobian values per transistor in _Compiled.dev_jac order,
        then two currents per transistor in _Compiled.dev_rows order
        (empty with no transistor).  `stamps`, if given, are those already
        evaluated at this x_pad.  The Jacobian at x_pad is
        _jacobian(stamps), and the per-row tolerance scale is
        _scale(x_pad, hist, stamps).
        """
        comp = self.comp
        f = const.copy()
        f_core = f[: comp.size]
        # In place through the view; ndarray.dot is the same BLAS product
        # as @, bit for bit.
        f_core += self.base_core.dot(x_pad[: comp.size])
        if stamps is None:
            values = np.array(drain_currents(comp.devices, x_pad.tolist()), dtype=float)
            stamps = values.take(comp.stamp_take) * comp.stamp_sign
        np.add.at(f, comp.dev_rows, stamps[comp.n_jac:])
        return f, stamps

    def _scale(self, x_pad: np.ndarray, hist: np.ndarray | None, stamps: np.ndarray,
               currents: np.ndarray | None = None) -> np.ndarray:
        """Per-row tolerance scale at x_pad: on a node row the largest
        |current| of the branches and device stamps incident on it, 0 on a
        source row.  `hist` is as in solve and `stamps` as _assemble
        returns them.  `currents` is a work array of n_currents + 1
        entries whose last is 0.0 (see _Compiled._build_arrays); every
        other entry is overwritten here.
        """
        comp = self.comp
        rc = comp.n_rc
        if currents is None:
            currents = np.zeros(comp.n_currents + 1)
        currents[:rc] = self.g * (x_pad[comp.rc_i] - x_pad[comp.rc_j])
        if hist is not None:
            currents[comp.n_res: rc] += hist
        currents[rc: comp.n_branch] = x_pad[comp.n_nodes: comp.size]
        currents[comp.n_branch: -1] = stamps[comp.n_jac:]
        return np.maximum.reduceat(np.abs(currents.take(comp.scale_take)), comp.scale_start)

    def _jacobian(self, stamps: np.ndarray) -> np.ndarray:
        """The Jacobian, size by size and contiguous: the base matrix plus
        the device stamps, those to ground summed into the sink row."""
        comp = self.comp
        jac = self.base.copy()
        np.add.at(jac.ravel(), comp.dev_jac, stamps[: comp.n_jac])
        return jac[: comp.size]

    def _tolerance(self, scale: np.ndarray) -> np.ndarray:
        """Per-row tolerance: ABSTOL + RELTOL * scale on a KCL row, where
        the residual is a current, and VTOL on a source or charge row."""
        return self.tol_base + self.rel * scale

    def _converged(self, f: np.ndarray, scale: np.ndarray) -> bool:
        """Every row within its tolerance, and every residual finite.  A
        NaN in any row fails, since nan <= tol is False; an infinite
        residual is within the infinite tolerance an infinite incident
        current gives its row, so that is checked apart."""
        res = np.abs(f[: self.comp.size])
        if False in (res <= self._tolerance(scale)).tolist():
            return False
        return math.inf not in res.tolist()

    def solve(self, x0_pad: np.ndarray, const: np.ndarray, hist: np.ndarray | None = None,
              time: float | None = None, stamps: np.ndarray | None = None
              ) -> tuple[np.ndarray, int, np.ndarray]:
        """Returns (padded solution, iterations, device stamps there);
        iterations counts linear solves.

        `x0_pad` and `const` are ground-padded, and x0_pad is not
        modified; `hist` holds the capacitor history currents (None at
        DC), read for the tolerance scale.  `stamps`, if given, are the
        device stamps already evaluated at x0_pad (as _assemble returns
        them), and the first iterate takes them in place of evaluating
        the devices there; the stamps returned are the ones the solution
        was accepted on, so a solve that starts at this one's solution
        can take them.  The Jacobian is built only when a linear solve
        follows.

        Each iterate is decided from its residual first, and the scale is
        built only when that leaves it open.  Row r's tolerance is
        tol_base[r] + rel[r] * scale[r], so a source row (rel 0) not
        within tol_base fails _converged whatever its scale, and a NaN
        residual is not within.  A charge row has rel 0 too, but only the
        floating-node initializer's one solve has any, so _converged
        decides it.  An iterate with every row within tol_base passes
        _converged too: a NaN scale, the only way _converged can reject a
        row within tol_base, needs a nonfinite node voltage, source
        current, device current or history current, and each of those
        makes its own rows' residual nonfinite (GMIN loads every node,
        and a source's current enters its terminals' rows as +1 or -1).

        A nonlinear iterate clamps each node's update to
        MAX_VOLTAGE_STEP and takes it; a linear circuit takes the raw
        Newton step and lands exactly in one iteration.  MAX_NEWTON_ITERS
        is read at each call.
        """
        limit = MAX_NEWTON_ITERS
        comp = self.comp
        nn, size, clamp = comp.n_nodes, comp.size, comp.has_devices
        assemble, tol_base = self._assemble, self.tol_base
        x_pad = x0_pad.copy()
        x = x_pad[:size]
        currents = None  # the scale's work array, made when first needed
        for it in range(limit + 1):
            f, stamps = assemble(x_pad, const, stamps if it == 0 else None)
            within = (np.abs(f[:size]) <= tol_base).tolist()
            if False not in within:
                done = True
            elif False in within[nn:]:  # a source row, whose rel is 0
                done = False
            else:
                if currents is None:
                    currents = np.zeros(comp.n_currents + 1)
                done = self._converged(f, self._scale(x_pad, hist, stamps, currents))
            if done:
                return x_pad, it, stamps
            if it == limit:
                break
            jac = self._jacobian(stamps)
            try:
                dx = _lin_solve(jac, f[:size])
            except np.linalg.LinAlgError as exc:
                raise self._failure(f"singular MNA matrix: {exc}", f,
                                    self._scale(x_pad, hist, stamps), time) from exc
            if clamp:
                # An inverter output on its vertical transfer segment (both
                # devices saturated, gmin-only diagonal) asks for a kilovolt
                # move; clamping per node lets that node walk to its region
                # without squashing the rest of the update.  The clamp is
                # symmetric, so clamping the negated update is exact.
                dv = dx[:nn]
                np.minimum(dv, MAX_VOLTAGE_STEP, out=dv)
                np.maximum(dv, -MAX_VOLTAGE_STEP, out=dv)
            x -= dx  # dx solves J dx = f, so this is the Newton step
        raise self._failure(f"Newton failed after {limit} iterations", f,
                            self._scale(x_pad, hist, stamps), time)

    def _failure(self, message: str, f: np.ndarray, scale: np.ndarray,
                 time: float | None) -> ConvergenceError:
        """The error for residual f, naming the row (node or source branch)
        that exceeds its own _converged criterion by the largest factor.

        KCL rows are currents and source or charge rows are voltages, so
        each is measured against its own tolerance before they are compared.
        A nonfinite residual ranks first: its ratio is inf, or NaN over an
        infinite tolerance, and argmax takes the first NaN as the largest.
        """
        comp = self.comp
        res = np.abs(f[: comp.size])
        row = int((res / self._tolerance(scale)).argmax())
        nn = comp.n_nodes
        node = comp.node_names[row] if row < nn else comp.current_names[row - nn]
        unit = "A" if self.rel[row] else "V"  # only a KCL row has a relative part
        return ConvergenceError(message, float(res[row]), time, node, unit)


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


def _dc_const(comp: _Compiled, circuit: Circuit) -> np.ndarray:
    """A DC system's padded constant vector: -level at t=0 in each source
    row, read in one pass over the circuit's sources, and 0 elsewhere."""
    levels = []
    for k in comp.source_pos:
        wf = circuit.elements[k].waveform
        level = (wf.level if wf.kind == "dc"  # type: ignore[union-attr]
                 else _pwl_level(*_pwl_corners(wf), 0.0))
        # float() first, so an integer level 0 gives -0.0 as a float one does
        levels.append(-float(level))
    return np.array(comp.node_zeros + levels + [0.0])


def _solve_dc(comp: _Compiled, const: np.ndarray, charge_rows: Sequence[int] = (),
              x0_pad: np.ndarray | None = None) -> tuple[np.ndarray, int, np.ndarray]:
    """One Newton solve against the padded source vector `const` (see
    _dc_const), from the padded `x0_pad` (zeros if None; its ground entry
    is 0.0), which it evaluates; returns what _Newton.solve does, and a
    failure raises its ConvergenceError.  Each floating node in
    `charge_rows` meets its zero-charge equation in place of KCL."""
    if x0_pad is None:
        x0_pad = np.zeros(comp.size + 1)
    return _Newton(comp, comp.system(None, charge_rows)).solve(x0_pad, const)


def dc_operating_point(circuit: Circuit, cfg: SolverConfig | None = None,
                       initial_guess: dict[str, float] | None = None) -> dict[str, float]:
    """Newton-converged DC solution; capacitors open, gmin to ground everywhere.

    Returns node -> volts including ground, plus one "i(<source>)" entry
    per voltage source carrying its branch current (positive current
    flows from the + terminal through the source to the - terminal).

    `initial_guess` warm-starts the solve from its node voltages and
    "i(<source>)" branch currents; a node or source it does not name
    starts at 0, and its ground entry is ignored.  Each source's +
    terminal is then set, in branch order, to its - terminal plus the
    source's level (its - terminal to minus the level when + is ground),
    so a sweep that passes each point the previous solution starts every
    solve on the swept source's new level, and a point where that start
    already meets KCL converges with no linear solve.  With no guess the
    solve starts from zeros.  `cfg` is not read, since every DC setting is a
    module constant; it stays for callers that pass one.
    """
    comp = _compiled(circuit)
    const = _dc_const(comp, circuit)
    x0 = None
    if initial_guess:
        guess = initial_guess.get
        x0 = np.array([guess(name, 0.0) for name in comp.solution_names] + [0.0])
        nn = comp.n_nodes
        for b, (_, p, m) in enumerate(comp.sources):
            # The source row holds x[p] - x[m] + const, and the padded
            # ground entry reads 0.0 for a grounded terminal.
            if p >= 0:
                x0[p] = x0[m] - const[nn + b]
            elif m >= 0:
                x0[m] = const[nn + b]
    x, _, _ = _solve_dc(comp, const, x0_pad=x0)
    return _solution_dict(comp, x)


def _solution_dict(comp: _Compiled, x_pad: np.ndarray) -> dict[str, float]:
    """Node voltages, ground's 0.0 and the source currents by name; the
    padding's ground entry has no name, so zip drops it."""
    out = dict(zip(comp.solution_names, x_pad.tolist()))
    out[GROUND] = 0.0
    return out


# --- floating-node initialization --------------------------------------------


def _floating_nodes(comp: _Compiled) -> dict[int, list[tuple[int, float]]]:
    """Nodes whose every current-carrying connection is a capacitor, each
    mapped to its capacitors' (far end, capacitance) pairs in capacitor
    order; a capacitor with both ends on the node is listed twice.

    Ground, and every resistor, source, drain and source terminal, anchors
    a node.  Transistor gates draw no current in this model, so a gate
    terminal does not.
    """
    anchored = {-1}
    for i, j, _ in comp.resistors:
        anchored.update((i, j))
    for _, p, m in comp.sources:
        anchored.update((p, m))
    for d, _, s, *_ in comp.devices:
        anchored.update((d, s))
    table: dict[int, list[tuple[int, float]]] = {}
    for i, j, c in comp.capacitors:
        for this, other in ((i, j), (j, i)):
            if this not in anchored:
                table.setdefault(this, []).append((other, c))
    return table


def initialize_floating_nodes(circuit: Circuit) -> dict[str, float]:
    """DC operating point with every capacitive node charge-shared.

    A purely-capacitive node (see _floating_nodes) holds no stored charge:
    its voltage is the capacitance-weighted mean of its capacitors' far
    ends.  That equation replaces the node's KCL row in one DC solve at
    the t=0 source levels, so dividers coupled to each other or hanging
    off gate outputs that other dividers drive are all solved jointly.
    Other input levels are set on the circuit with Circuit.with_dc_source.
    Returns what dc_operating_point does.  A floating node is isolated
    when no chain of capacitors through floating nodes reaches a node that
    is not floating, so its charge cannot fix its voltage; any isolated
    node raises IllConditionedDividerError naming all of them.
    """
    comp = _compiled(circuit)
    table = _floating_nodes(comp)
    stack = [n for n, caps in table.items() if any(o not in table for o, _ in caps)]
    reached = set(stack)
    while stack:
        for other, _ in table[stack.pop()]:
            if other in table and other not in reached:
                reached.add(other)
                stack.append(other)
    isolated = sorted(table.keys() - reached)
    if isolated:
        names = ", ".join(comp.node_names[n] for n in isolated)
        raise IllConditionedDividerError(
            f"capacitive nodes coupled only to other capacitive nodes: {names}"
        )
    x, _, _ = _solve_dc(comp, _dc_const(comp, circuit), sorted(table))
    return _solution_dict(comp, x)


# --- transient ----------------------------------------------------------------


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


def _pwl_corners(wf: SourceWaveform) -> tuple[list[float], list[float]]:
    """A PWL waveform's corner times and levels, as floats."""
    return [float(t) for t, _ in wf.points], [float(v) for _, v in wf.points]


def _pwl_level(xp: list[float], fp: list[float], t: float) -> float:
    """The PWL level at time t: interpolation with constant extrapolation,
    computed as np.interp computes it, so it equals np.interp(t, xp, fp)
    bit for bit.

    With j the last corner at or before t, found by bisection (the corner
    times strictly increase; SourceWaveform checks them), it is fp[0]
    before the first corner, fp[j] at a corner or past the last one, and
    (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]) * (t - xp[j]) + fp[j] between
    corners.
    """
    j = bisect.bisect_right(xp, t) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1 or xp[j] == t:
        return fp[j]
    return (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (t - xp[j]) + fp[j]


def _source_values(waveforms: list[SourceWaveform]) -> Callable[[float], list[float]]:
    """Source levels at time t, one float per source; PWL ones by _pwl_level."""
    table = [float(wf.level) if wf.kind == "dc" else _pwl_corners(wf) for wf in waveforms]

    def at(t: float) -> list[float]:
        return [entry if isinstance(entry, float) else _pwl_level(*entry, t) for entry in table]

    return at


def _lte_past(points: list[tuple[float, np.ndarray]]) -> tuple:
    """What _lte_ratio reads of the last three (time, capacitor voltages),
    newest last: (t0, t1, t2, v2, d12, dd012), the first divided
    difference over the newest two and the second over all three."""
    (t0, v0), (t1, v1), (t2, v2) = points
    d01 = (v1 - v0) / (t1 - t0)
    d12 = (v2 - v1) / (t2 - t1)
    return t0, t1, t2, v2, d12, (d12 - d01) / (t2 - t0)


def _lte_ratio(past: tuple, t3: float, v3: np.ndarray, v_floor: np.ndarray) -> tuple[float, tuple]:
    """Largest trapezoidal truncation-error estimate over its tolerance,
    and the past (see _lte_past) of the next step if this one is accepted.

    `past` holds the last three points, and (t3, v3) is the newest.  The
    error of the newest step h is h^3 * DD3 / 2, DD3 being the third
    divided difference over the four points (a sixth of the third
    derivative, so this is the trapezoidal rule's h^3/12 times it); each
    capacitor voltage v is held to TRTOL * (RELTOL * max(|v|, v_floor) +
    VTOL), v_floor being CHGTOL / C per capacitor.
    """
    t0, t1, t2, v2, d12, dd012 = past
    d23 = (v3 - v2) / (t3 - t2)
    dd123 = (d23 - d12) / (t3 - t1)
    dd3 = (dd123 - dd012) / (t3 - t0)
    err = 0.5 * (t3 - t2) ** 3 * np.abs(dd3)
    tol = TRTOL * (RELTOL * np.maximum(np.abs(v3), v_floor) + VTOL)
    return float((err / tol).max(initial=0.0)), (t1, t2, t3, v3, d23, dd123)


def transient(circuit: Circuit, cfg: SolverConfig, tstop: float,
              initial_conditions: dict[str, float] | None = None) -> TransientResult:
    """Implicit transient over [0, tstop], fixed-step or error-controlled.

    With `initial_conditions` None the run starts from the DC operating
    point; a dict, even an empty one, supplies the t=0 node voltages
    (missing nodes default to 0, ground's "0" is ignored and an unknown
    name raises KeyError).  Source currents given as "i(<source>)" are
    taken; a dict that names none has them settled from the node voltages.
    Steps are trapezoidal, except the first one and, with
    cfg.timestep_control, the first one after each breakpoint, which are
    backward Euler.

    Both modes walk one step ladder.  Time counts in units of
    cfg.timestep / 16, a step is 2**rung units long, and a step lands on
    each breakpoint exactly: one short step when the breakpoint is off
    the unit grid (within a millionth of a unit counts as on it).

    Fixed step (the default) is the ladder held at the rung of one
    cfg.timestep, with tstop as its only breakpoint.  The samples before
    tstop are the k*cfg.timestep grid, bit for bit, and every step before
    the last is exactly cfg.timestep long, so they share one companion
    system.

    With cfg.timestep_control every PWL corner is a breakpoint too, and
    steps reach up to 64 * cfg.timestep.  After each breakpoint come
    BREAKPOINT_STEPS steps of cfg.timestep, the first backward Euler; from
    then on a step whose truncation-error ratio r (_lte_ratio) exceeds 1
    is rejected and retried ceil(log2(r)/3) rungs down, and an accepted
    step with r <= 1/8 lets the next one be a rung longer.  Newton starts
    from the linear predictor through the last two points, except on a
    breakpoint's first step.

    A step that starts at the last accepted solution (every fixed step,
    and a breakpoint's first step) takes the device stamps that solution
    was accepted on for its first iterate, the DC start's on the first
    step of a run that makes one.

    In both modes every accepted step is a sample, and a step whose Newton
    solve fails raises its ConvergenceError at that step's time.
    """
    if not (math.isfinite(tstop) and tstop > 0):
        raise ValueError(f"tstop must be positive and finite, got {tstop}")
    comp = _compiled(circuit)
    waveforms = _waveforms(comp, circuit)
    dc_const = _dc_const(comp, circuit)
    control = cfg.timestep_control
    unit = cfg.timestep / UNITS_PER_TIMESTEP
    sources_at = _source_values(waveforms)
    targets = _breakpoints(waveforms, tstop, unit) if control else [tstop]
    v_floor = CHGTOL / comp.cap_c

    stamps = None  # the device stamps at x_pad, when known
    if initial_conditions is None:
        x_pad, _, stamps = _solve_dc(comp, dc_const)
    else:
        x_pad = np.zeros(comp.size + 1)
        rows = {name: r for r, name in enumerate(comp.solution_names)}
        for name, v in initial_conditions.items():
            if name != GROUND:
                if name not in rows:
                    raise KeyError(f"initial condition names unknown node {name!r}")
                x_pad[rows[name]] = float(v)
        if initial_conditions.keys().isdisjoint(comp.current_names):
            _settle_source_currents(comp, dc_const, x_pad)

    cap_v = x_pad[comp.cap_i] - x_pad[comp.cap_j]
    cap_i_state = np.zeros(comp.n_cap)

    def step(x_in, stamps_in, src_vals, t_new, h, euler):
        # BE at h and trapezoidal at 2h share one multiplier, so one system.
        newton = _Newton(comp, comp.system((1.0 / h) if euler else (2.0 / h)))
        geq = newton.g[comp.n_res:]
        if euler:
            hist = -geq * cap_v
        else:
            hist = -geq * cap_v - cap_i_state
        x_new, iters, stamps_new = newton.solve(x_in, comp.step_const(src_vals, hist), hist,
                                                t_new, stamps_in)
        v_new = x_new[comp.cap_i] - x_new[comp.cap_j]
        return x_new, v_new, geq * v_new + hist, iters, stamps_new

    out_times = [0.0]
    history = [x_pad[: comp.size]]
    lte_rejections = newton_iterations = 0
    # t is anchor + n units, or the last target reached.  A fixed-step
    # run has one target, so its anchor stays at 0 and, at rung
    # TIMESTEP_RUNG, its grid points are (16k) * (timestep / 16), which
    # rounds as k * timestep does.
    t, anchor, n = 0.0, 0.0, 0
    rung, since = TIMESTEP_RUNG, 0  # since: accepted steps since the last breakpoint
    x_prev, h_prev = x_pad, 0.0
    # The last three (time, capacitor voltages) since the last breakpoint,
    # and their _lte_past: built when a step first estimates its error,
    # then rolled forward by each accepted estimate; None until built.
    recent = [(0.0, cap_v)]
    past = None
    for b in targets:
        p = (b - anchor) / unit
        nb = round(p)
        on_grid = nb >= 1 and abs(p - nb) <= 1e-6
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
            if control and since:
                x_in, stamps_in = x_pad + (h / h_prev) * (x_pad - x_prev), None
            else:
                x_in, stamps_in = x_pad, stamps
            x_new, v_new, i_new, iters, stamps_new = step(x_in, stamps_in, sources_at(t_new),
                                                          t_new, h, since == 0)
            newton_iterations += iters
            if control and since >= BREAKPOINT_STEPS:
                if past is None:
                    past = _lte_past(recent)
                ratio, next_past = _lte_ratio(past, t_new, v_new, v_floor)
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
                past = next_past if since > BREAKPOINT_STEPS else None
            if landed:
                break
            n += m
        anchor, n, since, rung = b, 0, 0, TIMESTEP_RUNG
        recent, past = [(b, cap_v)], None

    samples = np.array(history)
    node_voltages = {name: samples[:, comp.node_index[name]].copy() for name in comp.node_names}
    source_currents = {
        name: samples[:, comp.n_nodes + b].copy() for b, (name, _, _) in enumerate(comp.sources)
    }
    return TransientResult(
        times=np.array(out_times), node_voltages=node_voltages, source_currents=source_currents,
        lte_rejections=lte_rejections, newton_iterations=newton_iterations,
    )


def _settle_source_currents(comp: _Compiled, const: np.ndarray, x: np.ndarray) -> None:
    """Back-fill source branch currents for a supplied-IC starting point.

    With node voltages fixed and capacitor currents taken as zero at
    t=0, each source current must absorb the static device/resistor
    current at its positive terminal (or negative, if + is ground).
    `const` is _dc_const's vector and `x` the padded solution.
    """
    f, _ = _Newton(comp, comp.system())._assemble(x, const)
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
