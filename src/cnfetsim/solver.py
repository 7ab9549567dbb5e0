"""Modified nodal analysis: DC operating point and implicit transient.

Unknowns are node voltages plus one branch current per voltage source.
Nonlinear devices are linearized by Newton-Raphson; convergence demands
the KCL residual at every node fall below abstol + reltol * (largest
branch current incident on that node), with source/pin constraint rows
held to vtol.  A gmin conductance from every node to ground regularizes
the matrix (capacitive-input gates make nodes that are DC-floating);
DC non-convergence falls back to gmin stepping (relax x10 up to 1e-3 S,
then re-tighten).

Transient integration is backward Euler or trapezoidal on capacitor
companion models, with a backward-Euler first step.  By default every
step is SolverConfig.timestep long.  With SolverConfig.timestep_control
the trapezoidal step is error-controlled (Nagel, SPICE2, UCB/ERL M520,
1975): the local truncation error of each capacitor voltage, h^3/12
times its third derivative, is estimated from the third divided
difference over the last four points and held to
TRTOL * (reltol * |v| + vtol).  Step lengths come from a geometric
ladder, timestep/16 * 2**rung up to 64 * timestep, so a run is
deterministic and builds few companion matrices; every PWL corner is a
breakpoint that a step lands on, and a backward-Euler step follows it.
In both modes a step whose Newton solve fails is retried one rung
shorter.

The linear solve is one row-equilibrated dense LU with partial pivoting
per Newton iterate; benchmark circuits stay under a hundred nodes, so
sparse machinery would be dead weight.  An iterate assembles the
residual and tolerance scale first and builds the Jacobian only when
convergence fails and a solve follows, so the converged iterate that
ends every solve builds none.

Assembly works on a ground-padded system: the base matrix, residual,
solution and per-node scale carry one trailing entry whose row and
column stand for ground (node index -1), so no stamp branches on a
grounded terminal.  Each Newton iterate evaluates every transistor once
and applies the six Jacobian and two current values per device with one
np.add.at each, through flat indices built at compile time in
device-major, stamp-minor order; every entry is therefore summed in the
order a scalar stamping loop would use, and results match it bit for
bit.  The stamps of one evaluation are one float array that feeds both
scatters.  Device stamps depend on x alone, and a fixed step's first
iterate is the previous step's solution, so the stamps evaluated there
are carried into the next step instead of being recomputed; a controlled
step starts from the linear predictor through the last two points.

One run is single-threaded and deterministic.  Circuits are immutable,
so independent runs parallelize trivially if a caller wants that.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .devices import _drain_current, square_law
from .netlist import GROUND, Circuit, Element, ElementKind, NetlistError

GMIN_STEP_CEILING = 1.0e-3

# Pass bound of the floating-node fixed point, far above the 10 passes
# the slowest benchmark design (CNT-FA3, contracting about 0.24 per
# pass) needs; a sequence whose update stops shrinking fails sooner.
FLOATING_INIT_MAX_PASSES = 100

# Error-controlled transient (SolverConfig.timestep_control).  Time counts
# in units of timestep / UNITS_PER_TIMESTEP and a step is 2**rung units
# long, rung 0 to MAX_RUNG (12.8 ps on the benchmark's 0.2 ps timestep),
# so a run needs few companion matrices.
UNITS_PER_TIMESTEP = 16
TIMESTEP_RUNG = 4
MAX_RUNG = 10
# SPICE2's multiplier on the truncation-error tolerance.
TRTOL = 7.0
# Steps of one timestep after each breakpoint, the first backward Euler,
# before the estimate (which needs four points past the breakpoint) leads.
BREAKPOINT_STEPS = 3


class _Stamps:
    """Device stamps of one Newton iterate as one float array: six Jacobian
    values per transistor in _Compiled.dev_jac order, then two currents per
    transistor in _Compiled.dev_rows order.  Equal when every value is."""

    __slots__ = ("vals",)

    def __init__(self, vals: np.ndarray):
        self.vals = vals

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Stamps) and bool(np.array_equal(self.vals, other.vals))


class Integration(Enum):
    BACKWARD_EULER = "backward_euler"
    TRAPEZOIDAL = "trapezoidal"


class ConvergenceError(Exception):
    """Newton iteration failed; carries the last residual, its row and the timestamp.

    `node` names the row whose final residual exceeds its tolerance by
    the largest factor: a node name, or "i(<source>)" for a voltage
    source's branch row.  `unit` is the residual's unit: "A" for a KCL
    row, "V" for a source or pinned row.
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
    """Newton tolerances and limits, and the transient step policy.

    `timestep` is the transient step.  With `timestep_control` it is the
    base of the error-controlled ladder instead (see transient): the step
    taken after each breakpoint, 16 times the shortest step and 1/64 of
    the longest.  Error control estimates the trapezoidal truncation
    error, so it requires trapezoidal integration.
    """

    abstol: float = 1e-12
    reltol: float = 1e-4
    vtol: float = 1e-6
    max_newton_iters: int = 100
    gmin: float = 1e-12
    timestep: float = 1e-12
    integration: Integration = Integration.TRAPEZOIDAL
    use_initial_conditions: bool = False
    # Newton step clamp, applied only when nonlinear devices are present
    # (a linear circuit must converge in one full-length step).  Kept at
    # junction scale: larger moves overshoot whole square-law regions and
    # re-randomize the device states every iteration.
    max_voltage_step: float = 0.3
    timestep_control: bool = False

    def __post_init__(self) -> None:
        for name in ("abstol", "reltol", "vtol", "gmin", "timestep", "max_voltage_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"SolverConfig.{name} must be positive")
        if self.max_newton_iters < 1:
            raise ValueError("SolverConfig.max_newton_iters must be >= 1")
        if self.timestep_control and self.integration is not Integration.TRAPEZOIDAL:
            raise ValueError("SolverConfig.timestep_control requires trapezoidal integration")


@dataclass
class TransientResult:
    """Time series of node voltages and source branch currents, and step counts.

    accepted_steps counts every accepted step, in a fixed-step run also
    the shorter ones a Newton rejection leaves between grid points;
    lte_rejections and newton_rejections count the steps retried shorter
    for truncation error and for a failed Newton solve; newton_iterations
    counts the linear solves of the Newton solves that converged.
    """

    times: np.ndarray
    node_voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]
    accepted_steps: int = 0
    lte_rejections: int = 0
    newton_rejections: int = 0
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
    """Per-circuit index maps and constant stamps, built once per analysis."""

    def __init__(self, circuit: Circuit):
        if not circuit.is_flat:
            raise NetlistError("not-flat", "solver requires a flattened circuit")
        self.circuit = circuit
        self.node_names = sorted(circuit.nodes - {GROUND})
        self.node_index = {name: i for i, name in enumerate(self.node_names)}
        self.node_index[GROUND] = -1
        self.n_nodes = len(self.node_names)

        self.sources: list[Element] = [
            el for el in circuit.elements if el.kind is ElementKind.VSOURCE
        ]
        self.size = self.n_nodes + len(self.sources)

        # (i, j, conductance) with -1 for ground
        self.resistors: list[tuple[int, int, float]] = []
        # (i, j, capacitance)
        self.capacitors: list[tuple[int, int, float]] = []
        # (d, g, s, polarity_is_handled_inside, k, vth, lam)
        self.devices: list[tuple[int, int, int, object, float, float, float]] = []

        for el in circuit.elements:
            idx = [self.node_index[t] for t in el.terminals]
            if el.kind is ElementKind.RESISTOR:
                self.resistors.append((idx[0], idx[1], 1.0 / el.value))  # type: ignore[operator]
            elif el.kind is ElementKind.CAPACITOR:
                self.capacitors.append((idx[0], idx[1], el.value))  # type: ignore[arg-type]
            elif el.kind in (ElementKind.CNFET, ElementKind.MOSFET):
                p = circuit.models[el.model].params  # validated at parse
                self.devices.append((idx[0], idx[1], idx[2], p.polarity, *square_law(p)))

        self.has_devices = bool(self.devices)
        self._build_arrays()

    def _build_arrays(self) -> None:
        """Index arrays for the residual, scale and device-stamp scatters.

        Every vector and matrix the solver assembles carries one trailing
        ground entry (row and column for the Jacobian), so a ground index
        (-1) lands there and needs no branch; the solution's ground entry
        stays zero and the rest of that padding is never read.
        """
        res_i = [i for i, _, _ in self.resistors]
        res_j = [j for _, j, _ in self.resistors]
        cap_i = [i for i, _, _ in self.capacitors]
        cap_j = [j for _, j, _ in self.capacitors]
        self.res_i = np.array(res_i, dtype=np.intp)
        self.res_j = np.array(res_j, dtype=np.intp)
        self.res_g = np.array([g for _, _, g in self.resistors])
        self.cap_i = np.array(cap_i, dtype=np.intp)
        self.cap_j = np.array(cap_j, dtype=np.intp)
        self.cap_c = np.array([c for _, _, c in self.capacitors])
        self.n_res = len(self.resistors)
        self.n_cap = len(self.capacitors)
        self.n_src = len(self.sources)
        self.n_branch = self.n_res + self.n_cap + self.n_src
        # Device stamps, device-major and in the order the scalar loop
        # applied them, so np.add.at sums every entry in that order: drain
        # row (d, g, s), then source row (s, d, g) of the padded Jacobian,
        # and the drain current into d then out of s.
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
        # Current vector layout: resistors, capacitors, sources, then the
        # two device stamps.  scale_node[k] takes max(|current[scale_branch[k]]|).
        ends_i = res_i + cap_i + [self.node_index[el.terminals[0]] for el in self.sources]
        ends_j = res_j + cap_j + [self.node_index[el.terminals[1]] for el in self.sources]
        branches = list(range(self.n_branch))
        self.n_currents = self.n_branch + len(dev_rows)
        self.scale_node = np.array(ends_i + ends_j + dev_rows, dtype=np.intp)
        self.scale_branch = np.array(
            branches + branches + list(range(self.n_branch, self.n_currents)), dtype=np.intp
        )

    def base_matrix(self, gmin: float, cap_geq: float | None) -> np.ndarray:
        """Constant part of the Jacobian: resistors, gmin, sources, companions.

        cap_geq is the companion conductance multiplier applied to each
        capacitance (1/h for backward Euler, 2/h for trapezoidal); None
        opens the capacitors (DC analysis).  The matrix is (size+1)^2: the
        last row and column stand for ground.
        """
        g = np.zeros((self.size + 1, self.size + 1))
        for i in range(self.n_nodes):
            g[i, i] += gmin
        for i, j, cond in self.resistors:
            _stamp_conductance(g, i, j, cond)
        if cap_geq is not None:
            for i, j, c in self.capacitors:
                _stamp_conductance(g, i, j, cap_geq * c)
        for b, el in enumerate(self.sources):
            row = self.n_nodes + b
            p, m = self.node_index[el.terminals[0]], self.node_index[el.terminals[1]]
            g[p, row] += 1.0
            g[row, p] += 1.0
            g[m, row] -= 1.0
            g[row, m] -= 1.0
        return g


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
    r = np.abs(jac).max(axis=1)
    r[r == 0.0] = 1.0
    return np.linalg.solve(jac / r[:, None], rhs / r)


def _voltage_box(comp: _Compiled) -> tuple[float, float]:
    """Node-voltage bounds for Newton: the source range plus headroom.

    Every voltage in a source-driven RC/FET circuit lies between the
    extreme source levels; allowing half the swing (at least 1 V) of
    overshoot keeps iterates out of absurd square-law regions without
    ever binding at the solution.
    """
    levels = [0.0]
    for el in comp.sources:
        wf = el.waveform
        assert wf is not None
        if wf.kind == "dc":
            levels.append(wf.level)
        else:
            levels.extend(v for _, v in wf.points)
    lo, hi = min(levels), max(levels)
    slack = max(hi - lo, 1.0)
    return lo - 0.5 * slack, hi + 0.5 * slack


def _stamp_conductance(g: np.ndarray, i: int, j: int, cond: float) -> None:
    g[i, i] += cond
    g[j, j] += cond
    g[i, j] -= cond
    g[j, i] -= cond


class _Newton:
    """Newton solves against one fixed base matrix.

    The residual is F(x) = base @ x + const + device currents; `const`,
    an argument of each solve, holds -V(t) in source rows and capacitor
    companion history currents in node rows.  Pinned rows replace a node's KCL equation with
    v_node = value (used by the floating-node initializer).  Vectors and
    matrices are ground-padded (see _Compiled._build_arrays).
    """

    def __init__(self, comp: _Compiled, cfg: SolverConfig, base: np.ndarray,
                 pinned: list[tuple[int, float]] | None = None):
        self.comp = comp
        self.cfg = cfg
        self.base = base
        self.base_core = base[: comp.size, : comp.size]
        self.pinned = pinned or []
        self.pinned_rows = [row for row, _ in self.pinned]
        self.v_lo, self.v_hi = _voltage_box(comp)

    def _assemble(self, x_pad: np.ndarray, const: np.ndarray,
                  cap_companion: tuple[np.ndarray, np.ndarray], stamps: _Stamps | None = None
                  ) -> tuple[np.ndarray, np.ndarray, _Stamps]:
        """Padded residual, per-node scale and the device stamps.

        `const` and `cap_companion` are as in solve.  `stamps` are device
        stamps already evaluated at this x_pad; device stamps depend on x
        alone, so a caller may carry them between solves.  The Jacobian
        at x_pad is _jacobian(stamps).
        """
        comp = self.comp
        nn, size, nb = comp.n_nodes, comp.size, comp.n_branch
        x = x_pad[:size]
        f = const.copy()
        f[:size] += self.base_core @ x

        # Branch currents (resistors, capacitors, sources) and the device
        # stamps feed the per-node tolerance scale.
        currents = np.empty(comp.n_currents)
        currents[: comp.n_res] = comp.res_g * (x_pad[comp.res_i] - x_pad[comp.res_j])
        geq, hist = cap_companion
        currents[comp.n_res: comp.n_res + comp.n_cap] = (
            geq * (x_pad[comp.cap_i] - x_pad[comp.cap_j]) + hist
        )
        currents[comp.n_res + comp.n_cap: nb] = x[nn:]

        if comp.has_devices:
            if stamps is None:
                xl = x_pad.tolist()
                jac_vals: list[float] = []
                cur_vals: list[float] = []
                for d, g_, s, pol, k, vth, lam in comp.devices:
                    vs = xl[s]
                    i_ds, gm, gds = _drain_current(pol, k, vth, lam, xl[g_] - vs, xl[d] - vs)
                    jac_vals += (gds, gm, -(gm + gds), gm + gds, -gds, -gm)
                    cur_vals += (i_ds, -i_ds)
                stamps = _Stamps(np.array(jac_vals + cur_vals))
            dev_currents = stamps.vals[comp.n_jac:]
            currents[nb:] = dev_currents
            np.add.at(f, comp.dev_rows, dev_currents)
        scale = np.zeros(nn + 1)
        np.maximum.at(scale, comp.scale_node, np.abs(currents[comp.scale_branch]))

        for row, value in self.pinned:
            f[row] = x[row] - value
        return f, scale[:nn], stamps

    def _jacobian(self, stamps: _Stamps | None) -> np.ndarray:
        """Padded Jacobian: the base matrix plus the device stamps, with
        each pinned row replaced by its v_node = value equation."""
        jac = self.base.copy()
        if self.comp.has_devices:
            np.add.at(jac.ravel(), self.comp.dev_jac, stamps.vals[: self.comp.n_jac])
        for row in self.pinned_rows:
            jac[row, :] = 0.0
            jac[row, row] = 1.0
        return jac

    def _converged(self, f: np.ndarray, scale: np.ndarray) -> bool:
        cfg = self.cfg
        n = self.comp.n_nodes
        node_tol = cfg.abstol + cfg.reltol * scale
        node_res = np.abs(f[:n])
        if self.pinned_rows:
            for row in self.pinned_rows:
                if abs(f[row]) > cfg.vtol:
                    return False
                node_res[row] = 0.0
        if (node_res > node_tol).any():
            return False
        return bool((np.abs(f[n: self.comp.size]) <= cfg.vtol).all())

    def solve(self, x0_pad: np.ndarray, const: np.ndarray,
              cap_companion: tuple[np.ndarray, np.ndarray], time: float | None = None,
              stamps: _Stamps | None = None) -> tuple[np.ndarray, int, _Stamps]:
        """Returns (padded solution, iterations, device stamps at the solution).

        Iterations counts linear solves.  `x0_pad` and `const` are
        ground-padded, and x0_pad is not modified; `cap_companion` holds
        each capacitor's companion conductance and history current, read
        for the tolerance scale; `stamps`, if given, are the device
        stamps at x0_pad (the previous solve's third result when x0_pad
        is its solution).  The Jacobian is built only when a linear
        solve follows, so a converged iterate builds none.

        Nonlinear steps are safeguarded by a per-component voltage clamp
        plus cumulative damping of direction-reversing components; a
        linear circuit takes the raw Newton step and lands exactly in
        one iteration.
        """
        cfg = self.cfg
        nn, size = self.comp.n_nodes, self.comp.size
        x_pad = x0_pad.copy()
        x = x_pad[:size]
        prev_dx: np.ndarray | None = None
        # Every component starts undamped; the per-component array is
        # made at the first direction test.
        damp: float | np.ndarray = 1.0
        for it in range(cfg.max_newton_iters + 1):
            f, scale, stamps = self._assemble(
                x_pad, const, cap_companion, stamps if it == 0 else None
            )
            if self._converged(f, scale):
                return x_pad, it, stamps
            if it == cfg.max_newton_iters:
                break
            jac = self._jacobian(stamps)
            try:
                dx = _lin_solve(jac[:size, :size], -f[:size])
            except np.linalg.LinAlgError as exc:
                raise self._failure(f"singular MNA matrix: {exc}", f, scale, time) from exc
            if self.comp.has_devices:
                # An inverter output on its vertical transfer segment (both
                # devices saturated, gmin-only diagonal) legitimately asks
                # for a kilovolt move; clamping per component lets that node
                # walk to its region in a few steps without squashing the
                # rest of the update.  Components that keep reversing
                # direction get a cumulative damping factor: that collapses
                # the period-2 orbits Newton falls into at the square law's
                # curvature kinks (the usual transmission-gate contention
                # jam), while monotone region walks keep full speed.
                np.clip(dx[:nn], -cfg.max_voltage_step, cfg.max_voltage_step, out=dx[:nn])
                if prev_dx is not None:
                    damp = np.where(dx * prev_dx < 0.0, np.maximum(damp * 0.5, 1.0 / 256.0),
                                    np.minimum(damp * 2.0, 1.0))
                prev_dx = dx
                x += damp * dx
                np.clip(x[:nn], self.v_lo, self.v_hi, out=x[:nn])
            else:
                x += dx
        raise self._failure(f"Newton failed after {cfg.max_newton_iters} iterations", f, scale,
                            time)

    def _failure(self, message: str, f: np.ndarray, scale: np.ndarray,
                 time: float | None) -> ConvergenceError:
        """The error for residual f, naming the row (node or source branch)
        that exceeds its own _converged criterion by the largest factor.

        Node rows are currents and source or pinned rows are voltages, so
        each is measured against its own tolerance before they are compared.
        """
        comp = self.comp
        cfg = self.cfg
        if not comp.size:
            return ConvergenceError(message, 0.0, time)
        res = np.abs(f[: comp.size])
        tol = np.full(comp.size, cfg.vtol)
        tol[: comp.n_nodes] = cfg.abstol + cfg.reltol * scale
        tol[self.pinned_rows] = cfg.vtol
        row = int((res / tol).argmax())
        if row < comp.n_nodes:
            node = comp.node_names[row]
        else:
            node = f"i({comp.sources[row - comp.n_nodes].name})"
        unit = "A" if row < comp.n_nodes and row not in self.pinned_rows else "V"
        return ConvergenceError(message, float(res[row]), time, node, unit)


def _source_const(comp: _Compiled, values: list[float]) -> np.ndarray:
    const = np.zeros(comp.size + 1)
    for b, v in enumerate(values):
        const[comp.n_nodes + b] = -v
    return const


def _solve_dc(comp: _Compiled, cfg: SolverConfig, t: float = 0.0,
              pinned: list[tuple[int, float]] | None = None,
              initial_guess: np.ndarray | None = None,
              src_overrides: dict[int, float] | None = None) -> tuple[np.ndarray, int]:
    """DC solve with gmin stepping fallback: relax x10 to 1e-3 S, re-tighten."""
    src_values = [el.waveform.value_at(t) for el in comp.sources]  # type: ignore[union-attr]
    if src_overrides:
        for b, v in src_overrides.items():
            src_values[b] = v
    const = _source_const(comp, src_values)
    no_caps = (np.zeros(comp.n_cap), np.zeros(comp.n_cap))
    x0 = initial_guess if initial_guess is not None else np.zeros(comp.size)

    def attempt(gmin: float, guess: np.ndarray) -> tuple[np.ndarray, int]:
        newton = _Newton(comp, cfg, comp.base_matrix(gmin, None), pinned)
        x, iters, _ = newton.solve(np.append(guess, 0.0), const, no_caps)
        return x[: comp.size], iters

    try:
        return attempt(cfg.gmin, x0)
    except ConvergenceError as first_failure:
        # Walk gmin up until something converges, then walk back down.
        ladder: list[float] = []
        g = cfg.gmin * 10.0
        while g <= GMIN_STEP_CEILING:
            ladder.append(g)
            g *= 10.0
        x = None
        start = None
        for idx, g in enumerate(ladder):
            try:
                x, _ = attempt(g, x0)
                start = idx
                break
            except ConvergenceError:
                continue
        if x is None or start is None:
            raise first_failure
        for g in reversed(ladder[:start]):
            try:
                x, _ = attempt(g, x)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"gmin stepping stalled while re-tightening at gmin={g:.1e} S",
                    exc.residual, node=exc.node, unit=exc.unit,
                ) from exc
        try:
            return attempt(cfg.gmin, x)
        except ConvergenceError as exc:
            raise ConvergenceError(
                "gmin stepping converged only with relaxed gmin", exc.residual, node=exc.node,
                unit=exc.unit,
            ) from exc


def dc_operating_point(circuit: Circuit, cfg: SolverConfig | None = None,
                       initial_guess: dict[str, float] | None = None) -> dict[str, float]:
    """Newton-converged DC solution; capacitors open, gmin to ground everywhere.

    Returns node -> volts including ground, plus one "i(<source>)" entry
    per voltage source carrying its branch current (positive current
    flows from the + terminal through the source to the - terminal).
    """
    cfg = cfg or SolverConfig()
    comp = _Compiled(circuit)
    guess = None
    if initial_guess:
        guess = np.zeros(comp.size)
        for name, v in initial_guess.items():
            idx = comp.node_index.get(name, -1)
            if idx >= 0:
                guess[idx] = v
    x, _ = _solve_dc(comp, cfg, pinned=None, initial_guess=guess)
    return _solution_dict(comp, x)


def dc_source_solver(circuit: Circuit, source: str,
                     cfg: SolverConfig | None = None) -> Callable[[float], dict[str, float]]:
    """DC operating point of `circuit` as a function of one source's level.

    The circuit is compiled once; each call solves from scratch with
    `source` held at the given volts and returns what
    dc_operating_point(circuit.with_dc_source(source, level), cfg) would.
    """
    cfg = cfg or SolverConfig()
    comp = _Compiled(circuit)
    names = [el.name for el in comp.sources]
    if source not in names:
        raise KeyError(f"no voltage source named {source!r}")
    branch = names.index(source)

    def solve(level: float) -> dict[str, float]:
        x, _ = _solve_dc(comp, cfg, src_overrides={branch: level})
        return _solution_dict(comp, x)

    return solve


def _solution_dict(comp: _Compiled, x: np.ndarray) -> dict[str, float]:
    out = {name: float(x[i]) for name, i in comp.node_index.items() if i >= 0}
    out[GROUND] = 0.0
    for b, el in enumerate(comp.sources):
        out[f"i({el.name})"] = float(x[comp.n_nodes + b])
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
    for el in comp.sources:
        anchored.update(
            comp.node_index[t] for t in el.terminals if comp.node_index[t] >= 0
        )
    for d, _, s, *_ in comp.devices:
        anchored.update(t for t in (d, s) if t >= 0)
    return {n for n in caps_at if n not in anchored}


def _charge_share(comp: _Compiled, floating: set[int], known: dict[int, float]) -> dict[int, float]:
    """Zero-stored-charge solution of each floating cluster.

    A single floating node reduces to sum(C_i * V_i) / sum(C_i) over its
    capacitors' far-end driven voltages; clusters coupled through
    capacitors solve as one linear system.  A cluster with no driven
    boundary at all has no unique solution and raises.
    """
    order = sorted(floating)
    pos = {n: i for i, n in enumerate(order)}
    k = len(order)
    a = np.zeros((k, k))
    b = np.zeros(k)
    driven_touch = [False] * k
    for i, j, c in comp.capacitors:
        for this, other in ((i, j), (j, i)):
            if this not in pos:
                continue
            r = pos[this]
            a[r, r] += c
            if other in pos:
                a[r, pos[other]] -= c
            else:
                b[r] += c * (known[other] if other >= 0 else 0.0)
                driven_touch[r] = True

    # Every connected component must touch at least one driven node.
    adj: dict[int, set[int]] = {n: set() for n in order}
    for i, j, _ in comp.capacitors:
        if i in pos and j in pos:
            adj[i].add(j)
            adj[j].add(i)
    seen: set[int] = set()
    for start in order:
        if start in seen:
            continue
        comp_nodes = []
        stack = [start]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            comp_nodes.append(n)
            stack.extend(adj[n] - seen)
        if not any(driven_touch[pos[n]] for n in comp_nodes):
            names = ", ".join(comp.node_names[n] for n in sorted(comp_nodes))
            raise IllConditionedDividerError(
                f"capacitive nodes coupled only to other capacitive nodes: {names}"
            )
    sol = np.linalg.solve(a, b)
    return {n: float(sol[pos[n]]) for n in order}


def initialize_floating_nodes(circuit: Circuit, input_levels: dict[str, float] | None = None,
                              cfg: SolverConfig | None = None) -> dict[str, float]:
    """Consistent initial node voltages with capacitive nodes charge-shared.

    Purely-capacitive nodes take the zero-stored-charge divider value of
    their far-end driven voltages; every other node comes from a DC
    operating point computed with those nodes pinned.  Because a divider
    may hang off a gate output that itself depends on another divider,
    the pin/solve cycle iterates to a fixed point (feed-forward ladders
    settle in one pass per stage; designs with capacitive feedback
    contract geometrically and take more).  Raises ConvergenceError when,
    after len(floating) + 3 passes, an update fails to shrink, or when
    FLOATING_INIT_MAX_PASSES pass.
    """
    cfg = cfg or SolverConfig()
    comp = _Compiled(circuit)
    # For a node already driven by a grounded source, an input level
    # overrides the source value; otherwise the node's KCL row is pinned.
    source_at: dict[int, int] = {}
    for b, el in enumerate(comp.sources):
        p, m = comp.node_index[el.terminals[0]], comp.node_index[el.terminals[1]]
        if p >= 0 and m == -1:
            source_at.setdefault(p, b)
    levels: dict[int, float] = {}
    src_overrides: dict[int, float] = {}
    if input_levels:
        for name, v in input_levels.items():
            idx = comp.node_index.get(name)
            if idx is None:
                raise KeyError(f"input level names unknown node {name!r}")
            if idx < 0:
                continue
            if idx in source_at:
                src_overrides[source_at[idx]] = float(v)
            else:
                levels[idx] = float(v)

    floating = _floating_nodes(comp)
    tol = max(cfg.vtol, 1e-9)
    # A feed-forward ladder moves its last stage by a full step on every
    # pass until the correction reaches it, so the update may hold steady
    # for one pass per floating node; only later passes must shrink.
    settle_passes = len(floating) + 3
    values: dict[int, float] = {}
    x = None
    last_update = math.inf
    for passes in range(FLOATING_INIT_MAX_PASSES):
        pins = [(idx, v) for idx, v in {**values, **levels}.items()]
        x, _ = _solve_dc(comp, cfg, pinned=pins, initial_guess=x, src_overrides=src_overrides)
        if not floating:
            break
        known = {i: float(x[i]) for i in range(comp.n_nodes)}
        known.update(levels)
        new_values = _charge_share(comp, floating, known)
        if values:
            worst = max(floating, key=lambda n: abs(new_values[n] - values[n]))
            update = abs(new_values[worst] - values[worst])
            if update <= tol:
                values = new_values
                break
            if passes >= settle_passes and update >= last_update:
                raise ConvergenceError(
                    f"floating-node initialization stalled (update {update:.3e} V "
                    f"after {last_update:.3e} V)", node=comp.node_names[worst],
                )
            last_update = update
        values = new_values
    else:
        raise ConvergenceError("floating-node initialization did not reach a fixed point")

    pins = [(idx, v) for idx, v in {**values, **levels}.items()]
    x, _ = _solve_dc(comp, cfg, pinned=pins, initial_guess=x, src_overrides=src_overrides)
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


def _breakpoints(comp: _Compiled, tstop: float, unit: float) -> list[float]:
    """Every PWL corner in (0, tstop), then tstop.  A corner within a
    thousandth of a unit of t=0 or of the next one kept is dropped."""
    corners = sorted({t for el in comp.sources if el.waveform.kind != "dc"  # type: ignore[union-attr]
                      for t, _ in el.waveform.points if 0.0 < t < tstop})  # type: ignore[union-attr]
    kept = [tstop]
    for b in reversed(corners):
        if kept[-1] - b > 1e-3 * unit and b > 1e-3 * unit:
            kept.append(b)
    return kept[::-1]


def _source_values(comp: _Compiled) -> Callable[[float | np.ndarray], np.ndarray]:
    """Source levels at a time or an array of times, one row per source.

    PWL is interpolation with constant extrapolation, which is exactly
    np.interp, so a level read at one time equals the one read on a grid.
    """
    table: list[float | tuple[np.ndarray, np.ndarray]] = []
    for el in comp.sources:
        wf = el.waveform
        assert wf is not None
        if wf.kind == "dc":
            table.append(wf.level)
        else:
            table.append((np.array([t for t, _ in wf.points]), np.array([v for _, v in wf.points])))

    def at(t: float | np.ndarray) -> np.ndarray:
        out = np.empty((comp.n_src, *np.shape(t)))
        for b, entry in enumerate(table):
            out[b] = np.interp(t, *entry) if isinstance(entry, tuple) else entry
        return out

    return at


def _lte_ratio(points: list[tuple[float, np.ndarray]], cfg: SolverConfig) -> float:
    """Largest trapezoidal truncation-error estimate over its tolerance.

    `points` are the last four (time, capacitor voltages), newest last.
    The error of the newest step h is h^3 * DD3 / 2, DD3 being the third
    divided difference over the four points (a sixth of the third
    derivative, so this is the trapezoidal rule's h^3/12 times it); each
    capacitor voltage v is held to TRTOL * (reltol * |v| + vtol).
    """
    (t0, v0), (t1, v1), (t2, v2), (t3, v3) = points
    d01 = (v1 - v0) / (t1 - t0)
    d12 = (v2 - v1) / (t2 - t1)
    d23 = (v3 - v2) / (t3 - t2)
    dd3 = ((d23 - d12) / (t3 - t1) - (d12 - d01) / (t2 - t0)) / (t3 - t0)
    err = 0.5 * (t3 - t2) ** 3 * np.abs(dd3)
    return float((err / (TRTOL * (cfg.reltol * np.abs(v3) + cfg.vtol))).max(initial=0.0))


def transient(circuit: Circuit, cfg: SolverConfig, tstop: float,
              initial_conditions: dict[str, float] | None = None) -> TransientResult:
    """Implicit transient over [0, tstop], fixed-step or error-controlled.

    Starts from the DC operating point unless cfg.use_initial_conditions,
    in which case `initial_conditions` supplies the t=0 node voltages
    (missing nodes default to 0).  The first step is always backward
    Euler; later steps follow cfg.integration.

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
    (_lte_ratio) exceeds 1 is rejected and retried ceil(log2(r)/3) rungs
    down, and an accepted step with r <= 1/8 lets the next one be a rung
    longer.  Newton starts from the linear predictor through the last two
    points, except on a breakpoint's first step.  Every accepted point is
    a sample.

    In both modes a step whose Newton solve fails is retried one rung
    down; the ConvergenceError is raised when a step of one unit fails.
    A fixed-step run records only its grid points.
    """
    if tstop <= 0:
        raise ValueError(f"tstop must be positive, got {tstop}")
    comp = _Compiled(circuit)
    control = cfg.timestep_control
    unit = cfg.timestep / UNITS_PER_TIMESTEP
    sources_at = _source_values(comp)
    if control:
        targets = _breakpoints(comp, tstop, unit)
    else:
        times, n_full = _time_grid(tstop, cfg.timestep)
        targets = times[1:].tolist()
        src_grid = sources_at(times)

    x = np.zeros(comp.size)
    if cfg.use_initial_conditions:
        ics = initial_conditions or {}
        source_rows = {f"i({el.name})": comp.n_nodes + b for b, el in enumerate(comp.sources)}
        have_currents = False
        for name, v in ics.items():
            if name in source_rows:
                x[source_rows[name]] = float(v)
                have_currents = True
                continue
            idx = comp.node_index.get(name)
            if idx is None:
                raise KeyError(f"initial condition names unknown node {name!r}")
            if idx >= 0:
                x[idx] = float(v)
        if not have_currents:
            _settle_source_currents(comp, cfg, x, t=0.0)
    else:
        x, _ = _solve_dc(comp, cfg, pinned=None)

    x_pad = np.append(x, 0.0)
    cap_v = x_pad[comp.cap_i] - x_pad[comp.cap_j]
    cap_i_state = np.zeros(comp.n_cap)

    # Companion matrices of ladder lengths are kept; an off-ladder step
    # (a landing on a breakpoint) builds its own.
    base_cache: dict[tuple[str, float], _Newton] = {}

    def step(x_in, stamps_in, src_vals, t_new, h, method, ladder):
        geq_mult = (1.0 / h) if method is Integration.BACKWARD_EULER else (2.0 / h)
        geq = geq_mult * comp.cap_c
        if method is Integration.BACKWARD_EULER:
            hist = -geq * cap_v
        else:
            hist = -geq * cap_v - cap_i_state
        const = np.zeros(comp.size + 1)
        const[comp.n_nodes: comp.size] = -src_vals
        np.add.at(const, comp.cap_i, hist)
        np.subtract.at(const, comp.cap_j, hist)
        key = (method.value, h)
        newton = base_cache.get(key)
        if newton is None:
            newton = _Newton(comp, cfg, comp.base_matrix(cfg.gmin, geq_mult))
            if ladder:
                base_cache[key] = newton
        x_new, iters, stamps_out = newton.solve(
            x_in, const, (geq, hist), time=t_new, stamps=stamps_in
        )
        v_new = x_new[comp.cap_i] - x_new[comp.cap_j]
        return x_new, v_new, geq * v_new + hist, stamps_out, iters

    out_times = [0.0]
    history = [x_pad[: comp.size]]
    accepted = lte_rejections = newton_rejections = newton_iterations = 0
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
            method = Integration.BACKWARD_EULER if since == 0 else cfg.integration
            src = src_grid[:, k + 1] if landed and not control else sources_at(t_new)
            if control and since:
                x_in, stamps_in = x_pad + (h / h_prev) * (x_pad - x_prev), None
            else:
                x_in, stamps_in = x_pad, stamps
            try:
                x_new, v_new, i_new, stamps_new, iters = step(
                    x_in, stamps_in, src, t_new, h, method, ladder
                )
            except ConvergenceError:
                if units <= 1:
                    raise
                newton_rejections += 1
                rung = math.ceil(math.log2(units)) - 1
                continue
            newton_iterations += iters
            if control and since >= BREAKPOINT_STEPS:
                ratio = _lte_ratio([*recent, (t_new, v_new)], cfg)
                if ratio > 1.0 and units > 1:
                    lte_rejections += 1
                    drop = math.ceil(math.log2(ratio) / 3)
                    rung = max(math.ceil(math.log2(units)) - drop, 0)
                    continue
                if ratio <= 0.125 and rung < MAX_RUNG:
                    rung += 1
            accepted += 1
            x_prev, h_prev = x_pad, h
            x_pad, cap_v, cap_i_state, stamps = x_new, v_new, i_new, stamps_new
            t = t_new
            since += 1
            if control:
                recent = [*recent[-2:], (t, cap_v)]
                out_times.append(t)
                history.append(x_pad[: comp.size])
            if landed:
                break
            n += m
        rung = TIMESTEP_RUNG
        if control:
            anchor, n, since = b, 0, 0
            recent = [(b, cap_v)]
        else:
            n = nb
            history.append(x_pad[: comp.size])

    samples = np.array(history)
    node_voltages = {name: samples[:, comp.node_index[name]].copy() for name in comp.node_names}
    source_currents = {
        el.name: samples[:, comp.n_nodes + b].copy() for b, el in enumerate(comp.sources)
    }
    return TransientResult(
        times=np.array(out_times) if control else times, node_voltages=node_voltages,
        source_currents=source_currents, accepted_steps=accepted,
        lte_rejections=lte_rejections, newton_rejections=newton_rejections,
        newton_iterations=newton_iterations,
    )


def _settle_source_currents(comp: _Compiled, cfg: SolverConfig, x: np.ndarray, t: float) -> None:
    """Back-fill source branch currents for a supplied-IC starting point.

    With node voltages fixed and capacitor currents taken as zero at
    t=0, each source current must absorb the static device/resistor
    current at its positive terminal (or negative, if + is ground).
    """
    src_values = [el.waveform.value_at(t) for el in comp.sources]  # type: ignore[union-attr]
    const = _source_const(comp, src_values)
    newton = _Newton(comp, cfg, comp.base_matrix(cfg.gmin, None))
    no_caps = (np.zeros(comp.n_cap), np.zeros(comp.n_cap))
    f, _, _ = newton._assemble(np.append(x, 0.0), const, no_caps)
    for b, el in enumerate(comp.sources):
        p = comp.node_index[el.terminals[0]]
        m = comp.node_index[el.terminals[1]]
        row = comp.n_nodes + b
        if p >= 0:
            delta = -f[p]
            x[row] += delta
            f[p] += delta
        elif m >= 0:
            delta = f[m]
            x[row] += delta
            f[m] -= delta
