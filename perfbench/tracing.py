"""Spans and counters around the calls into each cnfetsim module.

The tracer wraps module functions and methods from outside: nothing in
the package is edited.  A wrapped function is replaced in every cnfetsim
module that holds it, so a name imported with `from .solver import ...`
is traced as well as `solver.<name>`.  Calls at module boundaries are
kept as spans (name, start, end, parent, operation); the solver's inner
loop (`_Newton.solve`, `_Newton._assemble`, `_lin_solve`, `_Compiled`)
runs about a million times per matrix, so there only time and counts are
kept.  A hook that names something the package no longer has is skipped
and listed under `missing`; the metrics that depend on it then read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, span name, kept as a span)
HOOKS = [
    ("bench", "run_matrix", "bench.matrix", True),
    ("bench", "run_cell", "bench.cell", True),
    ("charts", "write_charts", "charts.write", True),
    ("adders", "build_adder", "adders.build", True),
    ("adders", "build_testbench", "adders.build", True),
    ("adders", "build_threshold_inverter_gate", "adders.gate_build", True),
    ("adders", "measure_switching_threshold", "adders.threshold", True),
    ("adders", "synthesize_gate_chiralities", "adders.synthesis", True),
    ("logic", "verify_adder_network", "logic.verify", True),
    ("netlist", "Circuit.with_dc_source", "netlist.with_dc_source", True),
    ("solver", "initialize_floating_nodes", "solver.init", True),
    ("solver", "transient", "solver.transient", True),
    ("solver", "dc_operating_point", "solver.dc_op", True),
    ("measure", "full_swing_check", "measure.swing_check", True),
    ("measure", "average_power", "measure.power", True),
    ("measure", "propagation_delay", "measure.delay", True),
    ("solver", "_solve_dc", "solver.solve_dc", False),
    ("solver", "_Compiled.__init__", "solver.compile", False),
    ("solver", "_Compiled.base_matrix", "solver.base_matrix", False),
    ("solver", "_Newton.solve", "solver.newton", False),
    ("solver", "_Newton._assemble", "solver.assemble", False),
    ("solver", "_lin_solve", "solver.lin_solve", False),
]

# Calls whose first argument is the circuit being analysed.
_CIRCUIT_PHASES = {"solver.transient": "transient", "solver.dc_op": "dc", "solver.init": "init"}


def _transistor_count(circuit) -> int:
    return sum(1 for el in circuit.elements if el.kind.value in ("cnfet", "mosfet"))


class Tracer:
    """Install with `install(package_modules)`, undo with `restore()`.

    While `enabled` is false the wrappers call straight through, so the
    benchmark's own checks do not count as traced work.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op = 0
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.newton_iters_max = 0
        self.missing: list[str] = []
        self._open: list[int] = []          # span ids, innermost last
        self._phase: list[tuple[str, int]] = []  # (phase, transistors)
        self._solve_dc: list[int] = []      # Newton solves per open _solve_dc
        self._active: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # --- installation ------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, path, name, keep_span in HOOKS:
            owner = modules[mod_name]
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapped = self._wrap(orig, name, keep_span)
            if parents:
                self._set(owner, attr, orig, wrapped)
                continue
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, orig, wrapped)
        fmts = modules["bench"].FORMATTERS
        for key, orig in list(fmts.items()):
            fmts[key] = self._wrap(orig, "bench.report", True)
            self._undo.append((fmts, key, orig))

    def _set(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, orig))

    def restore(self) -> None:
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, func, name: str, keep_span: bool):
        tracer = self
        phase = _CIRCUIT_PHASES.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            tracer.calls[name] += 1
            tracer._enter(name, args, phase)
            span_id = len(tracer.spans)
            if keep_span:
                tracer.spans.append(None)  # placeholder, filled on exit
                parent = tracer._open[-1] if tracer._open else -1
                tracer._open.append(span_id)
            t0 = time.perf_counter()
            ok = False
            try:
                out = func(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                tracer.seconds[name] += t1 - t0
                if keep_span:
                    tracer._open.pop()
                    tracer.spans[span_id] = (span_id, parent, tracer.op, name, t0, t1)
                tracer._exit(name, args, phase, out if ok else None, ok)

        return wrapper

    def _enter(self, name: str, args, phase: str | None) -> None:
        self._active[name] += 1
        if phase is not None:
            self._phase.append((phase, _transistor_count(args[0])))
            if name == "solver.dc_op" and self._active["adders.threshold"]:
                self.counts["adders.threshold_dc_solves"] += 1
        elif name == "solver.solve_dc":
            self._phase.append(("dc", self._phase[-1][1] if self._phase else 0))
            self._solve_dc.append(0)
        elif name == "solver.assemble":
            devices = self._phase[-1][1] if self._phase else 0
            self.counts["devices.evals"] += devices
            if self._phase and self._phase[-1][0] == "transient":
                self.counts["devices.transient_evals"] += devices

    def _exit(self, name: str, args, phase: str | None, out, ok: bool) -> None:
        self._active[name] -= 1
        if phase is not None or name == "solver.solve_dc":
            self._phase.pop()
        if name == "solver.solve_dc":
            self.counts["solver.gmin_ladder_attempts"] += max(self._solve_dc.pop() - 1, 0)
        elif name == "solver.transient" and ok:
            self.counts["solver.steps"] += len(out.times) - 1
            self.counts["solver.sim_s"] += float(out.times[-1] - out.times[0])
        elif name == "solver.newton":
            if self._solve_dc:
                self._solve_dc[-1] += 1
            where = self._phase[-1][0] if self._phase else "dc"
            if where == "transient":
                if ok:
                    self.counts["solver.transient_newton_iters"] += out[1]
                    self.newton_iters_max = max(self.newton_iters_max, out[1])
                else:
                    self.counts["solver.step_retries"] += 1
            elif ok:
                self.counts["solver.dc_newton_iters"] += out[1]

    # --- results -----------------------------------------------------------

    def metrics(self, ops: int, scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced operation unless the name says otherwise.

        Times are multiplied by `scale`, the calibrated host speed factor.
        """
        s = defaultdict(float, {name: t * scale for name, t in self.seconds.items()})
        c = self.counts
        steps = c["solver.steps"]
        t_tr = s["solver.transient"]

        def per_op(x: float) -> float:
            return x / ops

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "bench.cell_s": (per_op(s["bench.cell"]), "s"),
            "bench.matrix_overhead_s": (per_op(s["bench.matrix"] - s["bench.cell"]), "s"),
            "bench.report_s": (per_op(s["bench.report"]), "s"),
            "charts.write_s": (per_op(s["charts.write"]), "s"),
            "solver.transient_s": (per_op(t_tr), "s"),
            "solver.steps": (per_op(steps), "count"),
            "solver.step_us": (ratio(t_tr, steps) * 1e6, "us"),
            "solver.sim_ns_per_s": (ratio(c["solver.sim_s"] * 1e9, t_tr), "ns/s"),
            "solver.newton_iters_per_step": (ratio(c["solver.transient_newton_iters"], steps), "iter/step"),
            "solver.newton_iters_max": (float(self.newton_iters_max), "iter"),
            "solver.step_retries": (per_op(c["solver.step_retries"]), "count"),
            "solver.assemble_s": (per_op(s["solver.assemble"]), "s"),
            "solver.assemble_calls": (per_op(self.calls["solver.assemble"]), "count"),
            "solver.lin_solve_s": (per_op(s["solver.lin_solve"]), "s"),
            "solver.lin_solves": (per_op(self.calls["solver.lin_solve"]), "count"),
            "devices.evals": (per_op(c["devices.evals"]), "count"),
            "devices.evals_per_step": (ratio(c["devices.transient_evals"], steps), "eval/step"),
            "solver.compile_s": (per_op(s["solver.compile"]), "s"),
            "solver.base_matrix_s": (per_op(s["solver.base_matrix"]), "s"),
            "solver.dc_op_s": (per_op(s["solver.dc_op"]), "s"),
            "solver.dc_newton_iters": (per_op(c["solver.dc_newton_iters"]), "count"),
            "solver.gmin_ladder_attempts": (per_op(c["solver.gmin_ladder_attempts"]), "count"),
            "netlist.with_dc_source_s": (per_op(s["netlist.with_dc_source"]), "s"),
            "adders.gate_build_s": (per_op(s["adders.gate_build"]), "s"),
            "adders.threshold_dc_solves": (per_op(c["adders.threshold_dc_solves"]), "count"),
            "adders.synthesis_calls": (per_op(self.calls["adders.synthesis"]), "count"),
            "solver.init_s": (per_op(s["solver.init"]), "s"),
            "adders.build_s": (per_op(s["adders.build"]), "s"),
            "logic.verify_s": (per_op(s["logic.verify"]), "s"),
            "measure.swing_check_s": (per_op(s["measure.swing_check"]), "s"),
            "measure.power_s": (per_op(s["measure.power"]), "s"),
            "measure.delay_s": (per_op(s["measure.delay"]), "s"),
        }

    def write(self, path, extra: dict) -> None:
        """Spans and totals as JSON, for reading one run in detail (raw host seconds)."""
        payload = {
            **extra,
            "missing_hooks": self.missing,
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": [dict(zip(("id", "parent", "op", "name", "start", "end"), sp))
                      for sp in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        if self.missing:
            print(f"trace: hooks not found: {', '.join(self.missing)}", file=sys.stderr)
