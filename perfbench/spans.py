"""In-memory span tracing of vqe_bench, installed from outside the package.

A `Tracer` wraps public functions of the package.  Modules bind them with
`from .x import f`, so every `vqe_bench.*` module attribute that *is* an
original function is replaced by its wrapper, and put back on exit.
Nothing inside the package changes.

A span holds its name, start, end, parent span, point id and thread.
Parents are tracked per thread, so a span opened in a pool thread has no
parent unless it nests inside another span of that thread.  Self time is
a span's duration minus the union of its children's intervals, clipped
to the span; that stays right when children from several threads
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import os
import sys
import threading
import time

PACKAGE = "vqe_bench"

# span name -> (defining module, function name)
SPANNED = {
    "operators.jordan_wigner": ("operators", "jordan_wigner"),
    "hamiltonian.qubit_hamiltonian": ("hamiltonian", "qubit_hamiltonian"),
    "hamiltonian.exact_ground_energy": ("hamiltonian", "exact_ground_energy"),
    "simulator.expectation": ("simulator", "expectation"),
    "simulator.commutator_gradient": ("simulator", "commutator_gradient"),
    "simulator.parameter_shift_gradient":
        ("simulator", "parameter_shift_gradient"),
    "simulator.apply_pauli_evolution": ("simulator", "apply_pauli_evolution"),
    "simulator.apply_gates": ("simulator", "apply_gates"),
    "simulator.adjoint_gradient": ("simulator", "adjoint_gradient"),
    "simulator.apply_circuit": ("simulator", "apply_circuit"),
    "driver.minimize_bfgs": ("driver", "minimize_bfgs"),
    "ansatz.adapt_vqe": ("ansatz.adaptive", "adapt_vqe"),
    "ansatz.qubit_adapt_vqe": ("ansatz.adaptive", "qubit_adapt_vqe"),
    "ansatz.qcc_optimize": ("ansatz.adaptive", "qcc_optimize"),
    "bench.point": ("bench", "run_ansatz_point"),
    "bench.save": ("bench", "save_record"),
}
BUILDERS = (
    ("ansatz.fixed", "build_uccsd_singlet"),
    ("ansatz.fixed", "build_uccsd0"),
    ("ansatz.fixed", "build_kupccgsd"),
    ("ansatz.fixed", "build_qucc"),
    ("ansatz.layered", "build_hea"),
    ("ansatz.layered", "build_ldca"),
    ("ansatz.layered", "build_brc"),
    ("ansatz.layered", "build_brc_closed_shell"),
    ("ansatz.adaptive", "build_fermionic_pool"),
    ("ansatz.adaptive", "build_qubit_pool"),
)
BUILD_SPAN = "ansatz.build"
OBJECTIVE_SPAN = "driver.objective"
ADAPTIVE_SPANS = ("ansatz.adapt_vqe", "ansatz.qubit_adapt_vqe",
                  "ansatz.qcc_optimize")
COUNTED = ("simulator", "apply_pauli_string")

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = {
    "simulator.expectation.calls": "count",
    "simulator.expectation.self_s": "s",
    "simulator.expectation.ms.p50": "ms",
    "simulator.commutator_gradient.calls": "count",
    "simulator.commutator_gradient.self_s": "s",
    "simulator.parameter_shift_gradient.calls": "count",
    "simulator.parameter_shift_gradient.self_s": "s",
    "simulator.apply_pauli_evolution.calls": "count",
    "simulator.apply_gates.calls": "count",
    "simulator.adjoint_gradient.calls": "count",
    "simulator.adjoint_gradient.self_s": "s",
    "simulator.adjoint_gradient.ms.p50": "ms",
    "simulator.adjoint_gradient.ms.p99": "ms",
    "simulator.apply_circuit.calls": "count",
    "simulator.apply_circuit.self_s": "s",
    "simulator.apply_pauli_string.calls": "count",
    "simulator.amps_touched": "count",
    "hamiltonian.qubit_hamiltonian.s": "s",
    "hamiltonian.qubit_hamiltonian.self_s": "s",
    "hamiltonian.n_terms": "count",
    "hamiltonian.exact_ground_energy.s": "s",
    "operators.jordan_wigner.calls": "count",
    "operators.jordan_wigner.s": "s",
    "driver.minimize_bfgs.calls": "count",
    "driver.minimize_bfgs.self_s": "s",
    "driver.evaluations": "count",
    "driver.iterations": "count",
    "driver.evals_per_iter": "ratio",
    "driver.converged_frac": "ratio",
    "driver.eval_ms.p50": "ms",
    "driver.eval_ms.p99": "ms",
    "ansatz.adapt_vqe.self_s": "s",
    "ansatz.qubit_adapt_vqe.self_s": "s",
    "ansatz.qcc_optimize.self_s": "s",
    "ansatz.adaptive.picks": "count",
    "ansatz.build.s": "s",
    "ansatz.n_gates": "count",
    "ansatz.n_params": "count",
    "bench.point_s.p50": "s",
    "bench.point_s.max": "s",
    "bench.point_wait_s": "s",
    "bench.save.calls": "count",
    "bench.save.s": "s",
    "bench.bytes_written": "count",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "point", "thread",
                 "info")

    def __init__(self, sid, name, start, end, parent, point, thread,
                 info=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.point = point
        self.thread = thread
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


def _module(suffix: str):
    return importlib.import_module(f"{PACKAGE}.{suffix}")


def package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(replacements: dict) -> list:
    """Swap every package attribute that is a key of `replacements`
    (original function -> wrapper).  Returns what restore() needs."""
    by_id = {id(original): (original, wrapper)
             for original, wrapper in replacements.items()}
    patched = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return patched


def restore(patched: list) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


class Tracer:
    """Collects spans and counts while installed; see module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._amp_counters: dict[int, itertools.count] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, on_result=None, point=False):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        point_id = sid if point else (parent.point if parent else None)
        frame = Span(sid, name, 0.0, 0.0, parent.sid if parent else None,
                     point_id, threading.get_ident())
        stack.append(frame)
        cpu = time.thread_time() if point else 0.0
        frame.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            frame.end = time.perf_counter()
            stack.pop()
            if point:
                frame.info = {"cpu_s": time.thread_time() - cpu}
            self.spans.append(frame)
        if on_result is not None:
            extra = on_result(args, kwargs, result)
            if extra:
                frame.info = {**(frame.info or {}), **extra}
        return result

    def wrap(self, name, fn, on_result=None, point=False, arg_hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_hook is not None:
                args, kwargs = arg_hook(args, kwargs)
            return tracer.call(name, fn, args, kwargs, on_result, point)

        return wrapper

    def count_amplitudes(self, fn):
        """Count-only wrapper for a kernel called ~10^6 times per run.

        `next()` on an itertools.count is atomic under the GIL, so pool
        threads lose no increments."""
        counters = self._amp_counters
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(string, amps):
            counter = counters.get(len(amps))
            if counter is None:
                with lock:
                    counter = counters.setdefault(len(amps), itertools.count())
            next(counter)
            return fn(string, amps)

        return wrapper

    def amplitude_calls(self) -> dict[int, int]:
        """Calls per vector length; read once, since reading increments."""
        return {size: next(counter)
                for size, counter in self._amp_counters.items()}

    # -- installation ------------------------------------------------------

    def replacements(self) -> dict:
        out = {}
        for name, (module, attr) in SPANNED.items():
            fn = getattr(_module(module), attr)
            out[fn] = self.wrap(name, fn, **self._hooks(name))
        for module, attr in BUILDERS:
            fn = getattr(_module(module), attr)
            out[fn] = self.wrap(BUILD_SPAN, fn, on_result=_build_info)
        module, attr = COUNTED
        fn = getattr(_module(module), attr)
        out[fn] = self.count_amplitudes(fn)
        return out

    def _hooks(self, name: str) -> dict:
        if name == "hamiltonian.qubit_hamiltonian":
            return {"on_result": lambda a, k, h: {"n_terms": len(h.terms)}}
        if name == "driver.minimize_bfgs":
            return {"on_result": _bfgs_info, "arg_hook": self._wrap_objective}
        if name in ADAPTIVE_SPANS:
            return {"on_result": _adaptive_info}
        if name == "bench.point":
            return {"point": True}
        if name == "bench.save":
            return {"on_result": _save_info}
        return {}

    def _wrap_objective(self, args, kwargs):
        if "objective" in kwargs:
            kwargs = dict(kwargs, objective=self.wrap(
                OBJECTIVE_SPAN, kwargs["objective"]))
        else:
            args = (self.wrap(OBJECTIVE_SPAN, args[0]),) + tuple(args[1:])
        return args, kwargs

    @contextlib.contextmanager
    def installed(self):
        patched = install(self.replacements())
        try:
            yield self
        finally:
            restore(patched)

    def write(self, path, amplitude_calls: dict[int, int]) -> None:
        """Spans as JSON lines, then one line of amplitude counts."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
            fh.write(json.dumps({"amplitude_calls": {
                str(k): v for k, v in amplitude_calls.items()}}) + "\n")


def _build_info(args, kwargs, build) -> dict:
    if not hasattr(build, "circuit"):  # operator pools have no circuit
        return {}
    return {"n_gates": len(build.circuit.gates), "n_params": build.n_params}


def _adaptive_info(args, kwargs, result) -> dict:
    build, trace = result
    return {"picks": len(trace.iterations), "n_gates": len(build.circuit.gates),
            "n_params": build.n_params}


def _bfgs_info(args, kwargs, result) -> dict:
    return {"evaluations": result.n_evaluations,
            "iterations": result.n_iterations,
            "converged": bool(result.converged)}


def _save_info(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# ---------------------------------------------------------------------------
# Arithmetic over finished spans
# ---------------------------------------------------------------------------


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.sid: span.duration - covered(children.get(span.sid, ()),
                                              span.start, span.end)
            for span in spans}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans, amplitude_calls: dict[int, int]) -> dict[str, float]:
    """Every LAYER_METRICS entry except trace.overhead_s, from one run."""
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    names = {span.sid: span.name for span in spans}

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return len(group(name))

    def total(name):
        return sum(s.duration for s in group(name))

    def self_s(name):
        return sum(own[s.sid] for s in group(name))

    def ms(name, q):
        return percentile([s.duration * 1e3 for s in group(name)], q)

    def info_sum(name, key):
        return sum((s.info or {}).get(key, 0) for s in group(name))

    bfgs = group("driver.minimize_bfgs")
    evaluations = info_sum("driver.minimize_bfgs", "evaluations")
    iterations = info_sum("driver.minimize_bfgs", "iterations")
    # nested builds (a pool built from UCCSD) count once, at the outermost
    outer_builds = [s for s in group(BUILD_SPAN)
                    if names.get(s.parent) != BUILD_SPAN]
    built = outer_builds + [s for n in ADAPTIVE_SPANS for s in group(n)]
    points = group("bench.point")
    metrics = {
        "simulator.apply_pauli_string.calls": sum(amplitude_calls.values()),
        "simulator.amps_touched": sum(size * n for size, n
                                      in amplitude_calls.items()),
        "hamiltonian.qubit_hamiltonian.s": total("hamiltonian.qubit_hamiltonian"),
        "hamiltonian.qubit_hamiltonian.self_s":
            self_s("hamiltonian.qubit_hamiltonian"),
        "hamiltonian.n_terms": max((s.info["n_terms"] for s in
                                    group("hamiltonian.qubit_hamiltonian")),
                                   default=0),
        "hamiltonian.exact_ground_energy.s":
            total("hamiltonian.exact_ground_energy"),
        "operators.jordan_wigner.calls": calls("operators.jordan_wigner"),
        "operators.jordan_wigner.s": total("operators.jordan_wigner"),
        "driver.evaluations": evaluations,
        "driver.iterations": iterations,
        "driver.evals_per_iter": evaluations / iterations if iterations else 0.0,
        "driver.converged_frac": (sum(s.info["converged"] for s in bfgs)
                                  / len(bfgs)) if bfgs else 0.0,
        "driver.eval_ms.p50": ms(OBJECTIVE_SPAN, 50),
        "driver.eval_ms.p99": ms(OBJECTIVE_SPAN, 99),
        "ansatz.adaptive.picks": sum(info_sum(n, "picks")
                                     for n in ADAPTIVE_SPANS),
        "ansatz.build.s": sum(s.duration for s in outer_builds),
        "ansatz.n_gates": sum((s.info or {}).get("n_gates", 0) for s in built),
        "ansatz.n_params": sum((s.info or {}).get("n_params", 0)
                               for s in built),
        "bench.point_s.p50": percentile([s.duration for s in points], 50),
        "bench.point_s.max": max((s.duration for s in points), default=0.0),
        "bench.point_wait_s": sum(s.duration - s.info["cpu_s"]
                                  for s in points),
        "bench.save.calls": calls("bench.save"),
        "bench.save.s": total("bench.save"),
        "bench.bytes_written": info_sum("bench.save", "bytes"),
    }
    for name in ("simulator.expectation", "simulator.commutator_gradient",
                 "simulator.parameter_shift_gradient",
                 "simulator.apply_pauli_evolution", "simulator.apply_gates",
                 "simulator.adjoint_gradient", "simulator.apply_circuit",
                 "driver.minimize_bfgs"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ADAPTIVE_SPANS:
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ("simulator.expectation", "simulator.adjoint_gradient"):
        metrics[f"{name}.ms.p50"] = ms(name, 50)
    metrics["simulator.adjoint_gradient.ms.p99"] = ms(
        "simulator.adjoint_gradient", 99)
    return {name: metrics[name] for name in LAYER_METRICS if name in metrics}
