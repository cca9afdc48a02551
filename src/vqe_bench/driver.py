"""Classical optimization loop: BFGS with a strong-Wolfe line search,
restart orchestration, and the layer-growth protocol for the
hardware-efficient ansatz."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .ansatz.core import AnsatzBuild
from .ansatz.layered import build_hea
from .operators import QubitOperator
from .simulator import adjoint_gradient, apply_circuit, expectation


class NumericalError(RuntimeError):
    """Objective returned a non-finite value."""


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "BFGS"
    gradient_tolerance: float = 1e-5
    max_energy_evaluations: int = 10000
    c1: float = 1e-4
    c2: float = 0.9

    def __post_init__(self):
        if self.method != "BFGS":
            raise ValueError("only BFGS is supported")
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError("need 0 < c1 < c2 < 1")
        if self.max_energy_evaluations < 1:
            raise ValueError("max_energy_evaluations must be at least 1")


@dataclass
class VqeResult:
    energy: float
    parameters: dict[str, float]
    n_evaluations: int
    n_iterations: int
    wall_time: float
    converged: bool
    restarts_used: int = 1


class _CountingObjective:
    """Wraps (x -> energy, gradient) with budget accounting and best tracking."""

    def __init__(self, objective, budget: int):
        self.objective = objective
        self.budget = budget
        self.evaluations = 0
        self.best: tuple[float, np.ndarray, np.ndarray] | None = None

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self.evaluations >= self.budget:
            raise _BudgetExhausted()
        self.evaluations += 1
        energy, grad = self.objective(x)
        if not math.isfinite(energy) or not np.all(np.isfinite(grad)):
            raise NumericalError(
                f"objective returned a non-finite value at x={x!r}")
        if self.best is None or energy < self.best[0]:
            self.best = (float(energy), np.array(x, dtype=float),
                         np.asarray(grad, dtype=float))
        return float(energy), np.asarray(grad, dtype=float)


def _cubic_minimizer(a0, f0, d0, a1, f1, d1):
    """Minimizer of the cubic through two (point, value, slope) samples."""
    if a0 == a1:
        return None
    g = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    radicand = g * g - d0 * d1
    if radicand < 0.0:
        return None
    root = math.copysign(math.sqrt(radicand), a1 - a0)
    denom = d1 - d0 + 2.0 * root
    if denom == 0.0:
        return None
    return a1 - (a1 - a0) * (d1 + root - g) / denom


def _wolfe_line_search(phi, f0, d0, c1, c2, max_trials=25):
    """Strong-Wolfe search along a ray; returns (alpha, f, grad, aux).

    A cubic refinement is evaluated even when the first trial already
    satisfies Wolfe and the lowest-energy Wolfe point wins, so quadratic
    restrictions get their exact 1-D minimizer.
    """
    if d0 >= 0.0:
        return None

    def wolfe(a, f, d):
        return f <= f0 + c1 * a * d0 and abs(d) <= -c2 * d0

    best = None  # lowest-f Wolfe-satisfying trial

    def consider(a, f, d, aux):
        nonlocal best
        if wolfe(a, f, d) and (best is None or f < best[1]):
            best = (a, f, d, aux)

    a_prev, f_prev, d_prev = 0.0, f0, d0
    a = 1.0
    for trial in range(max_trials):
        f, d, aux = phi(a)
        consider(a, f, d, aux)
        if f > f0 + c1 * a * d0 or (trial > 0 and f >= f_prev):
            lo, hi = (a_prev, f_prev, d_prev), (a, f, d)
            break
        refined = _cubic_minimizer(a_prev, f_prev, d_prev, a, f, d)
        if best is not None:
            # one refinement even after acceptance: exact on quadratic rays
            if (refined is not None and refined > 1e-12
                    and refined != a and refined < 100.0 * max(a, 1.0)):
                fr, dr, auxr = phi(refined)
                consider(refined, fr, dr, auxr)
            return best
        if d >= 0.0:
            lo, hi = (a, f, d), (a_prev, f_prev, d_prev)
            break
        a_prev, f_prev, d_prev = a, f, d
        a *= 2.0
    else:
        return best

    # zoom phase: lo satisfies Armijo with the lower value, hi brackets it
    for _ in range(max_trials):
        a_lo, f_lo, d_lo = lo
        a_hi, f_hi, d_hi = hi
        a_j = _cubic_minimizer(a_lo, f_lo, d_lo, a_hi, f_hi, d_hi)
        width = abs(a_hi - a_lo)
        if (a_j is None or not (min(a_lo, a_hi) + 1e-3 * width
                                <= a_j <= max(a_lo, a_hi) - 1e-3 * width)):
            a_j = 0.5 * (a_lo + a_hi)
        f_j, d_j, aux_j = phi(a_j)
        consider(a_j, f_j, d_j, aux_j)
        if best is not None:
            return best
        if f_j > f0 + c1 * a_j * d0 or f_j >= f_lo:
            hi = (a_j, f_j, d_j)
        else:
            if d_j * (a_hi - a_lo) >= 0.0:
                hi = lo
            lo = (a_j, f_j, d_j)
        if abs(hi[0] - lo[0]) < 1e-14:
            break
    return best


def minimize_bfgs(objective, x0, cfg: OptimizerConfig | None = None,
                  param_names=None, callback=None) -> VqeResult:
    """Quasi-Newton minimization of objective(x) -> (value, gradient).

    Stops when the gradient infinity-norm drops below the configured
    tolerance or the evaluation budget runs out (converged=False then).
    `callback(x, value)` fires after every accepted step.
    """
    cfg = cfg or OptimizerConfig()
    start = time.perf_counter()
    x = np.array(x0, dtype=float)
    n = len(x)
    names = list(param_names) if param_names is not None else [
        f"x{i}" for i in range(n)]
    counted = _CountingObjective(objective, cfg.max_energy_evaluations)

    def result(energy, xs, n_iter, converged):
        return VqeResult(energy=float(energy),
                         parameters=dict(zip(names, (float(v) for v in xs))),
                         n_evaluations=counted.evaluations,
                         n_iterations=n_iter,
                         wall_time=time.perf_counter() - start,
                         converged=converged)

    f, g = counted(x)  # the budget is at least one evaluation
    if n == 0:
        return result(f, x, 0, True)
    h = np.eye(n)
    iteration = 0
    first_update = True
    try:
        while np.max(np.abs(g)) > cfg.gradient_tolerance:
            iteration += 1
            p = -h @ g
            if p @ g >= 0.0:  # safeguard against a corrupted Hessian model
                h = np.eye(n)
                p = -g

            def phi(alpha, _p=p):
                fx, gx = counted(x + alpha * _p)
                return fx, float(gx @ _p), (fx, gx)

            hit = _wolfe_line_search(phi, f, float(g @ p), cfg.c1, cfg.c2)
            if hit is None:
                if np.allclose(p, -g):
                    break  # steepest descent stalled: local flatness
                h = np.eye(n)
                continue
            alpha, _, _, (f_new, g_new) = hit
            s = alpha * p
            y = g_new - g
            x = x + s
            f, g = f_new, g_new
            if callback is not None:
                callback(x.copy(), f)
            sy = float(s @ y)
            if sy > 1e-14 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
                if first_update:
                    h = (sy / float(y @ y)) * np.eye(n)
                    first_update = False
                rho = 1.0 / sy
                hs = h @ y
                h = (h - rho * (np.outer(s, hs) + np.outer(hs, s))
                     + rho * rho * float(y @ hs) * np.outer(s, s)
                     + rho * np.outer(s, s))
    except _BudgetExhausted:
        energy, xs, _ = counted.best
        return result(energy, xs, iteration, False)
    converged = bool(np.max(np.abs(g)) <= cfg.gradient_tolerance)
    return result(f, x, iteration, converged)


def circuit_objective(circuit, h: QubitOperator, initial_state: int):
    """Energy/gradient objective over the circuit's parameter vector."""
    names = circuit.param_names

    def objective(x):
        values = dict(zip(names, x))
        energy, grad = adjoint_gradient(circuit, h, values, initial_state)
        return energy, np.array([grad[name] for name in names])

    return objective


def run_vqe(ansatz: AnsatzBuild, h: QubitOperator, initial_state: int,
            cfg: OptimizerConfig | None = None, seed: int = 0) -> VqeResult:
    """Optimize one ansatz, best-of over seeded restarts for random inits."""
    cfg = cfg or OptimizerConfig()
    circuit = ansatz.circuit
    names = circuit.param_names
    start = time.perf_counter()
    if not names:
        state = apply_circuit(circuit, {}, initial_state)
        return VqeResult(energy=expectation(h, state), parameters={},
                         n_evaluations=1, n_iterations=0,
                         wall_time=time.perf_counter() - start,
                         converged=True, restarts_used=1)
    restarts = ansatz.restarts if ansatz.init_policy.kind != "zeros" else 1
    objective = circuit_objective(circuit, h, initial_state)
    best: VqeResult | None = None
    total_evals = 0
    for restart in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
        values = ansatz.init_policy.draw(names, rng)
        x0 = np.array([values[name] for name in names])
        outcome = minimize_bfgs(objective, x0, cfg, param_names=names)
        total_evals += outcome.n_evaluations
        if best is None or outcome.energy < best.energy:
            best = outcome
    best.restarts_used = restarts
    best.n_evaluations = total_evals
    best.wall_time = time.perf_counter() - start
    return best


def run_hea_layer_growth(h: QubitOperator, n_qubits: int, initial_state: int,
                         reference_energy: float,
                         n_budget: int = 50000, s_restarts: int = 10,
                         chem_tol: float = 0.0016,
                         cfg: OptimizerConfig | None = None,
                         seed: int = 0,
                         max_depth: int = 50) -> tuple[AnsatzBuild, VqeResult]:
    """Grow the hardware-efficient circuit one layer at a time.

    Each depth gets `s_restarts` independently initialized optimizations;
    growth stops once the best energy is within chem_tol of the reference,
    the cumulative evaluation budget n_budget is spent, or max_depth is
    done.  `converged` is True only when chem_tol was reached.
    """
    cfg = cfg or OptimizerConfig()
    if n_budget < 1 or s_restarts < 1 or max_depth < 1:
        raise ValueError("n_budget, s_restarts and max_depth must be positive")
    start = time.perf_counter()
    best: VqeResult | None = None
    best_build: AnsatzBuild | None = None
    total_evals = 0
    for depth in range(1, max_depth + 1):
        build = build_hea(n_qubits, depth)
        objective = circuit_objective(build.circuit, h, initial_state)
        names = build.circuit.param_names
        for restart in range(s_restarts):
            remaining = n_budget - total_evals
            if remaining <= 0:
                break
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, depth, restart]))
            values = build.init_policy.draw(names, rng)
            x0 = np.array([values[name] for name in names])
            outcome = minimize_bfgs(
                objective, x0,
                replace(cfg, max_energy_evaluations=min(
                    cfg.max_energy_evaluations, remaining)),
                param_names=names)
            total_evals += outcome.n_evaluations
            if best is None or outcome.energy < best.energy:
                best = outcome
                best_build = build
        if (best.energy - reference_energy <= chem_tol
                or total_evals >= n_budget):
            break
    best.converged = best.energy - reference_energy <= chem_tol
    best.n_evaluations = total_evals
    best.wall_time = time.perf_counter() - start
    best.restarts_used = s_restarts
    return best_build, best
