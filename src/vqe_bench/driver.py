"""Classical optimization loop: BFGS with a strong-Wolfe line search,
restart orchestration, and the layer-growth protocol for the
hardware-efficient ansatz.

A point is one float array in param_names order, from the initial draw
to VqeResult.parameters.  BFGS is one ask/tell generator, bfgs_steps: it
yields the points it needs evaluated and is sent back (energy, gradient);
its line search yields step lengths to it the same way.  minimize_bfgs
drives it from one (P,) start, or from R starts in lockstep: the pending
points of the live runs go to the objective as one (R', P) batch, whose
answers are checked finite at once, and a run leaves it when it
converges or spends its budget, seeing the points and bits it would
alone.  HEA layer growth stays serial, since each restart's budget is
what the ones before it left.  Nothing here keeps a clock, and a
VqeResult is frozen once returned, its parameters a read-only array."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ansatz.core import AnsatzBuild
from .ansatz.layered import build_hea
from .operators import QubitOperator
from .seeds import SeedStream
from .simulator import adjoint_gradient

WOLFE_C1, WOLFE_C2 = 1e-4, 0.9  # sufficient decrease, curvature
CHEMICAL_ACCURACY = 0.0016  # Ha, the paper's band around the FCI energy


def check_finite(name: str, value: float, signed: bool = False) -> None:
    """Refuse a NaN, an infinity or, unless `signed`, a negative value."""
    if not math.isfinite(value) or (value < 0 and not signed):
        sign = "" if signed else " and non-negative"
        raise ValueError(f"{name} must be finite{sign}, not {value!r}")


class NumericalError(RuntimeError):
    """Objective returned a non-finite value, or sweep points failed."""


class _BudgetExhausted(Exception):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    gradient_tolerance: float = 1e-5
    max_energy_evaluations: int = 10000

    def __post_init__(self):
        if self.max_energy_evaluations < 1:
            raise ValueError("max_energy_evaluations must be at least 1")
        check_finite("gradient_tolerance", self.gradient_tolerance)


@dataclass(frozen=True)
class VqeResult:
    energy: float
    parameters: np.ndarray  # in the order of the objective's vector; read-only
    n_evaluations: int
    n_iterations: int
    converged: bool
    restarts_used: int = 1


class _Evaluations:
    """Budget and best of the points one run has evaluated: ask(x) before
    x goes out, tell(x, energy, gradient) when it comes back."""

    def __init__(self, budget: int):
        self.budget = budget
        self.count = 0
        self.best: tuple[float, np.ndarray, np.ndarray] | None = None

    def ask(self, x: np.ndarray) -> np.ndarray:
        if self.count >= self.budget:
            raise _BudgetExhausted()
        self.count += 1
        return x

    def tell(self, x: np.ndarray, energy: float, grad: np.ndarray):
        if self.best is None or energy < self.best[0]:
            self.best = (energy, np.array(x, dtype=float), grad)
        return energy, grad


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


def _wolfe_line_search(f0, d0, max_trials=25):
    """Strong-Wolfe search along a ray, as a generator: it yields each step
    length to try, takes (f, slope, aux) there back through send(), and
    returns (alpha, f, slope, aux) of the lowest-f Wolfe trial, or None.
    A cubic refinement is evaluated even when the first trial already
    satisfies Wolfe and the lowest-energy Wolfe point wins, so quadratic
    restrictions get their exact 1-D minimizer.
    """
    if d0 >= 0.0:
        return None
    best = None  # lowest-f Wolfe-satisfying trial

    def consider(a, f, d, aux):
        nonlocal best
        if (f <= f0 + WOLFE_C1 * a * d0 and abs(d) <= -WOLFE_C2 * d0
                and (best is None or f < best[1])):
            best = (a, f, d, aux)

    a_prev, f_prev, d_prev = 0.0, f0, d0
    a = 1.0
    for trial in range(max_trials):
        f, d, aux = yield a
        consider(a, f, d, aux)
        if f > f0 + WOLFE_C1 * a * d0 or (trial > 0 and f >= f_prev):
            lo, hi = (a_prev, f_prev, d_prev), (a, f, d)
            break
        refined = _cubic_minimizer(a_prev, f_prev, d_prev, a, f, d)
        if best is not None:
            # one refinement even after acceptance: exact on quadratic rays
            if (refined is not None and refined > 1e-12
                    and refined != a and refined < 100.0 * max(a, 1.0)):
                fr, dr, auxr = yield refined
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
        f_j, d_j, aux_j = yield a_j
        consider(a_j, f_j, d_j, aux_j)
        if best is not None:
            return best
        if f_j > f0 + WOLFE_C1 * a_j * d0 or f_j >= f_lo:
            hi = (a_j, f_j, d_j)
        else:
            if d_j * (a_hi - a_lo) >= 0.0:
                hi = lo
            lo = (a_j, f_j, d_j)
        if abs(hi[0] - lo[0]) < 1e-14:
            break
    return best


def bfgs_steps(x0, cfg: OptimizerConfig | None = None, callback=None):
    """minimize_bfgs as an ask/tell generator: it yields each point to
    evaluate, takes its (value, gradient), checked finite by minimize_bfgs,
    back through send() and returns the VqeResult.  Nocedal & Wright Alg.
    6.1 with the strong-Wolfe search of Alg. 3.5/3.6."""
    cfg = cfg or OptimizerConfig()
    x = np.array(x0, dtype=float)
    n = len(x)
    evaluate = _Evaluations(cfg.max_energy_evaluations)

    def result(energy, xs, n_iter, converged):
        parameters = np.array(xs, dtype=float)
        parameters.flags.writeable = False
        return VqeResult(energy=float(energy), parameters=parameters,
                         n_evaluations=evaluate.count,
                         n_iterations=n_iter, converged=converged)

    f, g = evaluate.tell(x, *(yield evaluate.ask(x)))  # the budget is >= 1
    if n == 0:
        return result(f, x, 0, True)
    h = np.eye(n)
    iteration = 0
    first_update = True
    try:
        while np.maximum.reduce(np.abs(g)) > cfg.gradient_tolerance:
            iteration += 1
            p = -h @ g
            slope = float(g @ p)
            if slope >= 0.0:  # safeguard against a corrupted Hessian model
                h = np.eye(n)
                p = -g
                slope = float(g @ p)
            search = _wolfe_line_search(f, slope)
            try:  # the search's step lengths, evaluated along p
                alpha = next(search)
                while True:
                    point = evaluate.ask(x + alpha * p)
                    fx, gx = evaluate.tell(point, *(yield point))
                    alpha = search.send((fx, float(gx @ p), gx))
            except StopIteration as done:
                hit = done.value
            if hit is None:
                if np.allclose(p, -g):
                    break  # steepest descent stalled: local flatness
                h = np.eye(n)
                continue
            alpha, f_new, _, g_new = hit
            s = alpha * p
            y = g_new - g
            x = x + s
            f, g = f_new, g_new
            if callback is not None:
                callback(x.copy(), f)
            sy = float(s @ y)
            # sqrt(v @ v) is np.linalg.norm(v) for a real vector
            if sy > 1e-14 * (math.sqrt(s @ s) * math.sqrt(y @ y) + 1e-300):
                if first_update:
                    h = (sy / float(y @ y)) * np.eye(n)
                    first_update = False
                rho = 1.0 / sy
                hs = h @ y
                # outer products by broadcasting; (hs s^T) is (s hs^T)^T
                shs, ss = s[:, None] * hs, s[:, None] * s
                h = (h - rho * (shs + shs.T)
                     + rho * rho * float(y @ hs) * ss + rho * ss)
    except _BudgetExhausted:
        energy, xs, _ = evaluate.best
        return result(energy, xs, iteration, False)
    converged = bool(np.maximum.reduce(np.abs(g)) <= cfg.gradient_tolerance)
    return result(f, x, iteration, converged)


def minimize_bfgs(objective, x0, cfg: OptimizerConfig | None = None,
                  callback=None) -> VqeResult:
    """Quasi-Newton minimization of objective(x) -> (value, gradient)
    from a (P,) start, or from each row of (R, P) starts in lockstep: the
    objective then takes the pending runs' points as an (R', P) batch and
    returns (R',) values and (R', P) gradients.  A run stops when the
    gradient infinity-norm drops below the configured tolerance or its
    evaluation budget runs out (converged=False then).  Returns the
    lowest-energy run, ties going to the lowest start, with every run's
    evaluations summed; `callback(x, value)` fires after every accepted
    step of every run.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or 0 in x0.shape[:-1]:
        raise ValueError(f"x0 of shape {x0.shape}; want (P,) or (R, P) "
                         "with R >= 1")
    runs = [bfgs_steps(row, cfg, callback) for row in np.atleast_2d(x0)]
    pending = {k: next(run) for k, run in enumerate(runs)}
    results: list[VqeResult | None] = [None] * len(runs)
    while pending:
        order = list(pending)
        points = (pending[0] if x0.ndim == 1
                  else np.array([pending[k] for k in order]))
        values, grads = objective(points)
        values = np.asarray(values, dtype=float).reshape(len(order)).tolist()
        grads = np.asarray(grads, dtype=float).reshape(len(order), -1)
        if not (all(map(math.isfinite, values)) and np.isfinite(grads).all()):
            raise NumericalError(
                f"objective returned a non-finite value at x={points!r}")
        for k, value, grad in zip(order, values, grads):
            try:
                pending[k] = runs[k].send((value, grad))
            except StopIteration as done:
                results[k] = done.value
                del pending[k]
    return replace(min(results, key=lambda result: result.energy),
                   n_evaluations=sum(r.n_evaluations for r in results),
                   restarts_used=len(runs))


def circuit_objective(circuit, h: QubitOperator, initial_state: int):
    """Energy/gradient objective over the circuit's parameter vector."""
    return lambda x: adjoint_gradient(circuit, h, x, initial_state)


def run_vqe(ansatz: AnsatzBuild, h: QubitOperator, initial_state: int,
            cfg: OptimizerConfig | None = None, seed: int = 0) -> VqeResult:
    """Optimize one ansatz, best-of over seeded restarts for random inits;
    restarts run in lockstep, and ties go to the lowest restart."""
    circuit = ansatz.circuit
    restarts = (ansatz.restarts if circuit.n_params
                and ansatz.init_policy.kind != "zeros" else 1)
    starts = np.array([ansatz.init_policy.draw(
        circuit.n_params, SeedStream((seed, restart)))
        for restart in range(restarts)])
    return minimize_bfgs(circuit_objective(circuit, h, initial_state),
                         starts, cfg)


def run_hea_layer_growth(h: QubitOperator, n_qubits: int, initial_state: int,
                         reference_energy: float,
                         n_budget: int = 50000, s_restarts: int = 10,
                         chem_tol: float = CHEMICAL_ACCURACY,
                         cfg: OptimizerConfig | None = None,
                         seed: int = 0,
                         max_depth: int = 50) -> tuple[AnsatzBuild, VqeResult]:
    """Grow the hardware-efficient circuit one layer at a time.

    Each depth gets `s_restarts` independently initialized optimizations;
    growth stops once the best energy is within chem_tol of the reference,
    the cumulative evaluation budget n_budget is spent, or max_depth is
    done.  `converged` is True only when chem_tol was reached;
    `n_evaluations` and `restarts_used` count every optimization run.
    Restarts run one after another: each one's budget is what the ones
    before it left.
    """
    cfg = cfg or OptimizerConfig()
    if n_budget < 1 or s_restarts < 1 or max_depth < 1:
        raise ValueError("n_budget, s_restarts and max_depth must be positive")
    check_finite("chem_tol", chem_tol)
    check_finite("reference_energy", reference_energy, signed=True)
    best: VqeResult | None = None
    best_build: AnsatzBuild | None = None
    total_evals = total_runs = 0
    for depth in range(1, max_depth + 1):
        build = build_hea(n_qubits, depth)
        objective = circuit_objective(build.circuit, h, initial_state)
        for restart in range(s_restarts):
            remaining = n_budget - total_evals
            if remaining <= 0:
                break
            outcome = minimize_bfgs(
                objective, build.init_policy.draw(
                    build.n_params, SeedStream((seed, depth, restart))),
                replace(cfg, max_energy_evaluations=min(
                    cfg.max_energy_evaluations, remaining)))
            total_evals += outcome.n_evaluations
            total_runs += 1
            if best is None or outcome.energy < best.energy:
                best = outcome
                best_build = build
        if (best.energy - reference_energy <= chem_tol
                or total_evals >= n_budget):
            break
    return best_build, replace(
        best, converged=best.energy - reference_energy <= chem_tol,
        n_evaluations=total_evals, restarts_used=total_runs)
