"""Classical optimization loop: BFGS with a strong-Wolfe line search,
restart orchestration, and the layer-growth protocol for the
hardware-efficient ansatz.

A point is one float array in param_names order, from the initial draw
to VqeResult.parameters.  BFGS is one ask/tell generator, bfgs_steps: it
yields the points it needs evaluated and is sent back (energy, gradient).
minimize_bfgs drives it with one objective, point by point.  The restarts
of run_vqe advance in lockstep instead: the pending points of the live
restarts are one (R, P) batch of adjoint_gradient, and a restart leaves
it when it converges or spends its budget, seeing the points and bits it
would alone.  HEA layer growth stays serial, since each restart's budget
is what the ones before it left."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .ansatz.core import AnsatzBuild
from .ansatz.layered import build_hea
from .operators import QubitOperator
from .simulator import adjoint_gradient, runs_in_sector

WOLFE_C1, WOLFE_C2 = 1e-4, 0.9  # sufficient decrease, curvature
CHEMICAL_ACCURACY = 0.0016  # Ha, the paper's band around the FCI energy


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
        if not 0.0 <= self.gradient_tolerance < math.inf:
            raise ValueError("gradient_tolerance must be finite and "
                             "non-negative")


@dataclass
class VqeResult:
    energy: float
    parameters: np.ndarray  # in the order of the objective's vector
    n_evaluations: int
    n_iterations: int
    wall_time: float
    converged: bool
    restarts_used: int = 1


class _Evaluations:
    """Budget accounting, the non-finite check and best tracking for the
    points one run asks to have evaluated."""

    def __init__(self, budget: int):
        self.budget = budget
        self.count = 0
        self.best: tuple[float, np.ndarray, np.ndarray] | None = None

    def __call__(self, x: np.ndarray):
        """Yield x, take (energy, gradient) back, return them as floats."""
        if self.count >= self.budget:
            raise _BudgetExhausted()
        self.count += 1
        energy, grad = yield x
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


def _wolfe_line_search(phi, f0, d0, max_trials=25):
    """Strong-Wolfe search along a ray; returns (alpha, f, grad, aux).

    phi(alpha) is a generator returning (f, slope, aux), so the search
    yields what phi yields: the points it needs evaluated.
    A cubic refinement is evaluated even when the first trial already
    satisfies Wolfe and the lowest-energy Wolfe point wins, so quadratic
    restrictions get their exact 1-D minimizer.
    """
    if d0 >= 0.0:
        return None

    def wolfe(a, f, d):
        return f <= f0 + WOLFE_C1 * a * d0 and abs(d) <= -WOLFE_C2 * d0

    best = None  # lowest-f Wolfe-satisfying trial

    def consider(a, f, d, aux):
        nonlocal best
        if wolfe(a, f, d) and (best is None or f < best[1]):
            best = (a, f, d, aux)

    a_prev, f_prev, d_prev = 0.0, f0, d0
    a = 1.0
    for trial in range(max_trials):
        f, d, aux = yield from phi(a)
        consider(a, f, d, aux)
        if f > f0 + WOLFE_C1 * a * d0 or (trial > 0 and f >= f_prev):
            lo, hi = (a_prev, f_prev, d_prev), (a, f, d)
            break
        refined = _cubic_minimizer(a_prev, f_prev, d_prev, a, f, d)
        if best is not None:
            # one refinement even after acceptance: exact on quadratic rays
            if (refined is not None and refined > 1e-12
                    and refined != a and refined < 100.0 * max(a, 1.0)):
                fr, dr, auxr = yield from phi(refined)
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
        f_j, d_j, aux_j = yield from phi(a_j)
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
    evaluate, takes its (value, gradient) back through send(), and
    returns the VqeResult.  Nocedal & Wright Alg. 6.1 with the strong-Wolfe
    search of Alg. 3.5/3.6."""
    cfg = cfg or OptimizerConfig()
    start = time.perf_counter()
    x = np.array(x0, dtype=float)
    n = len(x)
    evaluate = _Evaluations(cfg.max_energy_evaluations)

    def result(energy, xs, n_iter, converged):
        return VqeResult(energy=float(energy),
                         parameters=np.array(xs, dtype=float),
                         n_evaluations=evaluate.count,
                         n_iterations=n_iter,
                         wall_time=time.perf_counter() - start,
                         converged=converged)

    f, g = yield from evaluate(x)  # the budget is at least one evaluation
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
                fx, gx = yield from evaluate(x + alpha * _p)
                return fx, float(gx @ _p), (fx, gx)

            hit = yield from _wolfe_line_search(phi, f, float(g @ p))
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
        energy, xs, _ = evaluate.best
        return result(energy, xs, iteration, False)
    converged = bool(np.max(np.abs(g)) <= cfg.gradient_tolerance)
    return result(f, x, iteration, converged)


def minimize_bfgs(objective, x0, cfg: OptimizerConfig | None = None,
                  callback=None) -> VqeResult:
    """Quasi-Newton minimization of objective(x) -> (value, gradient).

    Stops when the gradient infinity-norm drops below the configured
    tolerance or the evaluation budget runs out (converged=False then).
    `callback(x, value)` fires after every accepted step.
    """
    run = bfgs_steps(x0, cfg, callback)
    try:
        x = next(run)
        while True:
            x = run.send(objective(x))
    except StopIteration as done:
        return done.value


def circuit_objective(circuit, h: QubitOperator, initial_state: int):
    """Energy/gradient objective over the circuit's parameter vector."""
    return lambda x: adjoint_gradient(circuit, h, x, initial_state)


def minimize_in_lockstep(circuit, h: QubitOperator, initial_state: int,
                         starts, cfg: OptimizerConfig | None = None
                         ) -> list[VqeResult]:
    """minimize_bfgs of the circuit's energy from each start, with the
    points every pending run asks for evaluated as one batch.  A run
    leaves the batch when it converges or spends its budget; each result
    is bit-identical to that start's own minimize_bfgs."""
    runs = [bfgs_steps(x0, cfg) for x0 in starts]
    pending = {k: next(run) for k, run in enumerate(runs)}
    results: list[VqeResult | None] = [None] * len(runs)
    while pending:
        order = list(pending)
        energies, grads = adjoint_gradient(
            circuit, h, np.array([pending[k] for k in order]), initial_state)
        for k, energy, grad in zip(order, energies, grads):
            try:
                pending[k] = runs[k].send((energy, grad))
            except StopIteration as done:
                results[k] = done.value
                del pending[k]
    return results


def run_vqe(ansatz: AnsatzBuild, h: QubitOperator, initial_state: int,
            cfg: OptimizerConfig | None = None, seed: int = 0) -> VqeResult:
    """Optimize one ansatz, best-of over seeded restarts for random inits;
    restarts run in lockstep, and ties go to the lowest restart.

    A build labelled particle-conserving whose circuit leaves the (N, 2Sz)
    sector of the initial state is refused.
    """
    cfg = cfg or OptimizerConfig()
    circuit = ansatz.circuit
    if ansatz.particle_conserving and not runs_in_sector(circuit,
                                                         initial_state):
        raise ValueError("ansatz is labelled particle-conserving but its "
                         "circuit leaves the sector of the initial state")
    start = time.perf_counter()
    restarts = (ansatz.restarts if circuit.n_params
                and ansatz.init_policy.kind != "zeros" else 1)
    starts = [ansatz.init_policy.draw(
        circuit.n_params,
        np.random.default_rng(np.random.SeedSequence([seed, restart])))
        for restart in range(restarts)]
    if restarts == 1:
        outcomes = [minimize_bfgs(circuit_objective(circuit, h, initial_state),
                                  starts[0], cfg)]
    else:
        outcomes = minimize_in_lockstep(circuit, h, initial_state, starts,
                                        cfg)
    best = min(outcomes, key=lambda outcome: outcome.energy)
    best.restarts_used = restarts
    best.n_evaluations = sum(outcome.n_evaluations for outcome in outcomes)
    best.wall_time = time.perf_counter() - start
    return best


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
    start = time.perf_counter()
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
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, depth, restart]))
            outcome = minimize_bfgs(
                objective, build.init_policy.draw(build.n_params, rng),
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
    best.converged = best.energy - reference_energy <= chem_tol
    best.n_evaluations = total_evals
    best.wall_time = time.perf_counter() - start
    best.restarts_used = total_runs
    return best_build, best
