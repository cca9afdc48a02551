import hashlib
import math
import re
import zlib
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from vqe_bench import driver
from vqe_bench.ansatz import (
    build_brc_closed_shell,
    build_kupccgsd,
    build_ldca,
    build_uccsd_singlet,
)
from vqe_bench.ansatz.core import UNIFORM_0_2PI, UNIFORM_PM_PI
from vqe_bench.bench import NAMED_ANSATZES, _point_seed
from vqe_bench.driver import (
    NumericalError,
    OptimizerConfig,
    VqeResult,
    circuit_objective,
    minimize_bfgs,
    run_hea_layer_growth,
    run_vqe,
)
from vqe_bench.hamiltonian import (
    bundled_molecule,
    exact_ground_energy,
    hf_state_index,
    qubit_hamiltonian,
)
from vqe_bench.operators import QubitOperator, parse_pauli_string
from vqe_bench.seeds import SeedStream, seed_words
from vqe_bench.simulator import ParamCircuit, apply_circuit, expectation
from oracles import ry


def quadratic_1d(x):
    return float((x[0] - 3.0) ** 2), np.array([2.0 * (x[0] - 3.0)])


def rosenbrock(x):
    f = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    g = np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                  200 * (x[1] - x[0] ** 2)])
    return float(f), g


class TestMinimizeBfgs:
    def test_result_is_frozen_and_keeps_no_clock(self):
        result = minimize_bfgs(quadratic_1d, np.array([0.0]))
        assert "wall_time" not in {f.name for f in fields(VqeResult)}
        for name in ("energy", "converged", "restarts_used"):
            with pytest.raises(FrozenInstanceError):
                setattr(result, name, None)
        batch = minimize_bfgs(batched_rosenbrock,
                              np.array([[0.0, 0.0], [-1.2, 1.0]]))
        for parameters in (result.parameters, batch.parameters):
            with pytest.raises(ValueError, match="read-only"):
                parameters[0] = 5.0

    def test_shifted_parabola(self):
        result = minimize_bfgs(quadratic_1d, np.array([0.0]))
        assert abs(result.parameters[0] - 3.0) < 1e-10
        assert result.energy < 1e-10
        assert result.converged

    def test_rosenbrock(self):
        result = minimize_bfgs(rosenbrock, np.array([-1.2, 1.0]),
                               OptimizerConfig(gradient_tolerance=1e-8))
        assert abs(result.parameters[0] - 1.0) < 1e-6
        assert abs(result.parameters[1] - 1.0) < 1e-6
        assert result.converged

    def test_one_parameter_cosine_circuit(self):
        circuit = ParamCircuit(1, [ry(0, "t")])
        h = QubitOperator.from_term(parse_pauli_string("Z0"))
        from vqe_bench.driver import circuit_objective

        result = minimize_bfgs(circuit_objective(circuit, h, 0),
                               np.array([2.0]))
        assert result.energy == pytest.approx(-1.0, abs=1e-10)
        assert abs(abs(result.parameters[0]) - math.pi) < 1e-5

    def test_quadratic_termination_iterations(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            m = rng.normal(size=(n, n))
            a = m @ m.T + 0.5 * np.eye(n)
            b = rng.normal(size=n)
            result = minimize_bfgs(
                lambda x: (float(0.5 * x @ a @ x + b @ x), a @ x + b),
                rng.normal(size=n) * 4.0,
                OptimizerConfig(gradient_tolerance=1e-7))
            assert result.converged
            assert result.n_iterations <= n + 1

    def test_budget_exhaustion(self):
        cfg = OptimizerConfig(max_energy_evaluations=3)
        result = minimize_bfgs(rosenbrock, np.array([-1.2, 1.0]), cfg)
        assert not result.converged
        assert result.n_evaluations <= 3

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_energy_evaluations"):
            OptimizerConfig(max_energy_evaluations=0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_gradient_tolerance_rejected(
            self, tolerance):
        with pytest.raises(ValueError, match="gradient_tolerance"):
            OptimizerConfig(gradient_tolerance=tolerance)

    def test_non_finite_objective(self):
        def bad(x):
            return math.nan, np.array([0.0])

        with pytest.raises(NumericalError):
            minimize_bfgs(bad, np.array([1.0]))

    def test_accepted_steps_never_increase(self):
        history = []
        minimize_bfgs(rosenbrock, np.array([-1.2, 1.0]),
                      OptimizerConfig(gradient_tolerance=1e-8),
                      callback=lambda x, f: history.append(f))
        assert len(history) > 5
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("shape", [(), (0, 2), (2, 1, 2)])
    def test_x0_of_no_start_or_too_many_axes_refused(self, shape):
        calls = []
        message = re.escape(f"x0 of shape {shape}")
        with pytest.raises(ValueError, match=message):
            minimize_bfgs(lambda x: calls.append(x), np.zeros(shape))
        assert calls == []


def batched_rosenbrock(xs):
    """rosenbrock on each row of an (R, 2) batch: (R,) values, (R, 2)
    gradients, each row the bits of its own rosenbrock call."""
    return tuple(np.array(part) for part in zip(*map(rosenbrock, xs)))


class TestStartsInLockstep:
    def test_callback_fires_after_every_accepted_step_of_every_run(self):
        starts = np.array([[-1.2, 1.0], [2.0, -1.5], [0.5, 0.5]])
        cfg = OptimizerConfig(gradient_tolerance=1e-8)
        alone = []
        for x0 in starts:
            history = []
            minimize_bfgs(rosenbrock, x0, cfg,
                          callback=lambda x, f: history.append(f))
            alone.append(history)
        together = []
        minimize_bfgs(batched_rosenbrock, starts, cfg,
                      callback=lambda x, f: together.append(f))
        assert sorted(together) == sorted(sum(alone, []))

    def test_one_row_is_the_same_run_as_one_start(self):
        x0 = np.array([-1.2, 1.0])
        alone = minimize_bfgs(rosenbrock, x0)
        row = minimize_bfgs(batched_rosenbrock, x0[None, :])
        assert row.energy == alone.energy
        assert row.parameters.tolist() == alone.parameters.tolist()
        assert ((row.n_evaluations, row.n_iterations, row.restarts_used)
                == (alone.n_evaluations, alone.n_iterations, 1))

    def test_run_vqe_makes_one_minimize_bfgs_call_for_all_restarts(
            self, monkeypatch):
        data = bundled_molecule("H2").integrals(0.7414)
        build = build_brc_closed_shell(data.n_qubits, data.n_electrons)
        assert build.restarts == 20
        calls, rows = [], []
        minimize, gradient = driver.minimize_bfgs, driver.adjoint_gradient

        def counted_minimize(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return minimize(*args, **kwargs)

        def counted_gradient(circuit, h, angles, initial):
            rows.append(len(np.atleast_2d(angles)))
            return gradient(circuit, h, angles, initial)

        monkeypatch.setattr(driver, "minimize_bfgs", counted_minimize)
        monkeypatch.setattr(driver, "adjoint_gradient", counted_gradient)
        result = run_vqe(build, qubit_hamiltonian(data),
                         hf_state_index(data.n_qubits, data.n_electrons),
                         seed=5)
        assert calls == [(20, build.n_params)]
        assert result.restarts_used == 20
        assert result.n_evaluations == sum(rows) > 20


@pytest.mark.parametrize("policy", [UNIFORM_0_2PI, UNIFORM_PM_PI])
def test_init_draw_gives_the_scalar_draws(policy):
    # one rng.uniform call for all parameters, not one per parameter
    for seed in range(25):
        for n_params in (0, 1, 8, 37):
            def rng():
                return np.random.default_rng(
                    np.random.SeedSequence([seed, n_params]))
            scalar_rng = rng()
            scalar = np.array([scalar_rng.uniform(policy.low, policy.high)
                               for _ in range(n_params)], dtype=float)
            drawn = policy.draw(n_params, rng())
            assert drawn.shape == (n_params,)
            assert drawn.tobytes() == scalar.tobytes()


# 0 to 7 one-word integers, then values of one to three words each,
# True and a NumPy integer among them: up to 11 words, past the pool's 4
SEED_ENTROPY = [tuple(range(k)) for k in range(8)] + [
    (0, 2**32 - 1, 2**32, 2**70, True, np.int64(2**40 + 5), 3)[:k]
    for k in range(1, 8)]


class TestSeedStream:
    """vqe_bench.seeds against numpy.random, the oracle, bit for bit."""

    @pytest.mark.parametrize("entropy", SEED_ENTROPY, ids=repr)
    def test_words_are_seed_sequence_state(self, entropy):
        for n in (0, 1, 4, 8, 37):
            oracle = np.random.SeedSequence(entropy).generate_state(n)
            words = np.array(seed_words(entropy, n), dtype=np.uint32)
            assert words.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("policy", [UNIFORM_0_2PI, UNIFORM_PM_PI])
    @pytest.mark.parametrize("entropy", SEED_ENTROPY, ids=repr)
    def test_uniform_is_default_rng_uniform(self, entropy, policy):
        for n in (0, 1, 37, 300):
            oracle = policy.draw(n, np.random.default_rng(
                np.random.SeedSequence(entropy)))
            drawn = policy.draw(n, SeedStream(entropy))
            assert drawn.dtype == oracle.dtype
            assert drawn.tobytes() == oracle.tobytes()

    def test_point_seed_is_seed_sequence_state(self):
        names = NAMED_ANSATZES + ("1-UpCCGSD", "2-UpCCGSD")
        assert len(set(names)) == 11
        for name in names:
            for seed in (0, 7, 2**40 + 3):
                for idx in range(3):
                    oracle = np.random.SeedSequence(
                        [seed, zlib.crc32(name.encode()), idx])
                    assert _point_seed(seed, name, idx) == int(
                        oracle.generate_state(1)[0])

    @pytest.mark.parametrize("entropy,error", [
        ((1.5,), TypeError), ((0, np.float64(2.0)), TypeError),
        ((-1,), ValueError), ((3, np.int64(-2)), ValueError)])
    def test_refuses_what_numpy_refuses(self, entropy, error):
        for make in (lambda: seed_words(entropy, 1),
                     lambda: SeedStream(entropy),
                     lambda: np.random.SeedSequence(entropy)):
            with pytest.raises(error):
                make()


class TestRunVqe:
    def setup_method(self):
        data = bundled_molecule("H2").integrals(0.7414)
        self.h = qubit_hamiltonian(data)
        self.fci = exact_ground_energy(self.h, 4, sector=(2, 0))
        self.hf_idx = hf_state_index(4, 2)

    def test_uccsd_reaches_fci(self):
        build = build_uccsd_singlet(4, 2)
        result = run_vqe(build, self.h, self.hf_idx,
                         OptimizerConfig(gradient_tolerance=1e-8), seed=0)
        assert abs(result.energy - self.fci) < 1e-8

    def test_zero_parameter_circuit(self):
        build = build_uccsd_singlet(4, 2)
        empty = ParamCircuit(4, ())
        from dataclasses import replace

        trivial = replace(build, circuit=empty)
        result = run_vqe(trivial, self.h, self.hf_idx, seed=0)
        assert result.n_evaluations == 1
        assert result.energy == pytest.approx(
            expectation(self.h, apply_circuit(empty, [], self.hf_idx)))

    def test_seeded_determinism(self):
        build = build_brc_closed_shell(4, 2)
        a = run_vqe(build, self.h, self.hf_idx, seed=42)
        b = run_vqe(build, self.h, self.hf_idx, seed=42)
        assert a.energy == b.energy
        assert a.parameters.tolist() == b.parameters.tolist()

    def test_energy_matches_fresh_evaluation(self):
        build = build_uccsd_singlet(4, 2)
        result = run_vqe(build, self.h, self.hf_idx, seed=0)
        state = apply_circuit(build.circuit, result.parameters, self.hf_idx)
        assert abs(result.energy - expectation(self.h, state)) < 1e-12

    def test_variational_floor(self):
        for builder in (build_uccsd_singlet, build_brc_closed_shell):
            result = run_vqe(builder(4, 2), self.h, self.hf_idx, seed=7)
            assert result.energy >= self.fci - 1e-9

    def test_restart_best_of__matches_manual_sweep(self):
        build = build_brc_closed_shell(4, 2)
        combined = run_vqe(build, self.h, self.hf_idx, seed=9)
        assert combined.restarts_used == build.restarts
        singles = []
        from dataclasses import replace

        for r in range(build.restarts):
            rng = np.random.default_rng(np.random.SeedSequence([9, r]))
            x0 = build.init_policy.draw(build.circuit.n_params, rng)
            from vqe_bench.driver import circuit_objective

            singles.append(minimize_bfgs(
                circuit_objective(build.circuit, self.h, self.hf_idx),
                x0).energy)
        assert combined.energy == pytest.approx(min(singles), abs=1e-12)


class TestHeaLayerGrowth:
    def test_trivial_hamiltonian_stops_at_depth_one(self):
        h = QubitOperator.identity(-2.0)
        build, result = run_hea_layer_growth(h, 2, 0, reference_energy=-2.0,
                                             n_budget=500, s_restarts=2, seed=1)
        assert result.converged
        assert result.energy == pytest.approx(-2.0, abs=1e-9)
        assert sum(1 for g in build.circuit.gates if g.kind == "CNOT") == 1

    def test_h2_reaches_chemical_accuracy_at_small_depth(self):
        data = bundled_molecule("H2").integrals(0.7414)
        h = qubit_hamiltonian(data)
        fci = exact_ground_energy(h, 4, sector=(2, 0))
        build, result = run_hea_layer_growth(h, 4, hf_state_index(4, 2),
                                             reference_energy=fci, seed=2)
        assert result.converged
        assert result.energy - fci <= 0.0016
        depth = sum(1 for g in build.circuit.gates if g.kind == "CNOT") // 3
        assert depth <= 3

    def test_budget_is_respected(self):
        data = bundled_molecule("H2").integrals(0.7414)
        h = qubit_hamiltonian(data)
        _, result = run_hea_layer_growth(h, 4, 3, reference_energy=-99.0,
                                         n_budget=200, s_restarts=2, seed=3)
        assert not result.converged
        assert result.n_evaluations <= 200

    def test_max_depth_exit_is_not_converged(self):
        data = bundled_molecule("H2").integrals(0.7414)
        h = qubit_hamiltonian(data)
        _, result = run_hea_layer_growth(h, 4, 3, reference_energy=-99.0,
                                         n_budget=50000, max_depth=1)
        assert result.n_evaluations < 50000  # growth ended at max_depth
        assert not result.converged

    @pytest.mark.parametrize("kwargs, runs", [
        ({"n_budget": 5, "s_restarts": 4}, 1),
        ({"max_depth": 3, "s_restarts": 2}, 6)])
    def test_restarts_used_counts_the_optimizations_run(self, kwargs, runs):
        data = bundled_molecule("H2").integrals(0.7414)
        h = qubit_hamiltonian(data)
        _, result = run_hea_layer_growth(h, 4, 3, reference_energy=-99.0,
                                         seed=4, **kwargs)
        assert result.restarts_used == runs
        with pytest.raises(FrozenInstanceError):
            result.converged = True

    def test_max_depth_below_one_rejected(self):
        h = QubitOperator.identity(-1.0)
        with pytest.raises(ValueError, match="max_depth"):
            run_hea_layer_growth(h, 2, 0, reference_energy=-1.0, max_depth=0)

    @pytest.mark.parametrize("name,value", [
        ("chem_tol", math.nan), ("chem_tol", math.inf), ("chem_tol", -1e-3),
        ("reference_energy", math.nan), ("reference_energy", -math.inf)])
    def test_non_finite_or_negative_stop_values_rejected(self, name, value):
        # a NaN ran every depth until the budget or max_depth ended it
        h = QubitOperator.identity(-1.0)
        kwargs = {"reference_energy": -1.0, name: value}
        with pytest.raises(ValueError, match=name):
            run_hea_layer_growth(h, 2, 0, max_depth=1, **kwargs)


def _growth_digest(molecule, r, n_budget) -> tuple[str, VqeResult]:
    """SHA-256 over a seed-3 layer growth's energy, sorted parameters,
    evaluation and iteration counts, converged flag and restarts used."""
    data = bundled_molecule(molecule).integrals(r)
    h = qubit_hamiltonian(data)
    fci = exact_ground_energy(h, data.n_qubits,
                              sector=(data.n_electrons, data.ms2))
    build, result = run_hea_layer_growth(
        h, data.n_qubits, hf_state_index(data.n_qubits, data.n_electrons),
        reference_energy=fci, n_budget=n_budget, seed=3)
    pairs = zip(build.circuit.param_names, result.parameters.tolist())
    digest = hashlib.sha256()
    for value in (result.energy, sorted(pairs),
                  result.n_evaluations, result.n_iterations,
                  result.converged, result.restarts_used):
        digest.update(repr(value).encode() + b"\n")
    return digest.hexdigest(), result


class TestHeaGrowthPins:
    """Two seeded layer growths, pinned bit for bit at commit c6a9d06."""

    def test_h4_budget_runs_out_mid_restart(self):
        digest, result = _growth_digest("H4", 1.0, 300)
        assert (result.n_evaluations, result.restarts_used,
                result.converged) == (300, 6, False)
        assert digest == (
            "c4e6e0ccc17fcc14ac3d0ed4da3b09e674648db2559c0147b4e01cfab6aaf7f9")

    def test_h2_reaches_chem_tol(self):
        digest, result = _growth_digest("H2", 0.7414, 600)
        assert (result.n_evaluations, result.restarts_used,
                result.converged) == (422, 10, True)
        assert digest == (
            "0942846b047e75178d21f3fdaedd0129f6a0b3ac61fbd79587d600b763fd06a0")


def _trajectory_digest(objective, x0, cfg=None, param_names=None) -> str:
    """SHA-256 over every point minimize_bfgs evaluates, then its final
    energy and parameters, each as the repr of Python floats; the
    parameters as sorted (name, value) pairs, named x0, x1, ... unless
    param_names are given."""
    digest = hashlib.sha256()

    def recorded(x):
        digest.update(repr([float(v) for v in x]).encode() + b"\n")
        return objective(x)

    result = minimize_bfgs(recorded, x0, cfg)
    names = param_names or [f"x{i}" for i in range(len(x0))]
    pairs = zip(names, result.parameters.tolist())
    digest.update(repr(result.energy).encode() + b"\n")
    digest.update(repr(sorted(pairs)).encode() + b"\n")
    return digest.hexdigest()


class TestTrajectoryPins:
    """Every evaluated point of two optimizations, pinned bit for bit at
    commit 8c3f53b, where minimize_bfgs still called its objective itself
    rather than looping over bfgs_steps."""

    def test_rosenbrock(self):
        assert _trajectory_digest(
            rosenbrock, np.array([-1.2, 1.0]),
            OptimizerConfig(gradient_tolerance=1e-8)) == (
            "1c1528855de7b0ead699020898d36475cfae759ffbc0266cbfde77415638afaf")

    def test_seeded_h4_brc_restart(self):
        data = bundled_molecule("H4").integrals(1.0)
        h = qubit_hamiltonian(data)
        build = build_brc_closed_shell(data.n_qubits, data.n_electrons)
        x0 = build.init_policy.draw(
            build.n_params,
            np.random.default_rng(np.random.SeedSequence([5, 3])))
        objective = circuit_objective(
            build.circuit, h, hf_state_index(data.n_qubits, data.n_electrons))
        assert _trajectory_digest(
            objective, x0, param_names=build.circuit.param_names) == (
            "32be4ffe1dccb77e8afd4e956376e288bfd3537a9327ac1ce0c6a565b173b754")


LOCKSTEP_CASES = {
    "H4 BRC": ("H4", 1.0, lambda n, ne: build_brc_closed_shell(n, ne)),
    "H4 1-UpCCGSD": ("H4", 1.0, lambda n, ne: build_kupccgsd(n, ne, 1)),
    "H4 2-UpCCGSD": ("H4", 1.0, lambda n, ne: build_kupccgsd(n, ne, 2)),
    "H2 LDCA": ("H2", 0.7414, lambda n, ne: build_ldca(n, 2)),
}


def _lockstep_case(name, n_starts, seed=2):
    molecule, r, builder = LOCKSTEP_CASES[name]
    data = bundled_molecule(molecule).integrals(r)
    build = builder(data.n_qubits, data.n_electrons)
    starts = [build.init_policy.draw(
        build.n_params,
        np.random.default_rng(np.random.SeedSequence([seed, k])))
        for k in range(n_starts)]
    return (build, qubit_hamiltonian(data),
            hf_state_index(data.n_qubits, data.n_electrons), starts)


def _serial(build, h, initial, x0, cfg):
    """minimize_bfgs alone from x0: its result and every (x, E, grad)."""
    seen = []
    objective = circuit_objective(build.circuit, h, initial)

    def recorded(x):
        energy, grad = objective(x)
        seen.append((np.array(x), energy, np.array(grad)))
        return energy, grad

    result = minimize_bfgs(recorded, x0, cfg)
    return result, seen


def _bits(values) -> list[str]:
    return [repr(float(v)) for v in np.ravel(values)]


def _assert_best_of(alone: list[VqeResult], together: VqeResult) -> None:
    """together is the lowest-energy run of `alone` (ties to the first),
    bit for bit, with every run's evaluations summed."""
    best = min(alone, key=lambda result: result.energy)
    assert together.energy == best.energy
    assert together.parameters.tolist() == best.parameters.tolist()
    assert together.n_iterations == best.n_iterations
    assert together.converged == best.converged
    assert together.n_evaluations == sum(r.n_evaluations for r in alone)
    assert together.restarts_used == len(alone)


class TestLockstep:
    """Restarts advanced together see the points and bits they see alone."""

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
    def test_each_restart_matches_its_own_minimize_bfgs(self, name,
                                                       monkeypatch):
        build, h, initial, starts = _lockstep_case(name, 4)
        cfg = OptimizerConfig()
        serial = [_serial(build, h, initial, x0, cfg) for x0 in starts]
        batches = []
        batched = driver.adjoint_gradient

        def recorded(circuit, h, angles, initial):
            energies, grads = batched(circuit, h, angles, initial)
            batches.append((np.array(angles), energies, np.array(grads)))
            return energies, grads

        monkeypatch.setattr(driver, "adjoint_gradient", recorded)
        result = minimize_bfgs(circuit_objective(build.circuit, h, initial),
                               np.array(starts), cfg)
        # batch t holds point t of every restart that asks for one, in order
        assert len(batches) == max(len(seen) for _, seen in serial)
        for t, (angles, energies, grads) in enumerate(batches):
            live = [seen[t] for _, seen in serial if len(seen) > t]
            assert _bits(angles) == _bits([x for x, _, _ in live])
            assert _bits(energies) == _bits([e for _, e, _ in live])
            assert _bits(grads) == _bits([g for _, _, g in live])
        _assert_best_of([alone for alone, _ in serial], result)

    def test_restarts_leaving_on_budget_or_companions_change_nothing(self):
        build, h, initial, starts = _lockstep_case("H4 1-UpCCGSD", 5)
        counts = sorted(_serial(build, h, initial, x0, None)[0].n_evaluations
                        for x0 in starts)
        # some restarts converge within this budget, the rest spend it
        cfg = OptimizerConfig(max_energy_evaluations=counts[2])
        alone = [_serial(build, h, initial, x0, cfg)[0] for x0 in starts]
        assert {result.converged for result in alone} == {True, False}
        objective = circuit_objective(build.circuit, h, initial)
        for subset in ([0, 1, 2, 3, 4], [4, 1], [2]):
            together = minimize_bfgs(
                objective, np.array([starts[k] for k in subset]), cfg)
            _assert_best_of([alone[k] for k in subset], together)

    def test_run_vqe_reports_the_best_restart_and_every_evaluation(self):
        build, h, initial, starts = _lockstep_case("H4 BRC", 20, seed=3)
        serial = [_serial(build, h, initial, x0, None)[0] for x0 in starts]
        best = min(serial, key=lambda result: result.energy)  # lowest index
        result = run_vqe(build, h, initial, seed=3)
        assert result.energy == best.energy
        assert result.parameters.tolist() == best.parameters.tolist()
        assert result.n_evaluations == sum(r.n_evaluations for r in serial)
        assert result.restarts_used == 20
