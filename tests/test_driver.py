import hashlib
import math

import numpy as np
import pytest

from vqe_bench import driver
from vqe_bench.ansatz import (
    build_brc_closed_shell,
    build_kupccgsd,
    build_ldca,
    build_uccsd_singlet,
)
from vqe_bench.driver import (
    NumericalError,
    OptimizerConfig,
    VqeResult,
    circuit_objective,
    minimize_bfgs,
    minimize_in_lockstep,
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
from vqe_bench.simulator import ParamCircuit, apply_circuit, expectation, ry


def quadratic_1d(x):
    return float((x[0] - 3.0) ** 2), np.array([2.0 * (x[0] - 3.0)])


def rosenbrock(x):
    f = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    g = np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                  200 * (x[1] - x[0] ** 2)])
    return float(f), g


class TestMinimizeBfgs:
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

        trivial = replace(build, circuit=empty, generators=())
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

    def test_max_depth_below_one_rejected(self):
        h = QubitOperator.identity(-1.0)
        with pytest.raises(ValueError, match="max_depth"):
            run_hea_layer_growth(h, 2, 0, reference_energy=-1.0, max_depth=0)


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
        results = minimize_in_lockstep(build.circuit, h, initial, starts, cfg)
        # batch t holds point t of every restart that asks for one, in order
        assert len(batches) == max(len(seen) for _, seen in serial)
        for t, (angles, energies, grads) in enumerate(batches):
            live = [seen[t] for _, seen in serial if len(seen) > t]
            assert _bits(angles) == _bits([x for x, _, _ in live])
            assert _bits(energies) == _bits([e for _, e, _ in live])
            assert _bits(grads) == _bits([g for _, _, g in live])
        for (alone, _), together in zip(serial, results):
            assert together.energy == alone.energy
            assert together.parameters.tolist() == alone.parameters.tolist()
            assert together.n_evaluations == alone.n_evaluations
            assert together.n_iterations == alone.n_iterations
            assert together.converged == alone.converged

    def test_restarts_leaving_on_budget_or_companions_change_nothing(self):
        build, h, initial, starts = _lockstep_case("H4 1-UpCCGSD", 5)
        counts = sorted(_serial(build, h, initial, x0, None)[0].n_evaluations
                        for x0 in starts)
        # some restarts converge within this budget, the rest spend it
        cfg = OptimizerConfig(max_energy_evaluations=counts[2])
        alone = [_serial(build, h, initial, x0, cfg)[0] for x0 in starts]
        assert {result.converged for result in alone} == {True, False}
        for subset in ([0, 1, 2, 3, 4], [4, 1], [2]):
            together = minimize_in_lockstep(
                build.circuit, h, initial, [starts[k] for k in subset], cfg)
            for k, result in zip(subset, together):
                assert result.energy == alone[k].energy
                assert (result.parameters.tolist()
                        == alone[k].parameters.tolist())
                assert result.n_evaluations == alone[k].n_evaluations
                assert result.converged == alone[k].converged

    def test_run_vqe_reports_the_best_restart_and_every_evaluation(self):
        build, h, initial, starts = _lockstep_case("H4 BRC", 20, seed=3)
        serial = [_serial(build, h, initial, x0, None)[0] for x0 in starts]
        best = min(serial, key=lambda result: result.energy)  # lowest index
        result = run_vqe(build, h, initial, seed=3)
        assert result.energy == best.energy
        assert result.parameters.tolist() == best.parameters.tolist()
        assert result.n_evaluations == sum(r.n_evaluations for r in serial)
        assert result.restarts_used == 20
