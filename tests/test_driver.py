import math

import numpy as np
import pytest

from vqe_bench.ansatz import build_brc_closed_shell, build_uccsd_singlet
from vqe_bench.driver import (
    NumericalError,
    OptimizerConfig,
    apply_circuit,
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
from vqe_bench.simulator import ParamCircuit, expectation, ry


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
        assert abs(result.parameters["x0"] - 3.0) < 1e-10
        assert result.energy < 1e-10
        assert result.converged

    def test_rosenbrock(self):
        result = minimize_bfgs(rosenbrock, np.array([-1.2, 1.0]),
                               OptimizerConfig(gradient_tolerance=1e-8))
        assert abs(result.parameters["x0"] - 1.0) < 1e-6
        assert abs(result.parameters["x1"] - 1.0) < 1e-6
        assert result.converged

    def test_one_parameter_cosine_circuit(self):
        circuit = ParamCircuit.from_gates(1, [ry(0, "t")])
        h = QubitOperator.from_term(parse_pauli_string("Z0"))
        from vqe_bench.driver import circuit_objective

        result = minimize_bfgs(circuit_objective(circuit, h, 0),
                               np.array([2.0]), param_names=["t"])
        assert result.energy == pytest.approx(-1.0, abs=1e-10)
        assert abs(abs(result.parameters["t"]) - math.pi) < 1e-5

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

    def test_wolfe_constant_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(c1=0.5, c2=0.1)


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
        empty = ParamCircuit(4, (), ())
        from dataclasses import replace

        trivial = replace(build, circuit=empty, generators=(), n_params=0)
        result = run_vqe(trivial, self.h, self.hf_idx, seed=0)
        assert result.n_evaluations == 1
        assert result.energy == pytest.approx(
            expectation(self.h, apply_circuit(empty, {}, self.hf_idx)))

    def test_seeded_determinism(self):
        build = build_brc_closed_shell(4, 2)
        a = run_vqe(build, self.h, self.hf_idx, seed=42)
        b = run_vqe(build, self.h, self.hf_idx, seed=42)
        assert a.energy == b.energy
        assert a.parameters == b.parameters

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
            values = build.init_policy.draw(build.circuit.param_names, rng)
            x0 = np.array([values[p] for p in build.circuit.param_names])
            from vqe_bench.driver import circuit_objective

            singles.append(minimize_bfgs(
                circuit_objective(build.circuit, self.h, self.hf_idx), x0,
                param_names=build.circuit.param_names).energy)
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

    def test_max_depth_below_one_rejected(self):
        h = QubitOperator.identity(-1.0)
        with pytest.raises(ValueError, match="max_depth"):
            run_hea_layer_growth(h, 2, 0, reference_energy=-1.0, max_depth=0)
