"""VQE benchmarking suite: statevector simulation with analytic gradients,
fermionic/Pauli operator algebra, ten ansatz builders, a BFGS driver, exact
diagonalization references, and a CLI harness for energy-error / runtime /
parameter-count comparisons."""

__version__ = "0.1.0"
