"""Paired timings of two checkouts: every evaluation, build and compile
case, run by two worker processes, one per checkout, that take turns, so
both sides see the same drift of a shared host.

    python3 tools/time_paired.py --parent <parent checkout>/src \
        --change src [--rounds 20]

Separate invocations cannot resolve a few percent on a host whose speed
drifts by 30-40% over minutes; samples that alternate between the two
sides every few milliseconds can.  With --parent and --change on the
same src (an A/A run) the ratios show what the pairing itself resolves.

Evaluation cases, each sample one simulator.adjoint_gradient call at one
vector of angles or at a batch of rows: LiH @ 1.6 UCCSD and H4 @ 1.0
UCCSD on one vector, H4 @ 1.0 BRC in a batch of 20 rows; H4 @ 1.0 UCCSD
cut to its first 1, 4 and 16 generators, the sizes of ADAPT's circuits;
then plans over all 2**n states, HEA of depth 4 and LDCA with the sweep's
cycle count, on H4 @ 1.0 and LiH @ 1.6, each on one vector and in a
batch of 10 rows.  Build and compile cases, on H4 @ 1.0 and LiH @ 1.6,
each sample making its piece from scratch: build_fermionic_hamiltonian
on the integrals, jordan_wigner on that operator, qubit_hamiltonian on
the integrals, the UCCSD, UCCSD0 and QUCC builds, the fermionic pool's
circuit (build_fermionic_pool(...).candidate_circuit, which maps the
pool's generators at first use), simulator._circuit_plan of each of
those four circuits from the Hartree-Fock state, pauli_sum_matrix of
the Hamiltonian over that sector and over all 2**n states, and the FCI
reference (exact_ground_energy over the sector).  A compile or FCI
sample times that alone: its circuit, made afresh so that no plan is
cached on it, or a copy of the Hamiltonian, on which no compiled sum is
cached, is made before the clock starts.  Sweep cases:
bench.run_ansatz_point at the seeds `vqe-bench run --seed 1` gives, build
included, after the sweep's FCI has compiled H over the sector, of
UCCSD, UCCSD0, QUCC and BRC on H4 @ 1.0, as perfbench's h4-sweep runs
them, and of UCCSD on LiH @ 1.6, as lih-uccsd runs it; and the H4 BRC
point's minimize_bfgs fed the replies it got, recorded once per worker,
so that a sample times the driver alone.

Each round starts a fresh pair of workers.  A worker imports vqe_bench
from its own src directory, makes every case and runs it twice, then
reports what the second run made.  Two workers of one checkout can
differ by a few percent on a case for their whole lives (in an A/A run
with one pair, LiH @ 1.6 qubit_hamiltonian read 1.019 and the change
won 3 rounds of 20); a fresh pair per round turns that into
round-to-round noise, which the median over rounds absorbs.  So that a
worker's heap layout is its own draw and not its checkout's, each
worker first holds a random amount of memory.  The round takes about
100 ms of samples (at least 3) of every case on each side, in chunks of
about 10 ms (at least one sample) that the two sides run in turn,
A B B A, the side that goes first alternating by round; a side's time
for the round is the median of its samples.  Chunks rather than one
100 ms burst per side halved the A/A quartile spread of the build and
compile cases on a shared 2-vCPU host.

Per case the tool prints both sides' medians over the rounds, the median
and quartiles of the per-round ratio change/parent, the rounds the
change won, and whether the two sides' digests of what the case made
agree: every row's energy and gradient bytes for an evaluation; for a
build or compile, its size (terms; gates; rows of a plan's table; stored
entries of a matrix) and a digest of it in order, with the reprs of
every coefficient or binding or the bytes of every array; the reprs of
the energy of an FCI or a point, and of the energy and parameters the
bookkeeping case returns.  A case whose
digests differ, between the sides or from one pair of workers to the
next, is marked in the JSON, and the tool then exits 1: its ratio times
a change that alters answers.  The machine block is the one
perfbench/run.py prints, with the same thread pins; the last line is the
result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BURST_S = 0.1  # seconds of samples per side, case and round
CHUNK_S = 0.01  # seconds of samples before the other side's turn
ROUNDS_PER_PAIR = 1  # rounds a pair of workers runs before a fresh pair
BOND_LENGTHS = {"H4": 1.0, "LiH": 1.6}
SWEEP_SEED = 1  # perfbench's h4-sweep points, as `vqe-bench run --seed 1`
SWEEP_POINTS = {"H4": ("UCCSD", "UCCSD0", "QUCC", "BRC"),  # h4-sweep's
                "LiH": ("UCCSD",)}  # lih-uccsd's, whose start is all zeros
EVALUATIONS = (  # name, molecule, family, batch rows (0: one vector)
    ("LiH UCCSD", "LiH", "UCCSD", 0),
    ("H4 UCCSD", "H4", "UCCSD", 0),
    ("H4 BRC x20", "H4", "BRC", 20),
    ("H4 UCCSD[:1]", "H4", "UCCSD[:1]", 0),
    ("H4 UCCSD[:4]", "H4", "UCCSD[:4]", 0),
    ("H4 UCCSD[:16]", "H4", "UCCSD[:16]", 0),
    ("H4 HEA4", "H4", "HEA4", 0),
    ("H4 HEA4 x10", "H4", "HEA4", 10),
    ("H4 LDCA", "H4", "LDCA", 0),
    ("H4 LDCA x10", "H4", "LDCA", 10),
    ("LiH HEA4", "LiH", "HEA4", 0),
    ("LiH HEA4 x10", "LiH", "HEA4", 10),
    ("LiH LDCA", "LiH", "LDCA", 0),
    ("LiH LDCA x10", "LiH", "LDCA", 10),
)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def _arrays(arrays) -> str:
    """Digest of arrays' dtypes, shapes and bytes, in order."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(f"{array.dtype} {array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def _terms(op) -> dict:
    """Size and digest of an operator's terms, in order."""
    return {"terms": len(op.terms), "digest": _digest(
        f"{key} {coeff.real!r} {coeff.imag!r}"
        for key, coeff in op.terms.items())}


def _gates(circuit) -> dict:
    """Size and digest of a circuit's gates, in order."""
    return {"gates": len(circuit.gates), "digest": _digest(
        f"{g.kind} {g.targets} {g.generator} {g.param!r} {g.angle!r}"
        for g in circuit.gates)}


def _plan(plan) -> dict:
    """Rows of a sector plan's table, and a digest of its basis and of
    every step's parameter and (rows, cols, |w|, w)."""
    if plan.basis is None:
        raise ValueError("the circuit left its initial state's sector")
    return {"rows": len(plan.table.r), "digest": _arrays([plan.basis] + [
        array for step in plan.steps
        for array in (np.array([step.param]), *step.pairs)])}


def _matrix(matrix) -> dict:
    """Stored entries of a compiled sum and a digest of its CSR arrays."""
    return {"entries": matrix.nnz,
            "digest": _arrays((matrix.data, matrix.indices, matrix.indptr))}


def _floats(*values) -> dict:
    """Digest of floats' reprs, in order."""
    return {"digest": _digest(repr(float(value)) for value in values)}


def _answers(made) -> dict:
    """Digest of an evaluation's energies and gradients, every row."""
    energies, grad = made
    return {"digest": hashlib.sha256(np.asarray(energies).tobytes()
                                     + grad.tobytes()).hexdigest()[:16]}


def cases() -> list:
    """Every case as (name, prepare, describe): prepare() gives the call
    that one sample times, describe(what the call made) its size and
    digest.  It imports vqe_bench from sys.path."""
    from vqe_bench import bench, driver, simulator
    from vqe_bench.ansatz import (
        AnsatzBuild,
        build_qucc,
        build_uccsd0,
        build_uccsd_singlet,
        trotterize,
        uccsd_singlet_generators,
    )
    from vqe_bench.ansatz.adaptive import build_fermionic_pool
    from vqe_bench.ansatz.core import ZEROS
    from vqe_bench.ansatz.layered import (
        build_brc_closed_shell,
        build_hea,
        build_ldca,
    )
    from vqe_bench.bench import DEFAULT_LDCA_CYCLES
    from vqe_bench.hamiltonian import (
        build_fermionic_hamiltonian,
        bundled_molecule,
        exact_ground_energy,
        hf_state_index,
        qubit_hamiltonian,
    )
    from vqe_bench.operators import QubitOperator, jordan_wigner
    from vqe_bench.seeds import SeedStream

    def uccsd_prefix(k):
        return lambda n, n_electrons: AnsatzBuild(trotterize(
            uccsd_singlet_generators(n, n_electrons)[:k], n), ZEROS)

    builders = {"UCCSD": build_uccsd_singlet, "UCCSD0": build_uccsd0,
                "QUCC": build_qucc, "BRC": build_brc_closed_shell,
                "HEA4": lambda n, _: build_hea(n, 4),
                "LDCA": lambda n, _: build_ldca(n, DEFAULT_LDCA_CYCLES),
                **{f"UCCSD[:{k}]": uccsd_prefix(k) for k in (1, 4, 16)}}
    problems = {}
    for molecule, bond_length in BOND_LENGTHS.items():
        data = bundled_molecule(molecule).integrals(bond_length)
        problems[molecule] = (data, qubit_hamiltonian(data), hf_state_index(
            data.n_qubits, data.n_electrons))

    def made_by(make, describe):  # a case whose sample is make() alone
        return lambda: make, describe

    def pieces(data, h, hf) -> dict:
        n, n_electrons = data.n_qubits, data.n_electrons
        fermionic = build_fermionic_hamiltonian(data)
        sector = simulator.sector_indices(n, n_electrons, data.ms2)

        def fci():  # on a copy of h, so that no compiled sum is cached on it
            op = QubitOperator(h.terms)
            return lambda: exact_ground_energy(op, n, (n_electrons, data.ms2))

        def compiled(make):  # made before the clock starts, no plan cached
            def prepare():
                circuit = make()
                return lambda: simulator._circuit_plan(circuit, hf)
            return prepare, _plan

        circuits = {
            **{f"build {family}": lambda build=builders[family]: build(
                n, n_electrons).circuit
               for family in ("UCCSD", "UCCSD0", "QUCC")},
            "fermionic pool circuit": lambda: build_fermionic_pool(
                n, n_electrons).candidate_circuit(n)}
        return {
            "build_fermionic_hamiltonian": made_by(
                lambda: build_fermionic_hamiltonian(data), _terms),
            "jordan_wigner": made_by(lambda: jordan_wigner(fermionic, n),
                                     _terms),
            "qubit_hamiltonian": made_by(lambda: qubit_hamiltonian(data),
                                         _terms),
            **{name: made_by(make, _gates) for name, make in circuits.items()},
            **{f"compile {name.removeprefix('build ')}": compiled(make)
               for name, make in circuits.items()},
            "compile H over the sector": made_by(
                lambda: simulator.pauli_sum_matrix(h, n, sector), _matrix),
            "compile H over all states": made_by(
                lambda: simulator.pauli_sum_matrix(h, n), _matrix),
            "FCI": (fci, _floats),
        }

    def points(molecule, families) -> dict:
        """`molecule`'s points at the sweep's --seed, each build included,
        as perfbench runs them: the sweep's FCI has compiled H over the
        sector already."""
        data, h, _ = problems[molecule]
        n, n_electrons = data.n_qubits, data.n_electrons
        fci = exact_ground_energy(h, n, (n_electrons, data.ms2))
        index = bundled_molecule(molecule).bond_lengths.index(
            BOND_LENGTHS[molecule])
        return {f"{family} point": made_by(
            lambda family=family: bench.run_ansatz_point(
                family, h, n, n_electrons, fci, driver.OptimizerConfig(),
                bench._point_seed(SWEEP_SEED, family, index)),
            lambda point: _floats(point.energy)) for family in families}

    def bookkeeping() -> tuple:
        """The H4 BRC point's minimize_bfgs against the replies it got, so
        that a sample times the driver alone."""
        data, h, hf = problems["H4"]
        n, n_electrons = data.n_qubits, data.n_electrons
        index = bundled_molecule("H4").bond_lengths.index(BOND_LENGTHS["H4"])
        build = build_brc_closed_shell(n, n_electrons)
        starts = np.array([build.init_policy.draw(build.n_params, SeedStream(
            (bench._point_seed(SWEEP_SEED, "BRC", index), restart)))
            for restart in range(build.restarts)])
        objective = driver.circuit_objective(build.circuit, h, hf)
        replies = []
        driver.minimize_bfgs(
            lambda x: replies.append(objective(x)) or replies[-1], starts)

        def replayed():
            answers = iter(replies)
            return lambda: driver.minimize_bfgs(lambda x: next(answers),
                                                starts)
        return replayed, lambda result: _floats(
            result.energy, *result.parameters.tolist())

    listed = []
    for name, molecule, family, rows in EVALUATIONS:
        data, h, hf = problems[molecule]
        circuit = builders[family](data.n_qubits, data.n_electrons).circuit
        rng = np.random.default_rng(7)
        angles = rng.uniform(-np.pi, np.pi, (max(rows, 1), circuit.n_params))
        batch = angles if rows else angles[0]
        listed.append((name, *made_by(
            lambda circuit=circuit, h=h, batch=batch, hf=hf:
            simulator.adjoint_gradient(circuit, h, batch, hf), _answers)))
    for molecule, bond_length in BOND_LENGTHS.items():
        listed += [(f"{molecule} @ {bond_length} {name}", *case)
                   for name, case in pieces(*problems[molecule]).items()]
    for molecule, families in SWEEP_POINTS.items():
        listed += [(f"{molecule} @ {BOND_LENGTHS[molecule]} {name}", *case)
                   for name, case in points(molecule, families).items()]
    listed.append((f"H4 @ {BOND_LENGTHS['H4']} BRC bookkeeping",
                   *bookkeeping()))
    return listed


def worker(src: str) -> None:
    """Make every case, report its name, size, digest and warm sample
    time, then for each `<case number> <samples>` line read from stdin
    take that many samples and print their times in ms."""
    # a random amount of small and large blocks, held for the worker's
    # life, moves where its later objects and arrays land: with every
    # worker of a checkout laying its heap out alike, a copy of src whose
    # code differed by one wrapper that did nothing read the untouched LiH
    # circuit compiles at 0.97-0.99, 15-17 rounds of 20 one way
    rng = random.Random()
    padding = [bytes(rng.randrange(1, 512))
               for _ in range(rng.randrange(2000))]
    padding += [bytearray(rng.randrange(512, 1 << 16))
                for _ in range(rng.randrange(16))]
    sys.path.insert(0, src)
    listed = cases()
    ready = []
    for name, prepare, describe in listed:
        prepare()()  # the first run compiles plans, matrices and tables
        call = prepare()
        start = time.perf_counter()
        made = call()
        ready.append({"case": name, "warm_s": time.perf_counter() - start,
                      "made": describe(made)})
    print(json.dumps(ready), flush=True)
    for line in sys.stdin:
        case, count = map(int, line.split())
        prepare = listed[case][1]
        ms = []
        for _ in range(count):
            call = prepare()
            start = time.perf_counter()
            call()
            ms.append((time.perf_counter() - start) * 1e3)
        print(json.dumps(ms), flush=True)
    del padding


def _stop(workers: dict) -> None:
    """End each worker: close its stdin, then wait for it."""
    for proc in workers.values():
        proc.stdin.close()
        proc.stdout.close()
        proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="the parent checkout's src")
    parser.add_argument("--change", help="the changed checkout's src")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    if args.rounds < 10:
        parser.error("--rounds must be at least 10")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    from run import THREAD_PINS, environment

    machine = environment()
    for key, value in machine.items():
        print(f"# env {key}={value}")
    sides, first, differ = {}, None, set()
    try:
        for round_ in range(args.rounds):
            if round_ % ROUNDS_PER_PAIR == 0:  # a fresh pair of workers
                _stop(sides)
                sides = {side: subprocess.Popen(
                    [sys.executable, __file__, "--worker",
                     str(Path(getattr(args, side)).resolve())],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                    env={**os.environ, **THREAD_PINS})
                    for side in ("parent", "change")}
                ready = {side: json.loads(proc.stdout.readline())
                         for side, proc in sides.items()}
                if first is None:
                    first = ready
                    warm = [case["warm_s"] for case in ready["parent"]]
                    counts = [max(3, round(BURST_S / s)) for s in warm]
                    chunks = [max(1, round(CHUNK_S / s)) for s in warm]
                    ms = {side: [[] for _ in warm] for side in sides}
                differ |= {case for side in sides
                           for case, entry in enumerate(ready[side])
                           if entry["made"] != first["parent"][case]["made"]}
            for case, (count, chunk) in enumerate(zip(counts, chunks)):
                samples = {side: [] for side in sides}
                for k, done in enumerate(range(0, count, chunk)):
                    order = ("parent", "change") if (round_ + k) % 2 == 0 \
                        else ("change", "parent")
                    for side in order:
                        sides[side].stdin.write(
                            f"{case} {min(chunk, count - done)}\n")
                        sides[side].stdin.flush()
                        samples[side] += json.loads(
                            sides[side].stdout.readline())
                for side in sides:
                    ms[side][case].append(statistics.median(samples[side]))
    finally:
        _stop(sides)
    results = []
    for case, name in enumerate(entry["case"] for entry in first["parent"]):
        ratios = [c / p for c, p in zip(ms["change"][case],
                                        ms["parent"][case])]
        q1, median, q3 = statistics.quantiles(ratios, n=4,
                                              method="inclusive")
        made = {side: first[side][case]["made"] for side in sides}
        size = {key: value for key, value in made["parent"].items()
                if key != "digest"}
        result = {"case": name, **size, "samples_per_round": counts[case],
                  "parent_ms": statistics.median(ms["parent"][case]),
                  "change_ms": statistics.median(ms["change"][case]),
                  "ratio": {"median": median, "q1": q1, "q3": q3},
                  "change_wins": sum(r < 1 for r in ratios),
                  "rounds": args.rounds,
                  "digests": {side: made[side]["digest"] for side in sides},
                  "digests_equal": case not in differ}
        results.append(result)
        size = " ".join(f"{value} {key}" for key, value in size.items())
        print(f"{name:<40} {size:<15} parent {result['parent_ms']:.4f} ms  "
              f"change {result['change_ms']:.4f} ms  ratio {median:.3f} "
              f"({q1:.3f}, {q3:.3f})  change won {result['change_wins']}/"
              f"{args.rounds}  digests "
              f"{'equal' if result['digests_equal'] else 'DIFFER'}",
              flush=True)
    equal = all(result["digests_equal"] for result in results)
    print(json.dumps({"machine": machine, "digests_equal": equal,
                      "cases": results}))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
