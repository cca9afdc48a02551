"""Workload inputs, execution and answer checks.

Inputs come from spec.json.  `prepare` turns a workload name and seed
into the generated inputs (set-up time), `execute` makes the calls into
vqe_bench (wall time), and `collect` reads back and checks the answers
(neither).  Package functions are looked up on their modules at call
time, so a tracer installed around them sees these calls.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SPEC = json.loads(Path(__file__).with_name("spec.json").read_text())
WORKLOADS = SPEC["workloads"]
FCI = {molecule: {float(r): e for r, e in points.items()}
       for molecule, points in SPEC["fci_reference"].items()
       if molecule != "about"}

FLOOR_TOLERANCE = 1e-9      # an energy below FCI by more than this is wrong
CHEMICAL_ACCURACY = 1.6e-3  # Ha, the paper's band
ERROR_FLOOR = 1e-6          # Ha; errors are clamped here before the gmean


def _option_values(argv: list[str], option: str) -> list[str]:
    return [argv[i + 1] for i, token in enumerate(argv[:-1])
            if token == option]


def prepare(name: str, seed: int, data_dir: str) -> dict:
    """The generated inputs of one workload run."""
    workload = WORKLOADS[name]
    if workload["kind"] == "cli":
        argv = [token.format(seed=seed, data_dir=data_dir)
                for token in workload["argv"]]
        molecule = _option_values(argv, "--molecule")[0]
        lengths = _option_values(argv, "--bond-lengths")
        bond_lengths = ([float(r) for r in lengths[0].split(",")] if lengths
                        else sorted(FCI[molecule]))
        return {"kind": "cli", "argv": argv, "data_dir": data_dir,
                "molecule": molecule, "bond_lengths": bond_lengths,
                "ansatzes": _option_values(argv, "--ansatz")}
    return {"kind": workload["kind"], "molecule": workload["molecule"],
            "bond_length": workload["bond_length"],
            "calls": workload["calls"]}


def execute(inputs: dict):
    """Run the workload; returns what `collect` needs."""
    if inputs["kind"] == "cli":
        from vqe_bench import cli
        return cli.main(inputs["argv"])
    return _execute_adaptive(inputs)


def _execute_adaptive(inputs: dict) -> dict[str, float]:
    from vqe_bench import hamiltonian
    from vqe_bench.ansatz import adaptive

    spec = hamiltonian.bundled_molecule(inputs["molecule"])
    data = spec.integrals(inputs["bond_length"])
    h = hamiltonian.qubit_hamiltonian(data)
    n = data.n_qubits
    fci = hamiltonian.exact_ground_energy(h, n, sector=(data.n_electrons,
                                                        data.ms2))
    initial = hamiltonian.hf_state_index(n, data.n_electrons)
    fermionic = adaptive.build_fermionic_pool(n, data.n_electrons)
    pools = {"fermionic": fermionic,
             "qubit": adaptive.build_qubit_pool(fermionic, n)}
    energies = {}
    for call in inputs["calls"]:
        pool = pools[call["pool"]]
        stride = call.get("pool_stride", 1)
        if stride != 1:
            pool = adaptive.OperatorPool(pool.kind, pool.entries[::stride])
        kwargs = dict(call["kwargs"])
        if call["function"] == "qcc_optimize":
            kwargs["reference_energy"] = fci
        function = getattr(adaptive, call["function"])
        _, trace = function(h, n, pool, initial_state=initial, **kwargs)
        energies[call["label"]] = trace.final_energy
    return energies


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token} in a data file")


def load_strict(path: Path) -> dict:
    """Parse a data file as strict JSON: NaN and Infinity are errors."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def collect(inputs: dict, outcome) -> tuple[dict, list[str]]:
    """Per-point energies (label -> value or None) and any errors."""
    molecule = inputs["molecule"]
    if inputs["kind"] != "cli":
        r = inputs["bond_length"]
        return ({f"{label}@{molecule}:{r}": energy
                 for label, energy in outcome.items()}, [])
    errors = []
    if outcome != 0:
        errors.append(f"vqe-bench run exited with {outcome}")
    points = {f"{a}@{molecule}:{r}": None
              for a in inputs["ansatzes"] for r in inputs["bond_lengths"]}
    records = {}
    for path in sorted(Path(inputs["data_dir"]).glob("*.json")):
        try:
            records[path.name] = load_strict(path)
        except ValueError as exc:
            errors.append(f"{path.name}: {exc}")
    record = records.get(f"{molecule}.json")
    if record is None:
        errors.append(f"no readable {molecule} record")
        return points, errors
    lengths = [float(r) for r in record["bond_lengths"]]
    for ansatz in inputs["ansatzes"]:
        column = record["energies"].get(ansatz, [None] * len(lengths))
        for r in inputs["bond_lengths"]:
            points[f"{ansatz}@{molecule}:{r}"] = column[lengths.index(r)]
    for r in inputs["bond_lengths"]:
        fci = record["fci"][lengths.index(r)]
        if fci is None or abs(fci - FCI[molecule][r]) > FLOOR_TOLERANCE:
            errors.append(f"record FCI at r={r} is {fci}, "
                          f"expected {FCI[molecule][r]}")
    return points, errors


def point_error(label: str, energy) -> float | None:
    """Error vs the pinned FCI in Ha, or None when the point failed."""
    molecule, r = label.split("@")[1].split(":")
    if energy is None or not isinstance(energy, (int, float)):
        return None
    if not math.isfinite(energy):
        return None
    error = energy - FCI[molecule][float(r)]
    return error if error >= -FLOOR_TOLERANCE else None


def answer_metrics(points: dict) -> dict[str, float]:
    """err_mha.gmean, chem_acc_frac and ok_frac over one run's points."""
    errors = [point_error(label, e) for label, e in points.items()]
    good = [e for e in errors if e is not None]
    logs = [math.log(max(e, ERROR_FLOOR) * 1e3) for e in good]
    return {
        "err_mha.gmean": math.exp(sum(logs) / len(logs)) if logs else math.inf,
        "chem_acc_frac": sum(e < CHEMICAL_ACCURACY for e in good) / len(points),
        "ok_frac": len(good) / len(points),
    }
