"""Benchmark harness: per-molecule JSON records, molecule x ansatz x
bond-length sweeps, and plot-ready comparison tables.

Data files live at `<data_dir>/<molecule>.json` with 2-space indentation
and sorted keys (byte-stable).  Lists under energies/runtimes/n_params are
always aligned with bond_lengths; failed points stay null.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import re
import socket
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import (
    build_brc_closed_shell,
    build_kupccgsd,
    build_ldca,
    build_qucc,
    build_uccsd0,
    build_uccsd_singlet,
)
from .ansatz.adaptive import (
    adapt_vqe,
    build_fermionic_pool,
    build_qubit_pool,
    qcc_optimize,
    qubit_adapt_vqe,
)
from .driver import (
    OptimizerConfig,
    run_hea_layer_growth,
    run_vqe,
)
from .hamiltonian import (
    MoleculeSpec,
    exact_ground_energy,
    hf_energy,
    hf_state_index,
    qubit_hamiltonian,
)
log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
CHEMICAL_ACCURACY = 0.0016
DEFAULT_LDCA_CYCLES = 2
KUPCCGSD_PATTERN = re.compile(r"^([1-9]\d*)-UpCCGSD$")  # k >= 1

FIXED_ANSATZES = ("UCCSD", "UCCSD0", "QUCC", "1-UpCCGSD", "2-UpCCGSD")
CHANGEABLE_ANSATZES = ("HEA", "LDCA", "BRC", "ADAPT", "qubit-ADAPT", "QCC")


def known_ansatz(name: str) -> bool:
    return (name in FIXED_ANSATZES or name in CHANGEABLE_ANSATZES
            or KUPCCGSD_PATTERN.match(name) is not None)


class DataFileError(RuntimeError):
    """A benchmark data file is missing, malformed, or refused."""


@dataclass
class BenchRecord:
    molecule: str
    bond_lengths: list[float]
    energies: dict[str, list] = field(default_factory=dict)
    fci: list = None
    hf: list = None
    ccsd: list = None
    runtimes: dict[str, list] = field(default_factory=dict)
    n_params: dict[str, list] = field(default_factory=dict)
    traces: dict[str, list] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.bond_lengths)
        if self.fci is None:
            self.fci = [None] * n
        if self.hf is None:
            self.hf = [None] * n
        self._check_alignment()

    def _check_alignment(self):
        n = len(self.bond_lengths)
        for label, lst in [("fci", self.fci), ("hf", self.hf),
                           ("ccsd", self.ccsd)]:
            if lst is not None and len(lst) != n:
                raise DataFileError(f"{label} list is misaligned")
        for mapping in (self.energies, self.runtimes, self.n_params,
                        self.traces):
            for name, lst in mapping.items():
                if len(lst) != n:
                    raise DataFileError(f"list for {name!r} is misaligned")

    def point_index(self, bond_length: float) -> int:
        for i, r in enumerate(self.bond_lengths):
            if abs(r - bond_length) < 1e-12:
                return i
        raise ValueError(f"unknown bond length {bond_length}")

    def slot(self, mapping_name: str, ansatz: str) -> list:
        mapping = getattr(self, mapping_name)
        if ansatz not in mapping:
            mapping[ansatz] = [None] * len(self.bond_lengths)
        return mapping[ansatz]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "molecule": self.molecule,
            "bond_lengths": self.bond_lengths,
            "energies": self.energies,
            "fci": self.fci,
            "hf": self.hf,
            "ccsd": self.ccsd,
            "runtimes": self.runtimes,
            "n_params": self.n_params,
            "traces": self.traces,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchRecord":
        try:
            return cls(
                molecule=payload["molecule"],
                bond_lengths=list(payload["bond_lengths"]),
                energies=dict(payload.get("energies", {})),
                fci=payload.get("fci"),
                hf=payload.get("hf"),
                ccsd=payload.get("ccsd"),
                runtimes=dict(payload.get("runtimes", {})),
                n_params=dict(payload.get("n_params", {})),
                traces=dict(payload.get("traces", {})),
                metadata=dict(payload.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise DataFileError(f"malformed record payload: {exc}") from exc

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"


def record_path(data_dir: str | Path, molecule: str) -> Path:
    return Path(data_dir) / f"{molecule}.json"


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def load_record(path: str | Path) -> BenchRecord:
    path = Path(path)
    if not path.exists():
        raise DataFileError(f"no data file at {path}")
    try:  # strict JSON: NaN and Infinity tokens are refused
        payload = json.loads(path.read_text(), parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError included
        raise DataFileError(f"{path} is not valid JSON: {exc}") from exc
    return BenchRecord.from_dict(payload)


def save_record(record: BenchRecord, path: str | Path) -> None:
    """Crash-safe write: temp file in the target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(record.serialize())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def initdata(molecule: str, bond_lengths, data_dir: str | Path,
             force: bool = False, metadata: dict | None = None) -> BenchRecord:
    """Write a skeleton record; refuses to clobber without force."""
    path = record_path(data_dir, molecule)
    if path.exists() and not force:
        raise DataFileError(f"{path} exists; pass force to overwrite")
    record = BenchRecord(molecule=molecule,
                         bond_lengths=[float(r) for r in bond_lengths])
    record.metadata = {"artifact_version": __version__,
                       "schema_version": SCHEMA_VERSION,
                       "timestamp": _now()}
    if metadata:
        record.metadata.update(metadata)
    save_record(record, path)
    return record


def savedata(path: str | Path, ansatz: str, bond_length: float,
             energy, runtime=None, n_params=None, trace=None) -> BenchRecord:
    """Atomic read-modify-write of one aligned slot."""
    record = load_record(path)
    idx = record.point_index(bond_length)
    record.slot("energies", ansatz)[idx] = energy
    if runtime is not None:
        record.slot("runtimes", ansatz)[idx] = runtime
    if n_params is not None:
        record.slot("n_params", ansatz)[idx] = n_params
    if trace is not None:
        record.slot("traces", ansatz)[idx] = trace
    record.metadata["timestamp"] = _now()
    save_record(record, path)
    return record


def save_reference(path: str | Path, kind: str, bond_length: float,
                   value: float) -> BenchRecord:
    """Store a reference energy (fci / hf / ccsd) for one bond length."""
    if kind not in ("fci", "hf", "ccsd"):
        raise ValueError(f"unknown reference kind {kind!r}")
    record = load_record(path)
    idx = record.point_index(bond_length)
    if kind == "ccsd" and record.ccsd is None:
        record.ccsd = [None] * len(record.bond_lengths)
    getattr(record, kind)[idx] = value
    record.metadata["timestamp"] = _now()
    save_record(record, path)
    return record


def rounddata(record: BenchRecord, decimals: int) -> BenchRecord:
    """Round every stored energy half-to-even; runtimes stay untouched."""
    if decimals < 0:
        raise ValueError("decimals must be non-negative")

    def rounded(values):
        if values is None:
            return None
        return [None if v is None else round(v, decimals) for v in values]

    return BenchRecord(
        molecule=record.molecule,
        bond_lengths=list(record.bond_lengths),
        energies={k: rounded(v) for k, v in record.energies.items()},
        fci=rounded(record.fci),
        hf=rounded(record.hf),
        ccsd=rounded(record.ccsd),
        runtimes={k: list(v) for k, v in record.runtimes.items()},
        n_params={k: list(v) for k, v in record.n_params.items()},
        traces={k: list(v) for k, v in record.traces.items()},
        metadata=dict(record.metadata),
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass
class PointResult:
    energy: float
    n_params: int
    runtime: float
    trace: dict | None = None


def _point_seed(master_seed: int, ansatz: str, point_idx: int) -> int:
    return int(np.random.SeedSequence(
        [master_seed, zlib.crc32(ansatz.encode()), point_idx]
    ).generate_state(1)[0])


def run_ansatz_point(name: str, h, n_qubits: int, n_electrons: int,
                     fci: float, cfg: OptimizerConfig, seed: int
                     ) -> PointResult:
    """Run one ansatz on one prepared Hamiltonian point."""
    hf_idx = hf_state_index(n_qubits, n_electrons)
    tick = time.perf_counter()
    match = KUPCCGSD_PATTERN.match(name)
    if match:
        build = build_kupccgsd(n_qubits, n_electrons, int(match.group(1)))
    elif name == "UCCSD":
        build = build_uccsd_singlet(n_qubits, n_electrons)
    elif name == "UCCSD0":
        build = build_uccsd0(n_qubits, n_electrons)
    elif name == "QUCC":
        build = build_qucc(n_qubits, n_electrons)
    elif name == "LDCA":
        build = build_ldca(n_qubits, DEFAULT_LDCA_CYCLES)
    elif name == "BRC":
        build = build_brc_closed_shell(n_qubits, n_electrons)
    elif name == "HEA":
        build, result = run_hea_layer_growth(
            h, n_qubits, hf_idx, reference_energy=fci, cfg=cfg, seed=seed)
        return PointResult(result.energy, build.n_params,
                           time.perf_counter() - tick)
    elif name in ("ADAPT", "qubit-ADAPT", "QCC"):
        pool = build_fermionic_pool(n_qubits, n_electrons)
        if name != "ADAPT":
            pool = build_qubit_pool(pool, n_qubits)
        if name == "QCC":
            build, trace = qcc_optimize(h, n_qubits, pool, initial_state=hf_idx,
                                        reference_energy=fci, cfg=cfg)
        else:
            grow = adapt_vqe if name == "ADAPT" else qubit_adapt_vqe
            build, trace = grow(h, n_qubits, pool, initial_state=hf_idx,
                                cfg=cfg)
        return PointResult(trace.final_energy, build.n_params,
                           time.perf_counter() - tick, trace.to_dict())
    else:
        raise ValueError(f"unknown ansatz {name!r}")
    result = run_vqe(build, h, hf_idx, cfg, seed=seed)
    return PointResult(result.energy, build.n_params,
                       time.perf_counter() - tick)


class _SweepLock:
    """Advisory lock file so concurrent sweeps refuse to share a record.

    It holds "<pid> <hostname>"; a lock whose pid is gone from this host
    (a killed sweep) is taken over with a warning."""

    def __init__(self, path: Path):
        self.lock_path = Path(str(path) + ".lock")

    def __enter__(self):
        for attempt in range(2):
            try:
                fd = os.open(self.lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if attempt or not self._owner_is_dead():
                    raise DataFileError(f"{self.lock_path} exists: another "
                                        "sweep owns this data file")
                log.warning("taking over %s: its sweep is no longer running",
                            self.lock_path)
                self.lock_path.unlink(missing_ok=True)
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()} {socket.gethostname()}")
        return self

    def _owner_is_dead(self) -> bool:
        try:
            pid, _, host = self.lock_path.read_text().partition(" ")
        except FileNotFoundError:  # released since the failed open: free
            return True
        if not pid.isdecimal() or host != socket.gethostname():
            return False
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            return True
        except PermissionError:  # alive, owned by another user
            pass
        return False

    def __exit__(self, *exc):
        try:
            os.unlink(self.lock_path)
        except FileNotFoundError:
            pass
        return False


def reference_points(spec: MoleculeSpec, bond_lengths=None):
    """Lazy (r, integrals, h, FCI in the (N, 2Sz) sector, HF) per bond
    length (default: the spec's), all checked for a fixture up front."""
    points = list(bond_lengths) if bond_lengths else list(spec.bond_lengths)
    for r in points:
        if r not in spec.fcidump_paths:
            raise DataFileError(f"no fixture for {spec.name} at r={r}")

    def reference(r):
        data = spec.integrals(r)
        h = qubit_hamiltonian(data)
        fci = exact_ground_energy(h, data.n_qubits,
                                  sector=(data.n_electrons, data.ms2))
        return r, data, h, fci, hf_energy(h, data.n_qubits, data.n_electrons)

    return map(reference, points)


def run_sweep(spec: MoleculeSpec, ansatz_names, cfg: OptimizerConfig | None,
              seed: int, data_dir: str | Path, bond_lengths=None,
              threads: int = 4) -> BenchRecord:
    """Sweep every requested point in the calling thread, one at a time,
    persisting each as it lands; `threads` is only recorded in metadata.

    Per-point failures are logged and stay null; the sweep continues.
    """
    cfg = cfg or OptimizerConfig()
    references = reference_points(spec, bond_lengths)
    path = record_path(data_dir, spec.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _SweepLock(path):
        if not path.exists():
            initdata(spec.name, spec.bond_lengths, data_dir)
        record = load_record(path)
        if [float(r) for r in record.bond_lengths] != [
                float(r) for r in spec.bond_lengths]:
            raise DataFileError(
                f"{path} bond lengths disagree with the molecule spec")
        record.metadata.update({"seed": seed, "threads": threads})
        save_record(record, path)
        for r, data, h, fci, ehf in references:
            save_reference(path, "fci", r, fci)
            save_reference(path, "hf", r, ehf)
            idx = record.point_index(r)
            for name in ansatz_names:
                try:
                    result = run_ansatz_point(
                        name, h, data.n_qubits, data.n_electrons, fci, cfg,
                        _point_seed(seed, name, idx))
                except Exception as exc:  # record the miss, keep sweeping
                    log.error("point failed: %s %s r=%s: %s",
                              spec.name, name, r, exc)
                    savedata(path, name, r, None)
                    continue
                savedata(path, name, r, result.energy, result.runtime,
                         result.n_params, result.trace)
    return load_record(path)


# ---------------------------------------------------------------------------
# Comparison emission
# ---------------------------------------------------------------------------


def comparison_table(record: BenchRecord, kind: str) -> tuple[list, list]:
    """Rows aligned with bond lengths; deterministic sorted columns."""
    if kind == "errors":
        names = sorted(record.energies)
        if record.ccsd is not None:
            names = sorted(names + ["CCSD"])
        columns = ["bond_length"] + [f"{n}_error" for n in names] + [
            "chem_acc_lower", "chem_acc_upper"]
        rows = []
        for i, r in enumerate(record.bond_lengths):
            values = [(record.ccsd[i] if name == "CCSD"
                       else record.energies[name][i]) for name in names]
            if record.fci[i] is None and any(v is not None for v in values):
                raise DataFileError(
                    f"errors emission needs fci at r={r} (energies present)")
            row = [r] + [None if v is None else v - record.fci[i]
                         for v in values]
            row.extend([-CHEMICAL_ACCURACY, CHEMICAL_ACCURACY])
            rows.append(row)
        return columns, rows
    if kind == "runtimes":
        names = sorted(record.runtimes)
        mapping = record.runtimes
    elif kind == "params":
        names = sorted(record.n_params)
        mapping = record.n_params
    else:
        raise ValueError(f"unknown comparison kind {kind!r}")
    columns = ["bond_length"] + names
    rows = [[r] + [mapping[n][i] for n in names]
            for i, r in enumerate(record.bond_lengths)]
    return columns, rows


def emit_comparison(record: BenchRecord, kind: str, fmt: str = "csv") -> str:
    columns, rows = comparison_table(record, kind)
    if fmt == "json":
        return json.dumps({"molecule": record.molecule, "kind": kind,
                           "columns": columns, "rows": rows},
                          indent=2, sort_keys=True, allow_nan=False) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buffer.getvalue()
