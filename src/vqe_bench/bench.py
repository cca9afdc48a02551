"""Benchmark harness: per-molecule JSON records, molecule x ansatz x
bond-length sweeps, and plot-ready comparison tables.

Data files live at `<data_dir>/<molecule>.json` with 2-space indentation
and sorted keys (byte-stable).  Lists under energies/runtimes/n_params are
always aligned with bond_lengths; failed points stay null.  A command
loads its file once, edits the `BenchRecord` in memory and saves it after
each bond length's references and after each point.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import logging
import math
import os
import platform
import re
import tempfile
import time
import zlib
from dataclasses import asdict, dataclass, field, fields
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
    CHEMICAL_ACCURACY,
    OptimizerConfig,
    run_hea_layer_growth,
    run_vqe,
)
from .hamiltonian import (
    IntegralData,
    MoleculeSpec,
    exact_ground_energy,
    hf_energy,
    hf_state_index,
    qubit_hamiltonian,
)
from .seeds import seed_words

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
DEFAULT_LDCA_CYCLES = 2
KUPCCGSD_PATTERN = re.compile(r"([1-9]\d*)-UpCCGSD")  # k >= 1; fullmatch it
REFERENCE_KINDS = ("fci", "hf", "ccsd")
# comparison columns that an ansatz of the same name would clash with
RESERVED_ANSATZ_NAMES = ("CCSD", "bond_length")

# the ansatz names besides the k-UpCCGSD family that KUPCCGSD_PATTERN matches
NAMED_ANSATZES = ("UCCSD", "UCCSD0", "QUCC", "HEA", "LDCA", "BRC", "ADAPT",
                  "qubit-ADAPT", "QCC")


def known_ansatz(name: str) -> bool:
    return (name in NAMED_ANSATZES
            or KUPCCGSD_PATTERN.fullmatch(name) is not None)


class DataFileError(RuntimeError):
    """A benchmark data file is missing, malformed, or refused."""


_NUMBER = (int, float)
# What the lists of each ansatz-keyed mapping hold besides null; those
# named in _NON_NEGATIVE hold no negative number either.
_MAPPING_TYPES = {"energies": _NUMBER, "runtimes": _NUMBER, "n_params": int,
                  "traces": dict}
_NON_NEGATIVE = ("runtimes", "n_params")


def _holds(name: str, value) -> bool:
    """Whether a data file's `name` lists (a mapping's, a reference
    kind's or the bond lengths) may hold `value`: null, or a finite value
    of their type (a bool is no number), not negative where named so."""
    return value is None or (
        isinstance(value, _MAPPING_TYPES.get(name, _NUMBER))
        and not isinstance(value, bool)
        and (not isinstance(value, float) or math.isfinite(value))
        and (name not in _NON_NEGATIVE or value >= 0))


def _entries(values, name: str, n: int) -> bool:
    """Whether `values` is a list of n entries that `name` lists hold."""
    return isinstance(values, list) and len(values) == n and all(
        _holds(name, v) for v in values)


def _refuse_unless_held(name: str, value) -> None:
    """Raise ValueError, before anything is stored, for a value that the
    `name` lists may not hold."""
    if not _holds(name, value):
        sign = " non-negative" if name in _NON_NEGATIVE else ""
        raise ValueError(f"{name} hold only finite{sign} values, "
                         f"not {value!r}")


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
    metadata: dict = field(default_factory=lambda: {
        "artifact_version": __version__, "schema_version": SCHEMA_VERSION})

    def __post_init__(self):
        """Refuse a value of the wrong type or sign: data files are edited
        by hand."""
        if not isinstance(self.molecule, str):
            raise DataFileError("molecule is not a string")
        lengths, n = self.bond_lengths, len(self.bond_lengths)
        if (not _entries(lengths, "bond_lengths", n) or None in lengths
                or len(set(lengths)) < n):
            raise DataFileError("bond lengths are not distinct finite numbers")
        self.fci = [None] * n if self.fci is None else self.fci
        self.hf = [None] * n if self.hf is None else self.hf
        lists = {kind: (getattr(self, kind), kind) for kind in REFERENCE_KINDS
                 if getattr(self, kind) is not None}
        for name in _MAPPING_TYPES:
            mapping = getattr(self, name)
            if not isinstance(mapping, dict):
                raise DataFileError(f"{name} is not a mapping of lists")
            for key in RESERVED_ANSATZ_NAMES:
                if key in mapping:
                    raise DataFileError(f"{name} holds ansatz {key!r}, the "
                                        "name of a comparison column")
            lists.update({f"{name} list for {key!r}": (values, name)
                          for key, values in mapping.items()})
        for label, (values, name) in lists.items():
            if not _entries(values, name, n):
                raise DataFileError(f"{label} is misaligned or holds a "
                                    "value of the wrong type or sign")
        if not isinstance(self.metadata, dict):
            raise DataFileError("metadata is not a mapping")

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

    def store(self, ansatz: str, bond_length: float, energy, runtime=None,
              n_params=None, trace=None) -> None:
        """Fill one point's aligned slots; a null energy (a failed point)
        nulls the point's runtime, n_params and trace too.  A value no data
        file may hold, or a reserved ansatz name, is refused first."""
        if ansatz in RESERVED_ANSATZ_NAMES:
            raise ValueError(f"ansatz name {ansatz!r} is the name of a "
                             "comparison column")
        values = {"energies": energy, "runtimes": runtime,
                  "n_params": n_params, "traces": trace}
        for name, value in values.items():
            _refuse_unless_held(name, value)
        idx = self.point_index(bond_length)
        self.slot("energies", ansatz)[idx] = energy
        for name, value in (("runtimes", runtime), ("n_params", n_params),
                            ("traces", trace)):
            if value is not None or (energy is None
                                     and ansatz in getattr(self, name)):
                self.slot(name, ansatz)[idx] = value

    def store_reference(self, kind: str, bond_length: float,
                        value: float) -> None:
        """Store a reference energy (fci / hf / ccsd) for one bond length."""
        if kind not in REFERENCE_KINDS:
            raise ValueError(f"unknown reference kind {kind!r}")
        _refuse_unless_held(kind, value)
        idx = self.point_index(bond_length)
        if getattr(self, kind) is None:  # ccsd is absent until recorded
            setattr(self, kind, [None] * len(self.bond_lengths))
        getattr(self, kind)[idx] = value

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchRecord":
        try:
            return cls(**{f.name: payload[f.name] for f in fields(cls)
                          if f.name in payload})
        except TypeError as exc:  # not an object, or a required key missing
            raise DataFileError(f"malformed record payload: {exc}") from exc

    def serialize(self) -> str:
        """to_dict as JSON, dumped from the fields without asdict's copy."""
        return json.dumps({"schema_version": SCHEMA_VERSION, **vars(self)},
                          indent=2, sort_keys=True, allow_nan=False) + "\n"


def record_path(data_dir: str | Path, molecule: str) -> Path:
    return Path(data_dir) / f"{molecule}.json"


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def _is_schema_version(value) -> bool:
    """True for SCHEMA_VERSION as a JSON integer; true and 1.0 equal it in
    Python but are another type."""
    return type(value) is int and value == SCHEMA_VERSION


def load_record(path: str | Path) -> BenchRecord:
    path = Path(path)
    if not path.exists():
        raise DataFileError(f"no data file at {path}")
    try:  # strict JSON: NaN and Infinity tokens are refused
        payload = json.loads(path.read_text(), parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError included
        raise DataFileError(f"{path} is not valid JSON: {exc}") from exc
    record = BenchRecord.from_dict(payload)
    found = (record.molecule, payload.get("schema_version", SCHEMA_VERSION))
    if found[0] != path.stem or not _is_schema_version(found[1]):
        raise DataFileError(f"{path} holds (molecule, schema_version) "
                            f"{found}; want {(path.stem, SCHEMA_VERSION)}")
    version = record.metadata.get("schema_version", SCHEMA_VERSION)
    if not _is_schema_version(version):
        raise DataFileError(f"{path} holds metadata.schema_version "
                            f"{version!r}; want {SCHEMA_VERSION}")
    return record


def make_data_dir(path: Path) -> None:
    """Create the directory of the data file at `path`; a DataFileError
    names it when it cannot be made, e.g. when a regular file has its name."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataFileError(f"cannot make data directory {path.parent}: "
                            f"{exc}") from exc


def save_record(record: BenchRecord, path: str | Path) -> None:
    """Stamp the timestamp, then write crash-safe: temp file, then rename."""
    record.metadata["timestamp"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    path = Path(path)
    make_data_dir(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(record.serialize())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def initdata(molecule: str, bond_lengths, data_dir: str | Path,
             force: bool = False) -> BenchRecord:
    """Write a skeleton record, under the sweep lock; force clobbers."""
    path = record_path(data_dir, molecule)
    make_data_dir(path)
    with SweepLock(path):
        if path.exists() and not force:
            raise DataFileError(f"{path} exists; pass force to overwrite")
        record = BenchRecord(molecule, [float(r) for r in bond_lengths])
        save_record(record, path)
    return record


def savedata(path: str | Path, ansatz: str, bond_length: float,
             energy, runtime=None, n_params=None, trace=None) -> BenchRecord:
    """Atomic read-modify-write of one point under the sweep lock (see
    `BenchRecord.store`)."""
    with SweepLock(path):
        record = load_record(path)
        record.store(ansatz, bond_length, energy, runtime, n_params, trace)
        save_record(record, path)
    return record


def rounddata(record: BenchRecord, decimals: int) -> BenchRecord:
    """Round every stored energy half-to-even; runtimes stay untouched."""
    if decimals < 0:
        raise ValueError("decimals must be non-negative")
    rounded = copy.deepcopy(record)
    for values in (*rounded.energies.values(),
                   *(getattr(rounded, kind) or [] for kind in REFERENCE_KINDS)):
        values[:] = [None if v is None else round(v, decimals)
                     for v in values]
    return rounded


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointResult:
    energy: float
    n_params: int
    runtime: float
    trace: dict | None = None


def _point_seed(master_seed: int, ansatz: str, point_idx: int) -> int:
    return seed_words([master_seed, zlib.crc32(ansatz.encode()), point_idx],
                      1)[0]


def run_ansatz_point(name: str, h, n_qubits: int, n_electrons: int,
                     fci: float, cfg: OptimizerConfig, seed: int
                     ) -> PointResult:
    """Run one ansatz on one prepared Hamiltonian point, the one place a
    point is timed: its runtime covers the build and the optimization."""
    hf_idx = hf_state_index(n_qubits, n_electrons)
    tick = time.perf_counter()
    energy = trace = None  # a fixed build's energy comes from run_vqe
    match = KUPCCGSD_PATTERN.fullmatch(name)
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
        energy = result.energy
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
        energy, trace = trace.final_energy, trace.to_dict()
    else:
        raise ValueError(f"unknown ansatz {name!r}")
    if energy is None:
        energy = run_vqe(build, h, hf_idx, cfg, seed=seed).energy
    return PointResult(energy, build.n_params, time.perf_counter() - tick,
                       trace)


class SweepLock:
    """Advisory lock file so sweeps and CLI writers never share a record.

    It holds "<pid> <hostname>"; a lock whose pid is gone from this host
    (a killed sweep) is taken over with a warning."""

    def __init__(self, path: Path):
        self.path = path
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
            except (FileNotFoundError, NotADirectoryError) as exc:  # no dir
                raise DataFileError(f"no data file at {self.path}") from exc
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()} {platform.node()}")
        return self

    def _owner_is_dead(self) -> bool:
        try:
            pid, _, host = self.lock_path.read_text().partition(" ")
        except FileNotFoundError:  # released since the failed open: free
            return True
        if not pid.isdecimal() or host != platform.node():
            return False
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            return True
        except PermissionError:  # alive, owned by another user
            pass
        return False

    def __exit__(self, *exc):
        self.lock_path.unlink(missing_ok=True)


def read_fixture(spec: MoleculeSpec, r: float) -> IntegralData:
    """The spec's fixture at bond length r; a DataFileError names it when
    it is missing or malformed, or when its MS2 is not the 2Sz of the HF
    determinant (NELEC mod 2), the sector circuits and FCI share."""
    path = spec.fcidump_paths.get(r)
    if path is None:
        raise DataFileError(f"no fixture for {spec.name} at r={r}; "
                            f"have {list(spec.bond_lengths)}")
    try:
        data = spec.integrals(r)
    except ValueError as exc:
        raise DataFileError(f"{path}: {exc}") from exc
    if data.ms2 != data.n_electrons % 2:
        raise DataFileError(f"{path}: MS2={data.ms2}, but the Hartree-Fock "
                            f"determinant has 2Sz={data.n_electrons % 2}")
    return data


def reference_points(spec: MoleculeSpec, bond_lengths=None):
    """Lazy (r, integrals, h, FCI in the (N, 2Sz) sector, HF) per bond
    length (default: the spec's); read_fixture reads each one up front."""
    points = list(bond_lengths) if bond_lengths else list(spec.bond_lengths)
    fixtures = {r: read_fixture(spec, r) for r in points}

    def reference(r):
        data = fixtures[r]
        h = qubit_hamiltonian(data)
        fci = exact_ground_energy(h, data.n_qubits,
                                  sector=(data.n_electrons, data.ms2))
        return r, data, h, fci, hf_energy(h, data.n_qubits, data.n_electrons)

    return map(reference, points)


def open_sweep_record(spec: MoleculeSpec, path: Path,
                      bond_lengths=None) -> BenchRecord:
    """The record that `run` and `fci` fill: the file at `path`, else a
    skeleton over the spec's bond lengths.  Refused before anything is
    written unless it holds every requested bond length (default: the
    spec's)."""
    record = (load_record(path) if path.exists()
              else BenchRecord(spec.name, list(spec.bond_lengths)))
    missing = set(bond_lengths or spec.bond_lengths) - set(record.bond_lengths)
    if missing:
        raise DataFileError(f"{path} bond lengths disagree with the requested"
                            f" points: it lacks {sorted(missing)}")
    return record


def run_sweep(spec: MoleculeSpec, ansatz_names, cfg: OptimizerConfig | None,
              seed: int, data_dir: str | Path,
              bond_lengths=None) -> BenchRecord:
    """Sweep every requested point serially in the calling thread, so each
    recorded runtime is that point's own wall time, saving the record after
    each bond length's references and after each point.  A point's seed
    comes from r's index among the spec's bond lengths, not the file's.

    Per-point failures are logged and stay null; the sweep continues.
    An unknown ansatz name is refused before anything is read or written.
    """
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    for name in ansatz_names:
        if not known_ansatz(name):
            raise ValueError(f"unknown ansatz {name!r}")
    cfg = cfg or OptimizerConfig()
    references = reference_points(spec, bond_lengths)
    path = record_path(data_dir, spec.name)
    make_data_dir(path)
    with SweepLock(path):
        record = open_sweep_record(spec, path, bond_lengths)
        record.metadata["seed"] = seed
        for r, data, h, fci, ehf in references:
            record.store_reference("fci", r, fci)
            record.store_reference("hf", r, ehf)
            save_record(record, path)
            idx = spec.bond_lengths.index(r)
            for name in ansatz_names:
                try:
                    result = run_ansatz_point(
                        name, h, data.n_qubits, data.n_electrons, fci, cfg,
                        _point_seed(seed, name, idx))
                except Exception as exc:  # record the miss, keep sweeping
                    log.error("point failed: %s %s r=%s: %s",
                              spec.name, name, r, exc)
                    record.store(name, r, None)
                else:
                    record.store(name, r, result.energy, result.runtime,
                                 result.n_params, result.trace)
                save_record(record, path)
    return record


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
    mapping = {"runtimes": record.runtimes, "params": record.n_params}.get(kind)
    if mapping is None:
        raise ValueError(f"unknown comparison kind {kind!r}")
    names = sorted(mapping)
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
