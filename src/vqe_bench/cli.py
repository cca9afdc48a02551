"""Command-line harness.

Exit codes: 0 success, 1 usage error, 2 data-file error, 3 numerical
failure, including a `run` that leaves a point null.  Sweeps run serially;
`run --threads` is accepted and ignored until the benchmark is redefined.
The commands that write a data file (`init`, `record`, `fci`) take the
sweep's lock on it, so they refuse a file that a live sweep owns.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import nullcontext

# one BLAS thread unless the caller chose, before NumPy loads: LiH @ 1.6's
# FCI reads -7.882324394792935 on the default threads, -7.88232439479294 on one
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import click  # noqa: E402

from . import __version__
from .bench import (
    REFERENCE_KINDS,
    DataFileError,
    SweepLock,
    emit_comparison,
    initdata,
    known_ansatz,
    load_record,
    make_data_dir,
    open_sweep_record,
    read_fixture,
    record_path,
    reference_points,
    run_sweep,
    save_record,
)
from .driver import CHEMICAL_ACCURACY, NumericalError, OptimizerConfig
from .hamiltonian import (
    bundled_molecule,
    bundled_molecules,
    molecule_from_dir,
    qubit_hamiltonian,
)
from .operators import dump_qubit_operator


def resolve_molecule(name: str, fixtures_dir: str | None):
    if fixtures_dir:
        try:
            return molecule_from_dir(name, os.path.join(fixtures_dir, name))
        except (FileNotFoundError, ValueError) as exc:  # e.g. no FCIDUMP
            raise DataFileError(str(exc)) from exc
    if name not in bundled_molecules():
        raise click.UsageError(
            f"unknown molecule {name!r}; bundled: {', '.join(bundled_molecules())}")
    return bundled_molecule(name)


# opened at the first write, so a refused command creates no file
OUTPUT_OPTION = click.option("--output", type=click.File("w", lazy=True),
                             default="-", help="file path; stdout by default")
BOND_LENGTHS_HELP = ("comma or space separated, at least one; omit the "
                     "option for the fixture set (an empty list is refused)")


def parse_bond_lengths(text: str | None):
    """The bond lengths of a given --bond-lengths, or None when none is
    given; a list with no values, "" included, is refused like a bad one."""
    if text is None:
        return None
    try:
        points = [float(token) for token in text.replace(",", " ").split()]
        if not points:
            raise ValueError("it holds no bond length")
        if (not all(map(math.isfinite, points))
                or len(set(points)) < len(points)):
            raise ValueError("bond lengths must be finite and distinct")
    except ValueError as exc:
        raise click.UsageError(f"bad bond length list {text!r}: {exc}") from exc
    return points


@click.group()
@click.version_option(version=__version__, prog_name="vqe-bench")
def cli():
    """Benchmark variational eigensolver ansatzes on bundled molecules."""


@cli.command("init")
@click.option("--molecule", required=True)
@click.option("--bond-lengths", default=None, help=BOND_LENGTHS_HELP)
@click.option("--data-dir", default="data", show_default=True)
@click.option("--fixtures-dir", default=None)
@click.option("--force", is_flag=True)
def cmd_init(molecule, bond_lengths, data_dir, fixtures_dir, force):
    """Create the skeleton data file for a molecule."""
    points = parse_bond_lengths(bond_lengths)
    if points is None:
        points = resolve_molecule(molecule, fixtures_dir).bond_lengths
    initdata(molecule, points, data_dir, force=force)
    click.echo(f"initialized {record_path(data_dir, molecule)}")


@cli.command("run")
@click.option("--molecule", required=True)
@click.option("--ansatz", "ansatzes", multiple=True, required=True,
              help="repeatable, e.g. --ansatz UCCSD --ansatz 2-UpCCGSD")
@click.option("--bond-lengths", default=None, help=BOND_LENGTHS_HELP)
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
# accepted and ignored: the frozen argvs of perfbench/spec.json pass it
@click.option("--threads", type=int, hidden=True, expose_value=False)
@click.option("--data-dir", default="data", show_default=True)
@click.option("--fixtures-dir", default=None)
@click.option("--gradient-tolerance", default=1e-5, show_default=True)
@click.option("--max-evaluations", default=10000, show_default=True, type=int)
def cmd_run(molecule, ansatzes, bond_lengths, seed, data_dir, fixtures_dir,
            gradient_tolerance, max_evaluations):
    """Run a sweep and persist energies/runtimes/parameter counts."""
    ansatzes = list(dict.fromkeys(ansatzes))  # a repeated name runs once
    for name in ansatzes:
        if not known_ansatz(name):
            raise click.UsageError(f"unknown ansatz {name!r}")
    spec = resolve_molecule(molecule, fixtures_dir)
    try:
        cfg = OptimizerConfig(gradient_tolerance=gradient_tolerance,
                              max_energy_evaluations=max_evaluations)
    except ValueError as exc:  # a bad option, not a numerical failure
        raise click.UsageError(str(exc)) from exc
    points = parse_bond_lengths(bond_lengths)
    record = run_sweep(spec, ansatzes, cfg, seed, data_dir,
                       bond_lengths=points)
    failed = 0
    for name in ansatzes:
        for r in points or spec.bond_lengths:
            idx = record.point_index(r)
            e = record.energies[name][idx]
            if e is None:
                failed += 1
                click.echo(f"{molecule} {name} r={r}: failed (null recorded)")
            else:
                fci = record.fci[idx]
                flag = "ok" if abs(e - fci) < CHEMICAL_ACCURACY else "  "
                click.echo(f"{molecule} {name} r={r}: E={e:.8f} "
                           f"err={e - fci:+.2e} {flag}")
    if failed:
        raise NumericalError(f"{failed} point(s) failed (null recorded)")


@cli.command("record")
@click.option("--molecule", required=True)
@click.option("--ansatz", default=None,
              help="ansatz name, or use --reference for fci/hf/ccsd values")
@click.option("--reference", default=None, type=click.Choice(REFERENCE_KINDS))
@click.option("--bond-length", required=True, type=float)
@click.option("--energy", required=True, type=float)
@click.option("--runtime", default=None, type=float)
@click.option("--n-params", default=None, type=int)
@click.option("--data-dir", default="data", show_default=True)
def cmd_record(molecule, ansatz, reference, bond_length, energy, runtime,
               n_params, data_dir):
    """Record one externally computed energy (e.g. a CCSD reference)."""
    if (ansatz is None) == (reference is None):
        raise click.UsageError("pass exactly one of --ansatz / --reference")
    if reference and (runtime, n_params) != (None, None):
        raise click.UsageError("--runtime and --n-params go with --ansatz")
    path = record_path(data_dir, molecule)
    try:
        with SweepLock(path):
            record = load_record(path)
            if reference:
                record.store_reference(reference, bond_length, energy)
            else:
                record.store(ansatz, bond_length, energy, runtime, n_params)
            save_record(record, path)
        click.echo(f"recorded {reference or ansatz} at r={bond_length}")
    except ValueError as exc:  # e.g. a bond length the record does not hold
        raise click.UsageError(str(exc)) from exc


@cli.command("compare")
@click.option("--molecule", required=True)
@click.option("--kind", default="errors", show_default=True,
              type=click.Choice(["errors", "runtimes", "params"]))
@click.option("--format", "fmt", default="csv", show_default=True,
              type=click.Choice(["csv", "json"]))
@click.option("--data-dir", default="data", show_default=True)
@OUTPUT_OPTION
def cmd_compare(molecule, kind, fmt, data_dir, output):
    """Emit plot-ready comparison tables from a data file."""
    record = load_record(record_path(data_dir, molecule))
    output.write(emit_comparison(record, kind, fmt))


@cli.command("fci")
@click.option("--molecule", required=True)
@click.option("--bond-lengths", default=None, help=BOND_LENGTHS_HELP)
@click.option("--data-dir", default="data", show_default=True)
@click.option("--fixtures-dir", default=None)
@click.option("--no-save", is_flag=True, help="print only")
def cmd_fci(molecule, bond_lengths, data_dir, fixtures_dir, no_save):
    """Compute and store exact (FCI) and mean-field reference energies."""
    spec = resolve_molecule(molecule, fixtures_dir)
    points = parse_bond_lengths(bond_lengths)
    references = reference_points(spec, points)
    path = record_path(data_dir, molecule)
    if not no_save:
        make_data_dir(path)
    with nullcontext() if no_save else SweepLock(path):
        record = None if no_save else open_sweep_record(spec, path, points)
        for r, _, _, fci, ehf in references:
            if record is not None:
                record.store_reference("fci", r, fci)
                record.store_reference("hf", r, ehf)
                save_record(record, path)
            click.echo(f"{molecule} r={r}: FCI={fci:.10f}  HF={ehf:.10f}")


@cli.command("dump-hamiltonian")
@click.option("--molecule", required=True)
@click.option("--bond-length", required=True, type=float)
@click.option("--fixtures-dir", default=None)
@OUTPUT_OPTION
def cmd_dump_hamiltonian(molecule, bond_length, fixtures_dir, output):
    """Write the qubit Hamiltonian in the one-term-per-line text format."""
    data = read_fixture(resolve_molecule(molecule, fixtures_dir), bond_length)
    output.write(dump_qubit_operator(qubit_hamiltonian(data)))


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except DataFileError as exc:
        click.echo(f"data-file error: {exc}", err=True)
        return 2
    except (NumericalError, ValueError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
