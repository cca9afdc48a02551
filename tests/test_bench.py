import hashlib
import json
import math
import os
import re
import socket
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError, asdict
from pathlib import Path

import pytest

from vqe_bench import bench
from vqe_bench.bench import (
    NAMED_ANSATZES,
    BenchRecord,
    DataFileError,
    comparison_table,
    emit_comparison,
    initdata,
    known_ansatz,
    load_record,
    record_path,
    rounddata,
    run_ansatz_point,
    run_sweep,
    save_record,
    savedata,
)
from vqe_bench.cli import cli, main
from vqe_bench.driver import OptimizerConfig
from vqe_bench.hamiltonian import (
    bundled_molecule,
    exact_ground_energy,
    qubit_hamiltonian,
)

FAST_CFG = OptimizerConfig(gradient_tolerance=1e-6)


class TestInitData:
    def test_skeleton_contents(self, tmp_path):
        record = initdata("H4", [0.8, 1.0], tmp_path)
        assert record.bond_lengths == [0.8, 1.0]
        assert record.energies == {}
        on_disk = load_record(record_path(tmp_path, "H4"))
        assert on_disk.energies == {}
        assert on_disk.fci == [None, None]

    def test_reinit_without_force_refused(self, tmp_path):
        initdata("H4", [0.8], tmp_path)
        before = record_path(tmp_path, "H4").read_bytes()
        with pytest.raises(DataFileError, match="exists"):
            initdata("H4", [0.9], tmp_path)
        assert record_path(tmp_path, "H4").read_bytes() == before
        initdata("H4", [0.9], tmp_path, force=True)  # force clobbers

    def test_savedata_adds_exactly_one_key(self, tmp_path):
        initdata("H4", [0.8, 1.0], tmp_path)
        path = record_path(tmp_path, "H4")
        record = savedata(path, "UCCSD", 1.0, -2.1, 3.5, 14)
        assert list(record.energies) == ["UCCSD"]
        assert record.energies["UCCSD"] == [None, -2.1]
        assert record.runtimes["UCCSD"] == [None, 3.5]
        assert record.n_params["UCCSD"] == [None, 14]


class TestSaveData:
    def test_round_trip(self, tmp_path):
        initdata("X", [1.0], tmp_path)
        path = record_path(tmp_path, "X")
        savedata(path, "A", 1.0, -1.25, 0.5, 3)
        loaded = load_record(path)
        assert loaded.energies["A"] == [-1.25]

    def test_sequential_writes_preserved(self, tmp_path):
        initdata("X", [1.0], tmp_path)
        path = record_path(tmp_path, "X")
        savedata(path, "A", 1.0, -1.0)
        savedata(path, "B", 1.0, -2.0)
        loaded = load_record(path)
        assert loaded.energies == {"A": [-1.0], "B": [-2.0]}

    def test_unknown_bond_length(self, tmp_path):
        initdata("X", [1.0], tmp_path)
        with pytest.raises(ValueError, match="unknown bond length"):
            savedata(record_path(tmp_path, "X"), "A", 9.9, -1.0)

    def test_malformed_file_refused(self, tmp_path):
        path = record_path(tmp_path, "X")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json")
        with pytest.raises(DataFileError, match="not valid JSON"):
            savedata(path, "A", 1.0, -1.0)
        assert path.read_text() == "{ not json"  # never overwritten

    def test_crash_safe_write(self, tmp_path, monkeypatch):
        initdata("X", [1.0], tmp_path)
        path = record_path(tmp_path, "X")
        before = path.read_bytes()
        record = load_record(path)
        record.slot("energies", "A")[0] = -1.0

        def boom(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            save_record(record, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(path.parent.glob("*.tmp")) == []
        load_record(path)  # still parses

    def test_serialization_byte_stable(self, tmp_path):
        initdata("X", [1.0, 2.0], tmp_path)
        path = record_path(tmp_path, "X")
        savedata(path, "A", 1.0, -1.234567890123, 0.25, 7)
        text = path.read_text()
        reparsed = BenchRecord.from_dict(json.loads(text))
        assert reparsed.serialize() == text
        assert load_record(path).to_dict() == reparsed.to_dict()

    def test_serialize_writes_the_asdict_form(self):
        # serialize dumps the fields themselves, with no deep copy first
        record = BenchRecord("H2", [0.7, 1.1])
        record.store_reference("fci", 0.7, -1.13)
        record.store("ADAPT", 0.7, -1.12, 0.5, 3, trace={
            "iterations": [{"picked": "X0 Y1", "slopes": [0.25, -1e-3]}],
            "final_energy": -1.12, "converged": True, "note": None})
        record.store("UCCSD", 1.1, None)
        expected = json.dumps(
            {"schema_version": bench.SCHEMA_VERSION, **asdict(record)},
            indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert record.serialize() == expected

    @pytest.mark.parametrize("write", [
        lambda path: initdata("X", [1.0], path.parent, force=True),
        lambda path: savedata(path, "A", 1.0, -1.0)],
        ids=["initdata", "savedata"])
    def test_refused_while_a_sweep_holds_the_lock(self, tmp_path, write):
        initdata("X", [1.0], tmp_path)
        path = record_path(tmp_path, "X")
        savedata(path, "B", 1.0, -2.0)
        before = path.read_bytes()
        with bench.SweepLock(path):
            with pytest.raises(DataFileError, match="another sweep owns"):
                write(path)
            assert path.read_bytes() == before
        write(path)  # free again once the lock is released
        assert path.read_bytes() != before

    def test_non_finite_energy_refused(self):
        record = BenchRecord(molecule="X", bond_lengths=[1.0])
        record.slot("energies", "A")[0] = float("inf")
        with pytest.raises(ValueError):
            record.serialize()

    @pytest.mark.parametrize("point", [
        {"energy": float("nan")}, {"energy": -1.0, "runtime": float("inf")},
        {"energy": -1.0, "runtime": -0.5}, {"energy": -1.0, "n_params": -1},
    ])
    def test_store_refuses_a_value_no_data_file_may_hold(self, point):
        record = BenchRecord(molecule="X", bond_lengths=[1.0])
        before = record.to_dict()
        with pytest.raises(ValueError, match="hold only finite"):
            record.store("A", 1.0, **point)
        with pytest.raises(ValueError, match="hold only finite"):
            record.store_reference("fci", 1.0, float("inf"))
        assert record.to_dict() == before


class TestRoundData:
    def base_record(self):
        return BenchRecord(molecule="X", bond_lengths=[1.0],
                           energies={"A": [-1.137283]},
                           fci=[-1.137283], hf=[-1.1], ccsd=None,
                           runtimes={"A": [0.123456]},
                           n_params={"A": [5]})

    def test_half_even_rounding(self):
        record = rounddata(self.base_record(), 4)
        assert record.energies["A"] == [-1.1373]
        assert record.fci == [-1.1373]

    def test_half_even_at_zero_decimals(self):
        record = self.base_record()
        record.energies["A"] = [-0.5]
        rounded = rounddata(record, 0)
        assert rounded.energies["A"][0] == 0.0  # half-to-even picks 0

    def test_runtimes_untouched(self):
        record = rounddata(self.base_record(), 2)
        assert record.runtimes["A"] == [0.123456]

    def test_idempotent(self):
        once = rounddata(self.base_record(), 3)
        twice = rounddata(once, 3)
        assert once.to_dict() == twice.to_dict()

    def test_negative_decimals_rejected(self):
        with pytest.raises(ValueError):
            rounddata(self.base_record(), -1)


class TestRunSweep:
    def test_h2_sweep_and_failure_tolerance(self, tmp_path):
        spec = bundled_molecule("H2")
        record = run_sweep(spec, ["UCCSD", "9-UpCCGSD"], FAST_CFG, seed=5,
                           data_dir=tmp_path)
        fci = record.fci[0]
        assert abs(record.energies["UCCSD"][0] - fci) < 1e-7
        assert record.n_params["UCCSD"] == [2]
        assert record.runtimes["UCCSD"][0] > 0
        # 9 blocks of generalized pairs is fine, so it runs; a truly
        # unknown name is refused before the sweep starts (failing points:
        # test_failed_point_clears_its_stale_data)
        with pytest.raises(ValueError, match="unknown ansatz 'NOPE'"):
            run_sweep(spec, ["NOPE"], FAST_CFG, seed=5, data_dir=tmp_path)
        assert "NOPE" not in load_record(record_path(tmp_path, "H2")).energies

    def test_sweep_determinism(self, tmp_path):
        spec = bundled_molecule("H2")
        a = run_sweep(spec, ["UCCSD", "BRC"], FAST_CFG, seed=3,
                      data_dir=tmp_path / "a")
        b = run_sweep(spec, ["UCCSD", "BRC"], FAST_CFG, seed=3,
                      data_dir=tmp_path / "b")
        assert a.energies == b.energies
        assert a.n_params == b.n_params

    def test_lock_rejects_concurrent_sweep(self, tmp_path):
        spec = bundled_molecule("H2")
        initdata("H2", spec.bond_lengths, tmp_path)
        lock = record_path(tmp_path, "H2").with_suffix(".json.lock")
        lock.write_text("123")
        with pytest.raises(DataFileError, match="another sweep"):
            run_sweep(spec, ["UCCSD"], FAST_CFG, seed=0, data_dir=tmp_path)
        lock.unlink()
        run_sweep(spec, ["BRC"], FAST_CFG, seed=0, data_dir=tmp_path)
        assert not lock.exists()  # released after the sweep

    def test_lock_of_live_process_refused(self, tmp_path):
        spec = bundled_molecule("H2")
        initdata("H2", spec.bond_lengths, tmp_path)
        lock = record_path(tmp_path, "H2").with_suffix(".json.lock")
        lock.write_text(f"{os.getpid()} {socket.gethostname()}")
        with pytest.raises(DataFileError, match="another sweep"):
            run_sweep(spec, ["UCCSD"], FAST_CFG, seed=0, data_dir=tmp_path)
        assert lock.exists()

    def test_refused_sweep_leaves_data_file_untouched(self, tmp_path):
        spec = bundled_molecule("H2")
        initdata("H2", spec.bond_lengths, tmp_path)
        path = record_path(tmp_path, "H2")
        savedata(path, "UCCSD", spec.bond_lengths[0], -1.1, 0.5, 3)
        lock = path.with_suffix(".json.lock")
        lock.write_text(f"{os.getpid()} {socket.gethostname()}")
        before = path.read_bytes()
        with pytest.raises(DataFileError, match="another sweep"):
            run_sweep(spec, ["UCCSD"], FAST_CFG, seed=99, data_dir=tmp_path)
        assert path.read_bytes() == before

    def test_stale_lock_of_killed_sweep_taken_over(self, tmp_path):
        spec = bundled_molecule("H2")
        initdata("H2", spec.bond_lengths, tmp_path)
        lock = record_path(tmp_path, "H2").with_suffix(".json.lock")
        finished = subprocess.run([sys.executable, "-c", "import os; "
                                   "print(os.getpid())"],
                                  capture_output=True, text=True, check=True)
        lock.write_text(f"{finished.stdout.strip()} {socket.gethostname()}")
        record = run_sweep(spec, ["UCCSD"], FAST_CFG, seed=0,
                           data_dir=tmp_path)
        assert record.energies["UCCSD"][0] is not None
        assert not lock.exists()

    def test_lock_released_between_open_and_read_is_free(
            self, tmp_path, monkeypatch):
        real_open = os.open
        raised = []

        def released_meanwhile(*args, **kwargs):
            if not raised:  # the owner released the lock after this failed
                raised.append(True)
                raise FileExistsError(args[0])
            return real_open(*args, **kwargs)

        monkeypatch.setattr(bench.os, "open", released_meanwhile)
        path = record_path(tmp_path, "H2")
        with bench.SweepLock(path) as lock:
            assert lock.lock_path.read_text().startswith(f"{os.getpid()} ")
        assert raised and not lock.lock_path.exists()

    def test_points_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        idents = []

        def recording(*args, **kwargs):
            idents.append(threading.get_ident())
            return run_ansatz_point(*args, **kwargs)

        monkeypatch.setattr(bench, "run_ansatz_point", recording)
        record = run_sweep(bundled_molecule("H2"), ["UCCSD", "BRC"],
                           FAST_CFG, seed=3, data_dir=tmp_path)
        assert idents == [threading.get_ident()] * 2
        assert "threads" not in record.metadata

    def test_failed_point_clears_its_stale_data(self, tmp_path, monkeypatch):
        spec = bundled_molecule("H2")
        record = run_sweep(spec, ["UCCSD", "ADAPT"], FAST_CFG, seed=5,
                           data_dir=tmp_path)
        assert record.runtimes["UCCSD"][0] > 0
        assert record.traces["ADAPT"][0] is not None

        def failing(*args, **kwargs):
            raise RuntimeError("forced point failure")

        monkeypatch.setattr(bench, "run_ansatz_point", failing)
        record = run_sweep(spec, ["UCCSD", "ADAPT"], FAST_CFG, seed=5,
                           data_dir=tmp_path)
        for name in ("UCCSD", "ADAPT"):
            assert record.energies[name] == [None]
            assert record.runtimes[name] == [None]
            assert record.n_params[name] == [None]
        assert record.traces["ADAPT"] == [None]
        _, rows = comparison_table(record, "runtimes")
        assert rows == [[spec.bond_lengths[0], None, None]]

    def test_point_seed_does_not_depend_on_the_data_file(self, tmp_path):
        # the seed once came from r's index among the data file's bond
        # lengths: 0 in a file made by `init --bond-lengths 1.0`, 1 in the
        # fresh one over the H4 fixture set, and the energies differed
        run = ["run", "--molecule", "H4", "--bond-lengths", "1.0", "--ansatz",
               "1-UpCCGSD", "--seed", "3", "--max-evaluations", "200"]
        fresh, made = tmp_path / "fresh", tmp_path / "made"
        assert main(["init", "--molecule", "H4", "--bond-lengths", "1.0",
                     "--data-dir", str(made)]) == 0
        energies = []
        for data_dir in (fresh, made):
            assert main([*run, "--data-dir", str(data_dir)]) == 0
            record = load_record(record_path(data_dir, "H4"))
            energies.append(
                record.energies["1-UpCCGSD"][record.point_index(1.0)])
        assert energies[0] == energies[1]
        assert round(energies[0], 8) == -2.13515235

    def test_mismatched_bond_lengths_refused(self, tmp_path):
        initdata("H2", [9.0], tmp_path)
        with pytest.raises(DataFileError, match="disagree"):
            run_sweep(bundled_molecule("H2"), ["UCCSD"], FAST_CFG, seed=0,
                      data_dir=tmp_path)

    def test_fresh_sweep_saves_once_per_step_and_never_reads(
            self, tmp_path, monkeypatch):
        calls = {"save": 0, "load": 0}

        def counted(kind, function):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bench, "save_record",
                            counted("save", bench.save_record))
        monkeypatch.setattr(bench, "load_record",
                            counted("load", bench.load_record))
        record = run_sweep(bundled_molecule("H2"), ["UCCSD", "BRC", "ADAPT"],
                           FAST_CFG, seed=3, data_dir=tmp_path)
        # one save after the references, then one after each point
        assert calls == {"save": 4, "load": 0}
        on_disk = load_record(record_path(tmp_path, "H2"))
        # the frozen trace's tuple of iterations is stored as a list
        assert record.traces["ADAPT"][0]["iterations"]
        assert on_disk.to_dict() == record.to_dict()

    def test_interrupted_sweep_keeps_its_finished_points(
            self, tmp_path, monkeypatch):
        finished = []

        def interrupted(*args, **kwargs):
            if finished:
                raise KeyboardInterrupt
            finished.append(run_ansatz_point(*args, **kwargs))
            return finished[0]

        monkeypatch.setattr(bench, "run_ansatz_point", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(bundled_molecule("H2"), ["UCCSD", "BRC"], FAST_CFG,
                      seed=3, data_dir=tmp_path)

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        path = record_path(tmp_path, "H2")
        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["fci"][0] is not None and payload["hf"][0] is not None
        assert payload["energies"] == {"UCCSD": [finished[0].energy]}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["H2.json"]


class TestEmitComparison:
    def record_with_data(self):
        return BenchRecord(
            molecule="X", bond_lengths=[1.0, 2.0],
            energies={"A": [-1.0, -2.0], "B": [-1.001, None]},
            fci=[-1.0, -2.0], hf=[-0.9, -1.9],
            ccsd=[-1.1, -2.1],
            runtimes={"A": [0.5, 0.75]},
            n_params={"A": [4, 4]})

    def test_zero_errors_when_energies_match_fci(self):
        record = self.record_with_data()
        record.energies = {"A": [-1.0, -2.0]}
        record.ccsd = None
        columns, rows = comparison_table(record, "errors")
        assert columns == ["bond_length", "A_error",
                           "chem_acc_lower", "chem_acc_upper"]
        assert [row[1] for row in rows] == [0.0, 0.0]

    def test_band_columns(self):
        _, rows = comparison_table(self.record_with_data(), "errors")
        for row in rows:
            assert row[-2] == -0.0016
            assert row[-1] == 0.0016

    def test_ccsd_column_included_and_may_go_below_fci(self):
        columns, rows = comparison_table(self.record_with_data(), "errors")
        ccsd_col = columns.index("CCSD_error")
        assert rows[0][ccsd_col] == pytest.approx(-0.1)

    def test_missing_fci_rejected(self):
        record = self.record_with_data()
        record.fci = [None, -2.0]
        with pytest.raises(DataFileError, match="fci"):
            comparison_table(record, "errors")

    def test_untouched_points_emit_null_rows(self):
        record = BenchRecord(molecule="X", bond_lengths=[1.0, 2.0],
                             energies={"A": [-1.0, None]},
                             fci=[-1.0, None], hf=[-0.9, None])
        _, rows = comparison_table(record, "errors")
        assert rows[0][1] == 0.0
        assert rows[1][1] is None

    def test_params_kind(self):
        record = BenchRecord(molecule="X", bond_lengths=[1.0, 2.0],
                             n_params={"BRC": [4, 4]},
                             fci=[-1.0, -2.0], hf=[-0.9, -1.9])
        columns, rows = comparison_table(record, "params")
        assert columns == ["bond_length", "BRC"]
        assert [row[1] for row in rows] == [4, 4]

    def test_csv_json_equivalence(self):
        record = self.record_with_data()
        csv_text = emit_comparison(record, "errors", "csv")
        payload = json.loads(emit_comparison(record, "errors", "json"))
        lines = csv_text.strip().split("\n")
        assert lines[0].split(",") == payload["columns"]
        for line, row in zip(lines[1:], payload["rows"]):
            cells = line.split(",")
            for cell, value in zip(cells, row):
                if value is None:
                    assert cell == ""
                else:
                    assert float(cell) == pytest.approx(value, abs=1e-15)

    def test_column_order_is_sorted(self):
        record = self.record_with_data()
        record.energies["0-first"] = [None, None]
        columns, _ = comparison_table(record, "errors")
        names = [c[:-6] for c in columns[1:-2]]
        assert names == sorted(names)


class TestAnsatzRegistry:
    def test_known_names(self):
        for name in ("UCCSD", "UCCSD0", "QUCC", "1-UpCCGSD", "7-UpCCGSD",
                     "HEA", "LDCA", "BRC", "ADAPT", "qubit-ADAPT", "QCC"):
            assert known_ansatz(name)
        assert not known_ansatz("NOPE")
        assert not known_ansatz("k-UpCCGSD")
        assert not known_ansatz("0-UpCCGSD")
        assert not known_ansatz("1-UpCCGSD\n")


class TestRunAnsatzPoint:
    @pytest.fixture(scope="class")
    def h2(self):
        h = qubit_hamiltonian(bundled_molecule("H2").integrals(0.7414))
        return h, exact_ground_energy(h, 4, sector=(2, 0))

    @pytest.mark.parametrize("name", [*NAMED_ANSATZES, "1-UpCCGSD",
                                      "2-UpCCGSD"])
    def test_every_family_gives_one_frozen_point(self, h2, name):
        h, fci = h2
        point = run_ansatz_point(name, h, 4, 2, fci, OptimizerConfig(
            max_energy_evaluations=200), seed=7)
        assert math.isfinite(point.energy) and point.energy >= fci - 1e-9
        assert point.runtime > 0 and point.n_params > 0
        assert (point.trace is not None) == (
            name in ("ADAPT", "qubit-ADAPT", "QCC"))
        with pytest.raises(FrozenInstanceError):
            point.runtime = 0.0


class TestCli:
    def test_full_workflow(self, tmp_path):
        data_dir = str(tmp_path / "data")
        assert main(["init", "--molecule", "H2", "--data-dir", data_dir]) == 0
        assert main(["fci", "--molecule", "H2", "--data-dir", data_dir]) == 0
        assert main(["run", "--molecule", "H2", "--ansatz", "UCCSD",
                     "--data-dir", data_dir, "--seed", "1"]) == 0
        assert main(["record", "--molecule", "H2", "--reference", "ccsd",
                     "--bond-length", "0.7414", "--energy", "-1.1372",
                     "--data-dir", data_dir]) == 0
        out = tmp_path / "errors.csv"
        assert main(["compare", "--molecule", "H2", "--kind", "errors",
                     "--data-dir", data_dir, "--output", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("bond_length,CCSD_error,UCCSD_error")
        assert header.endswith("chem_acc_lower,chem_acc_upper")

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["run", "--molecule", "H2", "--ansatz", "NOPE",
                     "--data-dir", str(tmp_path)]) == 1
        assert main(["init", "--molecule", "UNOBTANIUM",
                     "--data-dir", str(tmp_path)]) == 1
        assert main(["run", "--molecule", "H2", "--ansatz", "0-UpCCGSD",
                     "--data-dir", str(tmp_path)]) == 1
        # `$` also matched before a trailing newline: the key was stored
        # with it, and compare split its CSV header over two lines
        assert main(["run", "--molecule", "H2", "--ansatz", "1-UpCCGSD\n",
                     "--data-dir", str(tmp_path)]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, value", [
        ("--max-evaluations", "0"), ("--gradient-tolerance", "-1")])
    def test_bad_optimizer_option_is_a_usage_error(self, tmp_path, capsys,
                                                   option, value):
        assert main(["run", "--molecule", "H2", "--ansatz", "UCCSD",
                     option, value, "--data-dir", str(tmp_path)]) == 1
        assert "numerical failure" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_data_file_error_exit_code(self, tmp_path):
        assert main(["compare", "--molecule", "H2",
                     "--data-dir", str(tmp_path / "void")]) == 2
        data_dir = str(tmp_path / "data")
        main(["init", "--molecule", "H2", "--data-dir", data_dir])
        assert main(["init", "--molecule", "H2", "--data-dir", data_dir]) == 2

    def test_fci_without_fixture_refused_before_writing(self, tmp_path,
                                                        capsys):
        data_dir = tmp_path / "data"
        assert main(["fci", "--molecule", "H2", "--bond-lengths", "0.9",
                     "--data-dir", str(data_dir)]) == 2
        assert "no fixture for H2 at r=0.9" in capsys.readouterr().err
        assert not data_dir.exists()

    def test_non_finite_data_file_refused(self, tmp_path):
        data_dir = tmp_path / "data"
        main(["init", "--molecule", "H2", "--data-dir", str(data_dir)])
        path = record_path(data_dir, "H2")
        payload = json.loads(path.read_text())
        payload["energies"] = {"UCCSD": [float("nan")]}
        payload["fci"] = [float("-inf")]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFileError, match="non-finite number NaN"):
            load_record(path)
        assert main(["compare", "--molecule", "H2", "--format", "json",
                     "--data-dir", str(data_dir)]) == 2

    def test_record_bad_bond_length_is_usage_error(self, tmp_path):
        data_dir = str(tmp_path / "data")
        main(["init", "--molecule", "H2", "--data-dir", data_dir])
        assert main(["record", "--molecule", "H2", "--ansatz", "UCCSD",
                     "--bond-length", "9.9", "--energy", "-1.0",
                     "--data-dir", data_dir]) == 1

    @pytest.mark.parametrize("option,value", [("--runtime", "0.5"),
                                              ("--n-params", "3")])
    def test_record_reference_with_point_values_is_usage_error(
            self, tmp_path, capsys, option, value):
        # both were dropped silently and the command exited 0
        data_dir = str(tmp_path / "data")
        main(["init", "--molecule", "H2", "--data-dir", data_dir])
        path = record_path(data_dir, "H2")
        before = path.read_bytes()
        assert main(["record", "--molecule", "H2", "--reference", "ccsd",
                     "--bond-length", "0.7414", "--energy", "-1.1", option,
                     value, "--data-dir", data_dir]) == 1
        assert option in capsys.readouterr().err
        assert path.read_bytes() == before

    @pytest.mark.parametrize("edit,message", [
        ({"molecule": "LiH"}, "('LiH', 1); want ('H2', 1)"),
        ({"schema_version": 99}, "('H2', 99); want ('H2', 1)"),
        ({"schema_version": "1"}, "('H2', '1'); want ('H2', 1)")],
        ids=["molecule", "schema version", "schema version a string"])
    def test_data_file_of_another_molecule_or_schema_refused(
            self, tmp_path, capsys, edit, message):
        # an H2.json labelled LiH at version 99 took H2 energies, was
        # rewritten at version 1, and `compare` labelled its table LiH
        data_dir = tmp_path / "data"
        main(["init", "--molecule", "H2", "--data-dir", str(data_dir)])
        path = record_path(data_dir, "H2")
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        before = path.read_bytes()
        with pytest.raises(DataFileError, match=re.escape(message)):
            load_record(path)
        for argv in (["run", "--ansatz", "UCCSD"],
                     ["compare", "--format", "json"]):
            assert main(argv + ["--molecule", "H2",
                                "--data-dir", str(data_dir)]) == 2
            assert message in capsys.readouterr().err
        assert path.read_bytes() == before

    def test_data_file_of_another_metadata_schema_refused(self, tmp_path,
                                                          capsys):
        # only the top-level version was checked: `compare` exited 0 and
        # the next save wrote the 99 back
        data_dir = tmp_path / "data"
        main(["init", "--molecule", "H2", "--data-dir", str(data_dir)])
        path = record_path(data_dir, "H2")
        payload = json.loads(path.read_text())
        payload["metadata"]["schema_version"] = 99
        path.write_text(json.dumps(payload))
        before = path.read_bytes()
        message = f"{path} holds metadata.schema_version 99; want 1"
        with pytest.raises(DataFileError, match=re.escape(message)):
            load_record(path)
        for argv in (["compare", "--format", "json"],
                     ["run", "--ansatz", "UCCSD"]):
            assert main(argv + ["--molecule", "H2",
                                "--data-dir", str(data_dir)]) == 2
            assert message in capsys.readouterr().err
        assert path.read_bytes() == before

    @pytest.mark.parametrize("value", [True, 1.0], ids=["true", "1.0"])
    @pytest.mark.parametrize("where", ["top level", "metadata"])
    def test_schema_version_equal_to_one_but_not_an_integer_refused(
            self, tmp_path, capsys, where, value):
        # true and 1.0 compared equal to 1: `compare` exited 0, and the
        # next save wrote the 1.0 back
        data_dir = tmp_path / "data"
        main(["init", "--molecule", "H2", "--data-dir", str(data_dir)])
        path = record_path(data_dir, "H2")
        payload = json.loads(path.read_text())
        if where == "metadata":
            payload["metadata"]["schema_version"] = value
            message = (f"{path} holds metadata.schema_version {value!r}; "
                       "want 1")
        else:
            payload["schema_version"] = value
            message = f"('H2', {value!r}); want ('H2', 1)"
        path.write_text(json.dumps(payload))
        before = path.read_bytes()
        with pytest.raises(DataFileError, match=re.escape(message)):
            load_record(path)
        assert main(["compare", "--molecule", "H2", "--format", "json",
                     "--data-dir", str(data_dir)]) == 2
        assert message in capsys.readouterr().err
        assert path.read_bytes() == before

    def test_zero_evaluation_budget_fails_without_writing_infinity(
            self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["run", "--molecule", "H2", "--ansatz", "UCCSD",
                     "--max-evaluations", "0",
                     "--data-dir", str(data_dir)]) != 0

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        for path in tmp_path.glob("**/*.json"):
            json.loads(path.read_text(), parse_constant=reject)

    def test_nan_gradient_tolerance_fails_without_writing(self, tmp_path):
        assert main(["run", "--molecule", "H2", "--ansatz", "UCCSD",
                     "--gradient-tolerance", "nan",
                     "--data-dir", str(tmp_path)]) == 1  # a usage error
        assert list(tmp_path.iterdir()) == []

    def test_failed_point_exits_three_and_keeps_good_points(
            self, tmp_path, monkeypatch):
        def flaky(name, *args, **kwargs):
            if name == "BRC":
                raise RuntimeError("simulated point failure")
            return run_ansatz_point(name, *args, **kwargs)

        monkeypatch.setattr(bench, "run_ansatz_point", flaky)
        assert main(["run", "--molecule", "H2", "--ansatz", "UCCSD",
                     "--ansatz", "BRC", "--data-dir", str(tmp_path)]) == 3
        record = load_record(record_path(tmp_path, "H2"))
        assert record.energies["UCCSD"][0] is not None
        assert record.energies["BRC"] == [None]

    def test_repeated_ansatz_runs_and_reports_once(self, tmp_path, capsys,
                                                   monkeypatch):
        names = []

        def recording(name, *args, **kwargs):
            names.append(name)
            return run_ansatz_point(name, *args, **kwargs)

        monkeypatch.setattr(bench, "run_ansatz_point", recording)
        assert main(["run", "--molecule", "H2", "--ansatz", "UCCSD",
                     "--ansatz", "BRC", "--ansatz", "UCCSD",
                     "--data-dir", str(tmp_path)]) == 0
        assert names == ["UCCSD", "BRC"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == ["UCCSD", "BRC"]

    def test_record_without_data_file_leaves_no_lock(self, tmp_path, capsys):
        for data_dir in (tmp_path / "void", tmp_path):
            assert main(["record", "--molecule", "H2", "--ansatz", "UCCSD",
                         "--bond-length", "0.7414", "--energy", "-1.0",
                         "--data-dir", str(data_dir)]) == 2
            path = record_path(data_dir, "H2")
            assert f"no data file at {path}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fci_refuses_a_record_without_a_requested_point(self, tmp_path,
                                                             capsys):
        data_dir = str(tmp_path)
        main(["init", "--molecule", "H4", "--bond-lengths", "0.8",
              "--data-dir", data_dir])
        path = record_path(data_dir, "H4")
        before = path.read_bytes()
        assert main(["fci", "--molecule", "H4", "--data-dir", data_dir]) == 2
        assert "disagree" in capsys.readouterr().err
        assert path.read_bytes() == before

    @pytest.mark.parametrize("molecule, init_points, run_points", [
        ("H4", "0.8", "0.8"),            # a subset of the fixture set
        ("H2", "0.7414 9.0", None),      # more points than the fixtures
    ])
    def test_run_fills_the_requested_points_of_a_record(
            self, tmp_path, capsys, molecule, init_points, run_points):
        data_dir = str(tmp_path)
        main(["init", "--molecule", molecule, "--bond-lengths", init_points,
              "--data-dir", data_dir])
        argv = ["run", "--molecule", molecule, "--ansatz", "UCCSD",
                "--data-dir", data_dir]
        if run_points:
            argv += ["--bond-lengths", run_points]
        assert main(argv) == 0
        assert "failed" not in capsys.readouterr().out
        record = load_record(record_path(data_dir, molecule))
        assert record.energies["UCCSD"][0] < record.hf[0]
        assert record.energies["UCCSD"][1:] == [None] * (
            len(record.bond_lengths) - 1)

    @pytest.mark.parametrize("argv", [
        ["init", "--molecule", "H2", "--bond-lengths", "nan"],
        ["init", "--molecule", "H2", "--bond-lengths", "0.7 inf"],
        ["init", "--molecule", "H2", "--bond-lengths", "0.7414 0.7414"],
        ["run", "--molecule", "H2", "--ansatz", "UCCSD",
         "--bond-lengths", "0.7414, 0.7414"],
        ["fci", "--molecule", "H2", "--bond-lengths", "0.7414 0.7414"],
    ])
    def test_non_finite_or_repeated_bond_lengths_are_usage_errors(
            self, tmp_path, capsys, argv):
        assert main(argv + ["--data-dir", str(tmp_path)]) == 1
        assert "bad bond length list" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["init", "--molecule", "H4", "--bond-lengths", " "],
        ["init", "--molecule", "H4", "--bond-lengths", ""],
        ["run", "--molecule", "H2", "--ansatz", "UCCSD",
         "--bond-lengths", ","],
        ["fci", "--molecule", "H2", "--bond-lengths", " , "],
    ])
    def test_a_bond_length_list_without_values_is_a_usage_error(
            self, tmp_path, capsys, argv):
        # init wrote "bond_lengths": [] and exited 0; run and fci then
        # refused that file, and only init --force recovered
        assert main(argv + ["--data-dir", str(tmp_path)]) == 1
        assert "holds no bond length" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("values, message", [
        (["--ansatz", "A", "--energy", "-1", "--n-params", "-3"],
         "n_params hold only finite non-negative values, not -3"),
        (["--ansatz", "A", "--energy", "-1", "--runtime", "-2"],
         "runtimes hold only finite non-negative values, not -2.0"),
        (["--ansatz", "A", "--energy", "inf"],
         "energies hold only finite values, not inf"),
        (["--ansatz", "A", "--energy", "-1", "--runtime", "nan"],
         "runtimes hold only finite non-negative values, not nan"),
        (["--reference", "ccsd", "--energy", "-inf"],
         "ccsd hold only finite values, not -inf"),
    ], ids=["negative n_params", "negative runtime", "infinite energy",
            "NaN runtime", "infinite reference"])
    def test_record_refuses_negative_or_non_finite_values(
            self, tmp_path, capsys, values, message):
        # negative values were stored and emitted by compare; non-finite
        # ones leaked "Out of range float values are not JSON compliant"
        data_dir = str(tmp_path)
        main(["init", "--molecule", "H2", "--data-dir", data_dir])
        path = record_path(data_dir, "H2")
        before = path.read_bytes()
        capsys.readouterr()
        assert main(["record", "--molecule", "H2", "--bond-length", "0.7414",
                     *values, "--data-dir", data_dir]) == 1
        assert message in capsys.readouterr().err
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["H2.json"]

    @pytest.mark.parametrize("name", ["CCSD", "bond_length"])
    def test_record_refuses_an_ansatz_named_after_a_column(
            self, tmp_path, capsys, name):
        # `record --ansatz CCSD` beside a ccsd reference made compare emit
        # two CCSD_error columns, both the reference's error; an ansatz
        # named bond_length gave runtimes and params two bond_length columns
        data_dir = str(tmp_path)
        main(["fci", "--molecule", "H2", "--data-dir", data_dir])
        path = record_path(data_dir, "H2")
        before = path.read_bytes()
        capsys.readouterr()
        assert main(["record", "--molecule", "H2", "--ansatz", name,
                     "--bond-length", "0.7414", "--energy", "-1.1",
                     "--runtime", "0.5", "--n-params", "3",
                     "--data-dir", data_dir]) == 1
        assert (f"ansatz name {name!r} is the name of a comparison column"
                in capsys.readouterr().err)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["H2.json"]
        assert main(["record", "--molecule", "H2", "--reference", "ccsd",
                     "--bond-length", "0.7414", "--energy", "-1.13",
                     "--data-dir", data_dir]) == 0
        for kind in ("errors", "runtimes", "params"):
            columns = comparison_table(load_record(path), kind)[0]
            assert len(columns) == len(set(columns))

    @pytest.mark.parametrize("mapping", ["energies", "runtimes", "n_params",
                                         "traces"])
    @pytest.mark.parametrize("name", ["CCSD", "bond_length"])
    def test_data_file_with_an_ansatz_named_after_a_column_is_refused(
            self, tmp_path, capsys, name, mapping):
        data_dir = str(tmp_path)
        main(["init", "--molecule", "H2", "--data-dir", data_dir])
        path = record_path(data_dir, "H2")
        payload = json.loads(path.read_text())
        payload[mapping] = {name: [None]}
        path.write_text(json.dumps(payload))
        before = path.read_bytes()
        with pytest.raises(DataFileError, match=f"{mapping} holds ansatz "
                           f"'{name}', the name of a comparison column"):
            load_record(path)
        for argv in (["compare", "--kind", "params"],
                     ["record", "--ansatz", "UCCSD", "--bond-length",
                      "0.7414", "--energy", "-1.1"]):
            assert main([argv[0], "--molecule", "H2", *argv[1:],
                         "--data-dir", data_dir]) == 2
        assert "data-file error" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["H2.json"]

    def test_dump_hamiltonian(self, tmp_path):
        out = tmp_path / "h2.txt"
        assert main(["dump-hamiltonian", "--molecule", "H2",
                     "--bond-length", "0.7414", "--output", str(out)]) == 0
        from vqe_bench.operators import load_qubit_operator

        op = load_qubit_operator(out.read_text())
        assert len(op) == 15

    @pytest.mark.parametrize("molecule,bond_length,pin", [
        ("H2", "0.7414", "2c7f1445f225385f397eb7258162e697"
                         "ae2550ec9f1d5ad9160938f8b166cece"),
        ("H4", "0.8", "2fb65a427777d5c04622fd5b45336470"
                      "ec520d2e71240c1633293824f1885d6e"),
        ("H4", "1.0", "242313cd2279f3e77ca0af9f4fba3ca1"
                      "17603eecec95a6833d2fb77fc15fed58"),
        ("H4", "1.2", "37b9b70360029b94b2b15452ff100255"
                      "eda2166a654d0789890a22a94d9274ab"),
        ("H4", "1.5", "3fc3fddc782df833d329e44ed514b719"
                      "4586b67655bbfe96b66ed4f8567b06e7"),
        ("H4", "1.8", "41f4d37e2680fa08870c1ffbc89c4838"
                      "0e8d88d8bdd05062f61bbf1919a36470"),
        ("LiH", "1.2", "107fd8db218aa33f0bae4a21b76a5a77"
                       "feba38404913b34f6edd9d3ecb020f08"),
        ("LiH", "1.6", "f26f177b348c46343f01f05721f0a52f"
                       "c9c3f795534550cf1ca733d728460119"),
        ("LiH", "2.0", "8148241a79f699fa890286e521e520ed"
                       "e6f3534bb4987d852f6dfc1b4f4e8a20")])
    def test_dump_hamiltonian_bytes_are_pinned(self, tmp_path, molecule,
                                               bond_length, pin):
        # SHA-256 of the file, computed at commit 26938cf, before Pauli
        # strings kept their labels; every bundled fixture
        out = tmp_path / "h.txt"
        assert main(["dump-hamiltonian", "--molecule", molecule,
                     "--bond-length", bond_length, "--output",
                     str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pin

    def test_dump_hamiltonian_without_fixture_refused_before_writing(
            self, tmp_path, capsys):
        out = tmp_path / "h2.txt"
        assert main(["dump-hamiltonian", "--molecule", "H2",
                     "--bond-length", "9.9", "--output", str(out)]) == 2
        assert ("no fixture for H2 at r=9.9; have [0.7414]"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_threads_is_ignored_and_an_old_threads_key_kept(self, tmp_path):
        data_dir = tmp_path / "data"
        argv = ["run", "--molecule", "H2", "--ansatz", "UCCSD",
                "--threads", "2", "--data-dir", str(data_dir)]
        assert main(argv) == 0
        path = record_path(data_dir, "H2")
        record = load_record(path)
        assert "threads" not in record.metadata
        record.metadata["threads"] = 1  # as sweeps once recorded it
        save_record(record, path)
        assert main(argv) == 0
        assert load_record(path).metadata["threads"] == 1


BAD_PAYLOADS = {
    "molecule not a string": {"molecule": 5},
    "bond length not a number": {"bond_lengths": ["a"]},
    "bond length a bool": {"bond_lengths": [True]},
    "bond lengths not a list": {"bond_lengths": "1"},
    "bond lengths repeated": {"bond_lengths": [1.0, 1.0]},
    "energies a list": {"energies": []},
    "energy list a string": {"energies": {"A": "x"}},
    "energy a string": {"energies": {"A": ["x"]}},
    "energy overflows to infinity": {"energies": {"A": [1e400]}},
    "reference a string": {"fci": ["x"]},
    "runtime a bool": {"runtimes": {"A": [True]}},
    "n_params a float": {"n_params": {"A": [1.5]}},
    "n_params negative": {"n_params": {"A": [-3]}},
    "runtime negative": {"runtimes": {"A": [-0.5]}},
    "trace a number": {"traces": {"A": [5]}},
    "metadata a string": {"metadata": "x"},
    "metadata a list": {"metadata": []},
}


@pytest.mark.parametrize("case", BAD_PAYLOADS)
def test_wrongly_typed_data_file_refused(tmp_path, capsys, case):
    payload = {"molecule": "X", "bond_lengths": [1.0], **BAD_PAYLOADS[case]}
    path = record_path(tmp_path, "X")
    # 1e400 is no Infinity token, so strict parsing lets it through
    path.write_text(json.dumps(payload).replace("Infinity", "1e400"))
    before = path.read_bytes()
    with pytest.raises(DataFileError):
        load_record(path)
    for argv in (["compare", "--molecule", "X"],
                 ["record", "--molecule", "X", "--ansatz", "A",
                  "--bond-length", "1.0", "--energy", "-1"]):
        assert main(argv + ["--data-dir", str(tmp_path)]) == 2
        assert "data-file error" in capsys.readouterr().err
    assert path.read_bytes() == before


WRITERS = {
    "record": ["record", "--molecule", "H2", "--ansatz", "UCCSD",
               "--bond-length", "0.7414", "--energy", "-1.0"],
    "fci": ["fci", "--molecule", "H2"],
    "init --force": ["init", "--molecule", "H2", "--force"],
}


class TestCliWritersTakeTheSweepLock:
    def data_file(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["init", "--molecule", "H2",
                     "--data-dir", str(data_dir)]) == 0
        path = record_path(data_dir, "H2")
        savedata(path, "UCCSD", 0.7414, -1.1, 0.5, 3)
        return data_dir, path, path.with_suffix(".json.lock")

    @pytest.mark.parametrize("command", WRITERS)
    def test_refused_while_a_sweep_owns_the_file(self, tmp_path, capsys,
                                                 command):
        data_dir, path, lock = self.data_file(tmp_path)
        lock.write_text(f"{os.getpid()} {socket.gethostname()}")
        before = path.read_bytes()
        argv = WRITERS[command] + ["--data-dir", str(data_dir)]
        assert main(argv) == 2
        assert "another sweep owns" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert lock.exists()
        lock.unlink()
        assert main(argv) == 0
        assert path.read_bytes() != before
        assert not lock.exists()

    @pytest.mark.parametrize("command", WRITERS)
    def test_stale_lock_taken_over(self, tmp_path, command):
        data_dir, path, lock = self.data_file(tmp_path)
        finished = subprocess.run([sys.executable, "-c", "import os; "
                                   "print(os.getpid())"],
                                  capture_output=True, text=True, check=True)
        lock.write_text(f"{finished.stdout.strip()} {socket.gethostname()}")
        before = path.read_bytes()
        assert main(WRITERS[command] + ["--data-dir", str(data_dir)]) == 0
        assert path.read_bytes() != before
        assert not lock.exists()


class TestRefusedBeforeAnythingIsWritten:
    def test_negative_seed_is_a_usage_error_that_keeps_the_file(
            self, tmp_path, capsys):
        # the seed raised inside each point's try: every requested point
        # was stored as null over its recorded energy, and run exited 3
        argv = ["run", "--molecule", "H2", "--ansatz", "UCCSD",
                "--data-dir", str(tmp_path)]
        assert main(argv) == 0
        path = record_path(tmp_path, "H2")
        before = path.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--seed", "-1"]) == 1
        assert "numerical failure" not in capsys.readouterr().err
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["H2.json"]

    def test_run_sweep_refuses_a_negative_seed_before_the_lock(self,
                                                               tmp_path):
        data_dir = tmp_path / "data"
        with pytest.raises(ValueError, match="seed -1 is negative"):
            run_sweep(bundled_molecule("H2"), ["UCCSD"], FAST_CFG, -1,
                      data_dir)
        assert not data_dir.exists()

    @pytest.mark.parametrize("names", [["NOPE"], ["UCCSD", "NOPE"], ["CCSD"]],
                             ids=repr)
    def test_run_sweep_refuses_an_unknown_ansatz_before_reading(
            self, tmp_path, monkeypatch, names):
        # NOPE was swept as a failed point and stored as a null column;
        # CCSD stored the references, then failed in record.store
        def unread(*args, **kwargs):
            raise AssertionError("the fixtures were read")

        monkeypatch.setattr(bench, "reference_points", unread)
        with pytest.raises(ValueError, match=f"unknown ansatz {names[-1]!r}"):
            run_sweep(bundled_molecule("H2"), names, FAST_CFG, 0, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def fixtures(tmp_path, case):
        """A fixtures directory holding H2 at 0.7414 and, but for a missing
        directory, a copy at 0.9 spoilt as `case` says; the offending path."""
        root = tmp_path / "fixtures"
        if case == "missing directory":
            return root, root / "H2"
        good = bundled_molecule("H2").fcidump_paths[0.7414].read_text()
        name = {"file name not a number": "eq",
                "bond length twice": "0.90"}.get(case, "0.9")
        bad = {"malformed line": good + "0.5 1 1\n",
               "MS2 of another sector": good.replace("MS2=0", "MS2=2"),
               "NaN integral": good.replace(
                   " 6.7448877796798801e-01 1 1 1 1", " nan 1 1 1 1"),
               "NORB=0": good[:good.index("&END")].replace("NORB=2", "NORB=0")
               + "&END\n 0.7 0 0 0 0\n",
               "NELEC=6": good.replace("NELEC=2", "NELEC=6")}.get(case, good)
        assert bad != good or name != "0.9"
        (root / "H2").mkdir(parents=True)
        (root / "H2" / "0.7414.fcidump").write_text(good)
        (root / "H2" / "0.9.fcidump").write_text(good)
        (root / "H2" / f"{name}.fcidump").write_text(bad)
        return root, root / "H2" / f"{name}.fcidump"

    @pytest.mark.parametrize("command", [
        ["run", "--ansatz", "UCCSD", "--ansatz", "HEA"], ["fci"]],
        ids=["run", "fci"])
    @pytest.mark.parametrize("case", ["missing directory", "malformed line",
                                      "MS2 of another sector", "NaN integral",
                                      "NORB=0", "NELEC=6",
                                      "file name not a number",
                                      "bond length twice"])
    def test_bad_fixtures_dir_is_a_data_file_error(self, tmp_path, capsys,
                                                   case, command):
        # a missing directory escaped as a FileNotFoundError traceback; a
        # malformed file exited 3 after the earlier bond lengths were
        # saved; MS2=2 put UCCSD 0.605 Ha below H2's "FCI" and exited 0;
        # a NaN (11|11) was pruned away and the run exited 0 against an
        # FCI of the same wrong Hamiltonian; NELEC=6 exited 3 with "empty
        # sector"; eq.fcidump exited 3 with float()'s message; 0.90 next
        # to 0.9 silently kept one of the two
        fixtures, offending = self.fixtures(tmp_path, case)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "notes.txt").write_text("kept")
        argv = [command[0], "--molecule", "H2", *command[1:],
                "--fixtures-dir", str(fixtures), "--data-dir", str(data_dir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "data-file error" in err and str(offending) in err
        assert {"NaN integral": "non-finite FCIDUMP value",
                "NORB=0": "NORB=0", "NELEC=6": "NELEC=6",
                "file name not a number": "not a bond length",
                "bond length twice": "bond length 0.9 is already read from "
                + str(offending.with_name("0.9.fcidump"))}.get(case, "") in err
        assert [(p.name, p.read_text()) for p in data_dir.iterdir()] == [
            ("notes.txt", "kept")]
        fresh = tmp_path / "fresh"
        argv[-1] = str(fresh)
        assert main(argv) == 2 and not fresh.exists()


class TestFilesystemFailuresAreCleanErrors:
    @pytest.mark.parametrize("command", [
        ["init"], ["run", "--ansatz", "UCCSD"], ["fci"],
        ["record", "--reference", "ccsd", "--bond-length", "0.7414",
         "--energy", "-1.0"], ["compare"]],
        ids=["init", "run", "fci", "record", "compare"])
    def test_data_dir_that_is_a_file_is_a_data_file_error(
            self, tmp_path, capsys, command):
        # init, run and fci died with a FileExistsError traceback, record
        # with a NotADirectoryError one
        data_dir = tmp_path / "data"
        data_dir.write_text("kept")
        assert main([command[0], "--molecule", "H2", *command[1:],
                     "--data-dir", str(data_dir)]) == 2
        err = capsys.readouterr().err
        assert "data-file error" in err and str(data_dir) in err
        assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [
            ("data", "kept")]

    @pytest.mark.parametrize("command", [
        ["compare"], ["dump-hamiltonian", "--bond-length", "0.7414"]],
        ids=["compare", "dump-hamiltonian"])
    def test_output_in_a_missing_directory_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, command):
        # both died with a FileNotFoundError traceback
        monkeypatch.chdir(tmp_path)  # compare reads the default data dir
        assert main(["fci", "--molecule", "H2"]) == 0
        before = sorted(tmp_path.rglob("*"))
        output = tmp_path / "void" / "out.txt"
        capsys.readouterr()
        assert main([*command, "--molecule", "H2",
                     "--output", str(output)]) == 1
        assert str(output) in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before


BENCHMARK_WORKLOADS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "spec.json")
    .read_text())["workloads"]


@pytest.mark.parametrize("workload", [
    name for name, w in BENCHMARK_WORKLOADS.items() if w["kind"] == "cli"])
def test_benchmark_argv_parses(tmp_path, workload):
    # the benchmark runs these argvs on src/ and on a frozen copy of an
    # older package, so an option they pass may not go before they do
    argv = [token.format(seed=0, data_dir=tmp_path)
            for token in BENCHMARK_WORKLOADS[workload]["argv"]]
    command = cli.commands[argv[0]]
    with command.make_context(argv[0], argv[1:]) as ctx:
        assert all(map(known_ansatz, ctx.params["ansatzes"]))
    assert list(tmp_path.iterdir()) == []


THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_cli_pins_blas_threads_before_numpy_loads(preset):
    # unpinned, LiH @ 1.6's FCI read other bits than perfbench's pinned
    # run; the pins are read when NumPy loads, so they must come first
    script = (
        "import json, os, sys\n"
        "seen = {}\n"
        "class Watch:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.update((k, os.environ.get(k))\n"
        f"                        for k in {THREAD_PINS})\n"
        "sys.meta_path.insert(0, Watch())\n"
        "import vqe_bench.cli\n"
        "print(json.dumps(seen))\n")
    env = {key: value for key, value in os.environ.items()
           if key not in THREAD_PINS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(bench.__file__).parents[1]), env.get("PYTHONPATH", "")])
    finished = subprocess.run([sys.executable, "-c", script],
                              env={**env, **preset}, capture_output=True,
                              text=True, check=True)
    assert json.loads(finished.stdout) == {
        key: preset.get(key, "1") for key in THREAD_PINS}
