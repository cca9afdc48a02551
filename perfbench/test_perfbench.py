"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def make(sid, start, end, parent=None, thread=1, name="x"):
    return Span(sid, name, start, end, parent, None, thread)


def test_self_time_of_nested_spans():
    spans_ = [make(0, 0.0, 10.0), make(1, 1.0, 4.0, parent=0),
              make(2, 2.0, 3.0, parent=1), make(3, 6.0, 7.0, parent=0)]
    own = spans.self_times(spans_)
    assert own == {0: pytest.approx(6.0), 1: pytest.approx(2.0),
                   2: pytest.approx(1.0), 3: pytest.approx(1.0)}


def test_self_time_with_overlapping_children_from_threads():
    # children from two threads overlap each other, one runs past the parent
    spans_ = [make(0, 0.0, 10.0), make(1, 1.0, 5.0, parent=0, thread=2),
              make(2, 3.0, 8.0, parent=0, thread=3),
              make(3, 9.0, 12.0, parent=0, thread=2)]
    assert spans.self_times(spans_)[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert spans.covered([], 0.0, 1.0) == 0.0
    assert spans.covered([(2.0, 3.0)], 0.0, 1.0) == 0.0


def test_parents_are_tracked_per_thread():
    tracer = spans.Tracer()
    opened = threading.Event()
    release = threading.Event()

    def outer():
        opened.set()
        release.wait(timeout=10)

    def inner():
        return tracer.call("inner", lambda: None, (), {})

    main = threading.Thread(
        target=lambda: tracer.call("outer", outer, (), {}))
    main.start()
    assert opened.wait(timeout=10)
    side = threading.Thread(target=inner)
    side.start()
    side.join(timeout=10)
    release.set()
    main.join(timeout=10)
    assert not main.is_alive() and not side.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent is None
    assert by_name["inner"].thread != by_name["outer"].thread

    nested = spans.Tracer()
    nested.call("outer", lambda: nested.call("inner", lambda: 1, (), {}),
                (), {}, point=True)
    outer_span, = [s for s in nested.spans if s.name == "outer"]
    inner_span, = [s for s in nested.spans if s.name == "inner"]
    assert inner_span.parent == outer_span.sid
    assert inner_span.point == outer_span.sid == outer_span.point


def snapshot() -> dict:
    import vqe_bench.cli  # noqa: F401  (loads every package module)
    return {(module.__name__, attr): value
            for module in spans.package_modules()
            for attr, value in vars(module).items()}


def test_install_replaces_every_alias_and_restore_puts_all_back():
    before = snapshot()
    tracer = spans.Tracer()
    originals = {id(f) for f in tracer.replacements()}
    with tracer.installed():
        during = snapshot()
        for key, value in before.items():
            if id(value) in originals:
                assert during[key] is not value, key
                assert during[key].__wrapped__ is value, key
            else:
                assert during[key] is value, key
        from vqe_bench import driver, simulator
        assert driver.adjoint_gradient is simulator.adjoint_gradient
        assert driver.adjoint_gradient.__wrapped__ is not None
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_restore_on_error():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    assert all(snapshot()[key] is value for key, value in before.items())


def test_layer_metrics_of_a_small_traced_optimization():
    from vqe_bench import ansatz, hamiltonian
    from vqe_bench.driver import run_vqe

    tracer = spans.Tracer()
    with tracer.installed():  # calls go through module attributes
        spec = hamiltonian.bundled_molecule("H2")
        data = spec.integrals(0.7414)
        h = hamiltonian.qubit_hamiltonian(data)
        build = ansatz.build_uccsd_singlet(data.n_qubits, data.n_electrons)
        result = run_vqe(build, h,
                         hamiltonian.hf_state_index(4, data.n_electrons))
    amplitude_calls = tracer.amplitude_calls()
    metrics = spans.layer_metrics(tracer.spans, amplitude_calls)
    assert set(metrics) == set(spans.LAYER_METRICS) - {"trace.overhead_s"}
    assert metrics["driver.minimize_bfgs.calls"] == 1
    assert metrics["driver.evaluations"] == result.n_evaluations
    assert metrics["simulator.adjoint_gradient.calls"] == result.n_evaluations
    assert metrics["hamiltonian.n_terms"] == len(h.terms) == 15
    assert metrics["ansatz.n_params"] == build.n_params
    assert metrics["simulator.apply_pauli_string.calls"] > 0
    assert metrics["simulator.amps_touched"] == (
        16 * metrics["simulator.apply_pauli_string.calls"])
    assert set(amplitude_calls) == {16}
    assert result.energy == pytest.approx(workloads.FCI["H2"][0.7414],
                                          abs=1e-8)


def test_metric_names_and_benchmark_json_agree():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    assert list(e2e) == list(run.END_TO_END)
    assert list(layer) == list(spans.LAYER_METRICS)
    for name, metric in {**e2e, **layer}.items():
        assert NAME.match(name), name
        unit = run.END_TO_END.get(name) or spans.LAYER_METRICS[name]
        assert metric["unit"] == unit
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for entry in bench["workloads"]:
        assert NAME.match(entry["name"])
        assert entry["why"] == workloads.WORKLOADS[entry["name"]]["why"]


def test_both_packages_are_importable_trees():
    for root in worker.PACKAGES.values():
        assert (root / "vqe_bench" / "__init__.py").is_file()
        assert (root / "vqe_bench" / "fixtures" / "H2").is_dir()


def test_prepare_is_a_function_of_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        one = workloads.prepare(name, 7, str(tmp_path))
        assert one == workloads.prepare(name, 7, str(tmp_path))
        if one["kind"] == "cli":
            assert "7" in one["argv"]
            for r in one["bond_lengths"]:
                assert r in workloads.FCI[one["molecule"]]


def test_strict_json_rejects_non_finite(tmp_path):
    path = tmp_path / "H2.json"
    path.write_text('{"energies": {"UCCSD": [Infinity]}}')
    with pytest.raises(ValueError):
        workloads.load_strict(path)
    path.write_text('{"energies": {"UCCSD": [NaN]}}')
    with pytest.raises(ValueError):
        workloads.load_strict(path)


def test_checks_flag_floor_breaches_nulls_and_nondeterminism():
    fci = workloads.FCI["H2"][0.7414]
    label = "UCCSD@H2:0.7414"
    good = {"points": {label: fci + 1e-12}, "errors": []}
    assert run.check_runs([good, good])[:2] == (2, 0)
    for bad in (fci - 1e-6, None, float("nan"), float("inf")):
        attempted, failed, problems = run.check_runs(
            [good, {"points": {label: bad}, "errors": []}])
        assert (attempted, failed) == (2, 1) and problems
    drift = {"points": {label: fci + 2e-12}, "errors": []}
    assert run.check_runs([good, drift])[1] == 1
    broken = {"points": {label: fci}, "errors": ["H2.json: bad"]}
    assert run.check_runs([broken])[2]
    metrics = workloads.answer_metrics({label: fci + 2e-3,
                                        "BRC@H2:0.7414": fci - 1e-12})
    assert metrics["err_mha.gmean"] == pytest.approx((2.0 * 1e-3) ** 0.5)
    assert metrics["chem_acc_frac"] == 0.5
