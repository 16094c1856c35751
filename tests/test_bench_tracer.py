"""The bench tracer still finds every name it wraps, and the traced bench
run's own checks pass.

``bench/tracer.py`` wraps functions and methods of every orbitlab layer by
name and raises ``TracerError`` when one is missing, so a deleted or
renamed target (``OrbitCloud.separated``, say) breaks the traced bench
run.  Installing and uninstalling it here makes that a test failure.

A traced run also fails when a layer its workload claims records no spans,
or when a work count differs between its two passes.  Some layers get all
their spans from one call site (``DiagonalOperator.apply`` for operators
on diag-lab, say), so a change that drops that call fails the bench run
with every report intact; running the same checks on every workload here
makes it a test failure too.

The bench modules are read from their source and executed in fresh
modules, so nothing is written under ``bench/``.
"""

import os
import sys
import types

import pytest

from orbitlab import cli, orbits  # noqa: F401  (the bench loads cli before it traces)

_BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _exec_bench(mod: types.ModuleType, name: str) -> types.ModuleType:
    """``mod`` with ``bench/<name>.py`` executed in it."""
    mod.__file__ = os.path.join(_BENCH, f"{name}.py")
    with open(mod.__file__) as fh:
        exec(compile(fh.read(), mod.__file__, "exec"), mod.__dict__)
    return mod


def _load_tracer():
    return _exec_bench(types.ModuleType("bench_tracer"), "tracer")


def test_tracer_installs_every_target_and_uninstalls():
    tracer = _load_tracer()
    separated = orbits.OrbitCloud.__dict__["separated"]
    tr = tracer.Tracer()
    try:
        tr.install()
        assert tr.bindings() > 0
        assert orbits.OrbitCloud.__dict__["separated"] is not separated
    finally:
        tr.uninstall()
    assert tr.bindings() == 0
    assert orbits.OrbitCloud.__dict__["separated"] is separated


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` with its ``workloads`` importable; the BLAS thread
    variables it sets are restored afterwards."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # recorded, so restored at teardown
    # registered first: its dataclasses, and run.py, import it by name
    workloads = types.ModuleType("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    _exec_bench(workloads, "workloads")
    return _exec_bench(types.ModuleType("bench_run"), "run"), workloads


def test_traced_passes_meet_the_bench_checks(bench_run, tmp_path):
    run, workloads = bench_run
    tracers = _load_tracer()
    for workload in workloads.WORKLOADS:
        tracer = tracers.Tracer()
        reports = workloads.generate(workload, 1, str(tmp_path / workload))
        runner = run.Runner(cli, reports, workloads.check_report)
        passes = []
        tracer.install()
        try:
            for i in range(2):
                tracer.reset()
                for rep in reports:
                    tracer.report_id = i * len(reports) + rep.rid
                    runner.run_one(rep)
                m = run._layer_metrics(tracer)
                m["gallery.witness.entries_ratio"] = run._entries_ratio(reports)
                passes.append((m, tracer.layer_spans()))
        finally:
            tracer.uninstall()
        (m1, layers), (m2, _) = passes
        assert runner.failures == [], workload  # exit 0, checks and bytes of each report
        assert run._separation_problems(workload, m1, layers) == []
        assert {k: m1[k] for k in run.DETERMINISTIC} == {k: m2[k] for k in run.DETERMINISTIC}
