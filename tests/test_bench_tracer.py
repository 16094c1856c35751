"""The bench tracer still finds every name it wraps.

``bench/tracer.py`` wraps functions and methods of every orbitlab layer by
name and raises ``TracerError`` when one is missing, so a deleted or
renamed target (``OrbitCloud.separated``, say) breaks the traced bench
run.  Installing and uninstalling it here makes that a test failure.  The
tracer is read from its source and executed in a fresh module, so nothing
is written under ``bench/``.
"""

import os
import types

from orbitlab import cli, orbits  # noqa: F401  (the bench loads cli before it traces)

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _load_tracer():
    mod = types.ModuleType("bench_tracer")
    with open(_TRACER) as fh:
        exec(compile(fh.read(), _TRACER, "exec"), mod.__dict__)
    return mod


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
