"""The benchmark's tracer wraps program functions by name (bench/tracing.py).

A deletion or rename of a wrapped name would surface only as a failed
``bench/run.py --trace 1`` run; installing the tracer here makes it fail the
test suite instead.  The benchmark code is read, never modified.
"""

import importlib.util
from pathlib import Path

from tracebounds import krylov, linalg, wishart

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_on_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    np_real = wishart.np
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert krylov.sym_eigen is not linalg.sym_eigen
    finally:
        tracer.enable(False)
    assert krylov.sym_eigen is linalg.sym_eigen
    assert wishart.np is np_real
