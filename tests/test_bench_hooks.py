"""The benchmark's tracer wraps program functions by name (bench/tracing.py).

A deletion or rename of a wrapped name, a renamed parameter that a counter
reads, or a call that bypasses a wrapped name would surface only as a
failed or dark ``bench/run.py --trace 1`` run; these tests make it fail the
test suite instead.  The benchmark code is read, never modified.
"""

import importlib.util
from pathlib import Path

from tracebounds import cli, krylov, linalg, wishart

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_on_every_wrapped_name():
    tracing = _load_tracing()
    np_real = wishart.np
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert krylov.sym_eigen is not linalg.sym_eigen
    finally:
        tracer.enable(False)
    assert krylov.sym_eigen is linalg.sym_eigen
    assert wishart.np is np_real


MATRIX = "m.txt"
TRACE = ["trace", "--matrix", MATRIX, "--probes", "4", "--seed", "1"]

# One tiny invocation of each shape the benchmark runs, with the counters
# its traced run must make nonzero.
TRACED_RUNS = [
    (["poly", "build", "--func", "invsqrt", "--kappa", "16", "--delta", "0.1"],
     ["approx.builds"]),
    (TRACE + ["--backend", "exact"],
     ["hutchinson.probes", "matio.bytes", "rng.streams"]),
    (TRACE + ["--backend", "lanczos", "--m", "3"],
     ["krylov.lanczos_steps", "hutchinson.probes", "matio.bytes"]),
    (TRACE + ["--backend", "cheb", "--kappa", "8", "--delta", "0.1"],
     ["krylov.clenshaw_mvps", "approx.builds", "matio.bytes"]),
    (["wishart", "eigcdf", "--d", "6", "--trials", "20", "--seed", "2",
      "--format", "csv"], ["wishart.trials", "rng.streams"]),
    (["wishart", "lmax", "--d", "6", "--trials", "20", "--seed", "2"],
     ["wishart.trials", "rng.streams"]),
    (["wishart", "invtrace", "--d", "6", "--trials", "10", "--seed", "2"],
     ["wishart.trials", "wishart.kept"]),
    (["wishart", "game", "--d", "6", "--algo", "hutch", "--nv", "2", "--m",
      "3", "--budget", "6", "--trials", "3", "--seed", "2", "--format", "csv"],
     ["krylov.oracle_steps", "oracle_queries", "wishart.trials"]),
    (["wishart", "posterior", "--d", "6", "--n", "2", "--trials", "20",
      "--seed", "2"], ["wishart.trials"]),
]


def test_traced_runs_match_untraced_and_count_their_work(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / MATRIX).write_text("3\n4 1 0\n1 3 0.5\n0 0.5 2\n")
    untraced = []
    for argv, _ in TRACED_RUNS:
        code = cli.main(argv)
        untraced.append((code, capsys.readouterr().out))

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for op, ((argv, keys), want) in enumerate(zip(TRACED_RUNS, untraced)):
            first = tracer.begin_op(op)
            code = cli.main(argv)     # the wrapper, as the benchmark calls it
            assert (code, capsys.readouterr().out) == want, argv
            counts = tracer.op_summary(first)
            assert counts.get("cli.invocations") == 1, argv
            assert not counts.get("cli.failures"), argv
            for key in keys:
                assert counts.get(key, 0) > 0, (argv, key)
    finally:
        tracer.enable(False)

