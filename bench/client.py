"""Closed-loop client: one process, one client, each op sent after the
previous one returns.  It drives the real CLI in-process through
``tracebounds.cli.main`` and captures its stdout and stderr.

Started by run.py as a fresh interpreter:

    python3 bench/client.py WORKLOAD SEED MODE SECONDS MAX_OPS WORKDIR OUT

MODE is ``first`` (op 0 only: one set-up sample), ``plain`` (tracing off)
or ``traced`` (each op untraced and traced, back to back).  Op 0 is the
cold op; the measuring window starts with op 1 and closes after SECONDS of
wall time or MAX_OPS ops.  Generating inputs, the speed probe (speed.py)
and checking outputs happen between ops and are not part of an op's time.
The probe runs after the op's inputs are generated and before the op, so
the benchmark's own work, not the program's, is what precedes it.
"""

import contextlib
import io
import json
import resource
import sys
import time


def _invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _timed(cli, op):
    """Run one op: (outputs, wall seconds)."""
    t0 = time.perf_counter()
    outputs = [_invoke(cli, a) for a in op.argvs]
    return outputs, time.perf_counter() - t0


def main(argv):
    workload, seed, mode, seconds, max_ops, workdir, out_path = argv
    seed, seconds, max_ops = int(seed), float(seconds), int(max_ops)
    from tracebounds import cli  # the import every CLI invocation pays

    import speed
    import workloads
    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    records, first_outputs, first_op = [], None, None
    first_done = window = None
    i = 0
    while True:
        op = workloads.make_op(workload, seed, i, workdir)
        probe = speed.probe()
        if i == 1:
            window = time.perf_counter()
        if tracer:
            # Each op runs untraced and traced back to back, in alternating
            # order, so the overhead is measured at the same machine speed.
            passes = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                tracer.enable(traced)
                mark = tracer.begin_op(i)
                passes[traced] = _timed(cli, op)
                if traced:
                    layers = tracer.op_summary(mark)
            outputs, wall = passes[False]
            traced_outputs, traced_wall = passes[True]
        else:
            outputs, wall = _timed(cli, op)
        if i == 0:
            first_done = time.monotonic()
            first_outputs, first_op = outputs, op
        rec = {
            "i": i,
            "time_s": wall,
            "probe_s": probe,
            "hash": workloads.output_hash(outputs),
            "fail": workloads.check(op, outputs),
            "counts": workloads.output_counts(op, outputs),
            "posterior_exit3": workloads.posterior_rejected(op, outputs),
        }
        if tracer:
            if workloads.output_hash(traced_outputs) != rec["hash"]:
                rec["fail"].append("traced output differs from untraced")
            rec.update(traced_s=traced_wall, layers=layers)
            for key in workloads.COUNT_KEYS:
                if key in layers:
                    rec["counts"][key] = int(layers[key])
        records.append(rec)
        if i > 0:
            op.cleanup()  # op 0's files are shared with the other clients
        i += 1
        if mode == "first" or i >= max_ops:
            break
        if window is not None and time.perf_counter() - window >= seconds:
            break

    controls = workloads.negative_controls(first_op, first_outputs)
    result = {
        "ops": records,
        "first_done": first_done,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "controls": {"total": len(controls),
                     "missed": [name for name, bad in controls
                                if not workloads.check(first_op, bad)]},
        "env": _environment(),
    }
    if tracer:
        tracer.dump(out_path + ".spans.tsv")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _environment() -> dict:
    """Interpreter, numpy/scipy and BLAS build plus its live thread count."""
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
            break
        if threads is not None:
            break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
