"""Benchmark of the tracebounds CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  Each
workload (see workloads.py) is driven by one closed-loop client in a fresh
interpreter that calls ``tracebounds.cli.main`` in-process.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

Times are reported at reference machine speed (see speed.py): every time
of a run is scaled by one factor, how much slower or faster than usual a
fixed probe loop ran, as the median over the probes taken before each
client launch and each op of the run.  The raw wall-time figures are printed on the line before the
result and written to the run record.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``setup_s``: median over five fresh interpreters of the time from
  launch until op 0 finishes, minus ``op_s.p50``.  It is the import and
  lazy-initialisation cost every CLI invocation pays.
* ``op_s.p50`` and ``op_s.tail``: median and the highest whole percentile
  with at least ten ops beyond it, of warm op times in the measuring client.
* ``peak_rss_mb``: peak RSS of the measuring client.

An op fails on a nonzero exit code, a failed reference check, or an output
or work count that differs from the same op (same seed, same index) in any
other client or earlier run of the same source in this checkout (the ledger
is kept per digest of ``src/`` and ``bench/``, so a change to the program
starts a fresh one); ``failed`` counts those ops.

``--trace 1`` runs every op untraced and traced back to back (spans around
each layer's public functions, see tracing.py), then repeats the first ops
with OpenBLAS pinned to one thread in that client's environment.  It
reports the per-layer metrics, each layer's share of the traced op time,
the share no inner layer claims (``trace.uncovered_share``), the tracing
overhead and the single-thread baseline.

Per-op times, hashes and work counts are written to ``.bench_work/`` in
the checkout, spans of traced clients alongside them.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import speed  # noqa: E402  (stdlib only, next to this file)

WORKDIR = ".bench_work"
SETUP_SAMPLES = 5          # fresh interpreters per --trace 0 run
CLIENT_TIMEOUT_S = 150.0   # whole-run budget for all clients


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tracebounds", "cli.py")):
        print(f"error: no program source under {ROOT}/src/tracebounds",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    # The build: byte-compile the program so no client pays for it.
    compileall.compile_dir(os.path.join("src", "tracebounds"), quiet=1)
    os.makedirs(WORKDIR, exist_ok=True)
    bench = Bench(args.workload, args.seed)
    deadline = time.monotonic() + CLIENT_TIMEOUT_S
    try:
        workloads.make_op(args.workload, args.seed, 0, WORKDIR)  # shared op 0
        if args.trace:
            metrics = bench.traced(args.seconds, deadline)
        else:
            metrics = bench.untraced(args.seconds, deadline)
    finally:
        path = workloads.matrix_path(WORKDIR, args.workload, args.seed, 0)
        if os.path.exists(path):
            os.remove(path)
    return bench.report(metrics, args.trace)


class Bench:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.clients = []       # result of every client run, in order
        self.notes = {}
        self.digest = source_digest()

    # -- clients -----------------------------------------------------------

    def client(self, label, mode, seconds, max_ops, deadline, env=None):
        out = os.path.join(WORKDIR, f"{self.workload}-s{self.seed}-{label}.json")
        src = os.path.join(ROOT, "src")
        child_env = dict(os.environ, **(env or {}))
        child_env["PYTHONPATH"] = src + os.pathsep + child_env.get("PYTHONPATH", "")
        cmd = [sys.executable, os.path.join(BENCH, "client.py"), self.workload,
               str(self.seed), mode, repr(seconds), str(max_ops), WORKDIR, out]
        pre = speed.probe()
        launch = time.monotonic()
        subprocess.run(cmd, env=child_env, check=True,
                       timeout=max(1.0, deadline - launch))
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["launch_probe_s"] = pre
        result["setup_sample_s"] = result["first_done"] - launch
        result["label"] = label
        self.clients.append(result)
        return result

    def scale(self):
        """Factor from wall time to reference speed: one for the whole run."""
        probes = [p for c in self.clients
                  for p in [c["launch_probe_s"]] + [r["probe_s"] for r in c["ops"]]]
        probe = statistics.median(probes)
        self.notes["probe_s_p50"] = probe
        return speed.REF_S / probe

    def untraced(self, seconds, deadline):
        setup = [self.client(f"first{k}", "first", 0, 1, deadline)
                 for k in range(SETUP_SAMPLES - 1)]
        main = self.client("plain", "plain", seconds, 10**9, deadline)
        walls = sorted(r["time_s"] for r in main["ops"][1:])
        samples = [r["setup_sample_s"] for r in setup + [main]]
        wall_p50 = statistics.median(walls)
        pct, wall_tail, beyond = tail_percentile(walls)
        wall_setup = statistics.median(samples) - wall_p50
        f = self.scale()
        self.notes.update(
            ops=len(walls), tail_percentile=pct, ops_beyond_tail=beyond,
            setup_samples_s=samples, env=main["env"], scale=f,
            wall_op_s_p50=wall_p50, wall_op_s_tail=wall_tail,
            wall_setup_s=wall_setup)
        return {
            "setup_s": (wall_setup * f, "s"),
            "op_s.p50": (wall_p50 * f, "s"),
            "op_s.tail": (wall_tail * f, "s"),
            "peak_rss_mb": (main["rss_mb"], "MB"),
        }

    def traced(self, seconds, deadline):
        traced = self.client("traced", "traced", 0.75 * seconds, 10**9, deadline)
        n = len(traced["ops"])
        blas1 = self.client("blas1", "traced", 0.25 * seconds, n, deadline,
                            env={"OPENBLAS_NUM_THREADS": "1"})
        self.notes.update(ops=n - 1, env=traced["env"], blas1_env=blas1["env"])
        return layer_metrics(traced, blas1, self.scale(), self.notes)

    # -- correctness -------------------------------------------------------

    def failures(self):
        """(attempted, failed, missed controls) over every client's ops.

        Hashes and work counts of each op are compared with every other
        client at the default thread count and with earlier runs of the
        same seed and the same source in this checkout (the ledger).
        """
        ledger_path = os.path.join(
            WORKDIR, f"ledger-{self.workload}-{self.digest[:16]}.json")
        ledger = {}
        if os.path.exists(ledger_path):
            with open(ledger_path, encoding="utf-8") as fh:
                ledger = json.load(fh)
        attempted = failed = 0
        for client in self.clients:
            pinned = client["label"] == "blas1"
            for rec in client["ops"]:
                attempted += 1
                key = f"{self.seed}:{rec['i']}"
                if pinned:
                    # Compared only with itself: OpenBLAS thread count may
                    # change the last bits (reported as blas1 mismatches).
                    rec["fail"] += compare(ledger.get(key, {}), rec, hashes=False)
                else:
                    rec["fail"] += compare(ledger.get(key, {}), rec)
                    entry = ledger.setdefault(key, {"hash": rec["hash"], "counts": {}})
                    entry["counts"].update(rec["counts"])
                failed += bool(rec["fail"])
        missed = [m for c in self.clients for m in c["controls"]["missed"]]
        # Determinism and work-count negative controls: one altered hash
        # and one altered count must each be flagged against the ledger.
        sample = self.clients[0]["ops"][0]
        entry = ledger[f"{self.seed}:{sample['i']}"]
        if not compare(entry, dict(sample, hash="0" * 64)):
            missed.append("determinism: altered hash accepted")
        bumped = {k: v + 1 for k, v in entry["counts"].items()}
        if bumped and not compare(entry, dict(sample, counts=bumped)):
            missed.append("work counts: altered count accepted")
        with open(ledger_path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(ledger, fh)
        os.replace(ledger_path + ".tmp", ledger_path)
        return attempted, failed, missed

    def report(self, metrics, trace) -> int:
        attempted, failed, missed = self.failures()
        fails = [(c["label"], r["i"], r["fail"]) for c in self.clients
                 for r in c["ops"] if r["fail"]]
        record = {
            "workload": self.workload,
            "why": workload_why(self.workload),
            "seed": self.seed,
            "trace": trace,
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "source_digest": self.digest,
            **self.notes,
            "ops": {c["label"]: [{"i": r["i"], "time_s": r["time_s"],
                                  "hash": r["hash"], "counts": r["counts"],
                                  "probe_s": r["probe_s"]}
                                 for r in c["ops"]] for c in self.clients},
            "failures": fails,
            "controls_missed": missed,
        }
        path = os.path.join(WORKDIR, f"run-{self.workload}-s{self.seed}-t{trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        for label, i, why in fails[:20]:
            print(f"failed op {i} ({label}): {'; '.join(why)}")
        for m in missed:
            print(f"negative control not caught: {m}")
        n = self.notes
        print(f"{self.workload} seed {self.seed}: {n.get('ops')} warm ops"
              + (f", tail = p{n['tail_percentile']} with "
                 f"{n['ops_beyond_tail']} ops beyond; raw wall: "
                 f"op_s.p50 {n['wall_op_s_p50']:.4f} s, op_s.tail "
                 f"{n['wall_op_s_tail']:.4f} s, setup_s {n['wall_setup_s']:.4f} s"
                 if "tail_percentile" in n else "")
              + f"; probe median {n['probe_s_p50'] * 1e3:.3f} ms, scale "
                f"{speed.REF_S / n['probe_s_p50']:.3f}; record in {path}")
        print(json.dumps({
            "correct": failed == 0 and not missed,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0


def compare(entry, rec, hashes=True):
    """Reasons ``rec`` disagrees with a ledger entry for the same op."""
    fails = []
    if hashes and entry.get("hash") not in (None, rec["hash"]):
        fails.append("output differs from the same op in another run")
    for k, v in rec["counts"].items():
        if k in entry.get("counts", {}) and entry["counts"][k] != v:
            fails.append(f"work count {k} = {v}, another run had {entry['counts'][k]}")
    return fails


def tail_percentile(times):
    """(p, value, ops beyond) for the highest whole percentile p with at
    least ten ops above its nearest-rank value; the maximum when there
    are too few ops."""
    n = len(times)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, times[rank - 1], n - rank
    return 100, times[-1], 0


def source_digest():
    """sha256 over the program's and the benchmark's Python files."""
    h = hashlib.sha256()
    for top in (os.path.join("src", "tracebounds"), BENCH):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read() + b"\0")
    return h.hexdigest()


def workload_why(workload):
    """The reason BENCHMARK.json records for choosing ``workload``."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        for entry in json.load(fh)["workloads"]:
            if entry["name"] == workload:
                return entry["why"]
    return None


def git_sha():
    """HEAD of the checkout, when it is a git work tree (read, not run)."""
    head = os.path.join(".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(".git", ref[5:])
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return ref


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run

def _warm(client):
    return client["ops"][1:] or client["ops"]


def layer_metrics(traced, blas1, scale, notes):
    """Per-layer metrics: medians over warm ops of each op's traced pass.

    Span times are raw wall time; the ``trace.*_op_s_p50`` and
    ``blas1.op_s_p50`` figures are at reference speed (times ``scale``).
    """
    import tracing
    ops = [r["layers"] for r in _warm(traced)]

    def med(fn):
        return statistics.median(fn(o) for o in ops)

    def g(o, key):
        return o.get(key, 0.0)

    def total(key):
        return sum(g(o, key) for o in ops)

    def rate(flop, secs):
        return total(flop) / total(secs) / 1e9 if total(secs) > 0 else 0.0

    m = {}

    def put(name, unit, fn):
        m[name] = (med(fn), unit)

    span = lambda name: (lambda o: g(o, f"span:{name}"))
    key = lambda name: (lambda o: g(o, name))

    put("approx.build_s", "s",
        lambda o: g(o, "span:approx.build") - g(o, "approx.certify_in_build_s"))
    put("approx.certify_s", "s", span("approx.certify"))
    put("approx.monomials", "count", key("approx.monomials"))
    put("approx.degree", "count",
        lambda o: g(o, "approx.degree_sum") / g(o, "approx.builds")
        if g(o, "approx.builds") else 0.0)
    put("krylov.lanczos_s", "s", span("krylov.lanczos"))
    put("krylov.lanczos_steps", "count", key("krylov.lanczos_steps"))
    put("krylov.lanczos_breakdowns", "count", key("krylov.lanczos_breakdowns"))
    put("krylov.lanczos_gflop_computed", "GFLOP",
        lambda o: g(o, "krylov.lanczos_flop") / 1e9)
    put("krylov.lanczos_mb_computed", "MB",
        lambda o: g(o, "krylov.lanczos_bytes") / 1e6)
    m["krylov.lanczos_gflops"] = (rate("krylov.lanczos_flop", "span:krylov.lanczos"),
                                  "GFLOP/s")
    put("krylov.clenshaw_s", "s", span("krylov.clenshaw"))
    put("krylov.clenshaw_mvps", "count", key("krylov.clenshaw_mvps"))
    put("krylov.clenshaw_gflop_computed", "GFLOP",
        lambda o: g(o, "krylov.clenshaw_flop") / 1e9)
    put("krylov.clenshaw_mb_computed", "MB",
        lambda o: g(o, "krylov.clenshaw_bytes") / 1e6)
    m["krylov.clenshaw_gflops"] = (rate("krylov.clenshaw_flop", "span:krylov.clenshaw"),
                                   "GFLOP/s")
    put("krylov.oracle_lanczos_s", "s", span("krylov.oracle_lanczos"))
    put("krylov.oracle_steps", "count", key("krylov.oracle_steps"))
    put("matio.parse_s", "s", span("matio.parse_matrix_file"))
    put("matio.bytes", "B", key("matio.bytes"))
    put("hutchinson.probes", "count", key("hutchinson.probes"))
    put("hutchinson.probe_draw_s", "s", span("hutchinson.draw"))
    put("hutchinson.mvps", "count", key("hutchinson.mvps"))
    put("linalg.sample_wishart_s", "s", span("linalg.sample_wishart"))
    put("linalg.sample_wishart_calls", "count", key("linalg.sample_wishart_calls"))
    put("linalg.sym_eigen_s", "s", span("linalg.sym_eigen"))
    put("linalg.cholesky_s", "s", span("linalg.cholesky"))
    put("linalg.qr_s", "s", span("linalg.qr"))
    put("rng.streams", "count", key("rng.streams"))
    put("rng.stream_s", "s", span("rng.child"))
    put("wishart.trials", "count", key("wishart.trials"))
    put("wishart.eigensolve_s", "s", key("wishart.eigensolve_s"))
    put("wishart.posterior_s", "s", span("wishart.posterior_decompose"))
    put("wishart.oracle_queries", "count", key("wishart.oracle_queries"))
    put("wishart.budget_violations", "count", key("wishart.budget_violations"))
    game = total("wishart.game_trials")
    m["wishart.game_success_ratio"] = (
        total("wishart.game_successes") / game if game else 0.0, "ratio")
    kept = total("wishart.kept_of")
    m["wishart.kept_ratio"] = (total("wishart.kept") / kept if kept else 0.0, "ratio")
    m["wishart.posterior_exit3"] = (
        float(sum(r["posterior_exit3"] for r in _warm(traced))), "count")
    put("cli.invocations", "count", key("cli.invocations"))
    for layer in tracing.LAYERS:
        put(f"{layer}.self_s", "s", key(f"{layer}.self_s"))
        put(f"{layer}.busy_s", "s", key(f"{layer}.busy_s"))
        m[f"{layer}.failures"] = (total(f"{layer}.failures"), "count")

    # Each op ran untraced and traced back to back, so the ratio of the
    # two passes is taken at the same machine speed.
    warm = _warm(traced)
    untraced_wall = statistics.median(r["time_s"] for r in warm)
    m["trace.untraced_wall_op_s_p50"] = (untraced_wall, "s")
    m["trace.untraced_op_s_p50"] = (untraced_wall * scale, "s")
    m["trace.op_s_p50"] = (statistics.median(r["traced_s"] for r in warm) * scale, "s")
    m["trace.overhead"] = (statistics.median(
        r["traced_s"] / r["time_s"] for r in warm), "ratio")
    # cli.main is the root span, so every traced second is some layer's
    # self time; what no inner wrapper claims lands in cli.self_s.  Each
    # layer's share is its self time over the op's traced wall time.
    for layer in tracing.LAYERS:
        m[f"share.{layer}"] = (statistics.median(
            r["layers"].get(f"{layer}.self_s", 0.0) / r["traced_s"]
            for r in warm), "ratio")
    m["trace.uncovered_share"] = (statistics.median(
        (r["traced_s"] - sum(r["layers"].get(f"{la}.self_s", 0.0)
                             for la in tracing.LAYERS if la != "cli"))
        / r["traced_s"] for r in warm), "ratio")
    m["trace.ops"] = (float(len(ops)), "count")

    pinned = [r["layers"] for r in _warm(blas1)]
    p1 = statistics.median(r["time_s"] for r in _warm(blas1)) * scale
    m["blas1.op_s_p50"] = (p1, "s")
    m["blas1.op_ratio"] = (p1 / m["trace.untraced_op_s_p50"][0], "ratio")
    for name, k in (("blas1.lanczos_s", "span:krylov.lanczos"),
                    ("blas1.clenshaw_s", "span:krylov.clenshaw"),
                    ("blas1.eigensolve_s", "wishart.eigensolve_s"),
                    ("blas1.sample_wishart_s", "span:linalg.sample_wishart")):
        m[name] = (statistics.median(o.get(k, 0.0) for o in pinned), "s")
    by_index = {r["i"]: r["hash"] for r in traced["ops"]}
    m["blas1.output_mismatches"] = (
        float(sum(r["hash"] != by_index.get(r["i"]) for r in blas1["ops"])), "count")
    notes["blas1_ops"] = len(blas1["ops"]) - 1
    return m


if __name__ == "__main__":
    sys.exit(main())
