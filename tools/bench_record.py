"""Record the benchmark's end-to-end metrics for one or more checkouts.

    python3 tools/bench_record.py --out BENCH.json [--workload W ...]
        [--seeds A-B] [--trace 0|1] [--add] LABEL=CHECKOUT ...

For each workload (default: every one) and each seed (default: 1-5) it
runs, in each checkout,

    python3 bench/run.py --workload W --seed S --seconds 16 --trace T

(T from --trace, default 0; at 1 a run reports the per-layer metrics in
place of the end-to-end ones) and parses the JSON object on the last line
of stdout.  The checkouts take turns: the order in which they run rotates
by one from each seed to the next, so with two checkouts each runs first
on every other seed.  The
output file holds, per checkout and workload, the median, q1 and q3 over
the seeds of each metric a run reports (``setup_s``, ``op_s.p50``,
``op_s.tail`` and ``peak_rss_mb`` at --trace 0, the per-layer metrics at 1),
the attempted and failed op counts summed over the seeds, and every run's
raw record, with the unscaled wall times and speed scale its run record
holds (``wall``, summarized the same way); per checkout its ``git
describe --always --dirty``; and the
environment: Python, numpy, the BLAS numpy was built with, and the CPU
count.  The workloads and the run length (16 s) are those of
``BENCHMARK.json`` at the root of this checkout.  With --add the report
is appended to the list ``more`` of the existing file --out names, so one
file can hold several seed ranges or trace modes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: The op time a run reports, by its --trace value.
OP_P50 = {0: "op_s.p50", 1: "trace.untraced_op_s_p50"}
#: Unscaled figures of a --trace 0 run, and the scale, from its run record.
WALL_KEYS = ("wall_setup_s", "wall_op_s_p50", "wall_op_s_tail", "scale")
HERE = Path(__file__).resolve().parents[1]


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``bench/run.py`` run: its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    record = json.loads(lines[-1])
    # The run record keeps the raw wall figures and the speed scale that
    # turned them into the reported ones.
    notes = json.loads((checkout / ".bench_work" /
                        f"run-{workload}-s{seed}-t{trace}.json").read_text())
    record["wall"] = {k: notes[k] for k in WALL_KEYS if k in notes}
    return record


def quartiles(values: list[float]) -> dict:
    """Median, q1 and q3 (inclusive method) of the values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    summary = {name: quartiles([r["metrics"][name]["value"] for r in runs])
               for name in runs[0]["metrics"]}
    summary["units"] = {name: m["unit"] for name, m in runs[0]["metrics"].items()}
    summary["wall"] = {key: quartiles([r["wall"][key] for r in runs])
                       for key in runs[0]["wall"]}
    summary["attempted"] = sum(r["attempted"] for r in runs)
    summary["failed"] = sum(r["failed"] for r in runs)
    summary["all_correct"] = all(r["correct"] for r in runs)
    return summary


def describe(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_count": os.cpu_count()}


def seed_range(text: str) -> list[int]:
    """The seeds A..B, both included, of "A-B"."""
    first, sep, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last) + 1))
    except ValueError:
        seeds = []
    if not sep or not seeds:
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, got {text!r}")
    return seeds


def main(argv=None) -> int:
    spec = json.loads((HERE / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--workload", action="append", choices=names,
                   help="a workload to run (repeatable; default: every one)")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-5"),
                   metavar="A-B", help="the seeds A..B (default: 1-5)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="bench/run.py --trace value (default: 0)")
    p.add_argument("--add", action="store_true",
                   help="append the report to the list 'more' of the "
                        "existing --out file")
    p.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT")
    args = p.parse_args(argv)
    workloads = [w for w in names if w in (args.workload or names)]
    seconds = spec["run_seconds"]
    checkouts = {}
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not sep or not label:
            p.error(f"expected LABEL=CHECKOUT, got {item!r}")
        checkouts[label] = Path(path).resolve()
    runs = {label: {w: [] for w in workloads} for label in checkouts}
    labels = list(checkouts)
    for w in workloads:
        for i, seed in enumerate(args.seeds):
            shift = i % len(labels)
            for label in labels[shift:] + labels[:shift]:
                record = run_once(checkouts[label], w, seed, seconds,
                                  args.trace)
                record["seed"] = seed
                runs[label][w].append(record)
                p50 = record["metrics"][OP_P50[args.trace]]["value"]
                print(f"{w} seed {seed} {label}: {OP_P50[args.trace]} "
                      f"{p50:.4f} s",
                      file=sys.stderr)
    report = {
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace {args.trace}",
        "seeds": args.seeds,
        "environment": environment(),
        "checkouts": {
            label: {"git": describe(path),
                    "workloads": {w: {**summarize(rs), "runs": rs}
                                  for w, rs in runs[label].items()}}
            for label, path in checkouts.items()},
    }
    if args.add:
        base = json.loads(Path(args.out).read_text())
        base.setdefault("more", []).append(report)
        report = base
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
