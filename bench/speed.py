"""Machine-speed probe used to express times at a reference speed.

On a shared box the CPU's effective speed drifts by 15-30% over tens of
seconds (neighbours, frequency), far more than the run-to-run noise of the
program itself.  Every client times this fixed pure-Python loop before
each op, and run.py times it before launching each client.  A run's times
at reference speed are its wall times times ``REF_S / probe``, with
``probe`` the median of every probe taken in the run: one factor for the
whole run, so the noise of single probes does not reach single ops.  The
loop touches nothing of the program.  Raw wall times are reported beside
the scaled ones.
"""

import time

# The probe's typical time on the 2-core box the benchmark was defined on.
REF_S = 0.0014


def probe() -> float:
    """Best of three timings of a fixed integer loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for k in range(15000):
            s += k * k % 7
        best = min(best, time.perf_counter() - t0)
    return best
