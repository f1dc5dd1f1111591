"""Host-speed probe: a fixed kernel sampled beside the workload.

The reference host is a shared two-core VM whose speed drifts by up to 2x
for minutes at a time with its neighbours' load, so raw wall times of
identical work spread wider across runs than a regression bound.

Run as a script, this module is the *sampler*: pinned to the core the
benchmark worker is pinned to, it wakes every :data:`PERIOD_S`, runs a
short fixed kernel (small dense solves plus interpreter work, the mix of
the simulator's Newton loop; it calls nothing of the program) and
records the kernel's CPU time, which rises and falls with the speed of
that core.  It takes about 1% of the core.  On SIGTERM it prints its
samples as one JSON list of ``[perf_counter midpoint, cpu seconds]``.

:func:`factor` scales a timed interval by ``REFERENCE_S`` over the mean
sample around it.  A time multiplied by it reads what the same work
takes when the kernel runs at ``REFERENCE_S`` per call: host drift moves
kernel and workload together and cancels, while a change to the program
moves only the workload.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

#: Seconds between two samples.
PERIOD_S = 0.045
#: Kernel iterations per sample.
ITERATIONS = 25
#: CPU seconds of one sample on the reference host.  Every normalised
#: time scales with it; keep it fixed.
REFERENCE_S = 0.4e-3
#: Shortest window a factor is averaged over (about 20 samples).
MIN_WINDOW_S = 1.0


def factor(samples: list, t0: float, t1: float) -> float:
    """``REFERENCE_S`` over the mean sample in ``[t0, t1]``, the window
    widened about its middle to :data:`MIN_WINDOW_S`."""
    half = max(t1 - t0, MIN_WINDOW_S) / 2
    mid = (t0 + t1) / 2
    inside = [cpu for t, cpu in samples if mid - half <= t <= mid + half]
    if not inside:
        raise RuntimeError(f"no host probe sample in [{mid - half:.3f}, "
                           f"{mid + half:.3f}]")
    return REFERENCE_S * len(inside) / sum(inside)


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    import numpy as np

    rng = np.random.default_rng(20051)
    a = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
    b = rng.standard_normal(12)
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    samples = []
    print("ready", flush=True)
    while not stop:
        time.sleep(PERIOD_S)
        t0, c0 = time.perf_counter(), time.thread_time()
        x, s = b.copy(), 0.0
        for i in range(ITERATIONS):
            x = np.tanh(np.linalg.solve(a, x)) * 0.5 + b
            s += float(x[0]) * 1e-3
            d = {"i": i, "s": s}
            s += d["i"] % 3
        samples.append([(t0 + time.perf_counter()) / 2, time.thread_time() - c0])
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
