"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this script and times it from process start to the
``PERFBENCH-READY`` line (imports, input build, daemon boot): that is one
set-up sample.  With ``--setup-only`` the worker stops there.  Otherwise
it measures blocks of the workload for ``--seconds`` and prints one
``PERFBENCH-RESULT <json>`` line:

* ``--trace 0``: blocks back to back on the untouched program;
* ``--trace 1``: one warm-up block, then pairs of an untraced and a
  traced block of identical work; the traced block runs with the layer
  wrappers of :mod:`tracing` and ``REPRO_PHASE_TIMERS=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

from tracing import Tracer, install_layers, layer_metrics
from workloads import TENANT, WORKLOADS, Daemon, RequestStream, rc_line_spec

#: Requests per untraced/traced block of the service workload.
SERVICE_TRACE_REQUESTS = 120

#: Layers only ``service_mix`` reaches (the store is off elsewhere).
SERVICE_LAYERS_BYPASSED = dict.fromkeys(
    ["exec.store.hits", "exec.store.misses", "exec.store.stores",
     "exec.store.hit_ratio", "exec.store.write_failures", "exec.store.bytes",
     "service.accept_ms", "service.exec_ms", "service.events",
     "service.bytes_rx", "service.rejected", "service.job_errors"], 0.0)


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _record(blocks, elapsed: float) -> dict:
    return {"work": sum(b.work for b in blocks),
            "elapsed": elapsed,
            "latencies": [x for b in blocks for x in b.latencies],
            "attempted": sum(b.attempted for b in blocks),
            "failed": sum(b.failed for b in blocks),
            "errors": [e for b in blocks for e in b.errors]}


def measure(w, seconds: float) -> dict:
    """Blocks back to back while the next one is expected to end nearer
    to ``seconds`` than stopping now would.

    ``intervals`` holds each block's ``perf_counter`` start and end, and
    ``block_latencies`` its operations' latencies, so ``run.py`` can
    scale every block by the host speed sampled around it.
    """
    blocks, intervals = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        blocks.append(w.block())
        intervals.append((t0, time.perf_counter()))
        elapsed = intervals[-1][1] - start
        if elapsed + elapsed / len(blocks) / 2 > seconds:
            break
    record = _record(blocks, sum(t1 - t0 for t0, t1 in intervals))
    record["intervals"] = intervals
    record["block_latencies"] = [b.latencies for b in blocks]
    return record


def _traced_block(w, tracer: Tracer):
    """One block under the layer wrappers; returns (block, wall)."""
    from repro.sta.noise_aware import clear_quiet_cache, quiet_cache_stats

    clear_quiet_cache()  # zeroes quiet-cache and fleet counters
    install_layers(tracer)
    os.environ["REPRO_PHASE_TIMERS"] = "1"
    try:
        t0 = time.perf_counter()
        block = w.block()
        wall = time.perf_counter() - t0
    finally:
        del os.environ["REPRO_PHASE_TIMERS"]
        tracer.restore()
    stats = quiet_cache_stats()
    tracer.count("quiet_cache.hits", stats["hits"])
    tracer.count("quiet_cache.lookups", stats["hits"] + stats["misses"])
    for key in ("shards", "fallback_shards"):
        tracer.count(f"exec.pool.{key}", stats["fleet"].get(key, 0))
    return block, wall


def measure_traced(w, seconds: float) -> dict:
    """Untraced/traced pairs after one warm-up block."""
    tracer = Tracer()
    start = time.perf_counter()
    w.block()
    blocks, untraced, traced = [], [], []
    while True:
        t0 = time.perf_counter()
        blocks.append(w.block())
        untraced.append(time.perf_counter() - t0)
        block, wall = _traced_block(w, tracer)
        blocks.append(block)
        traced.append(wall)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (len(traced) + 0.5) / 2 > seconds:
            break
    record = _record(blocks, elapsed)
    layers = layer_metrics(tracer, passes=len(traced))
    layers.update(_trace_walls(untraced, traced))
    layers.update(SERVICE_LAYERS_BYPASSED)
    record["layers"] = layers
    return record


def _trace_walls(untraced, traced) -> dict:
    u, t = statistics.median(untraced), statistics.median(traced)
    return {"trace.untraced_wall_s": u, "trace.traced_wall_s": t,
            "trace.overhead_s": t - u}


def _service_block(w, daemon: Daemon, traced: bool) -> tuple[list, float, dict]:
    """Warm ``daemon`` up, then run the seeded request block on it.

    The warm-up (two requests of another stream) loads the job kinds'
    lazy imports, so the untraced/traced walls compare like with like;
    the store counters of the block are taken as differences.
    """
    warm = RequestStream(w.seed + 1_000_003, w.verilog, w.liberty)
    daemon.client.submit(warm.sta_mc(warm.mc_seeds[0]))
    daemon.client.submit(rc_line_spec(warm.rng, -1))
    if traced:
        daemon.client.submit({"kind": "perfbench_trace", "reset": True})
    w.client_stats = {"accept": [], "exec": [], "events": 0, "bytes_rx": 0}
    before = daemon.client.stats()
    stream = RequestStream(w.seed, w.verilog, w.liberty)
    t0 = time.perf_counter()
    blocks = [w.request(daemon, stream) for _ in range(SERVICE_TRACE_REQUESTS)]
    return blocks, time.perf_counter() - t0, before


def measure_service_traced(w, workdir: Path) -> dict:
    """The same request block on the plain daemon and on a traced one
    (each with a fresh store)."""
    blocks, untraced, _ = _service_block(w, w.daemon, traced=False)
    daemon = Daemon(workdir, "traced", traced=True)
    try:
        more, traced, before = _service_block(w, daemon, traced=True)
        layers = daemon.client.submit({"kind": "perfbench_trace"})["layers"]
        after = daemon.client.stats()
    finally:
        daemon.stop()

    def delta(*path):
        a, b = after, before
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (a or 0) - (b or 0)

    tenant = ("tenants", TENANT)
    hits, misses = delta(*tenant, "hits"), delta(*tenant, "misses")
    cs = w.client_stats
    layers.update({
        "exec.store.hits": hits,
        "exec.store.misses": misses,
        "exec.store.stores": delta(*tenant, "stores"),
        "exec.store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "exec.store.write_failures": delta(*tenant, "write_failures"),
        "exec.store.bytes": after["tenants"][TENANT]["bytes"],
        "service.accept_ms": statistics.median(cs["accept"]) * 1e3,
        "service.exec_ms": statistics.median(cs["exec"]) * 1e3,
        "service.events": cs["events"],
        "service.bytes_rx": cs["bytes_rx"],
        "service.rejected": (delta("queue", "rejected_full")
                             + delta("queue", "rejected_quota")),
        "service.job_errors": delta("job_errors"),
    })
    layers.update(_trace_walls([untraced], [traced]))
    record = _record(blocks + more, untraced + traced)
    record["layers"] = layers
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    # The core of the host-speed sampler (hostprobe.py), shared with the
    # daemon, so the samples show the speed of the core the work ran on.
    os.sched_setaffinity(0, {args.cpu})

    w = WORKLOADS[args.workload](args.seed, workdir)
    print("PERFBENCH-READY", flush=True)
    try:
        if args.setup_only:
            return 0
        if not args.trace:
            record = measure(w, args.seconds)
        elif args.workload == "service_mix":
            record = measure_service_traced(w, workdir)
        else:
            record = measure_traced(w, args.seconds)
        rss_self = _rss_mb(resource.RUSAGE_SELF)
    finally:
        w.close()
    # The daemon (if any) has exited: its peak now shows in RUSAGE_CHILDREN.
    record["peak_rss_mb"] = max(rss_self, _rss_mb(resource.RUSAGE_CHILDREN))
    record["errors"] += w.final_checks()
    record["summary"] = w.summary
    record["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    print("PERFBENCH-RESULT " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
