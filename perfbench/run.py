#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and per layer.

One run::

    python3 perfbench/run.py --workload table1_sweep --seed 1 --seconds 22 --trace 0

runs from the repository root.  It times set-up three times (fresh
interpreter to workload-ready: two set-up-only processes and the
measuring one), measures the workload for ``--seconds`` in a fresh
interpreter (``worker.py``), checks the program's outputs, prints a
report naming every metric with its unit, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  It exits
non-zero when a check fails, and without a result when the program
cannot run.

Steadiness mode::

    python3 perfbench/run.py --steady 10 [--workloads a,b] [--first-seed 1]

runs every workload of ``BENCHMARK.json`` (or those named) that many
times in alternating order (one seed per round) and reports, per end-to-end metric, the median, the quartiles and
the spread (Q3 - Q1) / median against the metric's bound.

Every program setting stays at its default (``workers=1``, no result
store, fixed-grid stepping); ``REPRO_*`` variables are removed from the
environment, except ``REPRO_STORE``, which the service daemon gets
pointing at a fresh directory.  BLAS pools are pinned to one thread.

Time metrics are host-normalised: the worker, its daemon and the
``hostprobe.py`` sampler share one core, and every timed interval is
scaled by the speed the sampler saw during it (see ``hostprobe``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostprobe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
#: Every process of a run is killed this long after the run starts
#: (a run must end within 180 s).
RUN_TIMEOUT_S = 165.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Which named end-to-end figure each workload's ``work_per_s``
#: is, and the unit of one operation behind the latency percentiles.
WORK = {
    "table1_sweep": ("cases_per_s", "noise case", "sweep"),
    "rc_bundle": ("variant_steps_per_s", "variant-step", "batch call"),
    "noise_path_mc": ("samples_per_s", "sample", "Monte-Carlo run"),
    "service_mix": ("requests_per_s", "request", "request"),
}


class BenchError(RuntimeError):
    """The program could not be run or measured (no result is printed)."""


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for key in BLAS_ENV:
        env[key] = "1"
    return env


def _git_sha() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """Content hash of ``src/`` (the checkout need not be a git tree)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Worker:
    """One ``worker.py`` process, read line by line on a thread.

    ``ready()`` waits for its ``PERFBENCH-READY`` line and returns the
    ``perf_counter`` interval from process start to it.
    """

    def __init__(self, args, workdir: Path, deadline: float, cpu: int,
                 setup_only: bool = False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--cpu", str(cpu)]
        if setup_only:
            cmd.append("--setup-only")
        self.name = args.workload
        self.t0 = time.perf_counter()
        # A session of its own, so kill() also reaches the service daemon
        # the worker starts.
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
            stdin=subprocess.DEVNULL, start_new_session=True)
        self.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                                        self.kill_group)
        self.watchdog.start()
        self.t_ready: "float | None" = None
        self.record: "dict | None" = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("PERFBENCH-READY"):
                self.t_ready = time.perf_counter()
                self._ready.set()
            elif line.startswith("PERFBENCH-RESULT "):
                self.record = json.loads(line.split(" ", 1)[1])
        self._ready.set()

    def ready(self) -> "tuple[float, float]":
        self._ready.wait()
        if self.t_ready is None:
            self.finish()
        return self.t0, self.t_ready

    def finish(self) -> "dict | None":
        code = self.proc.wait()
        self._reader.join()
        self.watchdog.cancel()
        if code != 0 or self.t_ready is None:
            raise BenchError(f"worker for {self.name} failed (exit code {code})")
        return self.record

    def kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group has already exited

    def kill(self) -> None:
        """Kill the worker and everything it started, and wait for them."""
        self.watchdog.cancel()
        self.kill_group()
        self.proc.wait()
        self._reader.join()
        for _ in range(100):
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


class Sampler:
    """The host-speed sampler (``hostprobe.py``) on core ``cpu``."""

    def __init__(self, cpu: int, deadline: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostprobe.py"), str(cpu)], cwd=ROOT,
            env=_env(), stdout=subprocess.PIPE, text=True,
            stdin=subprocess.DEVNULL, start_new_session=True)
        self.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                                        self.proc.kill)
        self.watchdog.start()
        # Started before the first worker, so its own start-up is not
        # timed as set-up.
        if self.proc.stdout.readline().strip() != "ready":
            self.kill()
            raise BenchError("the host-speed sampler did not start")

    def stop(self) -> list:
        """Stop sampling; the ``[time, cpu seconds]`` samples."""
        self.proc.send_signal(signal.SIGTERM)
        out = self.proc.stdout.read()
        if self.proc.wait() != 0:
            raise BenchError("the host-speed sampler failed")
        return json.loads(out)

    def kill(self) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def measure(args, workdir: Path) -> "tuple[list, dict, list]":
    """Set-up intervals of two set-up-only processes and the measuring
    one, the measuring worker's record, and the host-speed samples."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # The worker, its daemon and the sampler share one core.
    cpu = max(os.sched_getaffinity(0))
    workers: list[Worker] = []
    sampler = Sampler(cpu, deadline)
    try:
        setups = []
        for k in range(SETUP_SAMPLES):
            if workers:
                workers[-1].finish()  # one process at a time
            setup_only = k < SETUP_SAMPLES - 1
            workers.append(Worker(args, workdir / f"w{k}", deadline, cpu, setup_only))
            setups.append(workers[-1].ready())
        record = workers[-1].finish()
        samples = sampler.stop()
    finally:
        for w in workers:
            w.kill()
        sampler.kill()
    return setups, record, samples


def _percentile(values: list[float], p: float) -> float:
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(record: dict, setups: list, samples: "list | None") -> dict:
    """The end-to-end metrics.  With host-speed ``samples`` every time is
    scaled to reference host speed (:func:`hostprobe.factor`); with
    ``None`` the times are raw."""
    def scale(t0: float, t1: float) -> float:
        return 1.0 if samples is None else hostprobe.factor(samples, t0, t1)

    factors = [scale(t0, t1) for t0, t1 in record["intervals"]]
    elapsed = sum((t1 - t0) * f for (t0, t1), f in zip(record["intervals"], factors))
    # A failed or refused operation counts as over every limit: it gets
    # the whole measured window as its latency.
    lat = [x * f if math.isfinite(x) else elapsed
           for lats, f in zip(record["block_latencies"], factors) for x in lats]
    return {
        "setup_s": statistics.median((ready - t0) * scale(t0, ready)
                                     for t0, ready in setups),
        "peak_rss_mb": record["peak_rss_mb"],
        "ok_share": 1.0 - record["failed"] / record["attempted"],
        "work_per_s": record["work"] / elapsed,
        "latency_p50_ms": _percentile(lat, 0.5) * 1e3,
        "latency_p90_ms": _percentile(lat, 0.9) * 1e3,
    }


def report(args, record: dict, setups: list, samples: list, values: dict) -> None:
    """The human-readable report: every metric by name and unit; time
    metrics at reference host speed, with the raw reading beside them."""
    host = {"nproc": os.cpu_count(), **record["versions"],
            "blas_threads": {k: _env()[k] for k in BLAS_ENV},
            "git_sha": _git_sha(), "src_digest": _src_digest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    print("host " + json.dumps(host))
    summary = record.get("summary", {})
    if args.trace:
        for name, value in values.items():
            print(f"  {name:44s} {value:14.6g}")
        return
    work_name, unit, op = WORK[args.workload]
    n_lat = len(record["latencies"])
    raw = end_to_end(record, setups, None)
    factors = sorted(hostprobe.factor(samples, t0, t1) for t0, t1 in record["intervals"])
    print(f"  host speed: {len(samples)} probe samples; block factors "
          f"{factors[0]:.3f} .. {statistics.median(factors):.3f} .. {factors[-1]:.3f}")
    lines = [
        ("setup_s", values["setup_s"], "s",
         f"median of {len(setups)}; raw "
         + ", ".join(f"{ready - t0:.3f}" for t0, ready in setups) + " s, factor "
         + ", ".join(f"{hostprobe.factor(samples, t0, ready):.3f}"
                     for t0, ready in setups)),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", ""),
        ("failed_share", 1.0 - values["ok_share"], "ratio",
         f"{record['failed']} of {record['attempted']} attempted "
         f"(ok_share {values['ok_share']:.4f})"),
    ]
    for name in ("cases_per_s", "variant_steps_per_s", "samples_per_s",
                 "requests_per_s"):
        if name == work_name:
            lines.append((name, values["work_per_s"], "1/s",
                          f"{record['work']:g} {unit}s (work_per_s; raw "
                          f"{raw['work_per_s']:.6g}, {record['elapsed']:.2f} s)"))
        else:
            lines.append((name, None, "1/s", f"not exercised by {args.workload}"))
    for q in ("p50", "p90"):
        lines.append((f"latency_{q}_ms", values[f"latency_{q}_ms"], "ms",
                      f"per {op}, n={n_lat} (raw {raw[f'latency_{q}_ms']:.6g})"))
    for name in ("sgdp_err_avg_ps", "sgdp_err_max_ps"):
        if name in summary:
            lines.append((name, summary[name], "ps",
                          "SGDP gate-delay error vs golden, I and II pooled"))
        else:
            lines.append((name, None, "ps", f"not exercised by {args.workload}"))
    for name, value, unit_, note in lines:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:22s} {shown:>14s} {unit_:6s} {note}")
    extra = {k: v for k, v in summary.items() if not k.startswith("sgdp_err")}
    if extra:
        print("  detail " + json.dumps(extra))


def run_once(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    workdir = ROOT / ".perfbench_run" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, record, samples = measure(args, workdir)
        values = (record["layers"] if args.trace
                  else end_to_end(record, setups, samples))
    except RuntimeError as exc:  # BenchError, or no host-speed sample
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: the run produced no value for {missing}", file=sys.stderr)
        return 3
    report(args, record, setups, samples, values)
    errors = record["errors"]
    for err in errors:
        print(f"  CHECK FAILED: {err}")
    print(f"  checks: {'all passed' if not errors else f'{len(errors)} failed'}")
    result = {"correct": not errors, "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0 if not errors else 1


# ----------------------------------------------------------------------
# steadiness mode
# ----------------------------------------------------------------------
def steady(args) -> int:
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    values: dict = {w: {m: [] for m in bounds} for w in names}
    raw = []
    for i in range(args.steady):
        seed = args.first_seed + i
        order = names if i % 2 == 0 else names[::-1]
        for w in order:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=200)
            wall = time.perf_counter() - t0
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"run {w} seed {seed} failed (exit {out.returncode})\n"
                      f"{out.stdout}{out.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            raw.append({"workload": w, "seed": seed, "wall_s": wall, **result,
                        "report": lines[:-1]})
            for m, v in result["metrics"].items():
                values[w][m].append(v["value"])
            print(f"  round {i} {w:14s} seed {seed:3d} wall {wall:5.1f} s "
                  + " ".join(f"{m}={v['value']:.4g}"
                             for m, v in result["metrics"].items()), flush=True)
    table = {}
    print(f"\n{'workload':14s} {'metric':16s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for w in names:
        for m, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            table.setdefault(w, {})[m] = {"median": med, "q1": q1, "q3": q3,
                                          "spread": spread, "values": vs}
            flag = "" if m == "setup_s" or spread <= bounds[m] / 3 else \
                ("  > bound/3" if spread <= bounds[m] else "  > BOUND")
            print(f"{w:14s} {m:16s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.3f} {bounds[m]:6.3f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": raw, "summary": table},
                                             indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORK))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N",
                        help="steadiness mode: N runs of every workload")
    parser.add_argument("--workloads", help="steadiness mode: comma list")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="steadiness mode: write raw runs (JSON)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every started process is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.steady:
        return steady(args)
    if args.workload is None:
        parser.error("--workload is required (or use --steady N)")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
