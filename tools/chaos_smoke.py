#!/usr/bin/env python
"""Chaos smoke: kill -9 a journalled sweep, resume it bit-identically,
then storm the execution stack through the seeded fault registry.

Two halves, run from the repo root::

    PYTHONPATH=src python tools/chaos_smoke.py

1. **Kill-and-resume** — a 32-sample Monte-Carlo statistical sweep over
   the checked-in c17 corpus is started in a child process with
   ``REPRO_JOURNAL=1`` and SIGKILLed (the real signal, not an
   exception) after a fixed number of journalled samples.  The rerun
   must resume at the first unfinished sample and produce quantiles
   **byte-identical** to an uninterrupted fresh run's, and the journal
   must be gone afterwards.  A second leg does the same to a one-stage
   noise Monte-Carlo sweep (``run_noise_monte_carlo``) longer than one
   front, killed while it journals the middle of its second front: the
   rerun must resume at that unfinished front, re-solve it whole over a
   fresh store that holds only the journal, and match byte for byte.
2. **Fault-plan matrix** — seeded storms through the registry's
   production seams: pool worker crash and wedge (results bit-identical
   to the serial path via inline re-solve), store corrupt-read healing
   and ENOSPC miss-only degradation, and a mid-stream service
   disconnect that drops one client without killing the service.

Every check lands in ``CHAOS_report.json`` (``--out`` to rename) for CI
to upload.  Used by CI's ``chaos`` job.  Exits non-zero on any
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import warnings

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(REPO, "tests", "data")
MC_SAMPLES = 32
MC_SEED = 1234
KILL_AFTER = 12
#: Noise leg: more samples than one front (``_MC_FRONT`` = 32 of
#: ``repro.sta.statistical``), killed inside the second front's journal
#: writes.
NOISE_SAMPLES = 40
NOISE_KILL_AFTER = 36

REPORT: list[dict] = []


def fail(message: str) -> None:
    print(f"chaos-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(name: str, ok: bool, message: str, **details) -> None:
    REPORT.append({"check": name, "ok": bool(ok), **details})
    if not ok:
        fail(f"{name}: {message}")
    print(f"chaos-smoke: {name} OK")


def load_corpus():
    from repro.library.liberty import parse_liberty
    from repro.sta import read_verilog

    with open(os.path.join(DATA, "c17.v")) as fh:
        netlist = read_verilog(fh.read())
    with open(os.path.join(DATA, "c17.lib")) as fh:
        library = parse_liberty(fh.read())
    return netlist, library


def run_mc(store_root: str, journal: "bool | None"):
    from repro.exec import ExecutionConfig, ResultStore
    from repro.sta import InputSpec, run_sta_monte_carlo

    netlist, library = load_corpus()
    execution = ExecutionConfig(workers=1,
                                store=ResultStore(store_root))
    inputs = {net: InputSpec(slew=50e-12) for net in netlist.primary_inputs}
    required = {net: 100e-12 for net in netlist.primary_outputs}
    return run_sta_monte_carlo(netlist, library, inputs=inputs,
                               required_times=required,
                               samples=MC_SAMPLES, seed=MC_SEED,
                               execution=execution, journal=journal)


def run_noise_mc(store_root: str, journal: "bool | None"):
    from repro.core.ramp import SaturatedRamp
    from repro.exec import ExecutionConfig, ResultStore
    from repro.interconnect.rcline import RcLineSpec
    from repro.library.cells import make_inverter
    from repro.sta import AggressorSpec, NoisyStage, run_noise_monte_carlo

    agg = AggressorSpec(coupling=60e-15, transition_start=0.35e-9,
                        rising=True, slew=120e-12, driver=make_inverter(4))
    stage = NoisyStage(driver=make_inverter(1),
                       line=RcLineSpec.from_length(400.0),
                       receiver=make_inverter(4), aggressors=(agg,))
    ramp = SaturatedRamp.from_arrival_slew(0.3e-9, 120e-12, 1.2,
                                           rising=False)
    execution = ExecutionConfig(workers=1, store=ResultStore(store_root))
    return run_noise_monte_carlo([stage], ramp, sigma_align=20e-12,
                                 samples=NOISE_SAMPLES, seed=MC_SEED,
                                 dt=4e-12, execution=execution,
                                 journal=journal)


SWEEPS = {"sta": run_mc, "noise": run_noise_mc}


# ----------------------------------------------------------------------
# child: journal a sweep, then die by real SIGKILL mid-run
# ----------------------------------------------------------------------
def child_main(store_root: str, kill_after: int, sweep: str) -> int:
    import repro.exec.journal as journal_mod

    orig = journal_mod.RunJournal.record
    recorded = {"n": 0}

    def dying_record(self, i, row):
        orig(self, i, row)
        recorded["n"] += 1
        if recorded["n"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    journal_mod.RunJournal.record = dying_record
    SWEEPS[sweep](store_root, journal=True)
    return 1  # unreachable when the kill fires


# ----------------------------------------------------------------------
# parent checks
# ----------------------------------------------------------------------
def _journals(store_root: str) -> list[str]:
    return [os.path.join(root, name)
            for root, _, names in os.walk(os.path.join(store_root, "journal"))
            for name in names if name.endswith(".jsonl")]


def check_kill_and_resume(tmp: str, sweep: str = "sta") -> None:
    """Kill a journalled ``sweep`` mid-run, resume it, compare bytes.

    The STA leg resumes in the killed run's store.  The noise leg
    resumes over a fresh store holding only the journal, so the
    unfinished front re-solves instead of replaying stored transients,
    and it must resume exactly the fully journalled fronts.
    """
    run = SWEEPS[sweep]
    kill_after = KILL_AFTER if sweep == "sta" else NOISE_KILL_AFTER
    prefix = "" if sweep == "sta" else f"{sweep}-"
    if sweep == "noise":
        from repro.sta.statistical import _MC_FRONT

        check("noise-spans-fronts", _MC_FRONT < kill_after < NOISE_SAMPLES,
              f"kill after {kill_after} of {NOISE_SAMPLES} samples is not "
              f"inside a later front of {_MC_FRONT}")
        whole = kill_after // _MC_FRONT * _MC_FRONT
    fresh_store = os.path.join(tmp, f"{sweep}-fresh")
    chaos_store = os.path.join(tmp, f"{sweep}-chaos")

    base = run(fresh_store, journal=False)
    blob_base = json.dumps(base.quantiles, sort_keys=True)

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--child", "--store", chaos_store, "--sweep", sweep,
         "--kill-after", str(kill_after)],
        cwd=REPO, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=600)
    check(f"{prefix}child-killed", proc.returncode == -signal.SIGKILL,
          f"child exited {proc.returncode}, wanted -SIGKILL:\n"
          f"{proc.stdout}{proc.stderr}", returncode=proc.returncode)

    journals = _journals(chaos_store)
    lines = (sum(1 for _ in open(journals[0], "rb")) if journals else 0)
    check(f"{prefix}journal-survives",
          len(journals) == 1 and lines >= 1 + kill_after,
          f"wanted one journal with >= {1 + kill_after} lines, "
          f"found {journals} with {lines}",
          journals=len(journals), lines=lines)

    resume_store = chaos_store
    if sweep == "noise":
        import shutil

        resume_store = os.path.join(tmp, f"{sweep}-resume")
        shutil.copytree(os.path.join(chaos_store, "journal"),
                        os.path.join(resume_store, "journal"))
    res = run(resume_store, journal=True)
    jdiag = res.diag.get("journal", {})
    if sweep == "sta":
        resumed_ok = jdiag.get("resumed", 0) >= kill_after
        wanted = f">= {kill_after}"
    else:
        resumed_ok = jdiag == {"resumed": whole,
                               "computed": NOISE_SAMPLES - whole}
        wanted = f"exactly {whole} (the fully journalled fronts)"
    check(f"{prefix}resume-skips-done", resumed_ok,
          f"resumed {jdiag}, wanted {wanted} samples", **jdiag)
    blob_res = json.dumps(res.quantiles, sort_keys=True)
    check(f"{prefix}resume-bit-identical", blob_res == blob_base,
          f"resumed quantiles differ:\n  fresh : {blob_base}\n"
          f"  resume: {blob_res}")
    check(f"{prefix}journal-cleaned-up", not _journals(resume_store),
          "journal file survived a finished run")


def _rc_jobs(n: int):
    from repro.circuit.netlist import Circuit
    from repro.circuit.sources import RampSource
    from repro.circuit.transient import TransientJob

    jobs = []
    for k in range(n):
        c = Circuit("rc")
        c.vsource("Vin", "in", "0",
                  RampSource(20e-12 + 10e-12 * k, 1e-10, 0.0, 1.2))
        c.resistor("R1", "in", "out", 1e3)
        c.capacitor("C1", "out", "0", 2e-14)
        jobs.append(TransientJob(c, t_stop=5e-10, dt=2e-12))
    return jobs


def _identical(results, baseline) -> bool:
    import numpy as np

    return all(np.array_equal(res.times, ref.times)
               and np.array_equal(res._x, ref._x)
               for res, ref in zip(results, baseline))


def check_fault_matrix(tmp: str) -> None:
    from repro.circuit.transient import simulate_transient_many
    from repro.exec import ExecutionConfig, ResultStore, run_jobs
    from repro.faults import injected
    from repro.service import ServiceClient, ServiceSettings, serve_in_thread

    baseline = simulate_transient_many(_rc_jobs(8))

    diag: dict = {}
    with injected("seed=1; pool.worker=crash"):
        results = run_jobs(_rc_jobs(8),
                           ExecutionConfig(workers=2, min_pool_jobs=2),
                           diag=diag)
    check("pool-crash", _identical(results, baseline)
          and diag["fallback_shards"] >= 1,
          f"crash storm changed results or never fired: {diag}", **diag)

    diag = {}
    t0 = time.monotonic()
    with injected("pool.worker=wedge:arg=30"):
        results = run_jobs(_rc_jobs(6),
                           ExecutionConfig(workers=2, min_pool_jobs=2,
                                           shard_timeout=0.3),
                           diag=diag)
    elapsed = time.monotonic() - t0
    check("pool-wedge", _identical(results, baseline) and elapsed < 60.0,
          f"wedge storm hung ({elapsed:.1f}s) or changed results: {diag}",
          elapsed_seconds=round(elapsed, 2), **diag)

    store = ResultStore(os.path.join(tmp, "matrix"))
    cfg = ExecutionConfig(store=store)
    warm = run_jobs(_rc_jobs(1), cfg)
    with injected("seed=3; store.read=corrupt:n=1"):
        healed = run_jobs(_rc_jobs(1), cfg)
    check("store-corrupt", _identical(healed, warm)
          and store.corrupt == 1 and not store.miss_only,
          f"corrupt read did not heal cleanly "
          f"(corrupt={store.corrupt}, miss_only={store.miss_only})",
          corrupt=store.corrupt)

    store = ResultStore(os.path.join(tmp, "enospc"))
    cfg = ExecutionConfig(store=store)
    solo = [_rc_jobs(1)[0].run()]
    with injected("store.write=enospc:n=1"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = run_jobs(_rc_jobs(1), cfg)
    check("store-enospc", _identical(results, solo)
          and store.miss_only and store.write_failures == 1
          and len(store) == 0,
          f"ENOSPC did not degrade to miss-only "
          f"(miss_only={store.miss_only}, "
          f"write_failures={store.write_failures})",
          write_failures=store.write_failures)

    svc, shutdown = serve_in_thread(ServiceSettings(port=0))
    try:
        dropped = False
        with injected("service.send=disconnect:after=1:n=1"):
            victim = ServiceClient(port=svc.port, timeout=10.0)
            try:
                victim.ping()
            except (ConnectionError, OSError):
                dropped = True
            finally:
                victim.close()
        with ServiceClient(port=svc.port, timeout=10.0) as healthy:
            alive = healthy.ping()["event"] == "pong"
        check("service-disconnect",
              dropped and alive and svc.dropped_clients >= 1,
              f"disconnect storm: dropped={dropped}, alive={alive}, "
              f"counter={svc.dropped_clients}",
              dropped_clients=svc.dropped_clients)
    finally:
        shutdown()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="CHAOS_report.json",
                        help="report artifact path (default %(default)s)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--kill-after", type=int, default=KILL_AFTER,
                        help=argparse.SUPPRESS)
    parser.add_argument("--sweep", choices=sorted(SWEEPS), default="sta",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args.store, args.kill_after, args.sweep)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        check_kill_and_resume(tmp)
        check_kill_and_resume(tmp, "noise")
        check_fault_matrix(tmp)

    with open(args.out, "w") as fh:
        json.dump({"tool": "chaos_smoke", "samples": MC_SAMPLES,
                   "kill_after": KILL_AFTER,
                   "noise_samples": NOISE_SAMPLES,
                   "noise_kill_after": NOISE_KILL_AFTER,
                   "checks": REPORT}, fh,
                  indent=2)
    print(f"chaos-smoke: all {len(REPORT)} checks passed -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
