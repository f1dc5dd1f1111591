"""Monte-Carlo statistical STA driver (the SSTA axis from PAPERS.md).

Two sweeps over a characterised inverter-chain design:

* :func:`run_chain_monte_carlo` — process-variation SSTA: per-sample
  lognormal scaling of the NLDM tables and wire RC, fanned out through
  :func:`repro.exec.run_indexed`; arrival/slack quantiles at the chain
  output.  Deterministic across worker counts by construction.
* :func:`run_noise_alignment_monte_carlo` — the noise-aware variant:
  aggressor alignments jitter per sample and the coupled paths re-time
  stage-major, a front of samples at a time, through
  :func:`~repro.sta.noise_aware.propagate_paths` with a pinned
  simulation window, so the quiet reference (and any configured result
  store) is shared across the whole sweep.

``python -m repro.experiments.montecarlo`` prints both summaries;
``--json FILE`` writes the benchmark payload (CI uploads it as
``BENCH_ssta.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .._knobs import knob
from ..core.ramp import SaturatedRamp
from ..exec import ExecutionConfig, default_execution
from ..interconnect.rcline import RcLineSpec
from ..library.cells import make_inverter
from ..library.characterize import characterize_cell
from ..sta.analysis import InputSpec
from ..sta.netlist import GateNetlist
from ..sta.noise_aware import AggressorSpec, NoisyStage, clear_quiet_cache, quiet_cache_stats
from ..sta.statistical import McResult, McVariation, run_noise_monte_carlo, run_sta_monte_carlo

__all__ = ["build_chain_design", "run_chain_monte_carlo",
           "run_noise_alignment_monte_carlo", "main"]


def build_chain_design(drives: "list[int] | None" = None,
                       dt: float = 2e-12):
    """A characterised inverter chain with per-net wire specs.

    Returns ``(netlist, library, wire_specs)`` — the nominal design the
    Monte-Carlo sweeps perturb.  Characterisation uses a reduced grid
    (2 slews × 2 loads) to keep the driver fast; accuracy of the grid is
    the library tests' concern, not this driver's.
    """
    drives = drives or [1, 4, 16]
    slews = np.array([40e-12, 200e-12])
    library = {}
    for drive in sorted(set(drives)):
        cell = make_inverter(drive)
        loads = np.array([2e-15, 40e-15]) * drive
        library[cell.name] = characterize_cell(cell, input_slews=slews,
                                               loads=loads, dt=dt)
    netlist = GateNetlist.inverter_chain(drives)
    wire_specs = {f"n{k + 1}": RcLineSpec(total_r=200.0, total_c=8e-15)
                  for k in range(len(drives) - 1)}
    return netlist, library, wire_specs


def run_chain_monte_carlo(
    samples: "int | None" = None,
    seed: "int | None" = None,
    variation: McVariation = McVariation(),
    execution: "ExecutionConfig | None" = None,
) -> McResult:
    """Process-variation SSTA over the characterised chain."""
    netlist, library, wire_specs = build_chain_design()
    out = netlist.primary_outputs[0]
    # Required time: nominal arrival plus ~25% margin, so slack
    # distributions straddle interesting territory at sigma ~ 5%.
    from ..sta.analysis import StaEngine
    nominal = StaEngine(library, wire_specs=wire_specs).analyze(
        netlist, inputs={"n0": InputSpec(slew=80e-12)})
    required = {out: nominal.arrival(out) * 1.25}
    return run_sta_monte_carlo(
        netlist, library, wire_specs=wire_specs,
        inputs={"n0": InputSpec(slew=80e-12)}, required_times=required,
        variation=variation, samples=samples, seed=seed,
        execution=execution)


def run_noise_alignment_monte_carlo(
    samples: "int | None" = None,
    seed: "int | None" = None,
    sigma_align: float = 25e-12,
    execution: "ExecutionConfig | None" = None,
) -> McResult:
    """Alignment-jitter Monte-Carlo through the noise-aware path."""
    driver = make_inverter(4)
    receiver = make_inverter(4)
    line = RcLineSpec(total_r=400.0, total_c=20e-15)
    agg = AggressorSpec(coupling=15e-15, transition_start=0.35e-9,
                        rising=True, slew=100e-12, driver=make_inverter(8))
    stage = NoisyStage(driver=driver, line=line, receiver=receiver,
                       aggressors=(agg,))
    ramp = SaturatedRamp.from_arrival_slew(arrival=0.3e-9, slew=100e-12,
                                           vdd=driver.vdd, rising=True)
    return run_noise_monte_carlo([stage], ramp, sigma_align=sigma_align,
                                 samples=samples, seed=seed,
                                 execution=execution)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Monte-Carlo statistical (noise-aware) STA driver")
    parser.add_argument("--samples", type=int, default=None,
                        help="sample count (default: REPRO_MC_SAMPLES)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (default: REPRO_MC_SEED)")
    parser.add_argument("--noise-samples", type=int, default=None,
                        help="noise-MC sample count (default: samples/4, "
                             "min 4 — transient solves are dearer)")
    parser.add_argument("--skip-noise", action="store_true",
                        help="skip the noise-aware alignment sweep")
    parser.add_argument("--json", metavar="FILE",
                        help="write the benchmark payload as JSON")
    args = parser.parse_args(argv)

    samples = args.samples if args.samples is not None \
        else knob("REPRO_MC_SAMPLES")
    payload: dict = {"workers": default_execution().workers}

    t0 = time.perf_counter()
    ssta = run_chain_monte_carlo(samples=samples, seed=args.seed)
    payload["ssta"] = {"seconds": time.perf_counter() - t0,
                       **ssta.to_dict()}
    out = sorted(ssta.quantiles["arrival"])[0]
    q = ssta.quantiles["arrival"][out]
    print(f"SSTA ({ssta.samples} samples, seed {ssta.seed}, "
          f"mode {ssta.diag.get('mode')}):")
    print(f"  arrival[{out}] q05/q50/q95 = "
          f"{q['q05'] * 1e12:.2f} / {q['q50'] * 1e12:.2f} / "
          f"{q['q95'] * 1e12:.2f} ps")
    wq = ssta.quantiles["worst_slack"]
    print(f"  worst_slack  q05/q50/q95 = "
          f"{wq['q05'] * 1e12:.2f} / {wq['q50'] * 1e12:.2f} / "
          f"{wq['q95'] * 1e12:.2f} ps")

    if not args.skip_noise:
        n_noise = args.noise_samples if args.noise_samples is not None \
            else max(4, samples // 4)
        clear_quiet_cache()
        t0 = time.perf_counter()
        noise = run_noise_alignment_monte_carlo(samples=n_noise,
                                                seed=args.seed)
        stats = quiet_cache_stats()
        payload["noise_mc"] = {"seconds": time.perf_counter() - t0,
                               "quiet_cache": {"hits": stats["hits"],
                                               "misses": stats["misses"]},
                               **noise.to_dict()}
        nq = noise.quantiles["arrival"]["out"]
        print(f"noise-MC ({noise.samples} samples, sigma_align jitter):")
        print(f"  arrival[out] q05/q50/q95 = "
              f"{nq['q05'] * 1e12:.2f} / {nq['q50'] * 1e12:.2f} / "
              f"{nq['q95'] * 1e12:.2f} ps")
        print(f"  quiet reference: {stats['misses']} solve(s), "
              f"{stats['hits']} cache hit(s) across the sweep")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
