"""Noise-aware timing propagation — "efficient propagation of equivalent
waveforms throughout the circuit" (the paper's stated goal).

A :class:`NoisyStage` is one victim segment: a driver cell, a coupled RC
line with aggressors, and the receiving cell.  :func:`propagate_path`
walks a chain of such stages (:func:`propagate_paths` walks K chains in
lockstep).  At each coupled stage it

1. simulates the stage circuit driven by the *equivalent ramp* carried in
   from the previous stage (the STA abstraction — only arrival/slew/shape
   summary crosses stage boundaries),
2. extracts the noisy waveform at the receiver input,
3. collapses it back to a new equivalent ramp with the chosen technique
   (SGDP by default), and
4. hands that ramp to the next stage.

A full-waveform reference mode propagates the actual simulated waveform
instead, so the per-stage and accumulated abstraction error of any
technique can be measured — the multi-stage generalisation of Table 1.

Simulation strategy
-------------------
Propagation is stage-major: :func:`propagate_paths` advances a front of
K equal-length paths one stage at a time, and
:func:`propagate_path` is the front of one.  Per stage it makes two
execution-layer calls (:func:`repro.exec.run_jobs`, honouring the shared
:class:`~repro.exec.ExecutionConfig`): one for every stage simulation
plus the missing quiet-aggressor (noiseless) references, one for every
re-time simulation.  Same-topology jobs of different paths — the
jittered alignments of a Monte-Carlo sweep — therefore advance through
one stacked Newton group.  Work is deduplicated by content: paths with
an equal ``(stage, stimulus)`` pair share one solve and one
:class:`StageTiming`, an aggressor-free stage is its own quiet reference
(one job, not two), and equal re-time waveforms are solved once.  A
configured result store memoises every stage simulation across runs.

The quiet reference depends only on the stage configuration and the
incoming stimulus — not on the aggressor alignment — so it is memoised in
a :class:`QuietReferenceCache` keyed on ``(quiet stage, stimulus record,
window end, dt)``.  Re-propagating the same path (for another technique,
another aggressor alignment, or a reference run) re-simulates each
distinct quiet reference exactly once; the cache is shared module-wide by
default, can be passed explicitly, and :func:`clear_quiet_cache` resets
it (its ``hits``/``misses`` counters double as a test spy).

Slew fallback policy
--------------------
A partial-swing receiver output has no 10–90 slew; the equivalent ramp
handed to the next stage then needs a substitute value.  That policy is
explicit: ``propagate_path(..., slew_fallback=...)`` gives the substitute
(default 100 ps, the historical behaviour), ``slew_fallback=None`` raises
instead.  Every substitution is recorded on the returned
:class:`StageTiming` (``output_slew_substituted`` /
``retime_slew_substituted``).
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass

from .._util import require
from ..circuit.netlist import Circuit
from ..circuit.sources import RampSource
from ..circuit.transient import TransientJob, TransientOptions, resolve_adaptive
from ..core.ramp import SaturatedRamp
from ..exec import (ExecutionConfig, default_execution, fleet_stats,
                    reset_fleet_stats, run_jobs)
from ..core.techniques import PropagationInputs, Technique
from ..core.techniques.sgdp import Sgdp
from ..core.waveform import Waveform
from ..interconnect.coupling import CouplingSpec, add_coupled_lines
from ..interconnect.rcline import RcLineSpec
from ..library.cells import InverterCell

__all__ = [
    "AggressorSpec",
    "NoisyStage",
    "StageTiming",
    "propagate_path",
    "propagate_paths",
    "QuietReferenceCache",
    "clear_quiet_cache",
    "quiet_cache_stats",
]


@dataclass(frozen=True)
class AggressorSpec:
    """One aggressor coupled to a stage's victim line.

    Attributes
    ----------
    coupling:
        Total coupling capacitance to the victim line (farads).
    transition_start:
        Absolute start time of the aggressor driver-input ramp.
    rising:
        Direction of the aggressor *line* transition.
    slew:
        Aggressor primary-input slew.
    driver:
        Aggressor driver cell.
    """

    coupling: float
    transition_start: float
    rising: bool
    slew: float
    driver: InverterCell


@dataclass(frozen=True)
class NoisyStage:
    """One victim stage: driver → coupled line → receiver.

    The receiver of stage *k* is the driver of stage *k+1* in
    :func:`propagate_path`; the last stage's receiver output is the path
    endpoint.
    """

    driver: InverterCell
    line: RcLineSpec
    receiver: InverterCell
    aggressors: tuple[AggressorSpec, ...] = ()
    receiver_load: float = 10e-15


@dataclass(frozen=True)
class StageTiming:
    """Result of propagating through one stage.

    Attributes
    ----------
    ramp:
        Equivalent ramp at the receiver *output* handed to the next stage
        (technique mode) — or the fitted summary of the actual waveform
        (reference mode).
    v_receiver_in / v_receiver_out:
        Simulated waveforms at the receiver input (far end of the line)
        and output.
    output_arrival:
        Latest 0.5·Vdd crossing of the receiver output.
    output_slew:
        Receiver output 10–90% transition time (NaN for partial swings).
    output_slew_substituted:
        True when ``output_slew`` was NaN and ``ramp`` was built with the
        ``slew_fallback`` substitute instead.
    retime_slew_substituted:
        True when the re-timed receiver output (technique mode) had no
        measurable slew and the fallback was substituted for the next
        stage's stimulus.
    """

    ramp: SaturatedRamp
    v_receiver_in: Waveform
    v_receiver_out: Waveform
    output_arrival: float
    output_slew: float
    output_slew_substituted: bool = False
    retime_slew_substituted: bool = False


class QuietReferenceCache:
    """Memoised quiet-aggressor reference simulations.

    Maps ``(quiet stage, stimulus waveform, window end, dt, stepping
    options)`` to the simulated ``(far-end, receiver-output)`` waveform
    pair — adaptive and fixed-grid propagation never alias.  A bounded
    FIFO keeps memory flat on long sweeps; ``hits``/``misses`` expose the
    behaviour to tests and benchmarks.
    """

    def __init__(self, maxsize: int = 64):
        require(maxsize >= 1, "cache needs at least one slot")
        self.maxsize = maxsize
        self._data: "OrderedDict[tuple, tuple[Waveform, Waveform]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple) -> tuple[Waveform, Waveform] | None:
        """The cached waveform pair, or ``None`` (counted as a miss)."""
        pair = self._data.get(key)
        if pair is None:
            self.misses += 1
            return None
        self.hits += 1
        return pair

    def hit_in_front(self) -> None:
        """Count a lookup answered within the current front.

        :func:`propagate_paths` looks a quiet key up once per path; when
        an earlier path of the same front already looked the key up (and
        found it, or scheduled its simulation), that answer is reused and
        counted as a hit — so the counters read as if every path had
        been propagated on its own.
        """
        self.hits += 1

    def store(self, key: tuple, pair: tuple[Waveform, Waveform]) -> None:
        """Insert a simulated pair, evicting the oldest entry when full."""
        if key not in self._data and len(self._data) >= self.maxsize:
            self._data.popitem(last=False)
        self._data[key] = pair

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


#: Module-wide cache shared by all :func:`propagate_path` calls.
_QUIET_CACHE = QuietReferenceCache()


def clear_quiet_cache(drop_store_entries: bool = False) -> None:
    """Reset every memoisation layer behind noise-aware propagation.

    Clears the module-wide quiet-reference cache and, when the default
    :class:`~repro.exec.ExecutionConfig` carries a result store
    (``REPRO_STORE`` or :func:`repro.exec.set_default_execution`), zeroes
    that store's counters.  The store's *on-disk entries* survive by
    default — a warmed store may represent hours of simulation, and a
    stats reset (the common reason to call this in tests and sweeps)
    must not destroy it; pass ``drop_store_entries=True`` to wipe the
    entries too.
    """
    _QUIET_CACHE.clear()
    reset_fleet_stats()
    store = default_execution().store
    if store is not None:
        if drop_store_entries:
            store.clear()
        else:
            store.reset_counters()


def quiet_cache_stats() -> dict:
    """One stats surface over both memoisation layers.

    ``hits``/``misses``/``size`` describe the in-memory quiet-reference
    cache; ``store`` holds the default execution configuration's
    result-store stats (:meth:`repro.exec.ResultStore.stats` — hits,
    misses, corrupt entries, evictions, entry count and bytes), or
    ``None`` when no store is configured; ``fleet`` is the
    execution layer's cross-worker solver totals
    (:func:`repro.exec.fleet_stats` — newton iterations, halvings,
    matrix builds … summed over every ``run_jobs`` call, sharded or
    serial).  :func:`clear_quiet_cache` resets all three.
    """
    store = default_execution().store
    return {"hits": _QUIET_CACHE.hits, "misses": _QUIET_CACHE.misses,
            "size": len(_QUIET_CACHE),
            "store": store.stats() if store is not None else None,
            "fleet": fleet_stats()}


def _build_stage_circuit(stage: NoisyStage, vdd: float) -> tuple[Circuit, dict[str, float], str, str]:
    """Stage netlist with a forced source at the driver input.

    Returns (circuit, initial voltages, far-end node, receiver output node).
    """
    circuit = Circuit("stage")
    circuit.vsource("Vdd", "vdd", "0", vdd)
    stage.driver.instantiate(circuit, "drv", "in", "near", "vdd")

    terminals = [("near", "far")]
    specs = [stage.line]
    couplings = []
    for k, agg in enumerate(stage.aggressors):
        a_in, a_near, a_far = f"a{k}_in", f"a{k}_near", f"a{k}_far"
        v_from, v_to = (vdd, 0.0) if agg.rising else (0.0, vdd)
        circuit.vsource(f"Va{k}", a_in, "0",
                        RampSource(agg.transition_start, agg.slew, v_from, v_to))
        agg.driver.instantiate(circuit, f"adrv{k}", a_in, a_near, "vdd")
        circuit.capacitor(f"acl{k}", a_far, "0", 5e-15)
        terminals.append((a_near, a_far))
        specs.append(stage.line)
        couplings.append(CouplingSpec(line_a=0, line_b=k + 1, total_cm=agg.coupling))
    add_coupled_lines(circuit, "net", terminals, specs, couplings)

    stage.receiver.instantiate(circuit, "recv", "far", "out", "vdd")
    if stage.receiver_load > 0:
        circuit.capacitor("cl", "out", "0", stage.receiver_load)
    return circuit, {}, "far", "out"


def _stage_initial(stage: NoisyStage, vdd: float, input_level: float) -> dict[str, float]:
    """Logic-consistent pre-transition node voltages for fast DC solves."""
    near = vdd - input_level if input_level in (0.0, vdd) else vdd / 2
    initial = {"in": input_level, "near": near, "far": near,
               "out": vdd - near, "vdd": vdd}
    for k, agg in enumerate(stage.aggressors):
        a_from = vdd if agg.rising else 0.0
        initial[f"a{k}_in"] = a_from
        initial[f"a{k}_near"] = vdd - a_from
        initial[f"a{k}_far"] = vdd - a_from
    return initial


def _slew_or_fallback(slew: float, fallback: float | None,
                      context: str) -> tuple[float, bool]:
    """Apply the explicit slew-substitution policy.

    Returns ``(usable slew, substituted?)``; raises :class:`ValueError`
    when the slew is NaN (partial swing) and no fallback is allowed.
    """
    if not math.isnan(slew):
        return slew, False
    if fallback is None:
        raise ValueError(
            f"{context}: output transition has no measurable 10-90 slew "
            f"(partial swing) and slew_fallback is None"
        )
    return fallback, True


def _stage_stimulus(stage: NoisyStage, stimulus: "Waveform | SaturatedRamp",
                    settle_margin: float,
                    window_end: float | None) -> tuple[Waveform, float]:
    """The stage's input waveform and its simulation-window end ``t1``.

    The waveform is held at its final value up to ``t1``.
    """
    if isinstance(stimulus, SaturatedRamp):
        t0 = stimulus.t_begin - 100e-12
        t1 = stimulus.t_finish + settle_margin
        wave_in = stimulus.to_waveform(t0, t1)
    else:
        wave_in = stimulus
        t1 = wave_in.t_end
    # The aggressor windows may extend past the victim stimulus.
    for agg in stage.aggressors:
        t1 = max(t1, agg.transition_start + agg.slew / 0.8 + settle_margin)
    if window_end is not None:
        t1 = max(t1, window_end)
    if wave_in.t_end < t1:
        wave_in = Waveform(list(wave_in.times) + [t1],
                           list(wave_in.values) + [wave_in.v_final])
    return wave_in, t1


def _stage_job(stage: NoisyStage, wave_in: Waveform, t1: float, dt: float,
               options: TransientOptions) -> TransientJob:
    """Simulation of ``stage`` driven by ``wave_in`` up to ``t1``."""
    vdd = stage.driver.vdd
    circuit, _, _, _ = _build_stage_circuit(stage, vdd)
    circuit.vsource("Vin", "in", "0", wave_in)
    return TransientJob(circuit, t_stop=t1, dt=dt, t_start=wave_in.t_start,
                        initial_voltages=_stage_initial(stage, vdd,
                                                        wave_in.v_initial),
                        options=options)


def _retime_job(receiver: InverterCell, receiver_load: float, vdd: float,
                gamma_wave: Waveform, dt: float,
                options: TransientOptions) -> TransientJob:
    """The receiver alone, driven by an equivalent input waveform."""
    circuit = Circuit("retime")
    circuit.vsource("Vdd", "vdd", "0", vdd)
    receiver.instantiate(circuit, "recv", "far", "out", "vdd")
    circuit.capacitor("cl", "out", "0", receiver_load)
    circuit.vsource("Vfar", "far", "0", gamma_wave)
    initial = {"far": gamma_wave.v_initial, "vdd": vdd,
               "out": vdd - gamma_wave.v_initial}
    return TransientJob(circuit, t_stop=gamma_wave.t_end, dt=dt,
                        t_start=gamma_wave.t_start, initial_voltages=initial,
                        options=options)


def _output_ramp(v_out: Waveform, vdd: float, slew_fallback: float | None,
                 context: str) -> tuple[SaturatedRamp, float, float, bool]:
    """``(ramp, arrival, measured slew, substituted?)`` of an output.

    The ramp summarises the transition as (arrival, slew), with the
    fallback policy applied when the measured slew is NaN.
    """
    arrival = v_out.arrival_time(vdd, which="last")
    try:
        slew = v_out.slew(vdd)
    except ValueError:
        slew = float("nan")
    ramp_slew, substituted = _slew_or_fallback(slew, slew_fallback, context)
    ramp = SaturatedRamp.from_arrival_slew(
        arrival=arrival, slew=ramp_slew, vdd=vdd,
        rising=v_out.polarity() == "rising")
    return ramp, arrival, slew, substituted


class _DedupJobs:
    """Transient jobs of one ``run_jobs`` call, one per content key."""

    def __init__(self) -> None:
        self.jobs: list[TransientJob] = []
        self._slots: dict[tuple, int] = {}

    def add(self, key: tuple, build, *args) -> int:
        """Slot of the job under ``key``, built by ``build(*args)`` on
        first sight."""
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.jobs)
            self.jobs.append(build(*args))
        return slot


def propagate_path(
    stages: list[NoisyStage],
    input_ramp: SaturatedRamp,
    technique: Technique | None = None,
    dt: float = 2e-12,
    settle_margin: float = 800e-12,
    full_waveform: bool = False,
    slew_fallback: float | None = 100e-12,
    quiet_cache: QuietReferenceCache | None = None,
    solver_backend: str = "auto",
    adaptive: bool | None = None,
    execution: ExecutionConfig | None = None,
    window_end: float | None = None,
) -> list[StageTiming]:
    """Propagate timing through a chain of (possibly coupled) stages.

    Parameters
    ----------
    stages:
        The victim path, driver side first.
    input_ramp:
        Equivalent waveform at the first driver input.
    technique:
        Equivalent-waveform technique used at stage boundaries (default
        SGDP).  Ignored in ``full_waveform`` mode.
    dt:
        Simulation step.
    settle_margin:
        Extra simulated time past the stimulus end.
    full_waveform:
        ``True`` propagates the actual simulated waveform between stages
        (reference mode) instead of the equivalent ramp.
    slew_fallback:
        Substitute slew (seconds) when a receiver output has no
        measurable 10–90 transition (partial swing).  ``None`` raises
        :class:`ValueError` instead of substituting.  Substitutions are
        recorded on the returned :class:`StageTiming` entries.
    quiet_cache:
        Cache of quiet-reference simulations; defaults to the module-wide
        instance, so repeated propagation over the same stage
        configuration and stimulus simulates the noiseless reference
        exactly once.
    solver_backend:
        Linear-solver backend request for the stage simulations
        (``TransientOptions.backend``); every backend produces
        equivalent waveforms, so cached quiet references remain valid
        across backend choices.
    adaptive:
        Stepping mode of the stage simulations: ``True``/``False`` pin
        LTE-controlled adaptive stepping on/off, ``None`` (default)
        follows the ``REPRO_ADAPTIVE`` environment knob.  Unlike the
        backend choice, the stepping options *do* key the quiet cache —
        adaptive references live on a different grid and carry an
        LTE-sized deviation, so modes never alias each other's entries.
    execution:
        Execution-layer configuration for the stage simulations; with a
        result store, re-propagating a path (another technique, another
        run) re-simulates nothing that was already solved.  ``None``
        uses the environment defaults.
    window_end:
        Optional floor on every stage's simulation-window end.  The
        window normally tracks the stimulus and aggressor alignments —
        which makes the quiet-reference cache/store key depend on them.
        A Monte-Carlo sweep that jitters alignments pins ``window_end``
        to a common value covering all samples, so the quiet reference
        (and its store entry) is shared across the whole sweep.

    Returns
    -------
    list[StageTiming]
        One entry per stage, in path order.  The path is a front of one
        in :func:`propagate_paths`.
    """
    require(len(stages) >= 1, "need at least one stage")
    return propagate_paths(
        [stages], input_ramp, technique=technique, dt=dt,
        settle_margin=settle_margin, full_waveform=full_waveform,
        slew_fallback=slew_fallback, quiet_cache=quiet_cache,
        solver_backend=solver_backend, adaptive=adaptive,
        execution=execution, window_end=window_end)[0]


def propagate_paths(
    paths: "list[list[NoisyStage]]",
    input_ramp: SaturatedRamp,
    technique: Technique | None = None,
    dt: float = 2e-12,
    settle_margin: float = 800e-12,
    full_waveform: bool = False,
    slew_fallback: float | None = 100e-12,
    quiet_cache: QuietReferenceCache | None = None,
    solver_backend: str = "auto",
    adaptive: bool | None = None,
    execution: ExecutionConfig | None = None,
    window_end: float | None = None,
) -> list[list[StageTiming]]:
    """Propagate K equal-length paths stage by stage, as one front.

    Every stage makes one :func:`~repro.exec.run_jobs` call for all
    stage simulations and missing quiet references, then (technique
    mode) one call for all re-time simulations, so same-topology jobs
    of different paths share one stacked Newton group.  Paths whose
    ``(stage, stimulus)`` pair is equal at a stage are solved once and
    share that stage's :class:`StageTiming` object; equal jobs (an
    aggressor-free stage and its own quiet reference, equal re-time
    waveforms) are submitted once.  The quiet cache still sees one
    lookup per path per stage.

    Parameters are those of :func:`propagate_path`, which is this
    function on a front of one path.

    Returns
    -------
    list[list[StageTiming]]
        One timing list per path, in input order.
    """
    paths = [list(path) for path in paths]
    require(len(paths) >= 1, "need at least one path")
    n_stages = len(paths[0])
    require(n_stages >= 1, "need at least one stage")
    require(all(len(path) == n_stages for path in paths),
            "paths of one front must have equal length")
    tech = technique or Sgdp()
    sim_opts = TransientOptions(backend=solver_backend,
                                adaptive=resolve_adaptive(adaptive))
    # The stepping mode keys quiet-cache entries (an adaptive reference
    # lives on a different grid); the solver backend deliberately does not.
    opts_key = (dt, sim_opts.adaptive, sim_opts.lte_rtol, sim_opts.lte_atol,
                sim_opts.max_step, sim_opts.min_step)
    cache = quiet_cache if quiet_cache is not None else _QUIET_CACHE
    results: list[list[StageTiming]] = [[] for _ in paths]
    stimuli: "list[Waveform | SaturatedRamp]" = [input_ramp] * len(paths)

    for stage_index in range(n_stages):
        slot_of: dict[tuple, int] = {}
        member = [slot_of.setdefault((path[stage_index], stim), len(slot_of))
                  for path, stim in zip(paths, stimuli)]
        pairs = list(slot_of)

        # A job key (stage, input waveform, window end) names one stage
        # simulation; dt and the stepping options are common to the call.
        sims = _DedupJobs()
        windows: list[tuple[Waveform, float]] = []
        stage_slots: list[int] = []
        quiet_keys: list[tuple] = []
        for stage, stimulus in pairs:
            wave_in, t1 = _stage_stimulus(stage, stimulus, settle_margin,
                                          window_end)
            windows.append((wave_in, t1))
            job = (stage, wave_in, t1)
            stage_slots.append(sims.add(job, _stage_job, *job, dt, sim_opts))
            quiet_keys.append(
                (dataclasses.replace(stage, aggressors=()), wave_in, t1)
                + opts_key)

        # Noiseless reference for the receiver: same stage, quiet
        # aggressors — memoised per (stage config, stimulus, window, dt).
        # One lookup per path; a key an earlier path of this front
        # already looked up is answered by that lookup.  An
        # aggressor-free stage is its own quiet reference (same job key).
        quiet_pairs: dict[tuple, tuple[Waveform, Waveform]] = {}
        quiet_slots: dict[tuple, int] = {}
        for slot in member:
            key = quiet_keys[slot]
            if key in quiet_pairs or key in quiet_slots:
                cache.hit_in_front()
                continue
            pair = cache.lookup(key)
            if pair is not None:
                quiet_pairs[key] = pair
            else:
                job = key[:3]
                quiet_slots[key] = sims.add(job, _stage_job, *job, dt,
                                            sim_opts)

        waves = [(sim.waveform("far"), sim.waveform("out"))
                 for sim in run_jobs(sims.jobs, execution)]
        for key, job_slot in quiet_slots.items():
            quiet_pairs[key] = waves[job_slot]
            cache.store(key, waves[job_slot])

        retimes = _DedupJobs()
        staged: "list[tuple[StageTiming, int | None]]" = []
        for slot, (stage, _) in enumerate(pairs):
            vdd = stage.driver.vdd
            wave_in, t1 = windows[slot]
            v_far, v_out = waves[stage_slots[slot]]
            q_far, q_out = quiet_pairs[quiet_keys[slot]]
            gamma_in = tech.equivalent_waveform(PropagationInputs(
                v_in_noisy=v_far, vdd=vdd,
                v_in_noiseless=q_far, v_out_noiseless=q_out))
            # Summary of the receiver *output* as (arrival, slew) — what a
            # conventional STA would carry across the stage boundary.
            out_ramp, arrival, out_slew, out_substituted = _output_ramp(
                v_out, vdd, slew_fallback,
                f"stage {stage_index} receiver output")
            retime_slot = None
            if not full_waveform:
                # Re-time the receiver from the equivalent input waveform:
                # the next stage sees only the abstraction, as a real STA
                # would.
                g0 = gamma_in.t_begin - 100e-12
                g1 = gamma_in.t_finish + settle_margin
                gamma_wave = gamma_in.to_waveform(min(g0, wave_in.t_start),
                                                  max(g1, t1))
                retime_slot = retimes.add(
                    (stage.receiver, stage.receiver_load, vdd, gamma_wave),
                    _retime_job, stage.receiver, stage.receiver_load, vdd,
                    gamma_wave, dt, sim_opts)
            staged.append((StageTiming(
                ramp=out_ramp,
                v_receiver_in=v_far,
                v_receiver_out=v_out,
                output_arrival=arrival,
                output_slew=out_slew,
                output_slew_substituted=out_substituted,
            ), retime_slot))

        retimed = ([sim.waveform("out")
                    for sim in run_jobs(retimes.jobs, execution)]
                   if retimes.jobs else [])
        timings: list[StageTiming] = []
        next_stimuli: "list[Waveform | SaturatedRamp]" = []
        for (stage, _), (timing, retime_slot) in zip(pairs, staged):
            if retime_slot is None:
                next_stimuli.append(timing.v_receiver_out)
            else:
                ramp, _, _, substituted = _output_ramp(
                    retimed[retime_slot], stage.driver.vdd, slew_fallback,
                    f"stage {stage_index} re-timed output")
                next_stimuli.append(ramp)
                timing = dataclasses.replace(
                    timing, retime_slew_substituted=substituted)
            timings.append(timing)

        for p, slot in enumerate(member):
            results[p].append(timings[slot])
            stimuli[p] = next_stimuli[slot]
    return results
