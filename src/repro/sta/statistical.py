"""Monte-Carlo statistical STA (SSTA by sampling).

Process variation enters conventional STA as per-sample scaling of the
characterised data: every NLDM delay/slew table is multiplied by a
lognormal cell-speed factor (via :meth:`NldmTable.map_values` /
:meth:`TimingArc.scaled`) and every wire's R and C by lognormal
interconnect factors, then the deterministic engine runs unchanged.
Arrival and slack *distributions* come out of the sample sweep; the
drivers report the 5/50/95 quantiles.

Determinism is the load-bearing property: sample ``i`` draws from the
dedicated stream ``default_rng([salt, tag, seed, i])`` — no shared
sequential RNG — so the value of a sample does not depend on which
worker computes it or how many workers there are.  The sweep fans out
through :func:`repro.exec.run_indexed`, and sharded≡serial quantiles are
bit-for-bit identical (asserted by the corpus smoke in CI).

:func:`run_noise_monte_carlo` adds the same statistical axis to the
paper's noise-aware propagation: aggressor alignments jitter per sample,
while the shared simulation window is pinned (``window_end``) so the
noiseless quiet reference — which does not depend on the alignment —
keeps one cache/store key across the whole sweep and is solved once.
Its samples propagate stage-major, a front of samples per batched
stage solve.
"""

from __future__ import annotations

import dataclasses
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .._knobs import knob
from .._util import require
from ..exec import ExecutionConfig, journal_for, run_indexed
from ..interconnect.rcline import RcLineSpec
from ..library.characterize import CharacterizedCell
from .analysis import InputSpec, StaEngine
from .netlist import GateNetlist

__all__ = [
    "McVariation",
    "McResult",
    "sample_library",
    "sample_wire_specs",
    "run_sta_monte_carlo",
    "run_noise_monte_carlo",
]

#: Samples per front of :func:`run_noise_monte_carlo`: a fixed index
#: range propagated stage-major as one batch, and the unit a journal
#: resume re-solves — at most this many samples of work are lost to a
#: crash.
_MC_FRONT = 32

#: Stream-family salt so SSTA draws never collide with other consumers
#: of the same base seed.
_STREAM_SALT = 0x55A57A


def _rng_for(tag: str, seed: int, index: int) -> np.random.Generator:
    """The dedicated RNG stream of sample ``index``.

    The tag is hashed with :func:`zlib.crc32` (stable across processes
    and Python runs, unlike ``hash``) so differently-tagged sweeps with
    the same seed draw independent streams.
    """
    return np.random.default_rng(
        [_STREAM_SALT, zlib.crc32(tag.encode()), int(seed), int(index)])


@dataclass(frozen=True)
class McVariation:
    """Variation model: lognormal σ per knob (0 disables that axis).

    Attributes
    ----------
    sigma_cell:
        σ of ``ln(cell speed factor)``; one factor per library cell per
        sample, applied to all of the cell's delay *and* slew tables.
    sigma_wire:
        σ of ``ln(wire factor)``; independent factors for each wire's
        total resistance and capacitance per sample.
    """

    sigma_cell: float = 0.05
    sigma_wire: float = 0.10

    def __post_init__(self) -> None:
        require(self.sigma_cell >= 0 and self.sigma_wire >= 0,
                "variation sigmas must be >= 0")


def sample_library(library: dict[str, CharacterizedCell],
                   rng: np.random.Generator,
                   sigma: float) -> dict[str, CharacterizedCell]:
    """One Monte-Carlo draw of the cell library.

    Cells are visited in sorted-name order (one lognormal factor each),
    so the draw sequence — hence the sample — is independent of dict
    insertion order.
    """
    if sigma <= 0:
        return dict(library)
    out: dict[str, CharacterizedCell] = {}
    for name in sorted(library):
        entry = library[name]
        factor = float(np.exp(rng.normal(0.0, sigma)))
        arcs = tuple(a.scaled(factor) for a in entry.timing_arcs)
        out[name] = dataclasses.replace(
            entry, arc=arcs[0], arcs=arcs if len(arcs) > 1 else ())
    return out


def sample_wire_specs(wire_specs: dict[str, RcLineSpec],
                      rng: np.random.Generator,
                      sigma: float) -> dict[str, RcLineSpec]:
    """One Monte-Carlo draw of the interconnect (independent R/C factors)."""
    if sigma <= 0 or not wire_specs:
        return dict(wire_specs)
    out: dict[str, RcLineSpec] = {}
    for net in sorted(wire_specs):
        spec = wire_specs[net]
        f_r = float(np.exp(rng.normal(0.0, sigma)))
        f_c = float(np.exp(rng.normal(0.0, sigma)))
        out[net] = RcLineSpec(total_r=spec.total_r * f_r,
                              total_c=spec.total_c * f_c,
                              n_segments=spec.n_segments)
    return out


@dataclass(frozen=True)
class _McSpec:
    """Everything a worker needs to solve one sample (picklable)."""

    netlist: GateNetlist
    library: dict[str, CharacterizedCell]
    wire_specs: dict[str, RcLineSpec]
    inputs: dict[str, InputSpec]
    required_times: dict[str, float]
    variation: McVariation
    seed: int
    watch: tuple[str, ...]


def _solve_sample(index: int, spec: _McSpec) -> dict:
    """Solve sample ``index``: draw, run the deterministic engine, record.

    Module-level (not a closure) so :func:`repro.exec.run_indexed` can
    pickle it to worker processes.
    """
    rng = _rng_for("ssta", spec.seed, index)
    library = sample_library(spec.library, rng, spec.variation.sigma_cell)
    wires = sample_wire_specs(spec.wire_specs, rng, spec.variation.sigma_wire)
    engine = StaEngine(library, wire_specs=wires)
    result = engine.analyze(spec.netlist, inputs=spec.inputs,
                            required_times=spec.required_times or None)
    row: dict = {"index": index,
                 "arrival": {net: result.arrival(net) for net in spec.watch}}
    if spec.required_times:
        row["slack"] = {net: result.slack(net) for net in spec.watch
                        if net in result.required}
        row["worst_slack"] = result.worst_slack()
    return row


def _solve_journaled(j: int, spec: _McSpec, indices: tuple[int, ...],
                     journal) -> dict:
    """Solve the ``j``-th *missing* sample and journal it before returning.

    The write-ahead ordering (journal first, merge after) is what makes
    a ``kill -9`` between samples safe: a sample is either fully
    recorded or recomputed from scratch on resume — never half-counted.
    Module-level for the same pickling reason as :func:`_solve_sample`;
    the journal pickles without its file handle, so pool workers append
    through their own descriptors.
    """
    i = indices[j]
    row = _solve_sample(i, spec)
    journal.record(i, row)
    return row


def _quantiles(values, qs=(0.05, 0.5, 0.95)) -> dict[str, float]:
    arr = np.asarray(values, dtype=float)
    return {f"q{int(round(q * 100)):02d}": float(np.quantile(arr, q))
            for q in qs}


@dataclass
class McResult:
    """A Monte-Carlo sweep: per-sample rows plus quantile summaries.

    ``quantiles`` maps metric name (``"arrival"``, ``"slack"``) to
    ``{net: {"q05": ..., "q50": ..., "q95": ...}}``; scalar metrics
    (``"worst_slack"``) map straight to their quantile dict.
    """

    samples: int
    seed: int
    rows: list[dict]
    quantiles: dict
    diag: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready payload (CLI ``--json``, service results)."""
        return {"samples": self.samples, "seed": self.seed,
                "quantiles": self.quantiles, "rows": self.rows,
                "diag": dict(self.diag)}


def _summarise(rows: list[dict], watch: tuple[str, ...],
               with_slack: bool) -> dict:
    quantiles: dict = {
        "arrival": {net: _quantiles([r["arrival"][net] for r in rows])
                    for net in watch},
    }
    if with_slack:
        slack_nets = [net for net in watch
                      if all(net in r.get("slack", {}) for r in rows)]
        quantiles["slack"] = {
            net: _quantiles([r["slack"][net] for r in rows])
            for net in slack_nets}
        quantiles["worst_slack"] = _quantiles(
            [r["worst_slack"] for r in rows])
    return quantiles


def run_sta_monte_carlo(
    netlist: GateNetlist,
    library: dict[str, CharacterizedCell],
    wire_specs: dict[str, RcLineSpec] | None = None,
    inputs: dict[str, InputSpec] | None = None,
    required_times: dict[str, float] | None = None,
    variation: McVariation = McVariation(),
    samples: int | None = None,
    seed: int | None = None,
    watch: list[str] | None = None,
    execution: ExecutionConfig | None = None,
    on_sample: "Callable[[dict], None] | None" = None,
    journal: "bool | None" = None,
) -> McResult:
    """Sweep process-variation samples through the STA engine.

    Parameters
    ----------
    netlist, library, wire_specs, inputs, required_times:
        Exactly as :meth:`StaEngine.analyze` — the nominal design.
    variation:
        The σ model; each sample scales the library and wires by its own
        lognormal draws.
    samples / seed:
        Sweep size and base seed; ``None`` reads the ``REPRO_MC_SAMPLES``
        / ``REPRO_MC_SEED`` knobs.
    watch:
        Nets whose arrival/slack distributions are recorded (default:
        the primary outputs).
    execution:
        Worker configuration for :func:`repro.exec.run_indexed`; results
        are bit-identical across worker counts.
    on_sample:
        Optional streaming callback, called with each per-sample row in
        index order after the sweep completes (the service job uses this
        to emit rows).
    journal:
        Crash-safe resume through the write-ahead run journal
        (:mod:`repro.exec.journal`): completed samples are recorded as
        they finish and a rerun of the identical sweep resumes at the
        first unfinished one, with bit-identical quantiles.  ``None``
        (default) follows the ``REPRO_JOURNAL`` knob; needs a
        configured result store.

    Returns
    -------
    McResult
    """
    n = int(knob("REPRO_MC_SAMPLES") if samples is None else samples)
    base_seed = int(knob("REPRO_MC_SEED") if seed is None else seed)
    require(n >= 1, "need at least one sample")
    watch_nets = tuple(watch if watch is not None else netlist.primary_outputs)
    require(len(watch_nets) >= 1, "no nets to watch (no primary outputs?)")
    spec = _McSpec(netlist=netlist, library=dict(library),
                   wire_specs=dict(wire_specs or {}),
                   inputs=dict(inputs or {}),
                   required_times=dict(required_times or {}),
                   variation=variation, seed=base_seed, watch=watch_nets)
    # Nominal run first: fail fast (and in-process) on bad designs.
    _solve_sample_check = StaEngine(spec.library, wire_specs=spec.wire_specs)
    _solve_sample_check.analyze(netlist, inputs=spec.inputs,
                                required_times=spec.required_times or None)

    diag: dict = {}
    jr = journal_for("ssta-mc", (spec, n), n,
                     execution=execution, enabled=journal)
    if jr is not None:
        done = jr.completed()
        missing = tuple(i for i in range(n) if i not in done)
        computed = run_indexed(
            partial(_solve_journaled, spec=spec, indices=missing, journal=jr),
            len(missing), execution=execution,
            diag=diag) if missing else []
        by_index = dict(done)
        by_index.update(zip(missing, computed))
        rows = [by_index[i] for i in range(n)]
        diag["journal"] = {"resumed": len(done), "computed": len(missing)}
        jr.finish()
    else:
        rows = run_indexed(partial(_solve_sample, spec=spec), n,
                           execution=execution, diag=diag)
    if on_sample is not None:
        for row in rows:
            on_sample(row)
    quantiles = _summarise(rows, watch_nets, bool(spec.required_times))
    return McResult(samples=n, seed=base_seed, rows=rows,
                    quantiles=quantiles, diag=diag)


def _jittered(stages: list, offsets: list[float]) -> list:
    """``stages`` with every aggressor shifted by its sample offset
    (stage-major, aggressor-minor, the draw order)."""
    shifts = iter(offsets)
    return [dataclasses.replace(stage, aggressors=tuple(
        dataclasses.replace(agg, transition_start=agg.transition_start
                            + next(shifts))
        for agg in stage.aggressors)) for stage in stages]


def run_noise_monte_carlo(
    stages,
    input_ramp,
    sigma_align: float = 20e-12,
    samples: int | None = None,
    seed: int | None = None,
    technique=None,
    dt: float = 2e-12,
    settle_margin: float = 800e-12,
    execution: ExecutionConfig | None = None,
    on_sample: "Callable[[dict], None] | None" = None,
    journal: "bool | None" = None,
) -> McResult:
    """Monte-Carlo over aggressor alignments through noise-aware STA.

    Each sample shifts every aggressor's ``transition_start`` by its own
    normal draw (σ = ``sigma_align``) and re-propagates the path.  All
    samples share one pinned simulation window (``window_end`` = the
    latest window any sample needs), so the alignment-independent quiet
    reference keeps a single cache/store key for the whole sweep: with a
    configured result store, a warm rerun performs zero transient solves.

    Samples run in *fronts*: fixed index ranges of ``_MC_FRONT`` (32)
    samples whose jittered paths go through
    :func:`~repro.sta.noise_aware.propagate_paths` together, so each
    stage of a front is two batched ``run_jobs`` calls (the parallelism
    and the memoisation live in that execution layer), and samples with
    equal stage inputs are solved once.  Each sample draws from its own
    indexed stream, and a front's members depend only on its index
    range, so results are independent of the execution configuration.
    With a journal, a front's rows are recorded once the whole front
    has finished, and a resumed sweep re-solves every front that is not
    fully journaled as a whole — the resumed rows are byte-identical to
    an uninterrupted run's.

    Returns an :class:`McResult` whose rows carry the path-output
    ``arrival`` (keyed ``"out"``) per sample.
    """
    from .noise_aware import propagate_paths  # cycle-free import

    n = int(knob("REPRO_MC_SAMPLES") if samples is None else samples)
    base_seed = int(knob("REPRO_MC_SEED") if seed is None else seed)
    require(n >= 1, "need at least one sample")
    require(sigma_align >= 0, "sigma_align must be >= 0")
    stages = list(stages)
    require(len(stages) >= 1, "need at least one stage")

    # Pre-draw every sample's offsets so the common window end covers the
    # whole sweep (the draw order is fixed: stage-major, aggressor-minor).
    offsets: list[list[float]] = []
    for i in range(n):
        rng = _rng_for("noise-mc", base_seed, i)
        offsets.append([float(rng.normal(0.0, sigma_align))
                        for stage in stages for _ in stage.aggressors])
    window_end = 0.0
    for per_sample in offsets:
        k = 0
        for stage in stages:
            for agg in stage.aggressors:
                window_end = max(
                    window_end,
                    agg.transition_start + per_sample[k]
                    + agg.slew / 0.8 + settle_margin)
                k += 1

    jr = journal_for(
        "noise-mc",
        (tuple(stages), input_ramp, float(sigma_align), n, base_seed,
         getattr(technique, "name", None), float(dt), float(settle_margin)),
        n, execution=execution, enabled=journal)
    done = jr.completed() if jr is not None else {}

    rows: list[dict] = []
    computed = 0
    for start in range(0, n, _MC_FRONT):
        front = range(start, min(n, start + _MC_FRONT))
        if all(i in done for i in front):
            front_rows = [done[i] for i in front]
        else:
            # A front is solved whole, so its members (and with them the
            # batched solves' bits) never depend on where a crash hit.
            timings = propagate_paths(
                [_jittered(stages, offsets[i]) for i in front], input_ramp,
                technique=technique, dt=dt, settle_margin=settle_margin,
                execution=execution,
                window_end=window_end if sigma_align > 0 else None)
            front_rows = [{"index": i,
                           "arrival": {"out": path[-1].output_arrival},
                           "offsets": list(offsets[i])}
                          for i, path in zip(front, timings)]
            computed += len(front_rows)
            if jr is not None:
                # Recorded only once the whole front has finished.
                for row in front_rows:
                    if row["index"] not in done:
                        jr.record(row["index"], row)
        rows.extend(front_rows)
        if on_sample is not None:
            for row in front_rows:
                on_sample(row)

    diag: dict = {"window_end": window_end}
    if jr is not None:
        diag["journal"] = {"resumed": n - computed, "computed": computed}
        jr.finish()
    quantiles = {"arrival": {"out": _quantiles(
        [r["arrival"]["out"] for r in rows])}}
    return McResult(samples=n, seed=base_seed, rows=rows,
                    quantiles=quantiles, diag=diag)
