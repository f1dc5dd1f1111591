"""Quiet-reference memoisation, the slew-fallback policy and the
stage-major front of :func:`repro.sta.noise_aware.propagate_path` /
:func:`~repro.sta.noise_aware.propagate_paths`."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.ramp import SaturatedRamp
from repro.interconnect.rcline import RcLineSpec
from repro.library.cells import make_inverter
from repro.sta.noise_aware import (
    AggressorSpec,
    NoisyStage,
    QuietReferenceCache,
    _slew_or_fallback,
    clear_quiet_cache,
    propagate_path,
    propagate_paths,
    quiet_cache_stats,
)
from repro.sta import noise_aware

VDD = 1.2


@pytest.fixture(scope="module")
def quiet_stage():
    return NoisyStage(driver=make_inverter(1),
                      line=RcLineSpec.from_length(500.0),
                      receiver=make_inverter(4))


@pytest.fixture(scope="module")
def noisy_stage(quiet_stage):
    agg = AggressorSpec(coupling=100e-15, transition_start=0.35e-9,
                        rising=False, slew=150e-12, driver=make_inverter(1))
    return NoisyStage(driver=quiet_stage.driver, line=quiet_stage.line,
                      receiver=quiet_stage.receiver, aggressors=(agg,))


@pytest.fixture
def input_ramp():
    return SaturatedRamp.from_arrival_slew(0.3e-9, 150e-12, VDD, rising=False)


class TestQuietReferenceCache:
    def test_quiet_reference_simulated_once_per_stage_config(self, noisy_stage,
                                                             input_ramp):
        # The cache hit/miss counters are the call-count spy: a miss is
        # exactly one quiet-reference simulation.
        cache = QuietReferenceCache()
        first = propagate_path([noisy_stage], input_ramp, dt=4e-12,
                               quiet_cache=cache)
        assert cache.misses == 1 and cache.hits == 0

        second = propagate_path([noisy_stage], input_ramp, dt=4e-12,
                                quiet_cache=cache)
        assert cache.misses == 1 and cache.hits == 1
        # Cached reference ⇒ bit-identical timing results.
        assert second[0].output_arrival == first[0].output_arrival
        assert second[0].ramp.a == first[0].ramp.a
        assert second[0].ramp.b == first[0].ramp.b

    def test_distinct_stage_configs_get_distinct_entries(self, quiet_stage,
                                                         noisy_stage, input_ramp):
        cache = QuietReferenceCache()
        # Two-stage path: stage 2 sees a different stimulus, so each stage
        # is one distinct configuration -> one miss each.
        propagate_path([noisy_stage, noisy_stage], input_ramp, dt=4e-12,
                       quiet_cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        propagate_path([noisy_stage, noisy_stage], input_ramp, dt=4e-12,
                       quiet_cache=cache)
        assert cache.misses == 2 and cache.hits == 2

    def test_different_dt_is_a_different_key(self, noisy_stage, input_ramp):
        cache = QuietReferenceCache()
        propagate_path([noisy_stage], input_ramp, dt=4e-12, quiet_cache=cache)
        propagate_path([noisy_stage], input_ramp, dt=8e-12, quiet_cache=cache)
        assert cache.misses == 2 and cache.hits == 0

    def test_module_cache_default_and_reset(self, noisy_stage, input_ramp):
        clear_quiet_cache()
        propagate_path([noisy_stage], input_ramp, dt=8e-12)
        stats = quiet_cache_stats()
        assert stats["misses"] == 1 and stats["size"] == 1
        propagate_path([noisy_stage], input_ramp, dt=8e-12)
        assert quiet_cache_stats()["hits"] == 1
        clear_quiet_cache()
        stats = quiet_cache_stats()
        # The surface also reports the result store (None unless the
        # default ExecutionConfig carries one — see repro.exec).
        assert {k: stats[k] for k in ("hits", "misses", "size")} == \
            {"hits": 0, "misses": 0, "size": 0}
        assert "store" in stats

    def test_eviction_bounds_memory(self):
        cache = QuietReferenceCache(maxsize=2)
        cache.store(("a",), (None, None))
        cache.store(("b",), (None, None))
        cache.store(("c",), (None, None))
        assert len(cache) == 2
        assert cache.lookup(("a",)) is None       # evicted (FIFO)
        assert cache.lookup(("c",)) is not None


class TestSlewFallbackPolicy:
    def test_normal_slew_passes_through(self):
        slew, substituted = _slew_or_fallback(120e-12, 100e-12, "ctx")
        assert slew == 120e-12 and substituted is False

    def test_nan_substitutes_fallback(self):
        slew, substituted = _slew_or_fallback(float("nan"), 55e-12, "ctx")
        assert slew == 55e-12 and substituted is True

    def test_nan_with_none_raises(self):
        with pytest.raises(ValueError, match="no measurable 10-90 slew"):
            _slew_or_fallback(float("nan"), None, "stage 3 receiver output")

    def test_clean_path_records_no_substitution(self, quiet_stage, input_ramp):
        result = propagate_path([quiet_stage], input_ramp, dt=4e-12,
                                quiet_cache=QuietReferenceCache())
        assert result[0].output_slew_substituted is False
        assert result[0].retime_slew_substituted is False
        assert not math.isnan(result[0].output_slew)

    def test_partial_swing_is_recorded_and_policy_applies(
            self, quiet_stage, input_ramp, monkeypatch):
        # Force the partial-swing measurement outcome deterministically.
        from repro.core.waveform import Waveform

        def no_slew(self, vdd, *args, **kwargs):
            raise ValueError("forced partial swing")

        monkeypatch.setattr(Waveform, "slew", no_slew)

        result = propagate_path([quiet_stage], input_ramp, dt=4e-12,
                                slew_fallback=80e-12,
                                quiet_cache=QuietReferenceCache())
        timing = result[0]
        assert math.isnan(timing.output_slew)          # measurement kept as NaN
        assert timing.output_slew_substituted is True  # substitution recorded
        assert timing.retime_slew_substituted is True
        assert timing.ramp.slew() == pytest.approx(80e-12, rel=1e-12)

        with pytest.raises(ValueError, match="no measurable 10-90 slew"):
            propagate_path([quiet_stage], input_ramp, dt=4e-12,
                           slew_fallback=None,
                           quiet_cache=QuietReferenceCache())


@pytest.fixture
def run_jobs_spy(monkeypatch):
    """Job counts of every ``run_jobs`` call the propagation makes."""
    calls = []
    real = noise_aware.run_jobs

    def spy(jobs, execution=None, diag=None):
        calls.append(len(jobs))
        return real(jobs, execution, diag)

    monkeypatch.setattr(noise_aware, "run_jobs", spy)
    return calls


@pytest.fixture
def jittered_paths(noisy_stage, quiet_stage):
    """Three two-stage paths whose attacked first stage differs only in
    the aggressor alignment."""
    agg = noisy_stage.aggressors[0]
    return [[dataclasses.replace(noisy_stage, aggressors=(dataclasses.replace(
                agg, transition_start=agg.transition_start + shift),)),
             quiet_stage]
            for shift in (-15e-12, 0.0, 20e-12)]


class TestQuietStageIsItsOwnReference:
    def test_one_job_and_cached_pair_is_the_stage_simulation(
            self, quiet_stage, input_ramp, run_jobs_spy):
        cache = QuietReferenceCache()
        timing = propagate_path([quiet_stage], input_ramp, dt=4e-12,
                                quiet_cache=cache)[0]
        assert run_jobs_spy == [1, 1]            # stage solve, re-time
        assert cache.misses == 1 and len(cache) == 1
        (far, out), = cache._data.values()
        assert far is timing.v_receiver_in
        assert out is timing.v_receiver_out


class TestPropagatePaths:
    KW = dict(dt=4e-12, adaptive=False)

    def test_matches_separate_propagation(self, jittered_paths, input_ramp):
        front = propagate_paths(jittered_paths, input_ramp,
                                quiet_cache=QuietReferenceCache(), **self.KW)
        assert len(front) == len(jittered_paths)
        for path, batched in zip(jittered_paths, front):
            alone = propagate_path(path, input_ramp,
                                   quiet_cache=QuietReferenceCache(),
                                   **self.KW)
            for got, want in zip(batched, alone):
                assert abs(got.output_arrival - want.output_arrival) < 0.01e-12
                for attr in ("v_receiver_in", "v_receiver_out"):
                    a, b = getattr(got, attr), getattr(want, attr)
                    assert np.allclose(a.times, b.times, rtol=0, atol=1e-18)
                    assert np.max(np.abs(a.values - b.values)) < 1e-9

    def test_two_run_jobs_calls_per_stage(self, jittered_paths, input_ramp,
                                          run_jobs_spy):
        # A pinned window shares the quiet reference across alignments.
        propagate_paths(jittered_paths, input_ramp, window_end=2e-9,
                        quiet_cache=QuietReferenceCache(), **self.KW)
        assert len(run_jobs_spy) == 2 * 2
        # Stage 0: 3 attacked solves + 1 shared quiet reference.
        assert run_jobs_spy[0] == 3 + 1

    def test_full_waveform_mode_has_no_retime_calls(
            self, jittered_paths, input_ramp, run_jobs_spy):
        propagate_paths(jittered_paths, input_ramp, full_waveform=True,
                        quiet_cache=QuietReferenceCache(), **self.KW)
        assert len(run_jobs_spy) == 2

    def test_identical_paths_deduplicate(self, noisy_stage, quiet_stage,
                                         input_ramp, run_jobs_spy):
        path = [noisy_stage, quiet_stage]
        cache = QuietReferenceCache()
        front = propagate_paths([path, path, path], input_ramp,
                                quiet_cache=cache, **self.KW)
        # One stage solve (+ the attacked stage's quiet reference) and
        # one re-time per stage.
        assert run_jobs_spy == [2, 1, 1, 1]
        for k in range(2):
            assert front[0][k] is front[1][k] is front[2][k]
        # Still one lookup per path per stage: one miss per stage.
        assert cache.misses == 2 and cache.hits == 4

    def test_unequal_lengths_rejected(self, noisy_stage, input_ramp):
        with pytest.raises(ValueError, match="equal length"):
            propagate_paths([[noisy_stage], [noisy_stage, noisy_stage]],
                            input_ramp, **self.KW)
