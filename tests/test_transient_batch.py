"""Batched transient engine: equivalence with the sequential path.

The contract of :func:`repro.circuit.transient.simulate_transient_many` /
``simulate_transient_batch`` is numerical equivalence with running
:func:`simulate_transient` per variant — these tests pin it to <1e-9 V on
every node for the Table-1 testbench, a coupled noisy stage, and the
recursive step-halving path (which previously had no coverage at all).
"""

import numpy as np
import pytest

from repro.circuit.mna import RowScatter
from repro.circuit.netlist import Circuit
from repro.circuit.sources import Dc, RampSource
from repro.circuit.transient import (
    BatchStimulus,
    ConvergenceError,
    TransientJob,
    TransientOptions,
    simulate_transient,
    simulate_transient_batch,
    simulate_transient_many,
)
from repro.core.propagation import GateFixture
from repro.core.waveform import Waveform
from repro.experiments.noise_injection import SweepTiming
from repro.experiments.setup import CONFIG_I, build_testbench
from repro.library.cells import make_inverter, standard_cell

VOLTAGE_TOL = 1e-9


def _worst_dv(seq, bat):
    return max(
        float(np.max(np.abs(seq.voltage_samples(n) - bat.voltage_samples(n))))
        for n in seq.node_names
    )


def _assert_equivalent(seq_results, bat_results):
    assert len(seq_results) == len(bat_results)
    for seq, bat in zip(seq_results, bat_results):
        assert len(seq.times) == len(bat.times)
        np.testing.assert_allclose(seq.times, bat.times, rtol=0, atol=0)
        assert _worst_dv(seq, bat) < VOLTAGE_TOL


class TestTable1FixtureEquivalence:
    """Batched vs sequential on the paper's Figure 1 testbench."""

    @pytest.fixture(scope="class")
    def timing(self):
        return SweepTiming(dt=4e-12, t_stop=2.2e-9)

    def test_noise_sweep_matches_sequential(self, timing):
        offsets = [-0.2e-9, 0.0, 0.15e-9]
        benches = [
            build_testbench(CONFIG_I, victim_start=timing.victim_start,
                            aggressor_starts=[timing.victim_start + off],
                            aggressor_active=True)
            for off in offsets
        ]
        jobs = [TransientJob(b.circuit, t_stop=timing.t_stop, dt=timing.dt,
                             initial_voltages=b.initial_voltages)
                for b in benches]
        seq = [simulate_transient(b.circuit, t_stop=timing.t_stop, dt=timing.dt,
                                  initial_voltages=b.initial_voltages)
               for b in benches]
        bat = simulate_transient_many(jobs)
        assert bat[0].stats["batch_size"] == len(offsets)
        _assert_equivalent(seq, bat)

    def test_quiet_reference_joins_the_batch(self, timing):
        # The noiseless run differs only in source functions, not topology.
        quiet = build_testbench(CONFIG_I, victim_start=timing.victim_start,
                                aggressor_starts=[timing.victim_start],
                                aggressor_active=False)
        noisy = build_testbench(CONFIG_I, victim_start=timing.victim_start,
                                aggressor_starts=[timing.victim_start],
                                aggressor_active=True)
        jobs = [TransientJob(b.circuit, t_stop=timing.t_stop, dt=timing.dt,
                             initial_voltages=b.initial_voltages)
                for b in (quiet, noisy)]
        bat = simulate_transient_many(jobs)
        assert bat[0].stats["batch_size"] == 2
        seq = [simulate_transient(b.circuit, t_stop=timing.t_stop, dt=timing.dt,
                                  initial_voltages=b.initial_voltages)
               for b in (quiet, noisy)]
        _assert_equivalent(seq, bat)


class TestCoupledStageEquivalence:
    """Batched vs sequential on a coupled noisy stage (sta layer circuit)."""

    def test_stage_with_aggressor(self):
        from repro.core.ramp import SaturatedRamp
        from repro.interconnect.rcline import RcLineSpec
        from repro.sta.noise_aware import (AggressorSpec, NoisyStage,
                                           _build_stage_circuit, _stage_initial)

        vdd = 1.2
        agg = AggressorSpec(coupling=100e-15, transition_start=0.35e-9,
                            rising=False, slew=150e-12, driver=make_inverter(1))
        stage = NoisyStage(driver=make_inverter(1),
                           line=RcLineSpec.from_length(500.0),
                           receiver=make_inverter(4), aggressors=(agg,))
        circuit, _, far, out = _build_stage_circuit(stage, vdd)
        ramps = [
            SaturatedRamp.from_arrival_slew(0.3e-9, 150e-12, vdd, rising=False),
            SaturatedRamp.from_arrival_slew(0.35e-9, 220e-12, vdd, rising=False),
        ]
        waves = [r.to_waveform(0.1e-9, 1.4e-9) for r in ramps]
        initial = _stage_initial(stage, vdd, vdd)
        circuit.vsource("Vin", "in", "0", waves[0])

        stimuli = [BatchStimulus(sources={"Vin": w}, initial_voltages=initial)
                   for w in waves]
        bat = simulate_transient_batch(circuit, stimuli, t_stop=1.4e-9,
                                       dt=4e-12, t_start=0.1e-9)
        assert bat[0].stats["batch_size"] == 2

        seq = []
        for w in waves:
            c, _, _, _ = _build_stage_circuit(stage, vdd)
            c.vsource("Vin", "in", "0", w)
            seq.append(simulate_transient(c, t_stop=1.4e-9, dt=4e-12,
                                          t_start=0.1e-9,
                                          initial_voltages=initial))
        _assert_equivalent(seq, bat)
        # Sanity: the two variants actually differ (distinct stimuli).
        assert _worst_dv(bat[0], bat[1]) > 1e-3
        assert bat[0].waveform(far) is not None and bat[0].waveform(out) is not None


def _sharp_inverter():
    """An inverter hit by a near-step input: Newton needs many iterations
    at the switching time step, so a small ``max_newton`` forces halving."""
    c = Circuit("inv")
    c.vsource("Vdd", "vdd", "0", 1.2)
    c.vsource("Vin", "in", "0", RampSource(0.2e-9, 20e-12, 0.0, 1.2))
    make_inverter(4).instantiate(c, "u0", "in", "out", "vdd")
    c.capacitor("cl", "out", "0", 20e-15)
    return c


INITIAL = {"in": 0.0, "out": 1.2, "vdd": 1.2}


def _inverter_at(ramp_start: float, slew: float = 20e-12) -> Circuit:
    """:func:`_sharp_inverter` with its input edge moved to ``ramp_start``."""
    c = _sharp_inverter()
    c.vsources[1] = type(c.vsources[1])(
        "Vin", "in", "0", RampSource(ramp_start, slew, 0.0, 1.2))
    return c


class TestStepHalving:
    """The recursive step-halving fallback (previously untested)."""

    def test_halving_engages_and_converges(self):
        opts = TransientOptions(max_newton=4)
        res = simulate_transient(_sharp_inverter(), t_stop=1e-9, dt=20e-12,
                                 initial_voltages=INITIAL, options=opts)
        assert res.stats["halvings"] > 0
        # Output still switches rail to rail.
        out = res.voltage_samples("out")
        assert out[0] == pytest.approx(1.2, abs=0.05)
        assert out[-1] == pytest.approx(0.0, abs=0.05)

    def test_matrix_cache_keyed_on_depth(self):
        # One extra matrix build per halving depth reached — not one per
        # floating-point step value (the old cache keyed on drifting h).
        opts = TransientOptions(max_newton=3)
        res = simulate_transient(_sharp_inverter(), t_stop=1e-9, dt=20e-12,
                                 initial_voltages=INITIAL, options=opts)
        assert res.stats["halvings"] > 2
        # Many halvings, but only as many builds as distinct depths; depth
        # is bounded by max_halvings, and repeats must hit the cache.
        assert res.stats["matrix_builds"] <= opts.max_halvings + 1
        assert res.stats["matrix_builds"] < res.stats["halvings"] + 1

    def test_convergence_error_when_halving_exhausted(self):
        opts = TransientOptions(max_newton=2, max_halvings=1)
        with pytest.raises(ConvergenceError):
            simulate_transient(_sharp_inverter(), t_stop=1e-9, dt=20e-12,
                               initial_voltages=INITIAL, options=opts)

    def test_min_step_floor_applies_to_batched_groups(self):
        # These edges converge after one halving; a min_step of one
        # base step forbids that halving in the batched engine as in the
        # scalar one.
        def jobs(opts):
            return [TransientJob(_inverter_at(start, 80e-12), t_stop=1e-9,
                                 dt=20e-12, initial_voltages=INITIAL,
                                 options=opts)
                    for start in (0.2e-9, 0.3e-9)]
        assert simulate_transient_many(
            jobs(TransientOptions(max_newton=4)))[0].stats["halvings"] > 0
        floored = jobs(TransientOptions(max_newton=4, min_step=20e-12))
        with pytest.raises(ConvergenceError):
            floored[0].run()
        with pytest.raises(ConvergenceError, match="group variant 0"):
            simulate_transient_many(floored)

    def test_batched_halving_matches_sequential(self):
        # Two variants: a sharp edge (needs halving) and a gentle one.
        opts = TransientOptions(max_newton=4)
        base = _sharp_inverter()
        stimuli = [
            BatchStimulus(initial_voltages=INITIAL),
            BatchStimulus(sources={"Vin": RampSource(0.2e-9, 200e-12, 0.0, 1.2)},
                          initial_voltages=INITIAL),
        ]
        bat = simulate_transient_batch(base, stimuli, t_stop=1e-9, dt=20e-12,
                                       options=opts)
        assert bat[0].stats["halvings"] > 0

        seq = [simulate_transient(_sharp_inverter(), t_stop=1e-9, dt=20e-12,
                                  initial_voltages=INITIAL, options=opts)]
        gentle = _sharp_inverter()
        gentle.vsources[1] = type(gentle.vsources[1])(
            "Vin", "in", "0", RampSource(0.2e-9, 200e-12, 0.0, 1.2))
        seq.append(simulate_transient(gentle, t_stop=1e-9, dt=20e-12,
                                      initial_voltages=INITIAL, options=opts))
        _assert_equivalent(seq, bat)


class TestMixedOrigins:
    """Fixed-grid groups are cut by topology, not by time origin: jobs
    with different ``t_start`` and ``t_stop`` share one stacked loop,
    each on its own axis, and every result matches its per-job run."""

    # (t_start, t_stop): negative, zero and positive origins, windows
    # of different lengths (the positive-origin one is the longest).
    WINDOWS = [(-0.4e-9, 0.3e-9), (0.0, 0.5e-9), (0.0, 0.9e-9),
               (0.15e-9, 1.2e-9)]

    def _inverter_jobs(self):
        return [TransientJob(_inverter_at(t0 + 0.1e-9, 40e-12 * (k + 1)),
                             t_stop=t1, dt=10e-12, t_start=t0,
                             initial_voltages=INITIAL)
                for k, (t0, t1) in enumerate(self.WINDOWS)]

    def _rc_jobs(self):
        jobs = []
        for k, (t0, t1) in enumerate(self.WINDOWS):
            c = Circuit("rc")
            c.vsource("Vin", "in", "0",
                      RampSource(t0 + 0.05e-9 * (k + 1), 100e-12, 0.0, 1.0))
            c.resistor("R", "in", "out", 1e3)
            c.capacitor("C", "out", "0", 100e-15)
            jobs.append(TransientJob(c, t_stop=t1, dt=10e-12, t_start=t0))
        return jobs

    @pytest.mark.parametrize("make", ["_inverter_jobs", "_rc_jobs"])
    def test_one_group_matches_per_job_runs(self, make):
        jobs = getattr(self, make)()
        bat = simulate_transient_many(jobs)
        assert all(r.stats["batch_size"] == len(jobs) for r in bat)
        seq = [job.run() for job in jobs]
        for job, s, b in zip(jobs, seq, bat):
            # Each variant lives on exactly the scalar grid of its job.
            np.testing.assert_array_equal(b.times, s.times)
            assert b.times[0] == job.t_start
            assert _worst_dv(s, b) < VOLTAGE_TOL

    def test_halving_variant_off_zero_origin(self):
        # The sharp edge (halving at max_newton=4) sits on a positive
        # origin, the other variant on a negative one: the fallback must
        # evaluate the edge's sources at its own substep times.
        opts = TransientOptions(max_newton=4)
        jobs = [
            TransientJob(_inverter_at(-0.3e-9, 200e-12), t_stop=0.5e-9,
                         dt=20e-12, t_start=-0.5e-9, initial_voltages=INITIAL,
                         options=opts),
            TransientJob(_inverter_at(0.3e-9), t_stop=0.9e-9, dt=20e-12,
                         t_start=0.1e-9, initial_voltages=INITIAL,
                         options=opts),
        ]
        seq = [job.run() for job in jobs]
        assert seq[1].stats["halvings"] > 0
        bat = simulate_transient_many(jobs)
        assert bat[0].stats["batch_size"] == 2
        # The group's stats are shared: the same substeps halved.
        assert bat[1].stats["halvings"] == sum(r.stats["halvings"] for r in seq)
        _assert_equivalent(seq, bat)

    def test_results_are_packed_views(self):
        bat = simulate_transient_many(self._inverter_jobs())
        buf = bat[0]._x.base
        assert buf is not None
        assert all(r._x.base is buf for r in bat)
        # One row per grid point of every variant, and nothing else.
        width = bat[0]._x.shape[1]
        lengths = [len(r.times) for r in bat]
        assert buf.size == sum(lengths) * width

        def address(a):
            return a.__array_interface__["data"][0]
        rows = [(address(r._x) - address(buf)) // (8 * width) for r in bat]
        assert rows == np.cumsum([0] + lengths[:-1]).tolist()

    def test_variant_bits_independent_of_group_mates(self):
        # The dense Newton path gives a job the same bits in any group of
        # two or more — also once it is the last variant left running.
        # (The cell's output node is shared by five capacitors.)  The
        # mode is pinned: adaptive groups stay cut by time origin.
        fixture = GateFixture(cell=standard_cell(1), extra_load=10e-15,
                              dt=2e-12, adaptive=False)
        jobs = [fixture.transient_job(
                    Waveform.ramp(t_start=t0 + 50e-12, slew=60e-12 * (k + 1),
                                  vdd=fixture.cell.vdd),
                    t_window=(t0, t1))
                for k, (t0, t1) in enumerate(self.WINDOWS)]
        together = simulate_transient_many(jobs)
        for pair in ([0, 1], [2, 3], [0, 3], [1, 2]):
            apart = simulate_transient_many([jobs[k] for k in pair])
            for k, res in zip(pair, apart):
                np.testing.assert_array_equal(res._x, together[k]._x)

    def test_convergence_error_names_variant_and_its_time(self):
        opts = TransientOptions(max_newton=2, max_halvings=0)

        def quiet(t_stop):
            return TransientJob(_inverter_at(5e-9), t_stop=t_stop, dt=20e-12,
                                initial_voltages=INITIAL, options=opts)
        sharp = TransientJob(_inverter_at(-0.3e-9), t_stop=0.5e-9, dt=20e-12,
                             t_start=-0.5e-9, initial_voltages=INITIAL,
                             options=opts)
        with pytest.raises(ConvergenceError) as scalar:
            sharp.run()
        t_fail = scalar.value.args[0].split("t=")[1].split("s ")[0]
        assert float(t_fail) < 0.0
        # The first quiet job has left the stack before the failure, so
        # the failing row's stack position (1) is not its group index (2).
        with pytest.raises(ConvergenceError,
                           match=rf"group variant 2 at t={t_fail}s"):
            simulate_transient_many([quiet(40e-12), quiet(1e-9), sharp])


class TestRowScatter:
    """The stacked scatter behind device and capacitor stamping: a row's
    result must not depend on how many rows are stacked."""

    @pytest.mark.parametrize("fan_in", [1, 2, 3, 5])
    def test_rows_independent_of_stack_width(self, fan_in):
        # Signed incidence: every column fed by ``fan_in`` sources.
        cols = 6
        m = np.zeros((fan_in * cols, cols))
        for j in range(cols):
            for r in range(fan_in):
                m[j * fan_in + r, j] = 1.0 if r % 2 == 0 else -1.0
        scatter = RowScatter(m)
        v = np.random.default_rng(fan_in).standard_normal((40, m.shape[0]))
        stacked = scatter(v)
        np.testing.assert_allclose(stacked, v @ m, rtol=0, atol=1e-12)
        for width in (1, 2, 3, 17):
            np.testing.assert_array_equal(scatter(v[:width]), stacked[:width])
            np.testing.assert_array_equal(scatter(v[-width:]),
                                          stacked[-width:])


class TestManyMisc:
    """Grouping, truncation and override plumbing of the batch front ends."""

    def _rc(self):
        c = Circuit("rc")
        c.vsource("Vin", "in", "0", RampSource(0.1e-9, 100e-12, 0.0, 1.0))
        c.resistor("R", "in", "out", 1e3)
        c.capacitor("C", "out", "0", 100e-15)
        return c

    def test_mixed_topologies_keep_input_order(self):
        rc_job = TransientJob(self._rc(), t_stop=1e-9, dt=10e-12)
        inv_job = TransientJob(_sharp_inverter(), t_stop=1e-9, dt=10e-12,
                               initial_voltages=INITIAL)
        rc_job2 = TransientJob(self._rc(), t_stop=1e-9, dt=10e-12)
        out = simulate_transient_many([rc_job, inv_job, rc_job2])
        assert out[0].node_names == out[2].node_names == ["in", "out"]
        assert "vdd" in out[1].node_names
        # The two RC jobs batched together; the inverter ran alone.
        assert out[0].stats["batch_size"] == 2
        assert out[1].stats["batch_size"] == 1

    def test_per_variant_t_stop_truncates(self):
        base = self._rc()
        stimuli = [BatchStimulus(), BatchStimulus(t_stop=0.5e-9)]
        full, short = simulate_transient_batch(base, stimuli, t_stop=1e-9,
                                               dt=10e-12)
        assert len(short.times) == 51
        assert len(full.times) == 101
        ref = simulate_transient(self._rc(), t_stop=0.5e-9, dt=10e-12)
        _assert_equivalent([ref], [short])

    def test_unknown_source_override_rejected(self):
        with pytest.raises(ValueError, match="unknown source"):
            simulate_transient_batch(self._rc(),
                                     [BatchStimulus(sources={"nope": Dc(1.0)})],
                                     t_stop=1e-9, dt=10e-12)

    def test_lu_reuse_matches_plain_solve(self):
        # MOSFET-free circuits take the factored-LU path; results must
        # match the reference integration regardless.
        res = simulate_transient(self._rc(), t_stop=2e-9, dt=5e-12)
        v = res.voltage_samples("out")
        assert v[-1] == pytest.approx(1.0, abs=1e-3)
        assert res.stats["matrix_builds"] == 1
