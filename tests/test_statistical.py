"""Monte-Carlo statistical STA: determinism, sharding, cache reuse."""

import numpy as np
import pytest

from repro.exec import ExecutionConfig, run_indexed
from repro.interconnect.rcline import RcLineSpec
from repro.library.cells import make_inverter
from repro.sta import (
    InputSpec,
    McVariation,
    run_noise_monte_carlo,
    run_sta_monte_carlo,
    sample_library,
    sample_wire_specs,
)
from repro.sta.netlist import GateNetlist
from repro.sta.statistical import _rng_for

from tests.test_sta import _const_cell


@pytest.fixture()
def design():
    lib = {"INV_A": _const_cell(50e-12, 10e-12),
           "INV_B": _const_cell(100e-12, 10e-12)}
    net = GateNetlist()
    net.add_input("n0")
    net.add_instance("u0", "INV_A", "n0", "n1")
    net.add_instance("u1", "INV_B", "n1", "n2")
    net.add_output("n2")
    wires = {"n1": RcLineSpec(total_r=300.0, total_c=10e-15)}
    return net, lib, wires


def _run(design, seed=7, samples=16, execution=None, sigma_cell=0.05,
         sigma_wire=0.10):
    net, lib, wires = design
    return run_sta_monte_carlo(
        net, lib, wire_specs=wires, inputs={"n0": InputSpec(slew=50e-12)},
        required_times={"n2": 400e-12},
        variation=McVariation(sigma_cell=sigma_cell, sigma_wire=sigma_wire),
        samples=samples, seed=seed, execution=execution)


class TestDeterminism:
    def test_seeded_reproducibility(self, design):
        a = _run(design, seed=7)
        b = _run(design, seed=7)
        assert a.rows == b.rows
        assert a.quantiles == b.quantiles

    def test_different_seeds_differ(self, design):
        a = _run(design, seed=7)
        b = _run(design, seed=8)
        assert a.rows != b.rows

    def test_sharded_matches_serial_bit_for_bit(self, design):
        serial = _run(design, execution=ExecutionConfig(workers=1))
        sharded = _run(design,
                       execution=ExecutionConfig(workers=2, min_pool_jobs=2))
        assert serial.rows == sharded.rows
        assert serial.quantiles == sharded.quantiles
        assert serial.diag["mode"] == "serial"
        # Pool creation can legitimately fall back inline in constrained
        # sandboxes; the rows above prove equality either way.
        assert sharded.diag["mode"] in ("sharded", "serial")

    def test_zero_sigma_collapses_to_nominal(self, design):
        res = _run(design, sigma_cell=0.0, sigma_wire=0.0, samples=4)
        arrivals = [r["arrival"]["n2"] for r in res.rows]
        assert len(set(arrivals)) == 1
        q = res.quantiles["arrival"]["n2"]
        assert q["q05"] == q["q50"] == q["q95"] == arrivals[0]

    def test_rng_streams_are_index_independent(self):
        # Stream i is fully determined by (tag, seed, i) — not by how
        # many draws any other stream made.
        a = _rng_for("ssta", 3, 5).normal()
        _rng_for("ssta", 3, 4).normal()
        assert _rng_for("ssta", 3, 5).normal() == a
        assert _rng_for("other", 3, 5).normal() != a


class TestSampling:
    def test_sample_library_scales_all_tables(self, design):
        _, lib, _ = design
        drawn = sample_library(lib, _rng_for("t", 0, 0), 0.2)
        assert set(drawn) == set(lib)
        for name in lib:
            base = lib[name].arc
            got = drawn[name].arc
            ratio = got.cell_rise.values / base.cell_rise.values
            assert np.allclose(ratio, ratio.flat[0])  # one factor per cell
            assert np.allclose(got.cell_fall.values / base.cell_fall.values,
                               ratio.flat[0])

    def test_sample_library_order_independent(self, design):
        _, lib, _ = design
        reordered = dict(reversed(list(lib.items())))
        a = sample_library(lib, _rng_for("t", 0, 0), 0.2)
        b = sample_library(reordered, _rng_for("t", 0, 0), 0.2)
        for name in lib:
            assert np.array_equal(a[name].arc.cell_rise.values,
                                  b[name].arc.cell_rise.values)

    def test_sample_wire_specs(self):
        wires = {"n1": RcLineSpec(total_r=100.0, total_c=1e-15)}
        drawn = sample_wire_specs(wires, _rng_for("t", 0, 0), 0.3)
        assert drawn["n1"].total_r > 0 and drawn["n1"].total_c > 0
        assert drawn["n1"].n_segments == wires["n1"].n_segments
        assert sample_wire_specs(wires, _rng_for("t", 0, 0), 0.0) == wires


class TestRunIndexed:
    def test_results_in_index_order(self):
        diag = {}
        out = run_indexed(_square, 7, execution=ExecutionConfig(workers=1),
                          diag=diag)
        assert out == [i * i for i in range(7)]
        assert diag["mode"] == "serial"

    def test_small_counts_stay_serial(self):
        diag = {}
        run_indexed(_square, 2,
                    execution=ExecutionConfig(workers=4, min_pool_jobs=8),
                    diag=diag)
        assert diag["mode"] == "serial"

    def test_empty(self):
        assert run_indexed(_square, 0) == []

    def test_unpicklable_fn_falls_back_inline(self):
        diag = {}
        out = run_indexed(lambda i: i + 1, 8,
                          execution=ExecutionConfig(workers=2, min_pool_jobs=2),
                          diag=diag)
        assert out == list(range(1, 9))
        # Either the pool never came up or every chunk's pickling failed;
        # both paths re-evaluate inline and count their shards.
        assert diag["fallback_shards"] >= 1


def _square(i: int) -> int:
    return i * i


@pytest.fixture()
def path():
    from repro.sta.noise_aware import AggressorSpec, NoisyStage
    agg = AggressorSpec(coupling=60e-15, transition_start=0.35e-9,
                        rising=True, slew=120e-12,
                        driver=make_inverter(4))
    stage = NoisyStage(driver=make_inverter(1),
                       line=RcLineSpec.from_length(400.0),
                       receiver=make_inverter(4), aggressors=(agg,))
    from repro.core.ramp import SaturatedRamp
    ramp = SaturatedRamp.from_arrival_slew(0.3e-9, 120e-12, 1.2,
                                           rising=False)
    return [stage], ramp


class TestNoiseMonteCarlo:
    def test_quiet_reference_solved_once(self, path):
        from repro.sta.noise_aware import clear_quiet_cache, quiet_cache_stats
        stages, ramp = path
        clear_quiet_cache()
        run_noise_monte_carlo(stages, ramp, sigma_align=20e-12, samples=4,
                              seed=3, dt=4e-12)
        stats = quiet_cache_stats()
        # The pinned window keeps one quiet-reference key for the sweep:
        # one solve, then hits — despite per-sample alignment jitter.
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_seeded_reproducibility_and_jitter(self, path):
        stages, ramp = path
        a = run_noise_monte_carlo(stages, ramp, sigma_align=20e-12,
                                  samples=3, seed=11, dt=4e-12)
        b = run_noise_monte_carlo(stages, ramp, sigma_align=20e-12,
                                  samples=3, seed=11, dt=4e-12)
        assert a.rows == b.rows
        offsets = [r["offsets"][0] for r in a.rows]
        assert len(set(offsets)) == 3  # distinct draws per sample
        assert "window_end" in a.diag

    def test_zero_sigma_is_degenerate(self, path):
        stages, ramp = path
        res = run_noise_monte_carlo(stages, ramp, sigma_align=0.0,
                                    samples=2, seed=0, dt=4e-12)
        arrivals = [r["arrival"]["out"] for r in res.rows]
        assert arrivals[0] == arrivals[1]
        assert all(o == 0.0 for r in res.rows for o in r["offsets"])


    def test_workers_rows_bit_identical(self, path, monkeypatch):
        from repro.exec import pool
        stages, ramp = path
        sharded_calls = []
        real = pool._run_sharded

        def spy(*args, **kwargs):
            sharded_calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pool, "_run_sharded", spy)
        serial = run_noise_monte_carlo(stages, ramp, sigma_align=20e-12,
                                       samples=8, seed=3, dt=4e-12,
                                       execution=ExecutionConfig(workers=1))
        assert not sharded_calls
        sharded = run_noise_monte_carlo(stages, ramp, sigma_align=20e-12,
                                        samples=8, seed=3, dt=4e-12,
                                        execution=ExecutionConfig(workers=2))
        assert sharded_calls  # the front's stage solve was sharded
        assert sharded.rows == serial.rows


class _Crash(Exception):
    """Stands in for a process killed inside ``RunJournal.record``."""


class TestNoiseMcJournalFronts:
    """A resumed noise sweep re-solves every front that is not fully
    journaled, whole, and reproduces the uninterrupted run's bytes."""

    N = 10
    FRONT = 4  # fronts [0-3], [4-7], [8-9]

    def _run(self, path, store_root=None):
        from repro.exec import ResultStore
        from repro.sta.noise_aware import clear_quiet_cache
        stages, ramp = path
        clear_quiet_cache()  # each run stands for a fresh process
        execution = (ExecutionConfig(store=ResultStore(store_root))
                     if store_root is not None else None)
        return run_noise_monte_carlo(stages, ramp, sigma_align=20e-12,
                                     samples=self.N, seed=5, dt=4e-12,
                                     execution=execution,
                                     journal=store_root is not None)

    @pytest.mark.parametrize("journaled, resumed", [
        (0, 0),   # nothing journaled
        (2, 0),   # part of the first front
        (4, 4),   # exactly the first front
        (3, 0),   # all of the first front but one sample
        (6, 4),   # the first front and part of the second
        (7, 4),   # the first front and all of the second but one
    ])
    def test_resume_byte_identical(self, path, tmp_path, monkeypatch,
                                   journaled, resumed):
        import json
        import shutil

        from repro.exec import RunJournal
        from repro.sta import statistical

        monkeypatch.setattr(statistical, "_MC_FRONT", self.FRONT)
        assert self.N > statistical._MC_FRONT
        base = self._run(path)
        if journaled:
            real = RunJournal.record
            count = {"n": 0}

            def dying_record(journal, index, row):
                real(journal, index, row)
                count["n"] += 1
                if count["n"] == journaled:
                    raise _Crash

            monkeypatch.setattr(RunJournal, "record", dying_record)
            with pytest.raises(_Crash):
                self._run(path, tmp_path / "crashed")
            monkeypatch.setattr(RunJournal, "record", real)
            # Resume over a fresh store holding only the journal, so the
            # unfinished fronts really re-solve (no transient store hits).
            shutil.copytree(tmp_path / "crashed" / "journal",
                            tmp_path / "resumed" / "journal")
        res = self._run(path, tmp_path / "resumed")
        assert res.diag["journal"] == {"resumed": resumed,
                                       "computed": self.N - resumed}
        assert res.rows == base.rows
        assert (json.dumps(res.quantiles, sort_keys=True)
                == json.dumps(base.quantiles, sort_keys=True))
        assert not list((tmp_path / "resumed" / "journal").iterdir())


class TestServiceJobKind:
    VERILOG = ("module m (a, y); input a; output y; wire w;"
               " INV_A u0 (.A(a), .Y(w)); INV_A u1 (.A(w), .Y(y));"
               " endmodule")

    def test_sta_mc_registered(self):
        from repro.service.jobs import JOB_KINDS
        assert "sta_mc" in JOB_KINDS

    def test_bad_verilog_is_spec_error(self):
        from repro.service.jobs import JobSpecError, build_job
        with pytest.raises(JobSpecError):
            build_job({"kind": "sta_mc", "verilog": "module broken",
                       "liberty": "library (x) {}"})
