"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (part of
set-up), runs one *block* of work per :meth:`block` call, and checks the
program's outputs against a committed reference or an independent path
of the program.  A block returns a :class:`Block`: work units done,
per-operation latencies, operations attempted and failed, and check
errors.  ``work`` and ``latencies`` are in the workload's own unit:

=================  ===================================  ==================
workload           one block                            work unit / op
=================  ===================================  ==================
``table1_sweep``   ``run_table1_many`` over I and II    noise case / sweep
``rc_bundle``      one ``simulate_transient_batch``     variant-step / call
``noise_path_mc``  one 8-sample ``run_noise_monte_carlo``  sample / MC run
``service_mix``    one request over the wire            request / request
=================  ===================================  ==================
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"


@dataclasses.dataclass
class Block:
    work: float
    latencies: list[float]
    attempted: int
    failed: int
    errors: list[str] = dataclasses.field(default_factory=list)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _close(got: float, want: float, tol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol


# ----------------------------------------------------------------------
# table1_sweep
# ----------------------------------------------------------------------
class Table1Sweep:
    """The paper's Table 1: both configurations, both polarities, 12
    cases each, dt = 2 ps, one ``run_table1_many`` front.  The alignment
    grid is the paper's fixed grid, so the seed is not used."""

    name = "table1_sweep"
    #: Tolerance on every error statistic against the committed rows.
    TOL_S = 0.01e-12

    def __init__(self, seed: int, workdir: Path):
        from repro.experiments.noise_injection import SweepTiming
        from repro.experiments.setup import CONFIG_I, CONFIG_II
        from repro.experiments.table1 import run_table1_many

        self._run = run_table1_many
        self.configs = [CONFIG_I, CONFIG_II]
        self.timing = SweepTiming(dt=2e-12)
        self.n_cases = 12
        self.reference = json.loads((REFERENCE / "table1_sweep.json").read_text())
        self.summary: dict = {}

    def block(self) -> Block:
        t0 = time.perf_counter()
        results = self._run(self.configs, n_cases=self.n_cases, timing=self.timing)
        elapsed = time.perf_counter() - t0
        attempted = failed = 0
        for res in results:
            for row in res.rows:
                attempted += row.delay.count + row.delay.failures
                failed += row.delay.failures
        sgdp = [res.row("SGDP").delay for res in results]
        count = sum(s.count for s in sgdp)
        self.summary = {
            "sgdp_err_avg_ps": sum(s.mean_abs * s.count for s in sgdp) / count * 1e12,
            "sgdp_err_max_ps": max(s.max_abs for s in sgdp) * 1e12,
        }
        n_cases = self.n_cases * len(self.configs)
        return Block(work=n_cases, latencies=[elapsed], attempted=attempted,
                     failed=failed, errors=self._check(results))

    def _check(self, results) -> list[str]:
        errors = []
        want = self.reference["rows"]
        got = {f"{res.config_name}/{row.technique}": row
               for res in results for row in res.rows}
        if sorted(got) != sorted(want):
            return [f"table1 rows {sorted(got)} != reference {sorted(want)}"]
        for key, row in got.items():
            for metric in ("delay", "arrival"):
                stats = dataclasses.asdict(getattr(row, metric))
                for field, ref in want[key][metric].items():
                    value = stats[field]
                    ok = (value == ref if field in ("count", "failures")
                          else _close(value, ref, self.TOL_S))
                    if not ok:
                        errors.append(f"table1 {key} {metric}.{field}: "
                                      f"{value!r} != reference {ref!r}")
        return errors

    def final_checks(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# rc_bundle
# ----------------------------------------------------------------------
class RcBundle:
    """Three coupled RC lines at 384 segments (1158 unknowns, banded),
    16 aggressor-alignment variants x 1000 steps in one batch call.  The
    seed draws the 16 aggressor start times."""

    name = "rc_bundle"
    N_SEGMENTS = 384
    N_VARIANTS = 16
    T_STOP = 1.0e-9
    DT = 1e-12
    #: Every node of every variant against the dense backend.
    TOL_V = 1e-9

    def __init__(self, seed: int, workdir: Path):
        from repro.circuit.netlist import Circuit
        from repro.circuit.sources import RampSource
        from repro.circuit.transient import (BatchStimulus, TransientOptions,
                                             simulate_transient_batch)
        from repro.interconnect.coupling import CouplingSpec, add_coupled_lines
        from repro.interconnect.rcline import RcLineSpec

        self._batch = simulate_transient_batch
        self._dense = TransientOptions(backend="dense")
        circuit = Circuit(f"rc_bundle_{self.N_SEGMENTS}")
        terminals, specs = [], []
        for k in range(3):
            circuit.vsource(f"V{k}", f"in{k}", "0",
                            RampSource(0.2e-9, 150e-12, 0.0, 1.2))
            circuit.capacitor(f"cl{k}", f"out{k}", "0", 5e-15)
            terminals.append((f"in{k}", f"out{k}"))
            specs.append(RcLineSpec.from_length(1000.0, n_segments=self.N_SEGMENTS))
        add_coupled_lines(circuit, "bundle", terminals, specs,
                          [CouplingSpec(0, k, 100e-15) for k in range(1, 3)])
        self.circuit = circuit
        rng = np.random.default_rng([0x7C, seed])
        starts = 0.1e-9 + rng.uniform(0.0, 0.4e-9, self.N_VARIANTS)
        self.stimuli = [
            BatchStimulus(sources={"V1": RampSource(float(t), 150e-12, 1.2, 0.0)})
            for t in starts]
        self.first: "str | None" = None
        self.summary: dict = {}

    def _solve(self, options=None):
        return self._batch(self.circuit, self.stimuli, t_stop=self.T_STOP,
                           dt=self.DT, options=options)

    @staticmethod
    def _voltages(result, nodes=None) -> np.ndarray:
        return np.stack([result.voltage_samples(n)
                         for n in (nodes or result.node_names)])

    def _fingerprint(self, results) -> str:
        """Digest of every variant's line-end voltages (cheap enough to
        take per block without keeping 150 MB of solutions alive)."""
        ends = [self._voltages(r, ["out0", "out1", "out2"]) for r in results]
        return hashlib.sha256(np.stack(ends).tobytes()).hexdigest()

    def block(self) -> Block:
        t0 = time.perf_counter()
        results = self._solve()
        elapsed = time.perf_counter() - t0
        failed = sum(not np.all(np.isfinite(self._voltages(r, ["out0"])))
                     for r in results)
        steps = sum(len(r.times) - 1 for r in results)
        errors = []
        fingerprint = self._fingerprint(results)
        if self.first is None:
            self.first = fingerprint
            self.summary["backend"] = results[0].stats.get("backend")
        elif fingerprint != self.first:
            errors.append("rc_bundle: a repeated batch call changed its answer")
        return Block(work=steps, latencies=[elapsed], attempted=len(results),
                     failed=int(failed), errors=errors)

    def final_checks(self) -> list[str]:
        """Node voltages of every variant against the dense backend."""
        results = self._solve()
        errors = []
        if self._fingerprint(results) != self.first:
            errors.append("rc_bundle: the checked call differs from the timed ones")
        worst = 0.0
        for res, dense in zip(results, self._solve(self._dense)):
            worst = max(worst, float(np.max(np.abs(
                self._voltages(res) - self._voltages(dense)))))
        self.summary["max_dev_vs_dense_v"] = worst
        if not worst < self.TOL_V:
            errors.append(f"rc_bundle: {worst:.3e} V from the dense backend "
                          f"(tolerance {self.TOL_V:g} V)")
        return errors

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# noise_path_mc
# ----------------------------------------------------------------------
def noise_path():
    """The 3-stage path of ``examples/noise_aware_sta.py`` (stage 2
    attacked) and its input ramp."""
    from repro.core.ramp import SaturatedRamp
    from repro.interconnect.rcline import RcLineSpec
    from repro.library.cells import make_inverter
    from repro.sta.noise_aware import AggressorSpec, NoisyStage

    line = RcLineSpec.from_length(500.0)
    quiet = NoisyStage(driver=make_inverter(1), line=line,
                       receiver=make_inverter(4))
    attacked = NoisyStage(
        driver=make_inverter(4), line=line, receiver=make_inverter(4),
        aggressors=(AggressorSpec(coupling=100e-15, transition_start=0.75e-9,
                                  rising=True, slew=150e-12,
                                  driver=make_inverter(1)),))
    stimulus = SaturatedRamp.from_arrival_slew(0.3e-9, 150e-12, 1.2, rising=False)
    return [quiet, attacked, quiet], stimulus


class NoisePathMc:
    """``run_noise_monte_carlo`` over the noise-aware 3-stage path:
    sigma_align = 20 ps, SGDP at stage boundaries, 8 samples, the quiet
    cache cleared before every block.  The seed is the Monte-Carlo
    seed."""

    name = "noise_path_mc"
    SAMPLES = 8
    SIGMA_ALIGN = 20e-12
    #: Tolerance on the arrival quantiles against the committed reference.
    TOL_S = 0.01e-12

    def __init__(self, seed: int, workdir: Path):
        from repro.core.techniques import technique_by_name
        from repro.sta.noise_aware import clear_quiet_cache
        from repro.sta.statistical import run_noise_monte_carlo

        self._run = run_noise_monte_carlo
        self._clear = clear_quiet_cache
        self.seed = seed
        self.path, self.stimulus = noise_path()
        self.technique = technique_by_name("SGDP")
        self.reference = json.loads((REFERENCE / "noise_path_mc.json").read_text())
        self.summary: dict = {}

    def block(self) -> Block:
        self._clear()
        t0 = time.perf_counter()
        try:
            result = self._run(self.path, self.stimulus,
                               sigma_align=self.SIGMA_ALIGN, samples=self.SAMPLES,
                               seed=self.seed, technique=self.technique)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            # A failed Monte-Carlo run fails all its samples.
            print(f"noise_path_mc: {type(exc).__name__}: {exc}", file=sys.stderr)
            return Block(work=0, latencies=[math.inf], attempted=self.SAMPLES,
                         failed=self.SAMPLES)
        elapsed = time.perf_counter() - t0
        got = result.quantiles["arrival"]["out"]
        errors = [f"noise_path_mc arrival {q}: {got[q]!r} != reference {ref!r}"
                  for q, ref in self.reference["quantiles"].items()
                  if not _close(got[q], ref, self.TOL_S)]
        self.summary = {f"arrival_{q}_ps": v * 1e12 for q, v in got.items()}
        return Block(work=result.samples, latencies=[elapsed],
                     attempted=self.SAMPLES, failed=0, errors=errors)

    def final_checks(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
TENANT = "perfbench"
MC_SAMPLES = 64
MC_REQUIRED = 100e-12


def rc_line_spec(rng: random.Random, index: int) -> dict:
    """A fresh inline RC-line ``transient`` spec (distinct values, so a
    distinct store key)."""
    n = rng.randint(8, 24)
    r_seg = rng.uniform(100.0, 1000.0) / n
    c_seg = rng.uniform(10e-15, 100e-15) / n
    elements = [{"kind": "vsource", "name": "V1", "a": "in", "b": "0",
                 "source": {"kind": "ramp", "t_start": 100e-12,
                            "slew": rng.uniform(50e-12, 200e-12),
                            "v_from": 0.0, "v_to": 1.2}}]
    prev = "in"
    for k in range(n):
        node = "out" if k == n - 1 else f"n{k + 1}"
        elements.append({"kind": "resistor", "name": f"R{k}", "a": prev,
                         "b": node, "value": r_seg})
        elements.append({"kind": "capacitor", "name": f"C{k}", "a": node,
                         "b": "0", "value": c_seg})
        prev = node
    elements.append({"kind": "capacitor", "name": "CL", "a": "out", "b": "0",
                     "value": 5e-15})
    return {"kind": "transient", "netlist": {"name": f"rc{index}",
                                             "elements": elements},
            "t_stop": 1e-9, "dt": 2e-12, "probes": ["out"]}


class RequestStream:
    """The seeded request mix: 40% ``sta_mc`` on c17 (64 samples, one of
    eight Monte-Carlo seeds), 30% new RC-line ``transient`` specs, 30%
    repeats of an earlier spec."""

    def __init__(self, seed: int, verilog: str, liberty: str):
        self.rng = random.Random(seed)
        self.mc_seeds = [self.rng.randrange(1 << 30) for _ in range(8)]
        self.verilog, self.liberty = verilog, liberty
        self.specs: list[dict] = []

    def sta_mc(self, mc_seed: int) -> dict:
        return {"kind": "sta_mc", "verilog": self.verilog,
                "liberty": self.liberty, "samples": MC_SAMPLES,
                "seed": mc_seed, "required": MC_REQUIRED}

    def next(self) -> tuple[str, object, dict]:
        u = self.rng.random()
        if u < 0.4:
            mc_seed = self.rng.choice(self.mc_seeds)
            return "sta_mc", mc_seed, self.sta_mc(mc_seed)
        if u < 0.7 or not self.specs:
            self.specs.append(rc_line_spec(self.rng, len(self.specs)))
            return "transient_new", len(self.specs) - 1, self.specs[-1]
        index = self.rng.randrange(len(self.specs))
        return "transient_repeat", index, self.specs[index]


class Daemon:
    """``python -m repro.service`` (or the traced launcher) as its own
    process, concurrency 1, with a fresh store, plus one client."""

    def __init__(self, workdir: Path, label: str, traced: bool = False):
        from repro.service import ServiceClient

        store = workdir / f"store-{label}"
        env = dict(os.environ, REPRO_STORE=str(store), PYTHONUNBUFFERED="1")
        entry = ([str(HERE / "daemon.py")] if traced
                 else ["-m", "repro.service"])
        self.proc = subprocess.Popen(
            [sys.executable, *entry, "--port", "0", "--concurrency", "1"],
            env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"listening on \S+:(\d+)", line)
        if match is None:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"service did not announce a port: {line!r}")
        # Keep draining so a chatty daemon can never block on a full pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()
        self.client = ServiceClient(port=int(match.group(1)), client=TENANT,
                                    timeout=120.0)
        self.client.ping()

    def stop(self) -> None:
        try:
            self.client.shutdown()
        except (OSError, RuntimeError):
            self.proc.kill()
        finally:
            self.client.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._drain.join(timeout=10)


class ServiceMix:
    """One client, one connection, closed loop against the daemon."""

    name = "service_mix"

    def __init__(self, seed: int, workdir: Path):
        from repro.service import protocol

        self._encode = protocol.encode
        data = ROOT / "tests" / "data"
        self.verilog = (data / "c17.v").read_text()
        self.liberty = (data / "c17.lib").read_text()
        self.seed = seed
        self.stream = RequestStream(seed, self.verilog, self.liberty)
        self.daemon = Daemon(workdir, "main")
        self.first_answer: dict[int, str] = {}
        self.mc_answers: dict[int, set[str]] = {}
        self.client_stats = {"accept": [], "exec": [], "events": 0,
                             "bytes_rx": 0}
        self.summary: dict = {}

    def request(self, daemon: Daemon, stream: RequestStream) -> Block:
        """One request of ``stream`` on ``daemon``, timed submit to done."""
        from repro.service import Rejected, ServiceError

        kind, key, spec = stream.next()
        waveforms, quantiles = [], None
        t0 = time.perf_counter()
        t_acc = None
        try:
            for event in daemon.client.iter_submit(spec):
                self.client_stats["events"] += 1
                self.client_stats["bytes_rx"] += len(self._encode(event))
                name = event.get("event")
                if name == "accepted":
                    t_acc = time.perf_counter()
                elif name == "waveform":
                    waveforms.append([event["node"], event["times"], event["voltages"]])
                elif name == "done":
                    quantiles = event.get("result", {}).get("quantiles")
        except (Rejected, ServiceError):
            # Refused or failed: counted, and over every latency limit.
            return Block(work=0, latencies=[math.inf], attempted=1, failed=1)
        t_done = time.perf_counter()
        if t_acc is not None:
            self.client_stats["accept"].append(t_acc - t0)
            self.client_stats["exec"].append(t_done - t_acc)
        errors = []
        if kind == "sta_mc":
            self.mc_answers.setdefault(key, set()).add(_digest(quantiles))
        else:
            digest = _digest(waveforms)
            first = self.first_answer.setdefault(key, digest)
            if digest != first:
                errors.append(f"service_mix: repeat of transient spec {key} "
                              "differs from its first answer")
        return Block(work=1, latencies=[t_done - t0], attempted=1, failed=0,
                     errors=errors)

    def block(self) -> Block:
        return self.request(self.daemon, self.stream)

    def final_checks(self) -> list[str]:
        """Every ``sta_mc`` answer equals in-process ``run_sta_monte_carlo``
        on the same inputs, bit for bit (JSON round-trips doubles)."""
        from repro.exec import ExecutionConfig
        from repro.library.liberty import parse_liberty
        from repro.sta.analysis import InputSpec
        from repro.sta.netlist import parse_structural_verilog
        from repro.sta.statistical import run_sta_monte_carlo

        netlist = parse_structural_verilog(self.verilog)
        library = parse_liberty(self.liberty)
        errors = []
        for mc_seed, digests in sorted(self.mc_answers.items()):
            local = run_sta_monte_carlo(
                netlist, library,
                inputs={net: InputSpec(slew=50e-12) for net in netlist.primary_inputs},
                required_times={net: MC_REQUIRED for net in netlist.primary_outputs},
                samples=MC_SAMPLES, seed=mc_seed,
                execution=ExecutionConfig(workers=1))
            want = _digest(json.loads(json.dumps(local.quantiles)))
            if digests != {want}:
                errors.append(f"service_mix: sta_mc seed {mc_seed} quantiles "
                              "differ from in-process run_sta_monte_carlo")
        cs = self.client_stats
        self.summary.update(
            sta_mc_seeds_checked=len(self.mc_answers),
            transient_specs_checked=len(self.first_answer),
            accept_ms_p50=statistics.median(cs["accept"]) * 1e3,
            exec_ms_p50=statistics.median(cs["exec"]) * 1e3)
        return errors

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


WORKLOADS = {w.name: w for w in (Table1Sweep, RcBundle, NoisePathMc, ServiceMix)}
