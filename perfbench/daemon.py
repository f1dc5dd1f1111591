"""``python -m repro.service`` with the benchmark's layer wrappers.

Used by the traced ``service_mix`` run.  It wraps the same layer
boundaries as the traced in-process workloads, turns on
``REPRO_PHASE_TIMERS``, and registers one extra job kind,
``perfbench_trace``, whose result is the daemon's per-layer metrics so
far (``{"kind": "perfbench_trace", "reset": true}`` zeroes them).  Arguments are those of ``python -m repro.service``.
"""

from __future__ import annotations

import os
import sys

from tracing import Tracer, install_layers, layer_metrics


def main() -> int:
    from repro.exec import fleet_stats, reset_fleet_stats
    from repro.service import ServiceJob, register_job_kind
    from repro.service.__main__ import main as service_main

    tracer = Tracer()
    install_layers(tracer)
    os.environ["REPRO_PHASE_TIMERS"] = "1"

    class TraceDump(ServiceJob):
        kind = "perfbench_trace"

        def __init__(self, spec: dict):
            self.reset = bool(spec.get("reset"))

        def run(self, execution, emit) -> dict:
            if self.reset:
                tracer.reset()
                reset_fleet_stats()
                return {}
            fleet = fleet_stats()
            for key in ("shards", "fallback_shards"):
                tracer.counters[f"exec.pool.{key}"] = fleet.get(key, 0)
            return {"layers": layer_metrics(tracer)}

    register_job_kind(TraceDump.kind, TraceDump)
    return service_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
