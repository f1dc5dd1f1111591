"""Gate-level static timing analysis: netlists (structural Verilog),
timing graphs, per-arc NLDM arrival/required propagation, SDF
back-annotation, Monte-Carlo statistical sweeps, and the noise-aware
equivalent-waveform mode.  ``python -m repro.sta`` is the CLI front
door."""

from .analysis import ArcRecord, EdgeTiming, InputSpec, StaEngine, StaResult
from .graph import TimingGraph, TimingGraphError
from .netlist import GateInstance, GateNetlist, NetlistError, parse_structural_verilog
from .sdf import SdfDelays, SdfEngine, SdfError, SdfTriple, read_sdf
from .statistical import (
    McResult,
    McVariation,
    run_noise_monte_carlo,
    run_sta_monte_carlo,
    sample_library,
    sample_wire_specs,
)
from .verilog import read_verilog
from .noise_aware import (
    AggressorSpec,
    NoisyStage,
    QuietReferenceCache,
    StageTiming,
    clear_quiet_cache,
    propagate_path,
    propagate_paths,
    quiet_cache_stats,
)

__all__ = [
    "GateNetlist",
    "GateInstance",
    "NetlistError",
    "parse_structural_verilog",
    "read_verilog",
    "TimingGraph",
    "TimingGraphError",
    "StaEngine",
    "StaResult",
    "EdgeTiming",
    "ArcRecord",
    "InputSpec",
    "SdfTriple",
    "SdfDelays",
    "SdfError",
    "SdfEngine",
    "read_sdf",
    "McVariation",
    "McResult",
    "run_sta_monte_carlo",
    "run_noise_monte_carlo",
    "sample_library",
    "sample_wire_specs",
    "AggressorSpec",
    "NoisyStage",
    "StageTiming",
    "propagate_path",
    "propagate_paths",
    "QuietReferenceCache",
    "clear_quiet_cache",
    "quiet_cache_stats",
]
