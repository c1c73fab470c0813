"""SimPoint-style sampled simulation.

Full detailed runs are the dominant wall-clock cost of every
experiment; this subsystem replaces them with a few representative
*intervals*:

* :mod:`repro.sampling.bbv` — slice a functional (emulator) run into
  fixed-size intervals and summarise each as a basic-block vector;
* :mod:`repro.sampling.simpoint` — deterministic k-means (seeded via
  :mod:`repro.utils.rng`, random projection to ~16 dims, BIC model
  selection) picks representative intervals and weights;
* :mod:`repro.sampling.checkpoint` — architectural checkpoints
  (regs/pc/memory delta + functional warmup traces) captured by
  fast-forwarding the emulator, persisted beside the cached results in
  the harness store (``REPRO_CACHE_DIR``);
* :mod:`repro.sampling.sampler` — restores checkpoints into the
  detailed pipeline (initial-state injection + frontend/cache warmup),
  runs each interval for its instruction budget, and aggregates
  weighted stats into a :class:`SampledResult`.

Sampled runs integrate with the rest of the stack through
``SimJob(sampling=...)`` and ``python -m repro.harness profile /
simpoints / run --sampled``.
"""

from repro.sampling.bbv import (
    DEFAULT_INTERVAL,
    BBVProfile,
    Interval,
    profile_program,
)
from repro.sampling.checkpoint import (
    Checkpoint,
    CheckpointStore,
    capture_checkpoints,
)
from repro.sampling.sampler import (
    IntervalRun,
    SampledResult,
    SamplingSpec,
    aggregate_stats,
    run_sampled,
    warm_frontend,
)
from repro.sampling.simpoint import (
    SimPoint,
    SimPointSelection,
    pick_simpoints,
    project_bbv,
)

__all__ = [
    "DEFAULT_INTERVAL",
    "BBVProfile",
    "Interval",
    "profile_program",
    "SimPoint",
    "SimPointSelection",
    "pick_simpoints",
    "project_bbv",
    "Checkpoint",
    "CheckpointStore",
    "capture_checkpoints",
    "SamplingSpec",
    "SampledResult",
    "IntervalRun",
    "aggregate_stats",
    "run_sampled",
    "warm_frontend",
]
