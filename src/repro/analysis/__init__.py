"""Experiment entry points: one function per paper table/figure.

Every function that simulates submits its full (workload x config)
batch to :mod:`repro.harness` — deduplicated, memoised in-process,
persisted to disk (``REPRO_CACHE_DIR``) and parallelised across worker
processes via the ``jobs=`` knob (default ``REPRO_JOBS``).
"""

from repro.analysis.experiments import (
    run_workload,
    table1_microbench,
    fig3_ri_replacements,
    fig4_reconvergence_types,
    fig10_ipc_sweep,
    fig11_stream_distance,
    fig12_rgid_vs_ri,
    table2_storage,
    table4_synthesis,
    geomean_improvement,
)
from repro.analysis.tables import format_table

__all__ = [
    "run_workload",
    "table1_microbench",
    "fig3_ri_replacements",
    "fig4_reconvergence_types",
    "fig10_ipc_sweep",
    "fig11_stream_distance",
    "fig12_rgid_vs_ri",
    "table2_storage",
    "table4_synthesis",
    "geomean_improvement",
    "format_table",
]
