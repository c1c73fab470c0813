"""Parallel, disk-persistent simulation harness.

The experiment stack (``repro.analysis``, ``benchmarks/``, the
``examples/`` scripts and ``python -m repro.harness``) expresses every
simulated point as a declarative :class:`SimJob` and resolves whole
batches at once through :func:`submit` / :func:`run_batch`:

* identical jobs are deduplicated within a batch and memoised for the
  process lifetime (shared baseline runs simulate once per process);
* results persist to a JSON on-disk cache keyed by job hash + code
  fingerprint (``REPRO_CACHE_DIR``), so repeat invocations of the
  benchmark suite re-simulate nothing;
* cache-miss jobs fan out over the supervised
  :class:`~repro.harness.runner.ProcessPool` (``REPRO_JOBS``
  workers), which captures per-job errors and the exit code of a
  killed worker, and enforces cycle and wall-clock guards.
"""

from repro.harness.cache import ResultCache, code_fingerprint, \
    default_cache_dir
from repro.harness.jobs import JobTimeout, SimJob, build_config, \
    build_scheme, execute
from repro.harness.runner import BatchReport, JobFailure, clear_memo, \
    default_jobs, last_report, run_batch, submit

__all__ = [
    "SimJob",
    "execute",
    "build_config",
    "build_scheme",
    "run_batch",
    "submit",
    "last_report",
    "clear_memo",
    "default_jobs",
    "BatchReport",
    "JobFailure",
    "JobTimeout",
    "ResultCache",
    "code_fingerprint",
    "default_cache_dir",
]
