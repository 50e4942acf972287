"""Parallel, cached experiment running.

The paper's workflow repeats one expensive primitive -- "simulate this
kernel on that platform" -- across figures, tables, calibration sweeps
and repeated invocations.  This package factors that primitive out:

* :mod:`repro.runner.tasks` defines :class:`SimTask`, a *deterministic*
  unit of work (program + platform + budget), its content-addressed key
  and its JSON-able result payload;
* :mod:`repro.runner.cache` stores payloads on disk keyed by content, so
  any process that ever computed a simulation shares it with every later
  one;
* :mod:`repro.runner.pool` fans batches of tasks across a process pool
  and merges the cache in front of it, storing each result as its task
  finishes -- the cache is also the checkpoint: an interrupted command
  re-run with the same arguments recomputes only what had not finished.

The split in :class:`repro.hw.board.Board` between :meth:`measure_raw`
(pure, cacheable) and :meth:`reading` (stateful instruments, applied by
the caller in measurement order) is what makes results bit-identical no
matter whether they were computed serially, in parallel workers, or read
back from a warm cache.

* :mod:`repro.runner.resilience` keeps all of the above alive under
  faults: retries with backoff, pool stall watchdogs, worker-crash
  isolation with graceful downgrade to serial execution, terminal
  :class:`TaskFailure` payloads, cache-corruption quarantine, and the
  deterministic ``REPRO_CHAOS`` injection harness that proves each
  guarantee in tests.
"""

from repro.runner.cache import CACHE_SCHEMA, ResultCache
from repro.runner.pool import ExperimentRunner, default_workers
from repro.runner.resilience import (
    ChaosError,
    ChaosPolicy,
    ResilientExecutor,
    RetryPolicy,
    TaskFailedError,
    TaskFailure,
    UsageError,
    ensure_payload,
    is_failure,
    log_event,
)
from repro.runner.tasks import (
    SCHEMA_VERSION,
    SimTask,
    program_digest,
    run_task,
    sim_from_dict,
    sim_to_dict,
    task_key,
)

__all__ = [
    "CACHE_SCHEMA",
    "ChaosError",
    "ChaosPolicy",
    "ExperimentRunner",
    "ResilientExecutor",
    "ResultCache",
    "RetryPolicy",
    "SCHEMA_VERSION",
    "SimTask",
    "TaskFailedError",
    "TaskFailure",
    "UsageError",
    "default_workers",
    "ensure_payload",
    "is_failure",
    "log_event",
    "program_digest",
    "run_task",
    "sim_from_dict",
    "sim_to_dict",
    "task_key",
]
