"""Process-pool execution of simulation tasks behind the result cache.

:class:`ExperimentRunner` is what the experiment drivers talk to: hand it
a batch of :class:`~repro.runner.tasks.SimTask` and it returns their
payloads, fetching what the cache already holds, fanning the rest across
worker processes (``REPRO_WORKERS``, default ``min(cpu_count, 8)``) and
persisting each fresh result the moment its task finishes, for the rest
of the batch, the next figure, process or invocation.  That makes the
result cache the checkpoint: a batch interrupted after ``k`` of its
``n`` tasks finished keeps those ``k``, and the same command run again
computes only the other ``n - k``.

Within a batch, duplicate keys are computed once.  With ``workers <= 1``
or single-task batches everything runs inline -- bit-identical either
way, because tasks are deterministic.

Execution is fault-tolerant (:mod:`repro.runner.resilience`): failed
tasks are retried with exponential backoff, hung pool generations are
detected by the ``REPRO_TIMEOUT_S`` watchdog, crashed workers break a
pool that is rebuilt and -- after ``REPRO_POOL_FAILURES`` incidents --
abandoned for in-process serial execution.  A task whose attempt budget
(``REPRO_RETRIES``) runs out yields a terminal
:class:`~repro.runner.resilience.TaskFailure` payload in its slot
instead of aborting the batch; failure payloads are never cached, so the
next batch tries again.
"""

from __future__ import annotations

import os
import threading

from repro.asm.program import Program
from repro.hw.board import RawMeasurement
from repro.hw.config import HwConfig
from repro.runner.cache import ResultCache
from repro.runner.resilience import (
    ChaosPolicy,
    ResilientExecutor,
    RetryPolicy,
    ensure_payload,
    env_int,
)
from repro.runner.tasks import (
    SimTask,
    raw_from_payload,
    sim_from_dict,
    task_key,
)
from repro.vm.config import CoreConfig
from repro.vm.simulator import SimulationResult


def default_workers() -> int:
    """``REPRO_WORKERS`` (validated) or a conservative CPU-count default."""
    return env_int("REPRO_WORKERS", min(os.cpu_count() or 1, 8))


class ExperimentRunner:
    """Cache-fronted, pool-backed, fault-tolerant executor for tasks.

    Parameters
    ----------
    cache_dir:
        Directory of the on-disk result cache; ``None`` disables
        persistence (tasks still dedupe within a batch).
    workers:
        Maximum worker processes for one batch; ``None`` picks
        :func:`default_workers`.  ``1`` computes inline.
    retry:
        Retry/timeout policy; ``None`` reads the ``REPRO_RETRIES`` /
        ``REPRO_BACKOFF_S`` / ``REPRO_TIMEOUT_S`` / ``REPRO_POOL_FAILURES``
        knobs.
    chaos:
        Deterministic fault injection; ``None`` arms from ``REPRO_CHAOS``
        (usually unset, i.e. no chaos).
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 workers: int | None = None,
                 retry: RetryPolicy | None = None,
                 chaos: ChaosPolicy | None = None):
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self.chaos = chaos if chaos is not None else ChaosPolicy.from_env()
        self.cache = (ResultCache(cache_dir, chaos=self.chaos)
                      if cache_dir else None)
        self.workers = default_workers() if workers is None else workers
        #: process-local tier in front of (or instead of) the disk cache,
        #: so prefetch batches pay off even with persistence disabled
        self._memory: dict[str, dict] = {}
        #: holds the degradation state (pool failures survive batches)
        self._executor = ResilientExecutor(self.workers, policy=self.retry,
                                           chaos=self.chaos)
        #: batches execute one at a time: the memory tier and the
        #: executor's degradation state are not safe under concurrent
        #: mutation, so threaded callers (the evaluation server fills
        #: cold profiles from worker threads) serialize here.  Reentrant
        #: because single-task conveniences call ``run_tasks`` themselves.
        self._batch_lock = threading.RLock()

    # -- batch interface -----------------------------------------------------

    def run_tasks(self, tasks: list[SimTask]) -> list[dict]:
        """Payloads for ``tasks``, cache-first, misses fanned out.

        Each miss enters the disk cache and the memory tier as soon as
        its task finishes, so an interrupt (``KeyboardInterrupt``
        propagates) loses only the tasks still running.

        A slot holds a :class:`TaskFailure` record (see
        :func:`repro.runner.resilience.is_failure`) when that task's
        attempt budget ran out; failures are returned, not raised, and
        never stored in any cache tier.

        Thread-safe: concurrent batches from different threads are
        serialized (results are deterministic, so ordering is free);
        parallelism belongs *inside* a batch, across the worker pool.
        """
        keys = [task_key(task) for task in tasks]
        with self._batch_lock:
            return self._run_tasks_locked(tasks, keys)

    def _run_tasks_locked(self, tasks: list[SimTask],
                          keys: list[str]) -> list[dict]:
        payloads: dict[str, dict] = {}
        missing: dict[str, SimTask] = {}
        for key, task in zip(keys, tasks):
            if key in payloads or key in missing:
                continue
            cached = self._memory.get(key)
            if cached is None and self.cache is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    self._memory[key] = cached
            if cached is not None:
                payloads[key] = cached
            else:
                missing[key] = task
        if missing:
            fresh = self._executor.run(list(missing.values()), list(missing),
                                       on_result=self._store)
            payloads.update(zip(missing, fresh))
        return [payloads[key] for key in keys]

    def _store(self, key: str, payload: dict) -> None:
        """Keep one finished simulation in every tier, as it arrives."""
        self._memory[key] = payload
        if self.cache is not None:
            self.cache.put(key, payload)

    def run_raw(self, tasks: list, keys: list[str]) -> list[dict]:
        """Resilient-pool execution for non-simulation tasks, cache-bypassed.

        The sharded streamed sweep ships its
        :class:`~repro.dse.shard.ShardTask` batches through here: the
        tasks inherit the executor's retry budget, stall watchdog,
        pool-rebuild/serial-downgrade ladder and chaos injection
        unchanged, but their payloads are derived data (shard fronts
        over already-cached profiles, keyed by shard geometry rather
        than content), so they never enter the content-addressed
        result cache or the memory tier.  Slots may hold terminal
        :class:`~repro.runner.resilience.TaskFailure` payloads, exactly
        like :meth:`run_tasks`.
        """
        with self._batch_lock:
            return self._executor.run(list(tasks), list(keys))

    # -- single-task conveniences -------------------------------------------

    def metered_raw(self, program: Program, hw: HwConfig,
                    budget: int) -> RawMeasurement:
        """The deterministic half of ``Board(hw).measure(program)``."""
        task = SimTask(mode="metered", program=program, budget=budget,
                       hw=hw)
        return raw_from_payload(ensure_payload(self.run_tasks([task])[0]))

    def fast_sim(self, program: Program, core: CoreConfig,
                 budget: int) -> SimulationResult:
        """A functional ISS run (the estimation path's counts)."""
        task = SimTask(mode="fast", program=program, budget=budget,
                       core=core)
        return sim_from_dict(
            ensure_payload(self.run_tasks([task])[0])["sim"])
