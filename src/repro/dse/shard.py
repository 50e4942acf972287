"""Process-parallel streamed sweeps: shard planning, context, workers.

The flat cartesian index space ``[0, N)`` is split into contiguous
shard ranges; each shard is priced by a worker process running the
serial engine (:class:`~repro.dse.stream._FastSweep`) over its range
and ships back only its compact per-workload reduction
(:meth:`~repro.dse.pareto._Store.export`): front columns with *global*
flat sequence numbers, the per-objective winners and the offer count --
never raw points.  :func:`price_shards` returns those reductions; the
parent folds them into its own sweep's stores
(:meth:`~repro.dse.pareto._Store.absorb`) and finishes exactly as an
inline sweep does.  Pareto reduction is associative -- ``front(A | B)
== front(front(A) | front(B))``, because a point dominated within its
shard is dominated globally -- so every text/csv/json report is
byte-identical to ``--shards 1``.

Shard tasks run through the resilient pool
(:class:`~repro.runner.resilience.ResilientExecutor` via
:meth:`~repro.runner.pool.ExperimentRunner.run_raw`), so retries,
stall watchdogs, pool rebuilds, the serial downgrade and deterministic
chaos injection all apply unchanged.  The profile count vectors and
the design space a worker needs travel one way, under every start
method: pickled once per sweep into a :class:`ShardContext` blob that
every shard task carries, and unpickled once per worker and context
digest.  The 10^6-config space of the batch-evaluation bench with the
smoke suite's 12 profiles pickles to 186 kB, which dumps and loads in
under a millisecond each on 2 vCPUs -- against seconds of pricing.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.dse.axes import DesignSpace
from repro.dse.workload import WorkloadPair
from repro.hw.config import HwConfig

if TYPE_CHECKING:   # import cycle: repro.nfp's package init reaches back here
    from repro.nfp.linear import ProfileVectors
from repro.runner import ExperimentRunner
from repro.runner.resilience import TaskFailure, is_failure
from repro.runner.tasks import SCHEMA_VERSION

#: A shard must be worth a process round-trip: in auto mode each extra
#: worker has to bring at least one default chunk of configurations,
#: otherwise fork + merge overhead outweighs the pricing and serial
#: wins (tiny grids stay on the ``--shards 1`` path).
MIN_SHARD_CONFIGS = 65536


def resolve_shards(shards: int | None, size: int) -> int:
    """The effective shard count for a space of ``size`` configurations.

    An explicit request is honoured (clamped so no shard is empty); in
    auto mode (``None``) the count derives from the worker budget
    (``REPRO_WORKERS`` via :func:`~repro.runner.pool.default_workers`)
    but never exceeds one shard per :data:`MIN_SHARD_CONFIGS`
    configurations, so small grids keep today's serial path.
    """
    if shards is not None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        return max(1, min(shards, size))
    from repro.runner.pool import default_workers
    return max(1, min(default_workers(), size // MIN_SHARD_CONFIGS))


@dataclass(frozen=True)
class ShardContext:
    """Everything a worker needs to price any flat range of one sweep."""

    space: DesignSpace
    base: HwConfig
    pair_names: tuple[str, ...]
    vectors: dict[tuple[str, str], ProfileVectors]
    chunk: int


@dataclass(frozen=True)
class ShardTask:
    """One contiguous flat range ``[start, stop)`` of one sweep.

    Dispatched by :func:`repro.runner.tasks.run_task` on its ``mode``,
    so the resilient executor treats it exactly like a simulation task
    (chaos faults, retries, terminal :class:`TaskFailure` records).
    """

    digest: str                     #: content digest of ``context``
    start: int
    stop: int
    context: bytes = field(repr=False)  #: the pickled ShardContext
    mode: str = "shard"


@dataclass(frozen=True)
class _NamedPair:
    """A workload stand-in: shard pricing only ever reads ``pair.name``
    (programs were already profiled in the parent), so workers never
    deserialize program images."""

    name: str


#: Per-process sweeps (tables built once per worker per context).
_SWEEPS: dict[str, object] = {}


def shard_task_key(digest: str, start: int, stop: int) -> str:
    """Deterministic task key (retry backoff + chaos rolls hang off it)."""
    blob = json.dumps({"v": SCHEMA_VERSION, "mode": "shard",
                       "context": digest, "start": start, "stop": stop},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- worker side --------------------------------------------------------------

def run_shard_task(task: ShardTask) -> dict:
    """Pool-worker entry: price one flat range of the task's sweep.

    One :class:`~repro.dse.stream._FastSweep` per context and process
    (the context unpickles and its tables build once per worker), reset
    for every range.
    """
    sweep = _SWEEPS.get(task.digest)
    if sweep is None:
        ctx = pickle.loads(task.context)
        from repro.dse.stream import _FastSweep   # deferred: loads numpy
        sweep = _SWEEPS[task.digest] = _FastSweep(
            ctx.space, [_NamedPair(name) for name in ctx.pair_names],
            ctx.vectors, ctx.base, ctx.chunk)
    sweep.reset()
    sweep.run(task.start, task.stop)
    return {"shard": {workload: store.export()
                      for workload, store in sweep.stores.items()}}


# -- orchestration ------------------------------------------------------------

def price_shards(space: DesignSpace, pairs: Sequence[WorkloadPair],
                 vectors: dict, base: HwConfig, runner: ExperimentRunner,
                 *, chunk: int, shards: int) -> list[dict]:
    """Price ``[0, N)`` across ``shards`` pool tasks.

    Profiles were already collected by the caller.  Returns one
    ``{workload: store export}`` reduction per shard, in range order;
    a shard whose retries ran out raises ``RuntimeError``.
    """
    size = space.size
    ctx = ShardContext(space=space, base=base,
                       pair_names=tuple(pair.name for pair in pairs),
                       vectors=dict(vectors), chunk=chunk)
    blob = pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    bounds = [size * i // shards for i in range(shards + 1)]
    tasks = [ShardTask(digest=digest, start=lo, stop=hi, context=blob)
             for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    keys = [shard_task_key(digest, task.start, task.stop) for task in tasks]
    try:
        payloads = runner.run_raw(tasks, keys)
    finally:
        # the serial downgrade prices in this process
        _SWEEPS.pop(digest, None)
    for task, payload in zip(tasks, payloads):
        if is_failure(payload):
            failure = TaskFailure.from_payload(payload)
            raise RuntimeError(
                f"shard [{task.start}, {task.stop}) failed after "
                f"{failure.attempts} attempts: {failure.error}")
    return [payload["shard"] for payload in payloads]
