"""Process-parallel streamed sweeps: shard planning, transport, workers.

The flat cartesian index space ``[0, N)`` is split into contiguous
shard ranges; each shard is priced by a worker process running the
serial engine (:class:`~repro.dse.stream._FastSweep`) over its range
and ships back only its compact per-workload reduction
(:meth:`~repro.dse.stream._Store.export`): front columns with *global*
flat sequence numbers, the per-objective winners and the offer count --
never raw points.  :func:`price_shards` returns those reductions; the
parent folds them into its own sweep's stores
(:meth:`~repro.dse.stream._Store.absorb`) and finishes exactly as an
inline sweep does.  Pareto reduction is associative -- ``front(A | B)
== front(front(A) | front(B))``, because a point dominated within its
shard is dominated globally -- so every text/csv/json report is
byte-identical to ``--shards 1``.

Shard tasks run through the resilient pool
(:class:`~repro.runner.resilience.ResilientExecutor` via
:meth:`~repro.runner.pool.ExperimentRunner.run_raw`), so retries,
stall watchdogs, pool rebuilds, the serial downgrade and deterministic
chaos injection all apply unchanged.  The profile count vectors and
the design space a worker needs are published once per sweep in
:data:`_CONTEXTS` and inherited by forked pool workers -- tasks carry
only a content digest.  When the platform spawns instead of forking,
the pickled context (profile count vectors included) travels once
through ``multiprocessing.shared_memory`` and is attached, unpickled
and cached once per worker, with an inline-payload fallback when no
shared-memory segment can be created -- either way shard startup cost
is O(1) per worker, not per task.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pickle
from dataclasses import dataclass
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
    """One contiguous flat range ``[start, stop)`` of a published sweep.

    Dispatched by :func:`repro.runner.tasks.run_task` on its ``mode``,
    so the resilient executor treats it exactly like a simulation task
    (chaos faults, retries, terminal :class:`TaskFailure` records).
    """

    digest: str                     #: content digest of the ShardContext
    start: int
    stop: int
    transport: tuple | None = None  #: None: fork-inherited registry only
    mode: str = "shard"


@dataclass(frozen=True)
class _NamedPair:
    """A workload stand-in: shard pricing only ever reads ``pair.name``
    (programs were already profiled in the parent), so workers never
    deserialize program images."""

    name: str


#: Parent-published contexts, inherited by forked pool workers.
_CONTEXTS: dict[str, ShardContext] = {}
#: Per-process sweeps (tables built once per worker per context).
_SWEEPS: dict[str, object] = {}


def publish_context(ctx: ShardContext) -> tuple[str, bytes]:
    """Register ``ctx`` for fork inheritance; returns (digest, pickle)."""
    blob = pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    _CONTEXTS[digest] = ctx
    return digest, blob


def unpublish_context(digest: str) -> None:
    _CONTEXTS.pop(digest, None)
    _SWEEPS.pop(digest, None)


def shard_task_key(digest: str, start: int, stop: int) -> str:
    """Deterministic task key (retry backoff + chaos rolls hang off it)."""
    blob = json.dumps({"v": SCHEMA_VERSION, "mode": "shard",
                       "context": digest, "start": start, "stop": stop},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- context transport for non-fork platforms ---------------------------------

def _shm_export(blob: bytes):
    """``(segment, transport)`` with ``blob`` in shared memory, or None."""
    try:
        from multiprocessing import shared_memory
        segment = shared_memory.SharedMemory(create=True,
                                             size=max(1, len(blob)))
        segment.buf[:len(blob)] = blob
        return segment, ("shm", segment.name, len(blob))
    except (ImportError, OSError):
        return None


def _shm_read(name: str, size: int) -> bytes:
    from multiprocessing import shared_memory
    segment = shared_memory.SharedMemory(name=name)
    try:
        return bytes(segment.buf[:size])
    finally:
        segment.close()


def _load_context(transport: tuple | None) -> ShardContext:
    if transport is None:
        raise RuntimeError(
            "shard context is not published in this process and the task "
            "carries no transport")
    kind = transport[0]
    if kind == "shm":
        blob = _shm_read(transport[1], transport[2])
    else:
        blob = transport[1]
    return pickle.loads(blob)


# -- worker side --------------------------------------------------------------

def run_shard_task(task: ShardTask) -> dict:
    """Pool-worker entry: price one flat range of the published sweep.

    One :class:`~repro.dse.stream._FastSweep` per context and process
    (its tables are built once per worker), reset for every range.
    """
    sweep = _SWEEPS.get(task.digest)
    if sweep is None:
        ctx = _CONTEXTS.get(task.digest)
        if ctx is None:
            ctx = _CONTEXTS[task.digest] = _load_context(task.transport)
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
    digest, blob = publish_context(ctx)
    segment = transport = None
    if multiprocessing.get_start_method() != "fork":
        exported = _shm_export(blob)
        if exported is not None:
            segment, transport = exported
        else:
            transport = ("pickle", blob)
    bounds = [size * i // shards for i in range(shards + 1)]
    tasks = [ShardTask(digest=digest, start=lo, stop=hi,
                       transport=transport)
             for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    keys = [shard_task_key(digest, task.start, task.stop) for task in tasks]
    try:
        payloads = runner.run_raw(tasks, keys)
    finally:
        unpublish_context(digest)
        if segment is not None:
            segment.close()
            segment.unlink()
    for task, payload in zip(tasks, payloads):
        if is_failure(payload):
            failure = TaskFailure.from_payload(payload)
            raise RuntimeError(
                f"shard [{task.start}, {task.stop}) failed after "
                f"{failure.attempts} attempts: {failure.error}")
    return [payload["shard"] for payload in payloads]
