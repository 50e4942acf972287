"""Fault-tolerant experiment execution.

Long sweeps die in boring ways: a pool worker is OOM-killed, a cache
JSON is truncated by a full disk, a simulation wedges, a laptop lid
closes mid-campaign.  This module is the cross-cutting layer that turns
each of those from "the sweep aborts and hours of work are discarded"
into a logged, bounded, *deterministic* recovery:

* :class:`RetryPolicy` -- exponential backoff with deterministic jitter
  and a per-task attempt budget; an exhausted budget produces a terminal
  :class:`TaskFailure` payload instead of an exception.
* :class:`ResilientExecutor` -- the process-pool driver behind
  :class:`~repro.runner.pool.ExperimentRunner`: per-generation stall
  watchdogs (``REPRO_TIMEOUT_S``), worker-crash isolation (a broken pool
  is rebuilt and its tasks retried) and, after
  ``RetryPolicy.max_pool_failures`` pool-level incidents, a logged
  downgrade to in-process serial execution.  It hands every finished
  payload to its caller as it arrives, so the runner caches each
  simulation the moment it completes: an interrupted command loses
  only the tasks still running, and re-running it is the resume.
* :class:`ChaosPolicy` -- the deterministic chaos-injection harness
  (``REPRO_CHAOS=<seed>:<spec>``): worker kills, cache corruption, slow
  tasks and transient exceptions fire at points decided purely by
  ``sha256(seed | site | task-key | attempt)``, and only on attempts
  below ``depth`` -- so any retry budget ``> depth`` provably converges
  to the fault-free result, bit for bit.
* :func:`log_event` -- one-line structured events (``repro.runner``
  logger) for every retry, timeout, quarantine and downgrade; silent
  recovery is unauditable.
* :class:`UsageError` and the ``env_*`` readers -- every ``REPRO_*``
  knob is validated on first read into one clear message instead of a
  deep traceback.

Everything here is stdlib-only and import-light (the simulator chain is
loaded lazily inside the execution paths), so the CLI can import the
error types for free.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from pathlib import Path

LOGGER = logging.getLogger("repro.runner")

#: Payload key marking a terminal task failure (see :class:`TaskFailure`).
FAILURE_KEY = "task_failure"


class UsageError(ValueError):
    """A bad knob (environment variable or flag): one line, no traceback."""


class ChaosError(RuntimeError):
    """A transient fault injected by :class:`ChaosPolicy`."""


class TaskFailedError(RuntimeError):
    """A caller demanded the payload of a task whose retries ran out."""


def log_event(event: str, _level: int = logging.WARNING, **fields_) -> None:
    """One structured line on the ``repro.runner`` logger.

    ``event=<kind> key=value ...`` -- greppable, single-line, and
    asserted on by the resilience tests: every retry, timeout,
    quarantine and downgrade must leave a trace.
    """
    parts = [f"event={event}"]
    parts += [f"{name}={value}" for name, value in fields_.items()]
    LOGGER.log(_level, "%s", " ".join(parts))


# -- validated environment knobs ---------------------------------------------

def env_int(name: str, default: int, minimum: int = 1) -> int:
    """``int(os.environ[name])`` or ``default``; junk raises UsageError."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        raise UsageError(
            f"{name} must be an integer >= {minimum}, got {raw!r}") from None
    if value < minimum:
        raise UsageError(
            f"{name} must be an integer >= {minimum}, got {raw!r}")
    return value


def env_float(name: str, default: float, minimum: float = 0.0) -> float:
    """``float(os.environ[name])`` or ``default``; junk raises UsageError."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        raise UsageError(
            f"{name} must be a number >= {minimum}, got {raw!r}") from None
    if value < minimum:
        raise UsageError(f"{name} must be a number >= {minimum}, got {raw!r}")
    return value


_CACHE_ON = frozenset(("", "on", "1", "yes", "true", "enabled"))
_CACHE_OFF = frozenset(("off", "0", "no", "false", "disabled"))


def cache_enabled_from_env() -> bool:
    """``REPRO_CACHE`` as a validated boolean (default: enabled)."""
    raw = os.environ.get("REPRO_CACHE", "").strip().lower()
    if raw in _CACHE_OFF:
        return False
    if raw in _CACHE_ON:
        return True
    raise UsageError(
        f"REPRO_CACHE must be one of {sorted(_CACHE_ON - {''})} or "
        f"{sorted(_CACHE_OFF)}, got {raw!r}")


def cache_base_dir() -> Path:
    """The cache root (``REPRO_CACHE_DIR`` or the default), validated."""
    raw = os.environ.get("REPRO_CACHE_DIR", "").strip()
    path = Path(raw) if raw else Path.home() / ".cache" / "repro-nfp"
    if path.exists() and not path.is_dir():
        raise UsageError(
            f"REPRO_CACHE_DIR points at a file, not a directory: {path}")
    return path


def cache_dir_from_env() -> str | None:
    """The result-cache directory, or ``None`` when ``REPRO_CACHE=off``."""
    if not cache_enabled_from_env():
        return None
    return str(cache_base_dir())


# -- deterministic rolls ------------------------------------------------------

def _roll(seed: int, site: str, key: str, attempt: int) -> float:
    """A reproducible uniform draw in ``[0, 1)`` for one decision point."""
    digest = hashlib.sha256(
        f"{seed}|{site}|{key}|{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


# -- retry policy -------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget, backoff shape and pool-level failure tolerance."""

    max_attempts: int = 3        #: total tries per task before TaskFailure
    base_delay_s: float = 0.05   #: first backoff step
    max_delay_s: float = 2.0     #: backoff cap
    jitter: float = 0.5          #: deterministic jitter fraction on delays
    timeout_s: float | None = None  #: pool stall watchdog (None: disabled)
    max_pool_failures: int = 3   #: broken pools / stalls before serial mode

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """``REPRO_RETRIES`` / ``REPRO_BACKOFF_S`` / ``REPRO_TIMEOUT_S`` /
        ``REPRO_POOL_FAILURES``, validated."""
        timeout = env_float("REPRO_TIMEOUT_S", 0.0)
        return cls(
            max_attempts=env_int("REPRO_RETRIES", cls.max_attempts),
            base_delay_s=env_float("REPRO_BACKOFF_S", cls.base_delay_s),
            timeout_s=timeout or None,
            max_pool_failures=env_int("REPRO_POOL_FAILURES",
                                      cls.max_pool_failures),
        )

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered.

        Exponential in the attempt, capped at :attr:`max_delay_s`, with
        a deterministic jitter drawn from the task key -- two retries of
        the same task always wait the same time, but a batch of failed
        tasks never thunders back in lockstep.
        """
        step = min(self.max_delay_s,
                   self.base_delay_s * (2 ** max(0, attempt - 1)))
        return step * (1.0 + self.jitter * _roll(0, "backoff", key, attempt))


# -- terminal failures --------------------------------------------------------

@dataclass(frozen=True)
class TaskFailure:
    """The terminal record of a task whose attempt budget ran out."""

    key: str
    mode: str
    attempts: int
    error: str

    def to_payload(self) -> dict:
        return {FAILURE_KEY: {"key": self.key, "mode": self.mode,
                              "attempts": self.attempts,
                              "error": self.error}}

    @classmethod
    def from_payload(cls, payload: dict) -> "TaskFailure":
        return cls(**payload[FAILURE_KEY])


def is_failure(payload: object) -> bool:
    """True when a runner payload is a :class:`TaskFailure` record."""
    return isinstance(payload, dict) and FAILURE_KEY in payload


def ensure_payload(payload: dict) -> dict:
    """``payload``, or :class:`TaskFailedError` if it records a failure.

    The guard for single-result conveniences that have no way to carry
    a partial outcome (``metered_raw``/``fast_sim``).
    """
    if is_failure(payload):
        failure = TaskFailure.from_payload(payload)
        raise TaskFailedError(
            f"task {failure.key[:12]} ({failure.mode}) failed after "
            f"{failure.attempts} attempts: {failure.error}")
    return payload


# -- chaos injection ----------------------------------------------------------

#: Styles :meth:`ChaosPolicy.corruption` picks between (cache damage).
CORRUPTION_STYLES = ("truncate", "garbage", "bad-checksum", "stale-schema")


@dataclass(frozen=True)
class ChaosPolicy:
    """Deterministic fault injection: ``REPRO_CHAOS=<seed>:<spec>``.

    ``<spec>`` is a comma list of ``name=value`` entries::

        kill=R      worker process dies at task start (rate R in [0,1])
        raise=R     transient exception at task start
        slow=R      task stalls for slow_s before running
        corrupt=R   a fresh cache write is damaged (once per key)
        slow_s=S    stall duration in seconds (default 0.75)
        depth=D     attempts 0..D-1 are fault-eligible (default 1)

    Every decision is a pure function of ``(seed, site, task key,
    attempt)``, and no fault fires at attempts ``>= depth`` -- so any
    retry budget larger than ``depth`` converges to the fault-free
    result exactly, which is what the convergence property tests prove.
    """

    seed: int
    kill: float = 0.0
    raise_: float = 0.0
    slow: float = 0.0
    corrupt: float = 0.0
    slow_s: float = 0.75
    depth: int = 1

    #: spec-name -> field-name (``raise`` is a Python keyword)
    _NAMES = {"kill": "kill", "raise": "raise_", "slow": "slow",
              "corrupt": "corrupt", "slow_s": "slow_s", "depth": "depth"}

    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        head, sep, tail = spec.partition(":")
        if not sep:
            raise UsageError(
                f"chaos spec must look like '<seed>:kill=0.2,corrupt=0.3', "
                f"got {spec!r}")
        try:
            seed = int(head.strip())
        except ValueError:
            raise UsageError(
                f"chaos seed must be an integer, got {head!r}") from None
        kwargs: dict[str, float | int] = {}
        for part in tail.split(","):
            part = part.strip()
            if not part:
                continue
            name, eq, value = part.partition("=")
            name = name.strip()
            if not eq or name not in cls._NAMES:
                raise UsageError(
                    f"unknown chaos entry {part!r}; available: "
                    f"{', '.join(sorted(cls._NAMES))}")
            field_name = cls._NAMES[name]
            try:
                if field_name == "depth":
                    parsed: float | int = int(value)
                else:
                    parsed = float(value)
            except ValueError:
                raise UsageError(
                    f"bad chaos value in {part!r}") from None
            if field_name == "depth" and parsed < 1:
                raise UsageError(f"chaos depth must be >= 1, got {value}")
            if field_name == "slow_s" and parsed <= 0:
                raise UsageError(f"chaos slow_s must be > 0, got {value}")
            if field_name in ("kill", "raise_", "slow", "corrupt") \
                    and not 0.0 <= parsed <= 1.0:
                raise UsageError(
                    f"chaos rate {name!r} must be in [0, 1], got {value}")
            kwargs[field_name] = parsed
        return cls(seed=seed, **kwargs)

    @classmethod
    def from_env(cls) -> "ChaosPolicy | None":
        raw = os.environ.get("REPRO_CHAOS", "").strip()
        return cls.parse(raw) if raw else None

    def spec(self) -> str:
        """The round-trippable spec string (ships the policy to workers)."""
        inverse = {v: k for k, v in self._NAMES.items()}
        parts = [f"{inverse[f.name]}={getattr(self, f.name)}"
                 for f in fields(self) if f.name != "seed"]
        return f"{self.seed}:" + ",".join(parts)

    def _should(self, site: str, key: str, attempt: int,
                rate: float) -> bool:
        return (attempt < self.depth and rate > 0.0
                and _roll(self.seed, site, key, attempt) < rate)

    def inject_task_faults(self, key: str, attempt: int, *,
                           in_worker: bool) -> None:
        """Fire task-start faults for ``(key, attempt)``, if any.

        ``kill`` in a pool worker is a hard ``os._exit`` (the pool sees
        a crashed process, exactly like an OOM kill); in-process it
        degrades to a :class:`ChaosError` -- killing the parent would
        take the experiment down with it, which is the failure mode this
        module exists to avoid.
        """
        if self._should("slow", key, attempt, self.slow):
            time.sleep(self.slow_s)
        if self._should("kill", key, attempt, self.kill):
            if in_worker:
                os._exit(0x2A)
            raise ChaosError(
                f"chaos kill (in-process) key={key[:12]} attempt={attempt}")
        if self._should("raise", key, attempt, self.raise_):
            raise ChaosError(
                f"chaos transient key={key[:12]} attempt={attempt}")

    def corruption(self, key: str) -> str | None:
        """The corruption style for a fresh cache write, or ``None``.

        Rolled at attempt 0 only: after the quarantine-and-recompute
        cycle rewrites the entry, it stays clean.
        """
        if not self._should("corrupt", key, 0, self.corrupt):
            return None
        pick = _roll(self.seed, "corrupt-style", key, 0)
        return CORRUPTION_STYLES[int(pick * len(CORRUPTION_STYLES))]


#: Per-process parse cache for chaos specs shipped into pool workers.
_WORKER_CHAOS: dict[str, ChaosPolicy] = {}


def _resilient_worker(task, key: str, attempt: int,
                      chaos_spec: str | None) -> dict:
    """Pool-worker entry: inject chaos (if armed), then run the task."""
    from repro.runner.tasks import run_task
    if chaos_spec:
        chaos = _WORKER_CHAOS.get(chaos_spec)
        if chaos is None:
            chaos = _WORKER_CHAOS[chaos_spec] = ChaosPolicy.parse(chaos_spec)
        chaos.inject_task_faults(key, attempt, in_worker=True)
    return run_task(task)


# -- the resilient executor ---------------------------------------------------

class ResilientExecutor:
    """Run task batches to completion through crashes, hangs and faults.

    The degradation ladder: a healthy process pool; a rebuilt pool after
    each worker crash or stall (every survivor's attempt counter is
    advanced, so deterministic chaos cannot re-fire forever); and, after
    ``max_pool_failures`` pool-level incidents, in-process serial
    execution for the remainder of the executor's life.  Tasks whose own
    attempt budget runs out become :class:`TaskFailure` payloads -- the
    batch always returns, one way or the other.
    """

    def __init__(self, workers: int, policy: RetryPolicy | None = None,
                 chaos: ChaosPolicy | None = None):
        self.workers = workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.chaos = chaos
        self.degraded = False
        self.pool_failures = 0

    def run(self, tasks: list, keys: list[str],
            on_result=None) -> list[dict]:
        """Payloads (or failure records) for ``tasks``, in order.

        ``on_result(key, payload)`` sees every payload that is not a
        failure the moment it arrives, on the pool and the serial path
        alike, so whatever finished before an interrupt is kept.
        """
        results: list[dict | None] = [None] * len(tasks)

        def finish(i: int, payload: dict) -> None:
            results[i] = payload
            if on_result is not None and not is_failure(payload):
                on_result(keys[i], payload)

        attempts = [0] * len(tasks)
        pending = list(range(len(tasks)))
        n = min(self.workers, len(tasks))
        if n > 1 and not self.degraded:
            pending = self._parallel(tasks, keys, n, finish, attempts,
                                     pending)
        for i in pending:
            if results[i] is None:
                finish(i, self._run_serial(tasks[i], keys[i], attempts[i]))
        return results  # type: ignore[return-value]

    # -- pool generations ----------------------------------------------------

    def _parallel(self, tasks, keys, n, finish, attempts,
                  pending) -> list[int]:
        chaos_spec = self.chaos.spec() if self.chaos else None
        while pending and not self.degraded:
            pool = ProcessPoolExecutor(max_workers=min(n, len(pending)))
            fs = {}
            try:
                for i in pending:
                    fs[pool.submit(_resilient_worker, tasks[i], keys[i],
                                   attempts[i], chaos_spec)] = i
                pending = self._drain(pool, fs, tasks, keys, finish,
                                      attempts, chaos_spec)
            except BaseException:   # Ctrl-C, or ``finish`` failed
                self._teardown(pool)
                raise
        return pending

    def _drain(self, pool, fs, tasks, keys, finish, attempts,
               chaos_spec) -> list[int]:
        """Wait out one pool generation; returns indices that need a
        fresh pool (worker crash / stall), or ``[]`` when drained."""
        while fs:
            done, _ = wait(fs, timeout=self.policy.timeout_s,
                           return_when=FIRST_COMPLETED)
            if not done:
                # the per-task wall-clock watchdog: nothing finished
                # within timeout_s, so the generation is hung
                stalled = sorted(fs.values())
                log_event("timeout", tasks=len(stalled),
                          timeout_s=self.policy.timeout_s)
                self._teardown(pool)
                return self._note_pool_failure(stalled, attempts)
            for future in done:
                i = fs.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    survivors = sorted([i] + list(fs.values()))
                    log_event("pool-broken", tasks=len(survivors))
                    self._teardown(pool)
                    return self._note_pool_failure(survivors, attempts)
                except Exception as exc:  # noqa: BLE001 - retry boundary
                    attempts[i] += 1
                    if attempts[i] >= self.policy.max_attempts:
                        finish(i, self._terminal(tasks[i], keys[i],
                                                 attempts[i], exc))
                    else:
                        self._backoff(keys[i], attempts[i], exc)
                        try:
                            fs[pool.submit(_resilient_worker, tasks[i],
                                           keys[i], attempts[i],
                                           chaos_spec)] = i
                        except (BrokenProcessPool, RuntimeError):
                            survivors = sorted([i] + list(fs.values()))
                            log_event("pool-broken", tasks=len(survivors))
                            self._teardown(pool)
                            return self._note_pool_failure(survivors,
                                                           attempts)
                else:
                    finish(i, payload)
        pool.shutdown()
        return []

    def _note_pool_failure(self, survivors, attempts) -> list[int]:
        # advance every survivor's attempt counter (the culprit is
        # unknowable once the pool is gone): deterministic chaos moves
        # past its depth instead of re-firing forever, but the bump is
        # capped so a pool-level incident never spends a task's last try
        for i in survivors:
            attempts[i] = min(attempts[i] + 1,
                              self.policy.max_attempts - 1)
        self.pool_failures += 1
        if self.pool_failures >= self.policy.max_pool_failures:
            self.degraded = True
            log_event("downgrade", to="serial",
                      pool_failures=self.pool_failures)
        return survivors

    @staticmethod
    def _teardown(pool) -> None:
        """Shut down and terminate a (possibly hung) pool.

        The pool cancels its own pending futures: one cancelled from
        outside makes Python 3.11's pool manager thread die when the
        terminated workers mark the pool broken, and the process then
        hangs at exit on the task queue's feeder thread.
        """
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.terminate()
            except (OSError, ValueError):  # pragma: no cover - racy exit
                pass

    # -- serial (in-process) execution ---------------------------------------

    def _run_serial(self, task, key: str, attempt: int = 0) -> dict:
        from repro.runner.tasks import run_task
        while True:
            try:
                if self.chaos is not None:
                    self.chaos.inject_task_faults(key, attempt,
                                                  in_worker=False)
                return run_task(task)
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001 - retry boundary
                attempt += 1
                if attempt >= self.policy.max_attempts:
                    return self._terminal(task, key, attempt, exc)
                self._backoff(key, attempt, exc)

    # -- shared bookkeeping --------------------------------------------------

    def _backoff(self, key: str, attempt: int, exc: Exception) -> None:
        delay = self.policy.delay_s(key, attempt)
        log_event("retry", key=key[:12],
                  attempt=f"{attempt + 1}/{self.policy.max_attempts}",
                  delay_s=round(delay, 4), error=type(exc).__name__)
        time.sleep(delay)

    def _terminal(self, task, key: str, attempt: int,
                  exc: Exception) -> dict:
        log_event("task-failed", key=key[:12], mode=task.mode,
                  attempts=attempt, error=type(exc).__name__)
        return TaskFailure(key=key, mode=task.mode, attempts=attempt,
                           error=repr(exc)).to_payload()


__all__ = [
    "ChaosError",
    "ChaosPolicy",
    "CORRUPTION_STYLES",
    "FAILURE_KEY",
    "LOGGER",
    "ResilientExecutor",
    "RetryPolicy",
    "TaskFailedError",
    "TaskFailure",
    "UsageError",
    "cache_base_dir",
    "cache_dir_from_env",
    "cache_enabled_from_env",
    "ensure_payload",
    "env_float",
    "env_int",
    "is_failure",
    "log_event",
]
