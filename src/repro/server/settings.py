"""Validated operational knobs of the evaluation server.

Every knob reads a ``REPRO_SERVER_*`` environment variable through the
shared validated-environment helpers, so a typo'd value fails as a
one-line :class:`~repro.runner.resilience.UsageError` at boot instead
of a traceback deep inside a request:

``REPRO_SERVER_MAX_BATCH``
    Most ``/v1/price`` requests one event-loop tick prices in a single
    :class:`~repro.nfp.linear.BatchNfpEngine` evaluation (default 256);
    the rest ride the next tick.
``REPRO_SERVER_MAX_GRID``
    Request budget for ``/v1/sweep``: the configuration-grid size
    (configs x workloads) above which a sweep is rejected with a
    413-style error instead of tying the server up (default 250000
    points).
``REPRO_SERVER_MAX_BODY``
    Largest accepted request body in bytes (default 1 MiB); larger
    payloads are rejected with 413.
``REPRO_SERVER_LATENCY_WINDOW``
    Per-endpoint latency samples retained for the ``/v1/stats``
    quantiles (default 2048; bounded memory).
``REPRO_SERVER_DRAIN_S``
    Seconds a graceful shutdown waits for in-flight requests before
    closing their connections (default 10).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runner.resilience import env_float, env_int


@dataclass(frozen=True)
class ServerSettings:
    """One resolved set of server knobs (see the module docstring)."""

    max_batch: int = 256
    max_grid: int = 250_000
    max_body: int = 1 << 20
    latency_window: int = 2048
    drain_s: float = 10.0

    @classmethod
    def from_env(cls) -> "ServerSettings":
        """Read and validate every ``REPRO_SERVER_*`` knob."""
        return cls(
            max_batch=env_int("REPRO_SERVER_MAX_BATCH", 256),
            max_grid=env_int("REPRO_SERVER_MAX_GRID", 250_000),
            max_body=env_int("REPRO_SERVER_MAX_BODY", 1 << 20),
            latency_window=env_int("REPRO_SERVER_LATENCY_WINDOW", 2048),
            drain_s=env_float("REPRO_SERVER_DRAIN_S", 10.0, minimum=0.0),
        )
