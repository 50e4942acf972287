"""NFP-estimation-as-a-service: the async evaluation server.

The profile-once linear engine prices any :class:`~repro.hw.config.HwConfig`
as dot products over a cached :class:`~repro.nfp.linear.ExecutionProfile`
-- exactly the shape of a high-QPS service.  This package stands that
service up on the stdlib alone (``asyncio`` + HTTP/1.1 + JSON, no new
runtime dependencies):

``repro serve --host --port``
    boots :class:`~repro.server.app.EvalServer`, which holds hot
    lowered profiles in memory and answers

``POST /v1/price``
    one (configuration, workload) point.  Concurrent requests the event
    loop resumes in the same tick coalesce into one
    :class:`~repro.nfp.linear.BatchNfpEngine` evaluation, with no wait
    for others to join (:mod:`repro.server.batching`), and cold
    workloads are profiled through the resilient cached runner behind
    per-key single-flight locks (:mod:`repro.server.singleflight`) -- a
    stampede of identical cold queries triggers exactly one simulation.

``POST /v1/sweep``
    a whole design-space spec, run through the same sweep drivers the
    ``repro dse`` CLI uses; a materialized sweep response
    (``"mode": "profile"``, the default) is byte-identical to
    ``repro dse --format json`` for the same spec (the service-smoke
    CI job compares the bytes).

``GET /v1/healthz`` / ``GET /v1/stats``
    liveness and operational metrics (uptime, profile cache hit rate,
    QPS, latency quantiles, batching and single-flight counters).
"""

from repro.server.app import EvalServer, serve_command
from repro.server.settings import ServerSettings

__all__ = ["EvalServer", "ServerSettings", "serve_command"]
