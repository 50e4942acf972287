"""Tests of the benchmark's own helpers: ``python -m pytest perfbench``."""

from __future__ import annotations

import asyncio
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from spans import Tracer, layer_self_times, self_times  # noqa: E402
from stats import Tally, tail_percentile  # noqa: E402


# -- the percentile rule -------------------------------------------------------

@pytest.mark.parametrize("n, pct", [
    (5000, 99.0),     # p99.9 leaves 5 beyond, p99 leaves 50
    (1000, 99.0),     # p99 leaves exactly 10
    (999, 95.0),      # p99 leaves 9
    (200, 95.0),
    (100, 90.0),
    (40, 75.0),
    (20, 50.0),
])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, pct):
    samples = [float(i) for i in range(n, 0, -1)]      # unsorted input
    got_pct, value, count = tail_percentile(samples)
    assert (got_pct, count) == (pct, n)
    assert sum(1 for s in samples if s > value) >= 10
    assert value == sorted(samples)[-(-n * round(pct * 10) // 1000) - 1]


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([]) is None


# -- span self time ------------------------------------------------------------

def _event(sid, parent, name, start, stop):
    return {"name": name, "ts": start, "dur": stop - start,
            "args": {"id": sid, "parent": parent}}


def test_self_time_subtracts_children_once():
    events = [
        _event(1, 0, "dse.sweep", 0, 100),
        _event(2, 1, "asm.assemble", 10, 30),
        _event(3, 1, "asm.assemble", 20, 50),     # overlaps its sibling
        _event(4, 1, "runner.pool", 90, 120),     # runs past its parent
        _event(5, 2, "kir.codegen", 12, 18),      # grandchild
    ]
    own = self_times(events)
    assert own == {1: 100 - 40 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6}
    assert layer_self_times(events) == pytest.approx(
        {"dse": 50e-6, "asm": 44e-6, "runner": 30e-6, "kir": 6e-6})


def test_self_times_sum_to_the_root_span():
    events = [_event(1, 0, "cli", 0, 1000),
              _event(2, 1, "workloads.build", 0, 600),
              _event(3, 2, "asm.assemble", 100, 500),
              _event(4, 1, "dse.sweep", 600, 900)]
    assert sum(self_times(events).values()) == 1000


def test_tracer_nests_across_threads_and_tasks():
    tracer = Tracer()
    tracer.enabled = True

    def leaf():
        return 1

    traced_leaf = tracer.wrap("asm.assemble", leaf)

    async def handler():
        return await asyncio.to_thread(traced_leaf)

    traced_handler = tracer.wrap("server.dispatch", handler)

    async def main():
        await asyncio.gather(traced_handler(), traced_handler())

    asyncio.run(main())
    spans = {s[0]: s for s in tracer.spans}
    leaves = [s for s in tracer.spans if s[2] == "asm.assemble"]
    assert len(leaves) == 2
    assert {spans[s[1]][2] for s in leaves} == {"server.dispatch"}
    assert len({s[1] for s in leaves}) == 2       # one parent each


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    assert tracer.wrap("kir.codegen", lambda: 7)() == 7
    assert tracer.spans == []


def test_added_span_nests_under_the_current_one():
    tracer = Tracer()
    tracer.enabled = True
    tracer.wrap("server.dispatch",
                lambda: tracer.add("server.read", 1.0, 2.0))()
    read, dispatch = tracer.spans
    assert read[1] == dispatch[0]
    assert read[2:5] == ("server.read", 1.0, 2.0)


def test_server_trace_splits_set_up_from_requests(tmp_path):
    events = [_event(1, 0, "dse.profiles", 0, 500),           # set-up
              _event(2, 0, "server.read", 1000, 1100),        # requests
              _event(3, 0, "server.dispatch", 1100, 4100),
              _event(4, 3, "server.price", 1200, 4000),
              _event(5, 0, "server.respond", 4100, 4150)]
    path = tmp_path / "serve.json"
    path.write_text(json.dumps({"traceEvents": events, "counters": {},
                                "marks": {"requests": 1000}}))
    metrics, self_s = layers.per_operation([str(path)], 1, 5000e-6, {})
    assert metrics["dse.profiles_s"] == pytest.approx(500e-6)
    assert metrics["server.parse_s"] == pytest.approx(100e-6)
    # read + dispatch + respond over the client's 5000 us
    assert metrics["trace.coverage_pct"] == pytest.approx(63.0)
    assert self_s["server"] == pytest.approx(3150e-6)
    assert self_s["dse"] == 0.0


# -- fail_ratio counting ----------------------------------------------------------

def test_fail_ratio_counts_attempts_not_checks():
    tally = Tally()
    assert tally.record(None, None)
    assert not tally.record("exit 1", "digest mismatch")   # one attempt
    assert not tally.record(None, "HTTP 500")
    assert tally.record()
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_ratio == 0.5
    assert tally.reasons == ["exit 1; digest mismatch", "HTTP 500"]


def test_late_failures_and_the_empty_tally():
    tally = Tally()
    assert tally.fail_ratio == 1.0            # nothing attempted: no pass
    for _ in range(4):
        tally.record(None)
    tally.fail("sample re-prices differently")
    assert tally.fail_ratio == 0.25
