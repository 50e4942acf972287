"""Streamed sweeps: Pareto stores equal to the reference definitions.

Two layers of guarantees:

* the Pareto store (:class:`repro.dse.pareto._Store`, reached here
  through :func:`~repro.dse.pareto.pareto_front`,
  :func:`~repro.dse.pareto.classify` and
  :func:`~repro.dse.pareto.knee_point`) equals the quadratic dominance
  scan and the scalar knee on any point sequence, including duplicates
  and exact objective ties (property-tested);
* :func:`repro.dse.engine.sweep_streamed` -- the streamed summary (and
  every :class:`repro.dse.report.StreamReport` format rendered from it)
  is byte-identical to ``StreamSummary.from_grid`` over the
  materialized :func:`repro.dse.engine.sweep` grid at any
  chunk size; refined sweeps, which have no materialized twin, are
  pinned by report digest.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import (
    DesignSpace,
    StreamSummary,
    WorkloadPair,
    classify,
    knee_point,
    pareto_front,
    sweep,
    sweep_streamed,
)
from repro.dse.pareto import _classify_quadratic, _knee_scalar
from repro.dse.report import StreamReport
from repro.fse.kernel import build_fse_kernel
from repro.fse.params import FseParams
from repro.hw.config import HwConfig
from repro.kir import compile_module
from repro.runner import ExperimentRunner
from repro.runner.resilience import UsageError
from repro.vm.config import CoreConfig

BUDGET = 50_000_000

SPACE = DesignSpace((
    ("clock_mhz", (25.0, 50.0, 66.0)),
    ("fpu", (False, True)),
    ("nwindows", (2, 8)),
    ("wait_states", (0, 2)),
))


# -- the store vs the reference definitions (property-based) ----------------

# small coordinate grids force duplicates and exact objective ties
vectors = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))


def quadratic_front(points: list) -> list[int]:
    """Positions of the non-dominated points, by the pairwise scan."""
    return [i for i, on_front in enumerate(_classify_quadratic(points))
            if on_front]


@settings(max_examples=200, deadline=None)
@given(st.lists(vectors, min_size=1, max_size=64))
def test_accumulator_front_equals_batch_front(points):
    """The store's front is the pairwise scan's, position for position."""
    positions = list(range(len(points)))
    assert (pareto_front(positions, key=points.__getitem__)
            == quadratic_front(points))
    assert pareto_front(points) == [points[i]
                                    for i in quadratic_front(points)]


@settings(max_examples=100, deadline=None)
@given(st.lists(vectors, min_size=1, max_size=48))
def test_accumulator_knee_matches_batch(points):
    """knee_point picks the scalar reference's item, over a front and
    over any point set (dominated points widen the normalisation)."""
    positions = list(range(len(points)))
    assert knee_point(positions, key=points.__getitem__) \
        == _knee_scalar(points)
    front = [points[i] for i in quadratic_front(points)]
    assert knee_point(front) == front[_knee_scalar(front)]


@settings(max_examples=100, deadline=None)
@given(st.lists(vectors, min_size=1, max_size=48))
def test_accumulator_add_verdict_is_definitive_when_false(points):
    """Every prefix classifies like the pairwise scan, and a point off
    the front of a prefix is off the final front."""
    final = classify(points)
    for n in range(1, len(points) + 1):
        flags = classify(points[:n])
        assert flags == _classify_quadratic(points[:n])
        assert all(on_front or not final[i]
                   for i, on_front in enumerate(flags))


# -- streamed vs materialized sweeps (end to end) ----------------------------


@pytest.fixture(scope="module")
def tiny_pair():
    params = FseParams(block=8, iterations=2)
    module = build_fse_kernel(0, params, size=8)
    return WorkloadPair(
        name="fse:00",
        float_program=compile_module(module, "hard"),
        fixed_program=compile_module(module, "soft"))


@pytest.fixture(scope="module")
def sweep_setup(tiny_pair, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("stream-cache")
    runner = ExperimentRunner(cache_dir=cache_dir, workers=1)
    base = HwConfig(name="leon3", core=CoreConfig())
    return tiny_pair, runner, base


def streamed(setup, **kwargs):
    pair, runner, base = setup
    return sweep_streamed(SPACE, [pair], budget=BUDGET, runner=runner,
                          base=base, **kwargs)


def test_streamed_equals_materialized_summary(sweep_setup):
    pair, runner, base = sweep_setup
    grid = sweep(SPACE, [pair], budget=BUDGET, runner=runner, base=base)
    assert streamed(sweep_setup) == StreamSummary.from_grid(grid)
    assert (streamed(sweep_setup, front_cap=3)
            == StreamSummary.from_grid(grid, front_cap=3))


def test_streamed_report_is_byte_identical_to_materialized(sweep_setup):
    pair, runner, base = sweep_setup
    grid = sweep(SPACE, [pair], budget=BUDGET, runner=runner, base=base)
    summary = streamed(sweep_setup, front_cap=4)
    twin = StreamSummary.from_grid(grid, front_cap=4)
    for fmt in ("text", "csv", "json"):
        lhs = StreamReport(summary).render(fmt)
        rhs = StreamReport(twin).render(fmt)
        assert lhs == rhs, f"format {fmt} diverged"


def test_streamed_is_chunk_independent(sweep_setup):
    reference = streamed(sweep_setup)
    for chunk in (1, 7, 13):
        assert streamed(sweep_setup, chunk=chunk) == reference


def test_streamed_front_cap_bounds_materialized_points(sweep_setup):
    capped = streamed(sweep_setup, front_cap=2)
    full = streamed(sweep_setup)
    assert capped.front_cap == 2
    assert len(capped.aggregate.front) <= 2
    # counts, knees and minima stay exact under any cap
    assert capped.aggregate.front_size == full.aggregate.front_size
    assert capped.aggregate.knee == full.aggregate.knee
    assert capped.aggregate.best_energy == full.aggregate.best_energy
    assert capped.aggregate.front == full.aggregate.front[:2]


def test_streamed_refinement_is_deterministic(sweep_setup):
    first = streamed(sweep_setup, refine=2)
    again = streamed(sweep_setup, refine=2)
    assert first == again
    assert first.refined >= 0
    assert first.configs == SPACE.size + first.refined


def test_streamed_never_materializes_the_grid(sweep_setup):
    """The summary retains fronts and winners, never per-config cells."""
    summary = streamed(sweep_setup, front_cap=2)
    assert summary.configs == SPACE.size
    held = len(summary.aggregate.front) + sum(
        len(w.front) for w in summary.per_workload)
    assert held <= (len(summary.per_workload) + 1) * (2 + 3)


def test_streamed_refuses_cycle_counts_past_int64(sweep_setup):
    from dataclasses import replace

    from repro.dse.evaluate import composed_vectors, profile_task
    from repro.dse.stream import _FastSweep
    from repro.nfp.linear import ExecutionProfile
    pair, runner, base = sweep_setup
    huge = {}
    for fpu in (False, True):
        core = replace(base.core, has_fpu=fpu)
        build, program = pair.build_for(core)
        payload, = runner.run_tasks([profile_task(program, BUDGET, core)])
        profile = ExecutionProfile.from_payload(payload["profile"])
        huge[(pair.name, build)] = composed_vectors([(profile, 2 ** 50)])
    with pytest.raises(UsageError, match="'fse:00'.*int64.*drop --stream"):
        _FastSweep(SPACE, [pair], huge, base)


def test_streamed_rejects_non_positive_front_cap(sweep_setup):
    for cap in (0, -1):
        with pytest.raises(ValueError, match="front_cap"):
            streamed(sweep_setup, front_cap=cap)


#: SHA-256 of the stdout of ``repro dse --scale smoke --stream ...``.
#: Refinement has no materialized twin, so these digests are its oracle.
STREAM_DIGESTS = {
    ("--refine", "2", "--format", "json"):
        "8ab5eb235f8f5fd0b2132ea66b15ed8c00d17dd664a7201834fc208b43c8fd1b",
    ("--refine", "3", "--front-cap", "5", "--format", "text"):
        "546cd11b3e65fea0a7eac0a2f7f0debe315afd121a0c983b0727e58d7494ba67",
}


@pytest.mark.parametrize("shards", [(), ("--shards", "3")],
                         ids=["serial", "shards3"])
@pytest.mark.parametrize("flags", sorted(STREAM_DIGESTS),
                         ids=["refine2-json", "refine3-cap5-text"])
def test_streamed_cli_report_digests(flags, shards, capsys):
    from repro.cli import main
    argv = ["dse", "--scale", "smoke", "--stream", *flags, *shards]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STREAM_DIGESTS[flags]


def test_cli_parser_stream_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["dse", "--stream", "--refine", "2", "--front-cap", "16"])
    assert args.stream is True
    assert args.refine == 2
    assert args.front_cap == 16
