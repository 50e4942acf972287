"""Sharded streamed sweeps: exact Pareto-front merging across processes.

Three layers of guarantees:

* :meth:`repro.dse.pareto._Store.absorb` -- folding per-shard store
  exports into one store equals the quadratic dominance scan and the
  scalar knee (:func:`repro.dse.pareto._classify_quadratic`,
  :func:`repro.dse.pareto._knee_scalar`) for *any* contiguous split of
  the offer sequence, including empty shards, one-point shards, exact
  objective ties and non-integer areas (property-tested: Pareto
  reduction is associative);
* :func:`repro.dse.engine.sweep_streamed` with ``shards > 1`` -- the
  summary and every rendered report are byte-identical to the serial
  ``shards=1`` path, through real pool workers, and under
  deterministic chaos (kills and raises retry to convergence);
* :func:`repro.dse.pareto.classify` and
  :func:`repro.dse.pareto.knee_point`, one store offer each, equal the
  reference definitions for 2 and 3 objectives and refuse any other
  arity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import (
    OBJECTIVES,
    DesignSpace,
    WorkloadPair,
    knee_point,
    pareto_front,
    sweep_streamed,
)
from repro.dse.pareto import (
    _classify_quadratic,
    _grouping,
    _knee_scalar,
    _knee_seq,
    _Store,
    classify,
)
from repro.dse.report import StreamReport
from repro.dse.shard import MIN_SHARD_CONFIGS, resolve_shards
from repro.fse.kernel import build_fse_kernel
from repro.fse.params import FseParams
from repro.hw.config import HwConfig
from repro.kir import compile_module
from repro.runner import ExperimentRunner
from repro.runner.resilience import ChaosPolicy, UsageError
from repro.vm.config import CoreConfig

BUDGET = 50_000_000

SPACE = DesignSpace((
    ("clock_mhz", (25.0, 50.0, 66.0)),
    ("fpu", (False, True)),
    ("nwindows", (2, 8)),
    ("wait_states", (0, 2)),
))


# -- the merge primitive (property-based) ------------------------------------

# small coordinate grids force duplicates and exact objective ties
vectors = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))
# a third objective that is not an integer: area groups must split
# exactly (0.5 and 0.75 are different groups)
fractional = st.tuples(st.integers(0, 4), st.integers(0, 4),
                       st.sampled_from((0.5, 0.75, 1.5)))


def shard_exports(points, bounds):
    """One store per contiguous shard range, offered with global seqs."""
    exports = []
    for lo, hi in zip(bounds, bounds[1:]):
        store = _Store()
        if hi > lo:
            cols = {
                "t": np.array([p[0] for p in points[lo:hi]], dtype=float),
                "e": np.array([p[1] for p in points[lo:hi]], dtype=float),
                "area": np.array([p[2] for p in points[lo:hi]]),
                "seq": np.arange(lo, hi, dtype=np.int64)}
            store.offer(cols, _grouping(cols["area"]))
        exports.append(store.export())
    return exports


def absorbed(exports) -> _Store:
    merged = _Store()
    for export in exports:
        merged.absorb(export)
    return merged


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_merged_shard_fronts_equal_single_pass(data):
    points = data.draw(st.one_of(
        st.lists(vectors, min_size=1, max_size=48),
        st.lists(fractional, min_size=1, max_size=48)))
    n = len(points)
    # arbitrary contiguous split: sorted cut points allow empty shards
    # at either end and in the middle, and 1-point shards throughout
    cuts = data.draw(st.lists(st.integers(0, n), max_size=6))
    bounds = [0] + sorted(cuts) + [n]
    merged = absorbed(shard_exports(points, bounds))
    front = merged.finalize()
    # global seqs survive the merge (arrival order is the tie contract)
    seqs = [i for i, on_front in enumerate(_classify_quadratic(points))
            if on_front]
    assert front["seq"].tolist() == seqs
    assert list(zip(front["t"].tolist(), front["e"].tolist(),
                    front["area"].tolist())) == [points[i] for i in seqs]
    assert _knee_seq(front) == seqs[_knee_scalar([points[i] for i in seqs])]
    assert merged.count == n
    for k, objective in enumerate(OBJECTIVES):
        assert merged.best[objective] == min(
            (point[k], seq) for seq, point in enumerate(points))


def test_merge_handles_all_empty_shards():
    assert pareto_front([]) == []
    merged = absorbed(shard_exports([], [0, 0, 0]))
    front = merged.finalize()
    assert sorted(front) == ["area", "e", "seq", "t"]
    assert all(col.size == 0 for col in front.values())
    assert merged.count == 0 and merged.best == {}


# -- classify and knee_point vs the reference definitions -------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(vectors, min_size=1, max_size=48))
def test_classify_equals_quadratic_3d(points):
    assert classify(points) == _classify_quadratic(points)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=48))
def test_classify_equals_quadratic_2d(points):
    assert classify(points) == _classify_quadratic(points)


@settings(max_examples=200, deadline=None)
@given(st.lists(fractional, min_size=1, max_size=48))
def test_classify_and_knee_keep_non_integer_third_objective(points):
    assert classify(points) == _classify_quadratic(points)
    positions = list(range(len(points)))
    assert knee_point(positions, key=points.__getitem__) \
        == _knee_scalar(points)


def test_classify_keeps_infinite_objectives():
    """An infinite time or energy classifies as the pairwise scan says:
    alone on a front, in an area group of its own, or behind a smaller
    area."""
    inf = float("inf")
    for points in ([(1, inf, 0)],
                   [(5, 0, 0), (1, inf, 1)],
                   [(1, inf, 0), (2, inf, 1)],
                   [(1, inf, 0), (2, inf, 0), (0, 5, 1), (3, 1, 0)],
                   [(inf, inf), (inf, inf), (inf, 0)]):
        assert classify(points) == _classify_quadratic(points)


def test_classify_falls_back_on_other_arities():
    """Only 2 or 3 objectives are accepted; any other arity raises."""
    for points in ([(1, 2, 3, 4), (0, 0, 0, 0), (1, 2, 3, 4)],
                   [(1,), (0,)],
                   [(1, 2), (0, 0, 0)]):
        for reduce in (classify, pareto_front, knee_point):
            with pytest.raises(ValueError, match="2- or 3-tuples"):
                reduce(points)


# -- shard-count resolution ---------------------------------------------------

def test_resolve_shards_explicit_and_auto(monkeypatch):
    assert resolve_shards(4, 1000) == 4
    assert resolve_shards(8, 3) == 3          # never an empty shard
    assert resolve_shards(1, 10) == 1
    with pytest.raises(ValueError):
        resolve_shards(0, 10)
    monkeypatch.setenv("REPRO_WORKERS", "4")
    assert resolve_shards(None, 100) == 1     # tiny grids stay serial
    assert resolve_shards(None, 2 * MIN_SHARD_CONFIGS) == 2
    assert resolve_shards(None, 100 * MIN_SHARD_CONFIGS) == 4


# -- end to end: sharded == serial, byte for byte ----------------------------

@pytest.fixture(scope="module")
def sweep_setup(tmp_path_factory):
    params = FseParams(block=8, iterations=2)
    module = build_fse_kernel(0, params, size=8)
    pair = WorkloadPair(
        name="fse:00",
        float_program=compile_module(module, "hard"),
        fixed_program=compile_module(module, "soft"))
    cache_dir = tmp_path_factory.mktemp("shard-cache")
    runner = ExperimentRunner(cache_dir=cache_dir, workers=2)
    base = HwConfig(name="leon3", core=CoreConfig())
    return pair, runner, base


def streamed(setup, **kwargs):
    pair, runner, base = setup
    return sweep_streamed(SPACE, [pair], budget=BUDGET, runner=runner,
                          base=base, **kwargs)


@pytest.mark.parametrize("shards", [2, 3, 24])
def test_sharded_summary_equals_serial(sweep_setup, shards):
    serial = streamed(sweep_setup, shards=1)
    sharded = streamed(sweep_setup, shards=shards)
    assert sharded == serial


def test_sharded_reports_byte_identical(sweep_setup):
    serial = streamed(sweep_setup, shards=1, front_cap=4)
    sharded = streamed(sweep_setup, shards=3, front_cap=4)
    for fmt in ("text", "csv", "json"):
        assert (StreamReport(sharded, title="t").render(fmt)
                == StreamReport(serial, title="t").render(fmt))


def test_sharded_refinement_equals_serial(sweep_setup):
    serial = streamed(sweep_setup, shards=1, refine=2)
    sharded = streamed(sweep_setup, shards=4, refine=2)
    assert sharded == serial
    assert sharded.refined == serial.refined


def test_sharded_chaos_converges_byte_identically(sweep_setup, tmp_path):
    """Worker kills and raises retry until the exact same summary."""
    pair, _, base = sweep_setup
    clean = streamed(sweep_setup, shards=3)
    for spec in ("7:raise=0.5,depth=1", "11:kill=0.5,depth=1"):
        chaotic = ExperimentRunner(
            cache_dir=tmp_path / spec.replace(",", "_").replace(":", "_"),
            workers=2, chaos=ChaosPolicy.parse(spec))
        summary = sweep_streamed(SPACE, [pair], budget=BUDGET,
                                 runner=chaotic, base=base, shards=3)
        assert summary == clean


# -- driver and CLI wiring ---------------------------------------------------

def test_cli_parser_accepts_shards():
    from repro.cli import build_parser
    parser = build_parser()
    args = parser.parse_args(["dse", "--stream", "--shards", "4"])
    assert args.shards == 4
    assert parser.parse_args(["dse"]).shards is None


def test_shards_require_streamed_sweep():
    from repro.experiments import dse as dse_driver
    with pytest.raises(UsageError, match="--stream"):
        dse_driver.run("smoke", shards=2)
    with pytest.raises(UsageError, match="positive"):
        dse_driver.run("smoke", stream=True, shards=0)


def test_server_schema_validates_shards():
    from repro.server.schemas import ApiError, sweep_request
    spec = sweep_request({"mode": "stream", "shards": 4})
    assert spec.shards == 4
    assert sweep_request({"mode": "stream"}).shards is None
    for bad in ({"mode": "stream", "shards": 0},
                {"mode": "stream", "shards": True},
                {"mode": "profile", "shards": 2}):
        with pytest.raises(ApiError, match="shards") as err:
            sweep_request(bad)
        assert err.value.code == "bad-shards"
