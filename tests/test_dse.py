"""The design-space exploration engine: axes, Pareto laws, sweeps, CLI."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import (
    AGGREGATE,
    DesignSpace,
    DseGrid,
    DsePoint,
    FailedCell,
    SweepConfig,
    SweepReport,
    WorkloadPair,
    classify,
    dominates,
    get_axis,
    knee_point,
    pareto_front,
    sweep,
    sweep_estimated,
)
from repro.hw.area import MEMCTRL_LES, memctrl_les, synthesize
from repro.hw.config import HwConfig, leon3_fpu, leon3_nofpu
from repro.hw.timing import cycle_table_with_wait_states
from repro.nfp import Calibrator, NFPEstimator
from repro.nfp.dse import FPU_CONFIG, NOFPU_CONFIG, explore_fpu
from repro.runner import ExperimentRunner
from repro.fse.kernel import build_fse_kernel
from repro.fse.params import FseParams
from repro.hw import Board, PerfectInstruments
from repro.kir import compile_module

BUDGET = 50_000_000


@pytest.fixture(scope="module")
def tiny_pair():
    params = FseParams(block=8, iterations=2)
    module = build_fse_kernel(0, params, size=8)
    return WorkloadPair(
        name="fse:00",
        float_program=compile_module(module, "hard"),
        fixed_program=compile_module(module, "soft"))


# -- Pareto laws (property-based) -------------------------------------------

vectors = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@given(vectors, vectors)
def test_dominance_antisymmetric_and_irreflexive(a, b):
    assert not dominates(a, a)
    assert not (dominates(a, b) and dominates(b, a))


@settings(max_examples=200, deadline=None)
@given(st.lists(vectors, min_size=1, max_size=24))
def test_front_subset_and_dominated_strictly_worse(points):
    front = pareto_front(points)
    # the front is a subset of the grid and never empty
    assert front
    assert all(p in points for p in front)
    # no front point dominates another front point
    assert not any(dominates(p, q) for p in front for q in front)
    # every dominated point is strictly worse than some front point on
    # at least one objective (and no better on any)
    flags = classify(points)
    for point, on_front in zip(points, flags):
        if on_front:
            continue
        dominators = [q for q in points if dominates(q, point)]
        assert dominators
        for q in dominators:
            assert all(x <= y for x, y in zip(q, point))
            assert any(x < y for x, y in zip(q, point))


@settings(max_examples=100, deadline=None)
@given(st.lists(vectors, min_size=1, max_size=24))
def test_knee_point_is_on_the_front(points):
    front = pareto_front(points)
    assert knee_point(front) in front


def test_exact_ties_all_stay_on_front():
    points = [(1, 1, 1), (1, 1, 1), (2, 2, 2)]
    assert pareto_front(points) == [(1, 1, 1), (1, 1, 1)]


def test_dominates_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        dominates((1, 2), (1, 2, 3))


# -- axes and design spaces --------------------------------------------------

def test_axis_applications():
    base = HwConfig()
    fpu_off = get_axis("fpu").apply(base, False)
    assert not fpu_off.core.has_fpu
    windows = get_axis("nwindows").apply(base, 4)
    assert windows.core.nwindows == 4
    blocks = get_axis("block_size").apply(base, 8)
    assert blocks.core.block_size == 8
    slow_mem = get_axis("wait_states").apply(base, 3)
    assert slow_mem.cycle_table["ld"] == base.cycle_table["ld"] + 3
    assert slow_mem.cycle_table["ldd"] == base.cycle_table["ldd"] + 6
    assert slow_mem.cycle_table["add"] == base.cycle_table["add"]


def test_clock_axis_voltage_scaling_is_identity_at_base():
    base = HwConfig()
    at_base = get_axis("clock_mhz").apply(base, 50)
    assert at_base.clock_hz == base.clock_hz
    assert at_base.static_power_w == base.static_power_w
    assert dict(at_base.dyn_energy_nj) == dict(base.dyn_energy_nj)
    fast = get_axis("clock_mhz").apply(base, 80)
    assert fast.clock_hz == 80e6
    assert fast.static_power_w > base.static_power_w
    assert fast.dyn_energy_nj["add"] > base.dyn_energy_nj["add"]
    slow = get_axis("clock_mhz").apply(base, 25)
    assert slow.dyn_energy_nj["add"] < base.dyn_energy_nj["add"]


def test_wait_state_table_and_area_tradeoff():
    base = HwConfig().cycle_table
    assert cycle_table_with_wait_states(base, 0) == dict(base)
    with pytest.raises(ValueError):
        cycle_table_with_wait_states(base, -1)
    assert memctrl_les(0) == MEMCTRL_LES
    assert memctrl_les(2) < memctrl_les(0)
    with pytest.raises(ValueError):
        memctrl_les(-1)


def test_design_space_spec_roundtrip():
    space = DesignSpace.from_spec("clock_mhz=25:50,fpu,nwindows=4:8")
    assert space.axis_names == ("clock_mhz", "fpu", "nwindows")
    assert space.size == 8
    configs = space.configs()
    assert len(configs) == 8
    assert len({c.name for c in configs}) == 8
    first = configs[0]
    assert isinstance(first, SweepConfig)
    assert first.hw.name == first.name
    # product order: last axis varies fastest
    assert configs[0].value("nwindows") == 4
    assert configs[1].value("nwindows") == 8


def test_design_space_default_has_at_least_24_points():
    space = DesignSpace.default()
    assert len(space.axis_names) >= 3
    assert space.size >= 24


def test_design_space_rejects_bad_specs():
    with pytest.raises(ValueError):
        DesignSpace.from_spec("bogus_axis=1:2")
    with pytest.raises(ValueError):
        DesignSpace.from_spec("")
    with pytest.raises(ValueError):
        DesignSpace(axes=(("fpu", ()),))
    with pytest.raises(ValueError):
        DesignSpace(axes=(("fpu", (True,)), ("fpu", (False,))))


# -- the metered sweep through the runner ------------------------------------

@pytest.fixture(scope="module")
def small_grid_setup(tiny_pair, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("dse-cache")
    space = DesignSpace.from_spec("fpu,wait_states=0:2")
    runner = ExperimentRunner(cache_dir=cache_dir, workers=1)
    grid = sweep(space, [tiny_pair], budget=BUDGET, runner=runner,
                 metered=True)
    return space, runner, grid, cache_dir


def test_sweep_grid_shape_and_builds(small_grid_setup, tiny_pair):
    _, _, grid, _ = small_grid_setup
    assert len(grid.points) == 4
    assert grid.workloads() == (tiny_pair.name,)
    assert len(grid.configs()) == 4
    for point in grid.points:
        expected = "float" if point.value("fpu") else "fixed"
        assert point.build == expected
        assert point.time_s > 0 and point.energy_j > 0
        assert point.cycles is not None and point.cycles > point.retired


def test_sweep_area_tracks_axes(small_grid_setup):
    _, _, grid, _ = small_grid_setup
    for point in grid.points:
        core_les = synthesize(
            leon3_fpu().core if point.value("fpu")
            else leon3_nofpu().core).total_les
        assert point.area_les == core_les + memctrl_les(
            point.value("wait_states"))


def test_wait_states_cost_time_but_save_area(small_grid_setup, tiny_pair):
    _, _, grid, _ = small_grid_setup
    fast = grid.point("fpu-ws0", tiny_pair.name)
    slow = grid.point("fpu-ws2", tiny_pair.name)
    assert slow.cycles > fast.cycles
    assert slow.time_s > fast.time_s
    assert slow.area_les < fast.area_les
    # same functional execution either way
    assert slow.retired == fast.retired


def test_sweep_warm_rerun_is_bit_identical(small_grid_setup, tiny_pair):
    space, runner, grid, cache_dir = small_grid_setup
    # second run through the same runner: memory/disk cache hits only
    warm = sweep(space, [tiny_pair], budget=BUDGET, runner=runner,
                 metered=True)
    assert warm == grid
    # a fresh runner over the same cache directory (fresh process-level
    # state, disk hits): still bit-identical
    fresh = sweep(space, [tiny_pair], budget=BUDGET,
                  runner=ExperimentRunner(cache_dir=cache_dir, workers=1),
                  metered=True)
    assert fresh == grid
    # and the rendered reports are byte-identical
    assert SweepReport(fresh).render("json") == \
        SweepReport(grid).render("json")


def test_front_and_knee_views(small_grid_setup):
    _, _, grid, _ = small_grid_setup
    front = grid.front()
    assert front
    assert set(front) <= set(grid.aggregate())
    knee = grid.knee()
    assert knee in front
    flags = dict((p.config, on_front)
                 for p, on_front in grid.dominated_flags())
    assert all(flags[p.config] for p in front)


def naive_aggregate(grid: DseGrid) -> tuple[DsePoint, ...]:
    """The per-configuration definition: one select() per config."""
    out = []
    for config in grid.configs():
        points = grid.select(config=config)
        if len(points) != len(grid.workloads()):
            continue
        cycles = (None if any(p.cycles is None for p in points)
                  else sum(p.cycles for p in points))
        out.append(DsePoint(
            config=config, axis_values=points[0].axis_values,
            workload=AGGREGATE, build=points[0].build,
            time_s=sum(p.time_s for p in points),
            energy_j=sum(p.energy_j for p in points),
            area_les=points[0].area_les,
            retired=sum(p.retired for p in points), cycles=cycles))
    return tuple(out)


def test_aggregate_matches_per_config_definition():
    """One grouping pass == one select per config, bit for bit: config
    order of first appearance, point order within a config, configs
    with failed cells left out."""
    def point(config, workload, time_s, energy_j, cycles=7):
        return DsePoint(config=config, axis_values=(("clock_mhz", config),),
                        workload=workload, build="fixed", time_s=time_s,
                        energy_j=energy_j, area_les=len(config),
                        retired=3, cycles=cycles)

    # sums of these floats depend on their order: bb's times add up to
    # 1.0 in point order and to 0.0 in workload order
    grid = DseGrid(points=(
        point("c", "w1", 0.1, 1e-3), point("a", "w1", 0.7, 0.3),
        point("c", "w2", 0.2, 2e-3), point("bb", "w2", 1e16, 0.1),
        point("a", "w2", 0.1, 1e-17), point("bb", "w3", -1e16, 0.7,
                                             cycles=None),
        point("dddd", "w1", 0.3, 0.6), point("c", "w3", 0.3, 3e-3),
        point("a", "w3", 0.2, 0.1), point("bb", "w1", 1.0, 0.2),
        point("dddd", "w3", 0.4, 0.5)),
        failures=(FailedCell(config="dddd", workload="w2", build="fixed",
                             attempts=3, error="boom"),))
    aggregate = grid.aggregate()
    assert aggregate == naive_aggregate(grid)
    assert [p.config for p in aggregate] == ["c", "a", "bb"]
    assert aggregate[2].cycles is None and aggregate[2].time_s == 1.0


def test_report_formats(small_grid_setup, tiny_pair):
    _, _, grid, _ = small_grid_setup
    report = SweepReport(grid)
    text = report.render("text")
    assert "Pareto front" in text and "knee" in text
    csv_text = report.render("csv")
    header = csv_text.splitlines()[0].split(",")
    assert {"config", "workload", "time_s", "energy_j",
            "area_les"} <= set(header)
    # every grid point plus one aggregate row per config
    assert len(csv_text.splitlines()) == 1 + len(grid.points) + 4
    blob = json.loads(report.render("json"))
    assert blob["workloads"] == [tiny_pair.name]
    assert blob["pareto"]["knee"] == grid.knee().config
    assert len(blob["points"]) == len(grid.points)
    with pytest.raises(ValueError):
        report.render("yaml")


# -- the Table IV preset ------------------------------------------------------

@pytest.fixture(scope="module")
def calibrated():
    board = Board(leon3_fpu(), PerfectInstruments())
    model = Calibrator(board, iterations=400,
                       unroll=16).calibrate().to_model()
    return model


def test_explore_fpu_matches_direct_estimation(calibrated, tiny_pair):
    """The preset reproduces the pre-engine computation bit-for-bit."""
    model = calibrated
    est_fpu = NFPEstimator(model, leon3_fpu().core)
    est_nofpu = NFPEstimator(model, leon3_nofpu().core)
    report = explore_fpu(est_fpu, est_nofpu, [tiny_pair],
                         max_instructions=BUDGET)
    row = report.row(tiny_pair.name)
    # the historical implementation, inlined
    with_fpu = est_fpu.estimate_program(
        tiny_pair.float_program, max_instructions=BUDGET)
    without_fpu = est_nofpu.estimate_program(
        tiny_pair.fixed_program, max_instructions=BUDGET)
    assert row.float_energy_j == with_fpu.energy_j
    assert row.fixed_energy_j == without_fpu.energy_j
    assert row.float_time_s == with_fpu.time_s
    assert row.fixed_time_s == without_fpu.time_s
    assert row.energy_change == (
        (with_fpu.energy_j - without_fpu.energy_j) / without_fpu.energy_j)
    assert row.time_change == (
        (with_fpu.time_s - without_fpu.time_s) / without_fpu.time_s)


def test_estimated_sweep_grid(calibrated, tiny_pair):
    model = calibrated
    est_fpu = NFPEstimator(model, leon3_fpu().core)
    est_nofpu = NFPEstimator(model, leon3_nofpu().core)
    space = DesignSpace.single("fpu", (True, False))
    grid = sweep_estimated(
        space, [tiny_pair], budget=BUDGET,
        estimator_for=lambda cfg: est_fpu if cfg.hw.core.has_fpu
        else est_nofpu)
    assert {p.config for p in grid.points} == {FPU_CONFIG, NOFPU_CONFIG}
    for point in grid.points:
        assert point.cycles is None
    fpu_point = grid.point(FPU_CONFIG, tiny_pair.name)
    nofpu_point = grid.point(NOFPU_CONFIG, tiny_pair.name)
    assert fpu_point.time_s < nofpu_point.time_s
    with pytest.raises(KeyError):
        grid.point("nope", tiny_pair.name)


# -- CLI ----------------------------------------------------------------------

def test_cli_parser_dse():
    from repro.cli import build_parser
    parser = build_parser()
    args = parser.parse_args(
        ["dse", "--scale", "smoke", "--axes", "fpu,wait_states=0:1",
         "--format", "json", "--workers", "2",
         "--workloads", "table3,img:*"])
    assert args.command == "dse"
    assert args.scale == "smoke"
    assert args.axes == "fpu,wait_states=0:1"
    assert args.fmt == "json"
    assert args.workers == 2
    assert args.workloads == "table3,img:*"
    defaults = parser.parse_args(["dse"])
    assert defaults.axes is None and defaults.fmt == "text"
    assert defaults.workloads is None
    with pytest.raises(SystemExit):
        parser.parse_args(["dse", "--format", "xml"])
