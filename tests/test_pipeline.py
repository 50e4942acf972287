"""Frame pipelines: chains, goldens, structural variants, and the oracle.

The acceptance contract of the composed-profile path (see
:mod:`repro.workloads.pipeline`): across the fpu / nwindows / wait-state
/ clock axes, pricing the composed profiles of a frame stream is
**bit-identical** in cycles, retired instructions and time to metering
every frame of the stream with the stepwise oracle (energy within 1e-12
relative), and the streamed sweep of every registered pipeline
reproduces the materialized one.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.cli import main
from repro.dse import DesignSpace, sweep
from repro.dse.engine import StreamSummary, stream_profiles, sweep_streamed
from repro.experiments.pipeline import registered_pipelines, structural_variants
from repro.experiments.scale import SMOKE
from repro.hw.config import HwConfig
from repro.nfp.linear import (
    BatchNfpEngine,
    ExecutionProfile,
    LinearNfpEngine,
    compose_profiles,
)
from repro.runner import ExperimentRunner
from repro.runner.tasks import run_task
from repro.vm.config import CoreConfig
from repro.workloads import get_spec, select
from repro.workloads.pipeline import (
    EDGES,
    PIPELINES,
    XFEL,
    FrameClass,
    PipelineSpec,
    PipelineWorkloadSpec,
    _invocation_program,
    pipeline_invocations,
    pipeline_pair,
    pipeline_variant,
)

from tests.helpers import meter_stepwise

SIZE = SMOKE.image_size
BUDGET = SMOKE.max_instructions

#: a small two-class stream over the xfel chain (dark frames exit early)
TINY = PipelineSpec(
    name="pipe:tiny", stages=XFEL.stages,
    classes=(FrameClass("signal", base=2, count=3),
             FrameClass("dark", base=8, count=2, shift=2)))


def metered_stream(spec: PipelineSpec, hw: HwConfig, literal: bool = True):
    """``(cycles, retired, dyn nJ per frame)`` of metering every frame.

    Each frame is one stepwise-oracle run of its stage invocation.  With
    ``literal=False`` a frame class's identical frames reuse one run of
    the deterministic simulator instead of repeating it.
    """
    abi = "hard" if hw.core.has_fpu else "soft"
    cycles = retired = 0
    dyn_nj = []
    for inv in pipeline_invocations(spec, SIZE):
        program = _invocation_program(inv.stage, inv.image, SIZE, abi)
        raw = None
        for _ in range(inv.frames):
            if raw is None or literal:
                raw = meter_stepwise(program, hw, BUDGET)
                assert raw.sim.console == inv.golden
            cycles += raw.cycles
            retired += raw.sim.retired
            dyn_nj.append(raw.dyn_energy_nj)
    return cycles, retired, dyn_nj


class TestRegistration:
    def test_pipelines_are_first_class_workloads(self):
        names = [spec.name for spec in select("pipe", SMOKE)]
        assert names == ["pipe:xfel", "pipe:edges"]
        spec = get_spec("pipe:xfel")
        assert isinstance(spec, PipelineWorkloadSpec)
        assert spec.family == "pipe"
        assert "pipeline" in spec.tags and "stream" in spec.tags
        assert spec.chain() == \
            "bgsub -> threshold -> gauss5x5 -> sobel3x3 -> histstats"
        assert registered_pipelines() == PIPELINES

    def test_pipeline_workload_has_no_single_program(self):
        with pytest.raises(ValueError, match="no single program"):
            get_spec("pipe:xfel").program("hard", SMOKE)

    def test_golden_concatenates_invocation_goldens(self):
        golden = get_spec("pipe:edges").golden(SMOKE)
        assert golden == "".join(
            inv.golden for inv in pipeline_invocations(EDGES, SIZE))

    def test_spec_validation(self):
        cls = (FrameClass("c", base=1, count=1),)
        with pytest.raises(ValueError, match="unknown stage"):
            PipelineSpec("pipe:bad", ("bgsub", "warp"), cls)
        with pytest.raises(ValueError, match="needs stages"):
            PipelineSpec("pipe:bad", (), cls)
        with pytest.raises(ValueError, match="needs stages"):
            PipelineSpec("pipe:bad", ("bgsub",), ())


class TestChains:
    def test_early_exit_truncates_the_dark_class(self):
        """Dark frames fail the threshold: their chain stops *after* it
        (the rejecting stage still cost cycles), so the class prices
        2 of the 5 stages."""
        per_class = {}
        for inv in pipeline_invocations(XFEL, SIZE):
            per_class.setdefault(inv.frame_class, []).append(inv.stage)
        assert per_class["signal"] == list(XFEL.stages)
        assert per_class["burst"] == list(XFEL.stages)
        assert per_class["dark"] == ["bgsub", "threshold"]

    def test_invocation_weights_cover_the_stream(self):
        invocations = pipeline_invocations(EDGES, SIZE)
        assert len(invocations) == 6   # 2 classes x 3 stages, no exit
        assert {inv.frames for inv in invocations} == {600, 400}
        assert EDGES.frames == 1000 and XFEL.frames == 1000

    def test_terminal_stage_cannot_feed_a_successor(self):
        bad = PipelineSpec("pipe:bad", ("histstats", "sobel3x3"),
                           (FrameClass("c", base=1, count=1),))
        with pytest.raises(ValueError, match="terminal stage"):
            pipeline_invocations(bad, SIZE)


class TestGoldenParity:
    @pytest.mark.parametrize("spec", PIPELINES,
                             ids=[s.name for s in PIPELINES])
    def test_every_invocation_matches_golden_in_both_abis(self, spec):
        """Each stage invocation program prints the host reference's
        digest, bit-exact, under both float ABIs."""
        from repro.vm import Simulator
        for inv in pipeline_invocations(spec, SIZE):
            for abi, fpu in (("hard", True), ("soft", False)):
                program = _invocation_program(inv.stage, inv.image,
                                              SIZE, abi)
                result = Simulator(program, CoreConfig(has_fpu=fpu)).run(
                    max_instructions=BUDGET)
                assert result.exit_code == 0, (spec.name, inv.stage, abi)
                assert result.console == inv.golden, \
                    (spec.name, inv.stage, inv.frame_class, abi)


class TestVariants:
    def test_variant_names_encode_their_deltas(self):
        assert pipeline_variant(XFEL, drop=("gauss5x5",)).name == \
            "pipe:xfel~no-gauss5x5"
        v = pipeline_variant(XFEL, drop=("bgsub",),
                             repeats={"sobel3x3": 3})
        assert v.name == "pipe:xfel~no-bgsub~sobel3x3x3"
        assert v.stages == ("threshold", "gauss5x5", "sobel3x3",
                            "sobel3x3", "sobel3x3", "histstats")

    def test_variant_validation(self):
        with pytest.raises(ValueError, match="has no stage"):
            pipeline_variant(EDGES, drop=("bgsub",))
        with pytest.raises(ValueError, match=">= 1"):
            pipeline_variant(EDGES, repeats={"sobel3x3": 0})
        with pytest.raises(ValueError, match="drops every stage"):
            pipeline_variant(EDGES, drop=EDGES.stages)

    def test_structural_neighbourhood(self):
        names = [v.name for v in structural_variants(EDGES)]
        assert names == [
            "pipe:edges~no-gauss5x5",
            "pipe:edges~no-sobel3x3",
            "pipe:edges~no-histstats",
            "pipe:edges~gauss5x5x2",
            "pipe:edges~sobel3x3x2",
        ]
        # terminal stages are never repeated
        assert not any("histstatsx" in name for name in names)

    def test_variants_share_invocation_programs(self):
        """A variant's unchanged prefix reuses the memoised builds."""
        base = pipeline_pair(EDGES, SMOKE)
        variant = pipeline_pair(pipeline_variant(
            EDGES, drop=("histstats",)), SMOKE)
        assert variant.float_invocations[0][0] is \
            base.float_invocations[0][0]


class TestComposedOracle:
    """The acceptance oracle: composed == stepwise metering, per frame."""

    SPACE = DesignSpace.from_spec(
        "fpu,nwindows=4:8,wait_states=0:2,clock_mhz=50:80")
    #: four of SPACE's 16 configurations -- (fpu, nwindows, wait_states,
    #: clock_mhz) -- in which both values of every axis appear
    ORACLE_COMBOS = ((False, 4, 0, 50.0), (True, 8, 2, 80.0),
                     (False, 8, 2, 50.0), (True, 4, 0, 80.0))

    @pytest.fixture(scope="class")
    def runner(self, tmp_path_factory):
        return ExperimentRunner(
            cache_dir=tmp_path_factory.mktemp("pipe-cache"))

    @pytest.fixture(scope="class")
    def grids(self, runner):
        pairs = [pipeline_pair(spec, SMOKE) for spec in PIPELINES]
        profiled = sweep(self.SPACE, pairs, budget=BUDGET, runner=runner)
        streamed = sweep_streamed(self.SPACE, pairs, budget=BUDGET,
                                  runner=runner)
        return profiled, streamed

    def test_composed_sweep_is_bit_identical_to_metered(self, runner):
        configs = [self.SPACE.config_for(combo)
                   for combo in self.ORACLE_COMBOS]
        for name in ("fpu", "nwindows", "wait_states", "clock_mhz"):
            assert {c.value(name) for c in configs} == \
                set(dict(self.SPACE.axes)[name])
        grid = sweep(configs, [pipeline_pair(TINY, SMOKE)],
                     budget=BUDGET, runner=runner)
        assert not grid.failures and len(grid.points) == len(configs)
        for config in configs:
            point = grid.point(config.name, TINY.name)
            hw = config.hw
            cycles, retired, dyn_nj = metered_stream(TINY, hw,
                                                     literal=False)
            assert point.cycles == cycles, config.name  # bit-identical
            assert point.retired == retired, config.name
            assert point.time_s == cycles * hw.cycle_seconds, config.name
            energy = math.fsum(dyn_nj) * 1e-9 + \
                hw.static_power_w * point.time_s
            assert point.energy_j == pytest.approx(energy, rel=1e-12)

    def test_streamed_summary_matches_materialized_grid(self, grids):
        profiled, streamed = grids
        assert not profiled.failures
        # 16 configs x 2 pipelines (one build each: float iff fpu)
        assert len(profiled.points) == 32
        assert streamed == StreamSummary.from_grid(profiled)


class TestLiteralStreamOracle:
    """Composition vs literally simulating every frame of a stream."""

    def test_composed_equals_frame_by_frame_simulation(self):
        from repro.dse.evaluate import profile_task
        hw = HwConfig(name="leon3", core=CoreConfig(has_fpu=True))
        # the literal stream: one stepwise-oracle run per frame
        cycles, retired, dyn_nj = metered_stream(TINY, hw)
        parts = []
        for inv in pipeline_invocations(TINY, SIZE):
            program = _invocation_program(inv.stage, inv.image, SIZE,
                                          "hard")
            payload = run_task(profile_task(program, BUDGET, hw.core))
            parts.append((ExecutionProfile.from_payload(payload["profile"]),
                          inv.frames))
        nfp = LinearNfpEngine(hw).evaluate(compose_profiles(parts))
        assert nfp.cycles == cycles
        assert nfp.retired == retired
        assert nfp.true_time_s == cycles * hw.cycle_seconds
        energy = math.fsum(dyn_nj) * 1e-9 + \
            hw.static_power_w * nfp.true_time_s
        assert nfp.true_energy_j == pytest.approx(energy, rel=1e-12)


class TestCli:
    def test_pipeline_list(self, capsys):
        assert main(["pipeline", "list"]) == 0
        out = capsys.readouterr().out
        assert "pipe:xfel" in out and "pipe:edges" in out
        assert "bgsub -> threshold -> gauss5x5" in out
        assert "signal x650" in out and "1000" in out

    def test_pipeline_sweep_with_structural_variants(self, capsys):
        assert main(["pipeline", "sweep", "--scale", "smoke",
                     "--pipeline", "pipe:edges", "--axes", "clock_mhz=80",
                     "--variants", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        workloads = {p["workload"] for p in report["points"]}
        assert workloads == {
            "pipe:edges", "pipe:edges~no-gauss5x5",
            "pipe:edges~no-sobel3x3", "pipe:edges~no-histstats",
            "pipe:edges~gauss5x5x2", "pipe:edges~sobel3x3x2"}

    def test_pipeline_sweep_rejects_unknown_pipeline(self, capsys):
        assert main(["pipeline", "sweep", "--pipeline", "pipe:nope"]) == 2
        assert "unknown pipeline" in capsys.readouterr().err

    def test_profile_warm(self, capsys):
        assert main(["profile", "warm", "--workloads", "pipe:edges",
                     "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "warmed 2 profiles (1 workloads x 2 builds" in out

    def test_dse_prices_pipelines_through_the_registry(self, capsys):
        assert main(["dse", "--scale", "smoke", "--axes", "clock_mhz=80",
                     "--workloads", "pipe:xfel", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {p["workload"] for p in report["points"]} == {"pipe:xfel"}


class TestServer:
    """Pipeline workloads resolve through ``/v1/price`` and ``/v1/sweep``
    with zero server-side special-casing."""

    def test_price_round_trip_matches_composed_evaluation(self):
        from repro.server import EvalServer, ServerSettings
        from repro.server.client import fetch_json
        from repro.server.schemas import price_request

        body = {"workload": "pipe:xfel",
                "axes": {"clock_mhz": 80.0, "fpu": True}}

        async def run():
            server = EvalServer(scale=SMOKE, settings=ServerSettings())
            port = await server.start("127.0.0.1", 0)
            try:
                status, payload = await fetch_json(
                    "127.0.0.1", port, "/v1/price", body)
                assert status == 200
                config, _, _ = price_request(dict(body), server.base)
                vectors = stream_profiles(
                    [pipeline_pair(XFEL, SMOKE)], [True], budget=BUDGET,
                    runner=server.runner, base=server.base)[
                        ("pipe:xfel", "float")]
                nfp = BatchNfpEngine([config.hw]).evaluate(vectors)[0]
                assert payload["cycles"] == nfp.cycles
                assert payload["retired"] == nfp.retired
                assert payload["time_s"] == nfp.true_time_s
                assert payload["energy_j"] == nfp.true_energy_j

                status, sweep_payload = await fetch_json(
                    "127.0.0.1", port, "/v1/sweep",
                    {"axes": "clock_mhz=50:80", "workloads": "pipe:*",
                     "format": "json"})
                assert status == 200
                assert {p["workload"]
                        for p in sweep_payload["points"]} == \
                    {"pipe:xfel", "pipe:edges"}
            finally:
                await server.aclose()

        asyncio.run(run())
