"""The workload registry and the image-processing kernel family."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.dse import DesignSpace, sweep
from repro.experiments.scale import DEFAULT, FULL, SMOKE
from repro.experiments.workloads import kernel_set, workload_pairs
from repro.runner import ExperimentRunner
from repro.vm import CoreConfig, Simulator
from repro.workloads import (
    PRESETS,
    build_cache_size,
    clear_build_cache,
    families,
    get_spec,
    register,
    select,
    select_pairs,
    specs,
)

SMOKE_SPECS = specs(scale=SMOKE)
# pipeline specs have no single program; their golden parity is checked
# per invocation in test_pipeline.py
KERNEL_SPECS = tuple(s for s in SMOKE_SPECS if s.family != "pipe")


def run_build(spec, abi: str, fpu: bool):
    program = spec.program(abi, SMOKE)
    return Simulator(program, CoreConfig(has_fpu=fpu)).run(
        max_instructions=SMOKE.max_instructions)


class TestRegistry:
    def test_families_and_counts(self):
        assert families() == ("fse", "hevc", "img", "pipe")
        assert len(specs("fse")) == 24
        assert len(specs("hevc")) == 36
        assert len(specs("img")) >= 7
        assert len(specs("pipe")) >= 2

    def test_smoke_suite_membership(self):
        names = [spec.name for spec in SMOKE_SPECS]
        # the paper preset at smoke scale plus every imaging kernel
        assert names[:2] == ["fse:00", "fse:01"]
        assert sum(n.startswith("hevc:") for n in names) == 4
        assert sum(n.startswith("img:") for n in names) == len(specs("img"))

    def test_scale_growth(self):
        assert len(specs("fse", DEFAULT)) == 8
        assert len(specs(scale=FULL)) == (24 + 36 + len(specs("img"))
                                          + len(specs("pipe")))

    def test_select_presets_families_and_globs(self):
        table3 = select("table3", SMOKE)
        assert [s.family for s in table3] == ["fse"] * 2 + ["hevc"] * 4
        assert select("img", SMOKE) == specs("img", SMOKE)
        assert [s.name for s in select("img:s*", SMOKE)] == [
            "img:sobel3x3", "img:sharpen3x3"]
        # comma combination, first occurrence wins on duplicates
        combo = select("fse:00,table3,img:median3x3", SMOKE)
        assert [s.name for s in combo[:2]] == ["fse:00", "fse:01"]
        assert combo[-1].name == "img:median3x3"
        # 'all' resolves dynamically to every registered family
        assert select("all") == specs()
        assert "all" not in PRESETS and PRESETS["table3"] == ("fse", "hevc")

    def test_select_rejects_empty_matches(self):
        with pytest.raises(ValueError):
            select("img:nope*", SMOKE)
        with pytest.raises(ValueError):
            select("", SMOKE)
        with pytest.raises(ValueError):
            # fse:23 exists but is outside the smoke suite
            select("fse:23", SMOKE)
        with pytest.raises(ValueError):
            get_spec("bogus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register(get_spec("img:sobel3x3"))

    def test_build_cache_identity_and_clear(self):
        clear_build_cache()
        spec = get_spec("img:downscale2x")
        first = spec.program("hard", SMOKE)
        assert build_cache_size() == 1
        assert spec.program("hard", SMOKE) is first
        # the cache keys on the scale fields the build reads, not the
        # scale's identity: a renamed scale with the same image size hits
        renamed = dataclasses.replace(SMOKE, name="smoke-copy")
        assert spec.program("hard", renamed) is first
        assert spec.program("soft", SMOKE) is not first
        clear_build_cache()
        assert build_cache_size() == 0
        assert spec.program("hard", SMOKE) is not first

    def test_unknown_abi_rejected(self):
        with pytest.raises(ValueError):
            get_spec("fse:00").program("quad", SMOKE)

    def test_legacy_wrappers_resolve_through_registry(self):
        kernels = kernel_set(SMOKE)
        names = [name for name, _, _ in kernels]
        # historical order: both ABIs, HEVC streams before FSE kernels
        assert names[0].startswith("hevc:") and names[0].endswith(":float")
        assert names[len(names) // 2 - 1] == "fse:01:float"
        assert kernels[0][2] is get_spec(
            "hevc:gradient_pan_intra_qp10").program("hard", SMOKE)
        pairs = workload_pairs(SMOKE)
        assert [p.name for p in pairs] == [
            s.name for s in select("table3", SMOKE)]
        assert pairs[0].float_program is get_spec("fse:00").program(
            "hard", SMOKE)


class TestGoldenParity:
    @pytest.mark.parametrize(
        "spec", KERNEL_SPECS, ids=[s.name for s in KERNEL_SPECS])
    def test_hard_and_soft_builds_match_golden(self, spec):
        """Both ABI builds print the registered golden output, bit-exact."""
        golden = spec.golden(SMOKE)
        hard = run_build(spec, "hard", fpu=True)
        soft = run_build(spec, "soft", fpu=False)
        assert hard.exit_code == 0 and soft.exit_code == 0
        assert hard.console == golden
        assert soft.console == golden

    def test_imaging_family_exercises_both_units(self):
        hard = run_build(get_spec("img:sobel3x3"), "hard", fpu=True)
        soft = run_build(get_spec("img:sobel3x3"), "soft", fpu=False)
        assert hard.category_counts["fpu_arith"] > 0
        assert soft.category_counts["fpu_arith"] == 0
        assert soft.retired > hard.retired


class TestSweepEquivalence:
    @pytest.fixture(scope="class")
    def grids(self, tmp_path_factory):
        """Metered vs profiled sweep of the whole smoke suite, one config."""
        runner = ExperimentRunner(
            cache_dir=tmp_path_factory.mktemp("wl-cache"), workers=1)
        space = DesignSpace.from_spec("clock_mhz=80")
        pairs = [spec.pair(SMOKE) for spec in SMOKE_SPECS]
        budget = SMOKE.max_instructions
        metered = sweep(space, pairs, budget=budget, runner=runner,
                        metered=True)
        profiled = sweep(space, pairs, budget=budget, runner=runner)
        return metered, profiled

    def test_profiled_sweep_matches_metered(self, grids):
        metered, profiled = grids
        assert len(metered.points) == len(SMOKE_SPECS)
        for a, b in zip(metered.points, profiled.points):
            assert (a.config, a.workload, a.build) == \
                (b.config, b.workload, b.build)
            assert b.retired == a.retired
            assert b.cycles == a.cycles      # bit-identical integers
            assert b.time_s == a.time_s
            assert b.area_les == a.area_les
            assert b.energy_j == pytest.approx(a.energy_j, rel=1e-12)


class TestCli:
    def test_workloads_list(self, capsys):
        assert main(["workloads", "list", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "img:sobel3x3" in out and "fse:00" in out
        assert "pipe:xfel" in out
        assert "15 workloads" in out
        assert "fse:23" not in out

    def test_workloads_list_filter(self, capsys):
        assert main(["workloads", "list", "--workloads", "img:*"]) == 0
        out = capsys.readouterr().out
        assert "img:histstats" in out
        assert "hevc:" not in out

    def test_dse_workloads_filter_warm_equals_cold(self, capsys):
        """``repro dse --workloads`` through the cached parallel runner:
        a cold run (computing + caching) and a warm re-run render
        byte-identical reports."""
        argv = ["dse", "--scale", "smoke", "--axes", "fpu",
                "--workloads", "img:downscale2x,img:median3x3",
                "--format", "json"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert '"img:downscale2x"' in cold

    def test_dse_rejects_unknown_workload_filter(self, capsys):
        assert main(["dse", "--scale", "smoke", "--axes", "fpu",
                     "--workloads", "bogus*"]) == 2
        assert "matches nothing" in capsys.readouterr().err

    def test_workloads_list_rejects_unknown_filter(self, capsys):
        assert main(["workloads", "list", "--workloads", "img:nope*"]) == 2
        assert "matches nothing" in capsys.readouterr().err


def test_select_pairs_compiles_both_builds():
    pairs = select_pairs("img:downscale2x", SMOKE)
    assert len(pairs) == 1
    assert pairs[0].float_program.word_count() > 0
    assert pairs[0].fixed_program.word_count() > 0
