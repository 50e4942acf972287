"""Experiment drivers at smoke scale: shapes of every table and figure."""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import (
    figure1,
    figure4,
    figure23,
    get_bench,
    get_scale,
    table1,
    table3,
    table4,
)
from repro.experiments.render import fmt_si, hbar, text_table
from repro.experiments.scale import DEFAULT, FULL, SMOKE
from repro.experiments.workloads import kernel_set, workload_pairs

#: SHA-256 of the stdout of ``repro <command> --scale smoke``.  The
#: table3 digest equals the one in ``perfbench/reference.json``.
REPORT_DIGESTS = {
    "table1":
        "68727aea04fd133490054d73458a58396a4f560b0f3460ed49e0425d67153747",
    "table3":
        "642fc2de8eb0e950052ec92af755a3f250cac43d18e482aed600b6bfa81fa0aa",
    "table4":
        "3e4620d2c7ef80772f6e0595108dcab2edce00d5d0580c83da329d8a10c600fd",
    "figure4":
        "64cb8c5621332eb83c772856ab0e0f9d88629011693d2b5749dcf8c8ba0a323a",
}


@pytest.fixture(scope="module")
def smoke():
    return get_scale("smoke")


class TestScale:
    def test_presets(self):
        assert SMOKE.name == "smoke"
        assert len(FULL.fse_indices) == 24
        assert len(FULL.hevc_indices) == 36
        assert len(DEFAULT.hevc_indices) == 12

    def test_lookup(self, monkeypatch):
        assert get_scale("full") is FULL
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale() is SMOKE
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_default_covers_all_configs_and_qps(self):
        from repro.codecs.hevclite import stream_specs
        specs = stream_specs()
        chosen = [specs[i] for i in DEFAULT.hevc_indices]
        assert {s.config for s in chosen} == {
            "intra", "lowdelay_p", "lowdelay", "randomaccess"}
        assert {s.qp for s in chosen} == {10, 32, 45}


class TestRender:
    def test_text_table(self):
        out = text_table(("a", "bb"), [(1, 2), (33, 4)], title="t")
        assert "t" in out and "33" in out
        assert out.count("\n") >= 5

    def test_hbar(self):
        assert hbar(5, 10, width=10) == "#####"
        assert hbar(0, 10) == ""
        assert hbar(20, 10, width=10) == "#" * 10

    def test_fmt_si(self):
        assert fmt_si(0.00123, "J") == "1.230 mJ"
        assert fmt_si(1.5, "s") == "1.500 s"
        assert "n" in fmt_si(2e-9, "J")


class TestWorkloadSets:
    def test_kernel_set_contents(self, smoke):
        kernels = kernel_set(smoke)
        names = [k[0] for k in kernels]
        # every kernel twice: float and fixed
        assert len(kernels) == 2 * (len(smoke.fse_indices)
                                    + len(smoke.hevc_indices))
        assert any("fse" in n and "float" in n for n in names)
        assert any("hevc" in n and "fixed" in n for n in names)

    def test_workload_pairs(self, smoke):
        pairs = workload_pairs(smoke)
        assert len(pairs) == len(smoke.fse_indices) + len(smoke.hevc_indices)
        for pair in pairs:
            assert pair.float_program.word_count() > 0
            assert pair.fixed_program.word_count() > 0


class TestDrivers:
    def test_table1_shape(self, smoke):
        result = table1.run(smoke)
        rows = result.rows()
        assert len(rows) == 9
        by_name = {r[0]: r for r in rows}
        # memory loads slowest of the IU categories, fsqrt slowest overall
        assert by_name["Memory Load"][1] > by_name["Integer Arithmetic"][1]
        assert by_name["FPU Square root"][1] > by_name["FPU Divide"][1]
        assert by_name["FPU Divide"][2] > by_name["FPU Arithmetic"][2]
        assert "Table I" in result.render()

    def test_table3_errors_within_band(self, smoke):
        result = table3.run(smoke)
        assert result.summary["energy"].mean_abs_percent < 5.0
        assert result.summary["time"].mean_abs_percent < 5.0
        assert result.summary["energy"].max_abs_percent < 12.0
        assert len(result.records) == 2 * (len(smoke.fse_indices)
                                           + len(smoke.hevc_indices))
        rendered = result.render(per_kernel=True)
        assert "Mean absolute error" in rendered
        assert "fse:00:float" in rendered

    def test_table4_shape(self, smoke):
        result = table4.run(smoke)
        assert result.estimated["fse"]["energy"] < -85
        assert -60 < result.estimated["hevc"]["energy"] < -25
        assert 90 < result.area_increase_percent < 130
        # estimates and measurements agree on the decision
        assert result.measured["fse"]["energy"] < \
            result.measured["hevc"]["energy"]
        assert "Table IV" in result.render()

    def test_figure1_ordering(self, smoke):
        result = figure1.run(smoke)
        by_name = {p.name: p for p in result.points}
        assert by_name["algorithm (host)"].wall_seconds < \
            by_name["cycle/energy model (CAS rung)"].wall_seconds
        assert by_name["ISS + model (our work)"].provides_nfp
        assert "Figure 1" in result.render()

    def test_figure2_trace(self):
        result = figure23.run_figure2()
        assert result.disassembly == "add %g2, %g4, %g1"
        assert "doArithmetic" in result.morph_group
        assert "42" in result.register_effect
        assert "machine code" in result.render()

    def test_figure3_grouping(self):
        result = figure23.run_figure3()
        assert "doArithmetic" in result.groups
        assert "add" in result.groups["doArithmetic"]
        assert "ba" in result.groups["doBranch"]
        members = [m for group in result.groups.values() for m in group]
        assert len(members) == len(set(members))  # each entry in one group

    def test_figure4_bars(self, smoke):
        result = figure4.run(smoke)
        assert [b.name for b in result.bars] == [
            "fse float", "fse fixed", "hevc float", "hevc fixed"]
        for bar in result.bars:
            assert abs(bar.energy_error_percent) < 12
        assert "Figure 4" in result.render()

    def test_bench_memoises_measurements(self, smoke):
        bench = get_bench(smoke)
        kernels = kernel_set(smoke)
        name, abi, program = kernels[0]
        first = bench.measure(name, program, abi == "hard")
        second = bench.measure(name, program, abi == "hard")
        assert first is second


class TestReportDigests:
    """Every digit of the paper's smoke-scale reports is pinned."""

    @pytest.mark.parametrize("command", sorted(REPORT_DIGESTS))
    def test_stdout_is_byte_identical(self, command, capsys):
        from repro.cli import main
        from repro.experiments.setup import reset_benches
        reset_benches()  # a fresh bench, as in a new CLI process
        assert main([command, "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        if command == "table3":
            errors = {line.split("|")[0].strip():
                      [cell.strip() for cell in line.split("|")[1:3]]
                      for line in out.splitlines()
                      if "absolute error" in line}
            assert errors == {"Mean absolute error": ["1.39 %", "1.65 %"],
                              "Maximum absolute error": ["5.82 %", "5.71 %"]}
        assert hashlib.sha256(out.encode()).hexdigest() == \
            REPORT_DIGESTS[command]


#: SHA-256 of the stdout of ``repro dse --scale smoke --format <fmt>``:
#: the stock 36-config grid over the Table III preset, priced from one
#: profile per workload build.
DSE_DIGESTS = {
    "text":
        "0784ff560a8cffb231ec4f96df445163425c6bc4b54c0ce989fcd4733f7c81c2",
    "csv":
        "5764ab32bce8734e93ac295a189c0c74f8d3e7f8afad471f2155d535fff738bd",
}


class TestDseReportDigests:
    """Every digit of the stock design-space sweep report is pinned."""

    @pytest.mark.parametrize("fmt", sorted(DSE_DIGESTS))
    def test_dse_stdout_is_byte_identical(self, fmt, capsys):
        from repro.cli import main
        assert main(["dse", "--scale", "smoke", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DSE_DIGESTS[fmt]
