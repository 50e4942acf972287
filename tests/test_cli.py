"""Command-line interface tests."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_disasm(capsys):
    assert main(["disasm", "0x82008004"]) == 0
    assert "add %g2, %g4, %g1" in capsys.readouterr().out


def test_figure2_command(capsys):
    assert main(["figure2"]) == 0
    assert "decoder" in capsys.readouterr().out


def test_figure3_command(capsys):
    assert main(["figure3"]) == 0
    assert "doBranch" in capsys.readouterr().out


def test_asm_and_run_commands(tmp_path, capsys):
    source = tmp_path / "k.s"
    source.write_text("""
    .text
_start:
    mov 6, %o1
    smul %o1, 7, %o0
    mov 2, %g1
    ta 5
    mov 0, %o0
    mov 0, %g1
    ta 5
    .data
buf: .word 0
""")
    assert main(["asm", str(source)]) == 0
    out = capsys.readouterr().out
    assert ".text" in out and "entry" in out

    assert main(["run", str(source)]) == 0
    out = capsys.readouterr().out
    assert "42" in out
    assert "exit code : 0" in out
    assert "int_arith" in out


def test_run_no_fpu_flag(tmp_path, capsys):
    source = tmp_path / "f.s"
    source.write_text("""
    .text
_start:
    faddd %f0, %f2, %f4
    mov 0, %g1
    ta 5
""")
    assert main(["run", str(source), "--no-fpu"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: fp_disabled trap at pc=0x40000000: faddd executed but the "
        "core has no FPU"]


#: guest programs that fault or hang: ``repro run`` exits 1
_GUEST_FAULTS = {
    "memory-fault": ("set 0x10, %o1\n    ld [%o1], %o0", "memory fault"),
    "illegal-instruction": (".word 0", "illegal instruction"),
    "division-by-zero": ("udiv %o0, %g0, %o1", "division by zero"),
    "unhandled-trap": ("ta 9", "unhandled trap 9"),
    "watchdog": ("ba _start\n    nop", "watchdog"),
}

#: (argv, stderr fragment) of input errors: exit 2
_INPUT_ERRORS = {
    "run-missing-file": (["run", "{missing}"], "No such file"),
    "asm-missing-file": (["asm", "{missing}"], "No such file"),
    "run-bad-assembly": (["run", "{bad}"], "line 3: unknown mnemonic"),
    "asm-bad-assembly": (["asm", "{bad}"], "line 3: unknown mnemonic"),
    "disasm-not-hex": (["disasm", "zz"], "not a 32-bit hex word"),
    "disasm-undecodable": (["disasm", "0xffffffff"], "cannot decode"),
    "disasm-too-wide": (["disasm", "0x182008004"], "not a 32-bit hex word"),
    "disasm-negative": (["disasm", "--", "-0x7dff7ffc"],
                        "not a 32-bit hex word"),
}


def _one_error_line(capsys, fragment: str) -> None:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert fragment in lines[0]
    assert "Traceback" not in captured.out


@pytest.mark.parametrize("case", sorted(_GUEST_FAULTS))
def test_run_guest_fault_exits_1(case, tmp_path, capsys):
    """A guest fault or the watchdog ends ``repro run`` with one
    ``error:`` line and exit status 1."""
    body, fragment = _GUEST_FAULTS[case]
    source = tmp_path / "k.s"
    source.write_text(f"    .text\n_start:\n    {body}\n"
                      "    mov 0, %g1\n    ta 5\n")
    assert main(["run", str(source), "--max-instructions", "1000"]) == 1
    _one_error_line(capsys, fragment)


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS))
def test_toolchain_input_error_exits_2(case, tmp_path, capsys):
    """Unreadable files, bad assembly and words that are not a
    decodable 32-bit instruction exit 2 with one ``error:`` line."""
    argv, fragment = _INPUT_ERRORS[case]
    bad = tmp_path / "bad.s"
    bad.write_text("    .text\n_start:\n    frobnicate %g1\n")
    paths = {"missing": tmp_path / "missing.s", "bad": bad}
    assert main([arg.format(**paths) for arg in argv]) == 2
    _one_error_line(capsys, fragment)


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_run_rejects_budget_below_one(budget, tmp_path, capsys):
    source = tmp_path / "k.s"
    source.write_text("    .text\n_start:\n    mov 0, %g1\n    ta 5\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(source), "--max-instructions", budget])
    assert exc.value.code == 2
    assert "--max-instructions: must be at least 1" in capsys.readouterr().err


def test_table1_smoke(capsys):
    assert main(["table1", "--scale", "smoke"]) == 0
    assert "Instruction category" in capsys.readouterr().out


def test_workloads_requires_action():
    with pytest.raises(SystemExit):
        main(["workloads"])
    with pytest.raises(SystemExit):
        main(["workloads", "frobnicate"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


@pytest.mark.parametrize("command", ["table3", "all"])
def test_report_command_exits_1_when_retries_run_out(
        command, monkeypatch, tmp_path, capsys):
    """A simulation that exhausts its retries ends a report command
    with one ``error:`` line and exit status 1, not a traceback."""
    from repro.experiments.setup import reset_benches
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # nothing cached
    monkeypatch.setenv("REPRO_CHAOS", "3:raise=1.0,depth=5")
    monkeypatch.setenv("REPRO_RETRIES", "1")
    monkeypatch.setenv("REPRO_BACKOFF_S", "0")
    reset_benches()
    assert main([command, "--scale", "smoke"]) == 1
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1
    assert "failed after 1 attempts" in errors[0]
    assert "Traceback" not in captured.err + captured.out


def test_simulation_path_never_imports_numpy(tmp_path):
    """numpy is a dependency of streamed pricing only: the Table III and
    workload paths (simulation, runner, report rendering) never load
    it, and neither does batch pricing of explicit configurations."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro
    code = (
        "import sys\n"
        "import repro.cli, repro.experiments.table3, repro.hw.board\n"
        "import repro.runner.tasks, repro.dse\n"
        "assert repro.cli.main(['workloads', 'list', '--scale', 'smoke']) == 0\n"
        "from repro.dse import DesignSpace\n"
        "from repro.nfp.linear import (BatchNfpEngine, ExecutionProfile,\n"
        "                              lower_profile)\n"
        "clocks = ':'.join(str(10 + i) for i in range(25))\n"
        "space = DesignSpace.from_spec(\n"
        "    f'clock_mhz={clocks},fpu,nwindows=4:8')\n"
        "profile = ExecutionProfile(\n"
        "    retired=3, clean=True, mnemonics={'add': (3, 0, 0, 0)},\n"
        "    branch_sites={}, div_sites={}, save_depths={},\n"
        "    restore_depths={})\n"
        "hws = [config.hw for config in space.iter_configs()]\n"
        "prices = BatchNfpEngine(hws).evaluate(lower_profile(profile))\n"
        "assert len(prices) == 100\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


#: the workload suite of a ``test_dse_rejects_bad_axis_values`` case,
#: when it is not fse:00 alone (at 3e152 MHz only the soft-float builds
#: overflow, so the fpu=1 configs of the three workloads stay finite)
SUITES = {"clock_mhz=3e152,fpu=0:1,nwindows=2:8":
          "fse:00,fse:01,img:sobel3x3"}


@pytest.mark.parametrize("mode", [
    pytest.param(["--stream"], id="--stream"),
    pytest.param([], id="materialized"),
])
@pytest.mark.parametrize("axes, message", [
    ("clock_mhz=-5", "clock_hz must be positive and finite"),
    ("clock_mhz=0", "clock_hz must be positive and finite"),
    ("clock_mhz=nan", "clock_hz must be positive and finite"),
    ("nwindows=1", "SPARC V8 allows 2..32 register windows"),
    ("clock_mhz=50:50:80",
     "axis 'clock_mhz' values 50.0 and 50.0 share the label 'clk50'"),
    ("clock_mhz=50:50.00001",
     "axis 'clock_mhz' values 50.0 and 50.00001 share the label 'clk50'"),
    ("fpu=1:1", "axis 'fpu' values True and True share the label 'fpu'"),
    ("clock_mhz=1e-320", "clock_hz must be at least 1 Hz"),
    pytest.param(f"wait_states={10 ** 400},fpu=1",
                 f"configuration 'ws{10 ** 400}-fpu' has no finite price: "
                 f"its time or energy overflows a float",
                 id="wait_states=1e400-no finite price"),
    # clocks whose V^2 energy factor overflows a float
    pytest.param("clock_mhz=1e200,fpu=1",
                 "configuration 'clk1e+200-fpu' has no finite price: "
                 "its time or energy overflows a float",
                 id="clock_mhz=1e200-no finite price"),
    pytest.param("clock_mhz=1e155,fpu=1",
                 "configuration 'clk1e+155-fpu' has no finite price: "
                 "its time or energy overflows a float",
                 id="clock_mhz=1e155-no finite price"),
    pytest.param("clock_mhz=3e152,fpu=0:1,nwindows=2:8",
                 "configuration 'clk3e+152-nofpu-w2' has no finite price: "
                 "its time or energy overflows a float",
                 id="clock_mhz=3e152-three workloads-no finite price"),
])
def test_dse_rejects_bad_axis_values(mode, axes, message, capsys):
    """Values the platform config rejects, values that would name two
    configurations alike, and a point whose price overflows a float
    exit 2 with one error line on the streamed and the materialized
    path alike."""
    workloads = SUITES.get(axes, "fse:00")
    argv = ["dse", "--scale", "smoke", *mode, "--workloads", workloads,
            "--axes", axes]
    assert main(argv) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error: ")]
    assert errors == [f"error: {message}"]
    assert captured.out == ""


def test_dse_refinement_never_repeats_a_configuration_name(capsys):
    """Midpoints 50.00005 and 50.00015 would print as clk50.0001 and
    clk50.0002, names 50.0001 and the grid's 50.0002 already hold:
    refinement skips them, so every row and the knee are unambiguous."""
    argv = ["dse", "--scale", "smoke", "--stream", "--workloads", "fse:00",
            "--axes", "clock_mhz=50:50.0002,fpu=1", "--refine", "6"]
    assert main(argv) == 0
    rows = [line.split("|") for line in capsys.readouterr().out.splitlines()
            if line.startswith(" clk")]
    assert [row[0].strip() for row in rows] \
        == ["clk50-fpu", "clk50.0002-fpu", "clk50.0001-fpu"]
    assert [row[-1].strip() for row in rows].count("front+knee") == 1


@pytest.mark.parametrize("argv, message", [
    (["--stream", "--front-cap", "0"], "positive"),
    (["--stream", "--front-cap", "-1"], "positive"),
    (["--front-cap", "8"], "--stream"),
], ids=["argv0-positive", "argv1-positive", "argv3---stream"])
def test_dse_front_cap_validation(argv, message, capsys):
    assert main(["dse", "--scale", "smoke", "--workloads", "fse:00",
                 *argv]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1 and message in errors[0]
    assert captured.out == ""
