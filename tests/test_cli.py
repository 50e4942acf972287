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
    from repro.vm import FpuDisabled
    with pytest.raises(FpuDisabled):
        main(["run", str(source), "--no-fpu"])


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
