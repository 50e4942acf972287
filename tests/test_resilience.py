"""Fault tolerance: retries, timeouts, chaos, quarantine, interrupts.

Every guarantee of :mod:`repro.runner.resilience` is exercised against
*injected* faults (the deterministic ``REPRO_CHAOS`` harness or
hand-planted cache damage) and proven to converge to the fault-free
result bit-for-bit -- the same property the CI chaos-smoke job gates on
whole reports.
"""

from __future__ import annotations

import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import DesignSpace, SweepReport, WorkloadPair, sweep
from repro.fse.kernel import build_fse_kernel
from repro.fse.params import FseParams
from repro.hw.config import leon3_fpu
from repro.kir import compile_module
from repro.runner import (
    ChaosError,
    ChaosPolicy,
    ExperimentRunner,
    ResilientExecutor,
    ResultCache,
    RetryPolicy,
    SimTask,
    TaskFailedError,
    UsageError,
    ensure_payload,
    is_failure,
    task_key,
)
from repro.runner import tasks as runner_tasks
from repro.runner.cache import corrupt_file
from repro.runner.resilience import (
    CORRUPTION_STYLES,
    TaskFailure,
    _roll,
    cache_base_dir,
    cache_enabled_from_env,
    env_float,
    env_int,
)

BUDGET = 2_000_000

#: The simulation entry point, before any test patches it.
RUN_TASK = runner_tasks.run_task

#: Fast backoff for tests -- semantics identical, waiting is not the point.
FAST = RetryPolicy(max_attempts=3, base_delay_s=0.001)


def _program(kernel_id: int = 0):
    params = FseParams(block=8, iterations=2)
    return compile_module(build_fse_kernel(kernel_id, params, size=8),
                          "hard")


def _task(kernel_id: int = 0) -> SimTask:
    return SimTask(mode="metered", program=_program(kernel_id),
                   budget=BUDGET, hw=leon3_fpu())


@pytest.fixture(scope="module")
def tasks():
    return [_task(i) for i in range(3)]


@pytest.fixture(scope="module")
def baseline(tasks):
    """Fault-free payloads, the bit-identity reference for every test."""
    return ExperimentRunner(workers=1).run_tasks(tasks)


@pytest.fixture(scope="module")
def tiny_pair():
    params = FseParams(block=8, iterations=2)
    module = build_fse_kernel(0, params, size=8)
    return WorkloadPair(
        name="fse:00",
        float_program=compile_module(module, "hard"),
        fixed_program=compile_module(module, "soft"))


def _canon(payloads):
    """Canonical payload bytes, minus the one wall-clock metadata field
    (host timing is the only thing a simulation is *allowed* to vary in)."""
    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items()
                    if k != "wall_seconds"}
        return obj
    return [json.dumps(scrub(p), sort_keys=True) for p in payloads]


# -- chaos spec grammar ------------------------------------------------------

def test_chaos_parse_full_spec():
    chaos = ChaosPolicy.parse(
        "41:kill=0.25,raise=0.5,slow=0.1,corrupt=1,slow_s=0.2,depth=3")
    assert chaos == ChaosPolicy(seed=41, kill=0.25, raise_=0.5, slow=0.1,
                                corrupt=1.0, slow_s=0.2, depth=3)


def test_chaos_spec_round_trips():
    chaos = ChaosPolicy(seed=7, kill=0.5, raise_=0.125, depth=2)
    assert ChaosPolicy.parse(chaos.spec()) == chaos


@pytest.mark.parametrize("spec", [
    "no-colon",                 # missing seed separator
    "x:kill=0.5",               # non-integer seed
    "1:explode=0.5",            # unknown fault name
    "1:kill",                   # entry without a value
    "1:kill=high",              # non-numeric rate
    "1:kill=1.5",               # rate out of [0, 1]
    "1:raise=-0.1",             # rate out of [0, 1]
    "1:depth=0",                # depth below 1
    "1:slow_s=0",               # non-positive stall
])
def test_chaos_parse_rejects(spec):
    with pytest.raises(UsageError):
        ChaosPolicy.parse(spec)


def test_chaos_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert ChaosPolicy.from_env() is None
    monkeypatch.setenv("REPRO_CHAOS", "9:raise=0.5")
    assert ChaosPolicy.from_env() == ChaosPolicy(seed=9, raise_=0.5)
    monkeypatch.setenv("REPRO_CHAOS", "9:bogus=1")
    with pytest.raises(UsageError):
        ChaosPolicy.from_env()


def test_chaos_rolls_are_deterministic_and_depth_gated():
    assert _roll(1, "kill", "k", 0) == _roll(1, "kill", "k", 0)
    assert _roll(1, "kill", "k", 0) != _roll(1, "kill", "k", 1)
    assert _roll(1, "kill", "k", 0) != _roll(2, "kill", "k", 0)
    always = ChaosPolicy(seed=1, kill=1.0, raise_=1.0, depth=2)
    # fault-eligible below depth, never at or above it
    assert always._should("kill", "k", 1, always.kill)
    assert not always._should("kill", "k", 2, always.kill)
    assert not always._should("kill", "k", 7, always.kill)


def test_chaos_corruption_styles_are_valid_and_sticky():
    chaos = ChaosPolicy(seed=3, corrupt=1.0)
    style = chaos.corruption("somekey")
    assert style in CORRUPTION_STYLES
    assert chaos.corruption("somekey") == style  # pure function
    assert ChaosPolicy(seed=3).corruption("somekey") is None  # rate 0


# -- retry policy and env validation -----------------------------------------

def test_backoff_is_deterministic_capped_and_growing():
    policy = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0, jitter=0.5)
    delays = [policy.delay_s("k", n) for n in range(1, 10)]
    assert delays == [policy.delay_s("k", n) for n in range(1, 10)]
    assert delays[0] >= 0.1
    assert all(d <= 1.0 * 1.5 for d in delays)  # cap plus max jitter
    # the uncapped prefix grows strictly
    assert delays[1] > delays[0]


def test_retry_policy_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_RETRIES", "5")
    monkeypatch.setenv("REPRO_TIMEOUT_S", "2.5")
    policy = RetryPolicy.from_env()
    assert policy.max_attempts == 5
    assert policy.timeout_s == 2.5
    monkeypatch.setenv("REPRO_RETRIES", "many")
    with pytest.raises(UsageError):
        RetryPolicy.from_env()
    monkeypatch.setenv("REPRO_RETRIES", "0")
    with pytest.raises(UsageError):
        RetryPolicy.from_env()


def test_env_knob_validation(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_WORKERS", "lots")
    with pytest.raises(UsageError):
        env_int("REPRO_WORKERS", 4)
    monkeypatch.setenv("REPRO_BACKOFF_S", "-1")
    with pytest.raises(UsageError):
        env_float("REPRO_BACKOFF_S", 0.05)
    monkeypatch.setenv("REPRO_CACHE", "sometimes")
    with pytest.raises(UsageError):
        cache_enabled_from_env()
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert cache_enabled_from_env() is False
    afile = tmp_path / "not-a-dir"
    afile.write_text("x")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(afile))
    with pytest.raises(UsageError):
        cache_base_dir()


# -- cache poisoning ---------------------------------------------------------

@pytest.mark.parametrize("style", CORRUPTION_STYLES)
def test_poisoned_entry_quarantined_and_recomputed(tmp_path, style, caplog):
    cache = ResultCache(tmp_path)
    payload = {"sim": {"retired": 7}, "x": 1.25}
    cache.put("deadbeef", payload)
    corrupt_file(tmp_path / "deadbeef.json", style)
    with caplog.at_level(logging.WARNING, logger="repro.runner"):
        assert cache.get("deadbeef") is None  # never surfaced
    assert cache.quarantined == 1
    assert [p.name for p in (tmp_path / "corrupt").iterdir()] \
        == ["deadbeef.json"]
    assert any("event=quarantine" in r.message for r in caplog.records)
    # the recompute-and-rewrite cycle restores the entry bit-for-bit
    cache.put("deadbeef", payload)
    assert cache.get("deadbeef") == payload


def test_warm_read_equals_cold_compute_after_poisoning(tmp_path, tasks,
                                                       baseline):
    runner = ExperimentRunner(cache_dir=tmp_path, workers=1, retry=FAST)
    assert _canon(runner.run_tasks(tasks)) == _canon(baseline)
    for task in tasks:  # poison every entry on disk
        corrupt_file(tmp_path / f"{task_key(task)}.json", "truncate")
    warm = ExperimentRunner(cache_dir=tmp_path, workers=1, retry=FAST)
    assert _canon(warm.run_tasks(tasks)) == _canon(baseline)
    assert warm.cache.quarantined == len(tasks)


def test_chaos_corruption_on_put_converges(tmp_path, caplog):
    chaos = ChaosPolicy(seed=5, corrupt=1.0)
    cache = ResultCache(tmp_path, chaos=chaos)
    with caplog.at_level(logging.WARNING, logger="repro.runner"):
        cache.put("k1", {"v": 1})          # damaged on write (once)
        assert cache.get("k1") is None     # quarantined, miss
        cache.put("k1", {"v": 1})          # rewrite stays clean
        assert cache.get("k1") == {"v": 1}
    assert any("event=chaos-corrupt" in r.message for r in caplog.records)


# -- retries, attempt budgets, failure payloads ------------------------------

def test_serial_retry_converges_to_fault_free(tasks, baseline, caplog):
    chaos = ChaosPolicy(seed=11, raise_=1.0, depth=1)
    runner = ExperimentRunner(workers=1, retry=FAST, chaos=chaos)
    with caplog.at_level(logging.WARNING, logger="repro.runner"):
        payloads = runner.run_tasks(tasks)
    assert _canon(payloads) == _canon(baseline)
    assert sum("event=retry" in r.message for r in caplog.records) \
        == len(tasks)


def test_exhausted_budget_yields_failure_payload_not_crash(tmp_path,
                                                           caplog):
    # depth exceeds the attempt budget: the fault always wins
    chaos = ChaosPolicy(seed=13, raise_=1.0, depth=10)
    policy = RetryPolicy(max_attempts=2, base_delay_s=0.001)
    runner = ExperimentRunner(cache_dir=tmp_path, workers=1, retry=policy,
                              chaos=chaos)
    with caplog.at_level(logging.WARNING, logger="repro.runner"):
        payload = runner.run_tasks([_task()])[0]
    assert is_failure(payload)
    failure = TaskFailure.from_payload(payload)
    assert failure.attempts == 2
    assert "ChaosError" in failure.error
    assert any("event=task-failed" in r.message for r in caplog.records)
    # failures are never cached, in any tier
    assert len(runner.cache) == 0
    assert runner._memory == {}
    # single-result conveniences surface the failure as an exception
    with pytest.raises(TaskFailedError):
        ensure_payload(payload)


# -- pool-level faults: crashes, stalls, degradation -------------------------

def test_worker_kill_is_isolated_and_retried(tasks, baseline, caplog):
    chaos = ChaosPolicy(seed=17, kill=1.0, depth=1)
    executor = ResilientExecutor(2, policy=FAST, chaos=chaos)
    keys = [task_key(t) for t in tasks]
    with caplog.at_level(logging.WARNING, logger="repro.runner"):
        payloads = executor.run(list(tasks), keys)
    assert _canon(payloads) == _canon(baseline)
    assert any("event=pool-broken" in r.message for r in caplog.records)
    assert not executor.degraded


def test_stalled_generation_hits_watchdog_and_recovers(tasks, baseline,
                                                       caplog):
    chaos = ChaosPolicy(seed=19, slow=1.0, slow_s=5.0, depth=1)
    policy = RetryPolicy(max_attempts=3, base_delay_s=0.001, timeout_s=0.3)
    executor = ResilientExecutor(2, policy=policy, chaos=chaos)
    keys = [task_key(t) for t in tasks]
    with caplog.at_level(logging.WARNING, logger="repro.runner"):
        payloads = executor.run(list(tasks), keys)
    assert _canon(payloads) == _canon(baseline)
    assert any("event=timeout" in r.message for r in caplog.records)


def test_repeated_pool_failures_downgrade_to_serial(tasks, baseline,
                                                    caplog):
    # depth 2 with a one-incident budget: the first kill breaks the pool
    # and trips the downgrade; the serial path absorbs the remaining
    # chaos as in-process ChaosErrors and retries through them
    chaos = ChaosPolicy(seed=23, kill=1.0, depth=2)
    policy = RetryPolicy(max_attempts=4, base_delay_s=0.001,
                         max_pool_failures=1)
    executor = ResilientExecutor(2, policy=policy, chaos=chaos)
    keys = [task_key(t) for t in tasks]
    with caplog.at_level(logging.WARNING, logger="repro.runner"):
        payloads = executor.run(list(tasks), keys)
    assert _canon(payloads) == _canon(baseline)
    assert executor.degraded
    assert any("event=downgrade" in r.message for r in caplog.records)


# -- chaos convergence over whole sweeps (property) --------------------------

@pytest.fixture(scope="module")
def fault_free_render(tiny_pair):
    grid = sweep(DesignSpace.single("fpu"), [tiny_pair], budget=BUDGET,
                 runner=ExperimentRunner(workers=1), metered=True)
    return SweepReport(grid).render("json")


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_any_chaos_seed_converges_byte_identically(seed, tiny_pair,
                                                   fault_free_render):
    """The tentpole property: once retries settle, a chaos run of the
    sweep is byte-identical to the fault-free run, for *any* seed."""
    chaos = ChaosPolicy(seed=seed, kill=0.4, raise_=0.6, depth=2)
    runner = ExperimentRunner(
        workers=1, chaos=chaos,
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.001))
    grid = sweep(DesignSpace.single("fpu"), [tiny_pair], budget=BUDGET,
                 runner=runner, metered=True)
    assert SweepReport(grid).render("json") == fault_free_render


def test_sweep_tolerates_terminal_failures(tiny_pair, fault_free_render):
    """All-fail chaos: every cell becomes a marked failure, the report
    still renders in every format, and nothing raises."""
    chaos = ChaosPolicy(seed=29, raise_=1.0, depth=10)
    runner = ExperimentRunner(
        workers=1, chaos=chaos,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.001))
    grid = sweep(DesignSpace.single("fpu"), [tiny_pair], budget=BUDGET,
                 runner=runner, metered=True)
    assert not grid.points
    assert len(grid.failures) == 2  # fpu on/off, one workload
    report = SweepReport(grid)
    text = report.render("text")
    assert "no complete configurations" in text
    assert "failed cells: 2" in text
    assert json.loads(report.render("json"))["pareto"]["knee"] is None
    assert [f["config"] for f in
            json.loads(report.render("json"))["failures"]] \
        == [f.config for f in grid.failures]
    assert report.render("csv").count(",failed") == 2


# -- interrupt and re-run ----------------------------------------------------

def _record_runs(monkeypatch, interrupt_after: int | None = None) -> list:
    """The list of tasks simulated from now on (serial runners only);
    with ``interrupt_after``, Ctrl-C arrives once that many finished."""
    ran = []

    def run_task(task):
        if interrupt_after is not None and len(ran) >= interrupt_after:
            raise KeyboardInterrupt
        ran.append(task)
        return RUN_TASK(task)

    monkeypatch.setattr(runner_tasks, "run_task", run_task)
    return ran


def test_interrupted_sweep_checkpoints_and_resumes_byte_identically(
        tmp_path, tiny_pair, fault_free_render, monkeypatch):
    """Ctrl-C after the first task of a 2-cell metered sweep keeps that
    task in the result cache; the same sweep run again computes only
    the other one and renders the fault-free report."""
    space = DesignSpace.single("fpu")
    _record_runs(monkeypatch, interrupt_after=1)
    with pytest.raises(KeyboardInterrupt):
        sweep(space, [tiny_pair], budget=BUDGET, metered=True,
              runner=ExperimentRunner(cache_dir=tmp_path, workers=1))
    assert len(ResultCache(tmp_path)) == 1

    ran = _record_runs(monkeypatch)
    grid = sweep(space, [tiny_pair], budget=BUDGET, metered=True,
                 runner=ExperimentRunner(cache_dir=tmp_path, workers=1))
    assert len(ran) == 1
    assert SweepReport(grid).render("json") == fault_free_render


def test_driver_resume_matches_uninterrupted_run(tmp_path, monkeypatch):
    """Running a finished sweep again renders the same report from the
    result cache alone, and no run manifest appears."""
    from repro.experiments import dse as dse_driver
    from repro.experiments.setup import reset_benches
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKERS", "1")
    reset_benches()
    first = dse_driver.run("smoke", axes="fpu", workloads="fse:00")
    ran = _record_runs(monkeypatch)
    again = dse_driver.run("smoke", axes="fpu", workloads="fse:00")
    assert ran == []
    assert again.render("json") == first.render("json")
    assert not (tmp_path / "runs").exists()


# -- CLI surface -------------------------------------------------------------

def test_cli_dse_flags_parse(capsys):
    from repro.cli import build_parser
    assert build_parser().parse_args(["dse", "--verbose"]).verbose
    for flag in ("--resume", "--run-id"):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["dse", flag, "abc123"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} abc123" \
            in capsys.readouterr().err


def test_cli_usage_error_exits_2(monkeypatch, capsys):
    from repro.cli import main
    monkeypatch.setenv("REPRO_WORKERS", "lots")
    assert main(["dse", "--scale", "smoke"]) == 2
    assert "error: REPRO_WORKERS" in capsys.readouterr().err
    monkeypatch.delenv("REPRO_WORKERS")
    monkeypatch.setenv("REPRO_CHAOS", "broken")
    assert main(["dse", "--scale", "smoke"]) == 2
    assert "error: chaos spec" in capsys.readouterr().err


def test_cli_unknown_resume_exits_2(monkeypatch, tmp_path, capsys):
    from repro.cli import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as excinfo:
        main(["dse", "--scale", "smoke", "--resume", "nope"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --resume nope" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_interrupt_exits_130_and_writes_no_manifest(
        monkeypatch, tmp_path, capsys):
    """Ctrl-C during ``repro dse`` prints one line and exits 130, like
    every other command: what finished stays in the result cache, and
    nothing is written under ``<cache root>/runs``."""
    from repro.cli import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKERS", "1")
    _record_runs(monkeypatch, interrupt_after=1)
    assert main(["dse", "--scale", "smoke", "--workloads", "fse:00",
                 "--axes", "fpu"]) == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out == ""
    assert len(ResultCache(tmp_path)) == 1
    assert not (tmp_path / "runs").exists()


def test_cli_verbose_prints_doctor_summary(monkeypatch, capsys):
    from repro.experiments.setup import effective_settings
    monkeypatch.setenv("REPRO_CHAOS", "9:raise=0.5")
    monkeypatch.setenv("REPRO_CACHE", "off")
    rows = dict(effective_settings())
    assert rows["workers"]
    assert rows["cache"].startswith("off")
    assert rows["chaos"].startswith("9:")
