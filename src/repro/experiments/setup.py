"""Shared experiment infrastructure: boards, calibration, runner, caches.

One board pair (with and without FPU) and one calibrated model per scale
are shared across all experiment drivers in a process.  A board measures
a kernel with one profiled run priced for its configuration
(:meth:`repro.hw.board.Board.measure_raw`; self-modifying kernels are
metered per instruction instead).  Workload runs go
through an :class:`~repro.runner.ExperimentRunner`: simulation results
are content-addressed on disk (shared across figures, processes and
repeated invocations) and batches fan out over worker processes, while
the stateful instrument model is applied in the parent in measurement
order -- so results are bit-identical serial, parallel, warm or cold.

Environment knobs (the CLI flags set these too):

``REPRO_CACHE_DIR``
    Result-cache directory (default ``~/.cache/repro-nfp``).
``REPRO_CACHE=off``
    Disable the on-disk cache (an in-process cache remains).
``REPRO_WORKERS``
    Worker processes per batch (default ``min(cpu_count, 8)``).
``REPRO_RETRIES`` / ``REPRO_BACKOFF_S`` / ``REPRO_TIMEOUT_S`` /
``REPRO_POOL_FAILURES``
    Resilience knobs (see :mod:`repro.runner.resilience`).
``REPRO_CHAOS=<seed>:<spec>``
    Deterministic fault injection for testing the above.

All knobs are validated on first read; a malformed value raises
:class:`~repro.runner.resilience.UsageError` (a one-line CLI error)
instead of surfacing a traceback from deep inside a sweep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable

from repro.asm.program import Program
from repro.hw.board import Board, Measurement
from repro.hw.config import leon3_fpu, leon3_nofpu
from repro.hw.powermeter import InstrumentModel
from repro.nfp.calibration import CalibrationResult, Calibrator
from repro.nfp.estimator import EstimationReport, NFPEstimator
from repro.runner import (
    ChaosPolicy,
    ExperimentRunner,
    RetryPolicy,
    SimTask,
    default_workers,
    program_digest,
)
from repro.runner.resilience import cache_dir_from_env
from repro.experiments.scale import Scale


def runner_from_env() -> ExperimentRunner:
    """Build the shared runner according to the ``REPRO_*`` environment.

    Every knob is validated here (first read), so a typo'd
    ``REPRO_WORKERS=lots`` fails as a :class:`UsageError` before any
    simulation starts.
    """
    return ExperimentRunner(cache_dir=cache_dir_from_env())


def effective_settings() -> list[tuple[str, str]]:
    """The resolved runner/resilience environment, as ``(knob, value)``
    rows -- the ``repro dse --verbose`` doctor summary."""
    retry = RetryPolicy.from_env()
    chaos = ChaosPolicy.from_env()
    cache_dir = cache_dir_from_env()
    return [
        ("workers", str(default_workers())),
        ("cache", cache_dir if cache_dir else "off (in-process tier only)"),
        ("retries per task", str(retry.max_attempts)),
        ("backoff base", f"{retry.base_delay_s:g}s"),
        ("task timeout", f"{retry.timeout_s:g}s" if retry.timeout_s
         else "off"),
        ("pool failure budget", str(retry.max_pool_failures)),
        ("chaos", chaos.spec() if chaos else "off"),
    ]


@dataclass
class Bench:
    """The full measurement/estimation environment at one scale."""

    scale: Scale
    board_fpu: Board
    board_nofpu: Board
    calibration: CalibrationResult
    estimator_fpu: NFPEstimator
    estimator_nofpu: NFPEstimator
    runner: ExperimentRunner
    _measurements: dict[tuple[str, str, bool], Measurement] = field(
        default_factory=dict)
    _estimates: dict[tuple[str, str, bool], EstimationReport] = field(
        default_factory=dict)

    def _key(self, name: str, program: Program,
             fpu: bool) -> tuple[str, str, bool]:
        # keyed by *content*, not just name: two different programs
        # measured under one name can never alias each other's results
        return (name, program_digest(program), fpu)

    def measure(self, name: str, program: Program,
                fpu: bool) -> Measurement:
        """Measure ``program`` on the matching board (memoised)."""
        key = self._key(name, program, fpu)
        measurement = self._measurements.get(key)
        if measurement is None:
            board = self.board_fpu if fpu else self.board_nofpu
            raw = self.runner.metered_raw(
                program, board.config, self.scale.max_instructions)
            measurement = board.reading(raw)
            self._measurements[key] = measurement
        return measurement

    def estimate(self, name: str, program: Program,
                 fpu: bool) -> EstimationReport:
        """Estimate ``program`` with the calibrated model (memoised).

        Every simulator loop retires bit-identical category counts, so
        when the kernel was already measured, the model is applied to the
        measured run's counts and no second simulation happens at all.
        """
        key = self._key(name, program, fpu)
        report = self._estimates.get(key)
        if report is None:
            estimator = self.estimator_fpu if fpu else self.estimator_nofpu
            measurement = self._measurements.get(key)
            if measurement is not None:
                sim = measurement.sim
            else:
                sim = self.runner.fast_sim(
                    program, estimator.core, self.scale.max_instructions)
            report = estimator.report_from_result(sim, kernel_name=name)
            self._estimates[key] = report
        return report

    def prefetch(self, items: Iterable[tuple[str, Program, bool]]) -> None:
        """Warm the runner for a batch of ``(name, program, fpu)`` runs.

        All not-yet-memoised metered simulations are submitted in one
        batch, so they fan out across the pool and land in the shared
        cache; the later :meth:`measure`/:meth:`estimate` calls then only
        replay instrument readings in call order.
        """
        tasks = []
        for name, program, fpu in items:
            if self._key(name, program, fpu) in self._measurements:
                continue
            board = self.board_fpu if fpu else self.board_nofpu
            tasks.append(SimTask(
                mode="metered", program=program,
                budget=self.scale.max_instructions, hw=board.config))
        if tasks:
            self.runner.run_tasks(tasks)

    def prefetch_pairs(self, pairs) -> None:
        """Prefetch both builds of every float/fixed workload pair."""
        self.prefetch([(f"{pair.name}:{tag}", program, fpu)
                       for pair in pairs
                       for tag, program, fpu in (
                           ("float", pair.float_program, True),
                           ("fixed", pair.fixed_program, False))])


_BENCHES: dict[tuple, Bench] = {}


def get_bench(scale: Scale) -> Bench:
    """Build (or fetch) the shared bench for ``scale``.

    Keyed by the environment knobs too: ``table3`` followed by
    ``table3 --no-cache`` (or ``--workers``) in one process must not
    reuse the first call's boards and runner.
    """
    env_key = (scale.name,
               os.environ.get("REPRO_CACHE", ""),
               os.environ.get("REPRO_CACHE_DIR", ""),
               os.environ.get("REPRO_WORKERS", ""))
    if env_key in _BENCHES:
        return _BENCHES[env_key]
    runner = runner_from_env()
    instruments = InstrumentModel(seed=2015)
    board_fpu = Board(leon3_fpu(), instruments)
    board_nofpu = Board(leon3_nofpu(), instruments)
    calibrator = Calibrator(board_fpu,
                            iterations=scale.calibration_iterations,
                            unroll=scale.calibration_unroll,
                            runner=runner)
    calibration = calibrator.calibrate()
    model = calibration.to_model()
    bench = Bench(
        scale=scale,
        board_fpu=board_fpu,
        board_nofpu=board_nofpu,
        calibration=calibration,
        estimator_fpu=NFPEstimator(model, board_fpu.config.core),
        estimator_nofpu=NFPEstimator(model, board_nofpu.config.core),
        runner=runner,
    )
    _BENCHES[env_key] = bench
    return bench


def reset_benches() -> None:
    """Drop all cached benches (tests use this for isolation)."""
    _BENCHES.clear()
