"""The experiment runner: content-addressed caching and process fan-out.

Cold compute, warm cache reads and pool workers must all return
bit-identical payloads; the bench memoisation must key on program content
so name collisions can never alias results.
"""

from __future__ import annotations

import json
import pickle
import time

import pytest

from repro.asm import assemble
from repro.hw.board import Board
from repro.hw.config import leon3_fpu, leon3_nofpu
from repro.hw.powermeter import PerfectInstruments
from repro.nfp.calibration import Calibrator
from repro.runner import (
    ExperimentRunner,
    ResultCache,
    SimTask,
    program_digest,
    run_task,
    sim_from_dict,
    sim_to_dict,
    task_key,
)
from repro.vm import CoreConfig, Simulator

KERNEL_A = """
    .text
_start:
    set 400, %o1
loop:
    add %o0, 3, %o0
    subcc %o1, 1, %o1
    bne loop
    nop
    mov 0, %o0
    mov 0, %g1
    ta 5
"""

KERNEL_B = KERNEL_A.replace("add %o0, 3, %o0", "add %o0, 7, %o0")


def _task(source=KERNEL_A, mode="metered", budget=5_000_000) -> SimTask:
    program = assemble(source)
    if mode == "metered":
        return SimTask(mode="metered", program=program, budget=budget,
                       hw=leon3_fpu())
    return SimTask(mode="fast", program=program, budget=budget,
                   core=CoreConfig())


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"a": 1, "f": 0.1})
        assert cache.get("k" * 64) == {"a": 1, "f": 0.1}
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / ("x" * 64 + ".json")).write_text("{not json")
        assert cache.get("x" * 64) is None


class TestKeys:
    def test_program_digest_tracks_content(self):
        a1 = assemble(KERNEL_A)
        a2 = assemble(KERNEL_A)
        b = assemble(KERNEL_B)
        assert program_digest(a1) == program_digest(a2)
        assert program_digest(a1) != program_digest(b)

    def test_task_key_sensitivity(self):
        base = _task()
        assert task_key(base) == task_key(_task())
        assert task_key(base) != task_key(_task(source=KERNEL_B))
        assert task_key(base) != task_key(_task(mode="fast"))
        assert task_key(base) != task_key(_task(budget=1_000_000))

    def test_task_validation(self):
        program = assemble(KERNEL_A)
        with pytest.raises(ValueError):
            SimTask(mode="fast", program=program, budget=1)
        with pytest.raises(ValueError):
            SimTask(mode="bogus", program=program, budget=1,
                    core=CoreConfig())


class TestSerialization:
    def test_table3_tasks_pickle_to_about_their_image(self):
        """A task ships its program image and little else: each Table-III
        kernel's task pickles to under twice its text and data, plus
        32 KiB for the cost tables."""
        from repro.experiments.scale import get_scale
        from repro.experiments.workloads import kernel_set
        scale = get_scale("smoke")
        for name, abi, program in kernel_set(scale):
            hw = leon3_fpu() if abi == "hard" else leon3_nofpu()
            task = SimTask(mode="metered", program=program,
                           budget=scale.max_instructions, hw=hw)
            image = len(program.text) + len(program.data)
            assert len(pickle.dumps(task)) < 2 * image + (32 << 10), name

    def test_sim_result_roundtrip(self):
        sim = Simulator(assemble(KERNEL_A)).run()
        data = json.loads(json.dumps(sim_to_dict(sim)))
        restored = sim_from_dict(data)
        assert restored == sim  # dataclass equality covers every field

    def test_payload_floats_roundtrip_exactly(self):
        payload = run_task(_task())
        again = json.loads(json.dumps(payload))
        assert again == payload
        assert again["dyn_energy_nj"] == payload["dyn_energy_nj"]


class TestRunner:
    def test_warm_equals_cold(self, tmp_path):
        task = _task()
        cold_runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        cold = cold_runner.metered_raw(task.program, task.hw, task.budget)
        assert cold_runner.cache.misses == 1
        warm_runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        warm = warm_runner.metered_raw(task.program, task.hw, task.budget)
        assert warm_runner.cache.hits == 1 and warm_runner.cache.misses == 0
        assert warm.cycles == cold.cycles
        assert warm.dyn_energy_nj == cold.dyn_energy_nj
        assert warm.true_energy_j == cold.true_energy_j
        assert warm.sim == cold.sim

    def test_batch_dedupes_identical_tasks(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        payloads = runner.run_tasks([_task(), _task()])
        assert payloads[0] == payloads[1]
        assert len(runner.cache) == 1

    def test_memory_tier_without_disk(self):
        runner = ExperimentRunner(cache_dir=None, workers=1)
        first = runner.run_tasks([_task()])[0]
        # a second batch must not recompute: the payload is served from
        # the in-process tier (observable as identity)
        assert runner.run_tasks([_task()])[0] is first

    def test_pool_matches_inline(self, tmp_path):
        def strip_wall(payload):
            data = json.loads(json.dumps(payload))
            sim = data["sim"] if "sim" in data else data
            sim.pop("wall_seconds", None)
            return data

        tasks = [_task(), _task(source=KERNEL_B),
                 _task(mode="fast")]
        inline = ExperimentRunner(cache_dir=None, workers=1).run_tasks(tasks)
        pooled = ExperimentRunner(cache_dir=None, workers=2).run_tasks(tasks)
        # wall_seconds is a host-side timing, the only nondeterminism
        assert [strip_wall(p) for p in pooled] == \
            [strip_wall(p) for p in inline]

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_interrupted_batch_keeps_what_finished(self, tmp_path,
                                                   monkeypatch, workers):
        """Ctrl-C after k of a batch's n tasks finished leaves exactly
        those k in the cache, and the batch run again computes only
        the other n - k."""
        from repro.runner import tasks as runner_tasks
        batch = [_task(), _task(source=KERNEL_B), _task(mode="fast"),
                 _task(budget=4_000_000)]
        finished = batch[:-1]
        real = runner_tasks.run_task

        def run_or_interrupt(task):
            if task.budget != batch[-1].budget:
                return real(task)
            # the last task is interrupted once the others are stored
            # (pool workers inherit this patch when they fork)
            deadline = time.monotonic() + 20.0
            while len(ResultCache(tmp_path)) < len(finished) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_tasks, "run_task", run_or_interrupt)
        runner = ExperimentRunner(cache_dir=tmp_path, workers=workers)
        with pytest.raises(KeyboardInterrupt):
            runner.run_tasks(batch)
        assert sorted(path.stem for path in tmp_path.glob("*.json")) \
            == sorted(task_key(task) for task in finished)

        monkeypatch.setattr(runner_tasks, "run_task", real)
        again = ExperimentRunner(cache_dir=tmp_path, workers=workers)
        payloads = again.run_tasks(batch)
        assert (again.cache.hits, again.cache.misses) \
            == (len(finished), len(batch) - len(finished))
        assert len(again.cache) == len(batch)
        assert payloads[:-1] == [runner.cache.get(task_key(task))
                                 for task in finished]

    def test_fast_sim_payload(self):
        runner = ExperimentRunner(cache_dir=None, workers=1)
        program = assemble(KERNEL_A)
        sim = runner.fast_sim(program, CoreConfig(), 5_000_000)
        direct = Simulator(program).run(max_instructions=5_000_000)
        assert sim.category_counts == direct.category_counts
        assert sim.exit_code == direct.exit_code


class TestBenchIntegration:
    def test_measure_keyed_by_program_digest(self):
        """The name-collision satellite: same name, different program."""
        from repro.experiments import get_bench, get_scale
        bench = get_bench(get_scale("smoke"))
        m_a = bench.measure("collide", assemble(KERNEL_A), True)
        m_b = bench.measure("collide", assemble(KERNEL_B), True)
        # the kernels differ only in operand data, so the data-dependent
        # energy is what tells their (distinct) results apart
        assert m_a.true_energy_j != m_b.true_energy_j
        # and re-measuring identical content under the same name memoises
        assert bench.measure("collide", assemble(KERNEL_A), True) is m_a

    def test_estimate_reuses_measured_counts(self):
        from repro.experiments import get_bench, get_scale
        bench = get_bench(get_scale("smoke"))
        program = assemble(KERNEL_A)
        meas = bench.measure("reuse-me", program, True)
        report = bench.estimate("reuse-me", program, True)
        assert report.sim is meas.sim  # no second simulation happened

    def test_calibration_identical_with_and_without_runner(self, tmp_path):
        def calibrate(runner):
            board = Board(leon3_fpu(), PerfectInstruments())
            return Calibrator(board, iterations=100, unroll=8,
                              runner=runner).calibrate(
                                  ["int_arith", "mem_load"])

        plain = calibrate(None)
        cached = calibrate(ExperimentRunner(cache_dir=tmp_path, workers=1))
        for cid in ("int_arith", "mem_load"):
            assert plain.records[cid].time_ns == cached.records[cid].time_ns
            assert plain.records[cid].energy_nj == \
                cached.records[cid].energy_nj
