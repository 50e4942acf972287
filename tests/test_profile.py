"""Profile-once evaluation == metered simulation, across the cost model.

The execution profile (:mod:`repro.vm.profiler`) plus the linear
evaluator (:mod:`repro.nfp.linear`) must reproduce stepwise metering
(``tests.helpers.meter_stepwise``, the root oracle) for *any* hardware
configuration: bit-identical integer counters and cycles (hence
bit-identical times) and dynamic energy within the oracle accumulator's
own float rounding (1e-12 relative).  These tests pin that contract per
board, per sweep (property-based over randomized axis values and over
all five sweep axes), and pin the edge rules: profiled block dispatch vs
per-instruction observation, self-modifying kernels falling back to full
simulation, watchdog behaviour, and the cache schema bumps isolating
current payloads from older entries.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.dse import DesignSpace, WorkloadPair, get_axis, sweep
from repro.dse.evaluate import profile_core, profile_task
from repro.hw import Board
from repro.hw.config import leon3_fpu, leon3_nofpu
from repro.isa.categories import CATEGORY_IDS
from repro.nfp.linear import ExecutionProfile, LinearNfpEngine
from repro.runner import ExperimentRunner, SimTask
from repro.runner.cache import ResultCache
from repro.runner.tasks import raw_to_payload, run_task, task_key
from repro.vm import CoreConfig, Simulator, WatchdogTimeout
from repro.vm.profiler import ProfileMeter

from tests.helpers import meter_stepwise

BUDGET = 5_000_000

#: Integer workload: taken/untaken branches, operand-dependent divides,
#: deep save/restore chains (spills for small window counts), memory
#: traffic -- every flag behaviour of the cost model.
FIXED_KERNEL = """
    .text
_start:
    save %sp, -96, %sp
    set 150, %l0
    set 123456789, %l1
    set buf, %l7
outer:
    set 15, %l2
inner:
    add %l1, %l2, %l3
    xor %l3, %l1, %l1
    smul %l1, 3, %l4
    subcc %l2, 1, %l2
    bne inner
    nop
    udiv %l1, 17, %l5
    sdiv %l5, 3, %l6
    st %l6, [%l7]
    ld [%l7], %l6
    andcc %l0, 3, %g0
    be skip
    nop
    call deeper
    nop
skip:
    subcc %l0, 1, %l0
    bne outer
    nop
    mov 0, %o0
    mov 0, %g1
    ta 5
deeper:
    save %sp, -96, %sp
    save %sp, -96, %sp
    save %sp, -96, %sp
    udiv %i0, 7, %l3
    restore
    restore
    restore
    retl
    nop

    .data
    .align 4
buf:
    .word 0
"""

#: Float workload: the integer body plus FP arithmetic, compares and
#: FP branches (runs only on FPU-bearing configurations).
FLOAT_KERNEL = FIXED_KERNEL.replace(
    """skip:
    subcc %l0, 1, %l0""",
    """skip:
    lddf [%l7 + 8], %f0
    lddf [%l7 + 16], %f2
    faddd %f0, %f2, %f4
    fmuld %f4, %f2, %f4
    fdivd %f4, %f2, %f6
    fsqrtd %f6, %f8
    fcmpd %f8, %f2
    fbg fkeep
    nop
    fmovs %f2, %f8
fkeep:
    fdtoi %f8, %f10
    subcc %l0, 1, %l0""").replace(
    """buf:
    .word 0
""",
    """buf:
    .word 0, 0
    .word 0x40091EB8, 0x51EB851F   ! 3.14
    .word 0x3FF80000, 0x00000000   ! 1.5
""")


@pytest.fixture(scope="module")
def pair():
    return WorkloadPair(name="mix",
                        float_program=assemble(FLOAT_KERNEL),
                        fixed_program=assemble(FIXED_KERNEL))


@pytest.fixture(scope="module")
def shared_runner(tmp_path_factory):
    return ExperimentRunner(
        cache_dir=tmp_path_factory.mktemp("profile-cache"), workers=1)


def profile_program(program, core):
    meter = ProfileMeter()
    simulator = Simulator(program, profile_core(core))
    sim = simulator.run_profiled(meter, max_instructions=BUDGET)
    payload = meter.snapshot(sim, clean=simulator.cpu.invalidations == 0)
    return ExecutionProfile.from_payload(payload), sim, payload


def assert_grids_match(metered, profiled, energy_tol=1e-12):
    # 1e-12 has ample margin here: the deviation is the metered
    # accumulator's own rounding drift, ~sqrt(retired) * eps, and these
    # kernels retire ~2e4 instructions (drift ~1e-14).  Longer workloads
    # need a proportionally padded tolerance.
    assert len(metered.points) == len(profiled.points)
    for a, b in zip(metered.points, profiled.points):
        assert (a.config, a.workload, a.build) == \
            (b.config, b.workload, b.build)
        assert b.retired == a.retired
        assert b.cycles == a.cycles          # bit-identical integers
        assert b.time_s == a.time_s          # same cycles, same conversion
        assert b.area_les == a.area_les
        assert b.energy_j == pytest.approx(a.energy_j, rel=energy_tol)


# -- board-level equivalence --------------------------------------------------

class TestLinearEvaluation:
    @pytest.mark.parametrize("factory", [
        lambda: leon3_fpu(),
        lambda: leon3_fpu(nwindows=4),
        lambda: leon3_fpu(nwindows=2),
        lambda: get_axis("wait_states").apply(leon3_fpu(), 3),
        lambda: get_axis("clock_mhz").apply(leon3_fpu(), 80.0),
    ], ids=["base", "w4", "w2", "ws3", "clk80"])
    def test_matches_board(self, factory, pair):
        """The engine and the board (profile + price) == the oracle."""
        hw = factory()
        oracle = meter_stepwise(pair.float_program, hw, BUDGET)
        profile, sim, _ = profile_program(pair.float_program, hw.core)
        nfp = LinearNfpEngine(hw).evaluate(profile)
        board = Board(hw).measure_raw(pair.float_program,
                                      max_instructions=BUDGET)
        assert nfp.cycles == board.cycles == oracle.cycles
        assert nfp.retired == sim.retired == board.sim.retired \
            == oracle.sim.retired
        assert nfp.true_time_s == board.true_time_s == oracle.true_time_s
        for got in (nfp, board):
            assert got.dyn_energy_nj == pytest.approx(oracle.dyn_energy_nj,
                                                      rel=1e-12)
            assert got.true_energy_j == pytest.approx(oracle.true_energy_j,
                                                      rel=1e-12)
        # the window trap model resolves per-config from the histogram
        assert nfp.spills == board.sim.spill_count == oracle.sim.spill_count
        assert nfp.fills == board.sim.fill_count == oracle.sim.fill_count
        assert board.sim.console == oracle.sim.console

    def test_one_profile_prices_every_window_count(self, pair):
        """One run yields exact spill/fill counts for any nwindows, and
        the board's own profile + price matches the oracle at each."""
        profile, _, _ = profile_program(pair.fixed_program,
                                        CoreConfig(has_fpu=False))
        for nwindows in range(2, 17):
            hw = leon3_nofpu(nwindows=nwindows)
            oracle = meter_stepwise(pair.fixed_program, hw, BUDGET)
            board = Board(hw).measure_raw(pair.fixed_program,
                                          max_instructions=BUDGET)
            nfp = LinearNfpEngine(hw).evaluate(profile)
            assert nfp.cycles == board.cycles == oracle.cycles, nwindows
            assert board.true_time_s == oracle.true_time_s, nwindows
            assert board.sim.retired == oracle.sim.retired, nwindows
            assert (nfp.spills, nfp.fills) == \
                (board.sim.spill_count, board.sim.fill_count) == \
                (oracle.sim.spill_count, oracle.sim.fill_count), nwindows
            assert board.true_energy_j == pytest.approx(
                oracle.true_energy_j, rel=1e-12), nwindows

    def test_profiled_blocks_match_stepwise_observation(self, pair):
        """Block-fused profiling == per-instruction observation, exactly.

        The profile is all integers, so the equality is bitwise.
        """
        snaps = []
        translated = []
        for metered_blocks in (True, False):
            meter = ProfileMeter()
            core = profile_core(CoreConfig())
            simulator = Simulator(
                pair.float_program,
                core.with_metered_blocks(metered_blocks))
            sim = simulator.run_profiled(meter, max_instructions=BUDGET)
            snaps.append(meter.snapshot(sim, clean=True))
            translated.append(simulator.cpu.block_stats()[0])
        blocked, stepped = snaps
        assert "blocks" not in blocked and "blocks" not in stepped
        assert translated[0] and not translated[1]  # both paths ran
        assert blocked == stepped

    def test_payload_roundtrip_is_lossless(self, pair):
        """Cache JSON round-trips evaluate byte-identically (all-integer
        profiles + order-independent fsum evaluation)."""
        hw = leon3_fpu(nwindows=4)
        profile, _, payload = profile_program(pair.float_program, hw.core)
        rebuilt = ExecutionProfile.from_payload(
            json.loads(json.dumps(payload, sort_keys=True)))
        assert LinearNfpEngine(hw).evaluate(rebuilt) == \
            LinearNfpEngine(hw).evaluate(profile)


# -- sweep-level equivalence --------------------------------------------------

axis_values = st.tuples(
    st.sampled_from((12.5, 25.0, 50.0, 80.0, 100.0)),  # clock_mhz
    st.booleans(),                                     # fpu
    st.integers(2, 16),                                # nwindows
    st.integers(0, 4),                                 # wait_states
    st.sampled_from((4, 8, 32)),                       # block_size
)


class TestProfiledSweep:
    @settings(max_examples=12, deadline=None)
    @given(values=axis_values)
    def test_equals_metered_on_random_configs(self, pair, shared_runner,
                                              values):
        space = DesignSpace(tuple(
            (name, (value,)) for name, value in
            zip(("clock_mhz", "fpu", "nwindows", "wait_states",
                 "block_size"), values)))
        metered = sweep(space, [pair], budget=BUDGET, runner=shared_runner,
                        metered=True)
        profiled = sweep(space, [pair], budget=BUDGET, runner=shared_runner)
        assert_grids_match(metered, profiled)

    def test_all_five_axes_grid(self, pair, shared_runner):
        space = DesignSpace.from_spec(
            "clock_mhz=25:80,fpu,nwindows=4:8,wait_states=0:2,"
            "block_size=8:32")
        metered = sweep(space, [pair], budget=BUDGET, runner=shared_runner,
                        metered=True)
        profiled = sweep(space, [pair], budget=BUDGET, runner=shared_runner)
        assert_grids_match(metered, profiled)
        # 32 configurations, sharing two profiled runs (one per build)
        assert len(profiled.points) == 32
        front = profiled.front()
        assert front and all(p in profiled.aggregate() for p in front)

    def test_grid_profiles_each_build_once_in_one_batch(self, pair,
                                                        shared_runner):
        """Four configurations over two builds submit two profile tasks."""
        batches = []

        class RecordingRunner(ExperimentRunner):
            def run_tasks(self, tasks):
                batches.append([task.mode for task in tasks])
                return super().run_tasks(tasks)

        space = DesignSpace.from_spec("fpu,nwindows=4:8")
        profiled = sweep(space, [pair], budget=BUDGET,
                         runner=RecordingRunner(cache_dir=None, workers=1))
        assert batches == [["profile", "profile"]]
        metered = sweep(space, [pair], budget=BUDGET, runner=shared_runner,
                        metered=True)
        assert_grids_match(metered, profiled)

    def test_profiled_sweep_is_deterministic_warm_and_fresh(
            self, pair, shared_runner, tmp_path):
        space = DesignSpace.from_spec("fpu,nwindows=4:8")
        first = sweep(space, [pair], budget=BUDGET, runner=shared_runner)
        warm = sweep(space, [pair], budget=BUDGET, runner=shared_runner)
        assert warm == first
        fresh = sweep(space, [pair], budget=BUDGET,
                      runner=ExperimentRunner(cache_dir=tmp_path,
                                              workers=1))
        assert fresh == first


# -- edge rules ---------------------------------------------------------------

SMC_KERNEL_TEMPLATE = """
    .text
_start:
    set new_insn, %o2
    ld [%o2], %g3
    call doit
    nop
    mov %o0, %l0           ! first result: 7
    set patch, %o1
    st %g3, [%o1]          ! overwrite 'mov 7, %o0' with 'mov 42, %o0'
    call doit
    nop
    smul %l0, 100, %l0
    add %l0, %o0, %o0      ! 7 * 100 + 42
    mov 0, %g1
    ta 5
doit:
patch:
    mov 7, %o0
    retl
    nop

    .data
    .align 4
new_insn:
    .word {patch_word}
"""


def smc_program():
    from repro.isa import encoder
    # "mov 42, %o0" == or %g0, 42, %o0
    word = encoder.encode_arith("or", rd=8, rs1=0, imm=42)
    return assemble(SMC_KERNEL_TEMPLATE.format(patch_word=word))


class TestEdgeRules:
    def test_smc_profile_is_flagged_unclean(self):
        program = smc_program()
        payload = run_task(profile_task(program, BUDGET, CoreConfig()))
        assert payload["sim"]["exit_code"] == 742
        assert payload["profile"]["clean"] is False
        assert payload["sim"]["extras"]["smc_invalidations"] >= 1.0

    def test_smc_sweep_falls_back_to_full_simulation(self, shared_runner):
        """Self-modifying workloads: profiled sweep == metered sweep,
        bit for bit (every point re-simulated on the metered path)."""
        program = smc_program()
        smc_pair = WorkloadPair(name="smc", float_program=program,
                                fixed_program=program)
        space = DesignSpace.from_spec("fpu,wait_states=0:2")
        metered = sweep(space, [smc_pair], budget=BUDGET,
                        runner=shared_runner, metered=True)
        profiled = sweep(space, [smc_pair], budget=BUDGET,
                         runner=shared_runner)
        # the fallback runs the identical metered tasks: exact equality,
        # energy included
        assert profiled == metered

    def test_clean_profile_of_plain_kernel(self, pair):
        _, _, payload = profile_program(pair.fixed_program,
                                        CoreConfig(has_fpu=False))
        assert payload["clean"] is True

    def test_watchdog_fires_like_the_metered_loop(self, pair):
        hw = leon3_fpu()
        with pytest.raises(WatchdogTimeout) as metered_exc:
            meter_stepwise(pair.float_program, hw, max_instructions=1000)
        with pytest.raises(WatchdogTimeout) as profiled_exc:
            Simulator(pair.float_program, hw.core).run_profiled(
                ProfileMeter(), max_instructions=1000)
        assert profiled_exc.value.budget == metered_exc.value.budget == 1000


# -- cache schema isolation (satellite) ---------------------------------------

class TestCacheSchema:
    def test_profile_keys_cannot_alias_other_modes(self, pair):
        hw = leon3_fpu()
        program = pair.float_program
        mtask = SimTask(mode="metered", program=program, budget=BUDGET,
                        hw=hw)
        ftask = SimTask(mode="fast", program=program, budget=BUDGET,
                        core=hw.core)
        ptask = profile_task(program, BUDGET, hw.core)
        keys = {task_key(mtask), task_key(ftask), task_key(ptask)}
        assert len(keys) == 3

    def test_pre_profile_schema_entries_are_never_read(
            self, pair, tmp_path, monkeypatch):
        """Old (schema-1) metered entries cannot alias profile entries:
        the schema bump re-keys everything, so a stale payload planted
        under the old key is simply never addressed."""
        import repro.runner.tasks as tasks_mod
        hw = leon3_fpu()
        program = pair.float_program
        mtask = SimTask(mode="metered", program=program, budget=BUDGET,
                        hw=hw)
        ptask = profile_task(program, BUDGET, hw.core)
        with monkeypatch.context() as patch:
            patch.setattr(tasks_mod, "SCHEMA_VERSION", 1)
            old_metered_key = task_key(mtask)
            old_core_key = task_key(
                SimTask(mode="fast", program=program, budget=BUDGET,
                        core=profile_core(hw.core)))
        new_keys = {task_key(mtask), task_key(ptask)}
        assert old_metered_key not in new_keys
        assert old_core_key not in new_keys
        # plant stale pre-profile payloads at the old addresses
        cache = ResultCache(tmp_path)
        cache.put(old_metered_key, {"stale": "metered"})
        cache.put(old_core_key, {"stale": "fast"})
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        payload = runner.run_tasks([ptask])[0]
        assert "stale" not in payload
        assert payload["profile"]["clean"] is True
        assert payload["profile"]["retired"] > 0

    def test_schema_3_metered_entries_are_never_read(self, pair, tmp_path,
                                                     monkeypatch):
        """Schema 4 re-keys metered payloads: they now come from a
        profiled run priced for the board (energy moves at the 1e-12
        level, ``extras`` changed keys), so a warm schema-3 entry must
        never stand in for a cold run.  A planted v3-shaped payload with
        a poisoned cycle count under the old key is never read."""
        import repro.runner.tasks as tasks_mod
        hw = leon3_fpu()
        program = pair.float_program
        mtask = SimTask(mode="metered", program=program, budget=BUDGET,
                        hw=hw)
        with monkeypatch.context() as patch:
            patch.setattr(tasks_mod, "SCHEMA_VERSION", 3)
            old_key = task_key(mtask)
        assert old_key != task_key(mtask)
        stale = raw_to_payload(meter_stepwise(program, hw, BUDGET))
        stale["cycles"] += 1
        stale["sim"]["extras"]["metered_blocks"] = 1.0
        ResultCache(tmp_path).put(old_key, stale)
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        raw = runner.metered_raw(program, hw, BUDGET)
        assert raw.cycles == stale["cycles"] - 1
        assert "metered_blocks" not in raw.sim.extras


# -- counts_vector satellite --------------------------------------------------

def test_counts_vector_is_a_cached_tuple(pair):
    sim = Simulator(pair.fixed_program, CoreConfig()).run(
        max_instructions=BUDGET)
    vector = sim.counts_vector
    assert isinstance(vector, tuple)
    assert vector is sim.counts_vector  # cached, not rebuilt per access
    assert list(vector) == [sim.category_counts[cid]
                            for cid in CATEGORY_IDS]
    assert sum(vector) == sim.retired
