"""Micro-benchmarks: simulator throughput, assembler, soft-float ops.

These quantify the substrate costs behind Fig. 1: how fast the functional
ISS executes, how much a testbed (cycle/energy) measurement costs on top
-- profile + price vs the stepwise metering oracle -- and how expensive
the soft-float runtime is per operation.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.hw.board import Board
from repro.hw.config import leon3_fpu
from repro.softfloat import pyref
from repro.vm import CoreConfig, Simulator

_LOOP_KERNEL = """
    .text
_start:
    set 60000, %o0
loop:
    add %g1, %g2, %g3
    xor %g3, %o0, %g2
    subcc %o0, 1, %o0
    bne loop
    nop
    mov 0, %g1
    ta 5
"""


def _run_fast(blocks_enabled: bool = True):
    sim = Simulator(assemble(_LOOP_KERNEL),
                    CoreConfig(blocks_enabled=blocks_enabled))
    return sim.run(max_instructions=10_000_000)


def test_iss_throughput(benchmark):
    """Fast functional loop (superblock dispatch): simulated MIPS."""
    result = benchmark.pedantic(_run_fast, rounds=3, iterations=1)
    benchmark.extra_info["retired"] = result.retired
    benchmark.extra_info["mips"] = round(result.mips, 3)
    benchmark.extra_info["translated_blocks"] = \
        result.extras["translated_blocks"]
    assert result.retired > 300_000


def test_iss_throughput_per_instruction(benchmark):
    """The same loop with block translation disabled (A/B baseline)."""
    result = benchmark.pedantic(lambda: _run_fast(False),
                                rounds=3, iterations=1)
    benchmark.extra_info["retired"] = result.retired
    benchmark.extra_info["mips"] = round(result.mips, 3)
    assert result.retired > 300_000


def test_metered_throughput(benchmark):
    """Testbed measurement: one profiled run priced for the board."""
    board = Board(leon3_fpu())

    def run():
        return board.measure(assemble(_LOOP_KERNEL),
                             max_instructions=10_000_000)

    measurement = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["cycles"] = measurement.cycles
    assert measurement.cycles > measurement.sim.retired  # >1 cycle/instr
    assert measurement.sim.extras["profiled_blocks"] > 0


def test_metered_throughput_per_instruction(benchmark):
    """The same measurement on the stepwise oracle: a cost meter
    observing every retired instruction (A/B baseline)."""
    board = Board(leon3_fpu(metered_blocks_enabled=False))

    def run():
        return board.measure(assemble(_LOOP_KERNEL),
                             max_instructions=10_000_000)

    measurement = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["cycles"] = measurement.cycles
    assert "profiled_blocks" not in measurement.sim.extras


def test_assembler_throughput(benchmark):
    """Assemble a ~4000-instruction synthetic source."""
    body = "\n".join(
        f"    add %g{i % 7 + 1}, {i % 1000}, %g{(i + 1) % 7 + 1}"
        for i in range(4000))
    source = f"    .text\n_start:\n{body}\n    mov 0, %g1\n    ta 5\n"
    program = benchmark(lambda: assemble(source))
    assert program.word_count() == 4002


@pytest.mark.parametrize("op,args", [
    ("add", (0x3FF8000000000000, 0x4002000000000000)),
    ("mul", (0x3FF8000000000000, 0x4002000000000000)),
    ("div", (0x3FF8000000000000, 0x4002000000000000)),
    ("sqrt", (0x4002000000000000,)),
])
def test_softfloat_pyref_ops(benchmark, op, args):
    """Host-side soft-float reference operation cost."""
    fn = {"add": pyref.f64_add, "mul": pyref.f64_mul,
          "div": pyref.f64_div, "sqrt": pyref.f64_sqrt}[op]
    result = benchmark(lambda: fn(*args))
    assert isinstance(result, int)
