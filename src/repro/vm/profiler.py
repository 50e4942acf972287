"""Execution profiling: one instrumented run -> a reusable cost basis.

The paper's thesis (Eq. 1) is that non-functional properties are linear
in execution counts; metering a run per instruction
(:class:`repro.hw.board.CostMeter`) bakes one hardware configuration's
cost *parameters* into it.  :class:`ProfileMeter` records the counts
themselves instead -- everything the retire-cost algebra of the cost
meter consumes -- so one profiled run per (program, input) prices *any*
:class:`~repro.hw.config.HwConfig` later as a handful of dot products
(:mod:`repro.nfp.linear`); the hardware testbed itself measures this
way (:meth:`repro.hw.board.Board.measure_raw`):

* per-mnemonic retire counts (already tracked by the simulator);
* per-mnemonic *jitter-index sums*: each retire's 16-bit energy-jitter
  table index, accumulated as an exact integer.  Because every table
  entry is the affine map ``1 + amp * (idx / 32768 - 1)``, the sum of
  looked-up factors for any amplitude is recovered *exactly* from
  ``(count, sum(idx))`` -- the profile holds no floats at all;
* per-site (and per-mnemonic) branch taken/untaken splits, because
  untaken branches earn a config-dependent cycle discount and energy
  factor;
* per-site integer-divide result-bit-length refunds (the refund is
  config-independent, so it is banked pre-summed);
* window *depth* histograms for ``save``/``restore``: a save spills
  under ``nwindows = w`` iff its post-increment depth is ``>= w - 1``
  (restore/fill symmetrically, pre-decrement), and depth is invariant
  across window counts in the copy-on-save scheme -- so spill/fill
  counts and trap-energy indices for every candidate ``w`` fall out of
  the single run.

The observer interface matches :class:`repro.vm.cpu.RetireObserver`
and serves cold code and the per-instruction loop; hot code runs on the
ISS's own superblocks compiled with this profiler
(:func:`repro.vm.blocks.compile_block`), whose profile lines update the
same accumulators with plain integer adds.
"""

from __future__ import annotations

from repro.asm.program import Program
from repro.isa.opcodes import INSTR_SPECS
from repro.vm.blocks import FLAG_BRANCH, FLAG_INTDIV, cost_flags
from repro.vm.config import CoreConfig
from repro.vm.cpu import DEFAULT_BUDGET
from repro.vm.simulator import SimulationResult, Simulator
from repro.vm.state import CpuState

#: Bump when the recorded profile structure or semantics change (also
#: reflected in the task schema, see :mod:`repro.runner.tasks`).
#: 2: the per-block dispatch diagnostics left the payload.
PROFILE_VERSION = 2

#: The canonical mnemonic basis of every profile (Table-agnostic: one
#: slot per implemented instruction, in spec order).
PROFILE_MNEMONICS: tuple[str, ...] = tuple(INSTR_SPECS)


class ProfileMeter:
    """Retire observer accumulating the config-independent cost basis.

    The attributes are part of the block-profiling contract consumed by
    :func:`repro.vm.blocks.compile_block`: ``index`` maps mnemonics to
    slots of the integer accumulator lists, the ``*_cell`` methods hand
    out per-site count cells at translation time, and the depth
    histograms are filled keyed by raw window depth.
    """

    __slots__ = ("index", "flags", "jsum", "untaken_counts", "untaken_jsum",
                 "branch_sites", "div_sites", "save_depths",
                 "restore_depths")

    def __init__(self):
        self.index = {m: i for i, m in enumerate(PROFILE_MNEMONICS)}
        self.flags = cost_flags()
        n = len(PROFILE_MNEMONICS)
        #: per-mnemonic sum of 16-bit jitter indices over all retires.
        self.jsum = [0] * n
        #: per-mnemonic untaken-branch retire counts / index sums.
        self.untaken_counts = [0] * n
        self.untaken_jsum = [0] * n
        #: branch site pc -> [taken, untaken] retire counts.
        self.branch_sites: dict[int, list[int]] = {}
        #: divide site pc -> [retires, summed bit-length cycle refund].
        self.div_sites: dict[int, list[int]] = {}
        #: save post-depth -> [events, index sum]; restore pre-depth dito.
        self.save_depths: dict[int, list[int]] = {}
        self.restore_depths: dict[int, list[int]] = {}

    # -- translation-time cell handout ---------------------------------------

    def branch_cell(self, pc: int) -> list[int]:
        return self.branch_sites.setdefault(pc, [0, 0])

    def div_cell(self, pc: int) -> list[int]:
        return self.div_sites.setdefault(pc, [0, 0])

    # -- the per-instruction observer (cold code, budget edges) --------------

    def on_retire(self, pc: int, mnemonic: str, st: CpuState) -> None:
        value = st.last_value
        h = ((value * 2654435761) ^ (pc * 0x9E3779B1)) & 0xFFFFFFFF
        h ^= h >> 15
        idx = h & 0xFFFF
        mid = self.index[mnemonic]
        self.jsum[mid] += idx
        flag = self.flags[mnemonic]
        if flag:
            if flag == FLAG_BRANCH:
                cell = self.branch_sites.setdefault(pc, [0, 0])
                if st.taken:
                    cell[0] += 1
                else:
                    cell[1] += 1
                    self.untaken_counts[mid] += 1
                    self.untaken_jsum[mid] += idx
            elif flag == FLAG_INTDIV:
                cell = self.div_sites.setdefault(pc, [0, 0])
                cell[0] += 1
                cell[1] += (32 - value.bit_length()) >> 1
            else:  # save/restore: tally the window-depth event
                if mnemonic == "save":
                    depth, hist = st.wdepth, self.save_depths
                else:
                    depth, hist = st.wdepth + 1, self.restore_depths
                cell = hist.get(depth)
                if cell is None:
                    cell = hist[depth] = [0, 0]
                cell[0] += 1
                cell[1] += idx

    # -- serialisation -------------------------------------------------------

    def snapshot(self, sim: SimulationResult, clean: bool) -> dict:
        """The JSON-safe execution profile of a finished run.

        ``sim`` supplies the per-mnemonic retire counts (identical across
        all simulator loops); ``clean`` records whether the run never
        wrote into translated code (profiles of self-modifying runs are
        not reusable and make the evaluation fall back to full
        simulation).
        """
        counts = sim.mnemonic_counts
        mnemonics: dict[str, list[int]] = {}
        for m, mid in self.index.items():
            c = counts.get(m, 0)
            if c:
                mnemonics[m] = [c, self.jsum[mid],
                                self.untaken_counts[mid],
                                self.untaken_jsum[mid]]
        return {
            "version": PROFILE_VERSION,
            "clean": bool(clean),
            "retired": sim.retired,
            "mnemonics": mnemonics,
            "branch_sites": {str(pc): list(cell) for pc, cell
                             in sorted(self.branch_sites.items())
                             if cell[0] or cell[1]},
            "div_sites": {str(pc): list(cell) for pc, cell
                          in sorted(self.div_sites.items()) if cell[0]},
            "save_depths": {str(d): list(cell) for d, cell
                            in sorted(self.save_depths.items())},
            "restore_depths": {str(d): list(cell) for d, cell
                               in sorted(self.restore_depths.items())},
        }


def profile_run(program: Program, core: CoreConfig | None = None,
                max_instructions: int = DEFAULT_BUDGET
                ) -> tuple[SimulationResult, dict]:
    """One profiled run: the simulation result and its profile payload.

    The payload is :meth:`ProfileMeter.snapshot`, flagged unclean when
    the run wrote into its own code.
    """
    meter = ProfileMeter()
    simulator = Simulator(program, core)
    sim = simulator.run_profiled(meter, max_instructions=max_instructions)
    return sim, meter.snapshot(sim,
                               clean=simulator.cpu.invalidations == 0)
