"""Fetch/decode/morph/execute core with per-PC and per-block code caches.

OVP achieves speed by *morphing* each instruction into native code once
and re-executing the cached translation; this module does the same with
Python closures at two granularities:

* a per-PC closure cache (:attr:`Cpu._cache`), filled by the morpher --
  the translation unit of :meth:`Cpu.step` and :meth:`Cpu.run_metered`;
* a per-entry-PC *superblock* cache (:attr:`Cpu._blocks`), filled by
  :func:`repro.vm.blocks.compile_block` -- straight-line runs fused into
  one compiled closure with batched NFP accounting.

Both translators share one decoded-instruction cache per PC, so the
decode work is paid once regardless of which loop runs first.  The run
loops are:

* :meth:`Cpu.run` -- the fast functional loop used by the ISS.  With
  ``blocks_enabled`` (the default) it dispatches whole superblocks: one
  dict lookup and one call retire an entire straight-line run, its
  terminating branch and (when safe) the delay slot, with the category
  counters updated in one batched add (the paper's extended OVP, now at
  block granularity).  With blocks disabled it falls back to the
  per-instruction loop; both modes retire bit-identical state/counters.
* :meth:`Cpu.step` -- single-step debugging interface (per-instruction).
* :meth:`Cpu.run_profiled` -- the instrumented loop behind the hardware
  testbed model and the profile-once DSE path.  With
  ``metered_blocks_enabled`` (the default) it dispatches the same
  superblocks compiled with profiling on, which also record the
  configuration-independent counts the linear NFP evaluator prices (see
  :class:`repro.vm.profiler.ProfileMeter`); otherwise it observes every
  retired instruction.
* :meth:`Cpu.run_metered` -- per-instruction observation by any
  :class:`RetireObserver` (the stepwise root oracle of the testbed, see
  :class:`repro.hw.board.CostMeter`).

:meth:`Cpu.run` and :meth:`Cpu.run_profiled` share one block cache and
one dispatch loop (:meth:`Cpu._run_blocks`); the cache holds the blocks
of one profiler (or of none) at a time.  Translations are invalidated
when a store (guest or host) hits an address holding translated code, so
self-modifying kernels never execute stale closures; see
:meth:`Cpu.invalidate_range`.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.isa.decoder import DecodedInstr, decode
from repro.isa.errors import DecodeError
from repro.vm import blocks as _blocks_mod
from repro.vm.config import DEFAULT_BLOCK_SIZE
from repro.vm.errors import IllegalInstruction, MemoryFault, WatchdogTimeout
from repro.vm.morpher import Morpher, OpClosure
from repro.vm.state import CpuState

DEFAULT_BUDGET = 200_000_000

#: Granularity of the block-invalidation page index (bytes).
_PAGE_SHIFT = 8

#: Dispatches of an entry PC before its superblock is codegen-compiled.
#: Cold code (straight-line runs executed once) steps through the cheap
#: per-instruction closures -- observed per retire when profiling --
#: instead of paying compile time it can never amortise; hot entries
#: cross the threshold within a few loop trips.
BLOCK_COMPILE_THRESHOLD = 16


class RetireObserver(Protocol):
    """Receives every retired instruction in :meth:`Cpu.run_metered`."""

    def on_retire(self, pc: int, mnemonic: str, state: CpuState) -> None:
        """Called after the instruction at ``pc`` retired."""
        ...  # pragma: no cover - protocol


class Cpu:
    """One SPARC V8 core bound to a state and a morpher.

    Parameters
    ----------
    state, morpher:
        Architectural state and the per-instruction translator.
    blocks_enabled:
        Dispatch translated superblocks in :meth:`run` (default).  The
        per-instruction paths (:meth:`step`, :meth:`run_metered`) are
        unaffected by this knob.
    block_size:
        Maximum fused instructions per superblock.
    metered_blocks_enabled:
        Dispatch superblocks compiled with profiling on in
        :meth:`run_profiled` (default) instead of observing per retired
        instruction.
    """

    def __init__(self, state: CpuState, morpher: Morpher,
                 blocks_enabled: bool = True,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 metered_blocks_enabled: bool = True):
        self.state = state
        self.morpher = morpher
        self.blocks_enabled = blocks_enabled
        self.block_size = block_size
        self.metered_blocks_enabled = metered_blocks_enabled
        self._cache: dict[int, OpClosure] = {}
        self._mnemonics: dict[int, str] = {}
        self._decoded: dict[int, DecodedInstr] = {}
        #: entry pc -> (block fn, max retired) -- the hot dispatch table.
        self._blocks: dict[int, tuple[Callable, int]] = {}
        self._block_info: dict[int, "_blocks_mod.Block"] = {}
        self._block_pages: dict[int, set[int]] = {}
        #: entry pc -> dispatch count while below the compile threshold.
        self._heat: dict[int, int] = {}
        #: the profiler the cached blocks were compiled against (None:
        #: functional blocks); see :meth:`_run_blocks`.
        self._profiler = None
        #: stores/host writes that landed inside translated code (self-
        #: modifying-code events); the profile-once DSE path refuses to
        #: reuse profiles of unclean runs (see :mod:`repro.dse.evaluate`).
        self.invalidations = 0
        #: bound method handed to generated code for successor chaining.
        self.blocks_get = self._blocks.get
        state.on_code_write = self.invalidate_range
        state.mem.on_write = self._host_write

    # -- shared translation metadata ----------------------------------------

    def decoded_at(self, pc: int) -> DecodedInstr:
        """Fetch and decode the word at ``pc`` (cached per PC).

        Both the per-instruction and the block translator route through
        this cache, so decode work is shared between the loops.
        """
        instr = self._decoded.get(pc)
        if instr is None:
            state = self.state
            try:
                word = state.mem.read_u32(pc)
            except MemoryFault as exc:
                raise IllegalInstruction(pc, 0, f"fetch failed: {exc}") \
                    from exc
            try:
                instr = decode(word)
            except DecodeError as exc:
                raise IllegalInstruction(pc, word, exc.reason) from exc
            self._decoded[pc] = instr
        return instr

    def closure_at(self, pc: int) -> OpClosure:
        """The per-instruction closure for ``pc`` (cached per PC)."""
        closure = self._cache.get(pc)
        if closure is None:
            closure = self._translate(pc)
        return closure

    def _translate(self, pc: int) -> OpClosure:
        """Decode and morph the instruction at ``pc``, filling the caches."""
        instr = self.decoded_at(pc)
        closure = self.morpher.morph(instr, pc)
        self._cache[pc] = closure
        self._mnemonics[pc] = instr.mnemonic
        self._watch(pc, pc + 4)
        return closure

    def _translate_block(self, pc: int) -> tuple[Callable, int]:
        """Compile the block at ``pc`` for the current profiler and file it."""
        block = _blocks_mod.compile_block(self, pc, self._profiler)
        entry = (block.fn, block.length)
        self._blocks[pc] = entry
        self._block_info[pc] = block
        self._watch(block.start, block.end)
        pages = self._block_pages
        for page in range(block.start >> _PAGE_SHIFT,
                          ((block.end - 1) >> _PAGE_SHIFT) + 1):
            pages.setdefault(page, set()).add(pc)
        return entry

    def _watch(self, lo: int, hi: int) -> None:
        state = self.state
        if lo < state.code_lo:
            state.code_lo = lo
        if hi > state.code_hi:
            state.code_hi = hi

    # -- translation-cache invalidation -------------------------------------

    def invalidate_range(self, addr: int, size: int = 4) -> None:
        """Drop every translation overlapping ``[addr, addr + size)``.

        Called by store closures (via :attr:`CpuState.on_code_write`) and
        host-side memory writes when they land inside translated text;
        also available to tooling that patches code behind the CPU's back.
        """
        self.invalidations += 1
        lo = addr & ~3
        hi = addr + size
        for pc in range(lo, hi, 4):
            self._cache.pop(pc, None)
            self._mnemonics.pop(pc, None)
            self._decoded.pop(pc, None)
        # conservative page-granular drop: any block registered on a
        # written page is retranslated on its next dispatch
        if self._blocks:
            for page in range(lo >> _PAGE_SHIFT,
                              ((hi - 1) >> _PAGE_SHIFT) + 1):
                for entry in self._block_pages.pop(page, ()):
                    self._blocks.pop(entry, None)
                    self._block_info.pop(entry, None)

    def _host_write(self, addr: int, size: int) -> None:
        state = self.state
        if state.code_lo < addr + size and addr < state.code_hi:
            self.invalidate_range(addr, size)

    # -- run loops -----------------------------------------------------------

    def step(self) -> str:
        """Execute exactly one instruction; returns its mnemonic."""
        state = self.state
        pc = state.pc
        closure = self._cache.get(pc)
        if closure is None:
            closure = self._translate(pc)
        closure(state)
        return self._mnemonics[pc]

    def run(self, max_instructions: int = DEFAULT_BUDGET) -> int:
        """Run until the kernel exits; returns retired instruction count.

        Raises :class:`WatchdogTimeout` when ``max_instructions`` retire
        without the kernel calling the exit service.
        """
        if not self.blocks_enabled:
            return self._run_stepwise(max_instructions)
        return self._run_blocks(None, max_instructions)

    def _run_stepwise(self, max_instructions: int) -> int:
        """The per-instruction fast loop (``blocks_enabled=False``)."""
        state = self.state
        cache = self._cache
        translate = self._translate
        executed = 0
        budget = max_instructions
        cache_get = cache.get
        while state.running:
            f = cache_get(state.pc)
            if f is None:
                f = translate(state.pc)
            f(state)
            executed += 1
            if executed >= budget:
                if state.running:
                    raise WatchdogTimeout(budget, state.pc)
                break
        return executed

    def run_metered(self, observer: RetireObserver,
                    max_instructions: int = DEFAULT_BUDGET) -> int:
        """Run observing every retired instruction (the stepwise oracle).

        Works with any :class:`RetireObserver`; the hardware testbed's
        :class:`repro.hw.board.CostMeter` accumulates the reference
        cycles and energy through it.
        """
        state = self.state
        cache = self._cache
        mnemonics = self._mnemonics
        on_retire = observer.on_retire
        executed = 0
        budget = max_instructions
        cache_get = cache.get
        while state.running:
            pc = state.pc
            f = cache_get(pc)
            if f is None:
                f = self._translate(pc)
            f(state)
            on_retire(pc, mnemonics[pc], state)
            executed += 1
            if executed >= budget:
                if state.running:
                    raise WatchdogTimeout(budget, state.pc)
                break
        return executed

    def run_profiled(self, profiler,
                     max_instructions: int = DEFAULT_BUDGET) -> int:
        """Run while ``profiler`` records a configuration-independent profile.

        ``profiler`` (:class:`repro.vm.profiler.ProfileMeter`) observes
        every retired instruction: with ``metered_blocks_enabled`` hot
        code runs on blocks compiled with profiling on
        (:func:`repro.vm.blocks.compile_block`), otherwise every retire
        goes through :meth:`run_metered`.  The recorded profile is
        identical either way.
        """
        if self.metered_blocks_enabled:
            return self._run_blocks(profiler, max_instructions)
        return self.run_metered(profiler, max_instructions)

    def _run_blocks(self, profiler, max_instructions: int) -> int:
        """Dispatch superblocks, compiled with profiling iff ``profiler``.

        Cold entries step through the per-instruction closures (observed
        by ``profiler.on_retire`` when profiling) until they cross
        :data:`BLOCK_COMPILE_THRESHOLD`, and blocks that no longer fit
        the watchdog budget are single-stepped to the edge for exact
        accounting.  Blocks are specialised to one profiler (or to none),
        so the cache empties when it changes.
        """
        if profiler is not self._profiler:
            self._blocks.clear()
            self._block_info.clear()
            self._block_pages.clear()
            self._heat.clear()
            self._profiler = profiler
        on_retire = profiler.on_retire if profiler is not None else None
        state = self.state
        blocks_get = self.blocks_get
        translate_block = self._translate_block
        cache_get = self._cache.get
        mnemonics = self._mnemonics
        heat = self._heat
        heat_get = heat.get
        executed = 0
        budget = max_instructions
        while state.running:
            pc = state.pc
            entry = blocks_get(pc)
            if entry is None:
                count = heat_get(pc, 0) + 1
                if count < BLOCK_COMPILE_THRESHOLD:
                    # cold entry: walk the straight-line run with the
                    # per-instruction closures until control transfers,
                    # charging one heat tick per dispatch
                    heat[pc] = count
                    while True:
                        f = cache_get(pc)
                        if f is None:
                            f = self._translate(pc)
                        f(state)
                        if on_retire is not None:
                            on_retire(pc, mnemonics[pc], state)
                        executed += 1
                        if executed >= budget or not state.running:
                            break
                        if state.pc != pc + 4:
                            break  # branch/trap redirected control
                        pc = state.pc
                    if executed >= budget:
                        if state.running:
                            raise WatchdogTimeout(budget, state.pc)
                        break
                    continue
                heat.pop(pc, None)
                entry = translate_block(pc)
            if executed + entry[1] <= budget:
                executed += entry[0](state, budget - executed)
            else:
                # the whole block no longer fits the watchdog budget:
                # single-step to the edge for exact accounting
                f = cache_get(pc)
                if f is None:
                    f = self._translate(pc)
                f(state)
                if on_retire is not None:
                    on_retire(pc, mnemonics[pc], state)
                executed += 1
            if executed >= budget:
                if state.running:
                    raise WatchdogTimeout(budget, state.pc)
                break
        return executed

    # -- translation statistics ----------------------------------------------

    def translated_pcs(self) -> int:
        """Number of distinct PCs decoded so far (code-cache footprint)."""
        return len(self._decoded)

    def block_stats(self) -> tuple[int, float]:
        """``(translated_blocks, mean retired instructions per block)``."""
        info = self._block_info
        if not info:
            return 0, 0.0
        return len(info), sum(b.length for b in info.values()) / len(info)
