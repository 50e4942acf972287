"""Superblock translation: straight-line code -> one compiled closure.

The per-instruction morpher (:mod:`repro.vm.morpher`) already caches one
closure per PC, but the fast ISS loop still pays a dict lookup, a Python
call and two counter bumps for *every* retired instruction.  Real binary
translators (OVP included) win their order of magnitude by translating at
basic-block granularity; this module does the analogue for the Python ISS:

* starting at an entry PC it decodes a straight-line run of *fusible*
  instructions (integer/FP arithmetic, loads/stores, ``sethi``, ``nop``,
  ``rdy``/``wry``), ending at any control transfer, trap, window op or a
  configurable maximum length;
* it emits specialised Python source for the whole run -- operand register
  numbers, immediates and memory-bounds constants baked in as literals --
  and ``exec``-compiles it into a single *block closure*;
* the per-block category-count vector and per-mnemonic retire counts are
  precomputed at translation time and added to the live counters in one
  batched update at the end of the block instead of N inline bumps;
* ``Bicc``/``FBfcc`` branches and ``call`` are fused *into* the block
  together with their delay-slot instruction (when the slot holds a simple
  no-fault instruction), so a typical inner loop becomes one dispatch per
  iteration;
* a branch back to the block's own entry makes a *self-loop* block that
  iterates internally, keeps the condition codes in locals (a flag no
  iteration reads is computed only at the exits) and defers its counter
  updates to one multiply-add per counter at each exit;
* the fall-through end and the inlined-branch exits of other blocks chain
  directly to the successor block when it is already translated and fits
  the remaining watchdog budget.

There is one emitter, :func:`compile_block`, and profiling is an
emission option: given a :class:`~repro.vm.profiler.ProfileMeter` the
same block also records the configuration-independent cost basis that
the hardware testbed and the profile-once sweeps price; without one it
emits no profile lines at all -- the functional ISS.

Exactness contract (checked by ``tests/test_vm_blocks.py`` and
``tests/test_profile.py``): for every kernel, block mode and the
per-instruction loop produce bit-identical ``category_counts``,
``mnemonic_counts``, ``retired``, ``exit_code``, console output and
window statistics, and a profiled block run records the same profile as
per-instruction observation.  Faults mid-block retire exactly the
preceding prefix (the fix-up handler recounts it) and re-raise with the
architectural ``pc`` of the faulting instruction, like the stepping loop.
The only relaxation is ``CpuState.last_value``, which inside a block is
materialised at the block's exits (profiled blocks, which feed the
data-dependent energy model, hash each result expression directly).

Memory accesses compile to a RAM offset ``off``, one fault test and one
access.  The 2-, 4- and 8-byte forms go through precompiled big-endian
:class:`struct.Struct` ``unpack_from``/``pack_into`` methods; byte
accesses index the RAM buffer.  The fault test is a single AND,
``off & MASK`` with ``MASK = ~(P - n) | (n - 1)`` for an ``n``-byte
access and ``P`` the smallest power of two >= the RAM size: it catches
misalignment, offsets past ``P`` and negative offsets (addresses below
the RAM base) at once.  Only a RAM size that is not a power of two adds
``or off > ram_size - n`` (see :func:`_fault_test`).

A store that lands inside translated text takes a slow early-exit path:
it retires the prefix including itself, invalidates the overwritten
translations through ``CpuState.on_code_write`` and returns to the
dispatch loop, so self-modifying code never executes a stale closure --
even when the overwritten instruction lives in the *currently executing*
block.  The test compares ``off`` with block locals that the prologue of
every block with stores computes from ``CpuState.code_lo``/``code_hi``:
the watch range only grows when the dispatcher translates code, never
while a block runs, so one read per dispatch is exact.
"""

from __future__ import annotations

import re
import struct
from typing import TYPE_CHECKING, Callable

from repro.isa.categories import (
    CAT_FPU_ARITH,
    CAT_INT_ARITH,
    CAT_JUMP,
    CAT_MEM_LOAD,
    CAT_MEM_STORE,
    CAT_NOP,
    CAT_OTHER,
)
from repro.isa.decoder import DecodedInstr
from repro.vm.errors import IllegalInstruction, MemoryFault
from repro.vm.morpher import (
    CC_FAMILY,
    FCC_MASKS,
    FPOP_CATEGORIES,
    _LOAD_PARAMS,
    _STORE_PARAMS,
    _sdiv,
    _smul,
    _udiv,
    _umul,
    f64_to_i32_trunc,
    get_d,
    get_f,
    ieee_div,
    ieee_sqrt,
    put_d,
    put_f,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.vm.cpu import Cpu
    from repro.vm.state import CpuState

M32 = 0xFFFFFFFF
_M32 = "4294967295"

#: Cost-model flags: how a mnemonic's base (cycles, energy) entry is
#: modulated at retire time.  Defined here (not in :mod:`repro.hw`) so the
#: block emitter's profile lines and the hardware meter share one vocabulary
#: without the VM layer depending on the hardware layer.
FLAG_NORMAL = 0
FLAG_BRANCH = 1   #: untaken branches are discounted
FLAG_INTDIV = 2   #: divide latency shortens with the result bit length
FLAG_WINDOW = 3   #: save/restore may charge window-trap spill/fill costs


def cost_flags() -> dict[str, int]:
    """``mnemonic -> FLAG_*`` for every implemented instruction.

    The single source of the retire-cost flag classification shared by
    the hardware cost tables (:attr:`repro.hw.config.HwConfig.cost_table`),
    the profile lines of :func:`compile_block` and the execution profiler
    (:class:`repro.vm.profiler.ProfileMeter`) -- all consumers must
    classify retires identically or estimated and measured NFPs drift.
    """
    global _COST_FLAGS
    if _COST_FLAGS is None:
        from repro.isa.opcodes import INSTR_SPECS
        flags: dict[str, int] = {}
        for mnemonic, spec in INSTR_SPECS.items():
            flag = FLAG_NORMAL
            if mnemonic in _DIV_MNEMONICS:
                flag = FLAG_INTDIV
            elif spec.morph_group in ("doBranch", "doFBranch"):
                flag = FLAG_BRANCH
            elif mnemonic in ("save", "restore"):
                flag = FLAG_WINDOW
            flags[mnemonic] = flag
        _COST_FLAGS = flags
    return _COST_FLAGS


_COST_FLAGS: dict[str, int] | None = None


def pc_fold16(pc: int) -> int:
    """The 16-bit pc contribution to the jitter index.

    ``(h ^ (h >> 15)) & 0xFFFF`` with ``h = (v*K1) ^ (pc*K2)`` splits
    (xor distributes over shifts and masks) into a value part and this
    compile-time constant, and only bits 0..30 of the unmasked hash ever
    reach the extract -- so neither the 32-bit mask nor the pc xor need
    to happen at run time.
    """
    p = pc * 0x9E3779B1
    return (p ^ (p >> 15)) & 0xFFFF

#: Instruction kinds the code generator can fuse into a block body.
FUSIBLE_KINDS = frozenset(
    {"arith", "sethi", "nop", "load", "store", "rdy", "wry", "fpop", "fcmp"})

#: Kinds that end a block (executed as the block's terminator).
TERMINATOR_KINDS = frozenset(
    {"branch", "fbranch", "call", "jmpl", "trap", "save", "restore"})

_DIV_MNEMONICS = frozenset({"udiv", "sdiv", "udivcc", "sdivcc"})

#: Bicc condition -> Python expression over ``st`` (None = always/never,
#: resolved via _branch_mode).
_COND_EXPR = {
    "be": "st.z",
    "bne": "not st.z",
    "bg": "not (st.z or (st.n ^ st.v))",
    "ble": "st.z or (st.n ^ st.v)",
    "bge": "not (st.n ^ st.v)",
    "bl": "st.n ^ st.v",
    "bgu": "not (st.c or st.z)",
    "bleu": "st.c or st.z",
    "bcc": "not st.c",
    "bcs": "st.c",
    "bpos": "not st.n",
    "bneg": "st.n",
    "bvc": "not st.v",
    "bvs": "st.v",
}



def _compile_source(source: str, name: str):
    """``compile()`` with a process-wide memo keyed by source text.

    Every ``Simulator`` owns its own translation caches (the generated
    namespaces capture per-run state), but the *source* of a block is a
    pure function of the code bytes, the platform constants and the cost
    model -- so repeated runs of the same kernel (benchmark rounds,
    calibration pairs, A/B sweeps) reuse the bytecode and skip the
    millisecond-class ``compile()``.  Identical source implies identical
    entry-pc literals, so the cached filename always matches.
    """
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()  # crude but safe: a correctness no-op
        code = compile(source, name, "exec")
        _CODE_CACHE[source] = code
    return code


_CODE_CACHE: dict[str, object] = {}
_CODE_CACHE_LIMIT = 16384

_U16, _U32, _U64 = (struct.Struct(fmt) for fmt in (">H", ">I", ">Q"))

#: Names every generated block may call.  The
#: ``_ld{n}``/``_st{n}`` pairs are the big-endian accessors of the 2-, 4-
#: and 8-byte loads and stores (byte accesses index ``_ram`` directly).
_HELPERS: dict[str, object] = {
    "_MF": MemoryFault,
    "_udiv": _udiv, "_sdiv": _sdiv, "_umul": _umul, "_smul": _smul,
    "_getd": get_d, "_putd": put_d, "_getf": get_f, "_putf": put_f,
    "_fdivh": ieee_div, "_fsqrth": ieee_sqrt, "_f2i": f64_to_i32_trunc,
    "_ld2": _U16.unpack_from, "_st2": _U16.pack_into,
    "_ld4": _U32.unpack_from, "_st4": _U32.pack_into,
    "_ld8": _U64.unpack_from, "_st8": _U64.pack_into,
}


class Block:
    """One translated superblock, ready to dispatch.

    ``fn(state, remaining)`` retires up to ``length`` instructions and
    returns the exact number retired; the dispatcher guarantees
    ``remaining >= length`` so the watchdog budget is never overshot.
    """

    __slots__ = ("fn", "length", "start", "end")

    def __init__(self, fn: Callable, length: int, start: int, end: int):
        self.fn = fn
        self.length = length
        self.start = start
        self.end = end


def category_of(instr: DecodedInstr) -> int:
    """The Table-I category this instruction retires into (morpher rules)."""
    kind = instr.kind
    if kind in ("arith", "sethi"):
        return CAT_INT_ARITH
    if kind == "nop":
        return CAT_NOP
    if kind == "load":
        return CAT_MEM_LOAD
    if kind == "store":
        return CAT_MEM_STORE
    if kind in ("rdy", "wry", "save", "restore", "trap"):
        return CAT_OTHER
    if kind in ("branch", "fbranch", "call", "jmpl"):
        return CAT_JUMP
    if kind == "fcmp":
        return CAT_FPU_ARITH
    assert kind == "fpop", kind
    return FPOP_CATEGORIES.get(instr.mnemonic, CAT_FPU_ARITH)


def _fusible(instr: DecodedInstr, has_fpu: bool) -> bool:
    kind = instr.kind
    if kind not in FUSIBLE_KINDS:
        return False
    if kind in ("fpop", "fcmp") and not has_fpu:
        return False  # must raise FpuDisabled -> per-instruction closure
    return True


def _delay_safe(instr: DecodedInstr, has_fpu: bool) -> bool:
    """Can ``instr`` be fused into a branch arm? (must never raise)."""
    kind = instr.kind
    if kind in ("nop", "sethi", "rdy", "wry"):
        return True
    if kind == "arith":
        return instr.mnemonic not in _DIV_MNEMONICS
    if kind in ("fpop", "fcmp"):
        return has_fpu
    return False


def _can_raise(instr: DecodedInstr) -> bool:
    kind = instr.kind
    return kind in ("load", "store") or (
        kind == "arith" and instr.mnemonic in _DIV_MNEMONICS)


# -- per-kind source emitters ------------------------------------------------
#
# Each emitter appends source lines (with the given indent) implementing the
# instruction's architectural effect, *without* counter bumps or pc/npc
# updates, and returns the expression the morpher would have stored into
# ``st.last_value`` -- or None for non-producing instructions (``nop``).
# Locals available: ``st``, ``r`` (= st.regs), ``f`` (= st.fregs, when the
# block touches FP state), and scratch names reused sequentially.

def _operand(instr: DecodedInstr) -> str:
    """Second ALU operand: masked immediate literal or register read."""
    if instr.i:
        return str(instr.imm & M32)
    if instr.rs2 == 0:
        return "0"  # %g0 is hardwired zero
    return f"r[{instr.rs2}]"


def _alu_lines(m: str, instr: DecodedInstr, ind: str, pc: int,
               out: list) -> None:
    """Emit ``v = <result>`` for a non-cc ALU op (morpher semantics)."""
    a = "0" if instr.rs1 == 0 else f"r[{instr.rs1}]"
    b = _operand(instr)
    # %g0-based identities: `mov`/`set` assemble to or/add over the
    # hardwired zero, so fold them to a plain (already masked) move
    if a == "0" and m in ("add", "or", "xor"):
        out.append(f"{ind}v = {b}")
        return
    if b == "0" and m in ("add", "sub", "or", "xor", "andn"):
        out.append(f"{ind}v = {a}")
        return
    # register/immediate operands are invariantly masked u32, so the
    # results of and/andn/or/xor cannot exceed 32 bits: skip the mask
    if m == "add":
        out.append(f"{ind}v = ({a} + {b}) & {_M32}")
    elif m == "sub":
        out.append(f"{ind}v = ({a} - {b}) & {_M32}")
    elif m == "and":
        out.append(f"{ind}v = {a} & {b}")
    elif m == "andn":
        out.append(f"{ind}v = {a} & ~{b}")
    elif m == "or":
        out.append(f"{ind}v = {a} | {b}")
    elif m == "orn":
        out.append(f"{ind}v = ({a} | ~{b}) & {_M32}")
    elif m == "xor":
        out.append(f"{ind}v = {a} ^ {b}")
    elif m == "xnor":
        out.append(f"{ind}v = ~({a} ^ {b}) & {_M32}")
    elif m == "addx":
        out.append(f"{ind}v = ({a} + {b} + st.c) & {_M32}")
    elif m == "subx":
        out.append(f"{ind}v = ({a} - {b} - st.c) & {_M32}")
    elif m in ("sll", "srl", "sra"):
        sh = str(instr.imm & 31) if instr.i else f"({b} & 31)"
        if m == "sll":
            out.append(f"{ind}v = ({a} << {sh}) & {_M32}")
        elif m == "srl":
            out.append(f"{ind}v = ({a} & {_M32}) >> {sh}")
        else:
            out.append(f"{ind}x = {a}")
            out.append(f"{ind}v = ((x - 4294967296 if x & 2147483648 else x)"
                       f" >> {sh}) & {_M32}")
    elif m in ("umul", "smul"):
        out.append(f"{ind}v = _{m}(st, {a}, {b})")
    else:
        assert m in ("udiv", "sdiv"), m
        out.append(f"{ind}st.pc = {pc}")  # DivisionByZero reports st.pc
        out.append(f"{ind}v = _{m}(st, {a}, {b})")


def _emit_flags(family: str, ind: str, out: list) -> None:
    out.append(f"{ind}st.n = v >> 31")
    out.append(f"{ind}st.z = 1 if v == 0 else 0")


def _emit_arith(instr: DecodedInstr, pc: int, ind: str, out: list) -> str:
    m = instr.mnemonic
    if m not in CC_FAMILY:
        _alu_lines(m, instr, ind, pc, out)
        if instr.rd:
            out.append(f"{ind}r[{instr.rd}] = v")
        return "v"

    base, family = CC_FAMILY[m]
    a = f"r[{instr.rs1}]"
    b = _operand(instr)
    if family in ("add", "sub"):
        carry = " + st.c" if base == "addx" else (
            " - st.c" if base == "subx" else "")
        out.append(f"{ind}a = {a}")
        if not instr.i:
            out.append(f"{ind}b = {b}")
            b = "b"
        if family == "add":
            out.append(f"{ind}t = a + {b}{carry}")
            out.append(f"{ind}v = t & {_M32}")
            out.append(f"{ind}st.c = t >> 32")
            out.append(f"{ind}st.v = (~(a ^ {b}) & (a ^ v)) >> 31 & 1")
        else:
            out.append(f"{ind}t = a - {b}{carry}")
            out.append(f"{ind}v = t & {_M32}")
            out.append(f"{ind}st.c = 1 if t < 0 else 0")
            out.append(f"{ind}st.v = ((a ^ {b}) & (a ^ v)) >> 31 & 1")
    else:  # logic / mul / div families clear C and V
        _alu_lines(base, instr, ind, pc, out)
        out.append(f"{ind}st.c = 0")
        out.append(f"{ind}st.v = 0")
    _emit_flags(family, ind, out)
    if instr.rd:
        out.append(f"{ind}r[{instr.rd}] = v")
    return "v"


def _emit_sethi(instr: DecodedInstr, ind: str, out: list) -> str:
    value = (instr.imm << 10) & M32
    out.append(f"{ind}v = {value}")
    if instr.rd:
        out.append(f"{ind}r[{instr.rd}] = v")
    return "v"


def _fault_test(size: int, msize: int) -> str:
    """The fault condition of a ``size``-byte access at RAM offset ``off``.

    One AND tests alignment and range together: with ``P`` the smallest
    power of two >= ``msize``, ``off & (~(P - size) | (size - 1))`` is
    zero exactly for the aligned offsets in ``[0, P - size]``, and a
    negative ``off`` (an address below the RAM base) sets every high bit,
    so it fails too.  RAM bases are 8-byte aligned
    (:class:`~repro.vm.memory.Memory`), so ``off`` and the address share
    their alignment bits.  Only when ``msize`` is not a power of two
    does the tail ``[msize - size + 1, P)`` need the extra comparison.
    """
    p = 1 << (msize - 1).bit_length()
    test = f"off & {~(p - size) | (size - 1)}"
    if p != msize:
        test += f" or off > {msize - size}"
    return test


def _emit_access(instr: DecodedInstr, pc: int, ind: str, out: list,
                 mbase: int, msize: int, size: int, what: str) -> None:
    """The effective RAM offset ``off`` of a load/store, fault-checked."""
    # the absolute address is only rebuilt on the fault and SMC paths
    out.append(f"{ind}off = ((r[{instr.rs1}] + {_operand(instr)})"
               f" & {_M32}) - {mbase}")
    out.append(f"{ind}if {_fault_test(size, msize)}:")
    out.append(f"{ind}    raise _MF(off + {mbase}, {size}, "
               f"'{what} outside RAM or misaligned', pc={pc})")


def _emit_load(instr: DecodedInstr, pc: int, ind: str, out: list,
               mbase: int, msize: int) -> str:
    m = instr.mnemonic
    size, signed, fp, pair = _LOAD_PARAMS[m]
    _emit_access(instr, pc, ind, out, mbase, msize, size, "load")
    if size == 1:
        out.append(f"{ind}v = _ram[off]")
    else:
        out.append(f"{ind}v = _ld{size}(_ram, off)[0]")
    if signed:
        bits = size * 8
        out.append(f"{ind}if v >> {bits - 1}:")
        out.append(f"{ind}    v = (v - {1 << bits}) & {_M32}")
    if fp:
        if pair:
            out.append(f"{ind}f[{instr.rd}] = v >> 32")
            out.append(f"{ind}f[{instr.rd + 1}] = v & {_M32}")
        else:
            out.append(f"{ind}f[{instr.rd}] = v")
    elif pair:
        if instr.rd:
            out.append(f"{ind}r[{instr.rd}] = v >> 32")
        out.append(f"{ind}r[{instr.rd | 1}] = v & {_M32}")
    elif instr.rd:
        out.append(f"{ind}r[{instr.rd}] = v")
    # only the 64-bit pairs load more than a u32
    return f"v & {_M32}" if pair else "v"


def _store_sizes(instrs) -> list[int]:
    """The distinct access sizes of the stores among ``instrs``."""
    return sorted({_STORE_PARAMS[ins.mnemonic][0]
                   for ins in instrs if ins.kind == "store"})


def _emit_guard_prologue(sizes: list[int], mbase: int, out: list) -> None:
    """Hoist the self-modifying-code watch range into block locals.

    A ``size``-byte store at ``off`` overlaps ``[code_lo, code_hi)``
    iff ``_cl{size} < off < _chi``.  The watch range only grows when the
    dispatcher translates code, never while a block runs (every closure
    a block calls is translated before it is compiled, and a store's
    invalidation never moves the range), so reading it once per
    dispatch is exact.
    """
    for size in sizes:
        out.append(f"    _cl{size} = st.code_lo - {mbase + size}")
    if sizes:
        out.append(f"    _chi = st.code_hi - {mbase}")


def _emit_store(instr: DecodedInstr, pc: int, k: int, ind: str, out: list,
                mbase: int, msize: int, acc: str = "",
                flush: list | None = None) -> str:
    m = instr.mnemonic
    size, fp, pair = _STORE_PARAMS[m]
    _emit_access(instr, pc, ind, out, mbase, msize, size, "store")
    if fp:
        if pair:
            out.append(f"{ind}v = (f[{instr.rd}] << 32) | f[{instr.rd + 1}]")
        else:
            out.append(f"{ind}v = f[{instr.rd}]")
    elif pair:
        out.append(f"{ind}v = (r[{instr.rd}] << 32) | r[{instr.rd | 1}]")
    else:
        out.append(f"{ind}v = r[{instr.rd}] & {(1 << (size * 8)) - 1}")
    if size == 1:
        out.append(f"{ind}_ram[off] = v")
    else:
        out.append(f"{ind}_st{size}(_ram, off, v)")
    lv = f"v & {_M32}" if pair else "v"
    # Self-modifying code (the watch range sits in the block's prologue
    # locals, see _emit_guard_prologue): retire the prefix including this
    # store, drop the stale translations and bail out to the dispatch loop
    out.append(f"{ind}if _cl{size} < off < _chi:")
    out.append(f"{ind}    st.last_value = {lv}")
    for line in flush or ():  # flush completed self-loop iterations first
        out.append(f"{ind}    {line}")
    out.append(f"{ind}    _fix(st, {k + 1})")
    out.append(f"{ind}    st.on_code_write(off + {mbase}, {size})")
    out.append(f"{ind}    return {acc}{k + 1}")
    return lv


def _emit_fpop(instr: DecodedInstr, ind: str, out: list) -> str:
    """FPop/FCmp bodies via the shared IEEE helpers (never raise)."""
    m = instr.mnemonic
    rd, rs1, rs2 = instr.rd, instr.rs1, instr.rs2
    if m in ("fmovs", "fnegs", "fabss"):
        op = {"fmovs": f"f[{rs2}]",
              "fnegs": f"f[{rs2}] ^ 2147483648",
              "fabss": f"f[{rs2}] & 2147483647"}[m]
        out.append(f"{ind}v = {op}")
        out.append(f"{ind}f[{rd}] = v")
        return "v"
    if m in ("fcmps", "fcmpd"):
        g = "_getd" if m.endswith("d") else "_getf"
        out.append(f"{ind}a = {g}(f, {rs1})")
        out.append(f"{ind}b = {g}(f, {rs2})")
        out.append(f"{ind}st.fcc = 3 if (a != a or b != b) else "
                   f"(1 if a < b else (2 if a > b else 0))")
        return "st.fcc"
    if m in ("fitos", "fitod"):
        out.append(f"{ind}x = f[{rs2}]")
        cvt = "float(x - 4294967296 if x & 2147483648 else x)"
        if m == "fitod":
            out.append(f"{ind}_putd(f, {rd}, {cvt})")
            return f"f[{rd + 1}]"
        out.append(f"{ind}_putf(f, {rd}, {cvt})")
        return f"f[{rd}]"
    if m in ("fstoi", "fdtoi"):
        g = "_getd" if m == "fdtoi" else "_getf"
        out.append(f"{ind}f[{rd}] = _f2i({g}(f, {rs2}))")
        return f"f[{rd}]"
    if m == "fstod":
        out.append(f"{ind}_putd(f, {rd}, _getf(f, {rs2}))")
        return f"f[{rd + 1}]"
    if m == "fdtos":
        out.append(f"{ind}_putf(f, {rd}, _getd(f, {rs2}))")
        return f"f[{rd}]"
    double = m.endswith("d")
    base = m[:-1]
    g, p = ("_getd", "_putd") if double else ("_getf", "_putf")
    if base in ("fadd", "fsub", "fmul"):
        op = {"fadd": "+", "fsub": "-", "fmul": "*"}[base]
        out.append(f"{ind}{p}(f, {rd}, {g}(f, {rs1}) {op} {g}(f, {rs2}))")
    elif base == "fdiv":
        out.append(f"{ind}{p}(f, {rd}, _fdivh({g}(f, {rs1}), {g}(f, {rs2})))")
    else:
        assert base == "fsqrt", m
        out.append(f"{ind}{p}(f, {rd}, _fsqrth({g}(f, {rs2})))")
    return f"f[{rd + 1}]" if double else f"f[{rd}]"


def _uses_fregs(instr: DecodedInstr) -> bool:
    kind = instr.kind
    if kind in ("fpop", "fcmp"):
        return True
    if kind == "load":
        return _LOAD_PARAMS[instr.mnemonic][2]
    if kind == "store":
        return _STORE_PARAMS[instr.mnemonic][1]
    return False


def _emit_body(instr: DecodedInstr, pc: int, k: int, ind: str, out: list,
               mbase: int, msize: int, acc: str = "",
               flush: list | None = None) -> str | None:
    """Dispatch to the per-kind emitter; returns the last-value expression."""
    kind = instr.kind
    if kind == "arith":
        return _emit_arith(instr, pc, ind, out)
    if kind == "sethi":
        return _emit_sethi(instr, ind, out)
    if kind == "nop":
        return None
    if kind == "load":
        return _emit_load(instr, pc, ind, out, mbase, msize)
    if kind == "store":
        return _emit_store(instr, pc, k, ind, out, mbase, msize, acc, flush)
    if kind == "rdy":
        out.append(f"{ind}v = st.y")
        if instr.rd:
            out.append(f"{ind}r[{instr.rd}] = v")
        return "v"
    if kind == "wry":
        out.append(f"{ind}st.y = (r[{instr.rs1}] ^ {_operand(instr)})"
                   f" & {_M32}")
        return "st.y"
    assert kind in ("fpop", "fcmp"), kind
    return _emit_fpop(instr, ind, out)


# -- branch terminators ------------------------------------------------------

def _branch_mode(instr: DecodedInstr) -> tuple[str, str | None]:
    """Classify an inlineable terminator: ('always'|'never'|'cond', expr)."""
    kind = instr.kind
    if kind == "call":
        return "always", None
    m = instr.mnemonic
    if kind == "branch":
        if m == "ba":
            return "always", None
        if m == "bn":
            return "never", None
        return "cond", _COND_EXPR[m]
    mask = FCC_MASKS[m]
    if mask == 0b1111:
        return "always", None
    if mask == 0:
        return "never", None
    return "cond", f"({mask} >> st.fcc) & 1"


def _make_fixup(entry: int, meta: list) -> Callable:
    """Fault fix-up: retire the first ``n`` fused instructions exactly."""
    def fixup(st: "CpuState", n: int) -> None:
        cc = st.cat_counts
        for cat, cell in meta[:n]:
            cc[cat] += 1
            cell[0] += 1
        st.pc = entry + 4 * n
        st.npc = st.pc + 4
    return fixup


def _scan(cpu: "Cpu", entry: int):
    """Decode the straight-line run at ``entry`` plus its terminator.

    Returns ``(fused, term, term_pc, inline, delay, mode, expr)`` -- the
    front end of :func:`compile_block`, so the functional and the
    profiled translation always agree on block shape.  Raises
    :class:`~repro.vm.errors.IllegalInstruction` only for the entry word.
    """
    has_fpu = cpu.morpher.has_fpu
    first = cpu.decoded_at(entry)  # may raise IllegalInstruction
    fused: list[tuple[int, DecodedInstr]] = []
    term: DecodedInstr | None = None
    pc = entry
    instr = first
    while True:
        if _fusible(instr, has_fpu):
            fused.append((pc, instr))
            pc += 4
            if len(fused) >= cpu.block_size:
                break
            try:
                instr = cpu.decoded_at(pc)
            except IllegalInstruction:
                break
        else:
            term = instr
            break
    term_pc = pc

    # Decide how the terminator is handled: inlined branch (+ fused delay
    # slot), per-instruction closure, or absent (fall-through chain).
    inline = False
    delay: DecodedInstr | None = None
    mode = expr = None
    if term is not None and term.kind in ("branch", "fbranch", "call"):
        mode, expr = _branch_mode(term)
        if term.annul and mode in ("always", "never"):
            inline = True  # the delay slot is annulled on every taken path
        else:
            try:
                cand = cpu.decoded_at(term_pc + 4)
            except IllegalInstruction:
                cand = None
            if cand is not None and _delay_safe(cand, has_fpu):
                inline = True
                delay = cand
    return fused, term, term_pc, inline, delay, mode, expr


class _Accounting:
    """Batched per-block counter bookkeeping of :func:`compile_block`."""

    def __init__(self, morpher):
        self.morpher = morpher
        #: per fused instruction: (category, mnemonic cell) for fix-ups.
        self.meta: list[tuple[int, list]] = []
        self.cat_totals: dict[int, int] = {}
        self.cell_order: list[tuple[str, list, int]] = []
        self.cell_index: dict[str, int] = {}

    def account(self, instr: DecodedInstr, batched: bool = True) -> str:
        """Register instr's counters; returns the ns name of its cell."""
        m = instr.mnemonic
        cell = self.morpher.mn_cells.setdefault(m, [0])
        if m not in self.cell_index:
            self.cell_index[m] = len(self.cell_order)
            self.cell_order.append((m, cell, 0))
        idx = self.cell_index[m]
        if batched:
            name, c, count = self.cell_order[idx]
            self.cell_order[idx] = (name, c, count + 1)
            cat = category_of(instr)
            self.cat_totals[cat] = self.cat_totals.get(cat, 0) + 1
        return f"_mc{idx}"

    def fill_ns(self, ns: dict) -> None:
        for i, (_, cell, _) in enumerate(self.cell_order):
            ns[f"_mc{i}"] = cell

    def emit_batch(self, ind: str, out: list) -> None:
        """The per-execution batched counter update (fused + inline term)."""
        for cat in sorted(self.cat_totals):
            out.append(f"{ind}cc[{cat}] += {self.cat_totals[cat]}")
        for i, (_, _, count) in enumerate(self.cell_order):
            if count:
                out.append(f"{ind}_mc{i}[0] += {count}")


def jitter_table(amplitude: float) -> tuple[float, ...]:
    """``jit[i] == 1.0 + amplitude * (i / 32768.0 - 1.0)`` for 16-bit ``i``.

    Per-amplitude lookup of :meth:`repro.hw.board.CostMeter.on_retire`
    (the testbed's stepwise oracle): each entry is computed
    with exactly the float expression of
    :func:`repro.hw.energy.jitter_factor`, so indexing it is bit-identical
    to evaluating the formula while replacing four float operations per
    retired instruction with one subscript.
    """
    table = _JITTER_TABLES.get(amplitude)
    if table is None:
        global _CENTERED_16BIT
        if _CENTERED_16BIT is None:
            # i / 32768.0 - 1.0 for every 16-bit i, via C-level map passes
            # (* 2^-15 is exactly / 32768.0, + -1.0 is exactly - 1.0)
            _CENTERED_16BIT = tuple(map(
                (-1.0).__add__, map((2.0 ** -15).__mul__, range(65536))))
        if amplitude:
            table = tuple(map(1.0.__add__,
                              map(amplitude.__mul__, _CENTERED_16BIT)))
        else:
            table = (1.0,) * 65536
        _JITTER_TABLES[amplitude] = table
    return table


_CENTERED_16BIT: tuple[float, ...] | None = None

_JITTER_TABLES: dict[float, tuple[float, ...]] = {}


def compile_block(cpu: "Cpu", entry: int, profiler=None) -> Block:
    """Translate the superblock entered at ``entry`` for ``cpu``.

    The one block emitter of every block-dispatching loop.  Without a
    ``profiler`` it emits the functional ISS's translation: the
    architectural effect plus the batched Table-I and per-mnemonic
    counters, nothing else.  With one -- the configuration-independent
    accumulator of the profile-once DSE path and the hardware testbed
    (:class:`repro.vm.profiler.ProfileMeter`) -- the same block also
    records the *operands of the cost algebra*, so any configuration can
    be priced later by :mod:`repro.nfp.linear` without re-running the
    simulation:

    * per-mnemonic retire counts ride the existing batched counters;
    * each retire adds its 16-bit jitter index -- exactly the subscript a
      cost meter would look up -- onto an *integer* per-mnemonic
      accumulator.  ``sum(jit[idx]) == count + amp * J`` with ``J``
      recovered exactly from the integer sum (a 16-bit index scaled by a
      power of two), so the data-dependent energy term is captured with
      no float rounding in the hot path;
    * branch terminators bump per-site taken/untaken cells and mirror
      untaken retires into per-mnemonic untaken accumulators (the
      untaken cycle discount and energy factor are config parameters);
    * divide retires bank the result-bit-length cycle refund per site
      (the refund itself is configuration-independent);
    * ``save``/``restore`` run through their closures and tally window
      *depth* events, from which spill/fill counts and trap-energy
      indices for any candidate ``nwindows`` fall out of the single run.

    Block shape, fault recovery, self-modifying-code bail-outs, self-loop
    counter deferral with localized condition codes, and chaining into
    translated successors are common to both modes; the architectural
    results stay bit-identical to the per-instruction loops
    (``tests/test_vm_blocks.py``, ``tests/test_profile.py``).  One
    profiled run replaces one metered run per configuration: the
    hardware testbed (:meth:`repro.hw.board.Board.measure_raw`) prices it
    for its board, and the profile-once sweeps price it for every grid
    point.

    Raises :class:`~repro.vm.errors.IllegalInstruction` when the entry
    word itself cannot be fetched or decoded (matching the
    per-instruction translator); decode failures *past* the entry merely
    end the block.
    """
    state = cpu.state
    mem = state.mem
    morpher = cpu.morpher
    profiling = profiler is not None
    index = profiler.index if profiling else None
    flags = cost_flags()
    sentinel = "st.last_value"

    fused, term, term_pc, inline, delay, mode, expr = _scan(cpu, entry)
    n = len(fused)

    sentinel_used = False
    #: emission-time CSE state for the value hash held by local ``hv``
    hv_state: list = [None]
    body_serial = [0]
    site_cells: dict[str, object] = {}

    def site(prefix: str, pc: int, cell) -> str:
        name = f"_{prefix}{pc:x}"
        site_cells[name] = cell
        return name

    def emit_hash(val: str, ind: str, out: list, fresh: bool = False) -> None:
        nonlocal sentinel_used
        if val == sentinel:
            sentinel_used = True
        key = (val, body_serial[0])
        if fresh or hv_state[0] != key:
            out.append(f"{ind}w = ({val}) * 2654435761")
            out.append(f"{ind}hv = (w ^ (w >> 15)) & 65535")
            hv_state[0] = None if fresh else key

    def idx_expr(pc: int) -> str:
        q = pc_fold16(pc)
        return f"hv ^ {q}" if q else "hv"

    def emit_profile(m: str, pc: int, ind: str, out: list, val: str,
                     untaken: bool = False, fresh: bool = False) -> None:
        """Profile lines of one retire whose flag resolves at compile time."""
        if not profiling:
            return
        emit_hash(val, ind, out, fresh=fresh)
        idx = idx_expr(pc)
        out.append(f"{ind}_js[{index[m]}] += {idx}")
        if untaken:
            out.append(f"{ind}_uc[{index[m]}] += 1")
            out.append(f"{ind}_us[{index[m]}] += {idx}")
        if flags[m] == FLAG_INTDIV:
            cell = site("dv", pc, profiler.div_cell(pc))
            out.append(f"{ind}{cell}[0] += 1")
            out.append(f"{ind}{cell}[1] += (32 - ({val}).bit_length()) >> 1")

    def emit_retire_profile(m: str, pc: int, ind: str, out: list) -> None:
        """Standalone profile replay reading post-retire ``st`` state.

        Used where the instruction ran through its per-instruction
        closure (delayed-control entries and closure terminators): the
        flag behaviour is resolved at run time from ``st``.
        """
        if not profiling:
            return
        flag = flags[m]
        emit_hash(sentinel, ind, out, fresh=True)
        out.append(f"{ind}_ix = {idx_expr(pc)}")
        out.append(f"{ind}_js[{index[m]}] += _ix")
        if flag == FLAG_BRANCH:
            cell = site("bs", pc, profiler.branch_cell(pc))
            out.append(f"{ind}if st.taken:")
            out.append(f"{ind}    {cell}[0] += 1")
            out.append(f"{ind}else:")
            out.append(f"{ind}    {cell}[1] += 1")
            out.append(f"{ind}    _uc[{index[m]}] += 1")
            out.append(f"{ind}    _us[{index[m]}] += _ix")
        elif flag == FLAG_INTDIV:
            cell = site("dv", pc, profiler.div_cell(pc))
            out.append(f"{ind}{cell}[0] += 1")
            out.append(f"{ind}{cell}[1] += "
                       f"(32 - st.last_value.bit_length()) >> 1")
        elif flag == FLAG_WINDOW:
            # the closure already moved the window: save's spill test
            # reads the post-increment depth, restore's fill test the
            # pre-decrement depth (see the morpher's save/restore)
            hist = "_sdep" if m == "save" else "_rdep"
            depth = "st.wdepth" if m == "save" else "st.wdepth + 1"
            out.append(f"{ind}_d = {depth}")
            out.append(f"{ind}_c = {hist}.get(_d)")
            out.append(f"{ind}if _c is None:")
            out.append(f"{ind}    _c = {hist}[_d] = [0, 0]")
            out.append(f"{ind}_c[0] += 1")
            out.append(f"{ind}_c[1] += _ix")

    # -- bookkeeping ---------------------------------------------------------
    acct = _Accounting(morpher)
    for _, ins in fused:
        acct.account(ins)
        acct.meta.append((category_of(ins), morpher.mn_cells[ins.mnemonic]))
    if term is not None and inline:
        acct.account(term)
    #: a non-annulled fused delay slot retires on every arm: batch it
    delay_batched = delay is not None and not term.annul
    delay_cell = None
    if delay is not None:
        delay_cell = acct.account(delay, batched=delay_batched)

    guarded = any(_can_raise(ins) for _, ins in fused)
    use_f = any(_uses_fregs(ins) for _, ins in fused) or (
        delay is not None and _uses_fregs(delay))

    target = (term_pc + term.imm) & M32 if (term is not None and inline) \
        else None
    taken_count = n + (1 if delay is None else 2)
    self_loop = (inline and mode in ("always", "cond")
                 and target == entry and term.kind != "call")
    #: a profiled branch terminator counts its site's taken/untaken retires
    term_is_branch = (profiling and term is not None and inline
                      and flags[term.mnemonic] == FLAG_BRANCH)
    bs_cell = site("bs", term_pc, profiler.branch_cell(term_pc)) \
        if term_is_branch else None

    def scaled(count: int, factor: str) -> str:
        return factor if count == 1 else f"{count} * {factor}"

    #: self-loops keep the condition codes in locals across iterations and
    #: materialise them at every exit; the \x00 marker shields these
    #: stores from the localisation rewrite (:func:`_localize_flags`)
    mats = [f"\x00st.{f} = {f}_" for f in ("n", "z", "v", "c", "fcc")] \
        if self_loop else []

    #: recover completed self-loop iterations: counters and the back-edge
    #: branch-site taken count
    flush_lines: list[str] = []
    if self_loop:
        flush_lines.append(f"_it = _n // {taken_count}")
        for cat in sorted(acct.cat_totals):
            flush_lines.append(
                f"cc[{cat}] += {scaled(acct.cat_totals[cat], '_it')}")
        for i, (_, _, count) in enumerate(acct.cell_order):
            if count:
                flush_lines.append(f"_mc{i}[0] += {scaled(count, '_it')}")
        if term_is_branch:
            flush_lines.append(f"{bs_cell}[0] += _it")
        flush_lines.append("if _n:")
        flush_lines.append("    st.taken = 1")

    ns: dict[str, object] = {
        **_HELPERS,
        "_first": cpu.closure_at(entry),
        "_fix": _make_fixup(entry, acct.meta),
        "_bget": cpu.blocks_get,
        "_ram": mem.ram,
    }
    if profiling:
        ns.update(_js=profiler.jsum, _uc=profiler.untaken_counts,
                  _us=profiler.untaken_jsum, _sdep=profiler.save_depths,
                  _rdep=profiler.restore_depths)

    mbase, msize = mem.base, mem.size
    first_instr = fused[0][1] if fused else term
    fn_name = "_pblock" if profiling else "_block"
    out: list[str] = [f"def {fn_name}(st, _rem):",
                      "    r = st.regs"]
    if use_f:
        out.append("    f = st.fregs")
    out.append("    cc = st.cat_counts")
    # Delayed-control entry (pc == entry, npc elsewhere): execute exactly
    # one instruction through its closure, then profile it.  A raise
    # inside _first propagates unprofiled, like the stepping loop.
    out.append(f"    if st.npc != {entry + 4}:")
    out.append("        _first(st)")
    emit_retire_profile(first_instr.mnemonic, entry, "        ", out)
    out.append("        return 1")
    _emit_guard_prologue(_store_sizes(ins for _, ins in fused), mbase, out)
    # the entry path always hashes st.last_value; that must not force
    # back-edge materialisation inside the loop body
    sentinel_used = False

    li = "    "
    if self_loop:
        out.append("    _n = 0")
        out.append(f"    _limit = _rem - {taken_count}")
        out.append("    while True:")
        li = "        "
    acc_prefix = "_n + " if self_loop else ""

    body_ind = li + "    " if guarded else li
    if guarded:
        out.append(f"{li}i = 0")
        out.append(f"{li}try:")

    def emit_body_tracked(ins: DecodedInstr, ipc: int, k: int, ind: str,
                          flush: list | None = None) -> str | None:
        """_emit_body + hash-CSE invalidation when state may have moved."""
        before = len(out)
        lv = _emit_body(ins, ipc, k, ind, out, mbase, msize,
                        acc=acc_prefix, flush=flush)
        if len(out) != before:
            body_serial[0] += 1
        return lv

    cur = sentinel
    for k, (ipc, ins) in enumerate(fused):
        out.append(f"{body_ind}# 0x{ipc:08x} {ins.mnemonic}")
        if _can_raise(ins):
            out.append(f"{body_ind}i = {k}")
        flush = None
        if ins.kind == "store":
            # self-modifying-code early exit: profile the store itself
            # (its last_value is already set by the SMC branch), then let
            # _fix retire the prefix counters
            flush = []
            emit_profile(ins.mnemonic, ipc, "", flush, sentinel, fresh=True)
            flush += flush_lines
            flush += mats
        lv = emit_body_tracked(ins, ipc, k, body_ind, flush)
        if lv is not None:
            cur = lv
        emit_profile(ins.mnemonic, ipc, body_ind, out, cur)
    if guarded:
        out.append(f"{li}except BaseException:")
        for line in flush_lines + mats:
            out.append(f"{li}    {line}")
        out.append(f"{li}    _fix(st, i)")
        out.append(f"{li}    raise")

    end = entry + 4 * n
    length = n
    cur_prelude = cur  # last-value expression after the fused run

    def emit_delay(ind: str) -> str:
        """Delay-slot body + profile/counters; returns the new cur."""
        out.append(f"{ind}# 0x{term_pc + 4:08x} {delay.mnemonic} (delay)")
        dlv = emit_body_tracked(delay, term_pc + 4, 0, ind)
        val = dlv if dlv is not None else cur_prelude
        emit_profile(delay.mnemonic, term_pc + 4, ind, out, val)
        if not delay_batched:
            out.append(f"{ind}cc[{category_of(delay)}] += 1")
            out.append(f"{ind}{delay_cell}[0] += 1")
        return val

    def emit_materialize(ind: str, value: str) -> None:
        if value != sentinel:
            out.append(f"{ind}st.last_value = {value}")

    def emit_mats(ind: str) -> None:
        for line in mats:
            out.append(f"{ind}{line}")

    def emit_chain(ind: str, dest: int, count: int) -> None:
        """Tail-chain into the already-translated successor block.

        The successor gets exactly its own length as budget: it runs once
        but cannot chain further, so the recursion stays one frame deep.
        """
        out.append(f"{ind}_nxt = _bget({dest})")
        out.append(f"{ind}if _nxt is not None "
                   f"and _nxt[1] <= _rem - {count}:")
        out.append(f"{ind}    return {count} + _nxt[0](st, _nxt[1])")
        out.append(f"{ind}return {count}")

    if term is None:
        # fall-through end (maximum length or undecodable next word)
        acct.emit_batch("    ", out)
        emit_materialize("    ", cur)
        out.append(f"    st.pc = {end}")
        out.append(f"    st.npc = {end + 4}")
        emit_chain("    ", end, n)
    elif not inline:
        # terminator via its per-instruction closure (which retires its
        # own counters); a raise inside it profiles nothing, like stepping
        acct.emit_batch("    ", out)
        emit_materialize("    ", cur)
        out.append(f"    st.pc = {term_pc}")
        out.append(f"    st.npc = {term_pc + 4}")
        out.append("    _term(st)")
        emit_retire_profile(term.mnemonic, term_pc, "    ", out)
        out.append(f"    return {n + 1}")
        ns["_term"] = cpu.closure_at(term_pc)
        end = term_pc + 4
        length = n + 1
    else:
        if not self_loop:
            # per-dispatch blocks retire their counters once; self-loops
            # defer them to the flush at their exits
            acct.emit_batch(li, out)
        if term.kind == "call":
            out.append(f"{li}r[15] = {term_pc}")

        def emit_taken(ind: str) -> None:
            emit_profile(term.mnemonic, term_pc, ind, out, cur_prelude)
            if term_is_branch and not self_loop:
                out.append(f"{ind}{bs_cell}[0] += 1")
            count = n + 1
            cur = cur_prelude
            if delay is not None:
                cur = emit_delay(ind)
                count = taken_count
            if self_loop:
                out.append(f"{ind}_n += {taken_count}")
                out.append(f"{ind}if _n <= _limit:")
                if sentinel_used and cur != sentinel:
                    # the next pass hashes st.last_value before its first
                    # producer: keep it fresh across the back edge
                    out.append(f"{ind}    st.last_value = {cur}")
                out.append(f"{ind}    continue")
                for line in flush_lines[:-2]:  # taken exit: set st.taken
                    out.append(f"{ind}{line}")
            out.append(f"{ind}st.taken = 1")
            emit_materialize(ind, cur)
            out.append(f"{ind}st.pc = {target}")
            out.append(f"{ind}st.npc = {target + 4}")
            emit_mats(ind)
            if self_loop:
                out.append(f"{ind}return _n")
            else:
                emit_chain(ind, target, count)

        def emit_untaken(ind: str) -> None:
            if self_loop:
                for line in flush_lines[:-2]:  # st.taken set explicitly
                    out.append(f"{ind}{line}")
                acct.emit_batch(ind, out)
            out.append(f"{ind}st.taken = 0")
            emit_profile(term.mnemonic, term_pc, ind, out, cur_prelude,
                         untaken=term_is_branch)
            if term_is_branch:
                out.append(f"{ind}{bs_cell}[1] += 1")
            count = n + 1
            cur = cur_prelude
            if not term.annul and delay is not None:
                cur = emit_delay(ind)
                count = taken_count
            emit_materialize(ind, cur)
            out.append(f"{ind}st.pc = {term_pc + 8}")
            out.append(f"{ind}st.npc = {term_pc + 12}")
            emit_mats(ind)
            if self_loop:
                out.append(f"{ind}return _n + {count}")
            else:
                emit_chain(ind, term_pc + 8, count)

        if mode == "always":
            emit_taken(li)
        elif mode == "never":
            emit_untaken(li)
        else:
            out.append(f"{li}if {expr}:")
            # the arms are alternative control paths: hash-CSE state from
            # inside the taken arm must not leak into the untaken arm
            saved = (hv_state[0], body_serial[0])
            emit_taken(li + "    ")
            hv_state[0], body_serial[0] = saved
            emit_untaken(li)
        end = term_pc + 4 + (4 if delay is not None else 0)
        length = taken_count if (delay is not None or mode != "never") \
            else n + 1

    if self_loop:
        delay_writes_flags = delay is not None and (
            delay.kind == "fcmp" or (delay.kind == "arith"
                                     and delay.mnemonic in CC_FAMILY))
        out = _localize_flags(
            out, defer_dead=not guarded
            and not any(ins.kind == "store" for _, ins in fused)
            and not delay_writes_flags)

    acct.fill_ns(ns)
    ns.update(site_cells)
    source = "\n".join(out) + "\n"
    code = _compile_source(source, f"<{fn_name[1:]} 0x{entry:08x}>")
    exec(code, ns)  # noqa: S102 - the source is generated above, not input
    fn = ns[fn_name]
    fn.__block_source__ = source  # debugging aid
    return Block(fn, max(length, 1), entry, end)


_FLAG_RE = re.compile(r"st\.(n|z|v|c|fcc)\b")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: scratch names a deferred flag expression may reference (anything else
#: -- registers, state attributes, hash temporaries -- disables deferral)
_DEFER_SCRATCH = {"a", "b", "t", "v", "x"}
_DEFER_KEYWORDS = {"if", "else"}


def _localize_flags(out: list[str], defer_dead: bool = False) -> list[str]:
    """Keep condition codes in locals across self-loop iterations.

    Inside the ``while True:`` body every ``st.n``/``st.z``/``st.v``/
    ``st.c``/``st.fcc`` reference is rewritten to a local (``n_`` ...),
    seeded once before the loop; the exit paths carry pre-placed
    materialisation stores (marked with ``\\x00`` so this rewrite skips
    them), so the architectural state is exact at every return, fault and
    self-modifying-code bail-out while the hot path saves one attribute
    store per flag write per iteration.

    With ``defer_dead`` (loops whose only exits run after a full fused
    pass), a flag that is never *read* inside the loop is not even
    computed per iteration: its final expression replaces the
    materialisation store at each exit, provided it only references
    scratch names that are not reassigned later in the body.
    """
    widx = out.index("    while True:")
    used: set[str] = set()
    for line in out[widx + 1:]:
        if "\x00" not in line:
            used.update(_FLAG_RE.findall(line))
    region: list[str] = []
    for line in out[widx + 1:]:
        if "\x00" in line:
            flag = line.split("st.", 1)[1].split(" ", 1)[0]
            if flag in used:
                region.append(line.replace("\x00", ""))
        else:
            region.append(_FLAG_RE.sub(lambda m: f"{m.group(1)}_", line))
    if defer_dead:
        region = _defer_dead_flags(region, used)
    inits = [f"    {f}_ = st.{f}" for f in sorted(used)]
    return out[:widx] + inits + [out[widx]] + region


def _defer_dead_flags(region: list[str], used: set[str]) -> list[str]:
    """Move in-loop-dead flag computations into the exit stores."""
    deferred: dict[str, str] = {}  # flag -> final RHS expression
    drop: set[int] = set()
    for flag in used:
        assign_prefix = f"{flag}_ = "
        local = f"{flag}_"
        mat = f"st.{flag} = {local}"
        assigns = [i for i, line in enumerate(region)
                   if line.lstrip().startswith(assign_prefix)]
        if not assigns:
            continue
        # every other occurrence must be an exit materialisation store
        local_re = re.compile(rf"(?<![A-Za-z0-9_]){local}(?![A-Za-z0-9_])")
        readers = [line for i, line in enumerate(region)
                   if i not in assigns and local_re.search(line)
                   and line.strip() != mat]
        if readers:
            continue
        rhs = region[assigns[-1]].split(" = ", 1)[1]
        names = set(_IDENT_RE.findall(rhs)) - _DEFER_KEYWORDS
        if not names <= _DEFER_SCRATCH:
            continue
        # the expression must still hold at the exits: none of its
        # scratches may be reassigned after the final flag write
        tail = region[assigns[-1] + 1:]
        if any(line.lstrip().startswith(f"{name} = ")
               for line in tail for name in names):
            continue
        deferred[flag] = rhs
        drop.update(assigns)
    if not deferred:
        return region
    new_region: list[str] = []
    for i, line in enumerate(region):
        if i in drop:
            continue
        stripped = line.strip()
        replaced = False
        for flag, rhs in deferred.items():
            if stripped == f"st.{flag} = {flag}_":
                new_region.append(line.split("st.")[0] + f"st.{flag} = {rhs}")
                replaced = True
                break
        if not replaced:
            new_region.append(line)
    return new_region
