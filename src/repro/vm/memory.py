"""Flat RAM model for the platform (CPU + memory, as in OVP platforms).

The LEON3 platform maps RAM at ``0x40000000``.  There is no MMU and no
cache -- faithful to the measurement setup of the paper, where both were
disabled.  Accesses outside RAM or with insufficient alignment raise
:class:`~repro.vm.errors.MemoryFault` (the real core would trap).
"""

from __future__ import annotations

import mmap
import struct

from repro.vm.errors import MemoryFault

DEFAULT_BASE = 0x40000000
DEFAULT_SIZE = 8 * 1024 * 1024


class Memory:
    """Byte-addressable big-endian RAM (SPARC is big-endian).

    The backing store is an anonymous, private :class:`mmap.mmap`, exposed
    as :attr:`ram` so the morpher can generate closures that access it
    directly; all bounds/alignment invariants those closures rely on are
    established here.  The mapping reads as zeros and is backed lazily, so
    a simulation holds only the pages its program touches, not the whole
    RAM, and a forked process shares those pages copy-on-write.
    """

    __slots__ = ("base", "ram", "on_write")

    def __init__(self, size: int = DEFAULT_SIZE, base: int = DEFAULT_BASE):
        if size <= 0 or size % 8:
            raise ValueError(f"RAM size must be a positive multiple of 8: {size}")
        if base % 8:
            raise ValueError(f"RAM base must be 8-byte aligned: {base:#x}")
        self.base = base
        self.ram = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
        #: host-write observer ``(addr, size) -> None``; the CPU installs
        #: one so writes through these accessors (tests, syscalls, debug
        #: pokes) invalidate stale code translations.  Guest stores go
        #: through the morpher's inlined fast path and are watched there.
        self.on_write = None

    @property
    def size(self) -> int:
        return len(self.ram)

    @property
    def end(self) -> int:
        """First address past RAM."""
        return self.base + len(self.ram)

    def _offset(self, addr: int, size: int, align: int) -> int:
        off = addr - self.base
        if addr % align:
            raise MemoryFault(addr, size, f"address not {align}-byte aligned")
        if off < 0 or off + size > len(self.ram):
            raise MemoryFault(addr, size, "address outside RAM")
        return off

    # -- scalar accessors (used by loader, syscalls, tests; the morpher
    #    inlines equivalent logic for speed) --------------------------------

    def read_u8(self, addr: int) -> int:
        off = self._offset(addr, 1, 1)
        return self.ram[off]

    def read_u16(self, addr: int) -> int:
        off = self._offset(addr, 2, 2)
        return (self.ram[off] << 8) | self.ram[off + 1]

    def read_u32(self, addr: int) -> int:
        off = self._offset(addr, 4, 4)
        return int.from_bytes(self.ram[off:off + 4], "big")

    def read_u64(self, addr: int) -> int:
        off = self._offset(addr, 8, 8)
        return int.from_bytes(self.ram[off:off + 8], "big")

    def write_u8(self, addr: int, value: int) -> None:
        off = self._offset(addr, 1, 1)
        self.ram[off] = value & 0xFF
        if self.on_write is not None:
            self.on_write(addr, 1)

    def write_u16(self, addr: int, value: int) -> None:
        off = self._offset(addr, 2, 2)
        self.ram[off:off + 2] = (value & 0xFFFF).to_bytes(2, "big")
        if self.on_write is not None:
            self.on_write(addr, 2)

    def write_u32(self, addr: int, value: int) -> None:
        off = self._offset(addr, 4, 4)
        self.ram[off:off + 4] = (value & 0xFFFFFFFF).to_bytes(4, "big")
        if self.on_write is not None:
            self.on_write(addr, 4)

    def write_u64(self, addr: int, value: int) -> None:
        off = self._offset(addr, 8, 8)
        self.ram[off:off + 8] = (value & (2**64 - 1)).to_bytes(8, "big")
        if self.on_write is not None:
            self.on_write(addr, 8)

    def read_f64(self, addr: int) -> float:
        off = self._offset(addr, 8, 8)
        return struct.unpack_from(">d", self.ram, off)[0]

    def write_f64(self, addr: int, value: float) -> None:
        off = self._offset(addr, 8, 8)
        struct.pack_into(">d", self.ram, off, value)
        if self.on_write is not None:
            self.on_write(addr, 8)

    def read_bytes(self, addr: int, size: int) -> bytes:
        off = self._offset(addr, max(size, 1), 1)
        return bytes(self.ram[off:off + size])

    def write_bytes(self, addr: int, blob: bytes) -> None:
        off = self._offset(addr, max(len(blob), 1), 1)
        self.ram[off:off + len(blob)] = blob
        if self.on_write is not None and blob:
            self.on_write(addr, len(blob))

    def load_program(self, origin: int, image: bytes, bss_addr: int = 0,
                     bss_size: int = 0) -> None:
        """Copy a program image into RAM and zero its ``.bss``."""
        self.write_bytes(origin, image)
        if bss_size:
            self.write_bytes(bss_addr, b"\x00" * bss_size)
