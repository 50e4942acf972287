"""Loadable program images (the *kernel* binaries the paper feeds to OVP)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Section:
    """One linked output section."""

    name: str
    addr: int
    size: int

    @property
    def end(self) -> int:
        return self.addr + self.size


@dataclass(frozen=True)
class Program:
    """A fully linked bare-metal program (immutable once linked).

    Attributes
    ----------
    origin:
        Load address of the first byte of ``.text``.
    text, data:
        Encoded section contents.  ``.data`` immediately follows ``.text``
        (8-byte aligned); ``.bss`` follows ``.data`` and is zero-filled by
        the loader.
    entry:
        Address execution starts at.
    symbols:
        Label -> absolute address (or ``.equ`` value).
    """

    origin: int
    text: bytes
    data: bytes
    data_addr: int
    bss_addr: int
    bss_size: int
    entry: int
    symbols: dict[str, int] = field(default_factory=dict)

    @property
    def sections(self) -> tuple[Section, ...]:
        return (
            Section(".text", self.origin, len(self.text)),
            Section(".data", self.data_addr, len(self.data)),
            Section(".bss", self.bss_addr, self.bss_size),
        )

    @property
    def load_image(self) -> bytes:
        """Contiguous bytes from ``origin`` covering ``.text`` and ``.data``."""
        gap = self.data_addr - (self.origin + len(self.text))
        return self.text + b"\x00" * gap + self.data

    @property
    def end_addr(self) -> int:
        """First address past every section (start of free memory)."""
        return self.bss_addr + self.bss_size

    def symbol(self, name: str) -> int:
        """Address of ``name``; raises ``KeyError`` when unknown."""
        return self.symbols[name]

    def word_count(self) -> int:
        """Number of instruction words in ``.text``."""
        return len(self.text) // 4
