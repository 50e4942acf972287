"""Deterministic simulation tasks: the unit of caching and distribution.

A :class:`SimTask` describes everything a worker process needs to
reproduce one simulation bit-for-bit: the linked program image, the
functional core (``fast`` mode, the ISS counts run; ``profile`` mode,
the execution-profile run of the profile-once DSE path) or the fully
priced hardware configuration (``metered`` mode, the testbed
cycle/energy run), and the watchdog budget.  :func:`task_key` hashes
exactly those inputs (plus :data:`SCHEMA_VERSION`), so the disk cache
can never return a result for different content, regardless of kernel
names or call sites.

Results travel as plain JSON dicts.  Python's ``repr``-based float
serialisation round-trips exactly, so a payload loaded from a warm cache
is bit-identical to the one computed cold -- the property the warm/cold
tests pin down.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.asm.program import Program
from repro.hw.board import Board, RawMeasurement
from repro.hw.config import HwConfig
from repro.vm.config import CoreConfig
from repro.vm.profiler import profile_run
from repro.vm.simulator import SimulationResult, Simulator

#: Bump when result payloads or simulation cost semantics change: old
#: cache entries then simply stop being addressed.  2: the ``profile``
#: task mode and its execution-profile payloads joined the schema --
#: pre-profile entries (metered included) address different keys, so a
#: stale cache can never alias across the schema change.  3: profile
#: payloads dropped the per-block dispatch diagnostics
#: (``PROFILE_VERSION`` 2), so v2 entries must stop being addressed.
#: 4: metered payloads come from a profiled run priced for the board
#: (energy moves at the 1e-12 level, ``extras`` changed keys), so a warm
#: v3 entry would differ from a cold run.
SCHEMA_VERSION = 4


@dataclass(frozen=True)
class SimTask:
    """One deterministic simulation to run (and cache) somewhere."""

    mode: str  #: ``"fast"`` / ``"profile"`` (ISS) or ``"metered"`` (testbed)
    program: Program
    budget: int
    core: CoreConfig | None = None  #: fast/profile mode platform
    hw: HwConfig | None = None      #: metered mode platform

    def __post_init__(self) -> None:
        if self.mode in ("fast", "profile"):
            if self.core is None:
                raise ValueError(f"{self.mode} tasks need a CoreConfig")
        elif self.mode == "metered":
            if self.hw is None:
                raise ValueError("metered tasks need a HwConfig")
        else:
            raise ValueError(f"unknown task mode {self.mode!r}")


def program_digest(program: Program) -> str:
    """SHA-256 over everything execution can observe of ``program``.

    Memoised on the program object (:class:`Program` is a frozen
    dataclass, so the hashed content cannot change underneath the
    memo): a DSE sweep keys hundreds of tasks against the same handful
    of images, so each image is hashed once rather than once per task
    key.
    """
    cached = getattr(program, "_content_digest", None)
    if cached is None:
        h = hashlib.sha256()
        h.update(f"{program.origin}|{program.entry}|{program.data_addr}|"
                 f"{program.bss_addr}|{program.bss_size}|".encode())
        h.update(program.text)
        h.update(b"|")
        h.update(program.data)
        cached = h.hexdigest()
        object.__setattr__(program, "_content_digest", cached)
    return cached


def _core_fingerprint(core: CoreConfig) -> list:
    return [core.has_fpu, core.nwindows, core.ram_size, core.ram_base,
            core.stack_reserve, core.blocks_enabled, core.block_size,
            core.metered_blocks_enabled]


def _hw_fingerprint(hw: HwConfig) -> list:
    return [
        hw.clock_hz, hw.static_power_w, hw.jitter_amplitude,
        hw.untaken_branch_discount, hw.untaken_branch_energy_factor,
        hw.window_trap_cycles, hw.window_trap_energy_nj,
        sorted(hw.cycle_table.items()),
        sorted(hw.dyn_energy_nj.items()),
    ]


def task_key(task: SimTask) -> str:
    """The content address of ``task``'s result."""
    core = task.hw.core if task.mode == "metered" else task.core
    blob = json.dumps({
        "v": SCHEMA_VERSION,
        "mode": task.mode,
        "budget": task.budget,
        "program": program_digest(task.program),
        "core": _core_fingerprint(core),
        "hw": _hw_fingerprint(task.hw) if task.mode == "metered" else None,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- result payloads ---------------------------------------------------------

def sim_to_dict(sim: SimulationResult) -> dict:
    return {
        "exit_code": sim.exit_code,
        "retired": sim.retired,
        "category_counts": sim.category_counts,
        "mnemonic_counts": sim.mnemonic_counts,
        "console": sim.console,
        "wall_seconds": sim.wall_seconds,
        "translated_pcs": sim.translated_pcs,
        "max_window_depth": sim.max_window_depth,
        "spill_count": sim.spill_count,
        "fill_count": sim.fill_count,
        "extras": sim.extras,
    }


def sim_from_dict(data: dict) -> SimulationResult:
    return SimulationResult(**data)


def raw_to_payload(raw: RawMeasurement) -> dict:
    return {
        "cycles": raw.cycles,
        "dyn_energy_nj": raw.dyn_energy_nj,
        "true_time_s": raw.true_time_s,
        "true_energy_j": raw.true_energy_j,
        "sim": sim_to_dict(raw.sim),
    }


def raw_from_payload(data: dict) -> RawMeasurement:
    return RawMeasurement(
        cycles=data["cycles"],
        dyn_energy_nj=data["dyn_energy_nj"],
        true_time_s=data["true_time_s"],
        true_energy_j=data["true_energy_j"],
        sim=sim_from_dict(data["sim"]),
    )


def run_task(task) -> dict:
    """Execute ``task`` (in this or a worker process) -> JSON payload.

    Dispatches on ``task.mode``: the three :class:`SimTask` simulation
    modes, plus the sharded streamed sweep's ``"shard"`` pricing tasks
    (:class:`repro.dse.shard.ShardTask`) -- routed here so the
    resilient executor's chaos injection, retries and failure records
    apply to them unchanged.
    """
    if task.mode == "shard":
        # deferred: keeps worker bootstrap light for plain sim tasks
        from repro.dse.shard import run_shard_task
        return run_shard_task(task)
    if task.mode == "metered":
        raw = Board(task.hw).measure_raw(task.program,
                                         max_instructions=task.budget)
        return raw_to_payload(raw)
    if task.mode == "profile":
        sim, profile = profile_run(task.program, task.core, task.budget)
        return {"sim": sim_to_dict(sim), "profile": profile}
    sim = Simulator(task.program, task.core).run(
        max_instructions=task.budget)
    return {"sim": sim_to_dict(sim)}
