"""Linear NFP evaluation: price any hardware config from one profile.

This is Eq. 1 taken to its logical end.  A profiled run
(:class:`repro.vm.profiler.ProfileMeter`) captures the execution counts
the retire-cost algebra of :class:`repro.hw.board.CostMeter` consumes;
:class:`LinearNfpEngine` then reproduces the metered accumulation for an
arbitrary :class:`~repro.hw.config.HwConfig` as dot products against
config-derived cost vectors:

``cycles``
    ``sum(count[m] * cycle_table[m]) - untaken * discount - div_refund
    + traps(nwindows) * trap_cycles`` -- pure integer arithmetic, so the
    result is *bit-identical* to the metered run's accumulator.  The
    cycle table itself already encodes the wait-state axis, the window
    axis enters through the depth histograms, and the clock only scales
    the time conversion.

``dynamic energy``
    Every metered retire adds ``dyn[m] * (1 + amp * (idx/32768 - 1))``.
    Summed per mnemonic this is ``dyn[m] * (count[m] + amp * J[m])``
    with ``J[m] = (jsum[m] - count[m] * 2**15) * 2**-15`` recovered
    *exactly* from the profile's integer index sums; untaken branches
    contribute an extra ``(factor - 1)`` share and window traps an
    extra ``trap_nj`` share.  The per-mnemonic terms are combined with
    ``math.fsum``, so the only deviation from the metered run is the
    metered run's own float-accumulation drift -- a random walk that
    grows roughly with the square root of the retired count (measured
    <= 1e-12 relative across the stock smoke sweep at ~2e6 retires per
    point; budget the tolerance accordingly for much longer runs).  The
    DVFS axis scales ``dyn`` uniformly and drops straight through.

The evaluator is deterministic and order-independent (integer sums plus
a correctly-rounded float sum), so warm-cache, cold-cache and parallel
evaluations of the same profile are byte-identical.

Profiles compose before they are lowered: :func:`add_profiles`,
:func:`scale_profile` and :func:`compose_profiles` are exact integer
algebra on :class:`ExecutionProfile` counts, and a composed profile
lowers (:func:`lower_profile`) and prices like any other.  Lowered
:class:`ProfileVectors` are only ever priced, never combined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from operator import mul
from typing import Mapping, Sequence

from repro.hw.config import HwConfig, ScaledDynTable
from repro.vm.blocks import FLAG_BRANCH

#: Exact scale of the centred jitter index: ``idx * 2**-15 - 1``.
_SCALE = 2.0 ** -15


@dataclass(frozen=True)
class ExecutionProfile:
    """One run's config-independent cost basis (see ``ProfileMeter``).

    ``mnemonics`` maps each retired mnemonic to
    ``(count, jsum, untaken_count, untaken_jsum)``; the site and depth
    tables carry the branch/divide/window detail described in
    :mod:`repro.vm.profiler`.  Instances are plain data: they travel as
    JSON payloads through the result cache and worker pool.
    """

    retired: int
    clean: bool
    mnemonics: Mapping[str, tuple[int, int, int, int]]
    branch_sites: Mapping[int, tuple[int, int]]
    div_sites: Mapping[int, tuple[int, int]]
    save_depths: Mapping[int, tuple[int, int]]
    restore_depths: Mapping[int, tuple[int, int]]

    @classmethod
    def from_payload(cls, data: dict) -> "ExecutionProfile":
        """Rebuild a profile from its JSON payload (cache/pool format)."""
        from repro.vm.profiler import PROFILE_VERSION
        version = data.get("version")
        if version != PROFILE_VERSION:
            # belt and braces behind the task-schema key: a structure
            # change must never be deserialised as the current one
            raise ValueError(
                f"execution-profile payload version {version!r} does not "
                f"match PROFILE_VERSION {PROFILE_VERSION}")

        def intkeys(table: dict) -> dict[int, tuple[int, ...]]:
            return {int(k): tuple(v) for k, v in table.items()}

        return cls(
            retired=data["retired"],
            clean=bool(data["clean"]),
            mnemonics={m: tuple(v) for m, v in data["mnemonics"].items()},
            branch_sites=intkeys(data["branch_sites"]),
            div_sites=intkeys(data["div_sites"]),
            save_depths=intkeys(data["save_depths"]),
            restore_depths=intkeys(data["restore_depths"]),
        )

    @property
    def div_refund_cycles(self) -> int:
        """Total divide bit-length cycle refund (config-independent)."""
        return sum(cell[1] for cell in self.div_sites.values())

    def window_events(self, nwindows: int) -> tuple[int, int, int]:
        """``(spills, fills, trap index sum)`` under ``nwindows`` windows.

        A save spills iff its post-increment depth is ``>= nwindows - 1``
        and a restore fills symmetrically (pre-decrement depth) -- the
        morpher's exact trap conditions applied to the recorded depth
        histogram, so any candidate window count is priced from one run.
        """
        spills = fills = jsum = 0
        for depth, (count, j) in self.save_depths.items():
            if depth >= nwindows - 1:
                spills += count
                jsum += j
        for depth, (count, j) in self.restore_depths.items():
            if depth >= nwindows - 1:
                fills += count
                jsum += j
        return spills, fills, jsum


# -- profile algebra ----------------------------------------------------------
#
# Every field of an ExecutionProfile is an integer count or an integer
# sum of integers, so profiles form a commutative monoid under pointwise
# addition and composition is *exact*: the profile of "run A, then run B
# as an independent program" is ``add_profiles(A, B)`` with no rounding
# anywhere.  This is what lets a many-frame image pipeline be priced as
# ``sum_c count_c * sum_s profile(stage s, frame class c)`` instead of
# one simulation of the whole frame stream per configuration
# (:mod:`repro.workloads.pipeline`).

#: Site keys are program counters (32-bit); composed stages are rebased
#: into disjoint key windows of this span (:func:`offset_sites`) so
#: same-pc sites of *different* stage programs never alias in the
#: composed site tables.
SITE_SPAN = 1 << 32

_IDENTITY_PROFILE: "ExecutionProfile | None" = None


def identity_profile() -> ExecutionProfile:
    """The empty profile: the neutral element of :func:`add_profiles`."""
    global _IDENTITY_PROFILE
    if _IDENTITY_PROFILE is None:
        _IDENTITY_PROFILE = ExecutionProfile(
            retired=0, clean=True, mnemonics={}, branch_sites={},
            div_sites={}, save_depths={}, restore_depths={})
    return _IDENTITY_PROFILE


def _merge_cells(tables) -> dict:
    out: dict = {}
    for table in tables:
        for key, cell in table.items():
            held = out.get(key)
            out[key] = (tuple(cell) if held is None
                        else tuple(a + b for a, b in zip(held, cell)))
    return out


def add_profiles(*profiles: ExecutionProfile) -> ExecutionProfile:
    """Pointwise sum of profiles: the profile of the concatenated runs.

    Exact by construction (integers only).  Associative and commutative;
    :func:`identity_profile` is the neutral element.  Site tables merge
    *by key addition* -- two profiles recorded from the same program add
    their per-site counts, which is what ``scale_profile(p, n) ==``
    n-fold ``add_profiles(p, ...)`` requires.  Composing *different*
    programs must first rebase their site keys apart with
    :func:`offset_sites` (or use :func:`compose_profiles`).  ``clean``
    is the conjunction: one self-modifying part poisons the composite.
    """
    if not profiles:
        return identity_profile()
    if len(profiles) == 1:
        return profiles[0]
    return ExecutionProfile(
        retired=sum(p.retired for p in profiles),
        clean=all(p.clean for p in profiles),
        mnemonics=_merge_cells(p.mnemonics for p in profiles),
        branch_sites=_merge_cells(p.branch_sites for p in profiles),
        div_sites=_merge_cells(p.div_sites for p in profiles),
        save_depths=_merge_cells(p.save_depths for p in profiles),
        restore_depths=_merge_cells(p.restore_depths for p in profiles),
    )


def scale_profile(profile: ExecutionProfile, n: int) -> ExecutionProfile:
    """``n`` back-to-back runs of the same program: every count times n.

    Equals the n-fold :func:`add_profiles` of ``profile`` with itself
    (``n = 0`` yields :func:`identity_profile`), but in O(profile) --
    pricing 1000 identical frames costs the same as pricing one.
    """
    if n < 0:
        raise ValueError(f"cannot scale a profile by {n} (< 0) runs")
    if n == 0:
        return identity_profile()
    if n == 1:
        return profile

    def scaled(table):
        return {key: tuple(v * n for v in cell)
                for key, cell in table.items()}

    return ExecutionProfile(
        retired=profile.retired * n,
        clean=profile.clean,
        mnemonics=scaled(profile.mnemonics),
        branch_sites=scaled(profile.branch_sites),
        div_sites=scaled(profile.div_sites),
        save_depths=scaled(profile.save_depths),
        restore_depths=scaled(profile.restore_depths),
    )


def offset_sites(profile: ExecutionProfile, offset: int) -> ExecutionProfile:
    """Rebase the branch/div site keys by ``+offset`` (disambiguation).

    Site keys only ever group counts (the evaluator sums over them), so
    rebasing changes no NFP; it exists so :func:`add_profiles` over
    *different* programs keeps their same-pc sites apart.  Depth
    histograms are keyed by window depth, a physical quantity shared
    across programs, and are deliberately left alone.
    """
    if offset == 0:
        return profile
    return ExecutionProfile(
        retired=profile.retired,
        clean=profile.clean,
        mnemonics=profile.mnemonics,
        branch_sites={pc + offset: cell
                      for pc, cell in profile.branch_sites.items()},
        div_sites={pc + offset: cell
                   for pc, cell in profile.div_sites.items()},
        save_depths=profile.save_depths,
        restore_depths=profile.restore_depths,
    )


def compose_profiles(parts: Sequence[tuple["ExecutionProfile", int]]
                     ) -> ExecutionProfile:
    """``sum_i count_i * profile_i`` across distinct programs, exactly.

    The pipeline composition primitive: each part is one (stage, frame
    class) invocation profile with its frame count; parts are rebased
    into disjoint :data:`SITE_SPAN` site-key windows by position, then
    scaled and summed.  All integer, so the composed profile prices
    cycles/retired bit-identically to metering every invocation.
    """
    return add_profiles(*(
        scale_profile(offset_sites(profile, i * SITE_SPAN), count)
        for i, (profile, count) in enumerate(parts)))


@dataclass(frozen=True)
class LinearNfp:
    """NFPs of one (profile, configuration) point, metered-equivalent."""

    cycles: int
    dyn_energy_nj: float
    true_time_s: float
    true_energy_j: float
    spills: int
    fills: int
    retired: int


def _jit_sum(amp: float, count: int, jsum: int) -> float:
    """``sum(1 + amp * (idx/32768 - 1))`` over retires, exactly.

    ``jsum - count * 2**15`` is the integer sum of centred indices; the
    power-of-two scale makes the float conversion exact for any run that
    fits a double's mantissa (2**38 retires).
    """
    return count + amp * ((jsum - (count << 15)) * _SCALE)


def canonical_basis() -> tuple[str, ...]:
    """The canonical mnemonic basis of the batch evaluator.

    Every implemented instruction, sorted -- the flat index space
    profile count vectors (:func:`lower_profile`) are expressed in.
    Mnemonics a profile never retired carry zero counts and lie outside
    its support, so the dot products never visit them.
    """
    global _BASIS
    if _BASIS is None:
        from repro.vm.blocks import cost_flags
        _BASIS = tuple(sorted(cost_flags()))
    return _BASIS


_BASIS: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ProfileVectors:
    """An :class:`ExecutionProfile` lowered onto the canonical basis.

    Flat per-mnemonic vectors plus window-threshold suffix tables: the
    profile side of the batch dot products.  ``jcent`` holds the exact
    centred jitter sums ``(jsum - count * 2**15) * 2**-15`` (a double
    holds them exactly, see :func:`_jit_sum`); the ``u*`` vectors are
    masked to branch mnemonics, everything else is zero.  The window
    tables are suffix sums of the depth histograms indexed by the trap
    threshold ``t = nwindows - 1`` (clipped), so any window count is a
    table lookup.

    Instances are immutable, so each derives its *support* once on
    construction: the slots it retired, which are all the dot products
    (:func:`cycle_dot`, :func:`energy_dots`) visit.  ``support`` is
    ``(mnemonics, counts, fcounts, jcent)`` over the slots whose count
    or centred jitter is nonzero, and ``untaken`` is ``(mnemonics,
    ucounts, ujcent)`` over the slots with untaken retires.  Both are
    views of the vectors above and take no part in equality.
    """

    basis: tuple[str, ...]
    counts: tuple[int, ...]
    fcounts: tuple[float, ...]
    jcent: tuple[float, ...]
    ucounts: tuple[float, ...]
    ujcent: tuple[float, ...]
    total_untaken: int
    div_refund: int
    retired: int
    clean: bool
    spills_at: tuple[int, ...]
    fills_at: tuple[int, ...]
    trapjc_at: tuple[float, ...]   #: centred trap jitter sum per threshold
    support: tuple = field(init=False, repr=False, compare=False)
    untaken: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        on = [c or j for c, j in zip(self.counts, self.jcent)]
        un = [c or j for c, j in zip(self.ucounts, self.ujcent)]
        object.__setattr__(self, "support", tuple(
            tuple(compress(vector, on))
            for vector in (self.basis, self.counts, self.fcounts,
                           self.jcent)))
        object.__setattr__(self, "untaken", tuple(
            tuple(compress(vector, un))
            for vector in (self.basis, self.ucounts, self.ujcent)))

    def window_at(self, nwindows: int) -> tuple[int, int, float]:
        """``(spills, fills, centred trap jitter)`` under ``nwindows``."""
        t = nwindows - 1
        last = len(self.spills_at) - 1
        if t > last:
            t = last
        elif t < 0:
            t = 0
        return self.spills_at[t], self.fills_at[t], self.trapjc_at[t]


def _suffix_tables(profile: ExecutionProfile) -> tuple[
        tuple[int, ...], tuple[int, ...], tuple[float, ...]]:
    """Window-event suffix sums, one slot per trap threshold.

    Slot ``t`` equals ``profile.window_events(t + 1)`` recomputed as
    integer suffix sums; one slot past the deepest recorded depth is
    all-zero and absorbs every larger window count.
    """
    depths = list(profile.save_depths) + list(profile.restore_depths)
    top = max(depths, default=-1) + 2   # one all-zero slot past the max
    saves = [0] * top
    savej = [0] * top
    rests = [0] * top
    restj = [0] * top
    for depth, (count, j) in profile.save_depths.items():
        if depth >= 0:
            saves[depth] += count
            savej[depth] += j
    for depth, (count, j) in profile.restore_depths.items():
        if depth >= 0:
            rests[depth] += count
            restj[depth] += j
    spills_at = [0] * top
    fills_at = [0] * top
    trapjc_at = [0.0] * top
    run_s = run_f = run_j = 0
    for t in range(top - 1, -1, -1):
        run_s += saves[t]
        run_f += rests[t]
        run_j += savej[t] + restj[t]
        spills_at[t] = run_s
        fills_at[t] = run_f
        traps = run_s + run_f
        trapjc_at[t] = (run_j - (traps << 15)) * _SCALE
    return tuple(spills_at), tuple(fills_at), tuple(trapjc_at)


def lower_profile(profile: ExecutionProfile,
                  basis: tuple[str, ...] | None = None) -> ProfileVectors:
    """Lower ``profile`` to flat vectors over ``basis`` (canonical default)."""
    from repro.vm.blocks import cost_flags
    basis = basis or canonical_basis()
    flags = cost_flags()
    index = {m: i for i, m in enumerate(basis)}
    n = len(basis)
    counts = [0] * n
    jcent = [0.0] * n
    ucounts = [0.0] * n
    ujcent = [0.0] * n
    total_untaken = 0
    for m, (count, jsum, uc, uj) in profile.mnemonics.items():
        i = index.get(m)
        if i is None:
            raise ValueError(
                f"profile mnemonic {m!r} is outside the evaluation basis")
        counts[i] = count
        jcent[i] = (jsum - (count << 15)) * _SCALE
        if flags.get(m) == FLAG_BRANCH and uc:
            ucounts[i] = float(uc)
            ujcent[i] = (uj - (uc << 15)) * _SCALE
            total_untaken += uc
    spills_at, fills_at, trapjc_at = _suffix_tables(profile)
    return ProfileVectors(
        basis=basis,
        counts=tuple(counts),
        fcounts=tuple(float(c) for c in counts),
        jcent=tuple(jcent),
        ucounts=tuple(ucounts),
        ujcent=tuple(ujcent),
        total_untaken=total_untaken,
        div_refund=profile.div_refund_cycles,
        retired=profile.retired,
        clean=profile.clean,
        spills_at=spills_at,
        fills_at=fills_at,
        trapjc_at=trapjc_at,
    )


def cycle_dot(table: Mapping[str, int], vectors: ProfileVectors) -> int:
    """Exact integer base-cycle dot product of one cycle table.

    Visits only the profile's support: every other slot has a zero
    count and would add an exact integer zero.
    """
    names, counts, _, _ = vectors.support
    return sum(map(mul, map(table.__getitem__, names), counts))


def energy_dots(table: Mapping[str, float],
                vectors: ProfileVectors) -> tuple[float, float, float, float]:
    """The four exact energy dot products of one dynamic-energy table.

    ``(sum dyn*count, sum dyn*jcent, sum dyn*ucount, sum dyn*ujcent)``,
    each a correctly-rounded :func:`math.fsum` over the profile's
    support (:attr:`ProfileVectors.support`, and its ``untaken`` slots
    for the last two).  A slot outside the support would add an exact
    zero product, and ``fsum`` rounds the same exact sum either way, so
    the result is bit-identical to the dense dot over the whole basis.
    Independent of batch composition and shared by the batch engine
    and the streamed sweep, which is what makes streamed and
    materialized sweeps byte-identical.
    """
    names, _, fcounts, jcent = vectors.support
    dyn = tuple(map(table.__getitem__, names))
    unames, ucounts, ujcent = vectors.untaken
    udyn = tuple(map(table.__getitem__, unames))
    return (math.fsum(map(mul, dyn, fcounts)),
            math.fsum(map(mul, dyn, jcent)),
            math.fsum(map(mul, udyn, ucounts)),
            math.fsum(map(mul, udyn, ujcent)))


class LinearNfpEngine:
    """Per-configuration cost vectors, applied to profiles as dot products.

    Build one engine per candidate :class:`HwConfig` and call
    :meth:`evaluate` for every workload profile -- the sweep's hot loop
    is a few dozen multiply-adds per point instead of a simulation.
    """

    __slots__ = ("hw", "table", "amp", "untaken_discount", "untaken_extra",
                 "trap_cycles", "trap_nj", "cycle_seconds", "static_power_w",
                 "nwindows")

    def __init__(self, hw: HwConfig):
        self.hw = hw
        self.table = hw.cost_table
        self.amp = hw.jitter_amplitude
        self.untaken_discount = hw.untaken_branch_discount
        #: untaken retires already contribute ``dyn * S`` through the
        #: total accumulators; only the ``(factor - 1)`` share is extra
        self.untaken_extra = hw.untaken_branch_energy_factor - 1.0
        self.trap_cycles = hw.window_trap_cycles
        self.trap_nj = hw.window_trap_energy_nj
        self.cycle_seconds = hw.cycle_seconds
        self.static_power_w = hw.static_power_w
        self.nwindows = hw.core.nwindows

    def evaluate(self, profile: ExecutionProfile) -> LinearNfp:
        """Price ``profile`` under this engine's configuration."""
        table = self.table
        amp = self.amp
        cycles = 0
        terms: list[float] = []
        # sorted: the term order is canonical regardless of payload
        # round-trips (fsum is order-independent anyway; belt and braces)
        for m in sorted(profile.mnemonics):
            count, jsum, uc, uj = profile.mnemonics[m]
            base, dyn, flag = table[m]
            cycles += count * base
            terms.append(dyn * _jit_sum(amp, count, jsum))
            if flag == FLAG_BRANCH and uc:
                cycles -= uc * self.untaken_discount
                terms.append(dyn * self.untaken_extra
                             * _jit_sum(amp, uc, uj))
        cycles -= profile.div_refund_cycles
        spills, fills, trap_jsum = profile.window_events(self.nwindows)
        traps = spills + fills
        if traps:
            cycles += traps * self.trap_cycles
            terms.append(self.trap_nj * _jit_sum(amp, traps, trap_jsum))
        dyn_energy_nj = math.fsum(terms)
        # exactly the expressions of Board.measure_raw, applied to the
        # bit-identical cycle count
        true_time_s = cycles * self.cycle_seconds
        true_energy_j = (dyn_energy_nj * 1e-9
                         + self.static_power_w * true_time_s)
        return LinearNfp(
            cycles=cycles,
            dyn_energy_nj=dyn_energy_nj,
            true_time_s=true_time_s,
            true_energy_j=true_energy_j,
            spills=spills,
            fills=fills,
            retired=profile.retired,
        )


class BatchNfpEngine:
    """Price N configurations against one profile in a single pass.

    The batch counterpart of :class:`LinearNfpEngine`: the configs'
    cost tables are *deduplicated by identity* -- a sweep whose axes
    derive tables from shared bases (the stock clock/wait-state axes
    memoize them) reduces each distinct table once and each config is
    then a constant-size combine.  Every reduction visits only the
    slots the profile retired (:attr:`ProfileVectors.support`), with
    exact arithmetic:

    - cycle tables: pure-integer dot products (:func:`cycle_dot`), so
      ``cycles``/``time`` are bit-identical to
      :class:`LinearNfpEngine` and the metered run;
    - energy tables: four correctly-rounded ``fsum`` dots per table
      (:func:`energy_dots`), combined per config in a fixed expression
      order.  A :class:`~repro.hw.config.ScaledDynTable` (the DVFS
      axis' derived tables) contributes its *base* table's dots
      rescaled by one IEEE multiply, so a dense clock sweep reduces one
      table exactly instead of one per clock value.  The combine (and
      the scale factoring) regroups the per-point engine's single
      fsum, so energy agrees to a few ulp (well inside the documented
      1e-12 relative envelope), and each config's result is
      independent of how a batch is composed.

    ``basis`` names the mnemonic basis its callers lower profiles onto
    (the canonical one by default); a profile's support names its own
    mnemonics, so the tables are read directly and no per-basis cost
    row is built.  The combine is one scalar loop over the configs: it
    prices every batch of explicit configurations (materialized grids,
    the evaluation server's coalesced price batches, refinement)
    without importing numpy.  Streamed sweeps price whole axis products
    in the vectorized twin, :class:`repro.dse.stream._FastSweep`.
    """

    __slots__ = ("hws", "basis", "_tables")

    def __init__(self, hws: Sequence[HwConfig],
                 basis: tuple[str, ...] | None = None):
        self.hws = tuple(hws)
        self.basis = basis or canonical_basis()
        # dedupe tables by identity; ``self.hws`` keeps every table (and
        # a ScaledDynTable its base) alive, so no id is recycled while
        # the engine lives.  A ScaledDynTable contributes its *base*
        # table plus a (table index, scale) spec -- a dense DVFS sweep
        # reduces one base table exactly and rescales the dots per
        # distinct scale
        cyc_tables: list = []
        dyn_tables: list = []
        dyn_specs: list[tuple[int, float]] = []
        cyc_index: dict[int, int] = {}
        dyn_index: dict[int, int] = {}
        spec_index: dict[int, int] = {}
        per_hw: list[tuple[int, int]] = []
        for hw in self.hws:
            ct, dt = hw.cycle_table, hw.dyn_energy_nj
            ci = cyc_index.get(id(ct))
            if ci is None:
                ci = cyc_index[id(ct)] = len(cyc_tables)
                cyc_tables.append(ct)
            si = spec_index.get(id(dt))
            if si is None:
                if isinstance(dt, ScaledDynTable):
                    base, scale = dt.base, dt.scale
                else:
                    base, scale = dt, 1.0
                di = dyn_index.get(id(base))
                if di is None:
                    di = dyn_index[id(base)] = len(dyn_tables)
                    dyn_tables.append(base)
                si = spec_index[id(dt)] = len(dyn_specs)
                dyn_specs.append((di, scale))
            per_hw.append((ci, si))
        self._tables = (tuple(cyc_tables), tuple(dyn_tables),
                        tuple(dyn_specs), tuple(per_hw))

    def evaluate(self, vectors: ProfileVectors) -> list[LinearNfp]:
        """Price ``vectors`` under every config, in construction order.

        Raises ``ValueError`` for a config whose time or energy is not a
        finite float (say, wait states so many that the cycle count
        overflows one): such a config has no price to report.
        """
        cyc_tables, dyn_tables, dyn_specs, per_hw = self._tables
        cyc_dots = [cycle_dot(table, vectors) for table in cyc_tables]
        base_dots = [energy_dots(table, vectors) for table in dyn_tables]
        # one IEEE multiply per dot: bit-equal to the streamed tables
        dots = [base_dots[di] if scale == 1.0
                else tuple(scale * d for d in base_dots[di])
                for di, scale in dyn_specs]
        out = []
        tu = vectors.total_untaken
        refund = vectors.div_refund
        retired = vectors.retired
        for hw, (ci, di) in zip(self.hws, per_hw):
            amp = hw.jitter_amplitude
            spills, fills, trapjc = vectors.window_at(hw.core.nwindows)
            traps = spills + fills
            cycles = (cyc_dots[ci] - tu * hw.untaken_branch_discount
                      - refund + traps * hw.window_trap_cycles)
            e1, e2, e3, e4 = dots[di]
            extra = hw.untaken_branch_energy_factor - 1.0
            dyn_energy_nj = ((e1 + amp * e2) + extra * (e3 + amp * e4)
                             + hw.window_trap_energy_nj
                             * (traps + amp * trapjc))
            try:
                true_time_s = cycles * hw.cycle_seconds
            except OverflowError:   # cycles past the float range
                true_time_s = math.inf
            true_energy_j = (dyn_energy_nj * 1e-9
                             + hw.static_power_w * true_time_s)
            if not (math.isfinite(true_time_s)
                    and math.isfinite(true_energy_j)):
                raise ValueError(
                    f"configuration {hw.name!r} has no finite price: its "
                    f"time or energy overflows a float")
            out.append(LinearNfp(
                cycles=cycles, dyn_energy_nj=dyn_energy_nj,
                true_time_s=true_time_s, true_energy_j=true_energy_j,
                spills=spills, fills=fills, retired=retired))
        return out
