"""The streamed-sweep engine: factored pricing into column Pareto stores.

:class:`_FastSweep` is the one engine behind every streamed sweep
(:func:`repro.dse.engine.sweep_streamed`).  It prices a cartesian design
space in flat index space: every axis contributes small per-value cost
tables (its :class:`~repro.dse.axes.AxisLowering`, the same definition
materialized sweeps build configurations from), a chunk of
configurations is just ``arange(start, stop)`` decomposed into per-axis
indices, and the NFP combine is a handful of table gathers plus the
exact expressions of :meth:`repro.nfp.linear.BatchNfpEngine.evaluate`
-- so a million-config space never materializes a single ``HwConfig``.

Bit-compatibility is the design constraint, not an afterthought:

- cycle dot products are computed per distinct cycle table with
  :func:`repro.nfp.linear.cycle_dot` (exact integers) and combined in
  int64, so cycles and times are bit-identical to the per-point path;
- energy dot products reduce each build's *base* dynamic-energy table
  exactly once (:func:`repro.nfp.linear.energy_dots`) and rescale the
  four dots per DVFS value -- the same ``scale * dot`` the batch engine
  computes for a :class:`~repro.hw.config.ScaledDynTable` -- and the
  per-config combine mirrors the batch engine's expression order, so
  streamed and materialized reports come out byte-identical.

Each workload (and the aggregate) reduces into one Pareto store
(:class:`repro.dse.pareto._Store`, the one dominance engine, which also
classifies materialized grids).  The stores fill three ways:

- :meth:`_FastSweep.run` prices a flat range ``[start, stop)`` inline;
- :meth:`~repro.dse.pareto._Store.absorb` folds in a shard worker's
  exported reduction (:mod:`repro.dse.shard`) -- Pareto reduction is
  associative, so the result equals the inline one;
- :meth:`_FastSweep.refine` prices off-grid candidates around the
  aggregate knee as a small materialized grid (one
  :class:`~repro.nfp.linear.BatchNfpEngine` per build, points from
  :func:`repro.dse.engine._grid_from_jobs`, totals from
  :meth:`repro.dse.engine.DseGrid.aggregate`); their seqs continue past
  the grid's ``N`` and their points are kept in a side table.

One finish, :meth:`repro.dse.engine.WorkloadFront.of` (through
:meth:`_FastSweep.workload_front`), serves every path.  Entries carry
only ``(time, energy, area, seq)``; the few that become
:class:`~repro.dse.engine.DsePoint` objects are re-priced from their
flat seq.  numpy is imported inside the pricing code only, so importing
:mod:`repro.dse` (or simulating anything) never loads it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import replace
from typing import Sequence

from repro.dse.axes import DesignSpace, SweepConfig, get_axis
from repro.dse.engine import (
    AGGREGATE,
    DsePoint,
    WorkloadFront,
    _grid_from_jobs,
    _grid_jobs,
)
from repro.dse.evaluate import PointNfp
from repro.dse.pareto import _grouping, _knee_seq, _Store
from repro.dse.workload import WorkloadPair
from repro.hw.area import memctrl_les, synthesize
from repro.hw.config import HwConfig
from repro.nfp.linear import (
    BatchNfpEngine,
    ProfileVectors,
    cycle_dot,
    energy_dots,
)
from repro.runner.resilience import UsageError

#: Cycle counts are combined in int64 columns.
_INT64_MAX = 2 ** 63 - 1


def _unstreamable(what: str) -> UsageError:
    return UsageError(f"{what}; a streamed sweep cannot price it -- run the "
                      f"materialized sweep (drop --stream) instead")


def _cols(seq, t, e, area) -> dict:
    """Store columns of one batch (scalar prices broadcast)."""
    import numpy as np
    n = seq.size
    return {"t": np.broadcast_to(np.asarray(t, dtype=np.float64), (n,)),
            "e": np.broadcast_to(np.asarray(e, dtype=np.float64), (n,)),
            "seq": seq,
            "area": area}


class _FastSweep:
    """One streamed sweep: factored cost tables, stores and the finish.

    Construction lowers every axis and builds the per-value tables; a
    space it cannot price exactly -- two axes claiming one cost-model
    field, or cycle counts past int64 -- raises a
    :class:`~repro.runner.resilience.UsageError` naming the cause.
    There is no fallback path.  Points no sweep can price (a time or
    energy past the float range, from cycle counts or from a clock
    whose energy tables overflow) raise the materialized sweep's
    ``ValueError`` instead.
    """

    def __init__(self, space: DesignSpace,
                 pairs: Sequence[WorkloadPair],
                 vectors: dict[tuple[str, str], ProfileVectors],
                 base: HwConfig, chunk: int = 65536):
        import numpy as np
        self.space = space
        self.pairs = list(pairs)
        self.vectors = vectors
        self.base = base
        self.chunk = max(1, chunk)
        self.size = space.size

        # -- axis geometry ---------------------------------------------------
        self.names = space.axis_names
        self.values = [tuple(values) for _, values in space.axes]
        self.labels = [tuple(get_axis(name).label(v) for v in values)
                       for (name, _), values in zip(space.axes, self.values)]
        self.nvals = [len(v) for v in self.values]
        strides = [1] * len(self.nvals)
        for j in range(len(self.nvals) - 2, -1, -1):
            strides[j] = strides[j + 1] * self.nvals[j + 1]
        self.strides = strides

        # -- role assignment from the axes' lowering hooks -------------------
        roles = {"dyn_scales": "scale", "clock_hz": "chz",
                 "cycle_tables": "ws", "nwindows": "nw", "has_fpu": "fpu"}
        self.axis_of: dict[str, int | None] = dict.fromkeys(roles.values())
        lowered: dict[str, tuple] = {}
        for j, (name, values) in enumerate(space.axes):
            low = get_axis(name).lower(base, tuple(values))
            for field, role in roles.items():
                got = getattr(low, field)
                if got is None:
                    continue
                if field in lowered:
                    raise _unstreamable(
                        f"axis {name!r} lowers {field}, which axis "
                        f"{self.names[self.axis_of[role]]!r} already sets")
                if len(got) != len(values):
                    raise _unstreamable(
                        f"axis {name!r} lowers {len(got)} {field} for "
                        f"{len(values)} values")
                lowered[field] = tuple(got)
                self.axis_of[role] = j
        scales = lowered.get("dyn_scales", (1.0,))
        clocks = lowered.get("clock_hz", (base.clock_hz,))
        cycle_tables = lowered.get("cycle_tables", (base.cycle_table,))
        nw_values = lowered.get("nwindows", (base.core.nwindows,))
        self.fpu_values = lowered.get("has_fpu", (base.core.has_fpu,))
        self.builds = sorted({bool(f) for f in self.fpu_values})

        # memory-interface area keys off the axis *named* wait_states,
        # exactly like the materialized config_area_les
        self.mem_axis = None
        mem_values = (0,)
        for j, name in enumerate(self.names):
            if name == "wait_states":
                self.mem_axis = j
                mem_values = self.values[j]

        # -- per-value cost tables -------------------------------------------
        # scale-indexed scalars (DVFS axis): identical derivations to
        # AxisLowering.apply, so every float matches the materialized path
        self.TRNJ = np.array([base.window_trap_energy_nj * s for s in scales],
                             dtype=np.float64)
        self.STATIC = np.array([base.static_power_w * s for s in scales],
                               dtype=np.float64)
        self.CYCSEC = np.array([1.0 / hz for hz in clocks], dtype=np.float64)
        self.AMP = base.jitter_amplitude
        self.UD = base.untaken_branch_discount
        self.EXTRA = base.untaken_branch_energy_factor - 1.0
        self.TRAP_CYC = base.window_trap_cycles

        self.MEM = np.array([memctrl_les(int(v)) for v in mem_values],
                            dtype=np.int64)
        self.CORE = np.array(
            [[synthesize(replace(base.core, nwindows=int(nw),
                                 has_fpu=bool(f))).total_les
              for f in self.fpu_values]
             for nw in nw_values], dtype=np.int64)

        # per-(workload, build) profile tables
        self.E: dict[tuple[str, str], object] = {}
        self.CYC: dict[tuple[str, str], object] = {}
        self.TRAPS: dict[tuple[str, str], object] = {}
        self.TRJC: dict[tuple[str, str], object] = {}
        #: retired counts per (workload or aggregate, build)
        self.retired: dict[tuple[str, str], int] = {}
        peaks: dict[str, int] = {}      # workload -> worst-case cycles
        for pair in self.pairs:
            for f in self.builds:
                key = (pair.name, "float" if f else "fixed")
                pv = vectors[key]
                agg = (AGGREGATE, key[1])
                self.retired[key] = pv.retired
                self.retired[agg] = self.retired.get(agg, 0) + pv.retired
                # one exact base-table reduction per build, rescaled per
                # DVFS value: the same ``scale * dot`` a BatchNfpEngine
                # computes for a ScaledDynTable, so every float matches
                # the materialized path bit for bit (a 1.0 scale
                # multiplies through unchanged under IEEE-754)
                base_dots = np.asarray(energy_dots(base.dyn_energy_nj, pv),
                                       dtype=np.float64)
                with np.errstate(over="ignore", invalid="ignore"):
                    self.E[key] = (np.asarray(scales, dtype=np.float64)
                                   [:, None] * base_dots[None, :])
                # a clock whose V^2 factor overflows the energy tables:
                # the materialized sweep refuses it, and so does this
                # one, before any shard task runs
                unpriced = ~(np.isfinite(self.E[key]).all(axis=1)
                             & np.isfinite(self.TRNJ)
                             & np.isfinite(self.STATIC))
                if unpriced.any():
                    self._price_point(key, {"scale": int(unpriced.argmax())})
                    raise _unstreamable(
                        f"the energy tables of workload {pair.name!r} "
                        f"({key[1]}) overflow a float")
                dots = [cycle_dot(table, pv) for table in cycle_tables]
                win = [pv.window_at(int(nw)) for nw in nw_values]
                traps = [spills + fills for spills, fills, _ in win]
                peaks[pair.name] = max(peaks.get(pair.name, 0),
                                       max(dots) + max(traps) * self.TRAP_CYC)
                if peaks[pair.name] > _INT64_MAX:
                    # the most cycles at the slowest clock: the longest
                    # run time of the workload
                    self._price_point(key, {
                        "ws": dots.index(max(dots)),
                        "nw": traps.index(max(traps)),
                        "chz": int(self.CYCSEC.argmax())})
                    raise _unstreamable(
                        f"workload {pair.name!r} reaches "
                        f"{peaks[pair.name]} cycles, past int64")
                self.CYC[key] = np.array(dots, dtype=np.int64)
                self.TRAPS[key] = np.array(traps, dtype=np.int64)
                self.TRJC[key] = np.array([j for _, _, j in win],
                                          dtype=np.float64)
        if sum(peaks.values()) > _INT64_MAX:
            raise _unstreamable(
                f"the aggregate of {len(peaks)} workloads reaches "
                f"{sum(peaks.values())} cycles, past int64")
        self.reset()

    def _price_point(self, key: tuple[str, str],
                     picks: dict[str, int]) -> None:
        """Price one point of ``key`` the way the materialized sweep does.

        ``picks`` maps cost roles to value indices on their axes; every
        other axis takes its first value, and the FPU axis ``key``'s
        build.  When the point has no finite price, this raises the
        materialized sweep's own ``ValueError``, so the caller advises
        dropping ``--stream`` only when that would help.
        """
        combo = [values[0] for values in self.values]
        picks = dict(picks, fpu=self.fpu_values.index(key[1] == "float"))
        for role, index in picks.items():
            j = self.axis_of[role]
            if j is not None:
                combo[j] = self.values[j][index]
        config = self.space.config_for(combo, self.base)
        BatchNfpEngine([config.hw]).evaluate(self.vectors[key])

    def reset(self) -> None:
        """Empty stores and side table; the cost tables stay.

        A shard worker keeps one :class:`_FastSweep` per sweep context
        and prices several disjoint flat ranges through it, so the
        table construction above runs once per worker while the
        streaming state starts clean for every range.
        """
        self.stores = {name: _Store() for name in
                       [pair.name for pair in self.pairs] + [AGGREGATE]}
        #: ``(seq, workload) -> DsePoint`` of refined (off-grid) entries
        self.refined: dict[tuple[int, str], DsePoint] = {}

    # -- pricing in index space ----------------------------------------------

    def _axis_index(self, flat, j: int | None):
        """Per-config value index on axis ``j``, or None when absent."""
        import numpy as np
        if j is None:
            return None
        return ((flat // self.strides[j]) % self.nvals[j]).astype(np.intp)

    def _layout(self, flat):
        """``(role indices, fpu, area)`` of a batch of flat indices."""
        import numpy as np
        n = flat.size
        idx = {role: self._axis_index(flat, j)
               for role, j in self.axis_of.items()}
        f_idx, n_idx = idx["fpu"], idx["nw"]
        if f_idx is not None:
            fpu = np.asarray(self.fpu_values, dtype=bool)[f_idx]
        else:
            fpu = np.broadcast_to(np.asarray(self.fpu_values[0]), (n,))
        area = self.CORE[n_idx if n_idx is not None else 0,
                         f_idx if f_idx is not None else 0]
        m_idx = self._axis_index(flat, self.mem_axis)
        area = area + self.MEM[m_idx if m_idx is not None else 0]
        return idx, fpu, np.broadcast_to(np.asarray(area, dtype=np.int64),
                                         (n,))

    def _evaluate_build(self, key, idx):
        """One (workload, build) NFP combine over a batch, in index space.

        The expressions mirror BatchNfpEngine.evaluate exactly
        (same grouping, same operand order), so every float matches the
        materialized path bit for bit.
        """
        import numpy as np

        def pick(table, role):
            i = idx[role]
            return table[i] if i is not None else table[0]

        edots = pick(self.E[key], "scale")
        e1, e2, e3, e4 = (edots[..., 0], edots[..., 1],
                          edots[..., 2], edots[..., 3])
        pv = self.vectors[key]
        traps = pick(self.TRAPS[key], "nw")
        amp = self.AMP
        cycles = (pick(self.CYC[key], "ws") - pv.total_untaken * self.UD
                  - pv.div_refund + traps * self.TRAP_CYC)
        dyn = ((e1 + amp * e2) + self.EXTRA * (e3 + amp * e4)
               + pick(self.TRNJ, "scale")
               * (traps + amp * pick(self.TRJC[key], "nw")))
        time_s = cycles.astype(np.float64) * pick(self.CYCSEC, "chz")
        energy = dyn * 1e-9 + pick(self.STATIC, "scale") * time_s
        return time_s, energy, cycles

    def _price(self, workload: str, idx, fpu):
        """``(time, energy, cycles)`` of a batch, each config on its build.

        The aggregate sums the workloads left to right, exactly like
        ``sum()`` over points.
        """
        import numpy as np
        names = ([pair.name for pair in self.pairs] if workload == AGGREGATE
                 else [workload])
        total = None
        for name in names:
            per_build = [self._evaluate_build(
                (name, "float" if f else "fixed"), idx) for f in self.builds]
            if len(per_build) == 2:
                prices = tuple(np.where(fpu, tf, tx) for tx, tf
                               in zip(*per_build))
            else:
                prices = per_build[0]
            total = (prices if total is None
                     else tuple(a + b for a, b in zip(total, prices)))
        return total

    def run(self, start: int = 0, stop: int | None = None) -> None:
        """Price flat indices ``[start, stop)`` chunk by chunk into the
        stores (the whole space by default; a contiguous shard range in
        a shard worker)."""
        import numpy as np
        stop = self.size if stop is None else min(stop, self.size)
        for cstart in range(start, stop, self.chunk):
            flat = np.arange(cstart, min(stop, cstart + self.chunk),
                             dtype=np.int64)
            idx, fpu, area = self._layout(flat)
            # one stable area grouping, shared by every store's fold
            grouping = _grouping(area)
            agg = None
            for pair in self.pairs:
                t, e, _ = self._price(pair.name, idx, fpu)
                self.stores[pair.name].offer(_cols(flat, t, e, area),
                                             grouping)
                agg = (t, e) if agg is None else (agg[0] + t, agg[1] + e)
            self.stores[AGGREGATE].offer(_cols(flat, *agg, area), grouping)

    # -- refinement ----------------------------------------------------------

    def refine(self, rounds: int) -> int:
        """Adaptive coordinate refinement around the aggregate knee.

        Each round reads the current aggregate knee, proposes the
        midpoint between the knee's value and its nearest known
        neighbours on every refinable axis (``Axis.refine``), prices the
        off-grid candidates (:meth:`_offer_configs`), and offers
        them into the stores with seqs from ``N`` up.  A midpoint whose
        configuration name a grid config or an earlier midpoint already
        holds is skipped, so every priced configuration keeps a name of
        its own (the rule :class:`~repro.dse.axes.DesignSpace` applies
        to the grid).  Stops early when no axis can refine further or
        the knee configuration is unchanged by a round, so the pass is
        deterministic: same space, same workloads, same rounds -> same
        candidates in the same order.  Returns the number of refinement
        configs priced.
        """
        space = self.space
        refinable = [i for i, (name, _) in enumerate(space.axes)
                     if get_axis(name).refine is not None]
        if not refinable or rounds <= 0:
            return 0
        known: dict[int, list] = {
            i: sorted(set(space.axes[i][1])) for i in refinable}
        axes = [get_axis(name) for name, _ in space.axes]
        grid_labels = [set(labels) for labels in self.labels]
        taken: set[str] = set()     # names of the midpoints so far
        seq = self.size
        for _ in range(rounds):
            knee = self._knee(AGGREGATE)
            candidates = []
            knee_combo = tuple(knee.value(name) for name, _ in space.axes)
            for i in refinable:
                axis = axes[i]
                values = known[i]
                value = knee_combo[i]
                pos = bisect_left(values, value)
                below = values[pos - 1] if pos > 0 else None
                if pos < len(values) and values[pos] == value:
                    above = values[pos + 1] if pos + 1 < len(values) else None
                else:
                    above = values[pos] if pos < len(values) else None
                for lo, hi in ((below, value), (value, above)):
                    if lo is None or hi is None:
                        continue
                    mid = axis.refine(lo, hi)
                    if mid is None or mid in values:
                        continue
                    combo = knee_combo[:i] + (mid,) + knee_combo[i + 1:]
                    labels = [a.label(v) for a, v in zip(axes, combo)]
                    name = "-".join(labels)
                    if name in taken or all(
                            label in grid for label, grid
                            in zip(labels, grid_labels)):
                        continue
                    taken.add(name)
                    candidates.append((i, mid, combo))
            if not candidates:
                break
            self._offer_configs([space.config_for(combo, self.base)
                                 for _, _, combo in candidates], seq)
            seq += len(candidates)
            for i, mid, _ in candidates:
                insort(known[i], mid)
            if self._knee(AGGREGATE).config == knee.config:
                break
        return seq - self.size

    def _offer_configs(self, configs: Sequence[SweepConfig],
                       start_seq: int) -> None:
        """Price explicit configs into the stores and the side table.

        The configs form a small materialized grid: each build's configs
        price in one :class:`BatchNfpEngine` (a config's result does not
        depend on its batch), the points come from
        :func:`~repro.dse.engine._grid_from_jobs` and the totals from
        :meth:`~repro.dse.engine.DseGrid.aggregate`, so a refined point
        is built field for field as a materialized sweep builds it.
        """
        import numpy as np
        jobs = _grid_jobs(configs, self.pairs, None)
        npairs = len(self.pairs)
        by_build: dict[str, list[int]] = {}
        for c, config in enumerate(configs):
            build = "float" if config.hw.core.has_fpu else "fixed"
            by_build.setdefault(build, []).append(c)
        nfps: list = [None] * len(jobs)
        for build, members in by_build.items():
            engine = BatchNfpEngine([configs[c].hw for c in members])
            for p, pair in enumerate(self.pairs):
                priced = engine.evaluate(self.vectors[(pair.name, build)])
                for c, nfp in zip(members, priced):
                    # jobs run config-major, pairs in order
                    nfps[c * npairs + p] = PointNfp(
                        time_s=nfp.true_time_s, energy_j=nfp.true_energy_j,
                        cycles=nfp.cycles, retired=nfp.retired,
                        profiled=True)
        grid = _grid_from_jobs(jobs, nfps)
        aggregate = grid.aggregate()
        seqs = np.arange(start_seq, start_seq + len(configs), dtype=np.int64)
        area = np.array([p.area_les for p in aggregate], dtype=np.int64)
        grouping = _grouping(area)
        for workload, points in [
                *((pair.name, grid.select(workload=pair.name))
                  for pair in self.pairs), (AGGREGATE, aggregate)]:
            for seq, point in enumerate(points, start_seq):
                self.refined[(seq, workload)] = point
            self.stores[workload].offer(
                _cols(seqs, [p.time_s for p in points],
                      [p.energy_j for p in points], area), grouping)

    # -- the finish ----------------------------------------------------------

    def _points(self, workload: str, seqs: Sequence[int]) -> list[DsePoint]:
        """The points of ``workload`` at flat ``seqs``, in that order.

        Grid seqs are re-priced in one batch through the exact
        expressions the chunk pass used (elementwise IEEE arithmetic, so
        the floats are the ones the stores hold); refined seqs come from
        the side table.
        """
        import numpy as np
        grid = sorted({seq for seq in seqs if seq < self.size})
        priced: dict[int, DsePoint] = {}
        if grid:
            flat = np.asarray(grid, dtype=np.int64)
            idx, fpu, area = self._layout(flat)
            t, e, cycles = (np.broadcast_to(np.asarray(col), flat.shape)
                            for col in self._price(workload, idx, fpu))
            for k, seq in enumerate(grid):
                priced[seq] = self._point(
                    workload, seq, float(t[k]), float(e[k]), int(area[k]),
                    int(cycles[k]), bool(fpu[k]))
        return [priced[seq] if seq < self.size
                else self.refined[(seq, workload)] for seq in seqs]

    def _point(self, workload: str, seq: int, time_s: float,
               energy_j: float, area_les: int, cycles: int,
               fpu: bool) -> DsePoint:
        """The DsePoint of one grid entry, named from its flat seq."""
        indices = [(seq // self.strides[j]) % self.nvals[j]
                   for j in range(len(self.nvals))]
        build = "float" if fpu else "fixed"
        return DsePoint(
            config="-".join(self.labels[j][i]
                            for j, i in enumerate(indices)),
            axis_values=tuple(
                (name, self.values[j][i])
                for j, (name, i) in enumerate(zip(self.names, indices))),
            workload=workload,
            build=build,
            time_s=time_s,
            energy_j=energy_j,
            area_les=area_les,
            retired=self.retired[(workload, build)],
            cycles=cycles,
        )

    def _knee(self, workload: str) -> DsePoint:
        """The current knee of one store's exact front."""
        return self._points(
            workload, [_knee_seq(self.stores[workload].finalize())])[0]

    def workload_front(self, workload: str,
                       front_cap: int | None) -> WorkloadFront:
        """Finish one store into a WorkloadFront: the (capped) front,
        the knee and the per-objective winners as points."""
        return WorkloadFront.of(workload, self.stores[workload], front_cap,
                                lambda seqs: self._points(workload, seqs))
