"""Pareto dominance over non-functional objective vectors.

All objectives are minimised (time, energy, area).  One engine decides
dominance for every sweep: the column store :class:`_Store`, which
keeps, per area value, only the mutually non-dominated ``(time,
energy)`` entries as sorted numpy columns.  A batch is folded in with
one sort plus vectorized dominance marking (:func:`_merge`), and
:meth:`_Store.finalize` resolves cross-area dominance against a
cumulative staircase envelope (:func:`_corners`).  The store fills
three ways, and all of them finish alike:

- :func:`classify` and :func:`pareto_front` act on items through a
  ``key`` function returning a 2- or 3-objective tuple and make one
  store offer over the items' objective columns, the item's position
  being its seq; :func:`knee_point` reads the same columns through the
  store's knee (:func:`_knee_seq`).  They classify materialized grids,
  and :meth:`repro.dse.engine.StreamSummary.from_grid` offers grid
  points into stores;
- the streamed sweep (:mod:`repro.dse.stream`) offers priced chunks in
  flat index space;
- a sharded sweep folds each worker's :meth:`_Store.export` into one
  store with :meth:`_Store.absorb` (:mod:`repro.dse.shard`).

:func:`dominates`, :func:`_classify_quadratic` and :func:`_knee_scalar`
are the scalar reference definitions the property tests pin the store
against.  numpy is imported inside the functions only, so importing
:mod:`repro.dse` (or simulating anything) never loads it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, TypeVar

Item = TypeVar("Item")

#: Objective names, in the order :attr:`repro.dse.engine.DsePoint.objectives`
#: reports them (and :attr:`_Store.best` keys its winners).
OBJECTIVES = ("time_s", "energy_j", "area_les")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere.

    Dominance is irreflexive and antisymmetric: no vector dominates
    itself, and ``dominates(a, b)`` and ``dominates(b, a)`` can never both
    hold (the property tests pin this down).
    """
    if len(a) != len(b):
        raise ValueError("objective vectors must have equal length")
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def pareto_front(items: Sequence[Item],
                 key: Callable[[Item], Sequence[float]] = lambda it: it
                 ) -> list[Item]:
    """The non-dominated subset of ``items``, in original order.

    Items with identical objective vectors do not dominate each other, so
    exact ties all stay on the front (the sweep's ``block_size`` axis
    produces such ties by design).
    """
    return [item for item, on_front in zip(items, classify(items, key))
            if on_front]


def knee_point(items: Sequence[Item],
               key: Callable[[Item], Sequence[float]] = lambda it: it
               ) -> Item:
    """The balanced pick: minimal normalised distance to the ideal point.

    Each objective is scaled to ``[0, 1]`` over ``items`` (constant
    objectives contribute zero) and the item closest to the all-zero
    ideal in Euclidean distance wins; ties break to the earliest item,
    keeping the choice deterministic.  Like :func:`classify`, it takes
    2- or 3-objective vectors and raises ``ValueError`` on any other
    arity.
    """
    if not items:
        raise ValueError("knee_point of an empty set")
    return items[_knee_seq(_columns([tuple(key(item)) for item in items]))]


def classify(items: Sequence[Item],
             key: Callable[[Item], Sequence[float]] = lambda it: it
             ) -> list[bool]:
    """Per-item non-dominated flags (aligned with ``items``).

    One store offer over the items' 2- or 3-objective vectors, in
    O(n log n); any other arity raises ``ValueError``.  Exact ties keep
    their flags (tied vectors never dominate each other), and the
    property tests pin the store against the quadratic definition.
    """
    objectives = [tuple(key(item)) for item in items]
    if not objectives:
        return []
    on_front = [False] * len(objectives)
    for seq in _store_of(objectives).finalize()["seq"].tolist():
        on_front[seq] = True
    return on_front


def _classify_quadratic(objectives: list[tuple]) -> list[bool]:
    """The pairwise O(n^2) dominance scan (reference definition)."""
    return [not any(dominates(objectives[j], objectives[i])
                    for j in range(len(objectives)) if j != i)
            for i in range(len(objectives))]


def _knee_scalar(objectives: list[tuple]) -> int:
    """The index :func:`knee_point` picks, one objective at a time
    (reference definition)."""
    dims = len(objectives[0])
    lows = [min(obj[d] for obj in objectives) for d in range(dims)]
    highs = [max(obj[d] for obj in objectives) for d in range(dims)]
    best_index = 0
    best_dist = math.inf
    for i, obj in enumerate(objectives):
        dist = 0.0
        for d in range(dims):
            span = highs[d] - lows[d]
            if span > 0:
                scaled = (obj[d] - lows[d]) / span
                dist += scaled * scaled
        dist = math.sqrt(dist)
        if dist < best_dist:
            best_dist = dist
            best_index = i
    return best_index


def _columns(objectives: list[tuple]) -> dict:
    """Store columns of 2- or 3-objective vectors, seq = position.

    A 2-objective vector stands in one area group.  The area column
    keeps its values' type, so a non-integer third objective groups
    exactly.
    """
    import numpy as np
    dims = len(objectives[0])
    if dims not in (2, 3) or any(len(obj) != dims for obj in objectives):
        raise ValueError(f"Pareto objectives must all be 2- or 3-tuples, "
                         f"got {objectives[0]!r} first")
    n = len(objectives)
    return {"t": np.fromiter((obj[0] for obj in objectives), np.float64, n),
            "e": np.fromiter((obj[1] for obj in objectives), np.float64, n),
            "seq": np.arange(n, dtype=np.int64),
            "area": (np.array([obj[2] for obj in objectives]) if dims == 3
                     else np.zeros(n, dtype=np.int64))}


def _store_of(objectives: list[tuple]) -> "_Store":
    """A store offered ``objectives`` in one batch (seq = position)."""
    cols = _columns(objectives)
    store = _Store()
    store.offer(cols, _grouping(cols["area"]))
    return store


def _merge(held, cand):
    """Fold candidate entries into a group's 2-D non-dominated arrays.

    One lexicographic sort of old + new entries by ``(time, energy,
    seq)``, then vectorized strict-dominance marking: an entry loses
    iff a strictly-faster entry is no worse on energy (prefix minimum
    over earlier time runs) or an equally-fast one is strictly better
    (its run's first, i.e. minimal, energy).  Exact objective ties all
    survive, as :func:`dominates` defines them.
    """
    import numpy as np
    if held is None:
        merged = cand
    else:
        merged = {k: np.concatenate((held[k], cand[k])) for k in cand}
    order = np.lexsort((merged["seq"], merged["e"], merged["t"]))
    t = merged["t"][order]
    e = merged["e"][order]
    n = t.size
    tchange = np.empty(n, dtype=bool)
    tchange[0] = True
    np.not_equal(t[1:], t[:-1], out=tchange[1:])
    run_id = np.cumsum(tchange) - 1
    starts = np.flatnonzero(tchange)
    prefix = np.minimum.accumulate(e)
    # best energy at strictly smaller time (the first run has none)
    cover = prefix[starts - 1][run_id]
    first = e[starts][run_id]   # best energy at exactly this time
    lost = ((run_id > 0) & (cover <= e)) | (e > first)
    return {k: v[order[~lost]] for k, v in merged.items()}


def _corners(t, e):
    """Strictly-improving corners of a time-sorted point set.

    The returned ``(t, e)`` pair is the pointwise-minimum staircase of
    the input: t ascending, e strictly decreasing.  Looking up the last
    corner with ``t' <= t`` therefore yields the best energy seen at
    any time ``<= t``.
    """
    import numpy as np
    corner = np.empty(e.size, dtype=bool)
    corner[:1] = True
    np.less(e[1:], np.minimum.accumulate(e)[:-1], out=corner[1:])
    return t[corner], e[corner]


def _knee_seq(front: dict) -> int:
    """The seq of the knee over seq-ordered ``t``/``e``/``area`` columns.

    Same normalisation, same accumulation order over ``(time, energy,
    area)``, same first-minimum tie-break as :func:`_knee_scalar`, so
    the two are bit-equal on the same vectors.
    """
    import numpy as np
    dist = np.zeros(front["t"].size, dtype=np.float64)
    for arr in (front["t"], front["e"], front["area"].astype(np.float64)):
        low = arr.min()
        span = arr.max() - low
        if span > 0:
            scaled = (arr - low) / span
            dist = dist + scaled * scaled
    return int(front["seq"][np.argmin(np.sqrt(dist))])


def _grouping(area) -> list[tuple[object, object]]:
    """``(area value, row indices)`` of a column batch, stable order.

    The area value is the column's own scalar (``.item()``), never
    rounded, so groups split exactly where the values differ.
    """
    import numpy as np
    if not area.size:
        return []
    order = np.argsort(area, kind="stable")
    sorted_area = area[order]
    bounds = np.flatnonzero(np.concatenate(
        ([True], sorted_area[1:] != sorted_area[:-1])))
    ends = np.concatenate((bounds[1:], [area.size]))
    return [(sorted_area[b].item(), order[b:e]) for b, e in zip(bounds, ends)]


class _Store:
    """Per-stream Pareto state over column arrays.

    ``groups`` maps an area value to the mutually 2-D non-dominated
    ``(time, energy)`` entries seen so far; ``best`` tracks
    per-objective ``(value, seq)`` running minima, the seq breaking
    ties.  New entries accumulate in a per-group pending buffer and
    fold in only once they outweigh the held front (dominance filtering
    is order-free, so deferred folds keep the exact set); each entry is
    re-sorted O(log) times instead of once per chunk, and memory stays
    bounded by held + pending, both O(front + chunk).
    """

    __slots__ = ("groups", "pending", "best", "count")

    # only what dominance needs travels through the merges
    _COLS = ("t", "e", "seq")

    def __init__(self):
        self.groups: dict[object, dict] = {}
        self.pending: dict[object, list] = {}  # area -> unfolded slices
        self.best: dict[str, tuple] = {}   # objective -> (value, seq)
        self.count = 0

    def offer(self, cols: dict, grouping) -> None:
        """Fold in one non-empty batch of ``t``/``e``/``area``/``seq``
        columns.

        ``grouping`` is the batch's :func:`_grouping`, shared by every
        store the same configurations are offered to.
        """
        import numpy as np
        self.count += cols["t"].size
        for objective, arr in zip(OBJECTIVES,
                                  (cols["t"], cols["e"], cols["area"])):
            i = int(np.argmin(arr))     # first minimum = smallest seq
            self._best(objective, arr[i].item(), int(cols["seq"][i]))
        self._queue(cols, grouping)

    def absorb(self, export: dict) -> None:
        """Fold in another store's :meth:`export` (one shard's range)."""
        self.count += export["count"]
        for objective, (value, seq) in export["best"].items():
            self._best(objective, value, seq)
        front = export["front"]
        self._queue(front, _grouping(front["area"]))

    def export(self) -> dict:
        """Count, winners and exact front columns, for :meth:`absorb`.

        The columns stay numpy arrays: they pickle as flat binary
        buffers (fronts over near-continuous axes reach 10^5..10^6
        survivors, and a per-element ``tolist`` round-trip would
        dominate a shard's wall time).
        """
        return {"count": self.count, "best": dict(self.best),
                "front": self.finalize()}

    def _best(self, objective: str, value, seq: int) -> None:
        held = self.best.get(objective)
        if held is None or (value, seq) < held:
            self.best[objective] = (value, seq)

    def _queue(self, cols: dict, grouping) -> None:
        for area_value, sel in grouping:
            queue = self.pending.setdefault(area_value, [])
            queue.append({k: cols[k][sel] for k in self._COLS})
            held = self.groups.get(area_value)
            if held is None or (sum(c["t"].size for c in queue)
                                >= held["t"].size):
                self._fold(area_value)

    def _fold(self, area_value) -> None:
        import numpy as np
        queue = self.pending.get(area_value)
        if not queue:
            return
        cand = (queue[0] if len(queue) == 1 else
                {k: np.concatenate([c[k] for c in queue]) for k in self._COLS})
        self.pending[area_value] = []
        self.groups[area_value] = _merge(self.groups.get(area_value), cand)

    def finalize(self) -> dict:
        """The exact front as seq-sorted column arrays (incl. ``area``).

        Ascending area groups are filtered against the cumulative
        staircase envelope of all smaller-area entries (ties included:
        the smaller area is strictly better).  The ``area`` column holds
        the group values as offered.  The store stays usable: later
        offers fold into the same groups.
        """
        import numpy as np
        for area_value in list(self.pending):
            self._fold(area_value)
        if not self.groups:
            return {"t": np.empty(0), "e": np.empty(0),
                    "seq": np.empty(0, dtype=np.int64),
                    "area": np.empty(0, dtype=np.int64)}
        parts = []
        env_t = env_e = None
        for area_value in sorted(self.groups):
            part = dict(self.groups[area_value])
            if env_t is None:
                st, se = part["t"], part["e"]
            else:
                # the envelope corners before ``after`` are the smaller
                # areas' entries at times <= t; the last holds their
                # best energy
                after = np.searchsorted(env_t, part["t"], side="right")
                kept = ~((after > 0) & (env_e[np.maximum(after - 1, 0)]
                                        <= part["e"]))
                part = {k: v[kept] for k, v in part.items()}
                # a covered entry is no corner, so only the kept ones
                # join the envelope; both inputs are time-sorted (the
                # envelope by construction, the group by _merge), so
                # one O(n) two-array merge replaces a full sort, and the
                # order of equal-time entries cannot change the
                # pointwise prefix-min envelope
                gt, ge = part["t"], part["e"]
                n = env_t.size + gt.size
                st = np.empty(n, dtype=np.float64)
                se = np.empty(n, dtype=np.float64)
                at = np.arange(env_t.size) + np.searchsorted(
                    gt, env_t, side="left")
                bt = np.arange(gt.size) + after[kept]
                st[at] = env_t
                st[bt] = gt
                se[at] = env_e
                se[bt] = ge
            part["area"] = np.full(part["t"].size, area_value)
            parts.append(part)
            env_t, env_e = _corners(st, se)
        out = {k: np.concatenate([p[k] for p in parts])
               for k in parts[0]}
        order = np.argsort(out["seq"], kind="stable")
        return {k: v[order] for k, v in out.items()}
