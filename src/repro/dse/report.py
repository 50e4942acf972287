"""Sweep reporting: Pareto classification rendered as text, CSV or JSON.

The report is a pure function of the grid, so a warm re-run of a sweep
renders byte-identical output -- the property the determinism tests (and
the CI gate) lean on.  Failed cells (:attr:`DseGrid.failures`) are
rendered explicitly in every format -- a partial report after an
exhausted attempt budget (or an interrupt) marks exactly what is
missing instead of silently shrinking the grid.

The Pareto structure (aggregate points, fronts, knees) is computed once
per report (:attr:`SweepReport._analysis`) and shared by all three
renderers, so rendering every format decides the grid's dominance
exactly once -- in the numpy column store of :mod:`repro.dse.pareto`,
so rendering a materialized report loads numpy.  :class:`StreamReport`
is the same idea over a streamed
:class:`~repro.dse.engine.StreamSummary` -- a pure function of the
summary, so a streamed sweep and ``StreamSummary.from_grid`` of its
materialized twin render byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.dse.engine import (
    AGGREGATE,
    OBJECTIVES,
    DseGrid,
    DsePoint,
    StreamSummary,
    WorkloadFront,
)
from repro.dse.pareto import classify, knee_point
from repro.experiments.render import csv_table, fmt_si, json_blob, text_table

#: Renderers accepted by :meth:`SweepReport.render`.
FORMATS = ("text", "csv", "json")


def _point_row(point: DsePoint, on_front: bool, knee: bool) -> list:
    marker = "front" if on_front else "dominated"
    if knee:
        marker = "front+knee"
    return [point.config,
            *[value for _, value in point.axis_values],
            fmt_si(point.time_s, "s"), fmt_si(point.energy_j, "J"),
            point.area_les, marker]


def _point_obj(point: DsePoint) -> dict:
    return {
        "config": point.config,
        "axes": dict(point.axis_values),
        "workload": point.workload,
        "build": point.build,
        "time_s": point.time_s,
        "energy_j": point.energy_j,
        "area_les": point.area_les,
        "cycles": point.cycles,
        "retired": point.retired,
    }


_KEY = (lambda p: p.objectives)


@dataclass(frozen=True)
class _GridAnalysis:
    """The Pareto structure of one grid, computed once per report."""

    aggregate: tuple[DsePoint, ...]
    aggregate_flags: tuple[tuple[DsePoint, bool], ...]
    aggregate_front: tuple[DsePoint, ...]
    aggregate_knee: DsePoint | None
    workload_points: dict[str, tuple[DsePoint, ...]]
    workload_fronts: dict[str, tuple[DsePoint, ...]]
    workload_knees: dict[str, DsePoint]

    @classmethod
    def of(cls, grid: DseGrid) -> "_GridAnalysis":
        aggregate = grid.aggregate()
        flags = tuple(zip(aggregate, classify(aggregate, key=_KEY)))
        front = tuple(p for p, on_front in flags if on_front)
        workload_points = {}
        workload_fronts = {}
        workload_knees = {}
        for workload in grid.workloads():
            points = grid.select(workload=workload)
            workload_points[workload] = points
            wfront = tuple(
                p for p, on_front
                in zip(points, classify(points, key=_KEY)) if on_front)
            workload_fronts[workload] = wfront
            workload_knees[workload] = knee_point(wfront, key=_KEY)
        return cls(
            aggregate=aggregate,
            aggregate_flags=flags,
            aggregate_front=front,
            aggregate_knee=(knee_point(front, key=_KEY)
                            if front else None),
            workload_points=workload_points,
            workload_fronts=workload_fronts,
            workload_knees=workload_knees,
        )


@dataclass(frozen=True)
class SweepReport:
    """Pareto-classified view of one sweep grid."""

    grid: DseGrid
    title: str = "design-space exploration"

    @cached_property
    def _analysis(self) -> _GridAnalysis:
        """Aggregates, fronts and knees -- shared by every renderer."""
        return _GridAnalysis.of(self.grid)

    # -- text ---------------------------------------------------------------

    def render(self, fmt: str = "text") -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}; available: {FORMATS}")

    def to_text(self) -> str:
        grid = self.grid
        analysis = self._analysis
        axis_names = grid.axis_names()
        aggregate = analysis.aggregate_flags
        out = []
        if aggregate:
            knee = analysis.aggregate_knee
            headers = ("config", *axis_names, "time", "energy", "area LEs",
                       "pareto")
            rows = [_point_row(point, on_front,
                               point.config == knee.config)
                    for point, on_front in aggregate]
            n_front = len(analysis.aggregate_front)
            out.append(text_table(
                headers, rows,
                title=f"{self.title}: {len(grid.configs())} configs x "
                      f"{len(grid.workloads())} workloads "
                      f"({len(grid.points)} points), objectives "
                      f"(time, energy, area), aggregate over workloads"))
            out.append(f"aggregate Pareto front: {n_front} of "
                       f"{len(aggregate)} configs; knee: {knee.config}")
        else:
            out.append(f"{self.title}: no complete configurations to "
                       f"aggregate ({len(grid.points)} points, "
                       f"{len(grid.failures)} failed cells)")
        front_rows = []
        for workload in grid.workloads():
            points = analysis.workload_points[workload]
            front = analysis.workload_fronts[workload]
            best_time = min(points, key=lambda p: (p.time_s, p.config))
            best_energy = min(points, key=lambda p: (p.energy_j, p.config))
            best_area = min(points, key=lambda p: (p.area_les, p.config))
            front_rows.append((
                workload, f"{len(front)}/{len(points)}",
                analysis.workload_knees[workload].config, best_time.config,
                best_energy.config, best_area.config))
        if front_rows:
            out.append(text_table(
                ("workload", "front", "knee", "min time", "min energy",
                 "min area"), front_rows,
                title="per-workload Pareto fronts and per-objective "
                      "winners"))
        if grid.failures:
            out.append(text_table(
                ("config", "workload", "build", "attempts", "error"),
                [(f.config, f.workload, f.build, f.attempts,
                  f.error[:48]) for f in grid.failures],
                title=f"failed cells: {len(grid.failures)} of "
                      f"{len(grid.points) + len(grid.failures)} "
                      f"(attempt budget exhausted; excluded from "
                      f"Pareto structure)"))
        return "\n".join(out)

    # -- csv ----------------------------------------------------------------

    def to_csv(self) -> str:
        """Every grid point plus the aggregate rows, one record each."""
        grid = self.grid
        analysis = self._analysis
        axis_names = grid.axis_names()
        front_by_workload = {
            workload: {p.config for p in analysis.workload_fronts[workload]}
            for workload in grid.workloads()}
        aggregate_front = {p.config for p in analysis.aggregate_front}
        headers = ("config", *axis_names, "workload", "build", "time_s",
                   "energy_j", "area_les", "cycles", "retired", "on_front")
        rows = []
        for point in grid.points:
            rows.append([
                point.config, *[v for _, v in point.axis_values],
                point.workload, point.build, point.time_s, point.energy_j,
                point.area_les,
                "" if point.cycles is None else point.cycles,
                point.retired,
                int(point.config in front_by_workload[point.workload])])
        for point in analysis.aggregate:
            rows.append([
                point.config, *[v for _, v in point.axis_values],
                AGGREGATE, point.build, point.time_s, point.energy_j,
                point.area_les,
                "" if point.cycles is None else point.cycles,
                point.retired, int(point.config in aggregate_front)])
        for cell in grid.failures:
            rows.append([
                cell.config, *[""] * len(axis_names), cell.workload,
                cell.build, "", "", "", "", "", "failed"])
        return csv_table(headers, rows)

    # -- json ---------------------------------------------------------------

    def to_json(self) -> str:
        grid = self.grid
        analysis = self._analysis
        aggregate = analysis.aggregate
        return json_blob({
            "title": self.title,
            "axes": list(grid.axis_names()),
            "configs": list(grid.configs()),
            "workloads": list(grid.workloads()),
            "points": [_point_obj(p) for p in grid.points],
            "aggregate": [_point_obj(p) for p in aggregate],
            "pareto": {
                "aggregate_front": [p.config
                                    for p in analysis.aggregate_front]
                if aggregate else [],
                "knee": (analysis.aggregate_knee.config
                         if aggregate else None),
                "per_workload": {
                    workload: {
                        "front": [p.config for p in
                                  analysis.workload_fronts[workload]],
                        "knee": analysis.workload_knees[workload].config,
                    } for workload in grid.workloads()},
            },
            "failures": [{
                "config": cell.config,
                "workload": cell.workload,
                "build": cell.build,
                "attempts": cell.attempts,
                "error": cell.error,
            } for cell in grid.failures],
        })


@dataclass(frozen=True)
class StreamReport:
    """A streamed sweep's summary rendered as text, CSV or JSON.

    A pure function of the :class:`StreamSummary`, which is all the
    streamed sweep ever retains: the reports show fronts, knees and
    per-objective winners, never the full grid.  At equal ``front_cap``
    a streamed summary and ``StreamSummary.from_grid`` of its
    materialized twin render byte-identical output in every format --
    the streamed-vs-materialized CI check compares exactly this.
    """

    summary: StreamSummary
    title: str = "design-space exploration (streamed)"

    def render(self, fmt: str = "text") -> str:
        if fmt == "text":
            return self.to_text()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}; available: {FORMATS}")

    def to_text(self) -> str:
        summary = self.summary
        aggregate = summary.aggregate
        out = []
        headline = (f"{self.title}: {summary.configs} configs x "
                    f"{len(summary.workloads)} workloads streamed "
                    f"({summary.configs * len(summary.workloads)} points "
                    f"priced), objectives (time, energy, area)")
        if summary.refined:
            headline += (f"; {summary.refined} adaptive refinement configs "
                         f"beyond the {summary.space_size}-config grid")
        rows = [_point_row(point, True,
                           point.config == aggregate.knee.config)
                for point in aggregate.front]
        out.append(text_table(
            ("config", *summary.axis_names, "time", "energy", "area LEs",
             "pareto"), rows, title=headline))
        out.append(f"aggregate Pareto front: {aggregate.front_size} of "
                   f"{aggregate.points} configs; knee: "
                   f"{aggregate.knee.config}")
        if aggregate.front_size > len(aggregate.front):
            out.append(f"... {aggregate.front_size - len(aggregate.front)} "
                       f"more aggregate front members "
                       f"(front_cap={summary.front_cap})")
        front_rows = [
            (wf.workload, f"{wf.front_size}/{wf.points}", wf.knee.config,
             wf.best_time.config, wf.best_energy.config,
             wf.best_area.config)
            for wf in summary.per_workload]
        out.append(text_table(
            ("workload", "front", "knee", "min time", "min energy",
             "min area"), front_rows,
            title="per-workload Pareto fronts and per-objective winners"))
        return "\n".join(out)

    def to_csv(self) -> str:
        """Front members and per-objective winners, one record each."""
        summary = self.summary
        headers = ("config", *summary.axis_names, "workload", "build",
                   "time_s", "energy_j", "area_les", "cycles", "retired",
                   "role")
        rows = []

        def point_row(point: DsePoint, role: str) -> list:
            return [point.config, *[v for _, v in point.axis_values],
                    point.workload, point.build, point.time_s,
                    point.energy_j, point.area_les,
                    "" if point.cycles is None else point.cycles,
                    point.retired, role]

        for wf in (*summary.per_workload, summary.aggregate):
            for point in wf.front:
                rows.append(point_row(
                    point, "front+knee" if point.config == wf.knee.config
                    else "front"))
            rows.append(point_row(wf.best_time, "min_time"))
            rows.append(point_row(wf.best_energy, "min_energy"))
            rows.append(point_row(wf.best_area, "min_area"))
        return csv_table(headers, rows)

    def to_json(self) -> str:
        summary = self.summary

        def front_obj(wf: WorkloadFront) -> dict:
            return {
                "workload": wf.workload,
                "points": wf.points,
                "front_size": wf.front_size,
                "front": [_point_obj(p) for p in wf.front],
                "knee": _point_obj(wf.knee),
                "best": {
                    "time_s": _point_obj(wf.best_time),
                    "energy_j": _point_obj(wf.best_energy),
                    "area_les": _point_obj(wf.best_area),
                },
            }

        return json_blob({
            "title": self.title,
            "axes": list(summary.axis_names),
            "workloads": list(summary.workloads),
            "configs": summary.configs,
            "space_size": summary.space_size,
            "refined": summary.refined,
            "front_cap": summary.front_cap,
            "objectives": list(OBJECTIVES),
            "aggregate": front_obj(summary.aggregate),
            "per_workload": [front_obj(wf)
                             for wf in summary.per_workload],
        })
