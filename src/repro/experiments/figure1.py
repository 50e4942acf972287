"""Figure 1: the simulator landscape -- simulation speed vs NFP accuracy.

The paper's qualitative figure orders approaches by simulation speed
(algorithm > ISS > our work > CAS > real hardware) and by the accuracy of
the non-functional estimates they produce.  This driver measures our
concrete instances of each rung on one FSE kernel:

* ``algorithm``   -- the pure-Python FSE (fast, no NFP output at all);
* ``iss``         -- functional instruction-set simulation with superblock
  translation (fast, counts only, still no time/energy);
* ``iss per-instruction`` -- the same functional ISS with block
  translation disabled (the pre-superblock baseline);
* ``iss+model``   -- the paper's approach: ISS counts x calibrated model;
* ``cycle-model`` -- the instrumented cycle/energy testbed model: one
  profiled run priced for the board (the measurement reference, error 0
  by definition; see :meth:`repro.hw.board.Board.measure_raw`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.fse import reference
from repro.fse.images import test_case
from repro.nfp.metrics import relative_error
from repro.experiments.render import text_table
from repro.experiments.scale import Scale, get_scale
from repro.experiments.setup import get_bench
from repro.experiments.workloads import fse_program
from repro.vm.simulator import Simulator


@dataclass
class LandscapePoint:
    """One rung of the Fig. 1 ladder."""

    name: str
    wall_seconds: float
    sim_mips: float | None  # simulated MIPS (None for the host algorithm)
    time_error_percent: float | None  # vs the testbed measurement
    energy_error_percent: float | None
    provides_nfp: bool


@dataclass
class Figure1Result:
    points: list[LandscapePoint]

    def render(self) -> str:
        rows = []
        for p in self.points:
            rows.append((
                p.name,
                f"{p.wall_seconds * 1e3:.1f} ms",
                f"{p.sim_mips:.2f}" if p.sim_mips is not None else "-",
                (f"{p.time_error_percent:+.2f} %"
                 if p.time_error_percent is not None else "n/a"),
                (f"{p.energy_error_percent:+.2f} %"
                 if p.energy_error_percent is not None else "n/a"),
                "yes" if p.provides_nfp else "no",
            ))
        return text_table(
            ("simulation level", "wall time", "sim MIPS",
             "time error", "energy error", "NFP?"),
            rows,
            title="Figure 1: simulation speed vs accuracy of non-functional "
                  "estimates (one FSE kernel)")


def run(scale: Scale | str | None = None) -> Figure1Result:
    scale = scale if isinstance(scale, Scale) else get_scale(
        scale if isinstance(scale, str) else None)
    bench = get_bench(scale)
    index = scale.fse_indices[0]
    program = fse_program(index, "hard", scale)
    name = f"figure1:fse:{index:02d}"

    # ground truth: the cycle-level testbed model (the paper's "CAS" rung),
    # an instrumented profiled run priced for the board
    t0 = time.perf_counter()
    measurement = bench.board_fpu.measure(
        program, max_instructions=scale.max_instructions)
    cycle_wall = time.perf_counter() - t0

    # the paper's approach: functional ISS + mechanistic model
    t0 = time.perf_counter()
    report = bench.estimator_fpu.estimate_program(
        program, kernel_name=name,
        max_instructions=scale.max_instructions)
    model_wall = time.perf_counter() - t0

    # plain functional ISS (no cost model applied), block-translated
    core = bench.board_fpu.config.core
    t0 = time.perf_counter()
    iss_result = Simulator(program, core).run(
        max_instructions=scale.max_instructions)
    iss_wall = time.perf_counter() - t0

    # the same ISS with superblock translation disabled (A/B baseline)
    t0 = time.perf_counter()
    Simulator(program, core.with_blocks(False)).run(
        max_instructions=scale.max_instructions)
    stepwise_wall = time.perf_counter() - t0

    # the algorithm itself on the host (no simulation at all)
    image, mask = test_case(index, scale.fse_size)
    t0 = time.perf_counter()
    reference.reconstruct(image, mask, scale.fse_params)
    algo_wall = time.perf_counter() - t0

    retired = iss_result.retired
    points = [
        LandscapePoint("algorithm (host)", algo_wall, None, None, None,
                       provides_nfp=False),
        LandscapePoint("ISS (functional)", iss_wall,
                       retired / iss_wall / 1e6 if iss_wall else None,
                       None, None, provides_nfp=False),
        LandscapePoint("ISS (per-instruction)", stepwise_wall,
                       retired / stepwise_wall / 1e6 if stepwise_wall
                       else None,
                       None, None, provides_nfp=False),
        LandscapePoint(
            "ISS + model (our work)", model_wall,
            retired / model_wall / 1e6 if model_wall else None,
            100 * relative_error(report.time_s, measurement.time_s),
            100 * relative_error(report.energy_j, measurement.energy_j),
            provides_nfp=True),
        LandscapePoint("cycle/energy model (CAS rung)", cycle_wall,
                       retired / cycle_wall / 1e6 if cycle_wall else None,
                       0.0, 0.0, provides_nfp=True),
    ]
    return Figure1Result(points=points)
