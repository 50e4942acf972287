"""Command-line interface: ``python -m repro <command>``.

Commands reproduce the paper's tables/figures or expose the toolchain:

==============  ====================================================
command         action
==============  ====================================================
table1          calibrate and print Table I
table3          estimation-error evaluation (Table III)
table4          FPU design-space exploration (Table IV)
dse             multi-dimensional design-space exploration (Pareto)
serve           long-lived HTTP evaluation server (``repro serve``)
workloads       inspect the workload registry (``workloads list``)
pipeline        list / structurally sweep frame-stream pipelines
profile         warm the profile cache (``profile warm``)
figure1         simulator landscape (Figure 1)
figure2         trace one instruction through the simulator (Fig. 2)
figure3         morph-function grouping (Figure 3)
figure4         measurement vs estimation showcases (Figure 4)
all             every table and figure in sequence
asm FILE        assemble a SPARC source file and print a summary
run FILE        assemble and simulate; print console and counts
disasm WORD     decode and disassemble a hex instruction word
==============  ====================================================
"""

from __future__ import annotations

import argparse
import sys


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=("smoke", "default", "full"),
                        default=None,
                        help="experiment size (default: REPRO_SCALE or "
                             "'default')")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for independent simulations "
                             "(default: REPRO_WORKERS or min(cpus, 8))")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk simulation result cache "
                             "(REPRO_CACHE_DIR, default "
                             "~/.cache/repro-nfp)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Estimation of Non-Functional "
                    "Properties for Embedded Hardware' (IPPS 2015)")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("table1", "table3", "table4", "figure1", "figure4", "all"):
        p = sub.add_parser(cmd)
        _add_scale(p)
        if cmd == "table3":
            p.add_argument("--per-kernel", action="store_true",
                           help="print the per-kernel error breakdown")
    p = sub.add_parser(
        "dse", help="sweep a hardware design space, print Pareto fronts",
        description="Sweep a hardware design space over a workload suite "
                    "and print its Pareto fronts.  Each simulation enters "
                    "the result cache as it finishes (when the cache is on), "
                    "so an interrupted sweep (Ctrl-C exits 130) resumes "
                    "by running the same command again: it simulates "
                    "only what had not finished, and its report is "
                    "byte-identical to an uninterrupted run's.")
    _add_scale(p)
    p.add_argument("--axes", default=None, metavar="SPEC",
                   help="design-space spec, e.g. "
                        "'clock_mhz=25:50:80,fpu,nwindows=4:8'; bare axis "
                        "names take their registered default values "
                        "(default: the stock clock/fpu/windows/wait-state "
                        "grid)")
    p.add_argument("--workloads", default=None, metavar="FILTER",
                   help="workload suite: comma-separated registry "
                        "presets, families or name globs, e.g. "
                        "'img:*' or 'table3,img:sobel3x3' "
                        "(default: the paper's table3 preset; see "
                        "'repro workloads list')")
    p.add_argument("--stream", action="store_true",
                   help="generate-price-reduce: profile each build once, "
                        "then price the cartesian product from "
                        "per-axis cost tables into online Pareto fronts "
                        "without materializing the grid (memory stays "
                        "proportional to the front; reports are "
                        "byte-identical to the materialized sweep at "
                        "equal --front-cap)")
    p.add_argument("--refine", type=int, default=0, metavar="N",
                   help="run N adaptive coordinate-refinement rounds "
                        "around the streaming aggregate knee (implies "
                        "--stream; refined configs are off-grid "
                        "midpoints on refinable axes)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="price the streamed flat config space across N "
                        "parallel worker processes with exact "
                        "Pareto-front merging (reports are "
                        "byte-identical to --shards 1; default: "
                        "derived from REPRO_WORKERS for large grids, "
                        "serial for small ones)")
    p.add_argument("--front-cap", type=int, default=None, metavar="N",
                   dest="front_cap",
                   help="materialize at most N >= 1 front members per "
                        "workload in streamed reports (counts, knees "
                        "and winners stay exact; default: all)")
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text", dest="fmt",
                   help="output rendering (default: text)")
    p.add_argument("--verbose", action="store_true",
                   help="print the resolved runner/resilience settings "
                        "(workers, cache, retries, timeouts, chaos) to "
                        "stderr before sweeping")
    p = sub.add_parser(
        "serve", help="serve NFP pricing and sweeps over HTTP/JSON")
    _add_scale(p)
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8650,
                   help="bind port; 0 picks an ephemeral port, announced "
                        "on stdout (default: 8650)")
    p = sub.add_parser(
        "workloads", help="inspect the workload registry")
    p.add_argument("action", choices=("list",),
                   help="'list': print the workload catalogue")
    p.add_argument("--workloads", default=None, metavar="FILTER",
                   help="restrict the listing to a registry filter "
                        "(same syntax as 'dse --workloads')")
    p.add_argument("--scale", choices=("smoke", "default", "full"),
                   default=None,
                   help="restrict the listing to one scale's suite")
    p = sub.add_parser(
        "pipeline",
        help="compose and sweep frame-stream pipelines (family 'pipe')")
    _add_scale(p)
    p.add_argument("action", choices=("list", "sweep"),
                   help="'list': registered pipelines with their stage "
                        "chains; 'sweep': structural x hardware sweep on "
                        "composed profiles")
    p.add_argument("--pipeline", default=None, metavar="NAME",
                   help="one registered pipeline, e.g. 'pipe:xfel' "
                        "(default: all)")
    p.add_argument("--axes", default=None, metavar="SPEC",
                   help="hardware design-space spec, as in 'dse --axes' "
                        "(default: the stock grid)")
    p.add_argument("--variants", action="store_true",
                   help="also sweep each pipeline's one-change structural "
                        "neighbourhood: every stage toggled off, every "
                        "non-terminal stage repeated")
    p.add_argument("--repeat", type=int, default=2, metavar="N",
                   help="repeat count for --variants stage repeats "
                        "(default: 2)")
    p.add_argument("--format", choices=("text", "csv", "json"),
                   default="text", dest="fmt",
                   help="output rendering (default: text)")
    p = sub.add_parser(
        "profile",
        help="manage execution profiles (the profile-once cache)")
    _add_scale(p)
    p.add_argument("action", choices=("warm",),
                   help="'warm': profile every selected workload build "
                        "into the result cache, so 'repro serve' and "
                        "profiled sweeps start hot")
    p.add_argument("--workloads", default=None, metavar="FILTER",
                   help="registry filter to warm (same syntax as "
                        "'dse --workloads'; default: every registered "
                        "workload)")
    sub.add_parser("figure2")
    sub.add_parser("figure3")
    p = sub.add_parser("asm")
    p.add_argument("file")
    p = sub.add_parser("run")
    p.add_argument("file")
    p.add_argument("--no-fpu", action="store_true")
    p.add_argument("--no-blocks", action="store_true",
                   help="disable superblock translation (per-instruction "
                        "dispatch, slower but step-exact tooling baseline)")
    p.add_argument("--max-instructions", type=_positive_int,
                   default=50_000_000, metavar="N",
                   help="watchdog budget of retired instructions (>= 1)")
    p = sub.add_parser("disasm")
    p.add_argument("word", help="hex instruction word, e.g. 0x82008004")
    return parser


def _run_dse(scale, args) -> int:
    """The ``repro dse`` branch: sweep, render, and handle interrupts.

    A Ctrl-C prints ``interrupted`` and exits 130, like every other
    command; the worker pool is torn down by the executor, so no
    orphaned processes survive, and each simulation that finished is
    already in the result cache, so running the same command again
    resumes the sweep.  Malformed flags or ``REPRO_*`` environment
    values exit 2 with a one-line error.
    """
    from repro.experiments import dse as dse_driver
    try:
        if args.verbose:
            from repro.experiments.setup import effective_settings
            for knob, value in effective_settings():
                print(f"# {knob:<20} {value}", file=sys.stderr)
        rendered = dse_driver.run(scale, axes=args.axes,
                                  workloads=args.workloads,
                                  stream=args.stream,
                                  refine=args.refine,
                                  front_cap=args.front_cap,
                                  shards=args.shards).render(args.fmt)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ValueError as exc:  # bad flags, filters or REPRO_* environment
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "text":
        print(rendered)
    else:  # csv/json renderers terminate their own output
        sys.stdout.write(rendered)
    return 0


def _run_pipeline(scale, args) -> int:
    """The ``repro pipeline`` branch: list chains or sweep structures."""
    from repro.experiments import pipeline as pipeline_driver
    from repro.experiments.render import text_table
    from repro.runner.resilience import UsageError
    try:
        if args.action == "list":
            rows = pipeline_driver.catalogue()
            print(text_table(
                ("pipeline", "stages", "frame classes", "frames"),
                [(name, chain, classes, str(frames))
                 for name, chain, classes, frames in rows],
                title=f"registered pipelines: {len(rows)}"))
            return 0
        rendered = pipeline_driver.run(
            scale, pipeline=args.pipeline, axes=args.axes,
            variants=args.variants, repeat=args.repeat).render(args.fmt)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    if args.fmt == "text":
        print(rendered)
    else:  # csv/json renderers terminate their own output
        sys.stdout.write(rendered)
    return 0


def _run_profile_warm(scale, args) -> int:
    """The ``repro profile warm`` branch: pre-fill the profile cache.

    Profiles every selected workload build (both FPU builds; pipelines
    profile per invocation) through the cached resilient runner --
    exactly the tasks a profiled sweep or the evaluation server would
    run cold, so a warmed cache makes those start hot.
    """
    from repro.dse.engine import stream_profiles
    from repro.experiments.setup import runner_from_env
    from repro.hw.config import HwConfig
    from repro.runner.resilience import UsageError
    from repro.vm.config import CoreConfig
    from repro.workloads import select
    try:
        specs = select(args.workloads or "all", scale)
        runner = runner_from_env()
        base = HwConfig(name="leon3", core=CoreConfig())
        vectors = stream_profiles(
            [spec.pair(scale) for spec in specs], [False, True],
            budget=scale.max_instructions, runner=runner, base=base)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a profile task exhausted its retries
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    where = ("result cache off -- profiles computed but not persisted"
             if runner.cache is None else f"cache: {runner.cache.root}")
    print(f"warmed {len(vectors)} profiles "
          f"({len(specs)} workloads x 2 builds, {scale.name} scale; "
          f"{where})")
    return 0


def _run_toolchain(args) -> int:
    """``asm``, ``run`` and ``disasm``: a failure is one ``error:`` line.

    Input errors -- an unreadable file, bad assembly, a word outside
    ``[0, 2**32)`` or one that does not decode -- exit 2; a guest fault
    or the watchdog ending ``run`` exits 1.
    """
    from repro.asm import AsmError, assemble
    from repro.isa import decode, disassemble
    from repro.isa.errors import DecodeError
    from repro.vm import CoreConfig, SimError, Simulator
    try:
        if args.command == "disasm":
            try:
                word = int(args.word, 16)
            except ValueError:
                word = -1
            if not 0 <= word < 1 << 32:
                raise ValueError(f"{args.word!r} is not a 32-bit hex word")
            print(disassemble(decode(word)))
            return 0
        with open(args.file, encoding="utf-8") as handle:
            program = assemble(handle.read())
        if args.command == "asm":
            print(f"entry   0x{program.entry:08x}")
            for section in program.sections:
                print(f"{section.name:<8} 0x{section.addr:08x}  "
                      f"{section.size} bytes")
            return 0
        simulator = Simulator(program, CoreConfig(
            has_fpu=not args.no_fpu, blocks_enabled=not args.no_blocks))
    except (OSError, ValueError, AsmError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = simulator.run(max_instructions=args.max_instructions)
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result.console:
        sys.stdout.write(result.console)
    print(f"exit code : {result.exit_code}")
    print(f"retired   : {result.retired}")
    print(f"speed     : {result.mips:.2f} MIPS")
    if result.extras.get("block_mode"):
        print(f"blocks    : {result.extras['translated_blocks']:.0f} "
              f"translated, avg {result.extras['avg_block_len']:.1f} "
              f"instrs")
    for cid, count in result.category_counts.items():
        if count:
            print(f"  {cid:<10} {count}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command

    if command in ("table1", "table3", "table4", "figure1", "figure4",
                   "dse", "serve", "all", "pipeline", "profile"):
        import os
        if args.workers is not None:
            os.environ["REPRO_WORKERS"] = str(args.workers)
        if args.no_cache:
            os.environ["REPRO_CACHE"] = "off"
        if command == "serve":
            from repro.server import serve_command
            return serve_command(args)
        from repro.experiments.scale import get_scale
        scale = get_scale(args.scale)
        if command == "dse":
            return _run_dse(scale, args)
        if command == "pipeline":
            return _run_pipeline(scale, args)
        if command == "profile":
            return _run_profile_warm(scale, args)
        from repro.runner.resilience import TaskFailedError, UsageError
        from repro.experiments import (figure1, figure4, table1, table3,
                                       table4)
        try:
            if command == "all":
                from repro.experiments import figure23
                print(table1.run(scale).render(), "\n")
                print(table3.run(scale).render(), "\n")
                print(table4.run(scale).render(), "\n")
                print(figure1.run(scale).render(), "\n")
                print(figure23.run_figure2().render(), "\n")
                print(figure23.run_figure3().render(), "\n")
                print(figure4.run(scale).render())
                return 0
            driver = {"table1": table1, "table3": table3, "table4": table4,
                      "figure1": figure1, "figure4": figure4}[command]
            result = driver.run(scale)
        except UsageError as exc:  # malformed REPRO_* environment
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except TaskFailedError as exc:  # a simulation exhausted its retries
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            return 130
        if command == "table3" and args.per_kernel:
            print(result.render(per_kernel=True))
        else:
            print(result.render())
        return 0

    if command == "workloads":
        from repro.experiments.render import text_table
        from repro.experiments.scale import get_scale
        from repro.workloads import select
        scale = get_scale(args.scale) if args.scale else None
        try:
            specs = select(args.workloads or "all", scale)
        except ValueError as exc:  # filter matching nothing
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rows = []
        for spec in specs:
            # pipeline specs render their stage chain; kernels have none
            chain = spec.chain() if hasattr(spec, "chain") else "-"
            rows.append((spec.name, spec.family, chain,
                         ",".join(sorted(spec.tags)),
                         ",".join(spec.scales())))
        suite = (f" at {scale.name} scale" if scale else "")
        print(text_table(
            ("workload", "family", "stages", "tags", "scales"), rows,
            title=f"workload registry: {len(rows)} workloads{suite}"))
        return 0

    if command == "figure2":
        from repro.experiments.figure23 import run_figure2
        print(run_figure2().render())
        return 0
    if command == "figure3":
        from repro.experiments.figure23 import run_figure3
        print(run_figure3().render())
        return 0

    if command in ("asm", "run", "disasm"):
        return _run_toolchain(args)

    raise AssertionError(command)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
