"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``    -- run one deployment and print (or emit as JSON) its metrics;
  ``--report PATH`` also writes its schema-validated RunReport JSON
  (per-node utilization, saturation flags, phase spans).
- ``model``  -- evaluate the §4.3 performance model for a deployment.
- ``tune``   -- automatic configuration search (§8 future work).
- ``table``  -- regenerate Table 1 or Table 2 (the §4.3 model's terms).
- ``fig``    -- Figure 3's pipelining Gantt, which traces a built
  cluster's messages.
- ``scenarios`` -- list / show / validate / run the declarative scenario
  packs checked in under ``scenarios/`` (every other evaluation figure);
  ``run`` prints a verdict per ``[[expect]]`` row of the pack and exits 1
  if one fails.
- ``capacity`` -- sweep offered load through the workload engine and
  report how many users fit a topology (the saturation knee).

Examples::

    python -m repro run --mode kauri --scenario global --n 100 --duration 60
    python -m repro model --n 400 --scenario global
    python -m repro tune --n 400 --scenario global --objective throughput
    python -m repro table 2
    python -m repro fig 3
    python -m repro scenarios validate
    python -m repro scenarios run fig7 --scale 0.3
    python -m repro scenarios run smoke --report run_report.json
    python -m repro run --mode kauri --n 100 --duration 30 --report run_report.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, List, Optional, Sequence

from repro.config import KB, SCENARIOS, ProtocolConfig, resilientdb_clusters
from repro.core.modes import MODES

#: Every registered mode, straight from the registry -- adding a ModeSpec
#: automatically surfaces it in ``run``/``capacity`` and in ``repro modes``.
MODE_CHOICES = sorted(MODES)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Align ``rows`` under ``headers``; floats get sensible precision."""
    table: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in table:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _add_run_parser(subparsers) -> None:
    p = subparsers.add_parser("run", help="run one deployment")
    p.add_argument("--mode", default="kauri", choices=MODE_CHOICES)
    p.add_argument("--scenario", default="global",
                   choices=[*SCENARIOS, "heterogeneous"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--max-commits", type=int, default=None)
    p.add_argument("--block-size-kb", type=int, default=250)
    p.add_argument("--stretch", type=float, default=None,
                   help="pipelining stretch; default follows the model")
    p.add_argument("--adaptive-stretch", action="store_true",
                   help="adapt the stretch at runtime (§6 future work)")
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--lanes", type=int, default=1, help="uplink lanes per process")
    p.add_argument("--crash-leader-at", type=float, default=None,
                   help="crash the view-0 leader at this time")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the result as JSON")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="run with observability on and write the "
                        "schema-validated RunReport JSON here")


def _cmd_run(args) -> int:
    from repro.core.modes import mode_spec
    from repro.runtime.cluster import build_policy
    from repro.runtime.experiment import run_experiment

    if args.scenario == "heterogeneous":
        scenario = resilientdb_clusters()
        n = scenario.n
    else:
        scenario, n = args.scenario, args.n
    crashes = []
    if args.crash_leader_at is not None:
        policy = build_policy(mode_spec(args.mode), scenario, n, args.height, None)
        crashes = [(policy.leader_of(0), args.crash_leader_at)]
    config = ProtocolConfig(
        block_size=args.block_size_kb * KB,
        stretch=args.stretch,
        adaptive_stretch=args.adaptive_stretch,
    )
    result = run_experiment(
        mode=args.mode,
        scenario=scenario,
        n=n,
        duration=args.duration,
        max_commits=args.max_commits,
        height=args.height,
        seed=args.seed,
        config=config,
        crashes=crashes,
        uplink_lanes=args.lanes,
        observability=bool(args.report),
    )
    if args.json:
        print(json.dumps(dataclasses.asdict(result), indent=2, default=str))
    else:
        print(f"mode={result.mode} scenario={result.scenario} n={result.n}")
        print(f"simulated {result.duration:.1f}s, "
              f"committed {result.committed_blocks} blocks")
        print(f"throughput : {result.throughput_txs:,.0f} tx/s "
              f"({result.throughput_blocks:.2f} blocks/s)")
        print(f"latency    : p50 {result.latency['p50']:.3f}s, "
              f"p95 {result.latency['p95']:.3f}s")
        print(f"view changes: {result.view_changes} (max view {result.max_view})")
        if result.fast_commits or result.fast_fallbacks:
            print(f"fast path  : {result.fast_commits} fast commits, "
                  f"{result.fast_fallbacks} fallbacks")
        if result.cpu_saturated:
            print("NOTE: leader CPU saturated "
                  f"(utilization {result.leader_cpu_utilization:.0%})")
    if args.report:
        return _emit_report(result.report, args.report)
    return 0


def _add_model_parser(subparsers) -> None:
    p = subparsers.add_parser("model", help="evaluate the §4.3 performance model")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--scenario", default="global", choices=list(SCENARIOS))
    p.add_argument("--block-size-kb", type=int, default=250)
    p.add_argument("--lanes", type=int, default=1)


def _cmd_model(args) -> int:
    from repro.config import default_root_fanout
    from repro.core.perfmodel import PerfModel
    from repro.crypto.costs import BLS_COSTS, SECP_COSTS

    params = SCENARIOS[args.scenario]
    block = args.block_size_kb * KB
    rows = []
    systems = [("hotstuff-secp (star)", 1, args.n - 1, SECP_COSTS)]
    for height in (2, 3):
        try:
            fanout = default_root_fanout(args.n, height)
            systems.append((f"kauri h={height}", height, fanout, BLS_COSTS))
        except Exception:
            continue
    for label, height, fanout, costs in systems:
        try:
            model = PerfModel.for_tree_shape(
                args.n, height, fanout, params, block, costs
            ) if height > 1 else PerfModel.for_star(args.n, params, block, costs)
        except Exception:
            continue
        rows.append(
            (
                label,
                fanout,
                round(model.sending_time * 1000, 1),
                round(model.processing_time * 1000, 1),
                round(model.remaining_time * 1000, 1),
                round(model.pipelining_stretch, 1),
                round(model.max_speedup, 1),
                round(model.instance_latency() * 1000, 0),
            )
        )
    print(
        format_table(
            ("System", "Fanout", "Send (ms)", "Proc (ms)", "Remain (ms)",
             "Stretch", "Max speedup", "Instance lat (ms)"),
            rows,
            title=f"Performance model: N={args.n}, {args.scenario}, "
                  f"{args.block_size_kb} KB blocks",
        )
    )
    return 0


def _add_tune_parser(subparsers) -> None:
    p = subparsers.add_parser("tune", help="automatic configuration search")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--scenario", default="global",
                   choices=[*SCENARIOS, "heterogeneous"])
    p.add_argument("--objective", default="throughput",
                   choices=["throughput", "latency", "balanced"])
    p.add_argument("--block-size-kb", type=int, default=250)


def _cmd_tune(args) -> int:
    from repro.core.autotune import tune_heterogeneous, tune_homogeneous

    config = ProtocolConfig(block_size=args.block_size_kb * KB)
    if args.scenario == "heterogeneous":
        placement = tune_heterogeneous(resilientdb_clusters(), config=config)
        print(f"leader cluster : {placement.leader_cluster}")
        print(f"tree root      : process {placement.tree.root}")
        print(f"stretch        : {placement.stretch:.1f}")
        print(f"expected round : {placement.expected_round_time * 1000:.0f} ms")
        return 0
    best = tune_homogeneous(
        args.n, SCENARIOS[args.scenario], config=config, objective=args.objective
    )
    print(f"recommended    : {best.describe()}")
    print(f"objective      : {args.objective}")
    return 0


def _add_table_parser(subparsers) -> None:
    p = subparsers.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", choices=["1", "2"])
    p.add_argument("--n", type=int, default=100)


def _cmd_table(args) -> int:
    from repro.analysis.tables import (
        TABLE1_HEADERS,
        TABLE2_HEADERS,
        table1_rows,
        table2_rows,
    )

    if args.number == "1":
        print(format_table(TABLE1_HEADERS, table1_rows(n=args.n), title="Table 1"))
    else:
        print(format_table(TABLE2_HEADERS, table2_rows(), title="Table 2"))
    return 0


def _add_modes_parser(subparsers) -> None:
    subparsers.add_parser(
        "modes", help="list the registered protocol modes"
    )


def _cmd_modes(args) -> int:
    from repro.core.modes import PROTOCOLS

    rows = [
        (spec.name, spec.topology, spec.scheme, spec.pacing, spec.protocol,
         PROTOCOLS[spec.protocol]["kind"])
        for _, spec in sorted(MODES.items())
    ]
    print(format_table(
        ("Mode", "Topology", "Scheme", "Pacing", "Protocol", "Kind"),
        rows,
        title="Registered modes",
    ))
    return 0


#: The paper's marker for "data point obtained in a saturated testbed": the
#: ``scenarios run`` table puts it on a cell whose leader CPU saturated over
#: the measurement window.
RED_CIRCLE = "●"

#: The figure no scenario pack can express: Figure 3 traces a built
#: cluster's messages. Every other figure runs as
#: ``repro scenarios run <pack>``.
FIG_CHOICES = ["3"]


def _add_engine_args(p) -> None:
    """Sweep-engine knobs shared by grid-shaped commands."""
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel worker processes for independent cells "
                        "(default: $REPRO_SWEEP_JOBS or 1)")
    p.add_argument("--no-cache", action="store_true",
                   help="always re-simulate; skip the on-disk result cache "
                        "under benchmarks/results/.cache/")


def _add_fig_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "fig",
        help="Figure 3 (the others: `repro scenarios run <pack>`)",
    )
    p.add_argument("figure", choices=FIG_CHOICES)
    p.add_argument("--scale", type=float, default=0.3,
                   help="Figure 3 horizon scale; 1.0 = benchmark depth "
                        "(default 0.3)")


def _cmd_fig(args) -> int:
    from repro.analysis.pipeline_viz import pipeline_chart, pipeline_rounds

    for mode in ("kauri", "hotstuff-bls", "kauri-np"):
        rows = pipeline_rounds(
            mode, duration=60.0 * max(args.scale, 0.2), max_commits=30
        )
        print("\n" + pipeline_chart(mode, rows))
    return 0


def _scenario_label(scenario) -> str:
    """Display name for a spec's scenario (str / NetworkParams / ClusterParams)."""
    return scenario if isinstance(scenario, str) else scenario.name


def _axis_value(cell, axis: str) -> str:
    """One swept axis's value in a compiled cell: a composite axis by the
    cell's label, a scenario table by its keys, a scalar as written."""
    from repro.scenarios.compiler import axis_value

    value = axis_value(cell, axis)
    if value is None:
        return "-"
    if isinstance(value, dict):
        return " ".join(f"{key}={item}" for key, item in value.items())
    return str(value)


def _emit_report(report, path: str) -> int:
    """Write a RunReport's JSON to ``path`` and check it against the
    schema: 1 on a mismatch. Status lines go to stderr, so stdout stays
    one JSON document under --json."""
    from repro.obs import report_json, validate_report

    with open(path, "w") as fh:
        fh.write(report_json(report))
    print(f"wrote {path}", file=sys.stderr)
    problems = validate_report(report)
    for problem in problems:
        print(f"SCHEMA: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("report validates against the schema", file=sys.stderr)
    return 0


def _pack_name(name: str) -> str:
    """argparse ``type`` of a PACK argument: a catalog pack name. The
    catalog is read only when a ``scenarios`` command parses one."""
    from repro.scenarios import pack_names

    try:
        names = sorted(pack_names())
    except Exception:  # unreadable catalog dir: accept any name, fail late
        return name
    # Empty catalog -> any name; load_pack gives the precise "unknown pack"
    # error (with the catalog location) at run time.
    if names and name not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} "
            f"(choose from {', '.join(map(repr, names))})"
        )
    return name


def _add_scenarios_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "scenarios",
        help="list / show / validate / run declarative scenario packs",
    )
    sub = p.add_subparsers(dest="scenarios_command", required=True)
    sub.add_parser("list", help="list every pack in the catalog")
    show = sub.add_parser("show", help="show a pack's axes and compiled cells")
    show.add_argument("name", type=_pack_name, metavar="PACK")
    validate = sub.add_parser(
        "validate", help="dry-run compile packs; exit 1 on any error"
    )
    validate.add_argument("name", nargs="?", type=_pack_name, metavar="PACK",
                          help="one pack; default: every pack in the catalog")
    run = sub.add_parser(
        "run", help="compile a pack, run its grid and check its [[expect]] "
                    "rows; exit 1 if a row fails"
    )
    run.add_argument("name", type=_pack_name, metavar="PACK")
    run.add_argument("--scale", type=float, default=1.0,
                     help="horizon/budget scale (default 1.0)")
    run.add_argument("--seed", type=int, default=None,
                     help="override every cell's seed")
    run.add_argument("--json", action="store_true",
                     help="emit the results as JSON")
    run.add_argument("--report", default=None, metavar="PATH",
                     help="run with observability on and write the first "
                          "cell's RunReport JSON here")
    _add_engine_args(run)


def _cmd_scenarios(args) -> int:
    from repro.scenarios import (
        PackError,
        catalog,
        compile_pack,
        load_pack,
        load_pack_file,
        validate_pack,
    )

    if args.scenarios_command == "list":
        rows = []
        for name, path in catalog().items():
            pack = load_pack_file(path)
            grid = validate_pack(pack)
            rows.append(
                (name, len(grid.cells), " x ".join(pack.axis_names) or "-",
                 pack.title)
            )
        print(format_table(("Pack", "Cells", "Axes", "Title"), rows,
                           title="Scenario packs"))
        return 0

    if args.scenarios_command == "show":
        pack = load_pack(args.name)
        grid = compile_pack(pack)
        print(f"{pack.name}: {pack.title}")
        if pack.description:
            print(pack.description)
        print(f"source: {pack.source}")
        if pack.defaults:
            print("defaults: " + ", ".join(
                f"{key}={value!r}" for key, value in pack.defaults.items()
            ))
        for pgrid in pack.grids:
            for axis, values in pgrid.axes:
                print(f"axis {axis}: {len(values)} values")
        rows = [
            (
                cell.index,
                cell.label or "-",
                cell.spec.mode,
                _scenario_label(cell.spec.scenario),
                cell.spec.n,
                "-" if cell.spec.block_size is None
                else cell.spec.block_size // KB,
                round(cell.spec.duration, 1),
                cell.spec.max_commits,
            )
            for cell in grid.cells
        ]
        print(format_table(
            ("#", "Label", "Mode", "Scenario", "N", "Block KB",
             "Duration (s)", "Commits"),
            rows,
            title=f"{len(grid.cells)} cells at scale 1.0",
        ))
        return 0

    if args.scenarios_command == "validate":
        targets = (
            {args.name: catalog()[args.name]} if args.name else catalog()
        )
        failures = 0
        for name, path in targets.items():
            try:
                grid = validate_pack(load_pack_file(path))
            except PackError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}", file=sys.stderr)
            else:
                print(f"ok   {name} ({len(grid.cells)} cells)")
        if failures:
            print(f"{failures} of {len(targets)} packs failed validation",
                  file=sys.stderr)
            return 1
        print(f"all {len(targets)} packs validate")
        return 0

    # run
    from repro.runtime.sweep import SweepRunner
    from repro.scenarios import check_rows, run_pack

    runner = SweepRunner(jobs=args.jobs, cache=not args.no_cache)
    grid, results = run_pack(
        args.name,
        scale=args.scale,
        seed=args.seed,
        observability=True if args.report else None,
        runner=runner,
    )
    if args.json:
        print(json.dumps(
            [dataclasses.asdict(r) for r in results], indent=2, default=str
        ))
    else:
        axes = grid.pack.axis_names
        rows = [
            (
                *(_axis_value(cell, axis) for axis in axes),
                round(r.throughput_txs / 1000, 2),
                round(r.latency["p50"] * 1000, 0),
                RED_CIRCLE if r.cpu_saturated else "",
            )
            for cell, r in zip(grid.cells, results)
        ]
        print(format_table(
            (*axes, "Ktx/s", "p50 lat (ms)", "CPU"),
            rows,
            title=f"{grid.pack.title} (scale {args.scale})",
        ))
        stats = runner.last_stats
        print(f"[{stats.backend} x{stats.jobs}: {stats.executed} simulated, "
              f"{stats.cache_hits} cached]")
    # One verdict per [[expect]] row; on stderr under --json, so stdout
    # stays one JSON document.
    verdicts = check_rows(grid, results)
    for verdict in verdicts:
        print(verdict.line(), file=sys.stderr if args.json else sys.stdout)
    code = int(any(verdict.status == "FAIL" for verdict in verdicts))
    if args.report:
        return max(code, _emit_report(results[0].report, args.report))
    return code


def _add_capacity_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "capacity",
        help="how many users fit this topology: sweep offered load through "
             "the workload engine and report the saturation knee",
    )
    p.add_argument("--mode", default="kauri", choices=MODE_CHOICES)
    p.add_argument("--scenario", default="national", choices=list(SCENARIOS))
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--users", type=int, default=1_000_000,
                   help="target client population (the sweep's top load "
                        "level is --max-load-factor times this)")
    p.add_argument("--rate-per-user", type=float, default=0.001,
                   help="transactions per second per user")
    p.add_argument("--points", type=int, default=5,
                   help="load levels swept up to users * max-load-factor")
    p.add_argument("--max-load-factor", type=float, default=2.0)
    p.add_argument("--duration", type=float, default=15.0,
                   help="simulated seconds per load level")
    p.add_argument("--capacity-txs", type=int, default=None,
                   help="bounded leader mempool (admission control); "
                        "default unbounded")
    p.add_argument("--policy", default="drop", choices=["drop", "defer"],
                   help="mempool overflow policy")
    p.add_argument("--slo-ms", type=float, default=1000.0,
                   help="end-to-end latency SLO, judged at p99")
    p.add_argument("--goodput-threshold", type=float, default=0.9,
                   help="knee rule: commit at least this fraction of "
                        "generated load with the SLO met")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the knee cell's schema-validated RunReport "
                        "JSON here")
    _add_engine_args(p)


def _cmd_capacity(args) -> int:
    from repro.runtime.sweep import ExperimentSpec, SweepRunner
    from repro.runtime.workload import capacity_sweep

    if args.points < 1:
        print("error: --points must be >= 1", file=sys.stderr)
        return 2
    runner = SweepRunner(jobs=args.jobs, cache=not args.no_cache)
    points, knee, results = capacity_sweep(
        ExperimentSpec(
            mode=args.mode,
            scenario=args.scenario,
            n=args.n,
            height=args.height,
            duration=args.duration,
            seed=args.seed,
            observability=bool(args.report),
        ),
        users=args.users,
        rate_per_user=args.rate_per_user,
        levels=args.points,
        max_load_factor=args.max_load_factor,
        slo_ms=args.slo_ms,
        capacity_txs=args.capacity_txs,
        policy=args.policy,
        goodput_threshold=args.goodput_threshold,
        runner=runner,
    )

    if args.json:
        print(json.dumps({"points": points, "knee": knee}, indent=2))
    else:
        rows = [
            (
                f"{point['users']:,}",
                round(point["offered_rate_txs"], 1),
                point["committed"],
                round(point["latency"]["p50"] * 1000, 1),
                round(point["latency"]["p99"] * 1000, 1),
                round(point["latency"]["p999"] * 1000, 1),
                f"{point['drop_rate']:.1%}",
                "yes" if point["slo_met"] else "NO",
                "<- knee" if index == knee else "",
            )
            for index, point in enumerate(points)
        ]
        print(format_table(
            ("Users", "Offered tx/s", "Committed", "p50 ms", "p99 ms",
             "p999 ms", "Drops", "SLO", ""),
            rows,
            title=f"Capacity sweep: {args.mode} n={args.n} "
                  f"({args.scenario}), SLO p99 <= {args.slo_ms:.0f} ms",
        ))
        if knee >= 0:
            point = points[knee]
            print(f"saturation knee: ~{point['users']:,} users "
                  f"({point['offered_rate_txs']:,.0f} tx/s offered) fit this "
                  f"topology within the SLO")
        else:
            print("saturation knee: none of the tested load levels met the "
                  "goodput/SLO rule; try a lighter load or a bigger topology")
        stats = runner.last_stats
        print(f"[{stats.backend} x{stats.jobs}: {stats.executed} simulated, "
              f"{stats.cache_hits} cached]")

    if args.report:
        return _emit_report(results[knee if knee >= 0 else 0].report, args.report)
    return 0


def _add_cache_parser(subparsers) -> None:
    p = subparsers.add_parser(
        "cache",
        help="inspect or bound the on-disk sweep result cache",
    )
    sub = p.add_subparsers(dest="cache_command", required=True)
    stats = sub.add_parser("stats", help="inventory the cache directory")
    stats.add_argument("--dir", default=None, metavar="PATH",
                       help="cache directory (default: the sweep engine's, "
                            "benchmarks/results/.cache or "
                            "$REPRO_SWEEP_CACHE_DIR)")
    stats.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable output")
    prune = sub.add_parser(
        "prune",
        help="delete tmp/stale entries and bound the cache by age/size",
    )
    prune.add_argument("--dir", default=None, metavar="PATH",
                       help="cache directory (default: the sweep engine's)")
    prune.add_argument("--max-age-days", type=float, default=None,
                       help="drop entries older than this many days")
    prune.add_argument("--max-size-mb", type=float, default=None,
                       help="drop oldest entries until the cache fits")
    prune.add_argument("--keep-stale", action="store_true",
                       help="keep entries with a non-current cache schema "
                            "(dropped by default; they can never hit)")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what would be removed without deleting")


def _cmd_cache(args) -> int:
    from repro.runtime.sweep import cache_stats, prune_cache

    if args.cache_command == "stats":
        stats = cache_stats(root=args.dir)
        if args.as_json:
            print(json.dumps(dataclasses.asdict(stats), indent=2, sort_keys=True))
            return 0
        rows = [
            ("entries", stats.entries),
            ("size", f"{stats.size_bytes / 1e6:,.2f} MB"),
            ("stale (old schema)", stats.stale),
            ("corrupt", stats.corrupt),
            ("tmp files", stats.tmp_files),
            ("oldest", f"{stats.oldest_age_s / 86400.0:,.1f} days"),
            ("newest", f"{stats.newest_age_s / 86400.0:,.1f} days"),
        ]
        print(format_table(("Field", "Value"), rows,
                           title=f"Sweep cache: {stats.root}"))
        return 0
    result = prune_cache(
        root=args.dir,
        max_age_days=args.max_age_days,
        max_size_mb=args.max_size_mb,
        drop_stale=not args.keep_stale,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {result.removed} files ({result.freed_bytes / 1e6:,.2f} MB), "
        f"kept {result.kept} entries"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kauri (SOSP 2021) reproduction: run deployments, "
                    "evaluate the performance model, regenerate the paper's "
                    "tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    _add_modes_parser(subparsers)
    _add_model_parser(subparsers)
    _add_tune_parser(subparsers)
    _add_table_parser(subparsers)
    _add_fig_parser(subparsers)
    _add_scenarios_parser(subparsers)
    _add_capacity_parser(subparsers)
    _add_cache_parser(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "modes": _cmd_modes,
        "model": _cmd_model,
        "tune": _cmd_tune,
        "table": _cmd_table,
        "fig": _cmd_fig,
        "scenarios": _cmd_scenarios,
        "capacity": _cmd_capacity,
        "cache": _cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) closed the pipe: not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
