"""Command line front end.

Subcommands:

  pareto    exact (area, power) front for one graph, mode and slack
  compare   fronts for all three modes side by side, with coverage stats
  sweep     fronts across a range of slack values, optional 3-axis merge
  budget    one constrained schedule via list scheduling or first-fit search
  oracle    brute-force front for small graphs (cross-checking aid)
  validate  check a schedule file against the timing rules and cost it

Exit codes: 0 success, 2 bad input (parse, validation, argument errors),
3 enumeration refused because the state space is too large, 4 a search hit
its time limit (partial results are still written).

CSV outputs are deterministic: fixed column order, rows fully sorted,
floats rendered with six decimals.  Wall-clock measurements only ever go
to the JSON sidecar, never the CSV, so identical runs produce identical
CSV bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Iterable, Sequence

from .bb import SearchConfig, SearchReport, bb_first, bb_pareto, check_window_steps
from .dfg import (
    Dfg,
    Schedule,
    TimingInfo,
    compute_timing,
    parse_dfg,
    validate_schedule,
)
from .listsched import Priority, list_schedule
from .oracle import EnumerationBound, StateSpaceTooLarge, oracle_front
from .power import (
    ArchMode,
    Budget,
    CostTuple,
    ParetoSet,
    ResourceLibrary,
    load_resource_library,
    schedule_cost,
)

MODE_ORDER = (ArchMode.SINGLE_VDD, ArchMode.MULTI_VDD, ArchMode.FGDVS)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TOO_LARGE = 3
EXIT_TIME_LIMIT = 4


# ---------------------------------------------------------------------------
# the shared pipeline: load, search, print, write


def _load(
    args: argparse.Namespace, slacks: Iterable[int]
) -> tuple[Dfg, ResourceLibrary, list[TimingInfo]]:
    """The graph and library that args name, and the graph's timing per slack."""
    g = parse_dfg(Path(args.dfg).read_text(encoding="utf-8"))
    lib = load_resource_library(Path(args.lib).read_text(encoding="utf-8"))
    return g, lib, [compute_timing(g, k) for k in slacks]


def _parse_area_budget(text: str, op_types: Sequence[str]) -> dict[str, int]:
    caps: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        op, sep, raw = part.partition("=")
        op = op.strip()
        if not sep or not op:
            raise ValueError(f"bad area budget entry {part!r}, expected TYPE=COUNT")
        if op not in op_types:
            raise ValueError(f"area budget type {op!r} is not in the library")
        if op in caps:
            raise ValueError(f"area budget names {op!r} twice")
        try:
            count = int(raw)
        except ValueError:
            raise ValueError(f"bad area budget count {raw!r} for {op!r}") from None
        caps[op] = count
    if not caps:
        raise ValueError("empty area budget")
    return caps


def _make_budget(args: argparse.Namespace, lib: ResourceLibrary) -> Budget:
    caps = _parse_area_budget(args.area_budget, lib.op_types()) if args.area_budget else None
    return Budget(area_caps=caps, power_cap=args.power_budget)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _schedule_json(schedule: Schedule) -> dict[str, list[int]]:
    return {str(v): [t, d] for v, (t, d) in sorted(schedule.items())}


def _front_json(front: ParetoSet) -> dict:
    """The front's size and its members, sorted, as the sidecar writes them.

    This is the one place a member's fields are read off its cost and
    schedule: stdout, the CSVs and the sidecar all read these objects.
    """
    members = [
        {
            "area": e.cost.area_total,
            "area_by_type": dict(sorted(e.cost.area_by_type.items())),
            "power": e.cost.power,
            "dynamic": e.cost.dynamic,
            "leakage": e.cost.leakage,
            "switching": e.cost.switching,
            "latency": e.cost.latency,
            "schedule": _schedule_json(e.schedule),
        }
        for e in front.sorted_entries()
    ]
    return {"front_size": len(members), "front": members}


def _solution_json(cost: CostTuple, schedule: Schedule, elapsed: float) -> dict:
    """One schedule found: bb-first's answer, list's, or a search's first."""
    return {
        "area": cost.area_total,
        "power": cost.power,
        "elapsed": elapsed,
        "schedule": _schedule_json(schedule),
    }


def _say(*lines: str) -> None:
    """Print ``lines`` to stdout.  Once its reader has closed it, stdout
    goes to the null device, so the run still writes its files and exits
    as it would have."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_front(title: str, members: list[dict], op_types: Sequence[str]) -> None:
    lines = [title]
    for m in members:
        per_type = " ".join(f"{op}={n}" for op in op_types if (n := m["area_by_type"].get(op)))
        lines.append(
            f"  area={m['area']:<3d} power={_fmt(m['power'])} "
            f"(dyn={_fmt(m['dynamic'])} leak={_fmt(m['leakage'])} sw={_fmt(m['switching'])}) "
            f"[{per_type}]"
        )
    _say(*lines)


def _front_csv(
    op_types: Sequence[str],
    fronts: Iterable[tuple[str, list[dict]]],
    critical_length: int,
) -> list[list[str]]:
    """Header and rows of the front CSV; k is a point's latency beyond the critical path."""
    table = [
        [
            "mode",
            "k",
            "latency",
            "area_total",
            "power_total",
            "power_dynamic",
            "power_leakage",
            "power_switching",
            *(f"area_{op}" for op in op_types),
            "schedule",
        ]
    ]
    for mode, members in fronts:
        for m in members:
            table.append(
                [
                    mode,
                    str(m["latency"] - critical_length),
                    str(m["latency"]),
                    str(m["area"]),
                    _fmt(m["power"]),
                    _fmt(m["dynamic"]),
                    _fmt(m["leakage"]),
                    _fmt(m["switching"]),
                    *(str(m["area_by_type"].get(op, 0)) for op in op_types),
                    ";".join(f"{v}:{t}:{d}" for v, (t, d) in m["schedule"].items()),
                ]
            )
    return table


def _write_csv(path: str, table: list[list[str]]) -> None:
    # csv.writer would add \r\n quoting variance for nothing; fields are
    # comma-free by construction.
    Path(path).write_text("\n".join(",".join(row) for row in table) + "\n", encoding="utf-8")


def _counters_json(report: SearchReport) -> dict:
    return {
        "nodes_expanded": report.nodes_expanded,
        "budget_prunes": report.budget_prunes,
        "dominance_prunes": report.dominance_prunes,
        "state_prunes": report.state_prunes,
        "state_lookups": report.state_lookups,
        "leaves": report.leaves,
        "switch_binds": report.switch_binds,
    }


def _report_json(report: SearchReport, first: bool = False) -> dict:
    """The search's sidecar fields; the first solution only when ``first``."""
    data = {
        "completed": report.completed,
        "elapsed": report.elapsed,
        **_counters_json(report),
        **_front_json(report.front),
    }
    if first and report.first_solution is not None:
        data["first_solution"] = _solution_json(*report.first_solution)
    return data


def _head(args: argparse.Namespace, g: Dfg, **fields: object) -> dict:
    """A sidecar's first keys: the subcommand, the graph, its mode (compare
    runs all three and has none), then ``fields``."""
    mode = {"mode": args.mode} if "mode" in args else {}
    return {"command": args.command, "dfg": g.name, **mode, **fields}


def _emit(
    args: argparse.Namespace,
    data: dict,
    table: list[list[str]] | None = None,
    completed: bool = True,
) -> int:
    """Write ``table`` to --out and ``data`` to --json; return the exit code."""
    if args.out:
        _write_csv(args.out, table)
    if args.json:
        # One line of compact JSON: json.dumps without indent runs the C encoder.
        Path(args.json).write_text(json.dumps(data) + "\n", encoding="utf-8")
    return EXIT_OK if completed else EXIT_TIME_LIMIT


# ---------------------------------------------------------------------------
# subcommands


def cmd_pareto(args: argparse.Namespace) -> int:
    g, lib, (timing,) = _load(args, [args.k])
    cfg = SearchConfig(ArchMode(args.mode), _make_budget(args, lib), args.time_limit)
    report = bb_pareto(g, timing, lib, cfg)
    run = _report_json(report, args.emit_first)
    _print_front(
        f"{g.name}: mode={args.mode} k={args.k} latency_bound={timing.latency_bound} "
        f"front={run['front_size']} expanded={report.nodes_expanded} "
        f"elapsed={report.elapsed:.3f}s"
        + ("" if report.completed else " [time limit hit, front is partial]"),
        run["front"],
        lib.op_types(),
    )
    data = _head(args, g, k=args.k, latency_bound=timing.latency_bound, **run)
    table = _front_csv(lib.op_types(), [(args.mode, run["front"])], timing.critical_length)
    return _emit(args, data, table, report.completed)


def cmd_compare(args: argparse.Namespace) -> int:
    g, lib, (timing,) = _load(args, [args.k])
    budget = _make_budget(args, lib)
    fronts: dict[ArchMode, ParetoSet] = {}
    runs: dict[str, dict] = {}
    for mode in MODE_ORDER:
        report = bb_pareto(g, timing, lib, SearchConfig(mode, budget, args.time_limit))
        fronts[mode] = report.front
        runs[mode.value] = run = _report_json(report)
        tag = "" if report.completed else " [partial]"
        title = f"{g.name}: mode={mode.value} front={run['front_size']}{tag}"
        _print_front(title, run["front"], lib.op_types())

    multi = fronts[ArchMode.MULTI_VDD]
    covered = sum(fronts[ArchMode.FGDVS].covers(e.cost) for e in multi)
    pct = 100.0 * covered / len(multi) if multi else 100.0
    _say(
        f"coverage: fgdvs matches or beats {covered}/{len(multi)} "
        f"multi-vdd points ({pct:.1f}%)"
    )
    coverage = {
        "multi_points": len(multi),
        "covered_by_fgdvs": covered,
        "percent": pct,
    }
    data = _head(
        args, g, k=args.k, latency_bound=timing.latency_bound, coverage=coverage, runs=runs
    )
    table = _front_csv(
        lib.op_types(), [(m, run["front"]) for m, run in runs.items()], timing.critical_length
    )
    return _emit(args, data, table, all(run["completed"] for run in runs.values()))


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.k_max < 0:
        raise ValueError(f"--k-max must be >= 0, got {args.k_max}")
    # The largest slack tables the most; refuse it before timing the rest.
    g, lib, (last,) = _load(args, [args.k_max])
    check_window_steps(last)
    timings = [compute_timing(g, k) for k in range(args.k_max)] + [last]
    cfg = SearchConfig(ArchMode(args.mode), _make_budget(args, lib), args.time_limit)

    # One summary row per slack: the front's area and power extremes.  The
    # optional merged front over (latency, area, power) takes the points in
    # slack order.  No point covers another of its own front, or one of a
    # smaller slack's, so the order within a front changes nothing.
    table = [
        [
            "mode",
            "k",
            "latency",
            "front_size",
            "min_area",
            "max_area",
            "min_power",
            "max_power",
        ]
    ]
    runs = []
    merged = ParetoSet(("latency", "area_total", "power"))
    for t in timings:
        report = bb_pareto(g, t, lib, cfg)
        run = _report_json(report)
        runs.append({"k": t.slack, "latency_bound": t.latency_bound, **run})
        tag = "" if report.completed else " [partial]"
        _print_front(
            f"{g.name}: mode={args.mode} k={t.slack} latency_bound={t.latency_bound} "
            f"front={run['front_size']}{tag}",
            run["front"],
            lib.op_types(),
        )
        extremes = ["", "", "", ""]
        if run["front"]:
            areas = [m["area"] for m in run["front"]]
            powers = [m["power"] for m in run["front"]]
            extremes = [str(min(areas)), str(max(areas)), _fmt(min(powers)), _fmt(max(powers))]
        table.append(
            [args.mode, str(t.slack), str(t.latency_bound), str(run["front_size"]), *extremes]
        )
        if args.front3:
            for entry in report.front:
                merged.insert(entry.cost, entry.schedule)

    data = _head(args, g, k_max=args.k_max, runs=runs)
    if args.front3:
        critical = timings[0].critical_length
        members = _front_json(merged)["front"]
        path = args.front3
        if path is True:  # no path given: next to --out, if any
            path = args.out and str(Path(args.out).with_suffix(".front3.csv"))
        if path:
            _write_csv(path, _front_csv(lib.op_types(), [(args.mode, members)], critical))
        _say(f"merged latency/area/power front: {len(members)} points")
        data["front3"] = [
            {
                "k": m["latency"] - critical,
                "latency": m["latency"],
                "area": m["area"],
                "power": m["power"],
                "schedule": m["schedule"],
            }
            for m in members
        ]
    return _emit(args, data, table, all(run["completed"] for run in runs))


def cmd_budget(args: argparse.Namespace) -> int:
    g, lib, (timing,) = _load(args, [args.k])
    # One config for every algorithm, so each checks --time-limit alike.
    cfg = SearchConfig(ArchMode(args.mode), _make_budget(args, lib), args.time_limit)
    head = _head(args, g, k=args.k, algorithm=args.algorithm)

    if args.algorithm == "bb":
        report = bb_pareto(g, timing, lib, cfg)
        run = _report_json(report)
        tag = "" if report.completed else " [partial]"
        title = f"{g.name}: budget-constrained front, {run['front_size']} points{tag}"
        _print_front(title, run["front"], lib.op_types())
        return _emit(args, {**head, **run}, completed=report.completed)

    if args.algorithm == "list":
        t0 = time.perf_counter()
        schedule = list_schedule(g, timing, lib, cfg.mode, cfg.budget, Priority(args.priority))
        elapsed = time.perf_counter() - t0
        if schedule is None:
            _say(f"{g.name}: INFEASIBLE ({elapsed:.4f}s, priority={args.priority})")
            return _emit(args, {**head, "feasible": False, "elapsed": elapsed})
        cost = schedule_cost(g, schedule, lib, cfg.mode, timing.latency_bound)
    else:  # bb-first
        report = bb_first(g, timing, lib, cfg)
        head.update(completed=report.completed, **_counters_json(report))
        if report.first_solution is None:
            if not report.completed:
                print("no schedule found before the time limit", file=sys.stderr)
                return _emit(args, {**head, "elapsed": report.elapsed}, completed=False)
            _say(f"{g.name}: NONE")
            return _emit(args, {**head, "feasible": False})
        cost, schedule, elapsed = report.first_solution
    _say(
        f"{g.name}: ({cost.area_total}, {_fmt(cost.power)}) {elapsed:.4f}s ({args.algorithm})",
        *(
            f"  node {v} ({g.nodes[v]}): start={t} cycles={d}"
            for v, (t, d) in sorted(schedule.items())
        ),
    )
    return _emit(args, {**head, "feasible": True, **_solution_json(cost, schedule, elapsed)})


def cmd_oracle(args: argparse.Namespace) -> int:
    g, lib, (timing,) = _load(args, [args.k])
    bound = EnumerationBound(max_nodes=args.max_nodes, max_states=args.max_states)
    budget = _make_budget(args, lib)
    found = _front_json(oracle_front(g, timing, lib, ArchMode(args.mode), budget, bound))
    _print_front(
        f"{g.name}: oracle mode={args.mode} k={args.k} "
        f"latency_bound={timing.latency_bound} front={found['front_size']}",
        found["front"],
        lib.op_types(),
    )
    data = _head(args, g, k=args.k, latency_bound=timing.latency_bound, **found)
    table = _front_csv(lib.op_types(), [(args.mode, found["front"])], timing.critical_length)
    return _emit(args, data, table)


def _parse_schedule_file(path: str) -> list[tuple[Schedule, int | None, ArchMode | None]]:
    """Read one schedule, or every schedule in a sidecar JSON, each with the
    slack and the mode its sidecar records for it (None where none is)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    # Every sidecar names its command; a budget one may hold no schedule.
    if not data.keys() & {"command", "front", "runs", "schedule"}:
        return [(_coerce_schedule(data), None, None)]
    k, mode = data.get("k"), data.get("mode")
    runs = data.get("runs") or []
    try:
        # compare keys its runs by mode; sweep lists them, each with its k.
        if isinstance(runs, dict):
            runs = [(run, k, key) for key, run in runs.items()]
        else:
            runs = [(run, run.get("k", k), mode) for run in runs]
        fronts = [(data.get("front", []), k, mode)]
        fronts += [(run.get("front", []), run_k, run_mode) for run, run_k, run_mode in runs]
        schedules = [
            (_coerce_schedule(item["schedule"]), front_k, front_mode)
            for front, front_k, front_mode in fronts
            for item in front
        ]
    except (AttributeError, TypeError, KeyError):
        raise ValueError(f"{path}: runs and fronts must hold objects with a schedule") from None
    if "schedule" in data:
        schedules.append((_coerce_schedule(data["schedule"]), k, mode))
    if not schedules:
        raise ValueError(f"{path}: no schedules found")
    for _schedule, k, _mode in schedules:
        if k is not None and (type(k) is not int or k < 0):
            raise ValueError(f"{path}: slack {k!r} is not a non-negative integer")
    return [(s, k, None if mode is None else ArchMode(mode)) for s, k, mode in schedules]


def _coerce_schedule(raw: object) -> Schedule:
    if not isinstance(raw, dict):
        raise ValueError(f"expected a schedule object, got {raw!r}")
    sched: Schedule = {}
    for key, val in raw.items():
        if not (isinstance(val, list) and len(val) == 2 and all(type(x) is int for x in val)):
            raise ValueError(f"node {key}: expected [start, cycles], got {val!r}")
        node = int(key)
        if node in sched:
            raise ValueError(f"node {node} is named twice")
        sched[node] = (val[0], val[1])
    return sched


def cmd_validate(args: argparse.Namespace) -> int:
    g, lib, (timing,) = _load(args, [args.k])
    schedules = _parse_schedule_file(args.schedule)

    # Each schedule is checked and priced at the slack and mode its sidecar
    # records; the flags stand in only where the file records none.
    timings = {args.k: timing}
    failures = 0
    for idx, (schedule, k, mode) in enumerate(schedules):
        label = f"schedule {idx + 1}/{len(schedules)}"
        recorded = k is not None or mode is not None
        k = args.k if k is None else k
        mode = ArchMode(args.mode) if mode is None else mode
        if recorded:
            label += f" (k={k}, {mode.value})"
        if k not in timings:
            timings[k] = compute_timing(g, k)
        violation = validate_schedule(g, timings[k], schedule, lib.pricing(mode).durations())
        if violation is not None:
            failures += 1
            _say(f"{label}: INVALID [{violation.rule}] {violation.message}")
            continue
        cost = schedule_cost(g, schedule, lib, mode, timings[k].latency_bound)
        _say(
            f"{label}: ok area={cost.area_total} power={_fmt(cost.power)} "
            f"(dyn={_fmt(cost.dynamic)} leak={_fmt(cost.leakage)} "
            f"sw={_fmt(cost.switching)})"
        )
    if failures:
        _say(f"{failures}/{len(schedules)} schedules failed validation")
        return EXIT_INPUT
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, *, mode: bool = True, slack: bool = True) -> None:
    p.add_argument("--dfg", required=True, help="data-flow graph file")
    p.add_argument("--lib", required=True, help="resource library file")
    if slack:
        p.add_argument("--k", type=int, default=0, help="latency slack beyond the critical path (default 0)")
    if mode:
        p.add_argument(
            "--mode",
            choices=[m.value for m in ArchMode],
            default=ArchMode.FGDVS.value,
            help="architecture cost model (default fgdvs)",
        )


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--area-budget",
        metavar="TYPE=N[,TYPE=N...]",
        help="per-type unit caps, e.g. mul=2,add=1",
    )
    p.add_argument("--power-budget", type=float, metavar="MW", help="total power cap")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="CSV", help="write the front as CSV")
    p.add_argument("--json", metavar="FILE", help="write a JSON sidecar with run details")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvsched",
        description="Voltage-aware operator scheduling on data-flow graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pareto", help="exact area/power front for one configuration")
    _add_common(p)
    _add_budget_args(p)
    _add_output_args(p)
    p.add_argument("--time-limit", type=float, metavar="SEC", help="search time limit")
    p.add_argument(
        "--emit-first",
        action="store_true",
        help="also write the first feasible schedule found (bb-first's answer) to the "
        "JSON sidecar; the search and the CSV are the same without it",
    )
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("compare", help="fronts for all three modes on one graph")
    _add_common(p, mode=False)
    _add_budget_args(p)
    _add_output_args(p)
    p.add_argument("--time-limit", type=float, metavar="SEC", help="per-mode time limit")
    p.set_defaults(func=cmd_compare)

    # No abbreviations: sweep has no --k, and --k must not pass for --k-max.
    p = sub.add_parser("sweep", help="fronts across slack values 0..k-max", allow_abbrev=False)
    _add_common(p, slack=False)
    _add_budget_args(p)
    _add_output_args(p)
    p.add_argument("--k-max", type=int, default=2, help="largest slack to try (default 2)")
    p.add_argument("--time-limit", type=float, metavar="SEC", help="per-slack time limit")
    p.add_argument(
        "--front3",
        nargs="?",
        const=True,
        metavar="CSV",
        help="also merge all slacks into a latency/area/power front "
        "(path optional; defaults next to --out)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("budget", help="find one schedule under a budget")
    _add_common(p)
    _add_budget_args(p)
    p.add_argument(
        "--algorithm",
        choices=["list", "bb-first", "bb"],
        default="list",
        help="list scheduler, first solution found by branch-and-bound, "
        "or the full budget-constrained front (default list)",
    )
    p.add_argument(
        "--priority",
        choices=[pr.value for pr in Priority],
        default=Priority.MIN_DURATION.value,
        help="list scheduler duration preference (default min-duration)",
    )
    p.add_argument("--time-limit", type=float, metavar="SEC", help="search time limit (bb only)")
    p.add_argument("--json", metavar="FILE", help="write result as JSON")
    p.set_defaults(func=cmd_budget, out=None)

    p = sub.add_parser("oracle", help="brute-force front for small graphs")
    _add_common(p)
    _add_budget_args(p)
    _add_output_args(p)
    p.add_argument(
        "--max-nodes",
        type=int,
        default=EnumerationBound.max_nodes,
        help=f"refuse graphs larger than this (default {EnumerationBound.max_nodes})",
    )
    p.add_argument(
        "--max-states",
        type=int,
        default=EnumerationBound.max_states,
        help="refuse state spaces larger than this",
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", help="check a schedule file and report its cost")
    _add_common(p)
    p.add_argument(
        "--schedule",
        required=True,
        metavar="JSON",
        help="schedule file: {\"node\": [start, cycles], ...} or a JSON sidecar",
    )
    p.set_defaults(func=cmd_validate)

    return parser


# Built on the first main() call rather than at import, and kept: parsing
# leaves no state in the parser, and building one costs about twenty times
# what parsing a command line with it does.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except StateSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    # Bad input; DfgError, LibraryError and json.JSONDecodeError are ValueErrors.
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
