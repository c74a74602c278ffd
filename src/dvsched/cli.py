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
import json
import sys
import time
from pathlib import Path
from typing import Iterable, Sequence

from .bb import SearchConfig, SearchReport, bb_first, bb_pareto
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


def _print_front(title: str, front: ParetoSet, op_types: Sequence[str]) -> None:
    print(title)
    for entry in front.sorted_entries():
        c = entry.cost
        per_type = " ".join(
            f"{op}={c.area_by_type.get(op, 0)}" for op in op_types if c.area_by_type.get(op, 0)
        )
        print(
            f"  area={c.area_total:<3d} power={_fmt(c.power)} "
            f"(dyn={_fmt(c.dynamic)} leak={_fmt(c.leakage)} sw={_fmt(c.switching)}) "
            f"[{per_type}]"
        )


def _front_csv(
    op_types: Sequence[str],
    fronts: Iterable[tuple[ArchMode, ParetoSet]],
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
    for mode, front in fronts:
        for entry in front.sorted_entries():
            c = entry.cost
            table.append(
                [
                    mode.value,
                    str(c.latency - critical_length),
                    str(c.latency),
                    str(c.area_total),
                    _fmt(c.power),
                    _fmt(c.dynamic),
                    _fmt(c.leakage),
                    _fmt(c.switching),
                    *(str(c.area_by_type.get(op, 0)) for op in op_types),
                    ";".join(f"{v}:{t}:{d}" for v, (t, d) in sorted(entry.schedule.items())),
                ]
            )
    return table


def _write_csv(path: str, table: list[list[str]]) -> None:
    # csv.writer would add \r\n quoting variance for nothing; fields are
    # comma-free by construction.
    Path(path).write_text("\n".join(",".join(row) for row in table) + "\n", encoding="utf-8")


def _front_json(front: ParetoSet) -> list[dict]:
    return [
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


def _counters_json(report: SearchReport) -> dict:
    return {
        "nodes_expanded": report.nodes_expanded,
        "budget_prunes": report.budget_prunes,
        "dominance_prunes": report.dominance_prunes,
        "state_prunes": report.state_prunes,
        "state_lookups": report.state_lookups,
        "leaves": report.leaves,
    }


def _report_json(report: SearchReport, first: bool = False) -> dict:
    """The search's sidecar fields; the first solution only when ``first``."""
    data = {
        "completed": report.completed,
        "elapsed": report.elapsed,
        **_counters_json(report),
        "front_size": len(report.front),
        "front": _front_json(report.front),
    }
    if first and report.first_solution is not None:
        cost, schedule, at = report.first_solution
        data["first_solution"] = {
            "area": cost.area_total,
            "power": cost.power,
            "elapsed": at,
            "schedule": _schedule_json(schedule),
        }
    return data


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
        Path(args.json).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK if completed else EXIT_TIME_LIMIT


# ---------------------------------------------------------------------------
# subcommands


def cmd_pareto(args: argparse.Namespace) -> int:
    g, lib, (timing,) = _load(args, [args.k])
    mode = ArchMode(args.mode)
    report = bb_pareto(g, timing, lib, SearchConfig(mode, _make_budget(args, lib), args.time_limit))
    _print_front(
        f"{g.name}: mode={mode.value} k={args.k} latency_bound={timing.latency_bound} "
        f"front={len(report.front)} expanded={report.nodes_expanded} "
        f"elapsed={report.elapsed:.3f}s"
        + ("" if report.completed else " [time limit hit, front is partial]"),
        report.front,
        lib.op_types(),
    )
    data = {
        "command": "pareto",
        "dfg": g.name,
        "mode": mode.value,
        "k": args.k,
        "latency_bound": timing.latency_bound,
        **_report_json(report, args.emit_first),
    }
    table = _front_csv(lib.op_types(), [(mode, report.front)], timing.critical_length)
    return _emit(args, data, table, report.completed)


def cmd_compare(args: argparse.Namespace) -> int:
    g, lib, (timing,) = _load(args, [args.k])
    budget = _make_budget(args, lib)
    reports = {
        mode: bb_pareto(g, timing, lib, SearchConfig(mode, budget, args.time_limit))
        for mode in MODE_ORDER
    }
    for mode, rep in reports.items():
        tag = "" if rep.completed else " [partial]"
        title = f"{g.name}: mode={mode.value} front={len(rep.front)}{tag}"
        _print_front(title, rep.front, lib.op_types())

    multi = reports[ArchMode.MULTI_VDD].front
    covered = sum(reports[ArchMode.FGDVS].front.covers(e.cost) for e in multi)
    pct = 100.0 * covered / len(multi) if multi else 100.0
    print(
        f"coverage: fgdvs matches or beats {covered}/{len(multi)} "
        f"multi-vdd points ({pct:.1f}%)"
    )
    data = {
        "command": "compare",
        "dfg": g.name,
        "k": args.k,
        "latency_bound": timing.latency_bound,
        "coverage": {
            "multi_points": len(multi),
            "covered_by_fgdvs": covered,
            "percent": pct,
        },
        "runs": {m.value: _report_json(rep) for m, rep in reports.items()},
    }
    fronts = [(m, rep.front) for m, rep in reports.items()]
    table = _front_csv(lib.op_types(), fronts, timing.critical_length)
    return _emit(args, data, table, all(rep.completed for rep in reports.values()))


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.k_max < 0:
        raise ValueError(f"--k-max must be >= 0, got {args.k_max}")
    g, lib, timings = _load(args, range(args.k_max + 1))
    mode = ArchMode(args.mode)
    budget = _make_budget(args, lib)
    runs = [(t, bb_pareto(g, t, lib, SearchConfig(mode, budget, args.time_limit))) for t in timings]

    # One summary row per slack: the front's area and power extremes.  The
    # optional merged front over (latency, area, power) takes every point in
    # slack order, so a tie keeps the smallest-k entry.
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
    merged = ParetoSet(("latency", "area_total", "power"))
    for t, rep in runs:
        tag = "" if rep.completed else " [partial]"
        _print_front(
            f"{g.name}: mode={mode.value} k={t.slack} latency_bound={t.latency_bound} "
            f"front={len(rep.front)}{tag}",
            rep.front,
            lib.op_types(),
        )
        pts = rep.front.cost_points()
        extremes = ["", "", "", ""]
        if pts:
            areas, powers = zip(*pts)
            extremes = [str(min(areas)), str(max(areas)), _fmt(min(powers)), _fmt(max(powers))]
        table.append([mode.value, str(t.slack), str(t.latency_bound), str(len(pts)), *extremes])
        if args.front3:
            for entry in rep.front.sorted_entries():
                merged.insert(entry.cost, entry.schedule)

    data = {
        "command": "sweep",
        "dfg": g.name,
        "mode": mode.value,
        "k_max": args.k_max,
        "runs": [
            {"k": t.slack, "latency_bound": t.latency_bound, **_report_json(rep)}
            for t, rep in runs
        ],
    }
    if args.front3:
        critical = timings[0].critical_length
        path = args.front3
        if path is True:  # no path given: next to --out, if any
            path = args.out and str(Path(args.out).with_suffix(".front3.csv"))
        if path:
            _write_csv(path, _front_csv(lib.op_types(), [(mode, merged)], critical))
        print(f"merged latency/area/power front: {len(merged)} points")
        data["front3"] = [
            {
                "k": e.cost.latency - critical,
                "latency": e.cost.latency,
                "area": e.cost.area_total,
                "power": e.cost.power,
                "schedule": _schedule_json(e.schedule),
            }
            for e in merged.sorted_entries()
        ]
    return _emit(args, data, table, all(rep.completed for _t, rep in runs))


def cmd_budget(args: argparse.Namespace) -> int:
    g, lib, (timing,) = _load(args, [args.k])
    mode = ArchMode(args.mode)
    budget = _make_budget(args, lib)
    base = {
        "command": "budget",
        "dfg": g.name,
        "mode": mode.value,
        "k": args.k,
        "algorithm": args.algorithm,
    }

    if args.algorithm == "bb":
        report = bb_pareto(g, timing, lib, SearchConfig(mode, budget, args.time_limit))
        tag = "" if report.completed else " [partial]"
        title = f"{g.name}: budget-constrained front, {len(report.front)} points{tag}"
        _print_front(title, report.front, lib.op_types())
        return _emit(args, {**base, **_report_json(report)}, completed=report.completed)

    if args.algorithm == "list":
        t0 = time.perf_counter()
        schedule = list_schedule(g, timing, lib, mode, budget, Priority(args.priority))
        elapsed = time.perf_counter() - t0
        if schedule is None:
            print(f"{g.name}: INFEASIBLE ({elapsed:.4f}s, priority={args.priority})")
            return _emit(args, {**base, "feasible": False, "elapsed": elapsed})
        cost = schedule_cost(g, schedule, lib, mode, timing.latency_bound)
    else:  # bb-first
        cfg = SearchConfig(mode=mode, budget=budget, time_limit=args.time_limit)
        report = bb_first(g, timing, lib, cfg)
        base.update(completed=report.completed, **_counters_json(report))
        if report.first_solution is None:
            if not report.completed:
                print("no schedule found before the time limit", file=sys.stderr)
                return _emit(args, {**base, "elapsed": report.elapsed}, completed=False)
            print(f"{g.name}: NONE")
            return _emit(args, {**base, "feasible": False})
        cost, schedule, elapsed = report.first_solution
    print(
        f"{g.name}: ({cost.area_total}, {_fmt(cost.power)}) "
        f"{elapsed:.4f}s ({args.algorithm})"
    )
    for v in sorted(schedule):
        t, d = schedule[v]
        print(f"  node {v} ({g.nodes[v]}): start={t} cycles={d}")
    data = {
        **base,
        "feasible": True,
        "area": cost.area_total,
        "power": cost.power,
        "elapsed": elapsed,
        "schedule": _schedule_json(schedule),
    }
    return _emit(args, data)


def cmd_oracle(args: argparse.Namespace) -> int:
    g, lib, (timing,) = _load(args, [args.k])
    mode = ArchMode(args.mode)
    bound = EnumerationBound(max_nodes=args.max_nodes, max_states=args.max_states)
    front = oracle_front(g, timing, lib, mode, _make_budget(args, lib), bound)
    _print_front(
        f"{g.name}: oracle mode={mode.value} k={args.k} "
        f"latency_bound={timing.latency_bound} front={len(front)}",
        front,
        lib.op_types(),
    )
    data = {
        "command": "oracle",
        "dfg": g.name,
        "mode": mode.value,
        "k": args.k,
        "latency_bound": timing.latency_bound,
        "front_size": len(front),
        "front": _front_json(front),
    }
    table = _front_csv(lib.op_types(), [(mode, front)], timing.critical_length)
    return _emit(args, data, table)


def _parse_schedule_file(path: str) -> list[Schedule]:
    """Read one schedule, or every schedule in a sidecar JSON."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if not data.keys() & {"front", "runs", "schedule"}:
        return [_coerce_schedule(data)]
    runs = data.get("runs") or []
    if isinstance(runs, dict):  # compare keys its runs by mode; sweep lists them
        runs = list(runs.values())
    try:
        fronts = [data.get("front", [])] + [run.get("front", []) for run in runs]
        schedules = [_coerce_schedule(item["schedule"]) for front in fronts for item in front]
    except (AttributeError, TypeError, KeyError):
        raise ValueError(f"{path}: runs and fronts must hold objects with a schedule") from None
    if "schedule" in data:
        schedules.append(_coerce_schedule(data["schedule"]))
    if not schedules:
        raise ValueError(f"{path}: no schedules found")
    return schedules


def _coerce_schedule(raw: object) -> Schedule:
    if not isinstance(raw, dict):
        raise ValueError(f"expected a schedule object, got {raw!r}")
    sched: Schedule = {}
    for key, val in raw.items():
        if not (isinstance(val, list) and len(val) == 2 and all(type(x) is int for x in val)):
            raise ValueError(f"node {key}: expected [start, cycles], got {val!r}")
        sched[int(key)] = (val[0], val[1])
    return sched


def cmd_validate(args: argparse.Namespace) -> int:
    g, lib, (timing,) = _load(args, [args.k])
    mode = ArchMode(args.mode)
    schedules = _parse_schedule_file(args.schedule)

    allowed = lib.pricing(mode).durations()
    failures = 0
    for idx, schedule in enumerate(schedules):
        label = f"schedule {idx + 1}/{len(schedules)}"
        violation = validate_schedule(g, timing, schedule, allowed)
        if violation is not None:
            failures += 1
            print(f"{label}: INVALID [{violation.rule}] {violation.message}")
            continue
        cost = schedule_cost(g, schedule, lib, mode, timing.latency_bound)
        print(
            f"{label}: ok area={cost.area_total} power={_fmt(cost.power)} "
            f"(dyn={_fmt(cost.dynamic)} leak={_fmt(cost.leakage)} "
            f"sw={_fmt(cost.switching)})"
        )
    if failures:
        print(f"{failures}/{len(schedules)} schedules failed validation")
        return EXIT_INPUT
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, *, mode: bool = True) -> None:
    p.add_argument("--dfg", required=True, help="data-flow graph file")
    p.add_argument("--lib", required=True, help="resource library file")
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

    p = sub.add_parser("sweep", help="fronts across slack values 0..k-max")
    _add_common(p)
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
