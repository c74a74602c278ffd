"""Depth-first branch-and-bound over (start, duration) assignments.

Nodes are assigned in topological order; starts ascend from the earliest
precedence-feasible step and durations are tried fastest-first.  A branch
is cut when a lower bound on every completion of the current prefix
already violates the budget or is dominated-or-equalled by a completed
solution on the archive.  The bound is the running prefix cost plus what
the unplaced suffix must still pay: each remaining op's cheapest energy
among levels that fit the op's window, and one unit (with its always-on
leakage, outside FGDVS) for each op type that is still to come but has
none allocated yet.

The prefix power counts dynamic and leakage only.  The FGDVS switching
overhead of a completed schedule is *not* monotone in its prefixes (a
later op can raise the unit count and let an earlier op bind switch-free),
so including it would over-prune; it is charged only on complete
schedules, whose exact cost is recomputed with the shared cost functions
before archiving.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .dfg import Dfg, Schedule, TimingInfo, topological_order
from .listsched import Priority, list_schedule
from .power import (
    POWER_EPS,
    ArchMode,
    Budget,
    CostTuple,
    ParetoSet,
    ResourceLibrary,
    schedule_cost,
)


@dataclass
class SearchConfig:
    mode: ArchMode
    budget: Budget = field(default_factory=Budget)
    time_limit: float | None = None  # seconds; None = unbounded
    emit_first_solution: bool = False
    prune_dominance: bool = True
    debug_check: bool = False  # cross-check incremental costs at every leaf

    def __post_init__(self) -> None:
        if self.time_limit is not None and not self.time_limit > 0:  # also NaN
            raise ValueError("time_limit must be positive")


FirstSolution = tuple[CostTuple, Schedule, float]


@dataclass
class SearchReport:
    front: ParetoSet
    first_solution: FirstSolution | None
    nodes_expanded: int
    budget_prunes: int
    dominance_prunes: int
    completed: bool
    elapsed: float


class _TimeUp(Exception):
    pass


class _StopSearch(Exception):
    pass


def _run(
    g: Dfg,
    timing: TimingInfo,
    lib: ResourceLibrary,
    cfg: SearchConfig,
    stop_after_first: bool,
) -> SearchReport:
    order = topological_order(g)
    n = len(order)
    bound = timing.latency_bound
    mode = cfg.mode
    multi = mode is ArchMode.MULTI_VDD
    fgdvs = mode is ArchMode.FGDVS

    type_names = sorted({g.nodes[v] for v in order})
    type_idx = {op: i for i, op in enumerate(type_names)}
    max_levels = max((len(lib.levels(op)) for op in type_names), default=1)

    pos = {v: i for i, v in enumerate(order)}
    parents = [tuple(pos[u] for u in g.preds[v]) for v in order]
    asap_a = [timing.asap[v] for v in order]
    alap_a = [timing.alap[v] for v in order]

    # Per node: (duration, key, dyn+leak prefix energy) fastest-first, for
    # the levels whose duration fits the node's window; no placement can
    # use a longer one.  The prefix energy folds per-op leakage in under
    # FGDVS; always-on leakage for the other modes is tracked per allocated
    # unit below.
    options: list[tuple[tuple[int, int, float], ...]] = []
    for i, v in enumerate(order):
        op = g.nodes[v]
        ti = type_idx[op]
        levels = lib.levels(op)
        if mode is ArchMode.SINGLE_VDD:
            levels = levels[:1]
        window = alap_a[i] - asap_a[i] + 1
        opts = []
        for li, lvl in enumerate(levels):
            if lvl.cycles > window:
                break  # cycles ascend; no later level fits either
            key = ti * max_levels + li if multi else ti
            energy = lvl.p_dyn * lvl.cycles
            if fgdvs:
                energy += lvl.p_lk * lvl.cycles
            opts.append((lvl.cycles, key, energy))
        options.append(tuple(opts))
    if not all(options):
        # Some node's window is shorter than its fastest level: no schedule
        # exists, so the search is complete before it starts.
        return SearchReport(ParetoSet(), None, 0, 0, 0, completed=True, elapsed=0.0)

    n_keys = len(type_names) * max_levels if multi else len(type_names)
    key_type = [k // max_levels if multi else k for k in range(n_keys)]
    # Always-on leakage per extra allocated unit, by key (non-FGDVS modes).
    unit_leak = [0.0] * n_keys
    if not fgdvs:
        for op in type_names:
            ti = type_idx[op]
            if multi:
                for li, lvl in enumerate(lib.levels(op)):
                    unit_leak[ti * max_levels + li] = lvl.p_lk * bound
            else:
                unit_leak[ti] = lib.fastest(op).p_lk * bound

    caps: list[int] | None = None
    if cfg.budget.area_caps is not None:
        caps = [cfg.budget.area_caps.get(op, n) for op in type_names]
    power_cap = cfg.budget.power_cap

    # Suffix lower bounds: every node still unplaced at position i will pay
    # at least its cheapest per-op energy, and every op type that appears
    # from position i on but has no unit yet will allocate at least one
    # (costing its always-on leakage for the whole horizon outside FGDVS).
    suffix_energy = [0.0] * (n + 1)
    pending_mask = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_energy[i] = suffix_energy[i + 1] + min(e for _d, _k, e in options[i])
        pending_mask[i] = pending_mask[i + 1] | (1 << type_idx[g.nodes[order[i]]])
    forced_leak = [0.0] * len(type_names)
    if not fgdvs:
        for op in type_names:
            levels = lib.levels(op)
            if mode is ArchMode.SINGLE_VDD:
                levels = levels[:1]
            forced_leak[type_idx[op]] = min(lvl.p_lk for lvl in levels) * bound
    n_types = len(type_names)

    hist = [[0] * (bound + 2) for _ in range(n_keys)]
    cur_max = [0] * n_keys
    type_area = [0] * len(type_names)
    starts = [0] * n
    durs = [0] * n

    front = ParetoSet()
    archive_pts: list[tuple[int, float]] = []
    expanded = budget_prunes = dominance_prunes = 0
    cur_area, cur_power = 0, 0.0  # the placed prefix's area and dyn+leak power
    first: FirstSolution | None = None
    prune_dom = cfg.prune_dominance
    deadline = None
    t0 = time.perf_counter()
    if cfg.time_limit is not None:
        deadline = t0 + cfg.time_limit

    def handle_leaf() -> None:
        nonlocal first
        sched: Schedule = {order[j]: (starts[j], durs[j]) for j in range(n)}
        cost = schedule_cost(g, sched, lib, mode, bound)
        if cfg.debug_check:
            assert cost.area_total == cur_area, sched
            assert abs((cost.dynamic + cost.leakage) - cur_power) < 1e-6, sched
            for op, count in cost.area_by_type.items():
                assert type_area[type_idx[op]] == count, sched
        if not cfg.budget.allows(cost.area_by_type, cost.power):
            return
        if first is None:
            first = (cost, sched, time.perf_counter() - t0)
            if stop_after_first:
                raise _StopSearch
        if front.insert(cost, sched):
            archive_pts.clear()
            archive_pts.extend(
                (e.cost.area_total, e.cost.power) for e in front.entries
            )

    def rec(i: int) -> None:
        nonlocal expanded, budget_prunes, dominance_prunes, cur_area, cur_power
        if deadline is not None and time.perf_counter() > deadline:
            raise _TimeUp
        if i == n:
            handle_leaf()
            return
        earliest = asap_a[i]
        for p in parents[i]:
            end = starts[p] + durs[p]
            if end > earliest:
                earliest = end
        latest = alap_a[i]
        for t in range(earliest, latest + 1):
            room = latest - t + 1
            for dur, key, energy in options[i]:
                if dur > room:
                    break  # durations ascend; nothing later fits either
                # Place.
                row = hist[key]
                old_max = cur_max[key]
                peak = old_max
                for step in range(t, t + dur):
                    row[step] += 1
                    if row[step] > peak:
                        peak = row[step]
                old_area = cur_area
                old_power = cur_power
                ti = key_type[key]
                old_type_area = type_area[ti]
                if peak > old_max:
                    grew = peak - old_max
                    cur_max[key] = peak
                    type_area[ti] += grew
                    cur_area = old_area + grew
                    cur_power = old_power + energy + unit_leak[key] * grew
                else:
                    cur_power = old_power + energy
                starts[i] = t
                durs[i] = dur
                expanded += 1
                # Prune or descend: bound what any completion must cost.
                pending = pending_mask[i + 1]
                lb_area = cur_area
                lb_power = cur_power + suffix_energy[i + 1]
                forced_infeasible = False
                for tj in range(n_types):
                    if pending >> tj & 1 and type_area[tj] == 0:
                        lb_area += 1
                        lb_power += forced_leak[tj]
                        if caps is not None and caps[tj] < 1:
                            forced_infeasible = True
                pruned = False
                if caps is not None and (type_area[ti] > caps[ti] or forced_infeasible):
                    budget_prunes += 1
                    pruned = True
                elif power_cap is not None and lb_power > power_cap + POWER_EPS:
                    budget_prunes += 1
                    pruned = True
                elif prune_dom:
                    # front.covers on the bound, inlined: this runs on every expansion.
                    for am, pm in archive_pts:
                        if am <= lb_area and pm <= lb_power + POWER_EPS:
                            dominance_prunes += 1
                            pruned = True
                            break
                if not pruned:
                    rec(i + 1)
                # Undo.
                for step in range(t, t + dur):
                    row[step] -= 1
                cur_max[key] = old_max
                type_area[ti] = old_type_area
                cur_area = old_area
                cur_power = old_power

    if not stop_after_first and not cfg.emit_first_solution:
        # Seed the archive with the two list-scheduling extremes so the
        # dominance prune has cover at both ends of the front from the
        # start.  Seeds are ordinary feasible schedules: anything they
        # prune is dominated-or-equalled by a real solution, and they are
        # themselves displaced later if the search beats them.  Skipped
        # when the caller wants the first solution: a seed could prune
        # the exact leaf the search would otherwise report first.
        for pr in (Priority.MAX_DURATION, Priority.MIN_DURATION):
            seed = list_schedule(g, timing, lib, mode, cfg.budget, pr)
            if seed is not None:
                cost = schedule_cost(g, seed, lib, mode, bound)
                if cfg.budget.allows(cost.area_by_type, cost.power):
                    front.insert(cost, seed)
        archive_pts.extend((e.cost.area_total, e.cost.power) for e in front.entries)

    completed = True
    try:
        rec(0)
    except _TimeUp:
        completed = False
    except _StopSearch:
        pass
    elapsed = time.perf_counter() - t0
    return SearchReport(
        front=front,
        first_solution=first if (cfg.emit_first_solution or stop_after_first) else None,
        nodes_expanded=expanded,
        budget_prunes=budget_prunes,
        dominance_prunes=dominance_prunes,
        completed=completed,
        elapsed=elapsed,
    )


def bb_pareto(
    g: Dfg, timing: TimingInfo, lib: ResourceLibrary, cfg: SearchConfig
) -> SearchReport:
    """Exhaust the assignment tree; the front is exact when completed=True.

    With a time limit the search may stop early (completed=False); the
    returned front is then a valid non-dominated set of the solutions seen
    so far.  first_solution is filled when emit_first_solution is set; it is
    the first budget-satisfying schedule encountered, which need not end up
    on the final front.
    """
    return _run(g, timing, lib, cfg, stop_after_first=False)


def bb_first(
    g: Dfg, timing: TimingInfo, lib: ResourceLibrary, cfg: SearchConfig
) -> SearchReport:
    """Stop at the first budget-satisfying schedule.

    The report's first_solution holds it, or None when there is none; a
    None with completed=False means the time limit hit first, so nothing
    is known.  The front stays empty.  Runs the same depth-first search as
    bb_pareto and therefore visits candidates in the same order, so the
    result matches bb_pareto's first_solution on the same instance.
    """
    cfg = replace(cfg, emit_first_solution=True)
    return _run(g, timing, lib, cfg, stop_after_first=True)
