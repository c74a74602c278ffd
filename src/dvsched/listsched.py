"""Greedy extended list scheduling with duration selection under a budget.

The scheduler is deliberately incomplete: every node is placed at its
earliest precedence-feasible step, durations are chosen greedily by the
given priority, and there is no deferral or backtracking.  Infeasibility is
therefore a value (None), not a fault; the exhaustive search in
:mod:`dvsched.bb` may still find a schedule where this one gives up.
"""

from __future__ import annotations

from enum import Enum

from .dfg import Dfg, Schedule, TimingInfo, topological_order
from .power import ArchMode, Budget, ResourceLibrary, schedule_cost


class Priority(Enum):
    MAX_DURATION = "max-duration"
    MIN_DURATION = "min-duration"


def list_schedule(
    g: Dfg,
    timing: TimingInfo,
    lib: ResourceLibrary,
    mode: ArchMode,
    budget: Budget = Budget(),
    priority: Priority = Priority.MIN_DURATION,
) -> Schedule | None:
    """One greedy pass in topological order; None when it gets stuck.

    Each node starts as early as precedence allows and takes the largest
    (MAX_DURATION) or smallest (MIN_DURATION) cycle count the mode may use
    that both meets its deadline window and keeps the running prefix cost
    within the budget.  With no budget and MIN_DURATION this degenerates to
    the unit-duration ASAP schedule.
    """
    price = lib.pricing(mode)
    schedule: Schedule = {}
    for v in topological_order(g):
        earliest = timing.asap[v]
        for u in g.preds[v]:
            su, du = schedule[u]
            earliest = max(earliest, su + du)
        candidates = sorted(price.rows(g.nodes[v]), reverse=priority is Priority.MAX_DURATION)
        placed = False
        for dur in candidates:
            if earliest + dur - 1 > timing.alap[v]:
                continue
            schedule[v] = (earliest, dur)
            if budget.unconstrained:
                placed = True
                break
            cost = schedule_cost(g, schedule, lib, mode, timing.latency_bound)
            if budget.allows(cost.area_by_type, cost.power):
                placed = True
                break
            del schedule[v]
        if not placed:
            return None
    return schedule
