"""Greedy extended list scheduling with duration selection under a budget.

The scheduler is deliberately incomplete: every node is placed at its
earliest precedence-feasible step, durations are chosen greedily by the
given priority, and there is no deferral or backtracking.  Infeasibility is
therefore a value (None), not a fault; the exhaustive search in
:mod:`dvsched.bb` may still find a schedule where this one gives up.
"""

from __future__ import annotations

from enum import Enum

from .dfg import Dfg, Schedule, TimingInfo
from .power import ArchMode, Budget, CostState, ResourceLibrary
# Not called here.  bench/layers.py wraps ``listsched.schedule_cost`` by
# name to count the list scheduler's costings, so the name stays.
from .power import schedule_cost  # noqa: F401


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
    the unit-duration ASAP schedule.  Under a budget, a ``CostState`` probes
    the prefix with the candidate, which is placed only if the budget
    accepts it; with no budget nothing is priced.  A probe costs what the
    candidate changes, so outside FGDVS the pass is linear in the graph
    size; under FGDVS a probe also binds the ops of the candidate's type
    after it in (start, node id) order again.
    """
    price = lib.pricing(mode)
    prefix = None if budget.unconstrained else CostState(price, timing.latency_bound)
    schedule: Schedule = {}
    for v in g.order:
        earliest = timing.asap[v]
        for u in g.preds[v]:
            su, du = schedule[u]
            earliest = max(earliest, su + du)
        op = g.nodes[v]
        rows = price.rows(op)
        for dur in sorted(rows, reverse=priority is Priority.MAX_DURATION):
            if earliest + dur - 1 > timing.alap[v]:
                continue
            if prefix is None:
                break
            cost = prefix.probe(v, op, earliest, rows[dur])
            if budget.allows(cost.area_by_type, cost.power):
                prefix.place()
                break
        else:
            return None
        schedule[v] = (earliest, dur)
    return schedule
