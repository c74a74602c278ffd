"""Greedy extended list scheduling with duration selection under a budget.

The scheduler is deliberately incomplete: every node is placed at its
earliest precedence-feasible step, durations are chosen greedily by the
given priority, and there is no deferral or backtracking.  Infeasibility is
therefore a value (None), not a fault; the exhaustive search in
:mod:`dvsched.bb` may still find a schedule where this one gives up.

Under a budget, each candidate duration is priced on the prefix it would
complete, from a cost state kept up to date as nodes are placed: per-kind
occupancy histograms and peaks, the area per type, the picked rows'
dynamic and per-op leak terms and, under FGDVS, each type's ops and
switch charges.  A candidate adds its row to that state and is priced by
one ``Pricing.cost`` call, the call ``schedule_cost`` ends in; its
``fsum`` sums do not depend on term order, so the cost equals
``schedule_cost``'s on the same prefix.  A candidate the budget rejects
is taken back exactly.  Only the placed node's type changes its ops and
unit count, so only that type's FGDVS charges are recomputed.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain

from .dfg import Dfg, Schedule, TimingInfo, topological_order
from .power import ArchMode, Budget, CostTuple, Pricing, ResourceLibrary, Row, switch_charges
# Not called here.  bench/layers.py wraps ``listsched.schedule_cost`` by
# name to count the list scheduler's costings, so the name stays.
from .power import schedule_cost  # noqa: F401


class Priority(Enum):
    MAX_DURATION = "max-duration"
    MIN_DURATION = "min-duration"


class _Prefix:
    """The cost state of a growing schedule prefix, with a one-step undo."""

    def __init__(self, price: Pricing, latency_bound: int):
        self.price = price
        self.bound = latency_bound
        self.busy: dict[int, list[int]] = {}  # per unit kind, the ops running per step
        self.peaks: dict[int, int] = {}  # peak concurrency per unit kind
        self.area: dict[str, int] = {}
        self.dynamic: list[float] = []
        self.leakage: list[float] = []
        # FGDVS only: per type, its ops as (start, node, cycles, p_sw) and their charges
        self.ops_by_type: dict[str, list[tuple[int, int, int, float]]] = {}
        self.charges: dict[str, list[float]] = {}
        self._last: tuple = ()

    def add(self, nid: int, op: str, start: int, row: Row) -> CostTuple:
        """Place node ``nid`` at ``start`` with ``row``; the prefix's cost."""
        cycles, kind, dyn, leak, p_sw = row
        end = start + cycles
        if end - 1 > self.bound:
            raise ValueError(
                f"schedule completes at step {end - 1}, after the latency bound {self.bound}"
            )
        steps = self.busy.get(kind)
        if steps is None:
            steps = self.busy[kind] = [0] * (self.bound + 1)
        steps[start:end] = window = [c + 1 for c in steps[start:end]]
        old_peak = self.peaks.get(kind)
        old_area = self.area.get(op)
        peak = max(window)
        if old_peak is None or peak > old_peak:
            self.peaks[kind] = peak
            self.area[op] = (old_area or 0) + peak - (old_peak or 0)
        self.dynamic.append(dyn)
        self.leakage.append(leak)
        entry = (start, nid, cycles, p_sw)
        old_charges = self.charges.get(op)
        if self.price.switching:
            ops = self.ops_by_type.setdefault(op, [])
            ops.append(entry)
            self.charges[op] = switch_charges([ops], [self.area[op]])
        self._last = (op, kind, start, end, old_peak, old_area, entry, old_charges)
        return self.price.cost(
            self.area, self.dynamic, self.leakage, self.peaks.items(),
            chain.from_iterable(self.charges.values()), self.bound,
        )

    def undo(self) -> None:
        """Take back the last ``add``."""
        op, kind, start, end, old_peak, old_area, entry, old_charges = self._last
        steps = self.busy[kind]
        steps[start:end] = [c - 1 for c in steps[start:end]]
        _restore(self.peaks, kind, old_peak)
        _restore(self.area, op, old_area)
        self.dynamic.pop()
        self.leakage.pop()
        if self.price.switching:
            self.ops_by_type[op].remove(entry)
            _restore(self.charges, op, old_charges)


def _restore(d: dict, key, old) -> None:
    if old is None:
        del d[key]
    else:
        d[key] = old


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

    With no budget nothing is priced.  Under a budget, a candidate is added
    to the prefix's running cost state and priced by one ``Pricing.cost``
    call, which gives ``schedule_cost``'s answer on that prefix without
    walking it; under FGDVS only the candidate's type has its switch charges
    recomputed.  A candidate the budget rejects is taken back.
    """
    price = lib.pricing(mode)
    prefix = None if budget.unconstrained else _Prefix(price, timing.latency_bound)
    schedule: Schedule = {}
    for v in topological_order(g):
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
            cost = prefix.add(v, op, earliest, rows[dur])
            if budget.allows(cost.area_by_type, cost.power):
                break
            prefix.undo()
        else:
            return None
        schedule[v] = (earliest, dur)
    return schedule
