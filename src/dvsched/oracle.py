"""Brute-force schedule enumeration for cross-checking the search engine.

Enumeration walks nodes in ascending id order (not topological order) and
tests precedence edges directly against already-assigned endpoints, so it
shares no traversal or pruning machinery with the branch-and-bound engine;
only the cost functions are common.  Instances above the configured size
cap are refused outright rather than served slowly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .dfg import Dfg, Schedule, TimingInfo
from .power import ArchMode, Budget, ParetoSet, ResourceLibrary, schedule_cost


@dataclass(frozen=True)
class EnumerationBound:
    max_nodes: int = 8
    max_states: int = 10_000_000


class StateSpaceTooLarge(ValueError):
    """Instance exceeds the enumeration caps; carries the size estimate."""

    def __init__(self, nodes: int, estimate: int, bound: EnumerationBound):
        super().__init__(
            f"enumeration refused: {nodes} nodes, ~{estimate} assignment "
            f"combinations (caps: {bound.max_nodes} nodes, {bound.max_states} states)"
        )
        self.nodes = nodes
        self.estimate = estimate
        self.bound = bound


def state_space_estimate(
    g: Dfg,
    timing: TimingInfo,
    lib: ResourceLibrary,
    durations: dict[str, frozenset[int]] | None = None,
) -> int:
    """Product over nodes of (mobility + 1) * duration count.

    An upper bound on the number of complete assignments: each node has at
    most (mobility + 1) starts and one choice per duration its type may
    take, by default every library level's.
    """
    if durations is None:
        durations = lib.pricing(ArchMode.FGDVS).durations()
    estimate = 1
    for v, op in g.nodes.items():
        lib.levels(op)  # raises LibraryError for a type not in the library
        estimate *= (timing.mobility[v] + 1) * len(durations[op])
    return estimate


def enumerate_schedules(
    g: Dfg,
    timing: TimingInfo,
    lib: ResourceLibrary,
    bound: EnumerationBound = EnumerationBound(),
    durations: dict[str, frozenset[int]] | None = None,
) -> Iterator[Schedule]:
    """Yield every valid complete schedule exactly once (streaming).

    Validity matches validate_schedule: starts within [asap, alap] windows,
    durations are in ``durations`` (by default every library level's cycle
    count) and fit the window, and every edge's target starts after its
    source completes.
    """
    if durations is None:
        durations = lib.pricing(ArchMode.FGDVS).durations()
    estimate = state_space_estimate(g, timing, lib, durations)
    if len(g.nodes) > bound.max_nodes or estimate > bound.max_states:
        raise StateSpaceTooLarge(len(g.nodes), estimate, bound)

    ids = sorted(g.nodes)
    pos = {nid: i for i, nid in enumerate(ids)}
    options: list[list[tuple[int, int]]] = []
    for nid in ids:
        window: list[tuple[int, int]] = []
        for start in range(timing.asap[nid], timing.alap[nid] + 1):
            for dur in durations[g.nodes[nid]]:
                if start + dur - 1 <= timing.alap[nid]:
                    window.append((start, dur))
        options.append(sorted(window))
    # Edges whose other endpoint is already assigned when node i is placed.
    incoming: list[list[int]] = [[] for _ in ids]  # earlier node -> this one
    outgoing: list[list[int]] = [[] for _ in ids]  # this one -> earlier node
    for u, v in g.edges:
        if pos[u] < pos[v]:
            incoming[pos[v]].append(pos[u])
        else:
            outgoing[pos[u]].append(pos[v])

    assign: list[tuple[int, int]] = [(0, 0)] * len(ids)

    def feasible(i: int, start: int, dur: int) -> bool:
        for j in incoming[i]:
            sj, dj = assign[j]
            if start < sj + dj:
                return False
        for j in outgoing[i]:
            sj, _ = assign[j]
            if sj < start + dur:
                return False
        return True

    def walk(i: int) -> Iterator[Schedule]:
        if i == len(ids):
            yield {nid: assign[pos[nid]] for nid in ids}
            return
        for start, dur in options[i]:
            if feasible(i, start, dur):
                assign[i] = (start, dur)
                yield from walk(i + 1)
        assign[i] = (0, 0)

    return walk(0)


def oracle_front(
    g: Dfg,
    timing: TimingInfo,
    lib: ResourceLibrary,
    mode: ArchMode,
    budget: Budget = Budget(),
    bound: EnumerationBound = EnumerationBound(),
) -> ParetoSet:
    """Exact pareto front by exhaustive enumeration and folding.

    Only the durations the mode may use are enumerated (under SINGLE_VDD,
    level 0's), and the size caps apply to that space.
    """
    front = ParetoSet()
    durations = lib.pricing(mode).durations()
    for schedule in enumerate_schedules(g, timing, lib, bound, durations):
        cost = schedule_cost(g, schedule, lib, mode, timing.latency_bound)
        if budget.allows(cost.area_by_type, cost.power):
            front.insert(cost, schedule)
    return front
