"""Data-flow graphs: parsing, ordering, and latency-window timing.

DFG file format (line oriented, ``#`` starts a comment):

    name <identifier>
    node <id:int> <optype:word>
    edge <src:int> -> <dst:int>

The ``name`` line must come first.  Node and edge lines may appear in any
order afterwards, and node ids need not be contiguous.

Control steps are 1-indexed throughout.  A node scheduled at start ``t``
with duration ``d`` occupies steps ``t .. t+d-1`` inclusive.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

Schedule = dict[int, tuple[int, int]]
"""Maps node id -> (start step, duration in c-steps)."""


class DfgError(ValueError):
    """Structurally invalid graph or malformed DFG document."""


class DfgParseError(DfgError):
    """Malformed DFG text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CycleError(DfgError):
    """The edge set contains a directed cycle; ``cycle`` lists one."""

    def __init__(self, cycle: list[int]):
        super().__init__(
            "cycle detected: " + " -> ".join(str(v) for v in cycle)
        )
        self.cycle = list(cycle)


@dataclass
class Dfg:
    """A named DAG of typed operator nodes.  Treat as immutable."""

    name: str
    nodes: dict[int, str]  # node id -> op type
    edges: tuple[tuple[int, int], ...]
    preds: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    succs: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    # The topological order, computed once; topological_order(g) copies it.
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.edges = tuple(tuple(e) for e in self.edges)
        preds: dict[int, set[int]] = {v: set() for v in self.nodes}
        succs: dict[int, set[int]] = {v: set() for v in self.nodes}
        for u, v in self.edges:
            if u not in self.nodes:
                raise DfgError(f"edge ({u}, {v}): unknown source node {u}")
            if v not in self.nodes:
                raise DfgError(f"edge ({u}, {v}): unknown target node {v}")
            if u == v:
                raise CycleError([u, u])
            succs[u].add(v)
            preds[v].add(u)
        self.preds = {v: tuple(sorted(preds[v])) for v in self.nodes}
        self.succs = {v: tuple(sorted(succs[v])) for v in self.nodes}
        self.order = _kahn_order(self)
        _find_cycle(self)  # raises CycleError on any directed cycle

    def __len__(self) -> int:
        return len(self.nodes)


def _find_cycle(g: Dfg) -> None:
    # The nodes a topological order cannot reach are those on or after a
    # cycle, whatever the order pops.
    leftover = set(g.nodes).difference(g.order)
    if not leftover:
        return
    # Walk successors inside the leftover set until a node repeats.
    v = min(leftover)
    trail: list[int] = []
    pos: dict[int, int] = {}
    while v not in pos:
        pos[v] = len(trail)
        trail.append(v)
        v = min(w for w in g.succs[v] if w in leftover)
    raise CycleError(trail[pos[v]:] + [v])


def parse_dfg(text: str) -> Dfg:
    """Parse DFG text into a validated graph.

    Raises DfgParseError for malformed lines, duplicate node ids, or
    dangling edge endpoints, and CycleError if the edges form a cycle.
    """
    name: str | None = None
    nodes: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if name is None:
            if kind != "name" or len(fields) != 2:
                raise DfgParseError(line_no, "expected 'name <identifier>' first")
            name = fields[1]
            continue
        if kind == "name":
            raise DfgParseError(line_no, "duplicate name line")
        if kind == "node":
            if len(fields) != 3:
                raise DfgParseError(line_no, "expected 'node <id> <optype>'")
            try:
                nid = int(fields[1])
            except ValueError:
                raise DfgParseError(line_no, f"node id {fields[1]!r} is not an integer") from None
            if nid in nodes:
                raise DfgParseError(line_no, f"duplicate node id {nid}")
            nodes[nid] = fields[2]
        elif kind == "edge":
            if len(fields) != 4 or fields[2] != "->":
                raise DfgParseError(line_no, "expected 'edge <src> -> <dst>'")
            try:
                u, v = int(fields[1]), int(fields[3])
            except ValueError:
                raise DfgParseError(line_no, "edge endpoints must be integers") from None
            edges.append((u, v))
            edge_lines.append(line_no)
        else:
            raise DfgParseError(line_no, f"unknown directive {kind!r}")

    if name is None:
        raise DfgParseError(1, "empty document; expected 'name <identifier>'")
    for (u, v), line_no in zip(edges, edge_lines):
        if u not in nodes:
            raise DfgParseError(line_no, f"edge references unknown node {u}")
        if v not in nodes:
            raise DfgParseError(line_no, f"edge references unknown node {v}")
    return Dfg(name=name, nodes=nodes, edges=tuple(edges))


def topological_order(g: Dfg) -> list[int]:
    """Topological order of node ids, ties broken by ascending id.

    Deterministic, and invariant under permutation of the edge list.  The
    graph computes it once, as ``g.order``; this returns a copy.
    """
    return list(g.order)


def _kahn_order(g: Dfg) -> tuple[int, ...]:
    # Kahn's algorithm with a min-heap of ready ids; a node on or after a
    # cycle never becomes ready, so it is left out.
    indeg = {v: len(g.preds[v]) for v in g.nodes}
    ready = [v for v, d in sorted(indeg.items()) if d == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        out.append(v)
        for w in g.succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return tuple(out)


@dataclass
class TimingInfo:
    """Unit-duration scheduling windows for one latency bound."""

    asap: dict[int, int]
    alap: dict[int, int]
    mobility: dict[int, int]
    critical_length: int
    slack: int
    latency_bound: int  # critical_length + slack


def compute_timing(g: Dfg, slack: int = 0) -> TimingInfo:
    """ASAP/ALAP starts under unit durations for bound T = critical + slack.

    ALAP(v) is the latest *start* step a unit-duration schedule allows, so a
    node may run past its ALAP start only as far as its duration admits:
    feasibility of (t, d) means t >= asap(v) and t + d - 1 <= alap(v).
    """
    if slack < 0:
        raise ValueError(f"slack must be >= 0, got {slack}")
    order = g.order
    asap: dict[int, int] = {}
    for v in order:
        ps = g.preds[v]
        asap[v] = 1 if not ps else 1 + max(asap[u] for u in ps)
    critical = max(asap.values(), default=0)
    bound = critical + slack
    alap: dict[int, int] = {}
    for v in reversed(order):
        ss = g.succs[v]
        alap[v] = bound if not ss else min(alap[w] for w in ss) - 1
    mobility = {v: alap[v] - asap[v] for v in g.nodes}
    return TimingInfo(
        asap=asap,
        alap=alap,
        mobility=mobility,
        critical_length=critical,
        slack=slack,
        latency_bound=bound,
    )


@dataclass(frozen=True)
class Violation:
    """First scheduling rule broken by a schedule, for diagnostics."""

    rule: str
    message: str
    node: int | None = None
    edge: tuple[int, int] | None = None

    def __str__(self) -> str:
        return self.message


def validate_schedule(
    g: Dfg,
    timing: TimingInfo,
    schedule: Schedule,
    allowed_durations: dict[str, frozenset[int]] | None = None,
) -> Violation | None:
    """Check a complete schedule against window, precedence and latency rules.

    Returns None if the schedule is valid, else a Violation describing the
    first failure (nodes in ascending id order, then edges, then the latency
    bound).  When ``allowed_durations`` is given, each node's duration must
    be one of the listed cycle counts for its op type.

    Raises ValueError if ``schedule`` mentions unknown ids or misses nodes.
    """
    for nid in schedule:
        if nid not in g.nodes:
            raise ValueError(f"schedule assigns unknown node id {nid}")
    for nid in g.nodes:
        if nid not in schedule:
            raise ValueError(f"schedule is missing node {nid}")

    for v in sorted(g.nodes):
        start, dur = schedule[v]
        if start < timing.asap[v]:
            return Violation(
                rule="start-window",
                node=v,
                message=f"node {v}: start {start} is before its earliest step {timing.asap[v]}",
            )
        if dur < 1:
            return Violation(
                rule="duration",
                node=v,
                message=f"node {v}: duration {dur} is not >= 1",
            )
        if allowed_durations is not None:
            ok = allowed_durations.get(g.nodes[v])
            if ok is None or dur not in ok:
                return Violation(
                    rule="duration",
                    node=v,
                    message=f"node {v}: duration {dur} is not an allowed cycle count for {g.nodes[v]!r}",
                )
        if start + dur - 1 > timing.alap[v]:
            return Violation(
                rule="deadline",
                node=v,
                message=(
                    f"node {v}: completes at {start + dur - 1}, "
                    f"after its latest allowed step {timing.alap[v]}"
                ),
            )
    for u, v in sorted(set(g.edges)):
        su, du = schedule[u]
        sv, _ = schedule[v]
        if sv < su + du:
            return Violation(
                rule="precedence",
                edge=(u, v),
                message=f"edge ({u}, {v}): node {v} starts at {sv} before {u} completes at {su + du - 1}",
            )
    for v in sorted(g.nodes):
        start, dur = schedule[v]
        if start + dur - 1 > timing.latency_bound:
            return Violation(
                rule="latency",
                node=v,
                message=f"node {v}: completes at {start + dur - 1}, after the latency bound {timing.latency_bound}",
            )
    return None
