"""Depth-first branch-and-bound over (start, duration) assignments.

Nodes are assigned in topological order; starts ascend from the earliest
precedence-feasible step and durations are tried fastest-first.  A branch
is cut when a lower bound on every completion of the current prefix
already violates the budget or, from the first solution on, is
dominated-or-equalled by a completed solution on the archive.  The bound
is the running prefix cost plus what the unplaced suffix must still pay:
energy charged per dependence path, and one unit (with its always-on
leakage, outside FGDVS) for each op type whose first node is still to
come.  The positions are split into disjoint paths; the ops of one path
run one after another, so together they must fit its span.  A DP over
each path's start steps, from its end, gives the least energy of every
suffix of it, tabled per position once before the walk.  The one term
that depends on the move, what the placed op's end holds back of the
rest of its own path, is read once, when the move's table is built.  The
walk is one loop over an explicit stack with an entry per placed
position, so a graph's depth is bounded by memory, not by the
interpreter's recursion limit; a time-out or, for ``bb_first``, the first
solution ends the loop.

Each expansion probes its move before placing it.  A move carries its
steps and its path-bound term from its table, and the kind's new peak is
read off its type's usage buffer over those steps, so the area-cap,
power-cap and dominance prunes, and the closing bind below, decide
without writing anything.  Only a move that survives them writes the
buffer, and only it is undone.  The dominance test is one index into a
staircase: the least power of any front member of at most each area
(``power.staircase``), rebuilt whenever a member joins the front.  Some
member is no worse than the bound exactly when the staircase at the
bound's area is within the power tolerance of the bound's power, so the
prune decides what ``ParetoSet.covers`` would.

Under single-vdd and multi-vdd a prefix is also cut when an earlier
prefix of the same length reached the same state at no higher power (a
Kohler-Steiglitz dominance relation): the same area, the same end times
for the placed nodes that still constrain unplaced ones, and the same
unit counts and usage per step wherever unplaced nodes can still add to
them.  Equal states have the same completions at the same added cost, so
the cut changes no result.  The walk keeps one usage buffer per op
type, with the type's unit kinds interleaved step by step; under the cut
the buffers are bytes (or wider unsigned items when a count may reach
256), so a state's key is its packed header joined with one raw slice
per type that still has unplaced nodes.  The lookup is inlined in the
walk; states are held in two generations of STATE_GENERATION entries
each.  A position whose lookups do not pay for themselves stops being
looked up (see GATE_WARMUP); a skipped lookup cuts nothing, so this too
changes no result.  FGDVS is left out: its switching charge depends on
how every op binds, which the state does not capture.

The prefix power counts dynamic and leakage and, under FGDVS, the switch
charges of each closed type: a type whose last position is placed.  Its
ops and its unit count are then final (its one unit kind peaks only when
its own ops are placed), and so are the charges of binding them.  An open
type's charges are not final, since a later op can raise its unit count
and let an earlier op bind switch-free, but they are never negative, so
the bound leaves them out.  The walk binds a type with
``type_switch_charges`` at its last position, unless the bound without
its charges already prunes there, and adds the charges to the bound one
at a time, stopping as soon as it prunes.  A leaf is costed from the
walk's own state: the area and the unit counts it tracks, per node the
row of its level in the mode's ``Pricing`` table, and each type's charges
from its close.  ``Pricing.cost`` sums the rows' terms, the units'
always-on leakage and the charges.  ``schedule_cost`` reads the same rows
and binds with the same rule, so the CostTuples are bit-identical by
construction.  The schedule dict is built only for the first solution and
for a leaf the front does not already cover.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain
from math import inf
from operator import getitem, itemgetter
from struct import Struct, calcsize

from .dfg import Dfg, Schedule, TimingInfo
from .listsched import Priority, list_schedule
from .power import (
    POWER_EPS,
    ArchMode,
    Budget,
    CostTuple,
    ParetoSet,
    ResourceLibrary,
    schedule_cost,
    staircase,
    type_switch_charges,
)


@dataclass
class SearchConfig:
    mode: ArchMode
    budget: Budget = field(default_factory=Budget)
    time_limit: float | None = None  # seconds; None = unbounded
    prune_dominance: bool = True
    debug_check: bool = False  # raise unless each leaf's cost == schedule_cost's

    def __post_init__(self) -> None:
        if self.time_limit is not None and not self.time_limit > 0:  # also NaN
            raise ValueError("time_limit must be positive")


FirstSolution = tuple[CostTuple, Schedule, float]

# Entries per generation of the state-cut table.  When the current
# generation fills up it replaces the older one, so at most twice this many
# states are held; which states are kept changes the work, never a result.
STATE_GENERATION = 2048
# The most window steps (alap - asap + 1, summed over the nodes) that a
# search will table.  The bound and move tables take up to about 130 bytes
# a step, so this keeps them near 100 MB; a slack that gives more steps is
# refused before anything is built.
MAX_WINDOW_STEPS = 800_000
# The state cut's per-position gate.  At each power-of-two count of
# lookups at a position, from GATE_WARMUP on, the position keeps being
# looked up only while its lookups save at least LOOKUP_COST expansions
# each: hits / lookups * (expansions walked per miss) >= LOOKUP_COST.  A
# lookup (building the key and probing the table) costs about as much wall
# time as 1.3 to 2.4 expansions of the unkeyed walk, measured on the
# multi-vdd cells of fir, lattice, ewf and volterra by replaying each search
# with its recorded lookup answers, so that the walk is the same but no key
# is built.  LOOKUP_COST stays 2, which every pinned counter assumes.
# Gated-off positions neither look up nor store states, so they also stop
# pushing useful states out of the table.  The decisions depend only on
# counts, so every counter stays deterministic.
GATE_WARMUP = 256
LOOKUP_COST = 2
_NEVER = float("inf")  # the power of a state not yet seen


@dataclass
class SearchReport:
    front: ParetoSet
    first_solution: FirstSolution | None
    nodes_expanded: int
    budget_prunes: int
    dominance_prunes: int
    state_prunes: int
    state_lookups: int  # states looked up in the state cut's table
    leaves: int  # complete schedules the walk reached and costed
    switch_binds: int  # FGDVS types bound for their switch charges
    completed: bool
    elapsed: float


def check_window_steps(timing: TimingInfo) -> None:
    """Raise ValueError when a search at ``timing`` would table more than
    MAX_WINDOW_STEPS window steps."""
    steps = sum(timing.mobility.values()) + len(timing.mobility)
    if steps > MAX_WINDOW_STEPS:
        raise ValueError(
            f"slack {timing.slack} gives the search {steps} window steps to table, "
            f"more than its limit of {MAX_WINDOW_STEPS}"
        )


def _getter(idx: list[int]) -> Callable[[list], tuple]:
    """itemgetter(*idx), but always returning a tuple, also of one item or none."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return (lambda xs, j=idx[0]: (xs[j],)) if idx else (lambda xs: ())


def _path_bound(
    parents: list[tuple[int, ...]],
    levels: list[tuple[tuple[int, int, float, float, int], ...]],
    asap: list[int],
    alap: list[int],
    bound: int,
) -> tuple[list[list[float]], list[int], float] | None:
    """The suffix bound on energy, per position and end step.

    Positions are in topological order, ``parents[i]`` lists i's parents
    and ``levels[i]`` its type's (duration, kind, energy, switch charge,
    level) rows, fastest first; a level longer than i's window fits no
    start.  Returns ``(bound_at, last_end, least)``: placing i to end at
    step ``end`` leaves positions i+1.. to pay at least
    ``bound_at[i][end - asap[i]]`` energy, ``last_end[i]`` is the latest
    end that leaves them a completion, and every schedule pays at least
    ``least``, which is not finite when that overflows a float.  Returns
    None when some path's ops cannot fit its span, so no schedule exists.

    The positions are split into disjoint paths along edges, each op
    followed by its child with the longest path below, longest paths
    first.  The ops of a path run one after another, so their durations
    together must fit the path's span.  Positions ascend along a path, so
    its unplaced ops are a suffix of it, and each path pays at least the
    least energy of that suffix.  Only i's own path sees i's end.
    """
    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for u in parents[i]:
            children[u].append(i)
    tail = [1] * n  # the node count of the longest path from each position
    for i in range(n - 1, -1, -1):
        for c in children[i]:
            if tail[c] >= tail[i]:
                tail[i] = tail[c] + 1
    nxt = [n] * n  # the next position on i's path; n past its end
    covered = [False] * n
    for j in sorted(range(n), key=tail.__getitem__, reverse=True):
        while not covered[j]:
            covered[j] = True
            free = [c for c in children[j] if not covered[c]]
            if free:
                nxt[j] = max(free, key=tail.__getitem__)
                j = nxt[j]
    # A DP per path, from its end.  f[j][t - asap_j] is the least energy of
    # j and the rest of its path when j starts at t, and rest[end - asap_j]
    # that of the rest alone when j ends at `end`: each op ends by its alap,
    # the next op on the path starts at max(end, its asap), and inf means
    # nothing fits, or its energy overflows a float.  Position n stands for
    # the empty rest of a path, which costs 0.0 and starts at bound + 1,
    # after every end.  `suffix` sums f[head][0] over the paths' unplaced
    # suffixes once 0..j are placed.  What fits does not depend on energy:
    # latest[j] is the latest start of j that leaves the rest of its path
    # room at its fastest levels, so j's latest end is the earlier of its
    # alap + 1 and the next op's latest start.  Where no sum overflows,
    # rest is finite at exactly the ends up to last_end.
    path_asap = asap + [bound + 1]
    f: list[list[float]] = [[]] * n + [[0.0]]
    bound_at: list[list[float]] = [[]] * n
    last_end = [0] * n
    latest = [0] * n + [bound + 1]
    suffix = 0.0
    for j in range(n - 1, -1, -1):
        lo, w = asap[j], alap[j] - asap[j] + 1
        last_end[j] = min(lo + w, latest[nxt[j]])
        latest[j] = last_end[j] - levels[j][0][0]
        if latest[j] < lo:
            return None
        fq, aq = f[nxt[j]], path_asap[nxt[j]]
        rest = [fq[end - aq] if end > aq else fq[0] for end in range(lo, lo + w + 1)]
        row = [inf] * w
        for d, _kind, e, _psw, _level in levels[j]:
            for x in range(w - d + 1):
                cost = e + rest[x + d]
                if cost < row[x]:
                    row[x] = cost
        f[j] = row
        bound_at[j] = [suffix + (r - fq[0]) for r in rest]
        suffix = suffix + row[0] - fq[0]
    return bound_at, last_end, suffix


def _run(
    g: Dfg,
    timing: TimingInfo,
    lib: ResourceLibrary,
    cfg: SearchConfig,
    stop_after_first: bool,
) -> SearchReport:
    check_window_steps(timing)
    order = g.order
    n = len(order)
    bound = timing.latency_bound
    price = lib.pricing(cfg.mode)

    type_names = sorted({g.nodes[v] for v in order})
    type_idx = {op: i for i, op in enumerate(type_names)}

    pos = {v: i for i, v in enumerate(order)}
    parents = [tuple(pos[u] for u in g.preds[v]) for v in order]
    asap_a = [timing.asap[v] for v in order]
    alap_a = [timing.alap[v] for v in order]

    # Per position, the node's usable levels as the price table's rows by
    # duration.  Unit kinds are the table's too: each has its own usage
    # count per step and pays its always-on leakage rate for the whole horizon
    # per allocated unit.  forced_leak is the least a type's first unit can
    # leak.
    usable = {op: price.rows(op) for op in type_names}
    rows_at = [usable[g.nodes[v]] for v in order]
    unit_leak = [rate * bound for _op, rate in price.kinds]
    n_kinds = len(unit_leak)
    forced_leak = [min(unit_leak[row[1]] for row in usable[op].values()) for op in type_names]

    # Per type, its unit kinds, and its rows as the bound and the move
    # tables read them, fastest first: (duration, kind, dyn+leak prefix
    # energy, switch charge, level), where level numbers the kind among the
    # type's.  The per-op leakage is 0.0 where units leak always-on, which
    # is tracked per allocated unit instead.
    type_kinds = [sorted({row[1] for row in usable[op].values()}) for op in type_names]
    levels_of = [
        tuple((d, kind, dyn + leak, psw, kinds.index(kind))
              for d, kind, dyn, leak, psw in usable[op].values())
        for op, kinds in zip(type_names, type_kinds)
    ]
    pos_type = [type_idx[g.nodes[v]] for v in order]
    levels_at = [levels_of[ti] for ti in pos_type]  # per position, its type's rows

    # Per type, its area cap; n, which no type's area exceeds, where uncapped.
    caps = [(cfg.budget.area_caps or {}).get(op, n) for op in type_names]
    path_tables = _path_bound(parents, levels_at, asap_a, alap_a, bound)
    if path_tables is None or 0 in caps:
        # Some path's ops cannot fit its span (as when a node's window is
        # shorter than its fastest level), or some type in the graph may
        # have no unit: no schedule exists, so the search is complete
        # before it starts.
        return SearchReport(ParetoSet(), None, 0, 0, 0, 0, 0, 0, 0, completed=True, elapsed=0.0)
    bound_at, last_end, least = path_tables
    if not least + sum(forced_leak) < inf:
        # Schedules fit, but none has a finite power.  Pricing.cost is the
        # one judge of that: costing these terms raises its overflow error.
        price.cost({}, (least, *forced_leak), (), (), (), bound)
    power_cap = cfg.budget.power_cap
    cap_line = inf if power_cap is None else power_cap + POWER_EPS

    # The positions of each type, whose ops the FGDVS binder takes per type.
    # Once a type's last position is placed, its ops and its unit count are
    # final (its one unit kind peaks only when its own ops are placed), and
    # so are its switch charges.  Where switching is charged, closer[i] is
    # set at each such position i: it fetches the type's ops from binder.
    type_positions = [
        [i for i, v in enumerate(order) if g.nodes[v] == op] for op in type_names
    ]
    closer: list[Callable[[list], tuple] | None] = [None] * n
    if price.switching:
        for at in type_positions:
            closer[at[-1]] = _getter(at)

    # Every type whose first node sits at position i or later has no unit
    # yet (each placed node holds a unit for at least one step) and will
    # allocate at least one; unstarted[i] holds those types' forced leakage,
    # in type order.
    unstarted = [
        tuple(forced_leak[tj] for tj, at in enumerate(type_positions) if at[0] >= i)
        for i in range(n + 1)
    ]

    # Usage buffers: one per op type, on every path.  A type with L kinds
    # keeps their usage step-major: kind number `level` of the type at step s
    # sits at s * L + level, and a move's steps are those indices of its
    # type's buffer.  A buffer is a plain list, which the walk updates
    # fastest, but bytes under the state cut (below).  ends[i] is where
    # placed node i stops constraining its children: its end, clipped up to
    # child_asap[i], the least asap among them.  A child's earliest start is
    # the largest of its own asap and its parents' ends either way.
    child_asap = [bound + 1] * n
    for i in range(n):
        for u in parents[i]:
            if asap_a[i] < child_asap[u]:
                child_asap[u] = asap_a[i]
    ends = [0] * n
    # State cut (single-vdd and multi-vdd): once positions 0..p-1 are
    # placed, what any completion adds to area and power, and which
    # completions the area caps allow, depend only on the prefix's state.
    # A prefix whose state an earlier prefix reached at no higher power is
    # cut: each of its leaves costs no less than the same completion of the
    # earlier prefix, already offered to the front.  The state is the
    # position, the area, and what these tables pick out per position p:
    #   frontier: each placed node with an unplaced child, by its ends entry
    #     (an end at or below child_asap constrains none of the children);
    #   live kinds: the kinds of every type with unplaced nodes, whose unit
    #     counts the walk still grows and the caps still check;
    #   live types: the usage buffer of every type with unplaced nodes, from
    #     the least asap of those nodes to the latency bound.
    # One slice of a type's buffer, buf[lo * L:(bound + 1) * L], holds every
    # kind of the type over every step an unplaced node of the type can
    # occupy.  Values are packed with the narrowest code that holds max(n,
    # bound + 1), the largest value in a state: a key is the packed
    # position, area, frontier ends and live unit counts, then the raw bytes
    # of each live type's slice.  A buffer is then a bytearray, or for a
    # wider code a memoryview of one cast to that code.  Every piece's
    # length is fixed by p, so equal keys mean equal states.  keying[p]
    # holds the header's Struct.pack, the getters of its ends and unit
    # counts, and the live types' buffers and slices.
    state_cut = cfg.prune_dominance and not price.switching
    code = next(c for c in "BHILQ" if max(n, bound + 1) < 1 << 8 * calcsize(c))
    sizes = [(bound + 2) * len(kinds) for kinds in type_kinds]
    if not state_cut:
        type_bufs: list = [[0] * size for size in sizes]
    elif code == "B":
        type_bufs = [bytearray(size) for size in sizes]
    else:
        type_bufs = [memoryview(bytearray(calcsize(code) * size)).cast(code) for size in sizes]
    keying: list[tuple] = []
    if state_cut:
        last_child = list(range(n))
        for i in range(n):
            for u in parents[i]:
                last_child[u] = i  # positions ascend: the last write is the last child
        type_lo = [bound + 1] * len(type_names)  # per type, the least asap at p or later
        lows = [()] * (n + 1)
        for p in range(n - 1, -1, -1):
            type_lo[pos_type[p]] = min(type_lo[pos_type[p]], asap_a[p])
            lows[p] = tuple(type_lo)
        open_nodes: list[int] = []
        for p in range(n + 1):
            if p:
                open_nodes.append(p - 1)
            open_nodes = [u for u in open_nodes if last_child[u] >= p]
            live = [ti for ti, lo in enumerate(lows[p]) if lo <= bound]
            live_kinds = sorted(kind for ti in live for kind in type_kinds[ti])
            packing = Struct(f"{2 + len(open_nodes) + len(live_kinds)}{code}")
            keying.append((
                packing.pack, _getter(open_nodes), _getter(live_kinds),
                tuple(type_bufs[ti] for ti in live),
                tuple(slice(lows[p][ti] * len(type_kinds[ti]), (bound + 1) * len(type_kinds[ti]))
                      for ti in live),
            ))
    generation = STATE_GENERATION
    cur_max = [0] * n_kinds
    type_area = [0] * len(type_names)
    starts = [0] * n
    durs = [0] * n
    binder = [None] * n  # per placed position, its op as the switch binder takes it
    type_charges: list[list[float]] = [[] for _ in type_names]  # per closed type

    front = ParetoSet()
    # stair[a] is the least power of a member of area at most a
    # (power.staircase), rebuilt in place on each insert; no bound's area
    # exceeds n.  The walk reads dom_line, which is all inf until the
    # dominance prune starts at the first solution: until then no leaf has
    # reached the archive, so the walk is the tree bb_first walks and the
    # first solution is bb_first's, seeds or not.
    stair = [inf] * (n + 1)
    dom_line = [inf] * (n + 1)
    expanded = budget_prunes = dominance_prunes = leaves = switch_binds = 0
    states: dict[bytes, float] = {}  # state key -> least cur_power seen with it
    older: dict[bytes, float] = {}  # the previous generation of states
    cur_area, cur_power = 0, 0.0  # the placed prefix's area and dyn+leak power
    cur_sw = 0.0  # the switch charges of the types closed by the prefix
    first: FirstSolution | None = None
    deadline = None
    t0 = time.perf_counter()
    if cfg.time_limit is not None:
        deadline = t0 + cfg.time_limit

    def handle_leaf() -> bool:
        """Cost the complete schedule in starts/durs from the walk's state
        and offer it to the front; True when the search should stop."""
        nonlocal first, leaves
        leaves += 1
        picked = list(map(getitem, rows_at, durs))
        cost = price.cost(
            dict(zip(type_names, type_area)), map(itemgetter(2), picked),
            map(itemgetter(3), picked), enumerate(cur_max), chain.from_iterable(type_charges),
            bound,
        )
        if cfg.debug_check:  # raised, not asserted, so that it also runs under -O
            sched = schedule()
            want = schedule_cost(g, sched, lib, cfg.mode, bound)
            if cost != want:
                raise AssertionError(f"leaf cost {cost} != schedule_cost {want} for {sched}")
            recount()
        if not cfg.budget.allows(cost.area_by_type, cost.power):
            return False
        if first is None:
            first = (cost, schedule(), time.perf_counter() - t0)
            if stop_after_first:
                return True
        if not front.covers(cost):
            front.insert(cost, schedule())
            stair[:] = staircase(front.points, n + 1)
        return False

    def schedule() -> Schedule:
        return {order[j]: (starts[j], durs[j]) for j in range(n)}

    def recount() -> None:
        """Raise AssertionError unless the usage buffers and each kind's
        peak are what the placed schedule gives when counted afresh."""
        fresh = [[0] * len(buf) for buf in type_bufs]
        for j, ti in enumerate(pos_type):
            width, level = len(type_kinds[ti]), type_kinds[ti].index(rows_at[j][durs[j]][1])
            for step in range(starts[j] * width + level, (starts[j] + durs[j]) * width, width):
                fresh[ti][step] += 1
        for ti, kinds in enumerate(type_kinds):
            peaks = [max(fresh[ti][level::len(kinds)]) for level in range(len(kinds))]
            if list(type_bufs[ti]) != fresh[ti] or [cur_max[kind] for kind in kinds] != peaks:
                raise AssertionError(f"type {type_names[ti]}'s usage buffer or its kinds' peaks "
                                     f"are not what the schedule gives (peaks {peaks})")

    # Per position: [lookups, hits (each a state prune), expansions walked
    # under misses, the lookup count of the next gate test]; gate[p] is
    # None once p is gated off, and always without the state cut.
    tallies = [[0, 0, 0, GATE_WARMUP] for _ in range(n + 1)] if state_cut else []
    gate: list[list[int] | None] = list(tallies) if state_cut else [None] * (n + 1)

    # Per position and earliest start, the moves in walk order: starts
    # ascending, then fastest first, each ending by last_end.  Built the
    # first time they are reached.  A parent ends no later than
    # its child's alap, so every earliest start has a slot.  A move is
    # (start, duration, kind, energy, binder entry, steps, rest, end): the
    # entry is the op's (start, node id, cycles, psw) where switching is
    # charged, steps the indices of its type's buffer that the op occupies,
    # rest what positions i+1.. must still pay in energy once the move ends
    # (bound_at), and end its ends entry.
    tables: list[list[tuple[tuple, ...] | None]] = [
        [None] * (alap_a[i] - asap_a[i] + 1) for i in range(n)
    ]

    switching = price.switching

    def moves(i: int, earliest: int) -> tuple[tuple, ...]:
        last, levels, width = last_end[i], levels_at[i], len(type_kinds[pos_type[i]])
        rest, base, nid, floor = bound_at[i], asap_a[i], order[i], child_asap[i]
        table = tuple(
            (t, d, kind, energy, (t, nid, d, psw) if switching else None,
             range(t * width + level, (t + d) * width, width), rest[t + d - base],
             t + d if t + d > floor else floor)
            for t in range(earliest, last)
            for d, kind, energy, psw, level in levels
            if d <= last - t
        )
        tables[i][earliest - asap_a[i]] = table
        return table

    # Seed the archive with the two list-scheduling extremes so the
    # dominance prune has cover at both ends of the front once it starts.
    # Seeds are ordinary feasible schedules: anything they prune is
    # dominated-or-equalled by a real solution, and they are themselves
    # displaced later if the search beats them.  bb_first, which stops at
    # the first solution, never prunes by dominance and needs none.
    if not stop_after_first:
        for pr in (Priority.MAX_DURATION, Priority.MIN_DURATION):
            seed = list_schedule(g, timing, lib, cfg.mode, cfg.budget, pr)
            if seed is not None:
                cost = schedule_cost(g, seed, lib, cfg.mode, bound)
                if cfg.budget.allows(cost.area_by_type, cost.power):
                    front.insert(cost, seed)
        stair[:] = staircase(front.points, n + 1)

    # The walk: one loop over an explicit stack of positions 0..i.  Per
    # position on the stack, todo[p] iterates over the moves still to try,
    # undo[p] holds what its current move changed, and entered[p] the
    # expansion count when a state-cut miss let the walk in.  Each pass of
    # the loop checks the deadline, then descends once or pops once.  An
    # empty graph's root is a leaf.
    todo: list = [None] * n
    undo: list = [None] * n
    entered = [0] * (n + 1)
    completed = True
    if n:
        todo[0] = iter(moves(0, asap_a[0]))
    else:
        handle_leaf()
    stopped = not n
    i = 0
    while not stopped:
        if deadline is not None and time.perf_counter() > deadline:
            completed = False
            break
        # What every move of position i shares.
        p = i + 1
        leaks = unstarted[p]
        n_leaks = len(leaks)
        ti = pos_type[i]
        cap, row = caps[ti], type_bufs[ti]
        closes = closer[i]
        for t, dur, kind, energy, entry, steps, rest, end in todo[i]:
            expanded += 1
            # Probe: the kind's peak usage with the move placed, read off
            # its type's usage buffer without writing it.
            old_max = cur_max[kind]
            peak = old_max
            for step in steps:
                if row[step] >= peak:
                    peak = row[step] + 1
            grew = peak - old_max
            if grew:
                area = cur_area + grew
                power = cur_power + energy + unit_leak[kind] * grew
            else:
                area = cur_area
                power = cur_power + energy
            # Prune or descend: bound what any completion must cost.
            lb_area = area + n_leaks
            lb_power = power + rest
            for leak in leaks:
                lb_power += leak
            lb_power += cur_sw
            if grew and type_area[ti] + grew > cap:
                budget_prunes += 1
                continue
            if lb_power > cap_line:
                budget_prunes += 1
                continue
            # front.covers on the bound, by one staircase index.
            line = dom_line[lb_area]
            if line <= lb_power + POWER_EPS:
                dominance_prunes += 1
                continue
            if closes is not None:
                # i closes its type: bind it, adding each charge to the bound
                # as it comes, and stop as soon as the bound prunes.  Charges
                # only add, so a prefix of them that prunes, the whole does.
                switch_binds += 1
                binder[i] = entry
                charges = []
                pruned = False
                for charge in type_switch_charges(list(closes(binder)), type_area[ti] + grew):
                    charges.append(charge)
                    lb_power += charge
                    if lb_power > cap_line:
                        budget_prunes += 1
                        pruned = True
                        break
                    if line <= lb_power + POWER_EPS:
                        dominance_prunes += 1
                        pruned = True
                        break
                if pruned:
                    continue
                type_charges[ti] = charges
            # Place: only a move that survives to the state lookup or the
            # descent writes the buffer.
            for step in steps:
                row[step] += 1
            old_area, old_power = cur_area, cur_power
            old_type_area = type_area[ti]
            if grew:
                cur_max[kind] = peak
                type_area[ti] = old_type_area + grew
            cur_area, cur_power = area, power
            starts[i] = t
            durs[i] = dur
            ends[i] = end
            binder[i] = entry
            pruned = False
            tally = gate[p]
            if tally is not None:
                # The state cut, unless the gate turns p off here.
                looked, hit, below, test_at = tally
                if looked == test_at and hit * below < LOOKUP_COST * looked * (looked - hit):
                    # p is not on the stack, so every miss at p has been walked.
                    gate[p] = None
                else:
                    if looked == test_at:
                        tally[3] = 2 * test_at
                    tally[0] = looked + 1
                    pack, ends_of, units_of, bufs, cuts = keying[p]
                    key = b"".join([pack(p, area, *ends_of(ends), *units_of(cur_max)),
                                    *map(getitem, bufs, cuts)])
                    # Either way the state goes into the newer generation
                    # with the lower of the two powers.
                    seen = states.get(key)
                    if seen is None:
                        seen = older.get(key, _NEVER)
                        if len(states) >= generation:
                            older, states = states, {}
                        states[key] = seen if seen <= power else power
                    elif seen > power:
                        states[key] = power
                    # Exact compare: every completion of this prefix costs no
                    # less than the same completion of the earlier one, whose
                    # leaves were all offered to the front.
                    if seen <= power:
                        tally[1] = hit + 1  # a state prune
                        pruned = True
                    else:
                        entered[p] = expanded
            if not pruned:
                if p < n:
                    undo[i] = (kind, steps, old_max, old_type_area, old_area, old_power, cur_sw)
                    if closes is not None:
                        cur_sw += sum(charges)
                    earliest = asap_a[p]
                    for u in parents[p]:
                        if ends[u] > earliest:
                            earliest = ends[u]
                    table = tables[p][earliest - asap_a[p]]
                    if table is None:
                        table = moves(p, earliest)
                    todo[p] = iter(table)
                    i = p
                    break
                if handle_leaf():
                    stopped = True
                    break
                if first is not None and cfg.prune_dominance:
                    dom_line = stair
            # Undo.
            for step in steps:
                row[step] -= 1
            cur_max[kind] = old_max
            type_area[ti] = old_type_area
            cur_area = old_area
            cur_power = old_power
        else:
            # Pop: position i has no moves left; undo the move of i - 1.
            if i == 0:
                break
            tally = gate[i]
            if tally is not None:
                tally[2] += expanded - entered[i]
            i -= 1
            kind, steps, old_max, old_type_area, cur_area, cur_power, cur_sw = undo[i]
            row = type_bufs[pos_type[i]]
            for step in steps:
                row[step] -= 1
            cur_max[kind] = old_max
            type_area[pos_type[i]] = old_type_area
    elapsed = time.perf_counter() - t0
    return SearchReport(
        front=front,
        first_solution=first,
        nodes_expanded=expanded,
        budget_prunes=budget_prunes,
        dominance_prunes=dominance_prunes,
        state_prunes=sum(tally[1] for tally in tallies),
        state_lookups=sum(tally[0] for tally in tallies),
        leaves=leaves,
        switch_binds=switch_binds,
        completed=completed,
        elapsed=elapsed,
    )


def bb_pareto(
    g: Dfg, timing: TimingInfo, lib: ResourceLibrary, cfg: SearchConfig
) -> SearchReport:
    """Exhaust the assignment tree; the front is exact when completed=True.

    With a time limit the search may stop early (completed=False); the
    returned front is then a valid non-dominated set of the solutions seen
    so far.  first_solution is the first budget-satisfying schedule the walk
    reaches, the one bb_first returns, and need not end up on the final
    front; it is None when no schedule satisfies the budget, or none was
    reached before the time limit.
    """
    return _run(g, timing, lib, cfg, stop_after_first=False)


def bb_first(
    g: Dfg, timing: TimingInfo, lib: ResourceLibrary, cfg: SearchConfig
) -> SearchReport:
    """Stop at the first budget-satisfying schedule.

    The report's first_solution holds it, or None when there is none; a
    None with completed=False means the time limit hit first, so nothing
    is known.  The front stays empty.  Up to its first solution bb_pareto
    walks the same tree, so the result is bb_pareto's first_solution on the
    same instance.
    """
    return _run(g, timing, lib, cfg, stop_after_first=True)
