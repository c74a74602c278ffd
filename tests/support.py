"""Shared fixture graphs and seeded random-instance generators.

Everything here is deterministic given the Random object passed in, so
tests that need reproducible corpora just seed their own rng.
"""

from __future__ import annotations

import random
from typing import Callable

from dvsched import (
    ArchMode,
    Budget,
    Dfg,
    Priority,
    ResourceLibrary,
    Schedule,
    TimingInfo,
    compute_timing,
    load_resource_library,
    parse_dfg,
    schedule_cost,
    state_space_estimate,
    topological_order,
)

OP_POOL = ("mul", "add", "comp", "sub", "shift")

# Two multiplies feeding an add.  Small enough to enumerate by hand, rich
# enough that the branch-and-bound's first solution differs from its front.
SMOKE_DFG = """\
name smoke
node 1 mul
node 2 mul
node 3 add
edge 1 -> 3
edge 2 -> 3
"""

# Three independent multiplies; with slack they can serialize onto one unit.
TRI_DFG = """\
name tri
node 1 mul
node 2 mul
node 3 mul
"""

# Node 3 depends on node 1; squeezing everything through one multiplier
# needs a start the greedy list scheduler never tries.
DEFER_DFG = """\
name defer
node 1 mul
node 2 mul
node 3 mul
edge 1 -> 3
"""

# Two independent mul/add diamonds: an 8-node graph where dominance pruning
# removes well over half of the unpruned expansions at k=2.
DIAMONDS_DFG = """\
name diamonds
node 1 mul
node 2 add
node 3 add
node 4 mul
node 5 mul
node 6 add
node 7 add
node 8 mul
edge 1 -> 2
edge 1 -> 3
edge 2 -> 4
edge 3 -> 4
edge 5 -> 6
edge 5 -> 7
edge 6 -> 8
edge 7 -> 8
"""

# One op type, three levels, round numbers for hand-checked power sums.
TINY_LIB = """\
type mul
level vdd=1.00 cycles=1 pdyn=8.00 plk=1.00 psw=2.00
level vdd=0.80 cycles=2 pdyn=3.00 plk=0.50 psw=2.00
level vdd=0.60 cycles=3 pdyn=1.50 plk=0.25 psw=2.00
"""


# default.lib with no 1-cycle add: at k=0 diffeq's adds 6 and 7 have 1-step
# windows, shorter than the fastest add level.
SLOW_ADD_LIB = """\
type mul
level vdd=1.00 cycles=1 pdyn=16.00 plk=0.60 psw=1.50
level vdd=0.78 cycles=2 pdyn=4.87 plk=0.40 psw=1.50
level vdd=0.68 cycles=3 pdyn=2.47 plk=0.30 psw=1.50

type add
level vdd=0.78 cycles=2 pdyn=1.83 plk=0.17 psw=0.50
level vdd=0.68 cycles=3 pdyn=0.92 plk=0.12 psw=0.50

type comp
level vdd=1.00 cycles=1 pdyn=4.00 plk=0.15 psw=0.35
level vdd=0.78 cycles=2 pdyn=1.22 plk=0.10 psw=0.35
level vdd=0.68 cycles=3 pdyn=0.62 plk=0.08 psw=0.35
"""

def _library_text(
    rng: random.Random, types: list[str], first_and_step: Callable[[], tuple[int, int]]
) -> str:
    lines = []
    for op in types:
        n_levels = rng.randint(1, 3)
        first, step = first_and_step()
        lines.append(f"type {op}")
        vdd, cycles, pdyn = 1.0, first, round(rng.uniform(4.0, 20.0), 2)
        for _ in range(n_levels):
            plk = round(rng.uniform(0.05, 1.0), 2)
            psw = round(rng.uniform(0.1, 2.0), 2)
            lines.append(
                f"level vdd={vdd:.2f} cycles={cycles} "
                f"pdyn={pdyn:.2f} plk={plk:.2f} psw={psw:.2f}"
            )
            vdd = round(vdd - rng.uniform(0.1, 0.2), 2)
            cycles += step
            pdyn = round(pdyn * rng.uniform(0.3, 0.7), 2)
    return "\n".join(lines) + "\n"


def random_library_text(rng: random.Random, types: list[str]) -> str:
    """Levels at 1, 2, 3 cycles: every level fits some window."""
    return _library_text(rng, types, lambda: (1, 1))


def gapped_library_text(rng: random.Random, types: list[str]) -> str:
    """A type's fastest level may take 2 cycles and its cycle counts may
    skip (1, 3, ...), so some levels fit no window at k=0 and a node can be
    left with no level at all."""
    return _library_text(rng, types, lambda: (rng.choice((1, 2)), rng.choice((1, 2))))


def random_dag_text(rng: random.Random, types: list[str], n: int) -> str:
    # Shuffled labels keep the id order independent of the topo order.
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    lines = ["name random"]
    for i in range(n):
        lines.append(f"node {labels[i]} {rng.choice(types)}")
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                lines.append(f"edge {labels[i]} -> {labels[j]}")
    return "\n".join(lines) + "\n"


def random_instance(
    rng: random.Random,
    state_cap: int = 20_000,
    k_cap: int = 2,
    max_nodes: int = 8,
    library_text: Callable[[random.Random, list[str]], str] = random_library_text,
) -> tuple[Dfg, ResourceLibrary]:
    """A (graph, library) pair whose k=k_cap state space stays enumerable."""
    while True:
        types = rng.sample(OP_POOL, rng.randint(1, 3))
        lib = load_resource_library(library_text(rng, types))
        g = parse_dfg(random_dag_text(rng, types, rng.randint(2, max_nodes)))
        timing = compute_timing(g, k_cap)
        if state_space_estimate(g, timing, lib) <= state_cap:
            return g, lib


def random_schedule(
    rng: random.Random, g: Dfg, timing: TimingInfo, lib: ResourceLibrary
) -> Schedule | None:
    """A uniformly sloppy but valid schedule (random walk), or None when
    the walk reaches a node with no level that fits before its alap."""
    sched: Schedule = {}
    for v in topological_order(g):
        earliest = timing.asap[v]
        for u in g.preds[v]:
            earliest = max(earliest, sched[u][0] + sched[u][1])
        start = rng.randint(earliest, timing.alap[v])
        durs = [
            lv.cycles for lv in lib.levels(g.nodes[v]) if start + lv.cycles - 1 <= timing.alap[v]
        ]
        if not durs:
            return None
        sched[v] = (start, rng.choice(durs))
    return sched


def sampled_budgets(
    rng: random.Random, g: Dfg, timing: TimingInfo, lib: ResourceLibrary
) -> list[Budget]:
    """No budget, an area vector, and a power cap near a reachable cost;
    only no budget when the random walk finds no schedule."""
    ref = random_schedule(rng, g, timing, lib)
    if ref is None:
        return [Budget()]
    c_multi = schedule_cost(g, ref, lib, ArchMode.MULTI_VDD, timing.latency_bound)
    c_fg = schedule_cost(g, ref, lib, ArchMode.FGDVS, timing.latency_bound)
    return [
        Budget(),
        Budget(area_caps=dict(c_multi.area_by_type)),
        Budget(power_cap=c_fg.power * rng.uniform(0.7, 1.3)),
    ]


def reference_list_schedule(
    g: Dfg,
    timing: TimingInfo,
    lib: ResourceLibrary,
    mode: ArchMode,
    budget: Budget = Budget(),
    priority: Priority = Priority.MIN_DURATION,
) -> Schedule | None:
    """The greedy list scheduler as first written: under a budget it prices
    each candidate by ``schedule_cost`` on the whole prefix, which is
    quadratic in the graph size.  ``list_schedule`` must give the same
    answer, or raise the same exception type."""
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
