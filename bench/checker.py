"""Independent checker for dvsched outputs.

Everything here is written from the model in the repository README and
imports nothing from ``dvsched``: its own graph and library readers, its
own scheduling windows, its own cost model, its own dominance fold and its
own brute-force enumerator.  A check that fails raises ``Mismatch``.

Model, as the README states it:

* control steps are 1-indexed; ``T = critical path + k``; a node may hold
  ``(start, dur)`` iff ``start >= asap``, ``start + dur - 1 <= alap`` and
  every edge ``u -> v`` has ``start(v) >= start(u) + dur(u)``;
* the duration is a library cycle count of the node's type and names its
  voltage level; single-vdd admits only the fastest level;
* area is the peak number of concurrently running ops per type, and per
  (type, level) summed over levels under multi-vdd;
* dynamic power is ``pdyn * dur`` per op; leakage is ``plk * dur`` per op
  under fgdvs and ``units * plk * T`` per allocated unit otherwise;
* fgdvs switching binds each type's ops in ascending (start, id) order to
  a pool of as many units as that type's area: a free unit that last ran
  the same duration, else a never-used unit, else the lowest free unit,
  which pays the op level's ``psw``;
* dominance compares (area, power) with a 1e-9 power tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

POWER_EPS = 1e-9
"""Power tolerance of the dominance rule."""

TOL = 2e-6
"""Tolerance when comparing a recomputed value with a printed one (six decimals)."""

MODES = ("single-vdd", "multi-vdd", "fgdvs")

Schedule = dict[int, tuple[int, int]]


class Mismatch(Exception):
    """An output breaks a rule of the model or a property of the method."""


def need(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Graph:
    name: str
    types: dict[int, str]
    edges: tuple[tuple[int, int], ...]
    preds: dict[int, tuple[int, ...]]


class Level(NamedTuple):
    cycles: int
    pdyn: float
    plk: float
    psw: float


Library = dict[str, list[Level]]


def _lines(text: str) -> Iterable[list[str]]:
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield fields


def read_graph(text: str) -> Graph:
    name = ""
    types: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for f in _lines(text):
        if f[0] == "name":
            name = f[1]
        elif f[0] == "node":
            types[int(f[1])] = f[2]
        elif f[0] == "edge":
            edges.append((int(f[1]), int(f[3])))
    preds: dict[int, list[int]] = {v: [] for v in types}
    for u, v in edges:
        preds[v].append(u)
    return Graph(name, types, tuple(edges), {v: tuple(p) for v, p in preds.items()})


def read_library(text: str) -> Library:
    lib: Library = {}
    current = ""
    for f in _lines(text):
        if f[0] == "type":
            current = f[1]
            lib[current] = []
        elif f[0] == "level":
            kv = dict(tok.split("=", 1) for tok in f[1:])
            lib[current].append(Level(int(kv["cycles"]), float(kv["pdyn"]),
                                      float(kv["plk"]), float(kv["psw"])))
    return lib


def topo(g: Graph) -> list[int]:
    """Some topological order (Kahn's algorithm, ascending ids)."""
    indeg = {v: len(g.preds[v]) for v in g.types}
    succs: dict[int, list[int]] = {v: [] for v in g.types}
    for u, v in g.edges:
        succs[u].append(v)
    ready = sorted(v for v, d in indeg.items() if d == 0)
    out: list[int] = []
    while ready:
        v = ready.pop(0)
        out.append(v)
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    need(len(out) == len(g.types), f"{g.name}: graph has a cycle")
    return out


@dataclass(frozen=True)
class Windows:
    asap: dict[int, int]
    alap: dict[int, int]
    bound: int


def windows(g: Graph, k: int) -> Windows:
    order = topo(g)
    asap: dict[int, int] = {}
    for v in order:
        asap[v] = 1 + max((asap[u] for u in g.preds[v]), default=0)
    bound = max(asap.values(), default=0) + k
    alap = {v: bound for v in g.types}
    for v in reversed(order):
        for u in g.preds[v]:
            alap[u] = min(alap[u], alap[v] - 1)
    return Windows(asap, alap, bound)


def levels_for(lib: Library, op: str, mode: str) -> list[Level]:
    return lib[op][:1] if mode == "single-vdd" else lib[op]


# ---------------------------------------------------------------------------
# schedules and costs


def check_schedule(g: Graph, lib: Library, win: Windows, mode: str, s: Schedule) -> None:
    """Raise Mismatch unless ``s`` obeys windows, edges and cycle counts."""
    need(set(s) == set(g.types), f"{g.name}: schedule covers {sorted(set(s) ^ set(g.types))[:5]} wrongly")
    for v, (start, dur) in s.items():
        cycles = [lvl.cycles for lvl in levels_for(lib, g.types[v], mode)]
        need(dur in cycles, f"{g.name}: node {v} takes {dur} cycles, not one of {cycles} ({mode})")
        need(start >= win.asap[v], f"{g.name}: node {v} starts at {start} before asap {win.asap[v]}")
        need(start + dur - 1 <= win.alap[v],
             f"{g.name}: node {v} ends at {start + dur - 1} after alap {win.alap[v]}")
    for u, v in g.edges:
        need(s[v][0] >= s[u][0] + s[u][1], f"{g.name}: edge {u} -> {v} broken")


class Cost(NamedTuple):
    area: int
    area_by_type: dict[str, int]
    dynamic: float
    leakage: float
    switching: float

    @property
    def power(self) -> float:
        return self.dynamic + self.leakage + self.switching


def _peaks(items: Iterable[tuple[object, int, int]]) -> dict[object, int]:
    busy: dict[object, dict[int, int]] = {}
    for key, start, dur in items:
        row = busy.setdefault(key, {})
        for t in range(start, start + dur):
            row[t] = row.get(t, 0) + 1
    return {key: max(row.values()) for key, row in busy.items()}


def _level(lib: Library, op: str, dur: int) -> tuple[int, Level]:
    for idx, lvl in enumerate(lib[op]):
        if lvl.cycles == dur:
            return idx, lvl
    raise Mismatch(f"no {op} level takes {dur} cycles")


def _switching(g: Graph, lib: Library, s: Schedule, pool: Mapping[str, int]) -> float:
    charges: list[float] = []
    for op in sorted(pool):
        ops = sorted((start, v, dur) for v, (start, dur) in s.items() if g.types[v] == op)
        free_at = [0] * pool[op]   # first step the unit is idle again
        last = [0] * pool[op]      # duration of its last op, 0 if never used
        for start, _v, dur in ops:
            free = [u for u in range(pool[op]) if free_at[u] <= start]
            same = [u for u in free if last[u] == dur]
            fresh = [u for u in free if last[u] == 0]
            if same:
                unit = same[0]
            elif fresh:
                unit = fresh[0]
            else:
                unit = free[0]
                charges.append(_level(lib, op, dur)[1].psw)
            free_at[unit] = start + dur
            last[unit] = dur
    return math.fsum(charges)


def cost(g: Graph, lib: Library, mode: str, bound: int, s: Schedule) -> Cost:
    levels = {v: _level(lib, g.types[v], dur) for v, (_start, dur) in s.items()}
    if mode == "multi-vdd":
        peaks = _peaks(((g.types[v], levels[v][0]), st, d) for v, (st, d) in s.items())
        by_type: dict[str, int] = {}
        for (op, _idx), n in peaks.items():
            by_type[op] = by_type.get(op, 0) + n
        leakage = math.fsum(n * lib[op][idx].plk * bound for (op, idx), n in peaks.items())
    else:
        by_type = _peaks((g.types[v], st, d) for v, (st, d) in s.items())  # type: ignore[assignment]
        if mode == "fgdvs":
            leakage = math.fsum(levels[v][1].plk * d for v, (_st, d) in s.items())
        else:
            leakage = math.fsum(n * lib[op][0].plk * bound for op, n in by_type.items())
    dynamic = math.fsum(levels[v][1].pdyn * d for v, (_st, d) in s.items())
    switching = _switching(g, lib, s, by_type) if mode == "fgdvs" else 0.0
    return Cost(sum(by_type.values()), by_type, dynamic, leakage, switching)


# ---------------------------------------------------------------------------
# fronts


Point = tuple[int, float]


def dominates(a: Point, b: Point) -> bool:
    if a[0] > b[0] or a[1] > b[1] + POWER_EPS:
        return False
    return a[0] < b[0] or a[1] < b[1] - POWER_EPS


def nondominated(points: Iterable[Point]) -> list[Point]:
    """The front of ``points``: one member per cost, sorted by area."""
    out: list[Point] = []
    best = math.inf
    for area, power in sorted(points):
        if power < best - POWER_EPS:
            out.append((area, power))
            best = power
    return out


def check_nondominated(points: list[Point], label: str) -> None:
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            need(not dominates(a, b) and not dominates(b, a),
                 f"{label}: front points {a} and {b} dominate one another")
            need(not (a[0] == b[0] and abs(a[1] - b[1]) <= POWER_EPS),
                 f"{label}: front point {a} appears twice")


def same_points(got: list[Point], want: list[Point], label: str) -> None:
    got, want = sorted(got), sorted(want)
    ok = len(got) == len(want) and all(
        a[0] == b[0] and abs(a[1] - b[1]) <= TOL for a, b in zip(got, want)
    )
    need(ok, f"{label}: front {fmt(got)} differs from expected {fmt(want)}")


def fmt(points: Iterable[Point]) -> str:
    return "[" + ", ".join(f"({a}, {p:.6f})" for a, p in points) + "]"


def merge3(fronts: Iterable[tuple[int, Iterable[Point]]]) -> list[tuple[int, int, float]]:
    """Non-dominated (latency, area, power) set of per-latency fronts."""
    pts = sorted({(lat, a, p) for lat, front in fronts for a, p in front})
    out: list[tuple[int, int, float]] = []
    for c in pts:
        covered = any(
            o[0] <= c[0] and o[1] <= c[1] and o[2] <= c[2] + POWER_EPS
            for o in out
        )
        if not covered:
            out.append(c)
    return out


def weakly_covers(upper: list[Point], lower: list[Point]) -> bool:
    """Every point of ``lower`` is matched or beaten by one of ``upper``."""
    return all(any(u[0] <= p[0] and u[1] <= p[1] + POWER_EPS for u in upper) for p in lower)


# ---------------------------------------------------------------------------
# reference algorithms


def enumerate_schedules(g: Graph, lib: Library, win: Windows, mode: str) -> Iterable[Schedule]:
    """Every valid schedule, by depth-first search over a topological order."""
    order = topo(g)
    s: Schedule = {}

    def rec(i: int) -> Iterable[Schedule]:
        if i == len(order):
            yield dict(s)
            return
        v = order[i]
        earliest = max([win.asap[v]] + [s[u][0] + s[u][1] for u in g.preds[v]])
        for start in range(earliest, win.alap[v] + 1):
            for lvl in levels_for(lib, g.types[v], mode):
                if start + lvl.cycles - 1 <= win.alap[v]:
                    s[v] = (start, lvl.cycles)
                    yield from rec(i + 1)
        s.pop(v, None)

    return rec(0)


def brute_front(g: Graph, lib: Library, k: int, mode: str) -> list[Point]:
    win = windows(g, k)
    pts = []
    for s in enumerate_schedules(g, lib, win, mode):
        c = cost(g, lib, mode, win.bound, s)
        pts.append((c.area, c.power))
    return nondominated(pts)


def greedy(g: Graph, lib: Library, win: Windows, mode: str, slowest: bool) -> Schedule:
    """Unconstrained list schedule: earliest start, slowest or fastest fitting level."""
    s: Schedule = {}
    for v in topo(g):
        start = max([win.asap[v]] + [s[u][0] + s[u][1] for u in g.preds[v]])
        fits = [lvl.cycles for lvl in levels_for(lib, g.types[v], mode)
                if start + lvl.cycles - 1 <= win.alap[v]]
        need(bool(fits), f"{g.name}: node {v} has no level that fits at step {start}")
        s[v] = (start, max(fits) if slowest else min(fits))
    return s


# ---------------------------------------------------------------------------
# output readers


def parse_packed(text: str) -> Schedule:
    """The CSV schedule column, ``id:start:dur;...``."""
    out: Schedule = {}
    for item in text.split(";"):
        v, start, dur = (int(x) for x in item.split(":"))
        out[v] = (start, dur)
    return out


def parse_json_schedule(raw: Mapping[str, list[int]]) -> Schedule:
    return {int(v): (int(sd[0]), int(sd[1])) for v, sd in raw.items()}


def read_csv(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    head = lines[0].split(",")
    rows = [dict(zip(head, line.split(","))) for line in lines[1:]]
    need(all(len(r) == len(head) for r in rows), "CSV row with a wrong field count")
    return rows


def check_csv_row(g: Graph, lib: Library, row: Mapping[str, str], mode: str, k: int) -> Point:
    """Recheck one front-CSV row; returns its (area, power)."""
    win = windows(g, k)
    label = f"{g.name} {mode} k={k}"
    need(row["mode"] == mode and int(row["k"]) == k and int(row["latency"]) == win.bound,
         f"{label}: row heads {row['mode']},{row['k']},{row['latency']}")
    s = parse_packed(row["schedule"])
    check_schedule(g, lib, win, mode, s)
    c = cost(g, lib, mode, win.bound, s)
    printed = {
        "power_total": c.power, "power_dynamic": c.dynamic,
        "power_leakage": c.leakage, "power_switching": c.switching,
    }
    for col, val in printed.items():
        need(abs(float(row[col]) - val) <= TOL, f"{label}: {col} {row[col]} != recomputed {val:.6f}")
    need(int(row["area_total"]) == c.area, f"{label}: area {row['area_total']} != {c.area}")
    for op in lib:
        need(int(row[f"area_{op}"]) == c.area_by_type.get(op, 0),
             f"{label}: area_{op} {row[f'area_{op}']} != {c.area_by_type.get(op, 0)}")
    return c.area, c.power


def check_json_point(g: Graph, lib: Library, item: Mapping, mode: str, k: int) -> tuple[Point, Cost, Schedule]:
    """Recheck one JSON front entry (or budget answer) with its schedule."""
    win = windows(g, k)
    label = f"{g.name} {mode} k={k}"
    s = parse_json_schedule(item["schedule"])
    check_schedule(g, lib, win, mode, s)
    c = cost(g, lib, mode, win.bound, s)
    need(item["area"] == c.area, f"{label}: area {item['area']} != recomputed {c.area}")
    need(abs(item["power"] - c.power) <= TOL, f"{label}: power {item['power']} != recomputed {c.power}")
    if "area_by_type" in item:
        need(item["area_by_type"] == dict(sorted(c.area_by_type.items())),
             f"{label}: area_by_type {item['area_by_type']} != {c.area_by_type}")
    return (c.area, c.power), c, s


# ---------------------------------------------------------------------------
# command checks: one per kind of command line in workloads.py


def meets(chk: Mapping, area_by_type: Mapping[str, int], power: float) -> bool:
    if chk.get("power_cap") is not None:
        return power <= chk["power_cap"] + POWER_EPS
    return all(area_by_type.get(op, 0) <= n for op, n in chk["area_caps"].items())


class Context:
    """What the command checks read: the work directory and the reference fronts."""

    def __init__(self, work, reference: Mapping):
        self.work = work
        self.reference = reference
        self.lib = read_library((work / "in/default.lib").read_text(encoding="utf-8"))
        self._brute: dict[tuple[str, str, int], list[Point]] = {}

    def graph(self, name: str) -> Graph:
        return read_graph((self.work / f"in/{name}.dfg").read_text(encoding="utf-8"))

    def text(self, path: str) -> str:
        return (self.work / path).read_text(encoding="utf-8")

    def json(self, path: str):
        return json.loads(self.text(path))

    def known(self, g: Graph, mode: str, k: int, expect: str, exact: bool = True) -> list[dict]:
        """Front points of a cell, as dicts with "area", "power" and, from the
        reference, "area_by_type"."""
        if expect == "brute":
            key = (g.name, mode, k)
            if key not in self._brute:
                self._brute[key] = brute_front(g, self.lib, k, mode)
            return [{"area": a, "power": p} for a, p in self._brute[key]]
        cell = self.reference.get(f"{g.name}/{mode}/k{k}")
        need(cell is not None, f"reference.json has no {g.name}/{mode}/k{k}; run reference.py")
        need(cell["exact"] or not exact, f"reference {g.name}/{mode}/k{k} is not an exact front")
        return cell["points"]


def _pts(points: Iterable[Mapping]) -> list[Point]:
    return [(p["area"], p["power"]) for p in points]


def check_pareto(ctx: Context, chk: Mapping, stdout: str) -> None:
    g, mode, k = ctx.graph(chk["graph"]), chk["mode"], chk["k"]
    pts = [check_csv_row(g, ctx.lib, row, mode, k) for row in read_csv(ctx.text(chk["csv"]))]
    check_nondominated(pts, f"{g.name} {mode} k={k}")
    same_points(pts, _pts(ctx.known(g, mode, k, chk["expect"])), f"{g.name} {mode} k={k}")
    need(f" front={len(pts)} " in stdout.splitlines()[0], f"{g.name}: printed front size differs")


def check_compare(ctx: Context, chk: Mapping, stdout: str) -> None:
    g, k = ctx.graph(chk["graph"]), chk["k"]
    rows = read_csv(ctx.text(chk["csv"]))
    fronts = {}
    for mode in MODES:
        pts = [check_csv_row(g, ctx.lib, r, mode, k) for r in rows if r["mode"] == mode]
        check_nondominated(pts, f"{g.name} {mode} k={k}")
        same_points(pts, _pts(ctx.known(g, mode, k, chk["expect"])), f"{g.name} {mode} k={k}")
        fronts[mode] = pts
    need(len(rows) == sum(map(len, fronts.values())), f"{g.name}: compare CSV has a row of no mode")
    need(len(fronts["single-vdd"]) == 1, f"{g.name}: single-vdd front has {len(fronts['single-vdd'])} points")
    covered = sum(weakly_covers(fronts["fgdvs"], [m]) for m in fronts["multi-vdd"])
    need(ctx.json(chk["json"])["coverage"]["covered_by_fgdvs"] == covered,
         f"{g.name}: coverage differs from {covered}")


def check_sweep(ctx: Context, chk: Mapping, stdout: str) -> None:
    g, mode = ctx.graph(chk["graph"]), chk["mode"]
    runs = ctx.json(chk["json"])["runs"]
    summary = read_csv(ctx.text(chk["csv"]))
    need([r["k"] for r in runs] == list(range(chk["k_max"] + 1)), f"{g.name}: sweep ran k={[r['k'] for r in runs]}")
    fronts: list[tuple[int, list[Point]]] = []
    for run, row in zip(runs, summary, strict=True):
        k = run["k"]
        label = f"{g.name} {mode} k={k}"
        pts = [check_json_point(g, ctx.lib, item, mode, k)[0] for item in run["front"]]
        check_nondominated(pts, label)
        same_points(pts, _pts(ctx.known(g, mode, k, chk["expect"])), label)
        areas, powers = [a for a, _ in pts], [p for _, p in pts]
        need(int(row["front_size"]) == len(pts) and int(row["min_area"]) == min(areas)
             and int(row["max_area"]) == max(areas) and abs(float(row["min_power"]) - min(powers)) <= TOL
             and abs(float(row["max_power"]) - max(powers)) <= TOL, f"{label}: summary row {row} is off")
        if mode == "fgdvs" and fronts:
            need(weakly_covers(pts, fronts[-1][1]), f"{label}: front does not cover the k={k - 1} front")
        if mode == "single-vdd":
            need(len(pts) == 1, f"{label}: single-vdd front has {len(pts)} points")
        fronts.append((windows(g, k).bound, pts))
    got = []
    for row in read_csv(ctx.text(chk["front3"])):
        area, power = check_csv_row(g, ctx.lib, row, mode, int(row["k"]))
        got.append((int(row["latency"]), area, power))
    want = merge3(fronts)
    ok = len(got) == len(want) and all(
        a[:2] == b[:2] and abs(a[2] - b[2]) <= TOL for a, b in zip(sorted(got), want))
    need(ok, f"{g.name}: front3 {sorted(got)} is not the merge {want}")


def check_first(ctx: Context, chk: Mapping, stdout: str) -> None:
    """bb-first: the answer meets the budget, and is found whenever a known
    front point meets it.  On a graph with a single schedule (every window
    one step wide) the answer is that schedule."""
    g, mode, k = ctx.graph(chk["graph"]), chk["mode"], chk["k"]
    doc = ctx.json(chk["json"])
    win = windows(g, k)
    if all(win.asap[v] == win.alap[v] for v in g.types):
        need(doc["feasible"], f"{g.name}: the only schedule was not found")
        need(parse_json_schedule(doc["schedule"]) == {v: (win.asap[v], 1) for v in g.types},
             f"{g.name}: answer is not the only schedule")
    known = ctx.known(g, mode, k, chk["expect"], exact=False) if chk["expect"] else []
    if not doc["feasible"]:
        need(not any(meets(chk, p.get("area_by_type", {}), p["power"]) for p in known),
             f"{g.name}: NONE under a budget that a known front point meets")
        return
    (area, power), c, _s = check_json_point(g, ctx.lib, doc, mode, k)
    need(meets(chk, c.area_by_type, c.power), f"{g.name}: answer ({area}, {power}) breaks the budget")
    need(stdout.startswith(f"{g.name}: ({area}, {power:.6f})"), f"{g.name}: printed answer differs")


def check_list(ctx: Context, chk: Mapping, stdout: str) -> None:
    """list: the answer meets the budget.  The cap lies above the slowest-
    first greedy schedule's power, so slowest-first never falls back to a
    faster level and the answer is that schedule."""
    g, mode, k = ctx.graph(chk["graph"]), chk["mode"], chk["k"]
    doc = ctx.json(chk["json"])
    need(doc["feasible"], f"{g.name}: list found no schedule under {chk['power_cap']}")
    (area, power), c, s = check_json_point(g, ctx.lib, doc, mode, k)
    need(meets(chk, c.area_by_type, c.power), f"{g.name}: answer ({area}, {power}) breaks the budget")
    need(s == greedy(g, ctx.lib, windows(g, k), mode, slowest=True),
         f"{g.name}: answer is not the slowest-first greedy schedule")
    need(stdout.startswith(f"{g.name}: ({area}, {power:.6f})"), f"{g.name}: printed answer differs")


def check_budget_front(ctx: Context, chk: Mapping, stdout: str) -> None:
    """bb under a budget: every point meets it; under a power cap the front
    is the unconstrained front filtered by the cap; under area caps every
    unconstrained front point within the caps is on it."""
    g, mode, k = ctx.graph(chk["graph"]), chk["mode"], chk["k"]
    label = f"{g.name} {mode} k={k} budget"
    pts = []
    for item in ctx.json(chk["json"])["front"]:
        pt, c, _s = check_json_point(g, ctx.lib, item, mode, k)
        need(meets(chk, c.area_by_type, c.power), f"{label}: point {pt} breaks the budget")
        pts.append(pt)
    check_nondominated(pts, label)
    inside = _pts(p for p in ctx.known(g, mode, k, "reference")
                  if meets(chk, p["area_by_type"], p["power"]))
    if chk.get("power_cap") is not None:
        same_points(pts, inside, label)
    else:
        missing = [p for p in inside if not any(q[0] == p[0] and abs(q[1] - p[1]) <= TOL for q in pts)]
        need(not missing, f"{label}: misses unconstrained points {fmt(missing)} within the caps")


CHECKS = {
    "pareto": check_pareto,
    "compare": check_compare,
    "sweep": check_sweep,
    "budget-bb-first": check_first,
    "budget-list": check_list,
    "budget-bb": check_budget_front,
}


def check_reference(reference: Mapping, lib: Library, graphs: Mapping[str, Graph]) -> None:
    """Every stored reference point is a valid schedule of the stated cost."""
    for key, cell in reference.items():
        name, mode, k = key.split("/")
        g = graphs[name]
        win = windows(g, int(k[1:]))
        for p in cell["points"]:
            s = parse_packed(p["schedule"])
            check_schedule(g, lib, win, mode, s)
            c = cost(g, lib, mode, win.bound, s)
            need(c.area == p["area"] and abs(c.power - p["power"]) <= TOL
                 and c.area_by_type == p["area_by_type"], f"reference {key}: point {p} is off")
        check_nondominated(_pts(cell["points"]), f"reference {key}")
