"""Resource libraries, architecture cost models, and pareto fronts.

Three architecture styles are costed for the same schedule:

* ``SINGLE_VDD``  -- every unit runs at the fastest (level-0) voltage.
* ``MULTI_VDD``   -- each allocated unit is fixed at one voltage level for
  the whole run, so per-(type, level) concurrency maxima are summed.
* ``FGDVS``       -- units switch voltage per operation and are power-gated
  while idle, at the price of a per-switch overhead.

A node's duration selects its voltage level: cycle counts are unique within
an op type, so (type, duration) identifies the level.

Library file format (line oriented, ``#`` starts a comment)::

    type <optype>
    level vdd=<float> cycles=<int> pdyn=<float> plk=<float> psw=<float>

Levels are listed fastest-first.  pdyn and plk are mW per occupied c-step;
psw is mW charged once per voltage-switch event.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple, Sequence

from .dfg import Dfg, Schedule

POWER_EPS = 1e-9
"""Absolute tolerance (mW) below which two power values compare equal."""


class ArchMode(Enum):
    SINGLE_VDD = "single-vdd"
    MULTI_VDD = "multi-vdd"
    FGDVS = "fgdvs"


class LibraryError(ValueError):
    """Malformed resource library document or unknown (type, duration)."""


@dataclass(frozen=True)
class VoltageLevel:
    vdd: float
    cycles: int
    p_dyn: float  # dynamic power, mW per occupied c-step
    p_lk: float   # leakage power, mW per powered c-step
    p_sw: float   # overhead, mW per switch event onto this level


def _check_level(op: str, lvl: VoltageLevel, prev: VoltageLevel | None) -> None:
    """Raise LibraryError unless ``lvl`` may follow ``prev`` in ``op``'s levels.

    Values are finite, cycles >= 1 and powers >= 0; down a type's list,
    fastest first, cycles strictly increase (so they are unique) and vdd and
    pdyn strictly decrease.
    """
    if not all(math.isfinite(x) for x in (lvl.vdd, lvl.p_dyn, lvl.p_lk, lvl.p_sw)):
        raise LibraryError(f"{op}: vdd and power values must be finite")
    if lvl.cycles < 1:
        raise LibraryError(f"{op}: cycle count must be >= 1, got {lvl.cycles}")
    if min(lvl.p_dyn, lvl.p_lk, lvl.p_sw) < 0:
        raise LibraryError(f"{op}: power values must be >= 0")
    if prev is None:
        return
    if lvl.cycles == prev.cycles:
        raise LibraryError(f"{op}: duplicate cycle count {lvl.cycles}")
    if lvl.cycles < prev.cycles:
        raise LibraryError(f"{op}: levels must be fastest-first (cycles strictly increasing)")
    if lvl.vdd >= prev.vdd:
        raise LibraryError(f"{op}: vdd must strictly decrease across levels")
    if lvl.p_dyn >= prev.p_dyn:
        raise LibraryError(f"{op}: pdyn must strictly decrease across levels")


class ResourceLibrary:
    """Per-op-type voltage levels, fastest first."""

    def __init__(self, levels_by_type: Mapping[str, Sequence[VoltageLevel]]):
        self._levels: dict[str, tuple[VoltageLevel, ...]] = {}
        self._by_cycles: dict[str, dict[int, tuple[int, VoltageLevel]]] = {}
        for op, levels in levels_by_type.items():
            levels = tuple(levels)
            if not levels:
                raise LibraryError(f"op type {op!r} has no voltage levels")
            for idx, lvl in enumerate(levels):
                _check_level(op, lvl, levels[idx - 1] if idx else None)
            self._levels[op] = levels
            self._by_cycles[op] = {
                lvl.cycles: (idx, lvl) for idx, lvl in enumerate(levels)
            }

    def op_types(self) -> tuple[str, ...]:
        return tuple(self._levels)

    def levels(self, op: str) -> tuple[VoltageLevel, ...]:
        try:
            return self._levels[op]
        except KeyError:
            raise LibraryError(f"op type {op!r} is not in the library") from None

    def fastest(self, op: str) -> VoltageLevel:
        return self.levels(op)[0]

    def level_for(self, op: str, cycles: int) -> tuple[int, VoltageLevel]:
        """(level index, level) for a duration, or LibraryError."""
        table = self._by_cycles.get(op)
        if table is None:
            raise LibraryError(f"op type {op!r} is not in the library")
        hit = table.get(cycles)
        if hit is None:
            raise LibraryError(f"no {op!r} level takes {cycles} cycles")
        return hit

    def cycle_counts(self, op: str) -> tuple[int, ...]:
        return tuple(lvl.cycles for lvl in self.levels(op))

    def allowed_durations(self) -> dict[str, frozenset[int]]:
        return {op: frozenset(t) for op, t in
                ((op, self.cycle_counts(op)) for op in self._levels)}


def load_resource_library(text: str) -> ResourceLibrary:
    """Parse library text; errors carry 1-based line numbers."""
    levels_by_type: dict[str, list[VoltageLevel]] = {}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "type":
            if len(fields) != 2:
                raise LibraryError(f"line {line_no}: expected 'type <optype>'")
            current = fields[1]
            if current in levels_by_type:
                raise LibraryError(f"line {line_no}: duplicate op type {current!r}")
            levels_by_type[current] = []
        elif fields[0] == "level":
            if current is None:
                raise LibraryError(f"line {line_no}: level line before any 'type'")
            kv: dict[str, str] = {}
            for tok in fields[1:]:
                if "=" not in tok:
                    raise LibraryError(f"line {line_no}: expected key=value, got {tok!r}")
                key, val = tok.split("=", 1)
                if key in kv:
                    raise LibraryError(f"line {line_no}: duplicate field {key!r}")
                kv[key] = val
            required = ("vdd", "cycles", "pdyn", "plk", "psw")
            missing = [k for k in required if k not in kv]
            extra = [k for k in kv if k not in required]
            if missing or extra:
                raise LibraryError(
                    f"line {line_no}: level needs fields {', '.join(required)}"
                )
            try:
                lvl = VoltageLevel(
                    vdd=float(kv["vdd"]),
                    cycles=int(kv["cycles"]),
                    p_dyn=float(kv["pdyn"]),
                    p_lk=float(kv["plk"]),
                    p_sw=float(kv["psw"]),
                )
            except ValueError:
                raise LibraryError(f"line {line_no}: malformed numeric field") from None
            levels = levels_by_type[current]
            try:
                _check_level(current, lvl, levels[-1] if levels else None)
            except LibraryError as exc:
                raise LibraryError(f"line {line_no}: {exc}") from None
            levels.append(lvl)
        else:
            raise LibraryError(f"line {line_no}: unknown directive {fields[0]!r}")
    if not levels_by_type:
        raise LibraryError("library defines no op types")
    return ResourceLibrary(levels_by_type)


def _occupancy(steps: Iterator[tuple[object, int, int]]) -> dict[object, int]:
    """Max concurrent occupancy per key over (key, start, duration) items."""
    hist: dict[object, defaultdict[int, int]] = {}
    peak: dict[object, int] = {}
    for key, start, dur in steps:
        row = hist.setdefault(key, defaultdict(int))
        best = peak.get(key, 0)
        for step in range(start, start + dur):
            row[step] += 1
            if row[step] > best:
                best = row[step]
        peak[key] = best
    return peak


def area_of(
    g: Dfg, schedule: Schedule, lib: ResourceLibrary, mode: ArchMode
) -> tuple[int, dict[str, int]]:
    """(total units, units per op type) needed to host ``schedule``.

    FGDVS and SINGLE_VDD allocate per-type peak concurrency; MULTI_VDD pins
    each unit to one level, so per-(type, level) peaks are summed per type.
    The schedule may be partial; missing nodes contribute nothing.
    SINGLE_VDD rejects any duration other than the level-0 cycle count.
    """
    if mode is ArchMode.MULTI_VDD:
        def items() -> Iterator[tuple[object, int, int]]:
            for nid, (start, dur) in schedule.items():
                op = g.nodes[nid]
                idx, _ = lib.level_for(op, dur)
                yield (op, idx), start, dur

        peak = _occupancy(items())
        by_type: dict[str, int] = defaultdict(int)
        for (op, _idx), count in peak.items():
            by_type[op] += count
    else:
        if mode is ArchMode.SINGLE_VDD:
            for nid, (_start, dur) in schedule.items():
                op = g.nodes[nid]
                if dur != lib.fastest(op).cycles:
                    raise LibraryError(
                        f"node {nid}: duration {dur} is not the level-0 "
                        f"cycle count for {op!r} in single-vdd mode"
                    )

        def items() -> Iterator[tuple[object, int, int]]:
            for nid, (start, dur) in schedule.items():
                yield g.nodes[nid], start, dur

        by_type = dict(_occupancy(items()))  # type: ignore[arg-type]
    clean = {op: int(n) for op, n in by_type.items()}
    return sum(clean.values()), clean


class PowerBreakdown(NamedTuple):
    dynamic: float
    leakage: float
    switching: float
    total: float


def _fgdvs_switching(g: Dfg, schedule: Schedule, lib: ResourceLibrary) -> float:
    """Switch overhead under greedy instance binding.

    Ops of each type are bound in ascending (start, node id) order to the
    per-type unit pool sized by the FGDVS area rule.  An op is charged its
    level's psw unless it lands on a never-used unit or on a free unit whose
    previous op had the same duration.  Preference: same-duration free unit,
    then never-used unit, then any free unit (charged); ties go to the
    lowest unit index.
    """
    _, pool = area_of(g, schedule, lib, ArchMode.FGDVS)
    by_type: dict[str, list[tuple[int, int, int]]] = defaultdict(list)
    for nid, (start, dur) in schedule.items():
        by_type[g.nodes[nid]].append((start, nid, dur))
    charges: list[float] = []
    for op, ops in by_type.items():
        ops.sort()
        units: list[list[int]] = [[0, 0] for _ in range(pool[op])]  # [busy_until, last_dur]
        for start, _nid, dur in ops:
            free = [i for i, u in enumerate(units) if u[0] < start]
            chosen: int | None = None
            for i in free:
                if units[i][1] == dur and units[i][0] > 0:
                    chosen = i
                    break
            if chosen is None:
                for i in free:
                    if units[i][0] == 0:  # never used
                        chosen = i
                        break
            if chosen is None:
                chosen = free[0]
                _, lvl = lib.level_for(op, dur)
                charges.append(lvl.p_sw)
            units[chosen][0] = start + dur - 1
            units[chosen][1] = dur
    return math.fsum(charges)


def power_of(
    g: Dfg,
    schedule: Schedule,
    lib: ResourceLibrary,
    mode: ArchMode,
    latency_bound: int,
) -> PowerBreakdown:
    """Average-power breakdown of a (possibly partial) schedule.

    Dynamic power is each op's per-step draw times its duration.  Leakage is
    per-op under FGDVS (idle units are gated) but per allocated always-on
    unit times the latency bound otherwise.  Switching overhead applies to
    FGDVS only.  SINGLE_VDD durations are checked by ``area_of``, which the
    leakage term calls.
    """
    dyn_terms: list[float] = []
    fg_leak_terms: list[float] = []
    completion = 0
    for nid, (start, dur) in schedule.items():
        op = g.nodes[nid]
        _, lvl = lib.level_for(op, dur)
        dyn_terms.append(lvl.p_dyn * dur)
        fg_leak_terms.append(lvl.p_lk * dur)
        completion = max(completion, start + dur - 1)
    if completion > latency_bound:
        raise ValueError(
            f"schedule completes at step {completion}, after the latency bound {latency_bound}"
        )
    dynamic = math.fsum(dyn_terms)
    if mode is ArchMode.FGDVS:
        leakage = math.fsum(fg_leak_terms)
        switching = _fgdvs_switching(g, schedule, lib)
    else:
        _, by_key = area_of(g, schedule, lib, mode)
        if mode is ArchMode.SINGLE_VDD:
            leakage = math.fsum(
                count * lib.fastest(op).p_lk * latency_bound
                for op, count in by_key.items()
            )
        else:
            def mv_items() -> Iterator[tuple[object, int, int]]:
                for nid, (start, dur) in schedule.items():
                    op = g.nodes[nid]
                    idx, _ = lib.level_for(op, dur)
                    yield (op, idx), start, dur

            peaks = _occupancy(mv_items())
            leakage = math.fsum(
                count * lib.levels(op)[idx].p_lk * latency_bound
                for (op, idx), count in peaks.items()
            )
        switching = 0.0
    return PowerBreakdown(dynamic, leakage, switching, dynamic + leakage + switching)


@dataclass
class CostTuple:
    """Area/power cost of one schedule under one mode and latency bound."""

    area_total: int
    area_by_type: dict[str, int]
    dynamic: float
    leakage: float
    switching: float
    latency: int

    @property
    def power(self) -> float:
        return self.dynamic + self.leakage + self.switching


@dataclass(frozen=True)
class Budget:
    """Per-type area caps, or a total power cap, or no constraint.

    At most one of the two constraint kinds may be set.
    """

    area_caps: Mapping[str, int] | None = None
    power_cap: float | None = None

    def __post_init__(self) -> None:
        if self.area_caps is not None and self.power_cap is not None:
            raise ValueError("a budget constrains area or power, not both")
        if self.area_caps is not None and any(c < 0 for c in self.area_caps.values()):
            raise ValueError("area caps must be >= 0")
        if self.power_cap is not None and not 0 <= self.power_cap < math.inf:
            raise ValueError(f"power cap must be finite and >= 0, got {self.power_cap}")

    @property
    def unconstrained(self) -> bool:
        return self.area_caps is None and self.power_cap is None

    def allows(self, area_by_type: Mapping[str, int], power: float) -> bool:
        if self.area_caps is not None:
            for op, cap in self.area_caps.items():
                if area_by_type.get(op, 0) > cap:
                    return False
        if self.power_cap is not None and power > self.power_cap + POWER_EPS:
            return False
        return True


def schedule_cost(
    g: Dfg,
    schedule: Schedule,
    lib: ResourceLibrary,
    mode: ArchMode,
    latency_bound: int,
) -> CostTuple:
    area_total, by_type = area_of(g, schedule, lib, mode)
    pb = power_of(g, schedule, lib, mode, latency_bound)
    return CostTuple(
        area_total=area_total,
        area_by_type=by_type,
        dynamic=pb.dynamic,
        leakage=pb.leakage,
        switching=pb.switching,
        latency=latency_bound,
    )


def _no_worse(a: tuple, b: tuple, eps: float = POWER_EPS) -> bool:
    """True iff point a is no worse than point b in every objective.

    The tolerance is for power; on the integer objectives it changes nothing.
    """
    return all(x <= y + eps for x, y in zip(a, b))


def dominates(c1: CostTuple, c2: CostTuple, eps: float = POWER_EPS) -> bool:
    """True iff c1 is no worse in (area, power) and strictly better in one."""
    a, b = (c1.area_total, c1.power), (c2.area_total, c2.power)
    return _no_worse(a, b, eps) and not _no_worse(b, a, eps)


def cost_equal(c1: CostTuple, c2: CostTuple, eps: float = POWER_EPS) -> bool:
    a, b = (c1.area_total, c1.power), (c2.area_total, c2.power)
    return _no_worse(a, b, eps) and _no_worse(b, a, eps)


class ParetoEntry(NamedTuple):
    cost: CostTuple
    schedule: Schedule


class ParetoSet:
    """Mutually non-dominated cost points with their schedules.

    ``objectives`` names the two or more CostTuple attributes to minimise:
    ``(area_total, power)`` by default, ``(latency, area_total, power)`` for
    a front merged across latency bounds.  At most one member per distinct
    point; the first schedule found for a point is kept.
    """

    def __init__(self, objectives: tuple[str, ...] = ("area_total", "power")):
        self._point = attrgetter(*objectives)
        self.entries: list[ParetoEntry] = []
        self._points: list[tuple] = []  # each entry's objective values

    def covers(self, cost: CostTuple) -> bool:
        """True iff some member is no worse than ``cost`` in every objective."""
        point = self._point(cost)
        return any(_no_worse(p, point) for p in self._points)

    def insert(self, cost: CostTuple, schedule: Schedule) -> bool:
        """Add a candidate; returns True iff it joined the front."""
        if self.covers(cost):
            return False
        # No member covers cost, so cost covering a member means dominating it.
        point = self._point(cost)
        kept = [i for i, p in enumerate(self._points) if not _no_worse(point, p)]
        self.entries = [self.entries[i] for i in kept]
        self._points = [self._points[i] for i in kept]
        self.entries.append(ParetoEntry(cost, dict(schedule)))
        self._points.append(point)
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ParetoEntry]:
        return iter(self.entries)

    def sorted_entries(self) -> list[ParetoEntry]:
        return sorted(self.entries, key=lambda e: self._point(e.cost))

    def cost_points(self) -> list[tuple]:
        return sorted(self._points)
