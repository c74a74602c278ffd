"""Resource libraries, architecture cost models, and pareto fronts.

Three architecture styles price the same schedule:

* ``SINGLE_VDD``  -- units run at the fastest (level-0) voltage only.
* ``MULTI_VDD``   -- each allocated unit is fixed at one voltage level for
  the whole run, so per-(type, level) concurrency maxima are summed.
* ``FGDVS``       -- units switch voltage per operation and are power-gated
  while idle, at the price of a per-switch overhead.

Outside FGDVS every allocated unit leaks for the whole latency bound; under
FGDVS an op leaks only while it runs.  ``Pricing`` states these rules once,
as a table per (library, mode) that ``ResourceLibrary.pricing`` builds on
first use; the search, the list scheduler, the oracle and ``validate`` read it.
Cycle counts are unique within an op type, so (type, duration) identifies
a node's level.  ``CostState`` turns placed nodes and their rows into a
``CostTuple``: the list scheduler prices each candidate with it, and
``schedule_cost`` adds a whole schedule to one.

Library file format (line oriented, ``#`` starts a comment)::

    type <optype>
    level vdd=<float> cycles=<int> pdyn=<float> plk=<float> psw=<float>

Levels are listed fastest-first.  pdyn and plk are mW per occupied c-step;
psw is mW charged once per voltage-switch event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
        self._pricing: dict[ArchMode, Pricing] = {}
        for op, levels in levels_by_type.items():
            levels = tuple(levels)
            if not levels:
                raise LibraryError(f"op type {op!r} has no voltage levels")
            for idx, lvl in enumerate(levels):
                _check_level(op, lvl, levels[idx - 1] if idx else None)
            self._levels[op] = levels

    def op_types(self) -> tuple[str, ...]:
        return tuple(self._levels)

    def levels(self, op: str) -> tuple[VoltageLevel, ...]:
        try:
            return self._levels[op]
        except KeyError:
            raise LibraryError(f"op type {op!r} is not in the library") from None

    def fastest(self, op: str) -> VoltageLevel:
        return self.levels(op)[0]

    def allowed_durations(self) -> dict[str, frozenset[int]]:
        return {op: frozenset(lvl.cycles for lvl in self.levels(op)) for op in self._levels}

    def pricing(self, mode: ArchMode) -> Pricing:
        """The mode's price table for this library, built on first use."""
        table = self._pricing.get(mode)
        if table is None:
            table = self._pricing[mode] = Pricing(self, mode)
        return table


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


_OVERFLOW = "schedule power is too large for a float; the library's power values are too large"


Row = tuple[int, int, float, float, float]  # (cycles, kind, pdyn*cycles, per-op leak, psw)


class Pricing:
    """One mode's rules for one library, as rows and unit kinds.

    ``rows(op)`` maps each cycle count the mode may run ``op`` in to its
    ``Row``, fastest first; the per-op leak is ``plk * cycles`` under FGDVS
    and 0.0 otherwise.  ``kinds[row kind]`` is ``(type, always-on leak
    rate)``: ``plk`` outside FGDVS, 0.0 under it.  ``switching`` says
    whether switch events are charged.
    """

    def __init__(self, lib: ResourceLibrary, mode: ArchMode):
        self.switching = gated = mode is ArchMode.FGDVS
        per_level = mode is ArchMode.MULTI_VDD
        n_usable = 1 if mode is ArchMode.SINGLE_VDD else None
        self.kinds: list[tuple[str, float]] = []
        self._rows: dict[str, dict[int, Row]] = {}
        for op in lib.op_types():
            rows = self._rows[op] = {}
            for idx, lvl in enumerate(lib.levels(op)[:n_usable]):
                if idx == 0 or per_level:
                    self.kinds.append((op, 0.0 if gated else lvl.p_lk))
                leak = lvl.p_lk * lvl.cycles if gated else 0.0
                rows[lvl.cycles] = (
                    lvl.cycles, len(self.kinds) - 1, lvl.p_dyn * lvl.cycles, leak, lvl.p_sw
                )
        self._miss = (
            "node {nid}: duration {cycles} is not the level-0 cycle count for {op!r} in single-vdd mode"
            if n_usable else "no {op!r} level takes {cycles} cycles"
        )

    def rows(self, op: str) -> dict[int, Row]:
        """Each cycle count the mode may run ``op`` in, fastest first, with its row."""
        try:
            return self._rows[op]
        except KeyError:
            raise LibraryError(f"op type {op!r} is not in the library") from None

    def lookup(self, nid: int, op: str, cycles: int) -> Row:
        """The row of node ``nid``, of type ``op``, when it takes ``cycles``."""
        try:
            return self._rows[op][cycles]
        except KeyError:
            self.rows(op)  # raises for a type not in the library
            raise LibraryError(self._miss.format(nid=nid, op=op, cycles=cycles)) from None

    def durations(self) -> dict[str, frozenset[int]]:
        """The cycle counts the mode may use, per type."""
        return {op: frozenset(rows) for op, rows in self._rows.items()}

    def cost(
        self,
        area_by_type: dict[str, int],
        dynamic: Iterable[float],
        op_leakage: Iterable[float],
        units: Iterable[tuple[int, int]],
        switching: Iterable[float],
        latency_bound: int,
    ) -> CostTuple:
        """The CostTuple of the picked rows' terms and ``(kind, count)`` units.

        Each component is one ``math.fsum``, correctly rounded whatever the
        order of its terms; a mode's uncharged terms are exact zeros, which
        change no sum.  Power too large for a float raises LibraryError.
        """
        always_on = [count * self.kinds[k][1] * latency_bound for k, count in units]
        try:
            dyn = math.fsum(dynamic)
            leak = math.fsum(chain(op_leakage, always_on))
            sw = math.fsum(switching)
        except OverflowError:  # finite terms whose sum is too large
            raise LibraryError(_OVERFLOW) from None
        if not math.isfinite(dyn + leak + sw):  # a term is too large
            raise LibraryError(_OVERFLOW)
        return CostTuple(
            area_total=sum(area_by_type.values()),
            area_by_type=area_by_type,
            dynamic=dyn,
            leakage=leak,
            switching=sw,
            latency=latency_bound,
        )


def switch_charges(
    ops_by_type: Iterable[list[tuple[int, int, int, float]]], units: Iterable[int]
) -> list[float]:
    """The FGDVS switch charges of a schedule under greedy instance binding.

    ``ops_by_type`` holds one list per op type of its ops as
    ``(start, node id, cycles, psw of the op's level)``, and ``units`` the
    type's unit count by the FGDVS area rule, in the same order.  Each list
    is sorted in place and its ops are bound in ascending (start, node id)
    order to the type's unit pool.  An op is charged its level's psw unless
    it lands on a never-used unit or on a free unit whose previous op had
    the same duration.  Preference: same-duration free unit, then never-used
    unit, then any free unit (charged); ties go to the lowest unit index.
    This is the only switching rule: ``CostState`` and the search's leaf
    costing both call it, and ``Pricing.cost`` sums the charges.
    """
    charges: list[float] = []
    for ops, count in zip(ops_by_type, units):
        ops.sort()
        # Never-used units are taken lowest index first, so the used ones
        # are always the first len(pool) units.
        pool: list[list[int]] = []  # [busy_until, last_dur] per used unit
        for start, _nid, dur, p_sw in ops:
            spare = None  # the first free used unit
            for unit in pool:
                if unit[0] < start:
                    if unit[1] == dur:
                        break
                    spare = spare or unit
            else:
                if len(pool) < count:
                    pool.append([start + dur - 1, dur])
                    continue
                unit = spare
                charges.append(p_sw)
            unit[0] = start + dur - 1
            unit[1] = dur
    return charges


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


class CostState:
    """The cost of a schedule built one node at a time, with a one-step undo.

    ``add`` places a node with its row from the mode's ``Pricing`` table:
    per unit kind it keeps an occupancy count per c-step and the peak, per
    type the area that the peaks make, and the row of each placed node,
    whose dynamic and per-op leak terms are summed.  Where the mode charges
    switching it also keeps each type's ops as ``(start, node id, cycles,
    psw)``, and caches each type's ``switch_charges`` until an ``add`` or
    ``undo`` of that type drops them.
    ``cost`` recomputes the dropped charges and makes one ``Pricing.cost``
    call; its ``fsum`` sums do not depend on term order, so the cost is the
    same whatever order the nodes came in.  ``undo`` takes back the last
    ``add`` exactly.  A start before step 1 or an end after the latency
    bound raises ValueError.
    """

    def __init__(self, price: Pricing, latency_bound: int):
        self.price = price
        self.switching = price.switching
        self.bound = latency_bound
        self.busy: dict[int, list[int]] = {}  # per unit kind, the ops running per step
        self.peaks: dict[int, int] = {}  # peak concurrency per unit kind
        self.area: dict[str, int] = {}
        self.rows: list[Row] = []  # per placed node, the row of its level
        self.ops_by_type: dict[str, list[tuple[int, int, int, float]]] = {}
        self.charges: dict[str, list[float]] = {}  # per type, while its ops and units last
        self._last: tuple = ()

    def add(self, nid: int, op: str, start: int, row: Row) -> None:
        """Place node ``nid``, of type ``op``, at ``start`` with ``row``."""
        cycles, kind = row[0], row[1]
        end = start + cycles
        if start < 1:
            raise ValueError(f"node {nid}: start step {start} is before step 1")
        if end - 1 > self.bound:
            raise ValueError(
                f"schedule completes at step {end - 1}, after the latency bound {self.bound}"
            )
        steps = self.busy.setdefault(kind, [])
        if len(steps) < end:
            steps += [0] * (end - len(steps))
        peak = 0
        for step in range(start, end):
            steps[step] = count = steps[step] + 1
            if count > peak:
                peak = count
        peaks = self.peaks
        old_peak = peaks.get(kind)
        old_area = self.area.get(op)
        if old_peak is None or peak > old_peak:
            peaks[kind] = peak
            self.area[op] = (old_area or 0) + peak - (old_peak or 0)
        self.rows.append(row)
        entry = None
        if self.switching:
            entry = (start, nid, cycles, row[4])
            self.ops_by_type.setdefault(op, []).append(entry)
            self.charges.pop(op, None)
        self._last = (op, kind, start, end, old_peak, old_area, entry)

    def undo(self) -> None:
        """Take back the last ``add``."""
        op, kind, start, end, old_peak, old_area, entry = self._last
        steps = self.busy[kind]
        for step in range(start, end):
            steps[step] -= 1
        for values, key, old in ((self.peaks, kind, old_peak), (self.area, op, old_area)):
            if old is None:
                del values[key]
            else:
                values[key] = old
        self.rows.pop()
        if self.switching:
            ops = self.ops_by_type[op]
            ops.remove(entry)
            if not ops:
                del self.ops_by_type[op]
            self.charges.pop(op, None)

    def cost(self) -> CostTuple:
        """The CostTuple of the nodes placed so far."""
        charges = self.charges
        for op, ops in self.ops_by_type.items():
            if op not in charges:
                charges[op] = switch_charges([ops], [self.area[op]])
        return self.price.cost(
            dict(self.area), map(itemgetter(2), self.rows), map(itemgetter(3), self.rows),
            self.peaks.items(), chain.from_iterable(charges.values()), self.bound,
        )


def schedule_cost(
    g: Dfg,
    schedule: Schedule,
    lib: ResourceLibrary,
    mode: ArchMode,
    latency_bound: int,
) -> CostTuple:
    """Area and average power of a (possibly partial) schedule: its nodes
    added to one ``CostState``.

    Every node's row is looked up first, so a duration the mode cannot use
    raises LibraryError before a placement can raise ValueError.
    """
    price = lib.pricing(mode)
    lookup = price.lookup
    nodes = g.nodes
    rows = [lookup(nid, nodes[nid], dur) for nid, (_start, dur) in schedule.items()]
    state = CostState(price, latency_bound)
    add = state.add
    for (nid, (start, _dur)), row in zip(schedule.items(), rows):
        add(nid, nodes[nid], start, row)
    return state.cost()


def _no_worse(a: tuple, b: tuple) -> bool:
    """True iff point a is no worse than point b in every objective.

    The tolerance is for power; on the integer objectives it changes nothing.
    """
    return all(x <= y + POWER_EPS for x, y in zip(a, b))


class ParetoEntry(NamedTuple):
    cost: CostTuple
    schedule: Schedule


class ParetoSet:
    """Mutually non-dominated cost points with their schedules.

    ``objectives`` names the two or more CostTuple attributes to minimise:
    ``(area_total, power)`` by default, ``(latency, area_total, power)`` for
    a front merged across latency bounds.  At most one member per distinct
    point; the first schedule found for a point is kept.  ``points`` holds
    each entry's objective values in entry order, one list kept in place.
    """

    def __init__(self, objectives: tuple[str, ...] = ("area_total", "power")):
        self._point = attrgetter(*objectives)
        self.entries: list[ParetoEntry] = []
        self.points: list[tuple] = []

    def covers(self, cost: CostTuple) -> bool:
        """True iff some member is no worse than ``cost`` in every objective."""
        point = self._point(cost)
        return any(_no_worse(p, point) for p in self.points)

    def insert(self, cost: CostTuple, schedule: Schedule) -> bool:
        """Add a candidate; returns True iff it joined the front."""
        if self.covers(cost):
            return False
        # No member covers cost, so cost covering a member means dominating it.
        point = self._point(cost)
        kept = [i for i, p in enumerate(self.points) if not _no_worse(point, p)]
        self.entries = [self.entries[i] for i in kept]
        self.points[:] = [self.points[i] for i in kept]
        self.entries.append(ParetoEntry(cost, dict(schedule)))
        self.points.append(point)
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ParetoEntry]:
        return iter(self.entries)

    def sorted_entries(self) -> list[ParetoEntry]:
        return sorted(self.entries, key=lambda e: self._point(e.cost))

    def cost_points(self) -> list[tuple]:
        return sorted(self.points)
