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
a node's level.  ``schedule_cost`` prices a whole schedule in one pass.
``CostState`` holds a list-scheduling prefix: ``probe`` prices the prefix
plus a candidate node and changes nothing, and ``place`` keeps the
candidate.  A probe costs what the candidate changes: the placed rows'
terms are kept as exact running sums (Shewchuk's partials, as in
``math.fsum``), and under FGDVS it binds the ops of the candidate's type
from the candidate's place on again.

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
from bisect import bisect_left
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


def _check_span(nid: int, start: int, end: int, bound: int) -> None:
    """Raise ValueError unless node ``nid`` runs in steps 1 .. ``bound``."""
    if start < 1:
        raise ValueError(f"node {nid}: start step {start} is before step 1")
    if end - 1 > bound:
        raise ValueError(f"schedule completes at step {end - 1}, after the latency bound {bound}")


def _occupy(steps: list[int], start: int, end: int) -> None:
    """Count one more op running in each step of ``start .. end - 1``."""
    if len(steps) < end:
        steps += [0] * (end - len(steps))
    for step in range(start, end):
        steps[step] += 1


def _bind(
    ops: list[tuple[int, int, int, float]],
    units: int,
    pool: list[list[int]],
    seats: list[int] | None,
) -> Iterator[float]:
    """The greedy FGDVS binding rule: bind ``ops``, in list order, onto one
    op type's units and yield the psw of each op charged.

    ``pool`` holds ``[busy until, last duration, unit index]`` per used unit,
    in unit order, as the ops bound before left it, and is updated in
    place; at most ``units`` units are used.  An op is charged its level's
    psw unless it lands on a never-used unit or on a free unit whose previous
    op had the same duration.  Preference: same-duration free unit, then
    never-used unit, then any free unit (charged); ties go to the lowest unit
    index.  Never-used units are taken lowest index first, so the used ones
    are always the first len(pool) units.  When ``seats`` is a list, each
    op's unit index is appended to it once the op is bound, so while a
    charge is yielded ``ops[len(seats)]`` is the op it charges.
    """
    record = None if seats is None else seats.append
    for start, _nid, dur, p_sw in ops:
        spare = None  # the first free used unit
        for unit in pool:
            if unit[0] < start:
                if unit[1] == dur:
                    break
                spare = spare or unit
        else:
            if len(pool) < units:
                unit = [start + dur - 1, dur, len(pool)]
                pool.append(unit)
                if record:
                    record(unit[2])
                continue
            unit = spare
            yield p_sw
        unit[0] = start + dur - 1
        unit[1] = dur
        if record:
            record(unit[2])


def type_switch_charges(ops: list[tuple[int, int, int, float]], units: int) -> Iterator[float]:
    """One op type's FGDVS switch charges under greedy instance binding
    (``_bind``), yielded in binding order.

    ``ops`` holds the type's ops as ``(start, node id, cycles, psw of the
    op's level)`` and ``units`` its unit count by the FGDVS area rule.  The
    list is sorted in place and its ops are bound in ascending (start, node
    id) order.  ``schedule_cost`` sums these charges per type, and the
    search reads them one at a time, so it can stop once the charges so far
    already prune.
    """
    ops.sort()
    return _bind(ops, units, [], None)


def _fold(partials: list[float], x: float) -> None:
    """Add ``x`` to ``partials``, nonoverlapping floats of increasing
    magnitude whose exact sum is the exact sum of the terms added so far
    (Shewchuk's grow-expansion, as in ``math.fsum``), so that ``math.fsum``
    of the partials and more terms is ``math.fsum`` of all the terms.  Exact
    while the sum of the terms fits a float."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class _Binder:
    """One FGDVS op type's placed ops, in (start, node id) order, and their
    greedy binding, kept so that a probe can resume it.

    ``seats[i]`` is the unit of ``ops[i]``, ``opened[u]`` the index of the
    op that opened unit u, ``paid`` the charged ops in order and ``counts``
    how many of them pay each psw.  ``terms`` holds the charges as floats
    whose exact sum is theirs, for ``Pricing.cost``.
    """

    __slots__ = ("ops", "units", "seats", "opened", "paid", "counts", "terms", "_probe")

    def __init__(self) -> None:
        self.ops: list[tuple[int, int, int, float]] = []
        self.units = 0  # the unit count of the binding
        self.seats: list[int] = []
        self.opened: list[int] = []
        self.paid: list[tuple[int, int, int, float]] = []
        self.counts: dict[float, int] = {}
        self.terms: list[float] = []

    def probe(self, entry: tuple[int, int, int, float], units: int) -> list[float]:
        """The charge terms with ``entry`` added and ``units`` units, at
        least the binding's; ``place`` keeps them, nothing else changes.

        The binding of the ops before ``entry``'s place is kept, and, when
        the unit count grows, only that of the ops before the first charged
        op (none of them found every unit in use).  The rest is bound again
        on the pool the kept ops left, rebuilt by walking back over their
        units.
        """
        ops, seats, paid = self.ops, self.seats, self.paid
        at = place = bisect_left(ops, entry)
        if units > self.units and paid:
            at = min(at, bisect_left(ops, paid[0]))
        missing = bisect_left(self.opened, at)  # the units ops[:at] used
        pool: list = [None] * missing
        j = at
        while missing:
            j -= 1
            unit = seats[j]
            if pool[unit] is None:
                start, _nid, dur, _psw = ops[j]
                pool[unit] = [start + dur - 1, dur, unit]
                missing -= 1
        tail = [*ops[at:place], entry, *ops[place:]]
        cut = bisect_left(paid, tail[0])  # the charged ops before ``at``
        counts = dict(self.counts)
        for dropped in paid[cut:]:
            counts[dropped[3]] -= 1
        tail_seats: list[int] = []
        tail_paid = []
        for p_sw in _bind(tail, units, pool, tail_seats):
            tail_paid.append(tail[len(tail_seats)])
            counts[p_sw] = counts.get(p_sw, 0) + 1
        # n copies of psw sum to psw * n exactly: psw times each power of
        # two in n, each of them exact.
        terms = [
            p_sw * (1 << bit)
            for p_sw, n in counts.items()
            for bit in range(n.bit_length())
            if n >> bit & 1
        ]
        self._probe = (entry, place, at, units, tail_seats, cut, tail_paid, counts, terms)
        return terms

    def place(self) -> None:
        """Keep the op, the binding and the terms of the last ``probe``."""
        entry, place, at, self.units, tail_seats, cut, tail_paid, self.counts, self.terms = (
            self._probe
        )
        self.ops.insert(place, entry)
        seats, opened = self.seats, self.opened
        seats[at:] = tail_seats
        del opened[bisect_left(opened, at):]
        for i, unit in enumerate(tail_seats, at):
            if unit == len(opened):
                opened.append(i)
        self.paid[cut:] = tail_paid


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
    """The cost of a list-scheduling prefix, grown one node at a time.

    ``probe`` prices the placed nodes plus a candidate and changes nothing;
    ``place`` keeps the candidate of the last probe.  The state keeps per
    unit kind an occupancy count per c-step and the peak, per type the
    area, the placed rows' terms as exact partials (``_fold``) and, where
    switching is charged, a ``_Binder``.  So a probe costs what the
    candidate changes, not the number of nodes placed, and, ``fsum`` being
    order-free, equals ``schedule_cost`` on the same nodes.
    """

    __slots__ = ("price", "bound", "busy", "peaks", "area", "binders", "sums", "_probe")

    def __init__(self, price: Pricing, latency_bound: int):
        self.price = price
        self.bound = latency_bound
        self.busy: dict[int, list[int]] = {}  # per unit kind, the ops running per step
        self.peaks: dict[int, int] = {}  # peak concurrency per unit kind
        self.area: dict[str, int] = {}
        self.binders: dict[str, _Binder] = {}  # per type, where switching is charged
        self.sums: tuple[list[float], list[float]] = ([], [])  # dynamic, per-op leak

    def probe(self, nid: int, op: str, start: int, row: Row) -> CostTuple:
        """The CostTuple of the placed nodes and node ``nid``, of type
        ``op``, at ``start`` with ``row``.  A start before step 1 or an end
        after the latency bound raises ValueError, a power too large for a
        float LibraryError."""
        cycles, kind = row[0], row[1]
        end = start + cycles
        _check_span(nid, start, end, self.bound)
        peaks, area = self.peaks, dict(self.area)
        old = peaks.get(kind, 0)
        peak = max(self.busy.get(kind, ())[start:end], default=0) + 1
        if peak > old:
            peaks = {**peaks, kind: peak}
            area[op] = area.get(op, 0) + peak - old
        binder, switching = None, ()
        if self.price.switching:
            binder = self.binders.get(op) or _Binder()
            terms = binder.probe((start, nid, cycles, row[4]), area[op])
            others = [b.terms for b in self.binders.values() if b is not binder]
            switching = chain(terms, *others)
        self._probe = (op, start, row, peaks, binder)
        dyn, leak = self.sums
        return self.price.cost(
            area, chain(dyn, (row[2],)), chain(leak, (row[3],)), peaks.items(),
            switching, self.bound,
        )

    def place(self) -> None:
        """Place the node of the last ``probe``."""
        op, start, row, peaks, binder = self._probe
        kind = row[1]
        _occupy(self.busy.setdefault(kind, []), start, start + row[0])
        if peaks is not self.peaks:
            self.area[op] = self.area.get(op, 0) + peaks[kind] - self.peaks.get(kind, 0)
            self.peaks = peaks
        # Only a probe that returned is placed: its sums fit a float.
        dyn, leak = self.sums
        _fold(dyn, row[2])
        if row[3]:
            _fold(leak, row[3])
        if binder is not None:
            binder.place()
            self.binders[op] = binder


def schedule_cost(
    g: Dfg,
    schedule: Schedule,
    lib: ResourceLibrary,
    mode: ArchMode,
    latency_bound: int,
) -> CostTuple:
    """Area and average power of a (possibly partial) schedule, in one pass.

    Every node's row is looked up first, so a duration the mode cannot use
    raises LibraryError before a start before step 1 or an end after the
    latency bound raises ValueError.
    """
    price = lib.pricing(mode)
    nodes = g.nodes
    rows = [price.lookup(nid, nodes[nid], dur) for nid, (_start, dur) in schedule.items()]
    busy: dict[int, list[int]] = {}  # per unit kind, the ops running per step
    for (nid, (start, _dur)), row in zip(schedule.items(), rows):
        end = start + row[0]
        _check_span(nid, start, end, latency_bound)
        _occupy(busy.setdefault(row[1], []), start, end)
    peaks = {kind: max(steps) for kind, steps in busy.items()}
    area: dict[str, int] = {}
    for kind, peak in peaks.items():
        op = price.kinds[kind][0]
        area[op] = area.get(op, 0) + peak
    switching: list[float] = []
    if price.switching:
        by_type: dict[str, list[tuple[int, int, int, float]]] = {}
        for (nid, (start, dur)), row in zip(schedule.items(), rows):
            by_type.setdefault(nodes[nid], []).append((start, nid, dur, row[4]))
        for op, ops in by_type.items():
            switching += type_switch_charges(ops, area[op])
    return price.cost(
        area, map(itemgetter(2), rows), map(itemgetter(3), rows), peaks.items(), switching,
        latency_bound,
    )


def _no_worse(a: tuple, b: tuple) -> bool:
    """True iff point a is no worse than point b in every objective.

    The tolerance is for power; on the integer objectives it changes nothing.
    """
    return all(x <= y + POWER_EPS for x, y in zip(a, b))


def staircase(points: Iterable[tuple[int, float]], size: int) -> list[float]:
    """The least power of any ``(area, power)`` point whose area is at most
    ``a``, for each area ``a`` in ``range(size)``; ``math.inf`` where none is.

    Some point is ``_no_worse`` than ``(a, x)`` exactly when
    ``stair[a] <= x + POWER_EPS``: with integer areas, ``_no_worse`` asks
    for a point of area at most ``a`` whose power is at most
    ``x + POWER_EPS``, and one exists exactly when the least such power
    is.  So one index into the staircase decides what ``ParetoSet.covers``
    decides on a two-objective front.
    """
    stair = [math.inf] * size
    for area, power in points:
        if area < size and power < stair[area]:
            stair[area] = power
    for a in range(1, size):
        if stair[a - 1] < stair[a]:
            stair[a] = stair[a - 1]
    return stair


class ParetoEntry(NamedTuple):
    cost: CostTuple
    schedule: Schedule


class ParetoSet:
    """Mutually non-dominated cost points with their schedules.

    ``objectives`` names the two or more CostTuple attributes to minimise:
    ``(area_total, power)`` by default, ``(latency, area_total, power)`` for
    a front merged across latency bounds.  At most one member per distinct
    point; the first schedule found for a point is kept.  ``points`` holds
    each entry's objective values in entry order.
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
        self.points = [self.points[i] for i in kept]
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
