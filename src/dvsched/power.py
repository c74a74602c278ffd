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
``schedule_cost`` adds a whole schedule to one.  A pricing costs what
changed since the last one: the terms of rows priced before are kept as
exact running sums (Shewchuk's partials, as in ``math.fsum``), and under
FGDVS a candidate costs the ops of its type after it in (start, node id)
order, which are bound again from its place.

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
from bisect import bisect_left, bisect_right
from itertools import chain, islice
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


def _bind(
    ops: list[tuple[int, int, int, float]],
    units: int,
    pool: list[list[int]],
    first: int,
    seats: list[int] | None,
) -> Iterator[float]:
    """The greedy FGDVS binding rule: bind ``ops[first:]``, in list order,
    onto one op type's units and yield the psw of each op charged.

    ``pool`` holds ``[busy until, last duration, unit index]`` per used unit,
    in unit order, as the ops before ``first`` left it, and is updated in
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
    for start, _nid, dur, p_sw in islice(ops, first, None) if first else ops:
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
    id) order.  ``CostState`` keeps these charges per type, and the search
    reads them one at a time, so it can stop once the charges so far
    already prune.
    """
    ops.sort()
    return _bind(ops, units, [], 0, None)


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
    """One FGDVS op type's ops and their greedy binding, kept so that it can
    be resumed.

    ``ops`` is in (start, node id) order once the type has been bound;
    before that ``CostState.extend`` appends to it, and the first ``bind``
    sorts it and binds it in one pass, which is all that ``schedule_cost``
    needs.  From the second ``bind`` on the binding is kept: ``seats[i]`` is
    the unit of ``ops[i]`` for every i below ``clean``, ``opened[u]`` the
    index of the op that opened unit u, ``paid`` the charged ops in order
    and ``counts`` how many of them pay each psw.  ``terms`` holds the
    charges as floats whose exact sum is theirs, for ``Pricing.cost``.
    """

    __slots__ = ("ops", "units", "dirty", "clean", "seats", "opened", "paid", "counts", "terms")

    def __init__(self) -> None:
        self.ops: list[tuple[int, int, int, float]] = []
        self.units: int | None = None  # the unit count of the binding
        self.dirty = True  # an op was added or taken back since the binding
        self.seats: list[int] | None = None

    def add(self, entry: tuple[int, int, int, float]) -> None:
        """Insert ``entry`` at its place in a bound type."""
        at = bisect_left(self.ops, entry)
        self.ops.insert(at, entry)
        self.clean = min(self.clean, at)
        self.dirty = True

    def remove(self, entry: tuple[int, int, int, float]) -> None:
        """Take back ``entry``, the op of the last ``add``."""
        if self.units is None:
            self.ops.pop()
        else:
            at = bisect_left(self.ops, entry)
            del self.ops[at]
            self.clean = min(self.clean, at)
        self.dirty = True

    def bind(self, units: int) -> None:
        """Bring the binding up to date for ``units`` units.

        The binding of the ops before the first op added or taken back is
        kept, and so, when the unit count grows, is that of the ops before
        the first charged op (none of them found every unit in use), and,
        when it shrinks to U, that of the ops before the one that opened
        unit U.  From there the greedy binding resumes on the pool those
        ops left, rebuilt by walking back over their units.
        """
        if not self.dirty and units == self.units:
            return
        ops = self.ops
        if self.units is None:  # the first binding: one pass, nothing kept
            self.terms = list(type_switch_charges(ops, units))
            self.units, self.clean, self.dirty = units, len(ops), False
            return
        if self.seats is None:  # the second: bind again, keeping the binding
            self.seats, self.opened, self.paid, self.counts = [], [], [], {}
            at = 0
        else:
            at = self.clean
            if units > self.units and self.paid:
                at = min(at, bisect_left(ops, self.paid[0]))
            elif units < self.units and len(self.opened) > units:
                at = min(at, self.opened[units])
        self.units, self.clean, self.dirty = units, len(ops), False
        seats, opened, paid, counts = self.seats, self.opened, self.paid, self.counts
        # Drop what the ops from ``at`` on (or the op taken back there) held.
        del seats[at:]
        del opened[bisect_left(opened, at):]
        cut = bisect_right(paid, ops[at - 1]) if at else 0
        for entry in paid[cut:]:
            counts[entry[3]] -= 1
        del paid[cut:]
        if at < len(ops):
            pool: list = [None] * len(opened)
            missing = len(pool)
            j = at
            while missing:
                j -= 1
                unit = seats[j]
                if pool[unit] is None:
                    start, _nid, dur, _psw = ops[j]
                    pool[unit] = [start + dur - 1, dur, unit]
                    missing -= 1
            for p_sw in _bind(ops, units, pool, at, seats):
                paid.append(ops[len(seats)])
                counts[p_sw] = counts.get(p_sw, 0) + 1
            opened += [seats.index(unit, at) for unit in range(len(opened), len(pool))]
        # n copies of psw sum to psw * n exactly: psw times each power of
        # two in n, each of them exact.
        self.terms = [
            p_sw * (1 << bit)
            for p_sw, n in counts.items()
            for bit in range(n.bit_length())
            if n >> bit & 1
        ]


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
    type the area that the peaks make, and the row of each placed node.
    Where the mode charges switching it also keeps each type's ops and their
    binding in a ``_Binder``.  ``undo`` takes back the last ``add`` exactly.
    A start before step 1 or an end after the latency bound raises
    ValueError.

    ``cost`` makes one ``Pricing.cost`` call, whose ``fsum`` sums do not
    depend on term order, so the cost is the same whatever order the nodes
    came in.  Its work is in proportion to what changed since the last
    ``cost``, not to the number of nodes placed:

    * the dynamic and per-op leak terms of the rows an earlier ``cost``
      priced are folded into exact partials (``_fold``), and only the rows
      added since are passed as they are;
    * each type with an op added or taken back is bound again from that
      op's place in (start, node id) order, so pricing a candidate costs the
      ops of its type after it; a type whose unit count changed is bound
      again from the first op whose binding the change can alter.

    The first ``cost`` folds nothing and binds each type in one pass, so
    ``schedule_cost``'s single pricing keeps nothing it does not need.
    """

    __slots__ = (
        "price", "switching", "bound", "busy", "peaks", "area", "rows", "binders", "sums",
        "folded", "priced", "_last",
    )

    def __init__(self, price: Pricing, latency_bound: int):
        self.price = price
        self.switching = price.switching
        self.bound = latency_bound
        self.busy: dict[int, list[int]] = {}  # per unit kind, the ops running per step
        self.peaks: dict[int, int] = {}  # peak concurrency per unit kind
        self.area: dict[str, int] = {}
        self.rows: list[Row] = []  # per placed node, the row of its level
        self.binders: dict[str, _Binder] = {}  # per type, where switching is charged
        self.sums: tuple[list[float], list[float]] = ([], [])  # dynamic, per-op leak
        self.folded = 0  # rows[:folded] are in sums
        self.priced = 0  # rows[:priced] were priced by a cost
        self._last: tuple = ()

    def add(self, nid: int, op: str, start: int, row: Row) -> None:
        """Place node ``nid``, of type ``op``, at ``start`` with ``row``."""
        last = (nid, op, start, row, self.peaks.get(row[1]), self.area.get(op))
        self.extend(((nid, op, start, row),))
        self._last = last

    def extend(self, placed: Iterable[tuple[int, str, int, Row]]) -> None:
        """``add`` each ``(node id, type, start, row)`` in turn, keeping no
        undo record: ``undo`` takes back only an ``add`` made after this."""
        busy, peaks, area, rows, binders = self.busy, self.peaks, self.area, self.rows, self.binders
        bound, switching = self.bound, self.switching
        for nid, op, start, row in placed:
            cycles, kind = row[0], row[1]
            end = start + cycles
            if start < 1:
                raise ValueError(f"node {nid}: start step {start} is before step 1")
            if end - 1 > bound:
                raise ValueError(
                    f"schedule completes at step {end - 1}, after the latency bound {bound}"
                )
            steps = busy.get(kind)
            if steps is None:
                steps = busy[kind] = []
            if len(steps) < end:
                steps += [0] * (end - len(steps))
            peak = 0
            for step in range(start, end):
                steps[step] = count = steps[step] + 1
                if count > peak:
                    peak = count
            old_peak = peaks.get(kind)
            if old_peak is None or peak > old_peak:
                peaks[kind] = peak
                area[op] = area.get(op, 0) + peak - (old_peak or 0)
            rows.append(row)
            if switching:
                binder = binders.get(op)
                if binder is None:
                    binder = binders[op] = _Binder()
                if binder.units is None:
                    binder.ops.append((start, nid, cycles, row[4]))
                else:
                    binder.add((start, nid, cycles, row[4]))

    def undo(self) -> None:
        """Take back the last ``add``."""
        nid, op, start, row, old_peak, old_area = self._last
        cycles, kind = row[0], row[1]
        steps = self.busy[kind]
        for step in range(start, start + cycles):
            steps[step] -= 1
        for values, key, old in ((self.peaks, kind, old_peak), (self.area, op, old_area)):
            if old is None:
                del values[key]
            else:
                values[key] = old
        rows = self.rows
        rows.pop()
        if len(rows) < self.folded:  # a folded row: fold again from the start
            self.sums = ([], [])
            self.folded = 0
        self.priced = min(self.priced, len(rows))
        if self.switching:
            binder = self.binders[op]
            binder.remove((start, nid, cycles, row[4]))
            if not binder.ops:
                del self.binders[op]

    def cost(self) -> CostTuple:
        """The CostTuple of the nodes placed so far."""
        rows, folded = self.rows, self.folded
        if self.priced > folded:
            # These rows were priced without overflow, so their sums are finite.
            dyn, leak = self.sums
            for row in rows[folded:self.priced]:
                _fold(dyn, row[2])
                if row[3]:
                    _fold(leak, row[3])
            folded = self.folded = self.priced
        if folded:
            fresh = rows[folded:]
            dyn, leak = self.sums
            dynamic = chain(dyn, map(itemgetter(2), fresh))
            op_leakage = chain(leak, map(itemgetter(3), fresh))
        else:
            dynamic, op_leakage = map(itemgetter(2), rows), map(itemgetter(3), rows)
        switching = []
        if self.binders:
            area = self.area
            for op, binder in self.binders.items():
                binder.bind(area[op])
                switching += binder.terms
        cost = self.price.cost(
            dict(self.area), dynamic, op_leakage, self.peaks.items(), switching, self.bound
        )
        self.priced = len(rows)
        return cost


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
    placed = [
        (nid, nodes[nid], start, lookup(nid, nodes[nid], dur))
        for nid, (start, dur) in schedule.items()
    ]
    state = CostState(price, latency_bound)
    state.extend(placed)
    return state.cost()


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
