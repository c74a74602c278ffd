"""The FGDVS state cut: a prefix's state is the binding each open type's
settled ops leave.

At position p let lo be the least asap of an open type's unplaced ops.
Every op still to come starts at lo or later, and lo never falls as p
grows, so the type's placed ops that start before lo (its settled ops)
bind first, in their (start, id) order, whatever the completion.  Which
unit count they bind on is not known until the type closes, so a type's
state is, for each count it may still end with, the pool its settled ops
leave, with its placed ops not yet settled (``_settle``).  A settled op
still busy at lo is the last on its unit, so this also fixes the type's
usage from lo on, and with it the completions' unit counts.  Each type's
state is interned to one id, packed after the walk's header (position,
area, frontier ends, live unit counts) in the key.  Two prefixes with one
key differ in power only by their bases (dyn + leak and the closed types'
charges) and by the open types' settled charges at the counts the
completion ends with: a prefix is cut when an earlier one's base, plus per
open type the most its settled charges exceed this one's at any count, is
no higher than this one's base.

``bb`` imports this module on its first FGDVS search, so importing
``dvsched`` compiles none of it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable
from itertools import count
from operator import sub

from .power import _bind


def _settle(
    state: tuple, new: list[tuple[int, int, int, float]], lo: int, units: int, cap: int
) -> tuple:
    """Resume one type's settled binding with its newly placed ops.

    ``state`` is ``(first, lo, pools, charges, waiting, ...)`` as a lookup
    left it: for each unit count ``first + k``, the pool (per unit, ``_bind``'s
    busy until, last duration and index) and the summed charges that
    binding the type's settled ops leaves, and ``waiting``, its placed ops
    not yet settled.  An op settles once it starts before ``lo``, so it
    binds after every op settled before it.  The counts run from ``units``,
    the type's count now, to the first that charges no settled op (every
    larger count binds the same way) or ``cap``.  Busy-until is clipped up
    to lo - 1: no later op starts before lo, so the clip changes no binding.
    """
    first, was_lo, pools, charges, waiting = state[:5]
    ops = sorted((*waiting, *new))
    cut = bisect_left(ops, (lo,))
    last = len(pools) - 1
    k = units - first
    clip = lo - 1
    if not cut:  # the same bindings, over the counts from units to cap
        if k > last:
            k = last
        end = k + cap - units + 1
        pools, charges = pools[k:end], charges[k:end]
        if lo != was_lo:
            pools = tuple([tuple([(busy if busy > clip else clip, dur, i) for busy, dur, i in pool])
                           for pool in pools])
        return units, lo, pools, charges, tuple(ops)
    settled = ops[:cut]
    new_pools, new_charges = [], []
    for u in range(units, cap + 1):
        j = k if k < last else last
        k += 1
        pool = [[*unit] for unit in pools[j]]
        charge, paid = charges[j], j < last
        for p_sw in _bind(settled, u, pool, None):
            charge += p_sw  # one at a time: the same sum as binding afresh
            paid = True
        new_pools.append(tuple([(busy if busy > clip else clip, dur, i) for busy, dur, i in pool]))
        new_charges.append(charge)
        if not paid:
            break
    return units, lo, tuple(new_pools), tuple(new_charges), tuple(ops[cut:])


def settled_cut(
    n: int, bound: int, type_names: list[str], pos_type: list[int],
    type_positions: list[list[int]], caps: list[int], binder: list, type_area: list[int],
    cur_max: list[int], ends: list[int], generation: int, debug: bool,
) -> tuple[Callable[[int, int, float, tuple], bool], Callable[[int], None]]:
    """The cut's ``lookup(p, area, base, keys)`` and ``forget(p)``.

    The lists are the walk's own, read as they are at each call.
    ``lookup`` takes the prefix's area and base, and ``keys`` (the header's
    pack and getters, the live types, and per type its least unplaced asap
    and its count of unplaced ops); it returns True when an earlier prefix
    covers this one, and otherwise stores the state and keeps each type's
    for resuming.  A lookup resumes from the last lookup on the walk's path,
    ``records[q]`` with q the last of ``marks``, so its work does not grow
    with the prefix; ``forget(p)`` drops what lookups at p and deeper kept,
    for a gate that stops looking p up.  Under ``debug`` each lookup binds
    every open type's settled ops afresh and raises AssertionError unless
    the resumed binding is the same.
    """
    states: dict[bytes, tuple] = {}  # key -> (settled charges per live type..., base)
    older: dict[bytes, tuple] = {}
    # The interned states, held with the state table's generations: a
    # type's (pools, unsettled ops) -> its id in the key, and each
    # resumption (the state's serial, lo, count, new ops) -> the state it
    # gives, so that a resumption seen before costs one probe.
    ids: dict[tuple, object] = {}
    old_ids: dict[tuple, object] = {}
    new_id = count(1).__next__
    records: list[list[tuple] | None] = [None] * (n + 1)
    records[0] = [(0, 0, ((),), (0.0,), (), 0, 0)] * len(type_names)
    marks = [0]

    def resume(state: tuple, ops: Iterable, lo: int, units: int, cap: int) -> tuple:
        step = (state[6], lo, units, *ops)
        got = ids.get(step)
        if got is None:
            got = old_ids.get(step)
            if got is None:
                first, lo, pools, charges, waiting = _settle(state, ops, lo, units, cap)
                pair = (pools, waiting)
                tid = ids.get(pair)
                if tid is None:
                    tid = ids[pair] = old_ids.get(pair) or new_id()
                got = (first, lo, pools, charges, waiting, tid, new_id())
            ids[step] = got
        return got

    def lookup(p: int, area: int, base: float, keys: tuple) -> bool:
        nonlocal states, older, ids, old_ids
        pack, ends_of, units_of, live, lows, rooms = keys
        while marks[-1] >= p:
            marks.pop()
        q = marks[-1]
        types = records[q][:]
        if p - q == 1:  # the one op placed since
            touched: Iterable = ((pos_type[q], (binder[q],)),)
        else:
            new: dict[int, list] = {}
            for j in range(q, p):
                new.setdefault(pos_type[j], []).append(binder[j])
            touched = new.items()
        for ti, ops in touched:
            if lows[ti] <= bound:
                # Each unplaced op adds at most one unit to its type's count.
                top = min(caps[ti], type_area[ti] + rooms[ti])
                types[ti] = resume(types[ti], ops, lows[ti], type_area[ti], top)
        if debug:
            check(p, types, lows, rooms)
        got = [types[ti][3] for ti in live]
        key = pack(p, area, *ends_of(ends), *units_of(cur_max), *[types[ti][5] for ti in live])
        seen = states.get(key)
        if seen is None:
            seen = older.get(key)
            if len(states) >= generation:
                older, states = states, {}
                old_ids, ids = ids, {}
        if seen is not None:
            covered = seen[-1]
            for was, now in zip(seen, got):
                if was is not now:
                    covered += max(map(sub, was, now))
            if covered <= base:
                states[key] = seen
                return True
        states[key] = (*got, base)
        records[p] = types
        marks.append(p)
        return False

    def forget(p: int) -> None:
        del marks[bisect_left(marks, p):]

    def check(p: int, types: list[tuple], lows: list[int], rooms: list[int]) -> None:
        for ti, lo in enumerate(lows):
            if lo > bound:
                continue
            placed = sorted(binder[j] for j in type_positions[ti] if j < p)
            settled = [op for op in placed if op[0] < lo]
            fresh = []
            for u in range(type_area[ti], min(caps[ti], type_area[ti] + rooms[ti]) + 1):
                pool, charge, paid = [], 0.0, False
                for p_sw in _bind(settled, u, pool, None):
                    charge += p_sw
                    paid = True
                fresh.append((tuple((max(busy, lo - 1), dur, i) for busy, dur, i in pool), charge))
                if not paid:
                    break
            first, _lo, pools, charges, waiting = types[ti][:5]
            if (first, [*zip(pools, charges)], list(waiting)) != (
                type_area[ti], fresh, placed[len(settled):]
            ):
                raise AssertionError(f"type {type_names[ti]}'s resumed settled binding at "
                                     f"position {p} is not what binding afresh gives")

    return lookup, forget
