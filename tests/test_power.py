from __future__ import annotations

import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvsched import (
    POWER_EPS,
    ArchMode,
    Budget,
    CostTuple,
    LibraryError,
    ParetoSet,
    Priority,
    ResourceLibrary,
    VoltageLevel,
    compute_timing,
    list_schedule,
    load_resource_library,
    parse_dfg,
    schedule_cost,
)
from dvsched.power import CostState, staircase, type_switch_charges

import support
from conftest import BENCH_NAMES, load_bench

TRI = parse_dfg(support.TRI_DFG)
TINY = load_resource_library(support.TINY_LIB)

TWO_LEVEL_LIB = """\
type mul
level vdd=1.00 cycles=1 pdyn=8.00 plk=1.00 psw=2.00
level vdd=0.80 cycles=2 pdyn=3.00 plk=0.50 psw=2.00
"""


def ct(area: int, power: float, latency: int = 1) -> CostTuple:
    return CostTuple(
        area_total=area,
        area_by_type={"mul": area},
        dynamic=power,
        leakage=0.0,
        switching=0.0,
        latency=latency,
    )


# ---------------------------------------------------------------------------
# library parsing


def test_default_library_levels(default_lib):
    assert default_lib.op_types() == ("mul", "add", "comp")
    levels = default_lib.levels("mul")
    assert [lv.cycles for lv in levels] == [1, 2, 3]
    assert [lv.vdd for lv in levels] == [1.0, 0.78, 0.68]
    assert [lv.cycles for lv in default_lib.levels("add")] == [1, 2, 3]


def test_pricing_table_of_default_lib(default_lib):
    # Rows are (cycles, kind, pdyn*cycles, per-op leak, psw), fastest first;
    # kinds are (type, always-on leak rate).
    single = default_lib.pricing(ArchMode.SINGLE_VDD)
    assert not single.switching
    assert single.kinds == [("mul", 0.6), ("add", 0.25), ("comp", 0.15)]
    assert single.rows("mul") == {1: (1, 0, 16.0, 0.0, 1.5)}
    assert single.rows("add") == {1: (1, 1, 6.0, 0.0, 0.5)}
    assert single.rows("comp") == {1: (1, 2, 4.0, 0.0, 0.35)}
    assert single.durations() == {op: frozenset({1}) for op in ("mul", "add", "comp")}

    multi = default_lib.pricing(ArchMode.MULTI_VDD)
    assert not multi.switching
    assert multi.kinds == [
        ("mul", 0.6), ("mul", 0.4), ("mul", 0.3),
        ("add", 0.25), ("add", 0.17), ("add", 0.12),
        ("comp", 0.15), ("comp", 0.1), ("comp", 0.08),
    ]
    assert list(multi.rows("mul").items()) == [
        (1, (1, 0, 16.0, 0.0, 1.5)), (2, (2, 1, 4.87 * 2, 0.0, 1.5)), (3, (3, 2, 2.47 * 3, 0.0, 1.5)),
    ]
    assert [row[1] for row in multi.rows("add").values()] == [3, 4, 5]
    assert [row[1] for row in multi.rows("comp").values()] == [6, 7, 8]

    fgdvs = default_lib.pricing(ArchMode.FGDVS)
    assert fgdvs.switching
    assert fgdvs.kinds == [("mul", 0.0), ("add", 0.0), ("comp", 0.0)]
    assert list(fgdvs.rows("mul").items()) == [
        (1, (1, 0, 16.0, 0.6, 1.5)),
        (2, (2, 0, 4.87 * 2, 0.4 * 2, 1.5)),
        (3, (3, 0, 2.47 * 3, 0.3 * 3, 1.5)),
    ]
    assert list(fgdvs.rows("comp").values()) == [
        (1, 2, 4.0, 0.15, 0.35), (2, 2, 1.22 * 2, 0.1 * 2, 0.35), (3, 2, 0.62 * 3, 0.08 * 3, 0.35),
    ]
    assert fgdvs.durations() == multi.durations() == {
        op: frozenset(lv.cycles for lv in default_lib.levels(op)) for op in default_lib.op_types()
    }
    assert default_lib.pricing(ArchMode.FGDVS) is fgdvs  # built once per mode

    with pytest.raises(LibraryError, match="op type 'div' is not in the library"):
        multi.rows("div")
    with pytest.raises(LibraryError, match="^node 4: duration 2 is not the level-0 cycle count for 'mul' in single-vdd mode$"):
        single.lookup(4, "mul", 2)
    with pytest.raises(LibraryError, match="^no 'mul' level takes 4 cycles$"):
        fgdvs.lookup(4, "mul", 4)


def test_library_single_level_type_is_valid():
    lib = load_resource_library(
        "type mul\nlevel vdd=1.0 cycles=1 pdyn=5 plk=0.5 psw=1\n"
    )
    assert [lv.cycles for lv in lib.levels("mul")] == [1]


def test_library_duplicate_cycles_rejected():
    text = (
        "type mul\n"
        "level vdd=1.0 cycles=2 pdyn=5 plk=0.5 psw=1\n"
        "level vdd=0.8 cycles=2 pdyn=3 plk=0.4 psw=1\n"
    )
    with pytest.raises(LibraryError) as exc:
        load_resource_library(text)
    assert "line 3" in str(exc.value)


def test_library_negative_power_rejected():
    with pytest.raises(LibraryError):
        load_resource_library("type mul\nlevel vdd=1.0 cycles=1 pdyn=-5 plk=0.5 psw=1\n")


def test_library_must_be_fastest_first():
    text = (
        "type mul\n"
        "level vdd=0.8 cycles=2 pdyn=3 plk=0.4 psw=1\n"
        "level vdd=1.0 cycles=1 pdyn=5 plk=0.5 psw=1\n"
    )
    with pytest.raises(LibraryError):
        load_resource_library(text)


def test_library_level_before_type_rejected():
    with pytest.raises(LibraryError) as exc:
        load_resource_library("level vdd=1.0 cycles=1 pdyn=5 plk=0.5 psw=1\n")
    assert "line 1" in str(exc.value)


def test_library_missing_field_rejected():
    with pytest.raises(LibraryError):
        load_resource_library("type mul\nlevel vdd=1.0 cycles=1 pdyn=5 plk=0.5\n")


def test_library_unknown_directive_rejected():
    with pytest.raises(LibraryError):
        load_resource_library("type mul\nvoltage vdd=1.0\n")


def test_library_empty_document_rejected():
    with pytest.raises(LibraryError):
        load_resource_library("# nothing here\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["vdd", "pdyn", "plk", "psw"])
def test_library_non_finite_values_rejected(key, value):
    fields = {"vdd": "1.0", "cycles": "1", "pdyn": "5", "plk": "0.5", "psw": "1"}
    fields[key] = value
    text = "type mul\nlevel " + " ".join(f"{k}={v}" for k, v in fields.items()) + "\n"
    with pytest.raises(LibraryError) as exc:
        load_resource_library(text)
    assert "line 2" in str(exc.value) and "finite" in str(exc.value)
    with pytest.raises(LibraryError):
        ResourceLibrary({"mul": [VoltageLevel(1.0, 1, float(value), 0.5, 1.0)]})


@pytest.mark.parametrize("cap", [float("nan"), float("inf")])
def test_budget_rejects_non_finite_power_cap(cap):
    with pytest.raises(ValueError, match="finite"):
        Budget(power_cap=cap)


@pytest.mark.parametrize("mode", list(ArchMode))
@pytest.mark.parametrize("field", ["pdyn", "plk"])
def test_schedule_cost_rejects_power_overflow(mode, field):
    # Three 1e308 terms overflow their sum; outside FGDVS the leakage term
    # 1e308 * 3 steps overflows by itself.
    fields = {"vdd": "1.0", "cycles": "1", "pdyn": "5", "plk": "0.5", "psw": "1"}
    fields[field] = "1e308"
    lib = load_resource_library(
        "type mul\nlevel " + " ".join(f"{k}={v}" for k, v in fields.items()) + "\n"
    )
    sched = {1: (1, 1), 2: (2, 1), 3: (3, 1)}  # three ops on one unit
    with pytest.raises(LibraryError, match="too large"):
        schedule_cost(TRI, sched, lib, mode, 3)


# ---------------------------------------------------------------------------
# area


def units(g, s, lib, mode):
    """(total units, units per type) of schedule ``s``, from schedule_cost."""
    end = max((t0 + d - 1 for t0, d in s.values()), default=0)
    cost = schedule_cost(g, s, lib, mode, end)
    return cost.area_total, cost.area_by_type


def test_area_mixed_levels_fgdvs_vs_multi():
    # total concurrency never exceeds 2, but the slow level alone peaks at 2
    # while the fast level peaks at 1; a per-level count pays for 3 units.
    t = compute_timing(TRI, 2)
    s = {1: (1, 1), 2: (1, 2), 3: (2, 2)}
    assert units(TRI, s, TINY, ArchMode.FGDVS) == (2, {"mul": 2})
    assert units(TRI, s, TINY, ArchMode.MULTI_VDD) == (3, {"mul": 3})
    assert t.latency_bound == 3  # the fixture fits the bound


def test_area_single_node_all_modes():
    g = parse_dfg("name one\nnode 1 mul\n")
    s = {1: (1, 1)}
    for mode in ArchMode:
        assert units(g, s, TINY, mode) == (1, {"mul": 1})


def test_area_disjoint_sharing_all_modes():
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    s = {1: (1, 1), 2: (2, 1)}
    for mode in ArchMode:
        assert units(g, s, TINY, mode) == (1, {"mul": 1})


def test_area_single_vdd_rejects_slow_durations():
    g = parse_dfg("name one\nnode 1 mul\n")
    with pytest.raises(ValueError):
        units(g, {1: (1, 2)}, TINY, ArchMode.SINGLE_VDD)


def test_area_rejects_duration_with_no_level():
    g = parse_dfg("name one\nnode 1 mul\n")
    for mode in (ArchMode.MULTI_VDD, ArchMode.FGDVS):  # single-vdd: the level-0 check
        with pytest.raises(LibraryError, match="no 'mul' level takes 7 cycles"):
            units(g, {1: (1, 7)}, TINY, mode)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_area_fgdvs_never_above_multi(seed, k):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=10**6)
    t = compute_timing(g, k)
    s = support.random_schedule(rng, g, t, lib)
    fg_total, fg_by = units(g, s, lib, ArchMode.FGDVS)
    mv_total, mv_by = units(g, s, lib, ArchMode.MULTI_VDD)
    assert fg_total <= mv_total
    assert all(fg_by[op] <= mv_by[op] for op in fg_by)
    durs_per_type: dict[str, set[int]] = {}
    for v, (_t0, d) in s.items():
        durs_per_type.setdefault(g.nodes[v], set()).add(d)
    if all(len(ds) == 1 for ds in durs_per_type.values()):
        assert fg_total == mv_total  # no type mixes levels


# ---------------------------------------------------------------------------
# power


def test_power_single_node_fgdvs_breakdown():
    g = parse_dfg("name one\nnode 1 mul\n")
    cost = schedule_cost(g, {1: (1, 1)}, TINY, ArchMode.FGDVS, 1)
    assert cost.dynamic == pytest.approx(8.0)
    assert cost.leakage == pytest.approx(1.0)
    assert cost.switching == 0.0


def test_power_always_on_leakage_single_and_multi():
    # one instance leaking for the whole bound, not just while busy
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    s = {1: (1, 1), 2: (2, 1)}
    for mode in (ArchMode.SINGLE_VDD, ArchMode.MULTI_VDD):
        cost = schedule_cost(g, s, TINY, mode, 4)
        assert cost.dynamic == pytest.approx(16.0)
        assert cost.leakage == pytest.approx(1.0 * 4)
        assert cost.switching == 0.0
    cost = schedule_cost(g, s, TINY, ArchMode.FGDVS, 4)
    assert cost.leakage == pytest.approx(2.0)  # gated while idle


def test_power_same_level_reuse_has_no_switch_charge():
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    cost = schedule_cost(g, {1: (1, 1), 2: (2, 1)}, TINY, ArchMode.FGDVS, 2)
    assert cost.switching == 0.0


def test_power_cross_level_reuse_charges_once():
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    s = {1: (1, 1), 2: (2, 2)}  # one unit, levels differ on reuse
    assert units(g, s, TINY, ArchMode.FGDVS) == (1, {"mul": 1})
    cost = schedule_cost(g, s, TINY, ArchMode.FGDVS, 3)
    assert cost.switching == pytest.approx(2.0)
    assert cost.dynamic == pytest.approx(8.0 + 6.0)
    assert cost.leakage == pytest.approx(1.0 + 1.0)


def test_power_fresh_instance_never_charges():
    # with two units available both ops bind fresh ones; no level change
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    s = {1: (1, 1), 2: (1, 2)}  # concurrent, so area is 2
    assert units(g, s, TINY, ArchMode.FGDVS) == (2, {"mul": 2})
    cost = schedule_cost(g, s, TINY, ArchMode.FGDVS, 2)
    assert cost.switching == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_type_switch_charges_stream_the_binding(seed):
    # One type's ops as (start, node id, cycles, psw), with starts drawn from
    # a narrow range (so many are equal) or laid end to end (one unit), and a
    # unit count from the peak concurrency up to one unit per op.
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    durs = [rng.randint(1, 3) for _ in range(n)]
    if rng.random() < 0.3:
        starts, t = [], 1
        for d in durs:
            t += rng.randint(0, 2)
            starts.append(t)
            t += d
    else:
        starts = [rng.randint(1, 4) for _ in range(n)]
    ops = [(t, nid, d, rng.choice((0.0, 0.35, 1.5))) for nid, (t, d) in enumerate(zip(starts, durs))]
    rng.shuffle(ops)
    peak = max(sum(t <= step < t + d for t, _nid, d, _psw in ops) for step in range(1, 20))
    for units in sorted({peak, rng.randint(peak, n), n}):
        full = list(type_switch_charges(list(ops), units))
        assert all(c >= 0.0 for c in full)
        # What the generator has yielded so far is a prefix of its final
        # list, so a running sum of it never exceeds the whole charge.
        for j in range(len(full) + 1):
            assert list(islice(type_switch_charges(list(ops), units), j)) == full[:j]
        if units == n:
            assert full == []  # every op binds a never-used unit


def test_power_rejects_completion_past_bound():
    g = parse_dfg("name one\nnode 1 mul\n")
    with pytest.raises(ValueError):
        schedule_cost(g, {1: (1, 2)}, TINY, ArchMode.FGDVS, 1)


def test_cost_state_contract():
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    # a start before step 1 is refused, not priced
    for start in (0, -1):
        with pytest.raises(ValueError, match="before step 1"):
            schedule_cost(g, {1: (start, 1)}, TINY, ArchMode.FGDVS, 3)
    # every row is looked up before any node is placed, so an unusable
    # duration wins over a node that completes after the bound
    with pytest.raises(LibraryError, match="7 cycles"):
        schedule_cost(g, {1: (3, 2), 2: (1, 7)}, TINY, ArchMode.FGDVS, 3)
    price = TINY.pricing(ArchMode.FGDVS)
    one, two = price.lookup(1, "mul", 1), price.lookup(2, "mul", 2)
    state = CostState(price, 3)
    # a probe refuses what schedule_cost refuses
    with pytest.raises(ValueError, match="before step 1"):
        state.probe(1, "mul", 0, one)
    with pytest.raises(ValueError, match="after the latency bound 3"):
        state.probe(2, "mul", 3, two)
    # a probed CostTuple is the caller's: later probes and places leave it
    # be, and what the caller does to it leaves the state be
    cost = state.probe(1, "mul", 1, one)
    before = repr(cost)
    state.place()
    cost.area_by_type["mul"] = 7
    assert state.probe(2, "mul", 1, two).area_by_type == {"mul": 2}
    # a probe that is not placed changes nothing
    assert state.probe(2, "mul", 2, two).area_by_type == {"mul": 1}
    state.place()
    cost.area_by_type["mul"] = 1
    assert repr(cost) == before
    g = parse_dfg("name three\nnode 1 mul\nnode 2 mul\nnode 3 mul\n")
    assert repr(state.probe(3, "mul", 1, one)) == repr(
        schedule_cost(g, {1: (1, 1), 2: (2, 2), 3: (1, 1)}, TINY, ArchMode.FGDVS, 3)
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cost_state_prices_like_a_fresh_schedule_cost(seed):
    # Candidates probed at random starts and durations, some of them
    # placed: each probe has the repr of schedule_cost on the nodes placed
    # and the candidate.  Random starts put candidates before ops of their
    # type placed earlier and grow a type's unit count, so every way a
    # kept binding is resumed gets priced, and a probe that is not placed
    # leaves a binding that the next probe resumes.
    rng = random.Random(seed)
    types = rng.sample(support.OP_POOL, rng.randint(1, 2))
    text = support.gapped_library_text if seed % 2 else support.random_library_text
    lib = load_resource_library(text(rng, types))
    n, bound = rng.randint(2, 16), rng.randint(3, 9)
    g = parse_dfg(support.random_dag_text(rng, types, n))
    for mode in (ArchMode.MULTI_VDD, ArchMode.FGDVS):
        price = lib.pricing(mode)
        state = CostState(price, bound)
        placed: dict[int, tuple[int, int]] = {}
        for _ in range(3 * n):
            free = [v for v in g.nodes if v not in placed]
            if not free:
                break
            v = rng.choice(free)
            rows = price.rows(g.nodes[v])
            dur = rng.choice([d for d in rows if d <= bound] or [min(rows)])
            if dur > bound:
                break
            start = rng.randint(1, bound - dur + 1)
            cost = state.probe(v, g.nodes[v], start, rows[dur])
            fresh = schedule_cost(g, {**placed, v: (start, dur)}, lib, mode, bound)
            assert repr(cost) == repr(fresh)
            if rng.random() < 0.6:
                state.place()
                placed[v] = (start, dur)


@pytest.mark.parametrize("mode", list(ArchMode))
def test_cost_state_overflow_stays_a_library_error(mode):
    # A probe that overflows raises LibraryError and changes nothing: the
    # state still prices a probe as schedule_cost does, and probing the
    # node again raises LibraryError again, never OverflowError or fsum's
    # ValueError on infinite partials.
    lib = load_resource_library(
        "type mul\nlevel vdd=1.0 cycles=1 pdyn=6e307 plk=0 psw=1e308\n"
        "type add\nlevel vdd=1.0 cycles=1 pdyn=1 plk=1 psw=1\n"
    )
    g = parse_dfg("name four\nnode 1 mul\nnode 2 mul\nnode 3 mul\nnode 4 add\n")
    price = lib.pricing(mode)
    state = CostState(price, 8)
    for v in range(1, 3):
        state.probe(v, "mul", v, price.lookup(v, "mul", 1))
        state.place()
    finite = schedule_cost(g, {1: (1, 1), 2: (2, 1), 4: (4, 1)}, lib, mode, 8)
    for _ in range(2):
        with pytest.raises(LibraryError, match="too large"):
            state.probe(3, "mul", 3, price.lookup(3, "mul", 1))
        assert repr(state.probe(4, "add", 4, price.lookup(4, "add", 1))) == repr(finite)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_power_bounds_on_random_schedules(seed, k):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=10**6)
    t = compute_timing(g, k)
    s = support.random_schedule(rng, g, t, lib)
    sw_cap = sum(max(lv.p_sw for lv in lib.levels(g.nodes[v])) for v in g.nodes)
    for mode in (ArchMode.MULTI_VDD, ArchMode.FGDVS):
        cost = schedule_cost(g, s, lib, mode, t.latency_bound)
        assert cost.dynamic >= 0 and cost.leakage >= 0 and cost.switching >= 0
        if mode is ArchMode.MULTI_VDD:
            assert cost.switching == 0.0
        else:
            # every op charges at most one switch event
            assert cost.switching <= sw_cap + POWER_EPS
        assert cost.area_total == sum(cost.area_by_type.values())


@pytest.mark.parametrize("mode", list(ArchMode))
def test_schedule_cost_looks_up_each_level_once(mode, default_lib_path, diffeq):
    lib = load_resource_library(default_lib_path.read_text(encoding="utf-8"))
    t = compute_timing(diffeq, 1)
    s = list_schedule(diffeq, t, lib, mode, priority=Priority.MAX_DURATION)
    lookups = []
    price = lib.pricing(mode)
    real = price.lookup

    def counted(nid: int, op: str, cycles: int):
        lookups.append((op, cycles))
        return real(nid, op, cycles)

    price.lookup = counted
    schedule_cost(diffeq, s, lib, mode, t.latency_bound)
    assert len(lookups) == len(s)


# repr of (area_by_type, dynamic, leakage, switching) for each list schedule
# at k=1, taken from the three-pass cost code that the single pass replaced.
GOLDEN_LIST_COSTS = {
    ("dct", "single-vdd", "max-duration"):
        "({'add': 8, 'mul': 8, 'comp': 2}, 408.0, 49.7, 0.0)",
    ("dct", "single-vdd", "min-duration"):
        "({'add': 8, 'mul': 8, 'comp': 2}, 408.0, 49.7, 0.0)",
    ("dct", "multi-vdd", "max-duration"):
        "({'add': 16, 'mul': 10, 'comp': 2}, 376.76, 64.82000000000001, 0.0)",
    ("dct", "multi-vdd", "min-duration"):
        "({'add': 8, 'mul': 8, 'comp': 2}, 408.0, 49.7, 0.0)",
    ("dct", "fgdvs", "max-duration"):
        "({'add': 8, 'mul': 8, 'comp': 2}, 376.76, 17.02, 7.0)",
    ("dct", "fgdvs", "min-duration"):
        "({'add': 8, 'mul': 8, 'comp': 2}, 408.0, 15.9, 0.0)",
    ("diffeq", "single-vdd", "max-duration"):
        "({'mul': 4, 'add': 1, 'comp': 1}, 124.0, 14.0, 0.0)",
    ("diffeq", "single-vdd", "min-duration"):
        "({'mul': 4, 'add': 1, 'comp': 1}, 124.0, 14.0, 0.0)",
    ("diffeq", "multi-vdd", "max-duration"):
        "({'mul': 5, 'add': 3, 'comp': 1}, 87.16, 13.2, 0.0)",
    ("diffeq", "multi-vdd", "min-duration"):
        "({'mul': 4, 'add': 1, 'comp': 1}, 124.0, 14.0, 0.0)",
    ("diffeq", "fgdvs", "max-duration"):
        "({'mul': 4, 'add': 2, 'comp': 1}, 87.16, 6.0, 2.0)",
    ("diffeq", "fgdvs", "min-duration"):
        "({'mul': 4, 'add': 1, 'comp': 1}, 124.0, 4.75, 0.0)",
    ("ewf", "single-vdd", "max-duration"):
        "({'add': 3, 'mul': 1, 'comp': 1}, 296.0, 36.0, 0.0)",
    ("ewf", "single-vdd", "min-duration"):
        "({'add': 3, 'mul': 1, 'comp': 1}, 296.0, 36.0, 0.0)",
    ("ewf", "multi-vdd", "max-duration"):
        "({'add': 4, 'mul': 2, 'comp': 1}, 263.94, 47.76, 0.0)",
    ("ewf", "multi-vdd", "min-duration"):
        "({'add': 3, 'mul': 1, 'comp': 1}, 296.0, 36.0, 0.0)",
    ("ewf", "fgdvs", "max-duration"):
        "({'add': 3, 'mul': 1, 'comp': 1}, 263.94, 12.82, 11.0)",
    ("ewf", "fgdvs", "min-duration"):
        "({'add': 3, 'mul': 1, 'comp': 1}, 296.0, 11.75, 0.0)",
    ("fir", "single-vdd", "max-duration"):
        "({'mul': 2, 'add': 1}, 236.0, 24.65, 0.0)",
    ("fir", "single-vdd", "min-duration"):
        "({'mul': 2, 'add': 1}, 236.0, 24.65, 0.0)",
    ("fir", "multi-vdd", "max-duration"):
        "({'mul': 4, 'add': 1}, 196.11, 33.15, 0.0)",
    ("fir", "multi-vdd", "min-duration"):
        "({'mul': 2, 'add': 1}, 236.0, 24.65, 0.0)",
    ("fir", "fgdvs", "max-duration"):
        "({'mul': 3, 'add': 1}, 196.11, 10.4, 1.5)",
    ("fir", "fgdvs", "min-duration"):
        "({'mul': 2, 'add': 1}, 236.0, 9.1, 0.0)",
    ("iir", "single-vdd", "max-duration"):
        "({'mul': 3, 'add': 1, 'comp': 1}, 174.0, 28.599999999999998, 0.0)",
    ("iir", "single-vdd", "min-duration"):
        "({'mul': 3, 'add': 1, 'comp': 1}, 174.0, 28.599999999999998, 0.0)",
    ("iir", "multi-vdd", "max-duration"):
        "({'mul': 5, 'add': 1, 'comp': 1}, 152.89, 35.1, 0.0)",
    ("iir", "multi-vdd", "min-duration"):
        "({'mul': 3, 'add': 1, 'comp': 1}, 174.0, 28.599999999999998, 0.0)",
    ("iir", "fgdvs", "max-duration"):
        "({'mul': 3, 'add': 1, 'comp': 1}, 152.89, 7.3999999999999995, 3.0)",
    ("iir", "fgdvs", "min-duration"):
        "({'mul': 3, 'add': 1, 'comp': 1}, 174.0, 6.7, 0.0)",
    ("lattice", "single-vdd", "max-duration"):
        "({'mul': 2, 'add': 2}, 288.0, 28.9, 0.0)",
    ("lattice", "single-vdd", "min-duration"):
        "({'mul': 2, 'add': 2}, 288.0, 28.9, 0.0)",
    ("lattice", "multi-vdd", "max-duration"):
        "({'mul': 4, 'add': 2}, 275.48, 42.5, 0.0)",
    ("lattice", "multi-vdd", "min-duration"):
        "({'mul': 2, 'add': 2}, 288.0, 28.9, 0.0)",
    ("lattice", "fgdvs", "max-duration"):
        "({'mul': 2, 'add': 2}, 275.48, 11.6, 3.0)",
    ("lattice", "fgdvs", "min-duration"):
        "({'mul': 2, 'add': 2}, 288.0, 11.2, 0.0)",
    ("volterra", "single-vdd", "max-duration"):
        "({'mul': 10, 'add': 2}, 328.0, 84.5, 0.0)",
    ("volterra", "single-vdd", "min-duration"):
        "({'mul': 10, 'add': 2}, 328.0, 84.5, 0.0)",
    ("volterra", "multi-vdd", "max-duration"):
        "({'mul': 12, 'add': 2}, 251.42000000000002, 66.3, 0.0)",
    ("volterra", "multi-vdd", "min-duration"):
        "({'mul': 10, 'add': 2}, 328.0, 84.5, 0.0)",
    ("volterra", "fgdvs", "max-duration"):
        "({'mul': 10, 'add': 2}, 251.42000000000002, 15.2, 3.0)",
    ("volterra", "fgdvs", "min-duration"):
        "({'mul': 10, 'add': 2}, 328.0, 12.6, 0.0)",
}


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_list_schedule_costs_match_golden(name, default_lib):
    g = load_bench(name)
    t = compute_timing(g, 1)
    for mode in ArchMode:
        for priority in Priority:
            s = list_schedule(g, t, default_lib, mode, priority=priority)
            c = schedule_cost(g, s, default_lib, mode, t.latency_bound)
            got = repr((c.area_by_type, c.dynamic, c.leakage, c.switching))
            assert got == GOLDEN_LIST_COSTS[name, mode.value, priority.value], (mode, priority)


# ---------------------------------------------------------------------------
# dominance


def front3_of(cost: CostTuple) -> ParetoSet:
    front = ParetoSet(("latency", "area_total", "power"))
    front.insert(cost, {})
    return front


def test_front3_covers_examples():
    # strictly better in latency alone: covers, and is not covered back
    assert front3_of(ct(4, 100.0, latency=5)).covers(ct(4, 100.0, latency=6))
    assert not front3_of(ct(4, 100.0, latency=6)).covers(ct(4, 100.0, latency=5))
    assert not front3_of(ct(4, 100.0, latency=6)).covers(ct(5, 90.0, latency=5))


# ---------------------------------------------------------------------------
# pareto archive


def test_pareto_insert_into_empty():
    s = ParetoSet()
    assert s.insert(ct(4, 100.0), {1: (1, 1)})
    assert s.cost_points() == [(4, 100.0)]


def test_pareto_insert_sweeps_dominated():
    s = ParetoSet()
    s.insert(ct(4, 100.0), {1: (1, 1)})
    s.insert(ct(5, 80.0), {1: (1, 2)})
    assert s.insert(ct(3, 90.0), {1: (1, 3)})
    assert s.cost_points() == [(3, 90.0), (5, 80.0)]


def test_pareto_points_follow_entries():
    s = ParetoSet()
    s.insert(ct(4, 100.0), {1: (1, 1)})
    s.insert(ct(5, 80.0), {1: (1, 2)})
    s.insert(ct(6, 70.0), {1: (1, 3)})
    assert s.insert(ct(3, 75.0), {1: (1, 4)})  # evicts (4, 100) and (5, 80)
    assert s.points == [(6, 70.0), (3, 75.0)]
    assert s.points == [(e.cost.area_total, e.cost.power) for e in s.entries]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 8), st.floats(0.0, 50.0)), max_size=10),
    st.integers(1, 11),
    st.integers(0, 2**32 - 1),
)
def test_staircase_decides_like_covers(points, size, seed):
    # One index into the staircase is the dominance test: on every area
    # below the smallest member, between members and past the largest (or
    # past the staircase's own size, where members are left out), and on
    # powers at each member's power less the tolerance and one ulp either
    # side of it.
    front = ParetoSet()
    for a, x in points:
        front.insert(ct(a, x), {})
    stair = staircase(front.points, size)
    rng = random.Random(seed)
    powers = [0.0, 60.0] + [rng.uniform(0.0, 50.0) for _ in range(4)]
    for _a, pm in front.points:
        edge = pm - POWER_EPS
        powers += [pm, edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
    for a in range(size):
        for x in powers:
            assert (stair[a] <= x + POWER_EPS) == front.covers(ct(a, x))


def test_pareto_insert_rejects_duplicate_cost():
    s = ParetoSet()
    first = {1: (1, 1)}
    s.insert(ct(4, 100.0), first)
    assert not s.insert(ct(4, 100.0), {1: (2, 1)})
    assert not s.insert(ct(4, 100.0 + POWER_EPS / 2), {1: (3, 1)})
    assert len(s) == 1
    assert s.entries[0].schedule == first  # first-found schedule kept


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1.0, 2.0, 3.0, 4.0])), max_size=12),
    st.integers(0, 2**32 - 1),
)
def test_pareto_insert_order_insensitive(points, seed):
    base, shuffled = list(points), list(points)
    random.Random(seed).shuffle(shuffled)
    s1, s2 = ParetoSet(), ParetoSet()
    for i, (a, p) in enumerate(base):
        s1.insert(ct(a, p), {1: (i, 1)})
    for i, (a, p) in enumerate(shuffled):
        s2.insert(ct(a, p), {1: (i, 1)})
    assert s1.cost_points() == s2.cost_points()
    # archive invariants: mutually non-dominated, one entry per cost point
    pts = s1.cost_points()
    assert len(pts) == len(set(pts))
    for a1, p1 in pts:
        assert not any(a2 <= a1 and p2 <= p1 for a2, p2 in pts if (a2, p2) != (a1, p1))
