from __future__ import annotations

import random

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
    ResourceLibrary,
    VoltageLevel,
    area_of,
    compute_timing,
    cost_equal,
    dominates,
    load_resource_library,
    parse_dfg,
    power_of,
    schedule_cost,
)

import support

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
    assert default_lib.fastest("mul").cycles == 1
    assert default_lib.cycle_counts("add") == (1, 2, 3)
    idx, lv = default_lib.level_for("mul", 2)
    assert idx == 1 and lv.vdd == 0.78


def test_library_single_level_type_is_valid():
    lib = load_resource_library(
        "type mul\nlevel vdd=1.0 cycles=1 pdyn=5 plk=0.5 psw=1\n"
    )
    assert lib.cycle_counts("mul") == (1,)


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


# ---------------------------------------------------------------------------
# area


def test_area_mixed_levels_fgdvs_vs_multi():
    # total concurrency never exceeds 2, but the slow level alone peaks at 2
    # while the fast level peaks at 1; a per-level count pays for 3 units.
    t = compute_timing(TRI, 2)
    s = {1: (1, 1), 2: (1, 2), 3: (2, 2)}
    assert area_of(TRI, s, TINY, ArchMode.FGDVS) == (2, {"mul": 2})
    assert area_of(TRI, s, TINY, ArchMode.MULTI_VDD) == (3, {"mul": 3})
    assert t.latency_bound == 3  # the fixture fits the bound


def test_area_single_node_all_modes():
    g = parse_dfg("name one\nnode 1 mul\n")
    s = {1: (1, 1)}
    for mode in ArchMode:
        assert area_of(g, s, TINY, mode) == (1, {"mul": 1})


def test_area_disjoint_sharing_all_modes():
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    s = {1: (1, 1), 2: (2, 1)}
    for mode in ArchMode:
        assert area_of(g, s, TINY, mode) == (1, {"mul": 1})


def test_area_single_vdd_rejects_slow_durations():
    g = parse_dfg("name one\nnode 1 mul\n")
    with pytest.raises(ValueError):
        area_of(g, {1: (1, 2)}, TINY, ArchMode.SINGLE_VDD)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_area_fgdvs_never_above_multi(seed, k):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=10**6)
    t = compute_timing(g, k)
    s = support.random_schedule(rng, g, t, lib)
    fg_total, fg_by = area_of(g, s, lib, ArchMode.FGDVS)
    mv_total, mv_by = area_of(g, s, lib, ArchMode.MULTI_VDD)
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
    pb = power_of(g, {1: (1, 1)}, TINY, ArchMode.FGDVS, 1)
    assert pb.dynamic == pytest.approx(8.0)
    assert pb.leakage == pytest.approx(1.0)
    assert pb.switching == 0.0


def test_power_always_on_leakage_single_and_multi():
    # one instance leaking for the whole bound, not just while busy
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    s = {1: (1, 1), 2: (2, 1)}
    for mode in (ArchMode.SINGLE_VDD, ArchMode.MULTI_VDD):
        pb = power_of(g, s, TINY, mode, 4)
        assert pb.dynamic == pytest.approx(16.0)
        assert pb.leakage == pytest.approx(1.0 * 4)
        assert pb.switching == 0.0
    pb = power_of(g, s, TINY, ArchMode.FGDVS, 4)
    assert pb.leakage == pytest.approx(2.0)  # gated while idle


def test_power_same_level_reuse_has_no_switch_charge():
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    pb = power_of(g, {1: (1, 1), 2: (2, 1)}, TINY, ArchMode.FGDVS, 2)
    assert pb.switching == 0.0


def test_power_cross_level_reuse_charges_once():
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    s = {1: (1, 1), 2: (2, 2)}  # one unit, levels differ on reuse
    assert area_of(g, s, TINY, ArchMode.FGDVS) == (1, {"mul": 1})
    pb = power_of(g, s, TINY, ArchMode.FGDVS, 3)
    assert pb.switching == pytest.approx(2.0)
    assert pb.dynamic == pytest.approx(8.0 + 6.0)
    assert pb.leakage == pytest.approx(1.0 + 1.0)


def test_power_fresh_instance_never_charges():
    # with two units available both ops bind fresh ones; no level change
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    s = {1: (1, 1), 2: (1, 2)}  # concurrent, so area is 2
    assert area_of(g, s, TINY, ArchMode.FGDVS) == (2, {"mul": 2})
    pb = power_of(g, s, TINY, ArchMode.FGDVS, 2)
    assert pb.switching == 0.0


def test_power_rejects_completion_past_bound():
    g = parse_dfg("name one\nnode 1 mul\n")
    with pytest.raises(ValueError):
        power_of(g, {1: (1, 2)}, TINY, ArchMode.FGDVS, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_power_bounds_on_random_schedules(seed, k):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=10**6)
    t = compute_timing(g, k)
    s = support.random_schedule(rng, g, t, lib)
    sw_cap = sum(max(lv.p_sw for lv in lib.levels(g.nodes[v])) for v in g.nodes)
    for mode in (ArchMode.MULTI_VDD, ArchMode.FGDVS):
        pb = power_of(g, s, lib, mode, t.latency_bound)
        assert pb.dynamic >= 0 and pb.leakage >= 0 and pb.switching >= 0
        if mode is ArchMode.MULTI_VDD:
            assert pb.switching == 0.0
        else:
            # every op charges at most one switch event
            assert pb.switching <= sw_cap + POWER_EPS
        cost = schedule_cost(g, s, lib, mode, t.latency_bound)
        assert cost.power == pytest.approx(pb.dynamic + pb.leakage + pb.switching)
        assert cost.area_total == sum(cost.area_by_type.values())


# ---------------------------------------------------------------------------
# dominance


def test_dominates_examples():
    assert dominates(ct(4, 100.0), ct(5, 110.0))
    assert not dominates(ct(4, 110.0), ct(5, 100.0))
    assert not dominates(ct(5, 100.0), ct(4, 110.0))
    assert dominates(ct(4, 96.68), ct(4, 113.56))


def test_dominates_epsilon_ties():
    a, b = ct(4, 100.0), ct(4, 100.0 + POWER_EPS / 2)
    assert not dominates(a, b) and not dominates(b, a)
    assert cost_equal(a, b)
    assert not cost_equal(ct(4, 100.0), ct(4, 100.1))


def front3_of(cost: CostTuple) -> ParetoSet:
    front = ParetoSet(("latency", "area_total", "power"))
    front.insert(cost, {})
    return front


def test_front3_covers_examples():
    # strictly better in latency alone: covers, and is not covered back
    assert front3_of(ct(4, 100.0, latency=5)).covers(ct(4, 100.0, latency=6))
    assert not front3_of(ct(4, 100.0, latency=6)).covers(ct(4, 100.0, latency=5))
    assert not front3_of(ct(4, 100.0, latency=6)).covers(ct(5, 90.0, latency=5))


coarse = st.tuples(st.integers(0, 3), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]))


@settings(max_examples=200, deadline=None)
@given(coarse, coarse, coarse)
def test_dominates_is_strict_partial_order(a, b, c):
    ca, cb, cc = ct(*a), ct(*b), ct(*c)
    assert not dominates(ca, ca)
    assert not (dominates(ca, cb) and dominates(cb, ca))
    if dominates(ca, cb) and dominates(cb, cc):
        assert dominates(ca, cc)


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
    for e1 in s1.entries:
        for e2 in s1.entries:
            if e1 is not e2:
                assert not dominates(e1.cost, e2.cost)
