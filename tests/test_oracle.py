from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvsched import (
    POWER_EPS,
    ArchMode,
    Budget,
    EnumerationBound,
    LibraryError,
    StateSpaceTooLarge,
    compute_timing,
    enumerate_schedules,
    load_resource_library,
    oracle_front,
    parse_dfg,
    state_space_estimate,
    validate_schedule,
)

import support

TINY = load_resource_library(support.TINY_LIB)
ONE_LEVEL_LIB = "type mul\nlevel vdd=1.0 cycles=1 pdyn=5 plk=0.5 psw=1\n"
TWO_LEVEL_LIB = """\
type mul
level vdd=1.00 cycles=1 pdyn=8.00 plk=1.00 psw=2.00
level vdd=0.80 cycles=2 pdyn=3.00 plk=0.50 psw=2.00
"""

SINGLE = "name one\nnode 1 mul\n"
CHAIN = "name chain\nnode 1 mul\nnode 2 mul\nedge 1 -> 2\n"
PAIR = "name pair\nnode 1 mul\nnode 2 mul\n"


def count(g, timing, lib, **kw):
    return sum(1 for _ in enumerate_schedules(g, timing, lib, **kw))


# ---------------------------------------------------------------------------
# enumeration counts (hand-derived closed forms)


def test_single_node_one_level_k0():
    g = parse_dfg(SINGLE)
    lib = load_resource_library(ONE_LEVEL_LIB)
    assert count(g, compute_timing(g, 0), lib) == 1


def test_single_node_three_levels_k2():
    # T=3: three unit starts, two 2-cycle starts, one 3-cycle start
    g = parse_dfg(SINGLE)
    assert count(g, compute_timing(g, 2), TINY) == 6


@pytest.mark.parametrize("k,expected", [(0, 1), (1, 5), (2, 13)])
def test_two_chain_two_levels(k, expected):
    # closed form for a 2-chain with 1- and 2-cycle durations and slack k:
    # (k+1)^2 pairs of unit ops plus k^2 placements per stretched op
    g = parse_dfg(CHAIN)
    lib = load_resource_library(TWO_LEVEL_LIB)
    assert count(g, compute_timing(g, k), lib) == expected


def test_anti_chain_is_product_of_singles():
    g = parse_dfg(PAIR)
    t = compute_timing(g, 2)
    assert count(g, t, TINY) == 36  # 6 options per node, independent
    # the raw product bound ignores deadline clipping of long durations
    assert state_space_estimate(g, t, TINY) == ((2 + 1) * 3) ** 2 == 81


def test_estimate_is_exact_for_unit_duration_anti_chains():
    g = parse_dfg(PAIR)
    lib = load_resource_library(ONE_LEVEL_LIB)
    for k in (0, 1, 2):
        t = compute_timing(g, k)
        assert state_space_estimate(g, t, lib) == (k + 1) ** 2
        assert count(g, t, lib) == (k + 1) ** 2


def test_estimate_is_product_of_windows_and_levels():
    g = parse_dfg(CHAIN)
    t = compute_timing(g, 1)
    # each node: (mobility+1) * levels = 2*3
    assert state_space_estimate(g, t, TINY) == 36
    assert count(g, t, TINY) <= 36  # precedence and deadlines trim it


def test_enumeration_is_valid_unique_and_complete():
    g = parse_dfg(PAIR)
    t = compute_timing(g, 2)
    seen = set()
    allowed = TINY.pricing(ArchMode.FGDVS).durations()
    for s in enumerate_schedules(g, t, TINY):
        key = tuple(sorted(s.items()))
        assert key not in seen
        seen.add(key)
        assert validate_schedule(g, t, s, allowed) is None
    assert len(seen) == 36


def test_durations_map_restricts_the_enumeration_in_order():
    # A per-type durations map enumerates exactly the default enumeration's
    # schedules that use only those durations, in the same order, and the
    # estimate counts only those durations.
    g = parse_dfg(CHAIN)
    t = compute_timing(g, 2)
    slow = {"mul": frozenset({2, 3})}
    want = [s for s in enumerate_schedules(g, t, TINY)
            if all(d in slow["mul"] for _start, d in s.values())]
    assert list(enumerate_schedules(g, t, TINY, durations=slow)) == want
    assert state_space_estimate(g, t, TINY, slow) == (3 * 2) ** 2
    assert state_space_estimate(g, t, TINY, TINY.pricing(ArchMode.FGDVS).durations()) == (3 * 3) ** 2


def test_type_missing_from_the_library_is_a_library_error():
    g = parse_dfg("name x\nnode 1 div\n")
    t = compute_timing(g, 0)
    for mode in ArchMode:
        with pytest.raises(LibraryError, match="op type 'div' is not in the library"):
            oracle_front(g, t, TINY, mode)


# ---------------------------------------------------------------------------
# refusal


def test_refuses_too_many_nodes():
    text = "name big\n" + "\n".join(f"node {i} mul" for i in range(1, 10))
    g = parse_dfg(text)
    t = compute_timing(g, 0)
    with pytest.raises(StateSpaceTooLarge) as exc:
        count(g, t, TINY)
    assert exc.value.nodes == 9
    assert "enumeration refused" in str(exc.value)


def test_refuses_state_cap():
    g = parse_dfg(PAIR)
    t = compute_timing(g, 2)
    bound = EnumerationBound(max_states=80)
    with pytest.raises(StateSpaceTooLarge) as exc:
        count(g, t, TINY, bound=bound)
    assert exc.value.estimate == 81
    assert exc.value.bound.max_states == 80


def test_refusal_is_a_value_error():
    # callers that only catch ValueError still see the refusal
    assert issubclass(StateSpaceTooLarge, ValueError)


# ---------------------------------------------------------------------------
# fronts


def test_front_empty_under_zero_power_cap():
    g = parse_dfg(SINGLE)
    t = compute_timing(g, 0)
    front = oracle_front(g, t, TINY, ArchMode.FGDVS, Budget(power_cap=0.0))
    assert len(front) == 0


def test_front_members_satisfy_budget():
    g = parse_dfg(PAIR)
    t = compute_timing(g, 2)
    b = Budget(area_caps={"mul": 1})
    front = oracle_front(g, t, TINY, ArchMode.FGDVS, b)
    assert len(front) >= 1
    for e in front:
        assert b.allows(e.cost.area_by_type, e.cost.power)
        assert e.cost.area_total == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_nested_budgets_keep_strict_front_feasible(seed, k):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=3000)
    t = compute_timing(g, k)
    strict = Budget(power_cap=rng.uniform(5.0, 60.0))
    loose = Budget(power_cap=strict.power_cap * 2)
    inner = oracle_front(g, t, lib, ArchMode.FGDVS, strict)
    outer = oracle_front(g, t, lib, ArchMode.FGDVS, loose)
    outer_pts = outer.cost_points()
    for a, p in inner.cost_points():
        # still feasible under the looser cap, so something at least as
        # good must be on the looser front
        assert any(oa <= a and op <= p + POWER_EPS for oa, op in outer_pts)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_single_vdd_front_is_one_point_for_one_type(seed):
    # with a single op type, leakage rises with every extra unit, so the
    # min-area point also has min power and dominates everything else
    rng = random.Random(seed)
    types = ["mul"]
    lib = load_resource_library(support.random_library_text(rng, types))
    g = parse_dfg(support.random_dag_text(rng, types, rng.randint(2, 6)))
    t = compute_timing(g, rng.randint(0, 2))
    front = oracle_front(g, t, lib, ArchMode.SINGLE_VDD)
    assert len(front) == 1
