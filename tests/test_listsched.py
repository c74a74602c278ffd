from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvsched import (
    ArchMode,
    Budget,
    Priority,
    compute_timing,
    list_schedule,
    load_resource_library,
    parse_dfg,
    schedule_cost,
    validate_schedule,
)
from dvsched import listsched, power

import support
from conftest import load_bench

TINY = load_resource_library(support.TINY_LIB)


# ---------------------------------------------------------------------------
# budgets


def test_budget_rejects_both_kinds():
    with pytest.raises(ValueError):
        Budget(area_caps={"mul": 1}, power_cap=10.0)


def test_budget_rejects_negative_caps():
    with pytest.raises(ValueError):
        Budget(area_caps={"mul": -1})
    with pytest.raises(ValueError):
        Budget(power_cap=-0.1)


def test_budget_allows_boundaries():
    b = Budget(area_caps={"mul": 2})
    assert b.allows({"mul": 2}, 0.0)
    assert not b.allows({"mul": 3}, 0.0)
    assert b.allows({"add": 99}, 0.0)  # uncapped types are free
    p = Budget(power_cap=10.0)
    assert p.allows({}, 10.0)
    assert p.allows({}, 10.0 + 1e-10)  # within tolerance
    assert not p.allows({}, 10.1)
    assert Budget().unconstrained


# ---------------------------------------------------------------------------
# unconstrained behavior


def test_min_duration_degenerates_to_unit_asap(default_lib, diffeq):
    t = compute_timing(diffeq, 0)
    s = list_schedule(diffeq, t, default_lib, ArchMode.FGDVS)
    assert s == {v: (t.asap[v], 1) for v in diffeq.nodes}


def test_zero_mobility_forces_unit_durations():
    g = parse_dfg("name chain\nnode 1 mul\nnode 2 mul\nedge 1 -> 2\n")
    t = compute_timing(g, 0)
    b = Budget(area_caps={"mul": 1})
    for pr in Priority:
        assert list_schedule(g, t, TINY, ArchMode.FGDVS, b, pr) == {1: (1, 1), 2: (2, 1)}


def test_max_duration_stretches_into_slack():
    g = parse_dfg(support.TRI_DFG)
    t = compute_timing(g, 2)
    s = list_schedule(g, t, TINY, ArchMode.FGDVS, Budget(), Priority.MAX_DURATION)
    assert s == {1: (1, 3), 2: (1, 3), 3: (1, 3)}


# ---------------------------------------------------------------------------
# infeasibility

def test_power_cap_below_any_single_op():
    g = parse_dfg("name two\nnode 1 mul\nnode 2 mul\n")
    t = compute_timing(g, 2)
    # cheapest single op under TINY costs 5.25 mW (3 cycles at the lowest level)
    b = Budget(power_cap=4.0)
    for pr in Priority:
        assert list_schedule(g, t, TINY, ArchMode.FGDVS, b, pr) is None


def test_diffeq_tight_caps_split_by_priority(default_lib, diffeq):
    t = compute_timing(diffeq, 0)
    b = Budget(area_caps={"mul": 4, "add": 1, "comp": 1})
    assert list_schedule(diffeq, t, default_lib, ArchMode.FGDVS, b, Priority.MAX_DURATION) is None
    s = list_schedule(diffeq, t, default_lib, ArchMode.FGDVS, b, Priority.MIN_DURATION)
    assert s is not None
    cost = schedule_cost(diffeq, s, default_lib, ArchMode.FGDVS, t.latency_bound)
    assert b.allows(cost.area_by_type, cost.power)


def test_defer_fixture_fails_both_priorities(default_lib):
    # one multiplier suffices if node 2 waits for the last step, but the
    # greedy pass never defers a ready node, so both priorities get stuck
    g = parse_dfg(support.DEFER_DFG)
    t = compute_timing(g, 1)
    b = Budget(area_caps={"mul": 1})
    for pr in Priority:
        assert list_schedule(g, t, default_lib, ArchMode.FGDVS, b, pr) is None


# ---------------------------------------------------------------------------
# contract on success


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_feasible_results_validate_and_fit_budget(seed, k):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=10**6)
    t = compute_timing(g, k)
    mode = rng.choice(list(ArchMode))
    for b in support.sampled_budgets(rng, g, t, lib):
        for pr in Priority:
            s = list_schedule(g, t, lib, mode, b, pr)
            if s is None:
                continue
            assert validate_schedule(g, t, s, lib.allowed_durations()) is None
            cost = schedule_cost(g, s, lib, mode, t.latency_bound)
            assert b.allows(cost.area_by_type, cost.power)


def test_deterministic(default_lib):
    g = load_bench("iir")
    t = compute_timing(g, 2)
    b = Budget(area_caps={"mul": 3, "add": 2, "comp": 1})
    a = list_schedule(g, t, default_lib, ArchMode.FGDVS, b, Priority.MAX_DURATION)
    c = list_schedule(g, t, default_lib, ArchMode.FGDVS, b, Priority.MAX_DURATION)
    assert a == c


# ---------------------------------------------------------------------------
# the running prefix cost


def _outcome(fn, *args):
    """``fn``'s return value, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans())
def test_matches_prefix_recosting_greedy(seed, k, gapped):
    """The running cost state makes every decision the whole-prefix
    ``schedule_cost`` greedy makes, including under caps just below the
    greedy schedule's own cost, where candidates are rejected and undone."""
    rng = random.Random(seed)
    text = support.gapped_library_text if gapped else support.random_library_text
    g, lib = support.random_instance(rng, state_cap=10**6, library_text=text)
    t = compute_timing(g, k)
    budgets = support.sampled_budgets(rng, g, t, lib)
    for mode in ArchMode:
        for pr in Priority:
            caps = list(budgets)
            greedy = list_schedule(g, t, lib, mode, Budget(), pr)
            if greedy is not None:
                cost = schedule_cost(g, greedy, lib, mode, t.latency_bound)
                caps += [Budget(power_cap=cost.power * f) for f in (0.8, 0.99, 1 - 1e-6)]
                caps.append(Budget(area_caps={op: n - 1 for op, n in cost.area_by_type.items()}))
            for b in caps:
                assert _outcome(list_schedule, g, t, lib, mode, b, pr) == _outcome(
                    support.reference_list_schedule, g, t, lib, mode, b, pr
                )


def _chain_text(n: int) -> str:
    lines = [f"name chain{n}"] + [f"node {i} add" for i in range(1, n + 1)]
    lines += [f"edge {i} -> {i + 1}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def test_budgeted_pass_never_recosts_the_prefix(default_lib, monkeypatch):
    # On a 1500-node chain at k=0 every node has one start step and only
    # its unit duration fits, so each pass must return the unit ASAP
    # schedule; a whole-prefix recost per placement would be quadratic.
    g = parse_dfg(_chain_text(1500))
    t = compute_timing(g, 0)
    asap = {v: (t.asap[v], 1) for v in g.nodes}
    caps = {m: schedule_cost(g, asap, default_lib, m, t.latency_bound).power for m in ArchMode}

    def forbidden(*args, **kwargs):
        raise AssertionError("budgeted list_schedule called schedule_cost")

    monkeypatch.setattr(power, "schedule_cost", forbidden)
    monkeypatch.setattr(listsched, "schedule_cost", forbidden)
    for mode in ArchMode:
        for b in (Budget(area_caps={"add": 1}), Budget(power_cap=caps[mode])):
            assert list_schedule(g, t, default_lib, mode, b) == asap


def test_fgdvs_switch_charges_once_per_pricing(default_lib, diffeq, monkeypatch):
    # Each pricing recomputes only the charges its adds and undos dropped,
    # with one switch_charges call; one call per added node would make the
    # 1500-node chain's schedule_cost quadratic.
    calls = {"switch": 0, "priced": 0}
    real_switch, real_cost = power.switch_charges, power.Pricing.cost

    def switch(*args):
        calls["switch"] += 1
        return real_switch(*args)

    def priced(*args):
        calls["priced"] += 1
        return real_cost(*args)

    monkeypatch.setattr(power, "switch_charges", switch)
    monkeypatch.setattr(power.Pricing, "cost", priced)
    g = parse_dfg(_chain_text(1500))
    t = compute_timing(g, 0)
    asap = {v: (t.asap[v], 1) for v in g.nodes}
    cap = schedule_cost(g, asap, default_lib, ArchMode.FGDVS, t.latency_bound).power
    assert calls == {"switch": 1, "priced": 1}
    assert list_schedule(g, t, default_lib, ArchMode.FGDVS, Budget(power_cap=cap)) == asap
    assert calls == {"switch": 1501, "priced": 1501}

    # diffeq under a cap just below its greedy cost: candidates are
    # rejected and taken back, and each one priced is charged once
    undos = []
    real_undo = power.CostState.undo
    monkeypatch.setattr(power.CostState, "undo", lambda state: undos.append(real_undo(state)))
    t = compute_timing(diffeq, 1)
    greedy = list_schedule(diffeq, t, default_lib, ArchMode.FGDVS, priority=Priority.MAX_DURATION)
    cap = schedule_cost(diffeq, greedy, default_lib, ArchMode.FGDVS, t.latency_bound).power
    calls.update(switch=0, priced=0)
    list_schedule(
        diffeq, t, default_lib, ArchMode.FGDVS, Budget(power_cap=cap * 0.99), Priority.MAX_DURATION
    )
    assert undos
    assert calls["switch"] == calls["priced"]
