from __future__ import annotations

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvsched import (
    ArchMode,
    Budget,
    LibraryError,
    Priority,
    compute_timing,
    list_schedule,
    load_resource_library,
    parse_dfg,
    schedule_cost,
    validate_schedule,
)
from dvsched import listsched, power
from dvsched.cli import main

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
            assert validate_schedule(g, t, s, lib.pricing(ArchMode.FGDVS).durations()) is None
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
    greedy schedule's own cost, where candidates are probed and rejected."""
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


def test_fgdvs_pricing_binds_from_the_candidates_place(default_lib, diffeq, monkeypatch):
    # Each probe binds the candidate's type again only from the first op
    # whose binding can change, so a budgeted pass binds a number of ops
    # linear in the graph size, where binding every placed op of the type
    # per candidate would be quadratic.
    binds = []  # (ops bound, binding kept) per _bind call
    real_bind = power._bind

    def counting(ops, units, pool, seats):
        binds.append((len(ops), seats is not None))
        return real_bind(ops, units, pool, seats)

    monkeypatch.setattr(power, "_bind", counting)
    n = 1500
    g = parse_dfg(_chain_text(n))
    t = compute_timing(g, 0)
    asap = {v: (t.asap[v], 1) for v in g.nodes}
    cap = schedule_cost(g, asap, default_lib, ArchMode.FGDVS, t.latency_bound).power
    assert binds == [(n, False)]  # one pass, nothing kept
    binds.clear()
    assert list_schedule(g, t, default_lib, ArchMode.FGDVS, Budget(power_cap=cap)) == asap
    assert len(binds) == n
    assert sum(size for size, _kept in binds) < 2 * n

    # diffeq under caps just below its greedy cost: candidates are rejected
    # and never placed.  A candidate probed at its type's unit count is
    # bound from its own place in (start, id) order.
    runs = []
    for k in (1, 2):
        t = compute_timing(diffeq, k)
        for pr in Priority:
            greedy = list_schedule(diffeq, t, default_lib, ArchMode.FGDVS, priority=pr)
            cost = schedule_cost(diffeq, greedy, default_lib, ArchMode.FGDVS, t.latency_bound)
            runs += [(t, pr, Budget(power_cap=cost.power * f)) for f in (0.99, 0.9, 0.8)]
    probed = []  # [ops after the place, same unit count, binds, rejected] per probe
    real_probe, real_place = power.CostState.probe, power.CostState.place

    def probe(state, nid, op, start, row):
        binder = state.binders.get(op)
        binds.clear()
        out = real_probe(state, nid, op, start, row)
        after = same = None
        if binder is not None:
            after = len(binder.ops) - bisect_left(binder.ops, (start, nid))
            same = out.area_by_type[op] == binder.units
        probed.append([after, same, list(binds), True])
        return out

    def place(state):
        probed[-1][3] = False
        real_place(state)

    monkeypatch.setattr(power.CostState, "probe", probe)
    monkeypatch.setattr(power.CostState, "place", place)
    for t, pr, budget in runs:
        list_schedule(diffeq, t, default_lib, ArchMode.FGDVS, budget, pr)
    rejected = [p for p in probed if p[3] and p[1]]
    assert rejected
    for after, _same, calls, _rejected in rejected:
        assert calls == [(after + 1, True)]  # the candidate and the ops after it


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans())
def test_matches_prefix_recosting_greedy_on_layered_graphs(seed, k, gapped):
    """As above on layered graphs of 60 to 120 nodes, deep enough that a
    candidate lands before ops of its type placed earlier, a type's unit
    count grows, and a candidate is rejected after a resumed binding."""
    rng = random.Random(seed)
    types = rng.sample(support.OP_POOL, rng.randint(1, 3))
    text = support.gapped_library_text if gapped else support.random_library_text
    lib = load_resource_library(text(rng, types))
    width = rng.randint(3, 8)
    g = parse_dfg(support.layered_dag_text(rng, types, rng.randint(60, 120) // width, width))
    t = compute_timing(g, k)
    for mode in ArchMode:
        for pr in Priority:
            greedy = _outcome(list_schedule, g, t, lib, mode, Budget(), pr)
            if not isinstance(greedy, dict):
                continue
            cost = schedule_cost(g, greedy, lib, mode, t.latency_bound)
            caps = [Budget(power_cap=cost.power * f) for f in (0.8, 0.99, 1 - 1e-6)]
            caps.append(Budget(area_caps={op: n - 1 for op, n in cost.area_by_type.items()}))
            for b in caps:
                assert _outcome(list_schedule, g, t, lib, mode, b, pr) == _outcome(
                    support.reference_list_schedule, g, t, lib, mode, b, pr
                )


# A library whose dynamic power per op is near the largest float: three ops
# sum past it.
HUGE_LIB = """\
type mul
level vdd=1.0 cycles=1 pdyn=6e307 plk=0 psw=0
level vdd=0.8 cycles=2 pdyn=3e307 plk=0 psw=0
"""


@pytest.mark.parametrize("mode", list(ArchMode))
@pytest.mark.parametrize("priority", list(Priority))
def test_power_too_large_for_a_float_is_a_library_error(mode, priority):
    # The running sums fold only rows a cost priced without overflow, so an
    # overflow is always the cost's own LibraryError, never an
    # OverflowError or fsum's ValueError on infinite partials.
    lib = load_resource_library(HUGE_LIB)
    g = parse_dfg(_chain_text(6).replace(" add", " mul"))
    t = compute_timing(g, 6)
    for budget in (Budget(power_cap=1.79e308), Budget(area_caps={"mul": 1})):
        with pytest.raises(LibraryError, match="too large"):
            list_schedule(g, t, lib, mode, budget, priority)
    asap = {v: (t.asap[v], 1) for v in g.nodes}
    with pytest.raises(LibraryError, match="too large"):
        schedule_cost(g, asap, lib, mode, t.latency_bound)


def test_power_too_large_for_a_float_exits_2(tmp_path, capsys):
    (tmp_path / "huge.lib").write_text(HUGE_LIB, encoding="utf-8")
    (tmp_path / "chain.dfg").write_text(_chain_text(6).replace(" add", " mul"), encoding="utf-8")
    for mode in ArchMode:
        argv = ["budget", "--dfg", str(tmp_path / "chain.dfg"), "--lib", str(tmp_path / "huge.lib"),
                "--mode", mode.value, "--k", "6", "--algorithm", "list",
                "--power-budget", "1.79e308"]
        assert main(argv) == 2
        assert "too large" in capsys.readouterr().err
