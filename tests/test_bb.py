from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvsched
from dvsched import (
    POWER_EPS,
    ArchMode,
    Budget,
    CostTuple,
    ParetoSet,
    Priority,
    SearchConfig,
    bb_first,
    bb_pareto,
    compute_timing,
    enumerate_schedules,
    list_schedule,
    load_resource_library,
    oracle_front,
    parse_dfg,
    schedule_cost,
    validate_schedule,
)

import support
from conftest import load_bench

SMOKE = parse_dfg(support.SMOKE_DFG)
MODES = (ArchMode.SINGLE_VDD, ArchMode.MULTI_VDD, ArchMode.FGDVS)


def counts(rep) -> tuple[int, int, int, int]:
    """(expanded, budget prunes, dominance prunes, state prunes)"""
    return (rep.nodes_expanded, rep.budget_prunes, rep.dominance_prunes, rep.state_prunes)


def ct(area: int, power: float, by_type: dict[str, int] | None = None) -> CostTuple:
    return CostTuple(
        area_total=area,
        area_by_type=by_type if by_type is not None else {"mul": area},
        dynamic=power,
        leakage=0.0,
        switching=0.0,
        latency=1,
    )


# ---------------------------------------------------------------------------
# the two prune rules: an archive member covers the bound, or the budget
# rejects it


def test_bound_equal_cost_archive_member_prunes():
    front = ParetoSet()
    front.insert(ct(3, 50.0), {1: (1, 1)})
    assert front.covers(ct(3, 50.0))


def test_bound_incomparable_partial_survives():
    front = ParetoSet()
    front.insert(ct(3, 50.0), {1: (1, 1)})
    assert not front.covers(ct(2, 60.0))


def test_bound_area_cap():
    partial = ct(4, 10.0, by_type={"mul": 4})
    assert not ParetoSet().covers(partial)
    assert not Budget(area_caps={"mul": 3}).allows(partial.area_by_type, partial.power)
    assert Budget(area_caps={"mul": 4}).allows(partial.area_by_type, partial.power)


def test_bound_power_cap():
    over, at = ct(1, 10.5), ct(1, 10.0)
    assert not Budget(power_cap=10.0).allows(over.area_by_type, over.power)
    assert Budget(power_cap=10.0).allows(at.area_by_type, at.power)


# ---------------------------------------------------------------------------
# config


def test_config_rejects_non_positive_time_limit():
    with pytest.raises(ValueError):
        SearchConfig(mode=ArchMode.FGDVS, time_limit=0)
    with pytest.raises(ValueError):
        SearchConfig(mode=ArchMode.FGDVS, time_limit=-1.0)


# ---------------------------------------------------------------------------
# exactness against the oracle


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_front_matches_oracle(seed, k):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=3000)
    t = compute_timing(g, k)
    for b in support.sampled_budgets(rng, g, t, lib):
        for mode in MODES:
            want = oracle_front(g, t, lib, mode, budget=b).cost_points()
            cfg = SearchConfig(mode=mode, budget=b, debug_check=True)
            rep = bb_pareto(g, t, lib, cfg)
            assert rep.completed
            assert support.points_equal(rep.front.cost_points(), want)


def _level_cut_by_window(g, t, lib) -> bool:
    return any(
        lvl.cycles > t.alap[v] - t.asap[v] + 1
        for v in g.nodes
        for lvl in lib.levels(g.nodes[v])
    )


def _each_node_has_a_fitting_level(g, t, lib, mode) -> bool:
    allowed = lib.pricing(mode).durations()
    return all(
        any(d <= t.alap[v] - t.asap[v] + 1 for d in allowed[op]) for v, op in g.nodes.items()
    )


def test_front_matches_oracle_on_gapped_libraries():
    # Libraries whose fastest level takes 2 cycles or whose cycle counts
    # skip: there the search keeps only the levels that fit a node's window,
    # at k=0 a node may be left with none, and a path's ops may not fit its
    # span even where each op fits its own window.
    rng = random.Random(5)
    cut_nonempty = no_schedule = no_schedule_each_fits = 0
    for _ in range(40):
        g, lib = support.random_instance(
            rng, state_cap=3000, library_text=support.gapped_library_text
        )
        for k in (0, 1, 2):
            t = compute_timing(g, k)
            for mode in MODES:
                free = oracle_front(g, t, lib, mode)
                budgets = [Budget()]
                if len(free):
                    ref = rng.choice(free.entries).cost
                    budgets += [
                        Budget(area_caps=dict(ref.area_by_type)),
                        Budget(power_cap=ref.power * rng.uniform(0.9, 1.1)),
                    ]
                    cut_nonempty += _level_cut_by_window(g, t, lib)
                else:
                    no_schedule += 1
                    no_schedule_each_fits += _each_node_has_a_fitting_level(g, t, lib, mode)
                for b in budgets:
                    want = oracle_front(g, t, lib, mode, budget=b).cost_points()
                    cfg = SearchConfig(mode=mode, budget=b, debug_check=True)
                    rep = bb_pareto(g, t, lib, cfg)
                    assert rep.completed
                    assert support.points_equal(rep.front.cost_points(), want)
                    hit = bb_first(g, t, lib, cfg).first_solution
                    if hit is None:
                        assert rep.first_solution is None and not want
                        continue
                    assert rep.first_solution is not None and want
                    assert hit[:2] == rep.first_solution[:2]
                    assert b.allows(hit[0].area_by_type, hit[0].power)
    # the corpus reaches both effects of the window filter, and the paths'
    assert cut_nonempty > 0 and no_schedule > 0 and no_schedule_each_fits > 0


def test_sampled_budgets_on_a_node_with_no_fitting_level():
    # The random walk behind the sampled budgets can reach a node whose
    # window no level fits; only the empty budget is sampled then.
    rng = random.Random(1)
    g, lib = support.random_instance(rng, state_cap=3000, library_text=support.gapped_library_text)
    t = compute_timing(g, 0)
    assert not _each_node_has_a_fitting_level(g, t, lib, ArchMode.MULTI_VDD)
    assert support.sampled_budgets(rng, g, t, lib) == [Budget()]


def test_bound_admits_the_least_power_point():
    # A bound that overestimates what a completion must still pay cuts the
    # oracle front's least-power point at the exact cap: capped at that
    # point's power, bb_first must find a schedule, and capped at its area
    # vector (a budget caps area or power, not both), bb_pareto must still
    # reach its power through the dominance prune.
    rng = random.Random(17)
    checked = 0
    for library_text in (support.random_library_text, support.gapped_library_text):
        for _ in range(12):
            g, lib = support.random_instance(rng, state_cap=3000, library_text=library_text)
            for k in (0, 1, 2):
                t = compute_timing(g, k)
                for mode in MODES:
                    free = oracle_front(g, t, lib, mode)
                    if not len(free):
                        continue
                    low = min((e.cost for e in free), key=lambda c: c.power)
                    cfg = SearchConfig(mode=mode, budget=Budget(power_cap=low.power))
                    rep = bb_first(g, t, lib, cfg)
                    assert rep.completed and rep.first_solution is not None
                    cfg = SearchConfig(mode=mode, budget=Budget(area_caps=dict(low.area_by_type)))
                    rep = bb_pareto(g, t, lib, cfg)
                    assert rep.completed
                    assert min(p for _a, p in rep.front.cost_points()) <= low.power + POWER_EPS
                    checked += 1
    assert checked > 100


def test_diffeq_front_frozen(default_lib, diffeq):
    t = compute_timing(diffeq, 0)
    rep = bb_pareto(diffeq, t, default_lib, SearchConfig(mode=ArchMode.FGDVS))
    got = rep.front.cost_points()
    want = [(5, 125.49), (6, 114.87), (7, 110.62)]
    assert [a for a, _ in got] == [a for a, _ in want]
    assert all(p == pytest.approx(q, abs=1e-9) for (_x, p), (_y, q) in zip(got, want))
    # classic front shape: power falls as area grows
    assert all(p1 > p2 for (_a1, p1), (_a2, p2) in zip(got, got[1:]))


def test_smoke_fronts_frozen(default_lib):
    t = compute_timing(SMOKE, 2)
    want = {
        ArchMode.SINGLE_VDD: [(2, 41.4)],
        ArchMode.MULTI_VDD: [(2, 38.74), (3, 24.22)],
        ArchMode.FGDVS: [(2, 34.89), (3, 22.87)],
    }
    for mode, pts in want.items():
        rep = bb_pareto(SMOKE, t, default_lib, SearchConfig(mode=mode))
        got = rep.front.cost_points()
        assert [a for a, _ in got] == [a for a, _ in pts]
        assert all(p == pytest.approx(q, abs=1e-9) for (_x, p), (_y, q) in zip(got, pts))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_single_vdd_front_uses_only_fastest_durations(seed):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=3000)
    t = compute_timing(g, rng.randint(0, 2))
    rep = bb_pareto(g, t, lib, SearchConfig(mode=ArchMode.SINGLE_VDD))
    for e in rep.front:
        for v, (_s, d) in e.schedule.items():
            assert d == lib.levels(g.nodes[v])[0].cycles


def test_every_schedule_uses_durations_the_mode_allows():
    # On random and gapped libraries, in every mode, each schedule that
    # list_schedule, oracle_front and bb_pareto return uses only the
    # durations the mode's price table allows, and validates against them.
    rng = random.Random(11)
    checked = dict.fromkeys(MODES, 0)
    for library_text in (support.random_library_text, support.gapped_library_text):
        for _ in range(12):
            g, lib = support.random_instance(rng, state_cap=3000, library_text=library_text)
            for k in (0, 1, 2):
                t = compute_timing(g, k)
                for mode in MODES:
                    allowed = lib.pricing(mode).durations()
                    scheds = [
                        list_schedule(g, t, lib, mode, priority=pr) for pr in Priority
                    ]
                    scheds += [e.schedule for e in oracle_front(g, t, lib, mode)]
                    rep = bb_pareto(g, t, lib, SearchConfig(mode=mode))
                    scheds += [e.schedule for e in rep.front]
                    scheds.append(rep.first_solution and rep.first_solution[1])
                    for s in filter(None, scheds):
                        assert validate_schedule(g, t, s, allowed) is None
                        checked[mode] += 1
    assert all(checked.values())


def test_window_shorter_than_fastest_level_gives_empty_complete_report(diffeq, default_lib):
    # At k=0 diffeq's adds 6 and 7 have 1-step windows and the fastest add
    # level takes 2 cycles, so no schedule exists.
    lib = load_resource_library(support.SLOW_ADD_LIB)
    t = compute_timing(diffeq, 0)
    for mode in MODES:
        rep = bb_pareto(diffeq, t, lib, SearchConfig(mode=mode))
        assert rep.completed and len(rep.front) == 0 and rep.first_solution is None
        rep = bb_first(diffeq, t, lib, SearchConfig(mode=mode, budget=Budget(power_cap=1e6)))
        assert rep.completed and rep.first_solution is None
    # Nor does one when an area cap of 0 leaves a type of the graph without
    # a unit; the search knows before it expands anything.  A 0 cap on a
    # type the graph does not use constrains nothing.
    t = compute_timing(SMOKE, 1)
    for mode in MODES:
        for caps in ({"mul": 0}, {"add": 0, "mul": 5, "comp": 1}):
            cfg = SearchConfig(mode=mode, budget=Budget(area_caps=caps))
            assert len(oracle_front(SMOKE, t, default_lib, mode, budget=cfg.budget)) == 0
            for search in (bb_pareto, bb_first):
                rep = search(SMOKE, t, default_lib, cfg)
                assert rep.completed and len(rep.front) == 0 and rep.first_solution is None
                assert counts(rep) == (0, 0, 0, 0)
        free = bb_pareto(SMOKE, t, default_lib, SearchConfig(mode=mode))
        capped = SearchConfig(mode=mode, budget=Budget(area_caps={"comp": 0}))
        rep = bb_pareto(SMOKE, t, default_lib, capped)
        assert rep.completed and len(rep.front) > 0
        assert rep.front.cost_points() == free.front.cost_points()


def pinned(test_id, name, k, mode, counters, budget=Budget(), first=None):
    # Explicit ids: each embeds the expansion count first pinned for it.
    return pytest.param(name, k, mode, budget, counters, first, id=test_id)


@pytest.mark.parametrize(
    "name, k, mode, budget, counters, first_counters",
    [
        pinned("fir-0-ArchMode.MULTI_VDD-305", "fir", 0, ArchMode.MULTI_VDD,
               (179, 0, 66, 12)),
        pinned("ewf-0-ArchMode.FGDVS-5600", "ewf", 0, ArchMode.FGDVS,
               (1_319, 0, 548, 0)),
        pinned("volterra-0-ArchMode.MULTI_VDD-117426", "volterra", 0, ArchMode.MULTI_VDD,
               (40_055, 0, 27_742, 1_773)),
        pinned("diffeq-1-ArchMode.FGDVS-8558", "diffeq", 1, ArchMode.FGDVS,
               (4_879, 0, 3_555, 0)),
        pinned("diffeq-2-ArchMode.FGDVS-23262", "diffeq", 2, ArchMode.FGDVS,
               (17_001, 9_517, 3_989, 0), Budget(area_caps={"mul": 2, "add": 1, "comp": 1})),
        pinned("fir-1-ArchMode.MULTI_VDD-19466", "fir", 1, ArchMode.MULTI_VDD,
               (275, 87, 25, 23), Budget(power_cap=230), first=(131, 56, 0, 8)),
        pinned("ewf-1-ArchMode.MULTI_VDD-8237", "ewf", 1, ArchMode.MULTI_VDD,
               (8_237, 0, 3_478, 1_432)),
    ],
)
def test_expansion_counts_pinned(default_lib, name, k, mode, budget, counters, first_counters):
    # Search counters are deterministic; a change here means the tree or
    # the bound changed.
    g = load_bench(name)
    t = compute_timing(g, k)
    cfg = SearchConfig(mode=mode, budget=budget)
    rep = bb_pareto(g, t, default_lib, cfg)
    assert rep.completed
    assert counts(rep) == counters
    if first_counters is not None:
        rep = bb_first(g, t, default_lib, cfg)
        assert rep.completed and rep.first_solution is not None
        assert counts(rep) == first_counters


def test_fgdvs_switching_bounds_the_walk(default_lib):
    # Each type's switch charges enter the bound once its last op is
    # placed, so the walk reaches few leaves the front already covers:
    # costing them only at leaves walked 259,777 expansions to 16,462 leaves.
    g = load_bench("ewf")
    rep = bb_pareto(g, compute_timing(g, 1), default_lib, SearchConfig(mode=ArchMode.FGDVS))
    assert rep.completed
    assert (rep.nodes_expanded, rep.leaves, rep.switch_binds) == (85_966, 58, 7_529)


# ---------------------------------------------------------------------------
# leaf costs


# Cells of the bundled graphs whose searches each finish in about a second.
RECOST_CELLS = [
    (name, k, mode)
    for name, ks in (
        ("diffeq", (0, 1, 2)), ("iir", (0, 1, 2)), ("fir", (0, 1)), ("lattice", (0, 1)),
        ("ewf", (0,)), ("dct", (0,)), ("volterra", (0,)),
    )
    for k in ks
    for mode in MODES
    if (name, mode) != ("volterra", ArchMode.FGDVS)
]


@pytest.mark.parametrize("name, k, mode", RECOST_CELLS)
def test_leaf_costs_equal_schedule_cost(default_lib, name, k, mode):
    # A leaf is costed from the walk's own state; every archived cost, and
    # the first solution's, must be exactly what schedule_cost gives.
    g = load_bench(name)
    t = compute_timing(g, k)
    free = bb_pareto(g, t, default_lib, SearchConfig(mode=mode)).front.sorted_entries()
    mid = free[len(free) // 2].cost
    for budget in (Budget(), Budget(power_cap=mid.power), Budget(area_caps=mid.area_by_type)):
        rep = bb_pareto(g, t, default_lib, SearchConfig(mode=mode, budget=budget))
        assert rep.completed and len(rep.front) > 0
        kept = [(e.cost, e.schedule) for e in rep.front]
        kept.append(rep.first_solution[:2])
        for cost, sched in kept:
            assert cost == schedule_cost(g, sched, default_lib, mode, t.latency_bound)


def test_debug_check_raises_on_a_leaf_cost_one_ulp_off(monkeypatch, default_lib):
    t = compute_timing(SMOKE, 1)
    cfg = SearchConfig(mode=ArchMode.FGDVS, debug_check=True)
    bb_pareto(SMOKE, t, default_lib, cfg)
    real = schedule_cost

    def one_ulp_off(*args):
        cost = real(*args)
        return replace(cost, switching=math.nextafter(cost.switching, math.inf))

    monkeypatch.setattr("dvsched.bb.schedule_cost", one_ulp_off)
    with pytest.raises(AssertionError):
        bb_pareto(SMOKE, t, default_lib, cfg)


def test_debug_check_raises_under_python_dash_o(default_lib_path):
    # The same one-ulp-off leaf cost as above, in a python -O process, which
    # drops every assert statement.
    script = textwrap.dedent("""
        import math, sys
        from dataclasses import replace
        from dvsched import ArchMode, SearchConfig, bb, compute_timing, load_resource_library, parse_dfg
        if __debug__:
            sys.exit("not running under -O")
        g, lib = parse_dfg(sys.argv[1]), load_resource_library(sys.argv[2])
        cfg = SearchConfig(mode=ArchMode.FGDVS, debug_check=True)
        bb.bb_pareto(g, compute_timing(g, 1), lib, cfg)
        real = bb.schedule_cost
        def one_ulp_off(*args):
            cost = real(*args)
            return replace(cost, switching=math.nextafter(cost.switching, math.inf))
        bb.schedule_cost = one_ulp_off
        bb.bb_pareto(g, compute_timing(g, 1), lib, cfg)
    """)
    src = str(Path(dvsched.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, support.SMOKE_DFG, default_lib_path.read_text(encoding="utf-8")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("AssertionError: leaf cost ")


# ---------------------------------------------------------------------------
# state cut


def _answers(g, t, lib, cfg) -> tuple:
    """What a search answers: the front with its kept schedules, the first
    solution bb_pareto reports, and bb_first's hit (times left out); and
    the two searches' state prunes and state lookups."""
    reps = [bb_pareto(g, t, lib, cfg), bb_first(g, t, lib, cfg)]
    rep, hit = reps[0], reps[1].first_solution
    return (
        rep.completed,
        [(e.cost, e.schedule) for e in rep.front.sorted_entries()],
        rep.first_solution and rep.first_solution[:2],
        hit and hit[:2],
    ), (sum(r.state_prunes for r in reps), sum(r.state_lookups for r in reps))


@pytest.fixture(scope="module")
def state_cut_corpus() -> list[tuple]:
    """Random single-vdd and multi-vdd searches: no budget, area caps and a
    power cap."""
    rng = random.Random(13)
    cases = []
    for j in range(24):
        text = support.gapped_library_text if j % 2 else support.random_library_text
        g, lib = support.random_instance(rng, library_text=text)
        for k in (0, 1, 2):
            t = compute_timing(g, k)
            for mode in (ArchMode.SINGLE_VDD, ArchMode.MULTI_VDD):
                budgets = [Budget()]
                free = bb_pareto(g, t, lib, SearchConfig(mode=mode)).front
                if len(free):
                    ref = rng.choice(free.entries).cost
                    budgets += [
                        Budget(area_caps=dict(ref.area_by_type)),
                        Budget(power_cap=ref.power * rng.uniform(0.9, 1.1)),
                    ]
                cases += [(g, t, lib, SearchConfig(mode=mode, budget=b)) for b in budgets]
    return cases


@pytest.mark.parametrize("generation", [1, 7])
def test_state_table_eviction_changes_no_answer(monkeypatch, state_cut_corpus, generation):
    # The cut is exact whichever states the table still holds: a table of
    # 1 or 7 entries per generation, which evicts almost everything, gives
    # the same answers as the default size.
    want = [_answers(*case) for case in state_cut_corpus]
    monkeypatch.setattr("dvsched.bb.STATE_GENERATION", generation)
    got = [_answers(*case) for case in state_cut_corpus]
    assert [a for a, _ in got] == [a for a, _ in want]
    assert sum(c[0] for _, c in want) > sum(c[0] for _, c in got) > 0


def test_state_gate_changes_no_answer(monkeypatch, state_cut_corpus):
    # A position the gate turns off is no longer looked up, which cuts
    # nothing: gating at the first lookup count (warm-up 1) or never gives
    # the same answers, with fewer lookups.
    monkeypatch.setattr("dvsched.bb.GATE_WARMUP", 1 << 62)
    never = [_answers(*case) for case in state_cut_corpus]
    monkeypatch.setattr("dvsched.bb.GATE_WARMUP", 1)
    eager = [_answers(*case) for case in state_cut_corpus]
    assert [a for a, _ in eager] == [a for a, _ in never]
    assert 0 < sum(c[1] for _, c in eager) < sum(c[1] for _, c in never)


def test_state_gate_turns_off_positions_whose_lookups_do_not_pay(monkeypatch, default_lib):
    # On volterra k=0 multi-vdd some positions hit too rarely, or guard too
    # little work per miss, to pay for their lookups; the gate stops them,
    # and the search then walks fewer expansions.
    g = load_bench("volterra")
    t = compute_timing(g, 0)
    cfg = SearchConfig(mode=ArchMode.MULTI_VDD)
    gated = bb_pareto(g, t, default_lib, cfg)
    monkeypatch.setattr("dvsched.bb.GATE_WARMUP", 1 << 62)
    ungated = bb_pareto(g, t, default_lib, cfg)
    assert gated.front.cost_points() == ungated.front.cost_points()
    assert gated.state_lookups < ungated.state_lookups
    assert gated.nodes_expanded < ungated.nodes_expanded


def test_state_cut_runs_only_where_it_is_exact(default_lib):
    fir, diffeq = load_bench("fir"), load_bench("diffeq")
    rep = bb_pareto(fir, compute_timing(fir, 2), default_lib, SearchConfig(mode=ArchMode.MULTI_VDD))
    assert rep.state_prunes > 0
    # Not under fgdvs, whose switching charge the state does not capture,
    # and not with dominance pruning off, which must see the plain tree.
    assert bb_pareto(
        diffeq, compute_timing(diffeq, 1), default_lib, SearchConfig(mode=ArchMode.FGDVS)
    ).state_prunes == 0
    diamonds = parse_dfg(support.DIAMONDS_DFG)
    for mode in (ArchMode.SINGLE_VDD, ArchMode.MULTI_VDD):
        cfg = SearchConfig(mode=mode, prune_dominance=False)
        assert bb_pareto(diamonds, compute_timing(diamonds, 2), default_lib, cfg).state_prunes == 0


def _diamond_chain(m: int):
    """m diamonds in series: 4 * m nodes, mul-add-add-mul each."""
    text = "name diamond-chain\n" + "".join(
        f"node {4 * j + 1} mul\nnode {4 * j + 2} add\nnode {4 * j + 3} add\nnode {4 * j + 4} mul\n"
        for j in range(m)
    )
    text += "".join(
        f"edge {4 * j + 1} -> {4 * j + 2}\nedge {4 * j + 1} -> {4 * j + 3}\n"
        f"edge {4 * j + 2} -> {4 * j + 4}\nedge {4 * j + 3} -> {4 * j + 4}\n"
        for j in range(m)
    )
    text += "".join(f"edge {4 * j + 4} -> {4 * j + 5}\n" for j in range(m - 1))
    return parse_dfg(text)


def test_state_cut_with_wide_keys(default_lib):
    # 100 diamonds in series: 400 nodes and a latency bound of 301, so the
    # state cut's values take two bytes each and its usage buffers are cast
    # to "H", not bytearrays.  The cut stays exact, and its counters are
    # pinned.
    g = _diamond_chain(100)
    t = compute_timing(g, 1)
    assert max(len(g.order), t.latency_bound + 1) >= 256
    cut = bb_pareto(g, t, default_lib, SearchConfig(mode=ArchMode.MULTI_VDD))
    plain = bb_pareto(g, t, default_lib, SearchConfig(mode=ArchMode.MULTI_VDD, prune_dominance=False))
    assert cut.completed and plain.completed
    assert cut.front.sorted_entries() == plain.front.sorted_entries()
    assert counts(cut) + (cut.state_lookups, cut.leaves) == (3_607, 0, 187, 973, 3_420, 1)


def test_debug_check_recounts_the_usage_buffers(state_cut_corpus, default_lib):
    # Under debug_check each leaf also rebuilds the usage buffers (one per
    # type, kinds interleaved: bytes under the state cut, a list without
    # it) and every kind's peak from the schedule, and raises on a
    # mismatch; so these searches pass only if the walk's incremental
    # writes and undos leave exactly what a fresh count gives.
    cases = state_cut_corpus[::6]
    g = _diamond_chain(100)
    cases.append((g, compute_timing(g, 1), default_lib, SearchConfig(mode=ArchMode.MULTI_VDD)))
    leaves = 0
    for g, t, lib, cfg in cases:
        for cut in (True, False):
            rep = bb_pareto(g, t, lib, replace(cfg, debug_check=True, prune_dominance=cut))
            assert rep.completed
            leaves += rep.leaves
    assert leaves > 1000


# ---------------------------------------------------------------------------
# pruning


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_disabling_dominance_prune_changes_nothing_but_work(seed, k):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=3000)
    t = compute_timing(g, k)
    schedules = sum(1 for _ in enumerate_schedules(g, t, lib))
    for mode in (ArchMode.MULTI_VDD, ArchMode.FGDVS):
        on = bb_pareto(g, t, lib, SearchConfig(mode=mode))
        off = bb_pareto(g, t, lib, SearchConfig(mode=mode, prune_dominance=False))
        assert support.points_equal(on.front.cost_points(), off.front.cost_points())
        assert on.nodes_expanded <= off.nodes_expanded
        assert off.dominance_prunes == 0
        assert on.dominance_prunes >= 0
        # Unpruned and unbudgeted, the walk reaches every valid schedule once.
        assert off.leaves == schedules
        assert on.leaves <= off.leaves


def test_diamonds_prune_cuts_half_the_work(default_lib):
    g = parse_dfg(support.DIAMONDS_DFG)
    t = compute_timing(g, 2)
    for mode in (ArchMode.MULTI_VDD, ArchMode.FGDVS):
        on = bb_pareto(g, t, default_lib, SearchConfig(mode=mode))
        off = bb_pareto(g, t, default_lib, SearchConfig(mode=mode, prune_dominance=False))
        assert support.points_equal(on.front.cost_points(), off.front.cost_points())
        assert on.nodes_expanded < 0.5 * off.nodes_expanded


# ---------------------------------------------------------------------------
# first-solution mode


def test_smoke_first_solution_is_all_fastest_and_off_front(default_lib):
    t = compute_timing(SMOKE, 2)
    rep = bb_pareto(SMOKE, t, default_lib, SearchConfig(mode=ArchMode.FGDVS))
    assert rep.first_solution is not None
    cost, sched, elapsed = rep.first_solution
    assert sched == {1: (1, 1), 2: (1, 1), 3: (2, 1)}
    assert (cost.area_total, cost.power) == (3, pytest.approx(39.45, abs=1e-9))
    assert elapsed <= rep.elapsed
    # anytime caveat: the first find is not necessarily on the final front
    assert all(
        a != cost.area_total or abs(p - cost.power) > POWER_EPS
        for a, p in rep.front.cost_points()
    )


def test_first_solution_filled_by_default(default_lib):
    # One walk per search: bb_pareto always reports its first solution,
    # which is bb_first's.
    t = compute_timing(SMOKE, 2)
    cfg = SearchConfig(mode=ArchMode.FGDVS)
    rep = bb_pareto(SMOKE, t, default_lib, cfg)
    assert rep.first_solution is not None
    assert rep.first_solution[:2] == bb_first(SMOKE, t, default_lib, cfg).first_solution[:2]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_bb_first_agrees_with_emit_first(seed, k):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=3000)
    t = compute_timing(g, k)
    for b in support.sampled_budgets(rng, g, t, lib):
        cfg = SearchConfig(mode=ArchMode.FGDVS, budget=b)
        hit = bb_first(g, t, lib, cfg).first_solution
        rep = bb_pareto(g, t, lib, cfg)
        if hit is None:
            # exhausted without a feasible leaf: the front must be empty too
            assert len(rep.front) == 0 and rep.first_solution is None
            continue
        cost, sched, _elapsed = hit
        assert rep.first_solution is not None
        fcost, fsched, _ = rep.first_solution
        assert sched == fsched
        assert cost.area_total == fcost.area_total
        assert cost.power == pytest.approx(fcost.power, abs=1e-9)
        assert validate_schedule(g, t, sched, lib.pricing(ArchMode.FGDVS).durations()) is None
        assert b.allows(cost.area_by_type, cost.power)


def test_bb_first_none_below_oracle_minimum(default_lib):
    g = parse_dfg(support.TRI_DFG)
    t = compute_timing(g, 2)
    want = oracle_front(g, t, default_lib, ArchMode.FGDVS).cost_points()
    floor = min(p for _a, p in want)
    cfg = SearchConfig(mode=ArchMode.FGDVS, budget=Budget(power_cap=floor - 1.0))
    assert bb_first(g, t, default_lib, cfg).first_solution is None
    cfg = SearchConfig(mode=ArchMode.FGDVS, budget=Budget(power_cap=floor + 1.0))
    assert bb_first(g, t, default_lib, cfg).first_solution is not None


def test_defer_fixture_first_solution(default_lib):
    g = parse_dfg(support.DEFER_DFG)
    t = compute_timing(g, 1)
    cfg = SearchConfig(mode=ArchMode.FGDVS, budget=Budget(area_caps={"mul": 1}))
    hit = bb_first(g, t, default_lib, cfg).first_solution
    assert hit is not None
    cost, sched, _ = hit
    assert sched == {1: (1, 1), 2: (2, 1), 3: (3, 1)}
    assert cost.area_total == 1


# ---------------------------------------------------------------------------
# time limit


def assert_timed_out_front_is_sound(g, t, lib, mode):
    rep = bb_pareto(g, t, lib, SearchConfig(mode=mode, time_limit=0.3))
    assert not rep.completed
    assert rep.elapsed < 5.0
    # whatever was found is still genuinely feasible and non-dominated
    allowed = lib.pricing(mode).durations()
    for e in rep.front:
        assert validate_schedule(g, t, e.schedule, allowed) is None
    pts = rep.front.cost_points()
    assert all(p1 > p2 for (_a, p1), (_b, p2) in zip(pts, pts[1:]))


def test_time_limit_reports_incomplete(default_lib):
    g = load_bench("dct")
    assert_timed_out_front_is_sound(g, compute_timing(g, 1), default_lib, ArchMode.FGDVS)


def test_time_limit_reports_incomplete_under_the_state_cut(default_lib):
    # A multi-vdd walk stops inside a state-cut subtree just as well.
    g = load_bench("volterra")
    assert_timed_out_front_is_sound(g, compute_timing(g, 1), default_lib, ArchMode.MULTI_VDD)


# ---------------------------------------------------------------------------
# the walk's own stack


def test_deep_chain_needs_no_recursion_limit(monkeypatch, default_lib):
    # The walk keeps its own stack: 1500 positions, past Python's default
    # recursion limit, and nothing may raise that limit.
    def refuse(_limit):
        raise AssertionError("the search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 1500
    text = "name chain\n" + "".join(f"node {i} add\n" for i in range(1, n + 1))
    text += "".join(f"edge {i} -> {i + 1}\n" for i in range(1, n))
    g = parse_dfg(text)
    t = compute_timing(g, 0)
    for mode in MODES:
        rep = bb_pareto(g, t, default_lib, SearchConfig(mode=mode))
        assert rep.completed and rep.first_solution is not None and len(rep.front) == 1
        cfg = SearchConfig(mode=mode, budget=Budget(area_caps={"add": 1}))
        rep = bb_first(g, t, default_lib, cfg)
        assert rep.completed and rep.first_solution[0].area_total == 1
        assert rep.nodes_expanded == n


def test_empty_graph_root_is_the_one_leaf(default_lib):
    g = parse_dfg("name e\n")
    t = compute_timing(g, 0)
    for mode in MODES:
        cfg = SearchConfig(mode=mode)
        full = bb_pareto(g, t, default_lib, cfg)
        first = bb_first(g, t, default_lib, cfg)
        for rep in (full, first):
            assert rep.completed and rep.leaves == 1 and rep.nodes_expanded == 0
            cost, sched, _elapsed = rep.first_solution
            assert (cost.area_total, cost.power, sched) == (0, 0.0, {})
        assert full.front.cost_points() == [(0, 0.0)]
