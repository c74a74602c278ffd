from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvsched import (
    ArchMode,
    Budget,
    CycleError,
    DfgParseError,
    SearchConfig,
    bb_pareto,
    compute_timing,
    list_schedule,
    load_resource_library,
    parse_dfg,
    topological_order,
    validate_schedule,
)
from dvsched import dfg

import support
from conftest import BENCH_NAMES, load_bench

CHAIN2 = "name chain2\nnode 1 mul\nnode 2 add\nedge 1 -> 2\n"
CHAIN3 = "name chain3\nnode 1 mul\nnode 2 add\nnode 3 add\nedge 1 -> 2\nedge 2 -> 3\n"
DIAMOND = (
    "name diamond\nnode 1 mul\nnode 2 add\nnode 3 add\nnode 4 mul\n"
    "edge 1 -> 2\nedge 1 -> 3\nedge 2 -> 4\nedge 3 -> 4\n"
)
# a -> b -> c with a side feeder d -> c
SIDE_FEED = (
    "name sidefeed\nnode 1 mul\nnode 2 add\nnode 3 add\nnode 4 mul\n"
    "edge 1 -> 2\nedge 2 -> 3\nedge 4 -> 3\n"
)

BENCH_NODE_COUNTS = {
    "diffeq": 11,
    "iir": 16,
    "fir": 21,
    "volterra": 28,
    "lattice": 28,
    "ewf": 37,
    "dct": 42,
}


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal():
    g = parse_dfg(CHAIN2)
    assert g.name == "chain2"
    assert g.nodes == {1: "mul", 2: "add"}
    assert g.edges == ((1, 2),)


def test_parse_ignores_comments_and_blanks():
    text = "# header\nname t\n\nnode 1 mul  # trailing\n   \nnode 2 add\nedge 1 -> 2\n"
    g = parse_dfg(text)
    assert len(g) == 2


def test_parse_two_cycle_rejected():
    with pytest.raises(CycleError) as exc:
        parse_dfg(CHAIN2 + "edge 2 -> 1\n")
    assert set(exc.value.cycle) >= {1, 2}


def test_parse_self_loop_rejected():
    with pytest.raises(CycleError):
        parse_dfg("name t\nnode 1 mul\nedge 1 -> 1\n")


def test_parse_duplicate_node_id():
    with pytest.raises(DfgParseError) as exc:
        parse_dfg("name t\nnode 1 mul\nnode 1 add\n")
    assert exc.value.line_no == 3
    assert "duplicate node id 1" in str(exc.value)


def test_parse_dangling_edge_endpoint():
    with pytest.raises(DfgParseError) as exc:
        parse_dfg("name t\nnode 1 mul\nedge 1 -> 9\n")
    assert exc.value.line_no == 3
    assert "unknown node 9" in str(exc.value)


def test_parse_unknown_directive():
    with pytest.raises(DfgParseError) as exc:
        parse_dfg("name t\nvertex 1 mul\n")
    assert exc.value.line_no == 2


def test_parse_name_must_come_first():
    with pytest.raises(DfgParseError):
        parse_dfg("node 1 mul\nname t\n")


def test_parse_duplicate_name_line():
    with pytest.raises(DfgParseError):
        parse_dfg("name t\nname u\nnode 1 mul\n")


def test_parse_bad_node_id():
    with pytest.raises(DfgParseError) as exc:
        parse_dfg("name t\nnode one mul\n")
    assert "not an integer" in str(exc.value)


def test_parse_bad_edge_syntax():
    with pytest.raises(DfgParseError):
        parse_dfg("name t\nnode 1 mul\nnode 2 add\nedge 1 2\n")


def test_parse_empty_document():
    with pytest.raises(DfgParseError):
        parse_dfg("# nothing\n")


@pytest.mark.parametrize("bench", BENCH_NAMES)
def test_bundled_benchmarks_parse(bench):
    g = load_bench(bench)
    assert g.name == bench
    assert len(g) == BENCH_NODE_COUNTS[bench]


# ---------------------------------------------------------------------------
# topological order


def test_topo_chain():
    assert topological_order(parse_dfg(CHAIN3)) == [1, 2, 3]


def test_topo_diamond_tie_break_by_id():
    assert topological_order(parse_dfg(DIAMOND)) == [1, 2, 3, 4]


def test_topo_respects_edges_on_ewf():
    g = load_bench("ewf")
    order = topological_order(g)
    assert sorted(order) == sorted(g.nodes)
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in g.edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_topo_invariant_under_edge_permutation(seed):
    rng = random.Random(seed)
    types = list(rng.sample(support.OP_POOL, 2))
    text = support.random_dag_text(rng, types, rng.randint(2, 8))
    lines = text.splitlines()
    head = [ln for ln in lines if not ln.startswith("edge")]
    edges = [ln for ln in lines if ln.startswith("edge")]
    rng.shuffle(edges)
    a = topological_order(parse_dfg(text))
    b = topological_order(parse_dfg("\n".join(head + edges) + "\n"))
    assert a == b


def test_topo_is_computed_once_per_graph(default_lib, monkeypatch):
    # parse_dfg sorts the graph once; timing, the list scheduler and the
    # search read that order, and topological_order hands out copies of it.
    sorts = []
    real = dfg._kahn_order
    monkeypatch.setattr(dfg, "_kahn_order", lambda g: sorts.append(g.name) or real(g))
    g = parse_dfg(DIAMOND)
    t = compute_timing(g, 1)
    list_schedule(g, t, default_lib, ArchMode.FGDVS, Budget(power_cap=1e9))
    bb_pareto(g, t, default_lib, SearchConfig(mode=ArchMode.FGDVS))
    assert sorts == ["diamond"]
    order = topological_order(g)
    order.reverse()
    assert topological_order(g) == [1, 2, 3, 4]
    # the stored order is derived, so it takes no part in repr or ==
    assert "order" not in repr(g)
    assert g == parse_dfg(DIAMOND)


# ---------------------------------------------------------------------------
# timing


def test_timing_chain_k0():
    t = compute_timing(parse_dfg(CHAIN3), 0)
    assert t.asap == {1: 1, 2: 2, 3: 3}
    assert t.alap == {1: 1, 2: 2, 3: 3}
    assert t.mobility == {1: 0, 2: 0, 3: 0}
    assert t.critical_length == 3
    assert t.latency_bound == 3


def test_timing_side_feeder_mobility():
    t = compute_timing(parse_dfg(SIDE_FEED), 0)
    assert t.mobility == {1: 0, 2: 0, 3: 0, 4: 1}
    assert t.asap[4] == 1 and t.alap[4] == 2


def test_timing_slack_shifts_alap_uniformly():
    t0 = compute_timing(parse_dfg(SIDE_FEED), 0)
    t1 = compute_timing(parse_dfg(SIDE_FEED), 1)
    assert t1.latency_bound == t0.latency_bound + 1
    assert t1.asap == t0.asap
    assert all(t1.mobility[v] == t0.mobility[v] + 1 for v in t0.mobility)


def test_timing_rejects_negative_slack():
    with pytest.raises(ValueError):
        compute_timing(parse_dfg(CHAIN2), -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_timing_invariants_on_random_dags(seed, k):
    rng = random.Random(seed)
    types = list(rng.sample(support.OP_POOL, 2))
    g = parse_dfg(support.random_dag_text(rng, types, rng.randint(2, 8)))
    t = compute_timing(g, k)
    assert t.latency_bound == t.critical_length + k
    for v in g.nodes:
        assert 1 <= t.asap[v] <= t.alap[v] <= t.latency_bound
        assert t.mobility[v] == t.alap[v] - t.asap[v]
    for u, v in g.edges:
        assert t.asap[v] >= t.asap[u] + 1
        assert t.alap[u] <= t.alap[v] - 1
    if k == 0:
        # every longest path is pinned
        assert min(t.mobility.values()) == 0
        assert max(t.asap.values()) == t.critical_length
    # extra slack widens every window by the same amount
    t2 = compute_timing(g, k + 2)
    assert t2.asap == t.asap
    assert all(t2.mobility[v] == t.mobility[v] + 2 for v in g.nodes)


# ---------------------------------------------------------------------------
# schedule validation


def test_validate_ok_chain():
    g = parse_dfg(CHAIN2)
    t = compute_timing(g, 0)
    assert validate_schedule(g, t, {1: (1, 1), 2: (2, 1)}) is None


def test_validate_deadline_violation():
    g = parse_dfg(CHAIN2)
    t = compute_timing(g, 0)
    v = validate_schedule(g, t, {1: (1, 2), 2: (2, 1)})
    assert v is not None and v.rule == "deadline" and v.node == 1


def test_validate_precedence_violation():
    # with one step of slack the long duration fits its window, so the
    # edge rule is what trips
    g = parse_dfg(CHAIN2)
    t = compute_timing(g, 1)
    v = validate_schedule(g, t, {1: (1, 2), 2: (2, 1)})
    assert v is not None and v.rule == "precedence" and v.edge == (1, 2)


def test_validate_single_node_late_slow_start():
    g = parse_dfg("name one\nnode 1 mul\n")
    t = compute_timing(g, 2)
    assert validate_schedule(g, t, {1: (2, 2)}) is None  # completes at step 3


def test_validate_start_window():
    g = parse_dfg(CHAIN2)
    t = compute_timing(g, 0)
    v = validate_schedule(g, t, {1: (1, 1), 2: (1, 1)})
    assert v is not None and v.rule == "start-window" and v.node == 2


def test_validate_bad_duration():
    g = parse_dfg(CHAIN2)
    t = compute_timing(g, 0)
    v = validate_schedule(g, t, {1: (1, 0), 2: (2, 1)})
    assert v is not None and v.rule == "duration"


def test_validate_library_durations():
    g = parse_dfg("name one\nnode 1 mul\n")
    t = compute_timing(g, 4)
    lib = load_resource_library(support.TINY_LIB)
    allowed = lib.pricing(ArchMode.FGDVS).durations()
    assert validate_schedule(g, t, {1: (1, 3)}, allowed) is None
    v = validate_schedule(g, t, {1: (1, 4)}, allowed)
    assert v is not None and v.rule == "duration"


def test_validate_unknown_and_missing_ids():
    g = parse_dfg(CHAIN2)
    t = compute_timing(g, 0)
    with pytest.raises(ValueError):
        validate_schedule(g, t, {1: (1, 1), 2: (2, 1), 3: (1, 1)})
    with pytest.raises(ValueError):
        validate_schedule(g, t, {1: (1, 1)})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_random_walk_schedules_validate(seed, k):
    rng = random.Random(seed)
    g, lib = support.random_instance(rng, state_cap=10**6)
    t = compute_timing(g, k)
    s = support.random_schedule(rng, g, t, lib)
    assert validate_schedule(g, t, s, lib.pricing(ArchMode.FGDVS).durations()) is None
