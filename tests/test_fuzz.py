"""Fuzz tests: no input text ends in anything but a documented outcome,
and no valid library gives a wrong cost.

Each parser either returns a value or raises its own error type, and the
CLI run on a fuzzed library or area budget exits with one of its
documented codes.  On random valid libraries the search's fronts match
the oracle's and every kept schedule recosts to its archived cost.
"""
from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dvsched import (
    ArchMode,
    DfgError,
    LibraryError,
    ResourceLibrary,
    SearchConfig,
    VoltageLevel,
    bb_pareto,
    compute_timing,
    load_resource_library,
    oracle_front,
    parse_dfg,
    schedule_cost,
    state_space_estimate,
)
from dvsched.cli import main

import support

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Tokens the two line formats are made of, plus near misses.
WORDS = st.sampled_from([
    "name", "node", "edge", "->", "type", "level", "#", "mul", "add", "comp", "x",
    "1", "2", "3", "0", "-1", "07", "1_0", "١", "99999999999999999999",
])
NUMBERS = st.one_of(
    st.sampled_from([
        "0", "1", "2", "3", "-1", "0.5", "1e308", "1e-320", "1e400", "-0",
        "nan", "inf", "-inf", "1_0", "٣", "0x1", "", "=", "1.5e2",
    ]),
    st.integers(-5, 10**12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
FIELD = st.sampled_from(["vdd", "cycles", "pdyn", "plk", "psw", "x"])


def _line(tokens: list[str]) -> str:
    return " ".join(tokens)


dfg_lines = st.lists(st.lists(WORDS, min_size=0, max_size=5).map(_line), max_size=12)
dfg_texts = st.one_of(
    st.text(max_size=200),
    dfg_lines.map("\n".join),
    dfg_lines.map(lambda lines: "\n".join(["name g", *lines])),
)

level_line = st.lists(
    st.builds(lambda k, v: f"{k}={v}", FIELD, NUMBERS), min_size=0, max_size=6
).map(lambda kv: _line(["level", *kv]))
type_line = st.one_of(
    st.sampled_from(["mul", "add", "comp"]), st.text(min_size=1, max_size=4)
).map(lambda op: f"type {op}")
lib_texts = st.one_of(
    st.text(max_size=200),
    st.lists(st.one_of(type_line, level_line, WORDS), max_size=12).map("\n".join),
)


# Valid power values of every magnitude; free text covers the invalid ones.
POWER = st.one_of(
    st.sampled_from(["0", "1", "16", "1e154", "1e308", "1e-320"]),
    st.floats(0, 1e6).map(repr),
)


@st.composite
def loadable_lib_texts(draw) -> str:
    """Libraries for the smoke graph's types that pass the level checks more
    often than free text: cycles ascend, vdd and pdyn descend, and the
    magnitudes of the power values are fuzzed."""
    lines = []
    for op in ("mul", "add"):
        lines.append(f"type {op}")
        cycles = sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=3)))
        pdyn = draw(POWER)
        for i, c in enumerate(cycles):
            scaled = pdyn if i == 0 else f"{float(pdyn) / (i + 1)!r}"
            lines.append(
                f"level vdd={1.0 - 0.1 * i:.1f} cycles={c} "
                f"pdyn={scaled} plk={draw(POWER)} psw={draw(POWER)}"
            )
    return "\n".join(lines) + "\n"


cli_lib_texts = st.one_of(lib_texts, loadable_lib_texts())


@FUZZ
@given(dfg_texts)
def test_parse_dfg_parses_or_raises_dfg_error(text):
    try:
        g = parse_dfg(text)
    except DfgError:
        return
    assert isinstance(g.name, str)


@FUZZ
@given(lib_texts)
def test_load_library_loads_or_raises_library_error(text):
    try:
        lib = load_resource_library(text)
    except LibraryError:
        return
    assert lib.op_types()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "smoke.dfg").write_text(support.SMOKE_DFG, encoding="utf-8")
    return path


@FUZZ
@given(
    cli_lib_texts,
    st.sampled_from([
        ["pareto", "--mode", "single-vdd"],
        ["pareto", "--mode", "multi-vdd"],
        ["pareto", "--mode", "fgdvs"],
        ["compare"],
        ["oracle"],
        ["budget", "--algorithm", "bb-first", "--power-budget", "40"],
        ["budget", "--algorithm", "list", "--area-budget", "mul=1"],
    ]),
    st.integers(0, 2),
)
@example(  # power sums too large for a float
    "type mul\nlevel vdd=1.0 cycles=1 pdyn=1e308 plk=0 psw=0\n"
    "type add\nlevel vdd=1.0 cycles=1 pdyn=0 plk=0 psw=0\n",
    ["pareto", "--mode", "single-vdd"],
    0,
)
def test_cli_on_fuzzed_library_exits_with_a_documented_code(fuzz_dir, text, command, k):
    lib = fuzz_dir / "fuzz.lib"
    lib.write_text(text, encoding="utf-8")
    dfg = fuzz_dir / "smoke.dfg"
    argv = [command[0], "--dfg", str(dfg), "--lib", str(lib), "--k", str(k), *command[1:]]
    assert main(argv) in (0, 2, 3, 4)


# Area budgets over the default library's types: comp is not in the smoke
# graph, repeats and 0 caps are drawn often, and the counts include near
# misses of an integer.
area_budgets = st.lists(
    st.tuples(
        st.sampled_from(["mul", "add", "comp"]),
        st.one_of(st.integers(0, 3).map(str), st.sampled_from(["-1", "1.5", "", "nan", " 2"])),
    ),
    max_size=4,
).map(lambda caps: ",".join(f"{op}={c}" for op, c in caps))


@FUZZ
@given(
    area_budgets,
    st.sampled_from(["bb-first", "bb", "list"]),
    st.sampled_from(["single-vdd", "multi-vdd", "fgdvs"]),
    st.integers(0, 2),
)
@example("mul=0", "bb", "multi-vdd", 1)
@example("comp=0", "bb-first", "fgdvs", 0)
@example("add=1,add=1", "bb", "single-vdd", 0)
def test_cli_on_fuzzed_area_budget_exits_with_a_documented_code(
    fuzz_dir, default_lib_path, caps, algorithm, mode, k
):
    argv = [
        "budget", "--dfg", str(fuzz_dir / "smoke.dfg"), "--lib", str(default_lib_path),
        "--k", str(k), "--mode", mode, "--algorithm", algorithm, "--area-budget", caps,
    ]
    assert main(argv) in (0, 2, 3, 4)


# Valid libraries whose levels each charge their own psw and plk, so a cost
# that takes either from the wrong level shows.
@st.composite
def valid_libraries(draw, types: tuple[str, ...]) -> ResourceLibrary:
    levels = {}
    for op in types:
        n = draw(st.integers(1, 3))
        cycles = sorted(draw(st.sets(st.integers(1, 4), min_size=n, max_size=n)))
        pdyn = sorted(draw(st.sets(st.floats(0.5, 20.0), min_size=n, max_size=n)), reverse=True)
        plk = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n, unique=True))
        psw = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n, unique=True))
        levels[op] = [
            VoltageLevel(vdd=1.0 - 0.1 * i, cycles=c, p_dyn=d, p_lk=lk, p_sw=sw)
            for i, (c, d, lk, sw) in enumerate(zip(cycles, pdyn, plk, psw))
        ]
    return ResourceLibrary(levels)


@FUZZ
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.data())
def test_search_costs_match_oracle_on_random_libraries(seed, k, data):
    rng = random.Random(seed)
    types = ("mul", "add")
    g = parse_dfg(support.random_dag_text(rng, list(types), rng.randint(2, 6)))
    lib = data.draw(valid_libraries(types))
    t = compute_timing(g, k)
    if state_space_estimate(g, t, lib) > 3000:
        return
    assert_search_matches_oracle(g, t, lib)


def assert_search_matches_oracle(g, t, lib) -> None:
    for mode in ArchMode:
        want = oracle_front(g, t, lib, mode).cost_points()
        rep = bb_pareto(g, t, lib, SearchConfig(mode=mode))
        got = rep.front.cost_points()
        assert support.points_equal(got, want), (mode, got, want)
        for e in rep.front:
            assert e.cost == schedule_cost(g, e.schedule, lib, mode, t.latency_bound)


# A case the test above shrank to.  Under fgdvs the search keeps
# (3, 14.000000001), with a 1e-9 switching charge, where the oracle keeps
# (3, 14.0): powers within POWER_EPS as the program compares them
# (14.000000001 <= 14.0 + POWER_EPS holds in floats), though their
# difference reads 1.00000008e-9.
SWITCHING_TIE_DFG = """\
name switching_tie
node 3 mul
node 1 mul
node 4 add
node 2 mul
edge 3 -> 4
edge 3 -> 2
edge 4 -> 2
"""
SWITCHING_TIE_LIB = """\
type mul
level vdd=1.0 cycles=1 pdyn=5 plk=0 psw=1e-9
level vdd=0.9 cycles=2 pdyn=1 plk=1 psw=0
type add
level vdd=1.0 cycles=1 pdyn=1 plk=0 psw=0
"""


def test_search_costs_match_oracle_on_a_switching_tie():
    g = parse_dfg(SWITCHING_TIE_DFG)
    assert_search_matches_oracle(g, compute_timing(g, 1), load_resource_library(SWITCHING_TIE_LIB))
