"""Tests of the benchmark's checker.

    python3 -m pytest -q bench

The checker must accept what dvsched writes, reject each kind of corrupted
output, and agree with costs worked out by hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

import checker
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dvsched import cli  # noqa: E402

# The tests/support.py library: one type, three levels.
TINY_LIB = """\
type mul
level vdd=1.00 cycles=1 pdyn=8.00 plk=1.00 psw=2.00
level vdd=0.80 cycles=2 pdyn=3.00 plk=0.50 psw=2.00
level vdd=0.60 cycles=3 pdyn=1.50 plk=0.25 psw=2.00
"""
PAIR = "name pair\nnode 1 mul\nnode 2 mul\n"
CHAIN3 = "name chain3\nnode 1 mul\nnode 2 mul\nnode 3 mul\nedge 1 -> 2\nedge 2 -> 3\n"


@pytest.mark.parametrize(
    "graph, k, schedule, mode, area, dynamic, leakage, switching",
    [
        # Both at full speed in step 1: two units, leakage per op or per unit.
        (PAIR, 1, {1: (1, 1), 2: (1, 1)}, "fgdvs", 2, 16.0, 2.0, 0.0),
        (PAIR, 1, {1: (1, 1), 2: (1, 1)}, "multi-vdd", 2, 16.0, 4.0, 0.0),
        (PAIR, 1, {1: (1, 1), 2: (1, 1)}, "single-vdd", 2, 16.0, 4.0, 0.0),
        # One op slowed to 2 cycles: under multi-vdd it needs its own unit,
        # which leaks 0.5 for the 2 steps of the bound.
        (PAIR, 1, {1: (1, 2), 2: (1, 1)}, "fgdvs", 2, 14.0, 2.0, 0.0),
        (PAIR, 1, {1: (1, 2), 2: (1, 1)}, "multi-vdd", 2, 14.0, 3.0, 0.0),
        # A chain on one fgdvs unit: 1 -> 2 -> 1 cycles switches twice at 2.0.
        (CHAIN3, 1, {1: (1, 1), 2: (2, 2), 3: (4, 1)}, "fgdvs", 1, 22.0, 3.0, 4.0),
        (CHAIN3, 1, {1: (1, 1), 2: (2, 2), 3: (4, 1)}, "multi-vdd", 2, 22.0, 6.0, 0.0),
        # The same duration twice in a row on one unit is free.
        (CHAIN3, 2, {1: (1, 2), 2: (3, 2), 3: (5, 1)}, "fgdvs", 1, 20.0, 3.0, 2.0),
    ],
)
def test_hand_computed_costs(graph, k, schedule, mode, area, dynamic, leakage, switching):
    g, lib = checker.read_graph(graph), checker.read_library(TINY_LIB)
    win = checker.windows(g, k)
    checker.check_schedule(g, lib, win, mode, schedule)
    c = checker.cost(g, lib, mode, win.bound, schedule)
    assert (c.area, c.dynamic, c.leakage, c.switching) == (area, dynamic, leakage, switching)


def test_schedule_rules():
    g, lib = checker.read_graph(CHAIN3), checker.read_library(TINY_LIB)
    win = checker.windows(g, 1)
    bad = {
        "edge": {1: (1, 2), 2: (2, 1), 3: (3, 1)},
        "window": {1: (1, 1), 2: (2, 1), 3: (4, 2)},
        "cycles": {1: (1, 1), 2: (2, 4), 3: (4, 1)},
        "single-vdd level": {1: (1, 1), 2: (2, 2), 3: (4, 1)},
    }
    for rule, s in bad.items():
        mode = "single-vdd" if rule == "single-vdd level" else "fgdvs"
        with pytest.raises(checker.Mismatch):
            checker.check_schedule(g, lib, win, mode, s)


def run_cli(*argv: str) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.fixture
def work(tmp_path: Path) -> Path:
    """A work directory with a seeded 6-node graph and the default library."""
    (tmp_path / "in").mkdir()
    (tmp_path / "out").mkdir()
    lib_text = (ROOT / "benchmarks/default.lib").read_text()
    (tmp_path / "in/default.lib").write_text(lib_text)
    text = workloads.small_dag_text(random.Random(7), "tiny", 6, lib_text, 1)
    (tmp_path / "in/tiny.dfg").write_text(text)
    return tmp_path


def pareto(work: Path, mode: str = "fgdvs") -> tuple[dict, str]:
    chk = {"graph": "tiny", "mode": mode, "k": 1, "expect": "brute",
           "csv": "out/p.csv", "json": "out/p.json"}
    code, out = run_cli("pareto", "--dfg", str(work / "in/tiny.dfg"), "--lib", str(work / "in/default.lib"),
                        "--mode", mode, "--k", "1", "--out", str(work / chk["csv"]),
                        "--json", str(work / chk["json"]))
    assert code == 0
    return chk, out


@pytest.mark.parametrize("mode", checker.MODES)
def test_accepts_program_front(work, mode):
    chk, out = pareto(work, mode)
    checker.check_pareto(checker.Context(work, {}), chk, out)


def bump_power(rows, g):
    rows[0]["power_total"] = f"{float(rows[0]['power_total']) + 0.01:.6f}"
    return rows


def drop_point(rows, g):
    return rows[1:]


def break_edge(rows, g):
    u, v = g.edges[0]
    s = checker.parse_packed(rows[0]["schedule"])
    s[v] = (s[u][0], s[v][1])
    rows[0]["schedule"] = ";".join(f"{n}:{t}:{d}" for n, (t, d) in sorted(s.items()))
    return rows


@pytest.mark.parametrize("edit", [bump_power, drop_point, break_edge])
def test_rejects_corrupted_front(work, edit):
    chk, out = pareto(work)
    path = work / chk["csv"]
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    rows = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
    assert len(rows) >= 2
    rows = edit(rows, checker.read_graph((work / "in/tiny.dfg").read_text()))
    path.write_text("\n".join([lines[0]] + [",".join(r[h] for h in head) for r in rows]) + "\n")
    with pytest.raises(checker.Mismatch):
        checker.check_pareto(checker.Context(work, {}), chk, out)


def test_rejects_answer_over_cap(work):
    lib = str(work / "in/default.lib")
    cap = workloads.list_cap((work / "in/tiny.dfg").read_text(), (work / "in/default.lib").read_text(),
                             1, "fgdvs")
    chk = {"graph": "tiny", "mode": "fgdvs", "k": 1, "expect": "brute", "power_cap": cap,
           "area_caps": None, "json": "out/b.json"}
    code, out = run_cli("budget", "--dfg", str(work / "in/tiny.dfg"), "--lib", lib, "--k", "1",
                        "--algorithm", "bb-first", "--power-budget", str(cap), "--json", str(work / chk["json"]))
    assert code == 0
    ctx = checker.Context(work, {})
    checker.check_first(ctx, chk, out)
    answer = json.loads((work / chk["json"]).read_text())["power"]
    with pytest.raises(checker.Mismatch, match="breaks the budget"):
        checker.check_first(ctx, {**chk, "power_cap": answer - 0.5}, out)


def test_nondominated_fold():
    pts = [(2, 10.0), (3, 9.0), (3, 9.5), (4, 9.0 + 5e-10), (5, 8.0)]
    assert checker.nondominated(pts) == [(2, 10.0), (3, 9.0), (5, 8.0)]
    with pytest.raises(checker.Mismatch):
        checker.check_nondominated([(2, 10.0), (3, 10.0)], "front")


def test_merge3_keeps_smaller_latency_on_ties():
    fronts = [(4, [(2, 10.0)]), (5, [(2, 10.0), (3, 8.0)])]
    assert checker.merge3(fronts) == [(4, 2, 10.0), (5, 3, 8.0)]


def test_reference_points_recheck():
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    bench = ROOT / "benchmarks"
    lib = checker.read_library((bench / "default.lib").read_text())
    graphs = {p.stem: checker.read_graph(p.read_text()) for p in bench.glob("*.dfg")}
    checker.check_reference(reference, lib, graphs)
    name, points = next(iter(reference.items()))
    bumped = {name: {**points, "points": [{**points["points"][0], "power": points["points"][0]["power"] + 1}]}}
    with pytest.raises(checker.Mismatch):
        checker.check_reference(bumped, lib, graphs)
