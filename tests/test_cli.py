from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from dvsched import ArchMode, SearchConfig, bb, bb_first, bb_pareto, cli, compute_timing, parse_dfg
from dvsched.cli import main

import support
from conftest import DATA_DIR, bench_path

LIB = str(bench_path("diffeq").parent / "default.lib")


def dfg_file(tmp_path: Path, text: str) -> str:
    p = tmp_path / "graph.dfg"
    p.write_text(text, encoding="utf-8")
    return str(p)


def read_rows(path: Path) -> list[dict[str, str]]:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cols = header.split(",")
    return [dict(zip(cols, row.split(","))) for row in rows]


def without_elapsed(doc: object) -> object:
    if isinstance(doc, dict):
        return {key: without_elapsed(val) for key, val in doc.items() if key != "elapsed"}
    if isinstance(doc, list):
        return [without_elapsed(val) for val in doc]
    return doc


def assert_golden_sidecar(side: Path, golden: str) -> None:
    # Without its wall-clock times and re-dumped compactly, a sidecar is
    # pinned down to its key order.
    text = json.dumps(without_elapsed(json.loads(side.read_text(encoding="utf-8")))) + "\n"
    assert text == (DATA_DIR / golden).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# pareto


def test_pareto_writes_sorted_front(tmp_path, capsys):
    out = tmp_path / "front.csv"
    side = tmp_path / "front.json"
    rc = main([
        "pareto", "--dfg", str(bench_path("diffeq")), "--lib", LIB,
        "--mode", "fgdvs", "--k", "0", "--out", str(out), "--json", str(side),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "mode=fgdvs k=0" in stdout and "front=3" in stdout

    rows = read_rows(out)
    assert len(rows) == 3
    areas = [int(r["area_total"]) for r in rows]
    powers = [float(r["power_total"]) for r in rows]
    assert areas == sorted(areas) and len(set(areas)) == len(areas)
    assert powers == sorted(powers, reverse=True)
    for r in rows:
        parts = [float(r[c]) for c in ("power_dynamic", "power_leakage", "power_switching")]
        assert float(r["power_total"]) == pytest.approx(sum(parts), abs=1e-6)
        per_type = sum(int(r[f"area_{op}"]) for op in ("mul", "add", "comp"))
        assert per_type == int(r["area_total"])

    data = json.loads(side.read_text())
    assert data["command"] == "pareto" and data["completed"] is True
    assert data["front_size"] == 3 and len(data["front"]) == 3
    assert data["nodes_expanded"] > 0
    assert set(data["front"][0]) >= {"area", "power", "schedule", "latency"}


def test_pareto_csv_bytes_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["pareto", "--dfg", str(bench_path("diffeq")), "--lib", LIB, "--k", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_pareto_golden_diffeq_k1(tmp_path):
    out = tmp_path / "front.csv"
    side = tmp_path / "front.json"
    rc = main([
        "pareto", "--dfg", str(bench_path("diffeq")), "--lib", LIB,
        "--mode", "fgdvs", "--k", "1", "--out", str(out), "--json", str(side), "--emit-first",
    ])
    assert rc == 0
    assert out.read_bytes() == (DATA_DIR / "pareto_diffeq_k1_fgdvs.csv").read_bytes()
    assert_golden_sidecar(side, "pareto_diffeq_k1_fgdvs.json")


def test_pareto_time_limit_exit_code(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    side = tmp_path / "partial.json"
    rc = main([
        "pareto", "--dfg", str(bench_path("dct")), "--lib", LIB,
        "--k", "1", "--time-limit", "0.3", "--out", str(out), "--json", str(side),
    ])
    assert rc == 4
    assert "[time limit hit, front is partial]" in capsys.readouterr().out
    assert out.exists()  # header plus whatever was found in time
    assert json.loads(side.read_text())["completed"] is False


def test_pareto_emit_first_lands_in_sidecar(tmp_path):
    side = tmp_path / "run.json"
    rc = main([
        "pareto", "--dfg", dfg_file(tmp_path, support.SMOKE_DFG), "--lib", LIB,
        "--k", "2", "--emit-first", "--json", str(side),
    ])
    assert rc == 0
    first = json.loads(side.read_text())["first_solution"]
    assert first["area"] == 3
    assert first["schedule"] == {"1": [1, 1], "2": [1, 1], "3": [2, 1]}


# Three muls on one type whose three levels make the search keep, for the
# (3, 45.86) point at k=1 multi-vdd, a schedule that depends on whether the
# list-schedule seeds are in the archive.
SEED_SENSITIVE_DFG = """\
name seedy
node 1 mul
node 3 mul
node 2 mul
edge 1 -> 3
"""
SEED_SENSITIVE_LIB = """\
type mul
level vdd=1.00 cycles=1 pdyn=18.61 plk=0.28 psw=0.20
level vdd=0.82 cycles=2 pdyn=6.68 plk=0.71 psw=0.80
level vdd=0.71 cycles=3 pdyn=3.25 plk=0.39 psw=0.85
"""


def test_pareto_emit_first_changes_neither_search_nor_csv(tmp_path):
    # --emit-first only adds bb-first's answer to the sidecar: the CSV bytes
    # and the search counters are those of the plain run.
    graph = dfg_file(tmp_path, SEED_SENSITIVE_DFG)
    lib = tmp_path / "seedy.lib"
    lib.write_text(SEED_SENSITIVE_LIB, encoding="utf-8")
    common = ["--dfg", graph, "--lib", str(lib), "--k", "1", "--mode", "multi-vdd"]
    runs = {}
    for name, flags in (("plain", []), ("emit", ["--emit-first"])):
        out, side = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert main(["pareto", *common, *flags, "--out", str(out), "--json", str(side)]) == 0
        runs[name] = (out.read_bytes(), json.loads(side.read_text()))
    (plain_csv, plain), (emit_csv, emit) = runs["plain"], runs["emit"]
    assert "45.86" in plain_csv.decode() and plain_csv == emit_csv
    counters = ("nodes_expanded", "budget_prunes", "dominance_prunes", "state_prunes",
                "state_lookups", "leaves")
    assert [plain[c] for c in counters] == [emit[c] for c in counters]
    assert "first_solution" not in plain
    side = tmp_path / "first.json"
    assert main(["budget", *common, "--algorithm", "bb-first", "--json", str(side)]) == 0
    hit = json.loads(side.read_text())
    assert emit["first_solution"]["schedule"] == hit["schedule"]
    assert (emit["first_solution"]["area"], emit["first_solution"]["power"]) == (hit["area"], hit["power"])


@pytest.mark.parametrize("mode", ["single-vdd", "multi-vdd", "fgdvs"])
def test_pareto_window_shorter_than_fastest_level(tmp_path, capsys, mode):
    lib = tmp_path / "slow_add.lib"
    lib.write_text(support.SLOW_ADD_LIB, encoding="utf-8")
    out = tmp_path / "front.csv"
    rc = main([
        "pareto", "--dfg", str(bench_path("diffeq")), "--lib", str(lib),
        "--mode", mode, "--k", "0", "--out", str(out),
    ])
    assert rc == 0
    assert f"mode={mode} k=0 latency_bound=4 front=0 " in capsys.readouterr().out
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1  # header only


# ---------------------------------------------------------------------------
# compare


def test_compare_coverage_line_and_golden(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    side = tmp_path / "cmp.json"
    rc = main([
        "compare", "--dfg", str(bench_path("diffeq")), "--lib", LIB,
        "--k", "0", "--out", str(out), "--json", str(side),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    m = re.search(
        r"coverage: fgdvs matches or beats (\d+)/(\d+) multi-vdd points \((\d+\.\d)%\)",
        stdout,
    )
    assert m and m.group(1) == m.group(2) == "3" and m.group(3) == "100.0"
    assert out.read_bytes() == (DATA_DIR / "compare_diffeq_k0.csv").read_bytes()
    assert_golden_sidecar(side, "compare_diffeq_k0.json")


def test_compare_single_node_fronts_coincide(tmp_path, capsys):
    rc = main([
        "compare", "--dfg", dfg_file(tmp_path, "name one\nnode 1 mul\n"),
        "--lib", LIB, "--k", "0",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    # only the 1-cycle level fits T=1, so all three modes agree exactly
    assert stdout.count("area=1   power=16.600000") == 3
    assert "matches or beats 1/1 multi-vdd points (100.0%)" in stdout


def test_compare_sidecar_structure(tmp_path):
    side = tmp_path / "cmp.json"
    rc = main([
        "compare", "--dfg", dfg_file(tmp_path, support.TRI_DFG), "--lib", LIB,
        "--k", "2", "--json", str(side),
    ])
    assert rc == 0
    data = json.loads(side.read_text())
    assert set(data["runs"]) == {"single-vdd", "multi-vdd", "fgdvs"}
    cov = data["coverage"]
    assert cov["covered_by_fgdvs"] <= cov["multi_points"]
    assert 0.0 <= cov["percent"] <= 100.0


# ---------------------------------------------------------------------------
# sweep


def test_sweep_golden_iir(tmp_path):
    out = tmp_path / "sweep.csv"
    front3 = tmp_path / "sweep.front3.csv"
    side = tmp_path / "sweep.json"
    rc = main([
        "sweep", "--dfg", str(bench_path("iir")), "--lib", LIB,
        "--mode", "fgdvs", "--k-max", "2",
        "--out", str(out), "--front3", str(front3), "--json", str(side),
    ])
    assert rc == 0
    assert out.read_bytes() == (DATA_DIR / "sweep_iir_k2.csv").read_bytes()
    assert front3.read_bytes() == (DATA_DIR / "sweep_iir_k2.front3.csv").read_bytes()
    assert_golden_sidecar(side, "sweep_iir_k2.json")


def test_sweep_k0_row_matches_pareto(tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    pareto_csv = tmp_path / "front.csv"
    base = ["--dfg", str(bench_path("diffeq")), "--lib", LIB, "--mode", "fgdvs"]
    assert main(["sweep", *base, "--k-max", "1", "--out", str(sweep_csv)]) == 0
    assert main(["pareto", *base, "--k", "0", "--out", str(pareto_csv)]) == 0

    k0 = read_rows(sweep_csv)[0]
    front = read_rows(pareto_csv)
    areas = [int(r["area_total"]) for r in front]
    powers = [float(r["power_total"]) for r in front]
    assert int(k0["front_size"]) == len(front)
    assert int(k0["min_area"]) == min(areas) and int(k0["max_area"]) == max(areas)
    assert float(k0["min_power"]) == pytest.approx(min(powers))
    assert float(k0["max_power"]) == pytest.approx(max(powers))


def test_sweep_front3_contains_k0_min_area_point(tmp_path):
    out = tmp_path / "sweep.csv"
    front3 = tmp_path / "merged.csv"
    assert main([
        "sweep", "--dfg", str(bench_path("diffeq")), "--lib", LIB,
        "--mode", "fgdvs", "--k-max", "2",
        "--out", str(out), "--front3", str(front3),
    ]) == 0
    k0 = read_rows(out)[0]
    merged = read_rows(front3)
    # nothing with more slack can dominate the k=0 minimum-area point
    assert any(
        r["k"] == "0" and r["area_total"] == k0["min_area"] for r in merged
    )
    for r in merged:
        assert r["latency"] >= k0["latency"] or r["latency"] == k0["latency"]


def test_sweep_default_front3_path(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--dfg", dfg_file(tmp_path, support.TRI_DFG), "--lib", LIB,
        "--k-max", "1", "--out", str(out), "--front3",
    ]) == 0
    assert (tmp_path / "sweep.front3.csv").exists()


# ---------------------------------------------------------------------------
# budget


def test_budget_list_feasible_line(tmp_path, capsys):
    rc = main([
        "budget", "--dfg", str(bench_path("diffeq")), "--lib", LIB,
        "--algorithm", "list", "--priority", "min-duration",
        "--area-budget", "mul=4,add=2,comp=1",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert re.search(r"diffeq: \(\d+, \d+\.\d{6}\) \d+\.\d{4}s \(list\)", stdout)
    assert "node 1 (mul)" in stdout


def test_budget_list_infeasible_line(tmp_path, capsys):
    rc = main([
        "budget", "--dfg", dfg_file(tmp_path, support.DEFER_DFG), "--lib", LIB,
        "--k", "1", "--algorithm", "list", "--priority", "max-duration",
        "--area-budget", "mul=1",
    ])
    assert rc == 0
    assert re.search(r"defer: INFEASIBLE \(\d+\.\d{4}s, priority=max-duration\)",
                     capsys.readouterr().out)


def test_budget_bb_first_beats_list_on_defer(tmp_path, capsys):
    graph = dfg_file(tmp_path, support.DEFER_DFG)
    side = tmp_path / "run.json"
    rc = main([
        "budget", "--dfg", graph, "--lib", LIB, "--k", "1",
        "--algorithm", "bb-first", "--area-budget", "mul=1", "--json", str(side),
    ])
    assert rc == 0
    assert re.search(r"defer: \(1, 49\.800000\)", capsys.readouterr().out)
    data = json.loads(side.read_text())
    assert data["feasible"] is True and data["area"] == 1
    assert data["schedule"] == {"1": [1, 1], "2": [2, 1], "3": [3, 1]}
    assert search_counters(data) == (True, 8, 5, 0, 0, 1)


def search_counters(data: dict) -> tuple:
    """(completed, nodes_expanded, budget_prunes, dominance_prunes,
    state_prunes, leaves) of a sidecar."""
    keys = ("completed", "nodes_expanded", "budget_prunes", "dominance_prunes",
            "state_prunes", "leaves")
    return tuple(data[key] for key in keys)


def test_budget_bb_first_none(tmp_path, capsys):
    side = tmp_path / "none.json"
    rc = main([
        "budget", "--dfg", dfg_file(tmp_path, support.TRI_DFG), "--lib", LIB,
        "--k", "2", "--algorithm", "bb-first", "--power-budget", "5", "--json", str(side),
    ])
    assert rc == 0
    assert "tri: NONE" in capsys.readouterr().out
    data = json.loads(side.read_text())
    assert data["feasible"] is False
    completed, expanded, budget_prunes, *_ = search_counters(data)
    assert completed and expanded == budget_prunes > 0  # every placement breaks the cap


def test_budget_bb_prints_constrained_front(tmp_path, capsys):
    rc = main([
        "budget", "--dfg", dfg_file(tmp_path, support.TRI_DFG), "--lib", LIB,
        "--k", "2", "--algorithm", "bb", "--area-budget", "mul=2",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "budget-constrained front" in stdout
    assert "area=3" not in stdout  # cap respected


def test_budget_bb_first_time_limit_runs_one_search(monkeypatch, capsys):
    def no_second_search(*_args, **_kwargs):
        raise AssertionError("bb-first must not run a second search")

    monkeypatch.setattr("dvsched.cli.bb_pareto", no_second_search)
    rc = main([
        "budget", "--dfg", str(bench_path("volterra")), "--lib", LIB, "--k", "2",
        "--power-budget", "260", "--algorithm", "bb-first", "--time-limit", "0.3",
    ])
    assert rc == 4
    assert "no schedule found before the time limit" in capsys.readouterr().err


def test_budget_bb_first_time_limit_writes_sidecar(tmp_path, capsys):
    side = tmp_path / "to.json"
    rc = main([
        "budget", "--dfg", str(bench_path("volterra")), "--lib", LIB, "--k", "2",
        "--power-budget", "260", "--algorithm", "bb-first", "--time-limit", "0.2",
        "--json", str(side),
    ])
    assert rc == 4
    data = json.loads(side.read_text())
    assert data.pop("elapsed") >= 0.2
    completed, expanded, *_prunes, state_prunes, _leaves = search_counters(data)
    assert not completed and expanded > 0 and state_prunes == 0  # fgdvs has no state cut
    assert data == {
        "command": "budget", "dfg": "volterra", "mode": "fgdvs", "k": 2,
        "algorithm": "bb-first", "completed": False, **{
            key: data[key] for key in (
                "nodes_expanded", "budget_prunes", "dominance_prunes", "state_prunes",
                "state_lookups", "leaves", "switch_binds",
            )
        },
    }


def test_budget_bb_first_reports_the_search_cost(monkeypatch, capsys):
    def no_recost(*_args, **_kwargs):
        raise AssertionError("bb-first's schedule is already costed")

    monkeypatch.setattr("dvsched.cli.schedule_cost", no_recost)
    rc = main([
        "budget", "--dfg", str(bench_path("diffeq")), "--lib", LIB,
        "--area-budget", "mul=4,add=1,comp=1", "--algorithm", "bb-first",
    ])
    assert rc == 0
    assert capsys.readouterr().out.startswith("diffeq: (6, 128.750000) ")


def chain_dfg(n: int) -> str:
    lines = [f"name chain{n}"] + [f"node {i} add" for i in range(1, n + 1)]
    lines += [f"edge {i} -> {i + 1}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def test_budget_bb_first_on_a_deep_chain(tmp_path, capsys):
    # 1500 levels, more than Python's default recursion limit: the walk
    # keeps its own stack.
    side = tmp_path / "chain.json"
    rc = main([
        "budget", "--dfg", dfg_file(tmp_path, chain_dfg(1500)), "--lib", LIB,
        "--algorithm", "bb-first", "--area-budget", "add=1", "--json", str(side),
    ])
    assert rc == 0
    assert capsys.readouterr().out.startswith("chain1500: (1, ")
    data = json.loads(side.read_text())
    assert data["feasible"] is True and data["area"] == 1


def test_pareto_emit_first_on_a_deep_chain(tmp_path, capsys):
    # The dominance prune waits for the first solution, so the walk goes the
    # whole depth, and under single-vdd and multi-vdd looks up the state at
    # every position, with or without --emit-first.
    side = tmp_path / "chain.json"
    graph = dfg_file(tmp_path, chain_dfg(1500))
    for mode in ("fgdvs", "single-vdd", "multi-vdd"):
        for emit in (["--emit-first"], []):
            rc = main(["pareto", "--dfg", graph, "--lib", LIB, "--mode", mode, *emit,
                       "--json", str(side)])
            assert rc == 0, (mode, emit)
            assert "front=1" in capsys.readouterr().out
            data = json.loads(side.read_text())
            assert data["nodes_expanded"] == 1500
            if emit:
                assert data["first_solution"]["area"] == 1


def test_state_cut_on_graphs_past_255_steps_and_nodes(tmp_path, capsys):
    # The state cut packs end times, unit counts and positions into bytes;
    # here the latency bound, then the node count, passes 255.
    side = tmp_path / "chain.json"
    rc = main([
        "pareto", "--dfg", dfg_file(tmp_path, chain_dfg(300)), "--lib", LIB,
        "--mode", "multi-vdd", "--k", "2", "--json", str(side),
    ])
    assert rc == 0
    assert "latency_bound=302 front=1" in capsys.readouterr().out
    assert json.loads(side.read_text())["state_prunes"] > 0
    for mode in ("multi-vdd", "single-vdd"):
        rc = main([
            "budget", "--dfg", dfg_file(tmp_path, chain_dfg(600)), "--lib", LIB,
            "--mode", mode, "--k", "1", "--power-budget", "5000", "--algorithm", "bb-first",
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith("chain600: (1, ")


# ---------------------------------------------------------------------------
# oracle


def test_oracle_cmd_matches_pareto_cmd(tmp_path):
    graph = dfg_file(tmp_path, support.SMOKE_DFG)
    a, b = tmp_path / "oracle.csv", tmp_path / "bb.csv"
    assert main(["oracle", "--dfg", graph, "--lib", LIB, "--k", "2", "--out", str(a)]) == 0
    assert main(["pareto", "--dfg", graph, "--lib", LIB, "--k", "2", "--out", str(b)]) == 0
    strip = lambda rows: [(r["area_total"], r["power_total"]) for r in rows]
    assert strip(read_rows(a)) == strip(read_rows(b))


def test_oracle_cmd_refuses_large_graph(capsys):
    rc = main(["oracle", "--dfg", str(bench_path("diffeq")), "--lib", LIB])
    assert rc == 3
    assert "enumeration refused" in capsys.readouterr().err


def test_oracle_cmd_caps_only_the_modes_durations(tmp_path):
    # Under single-vdd only level 0 is enumerated: all levels would be
    # ~13.06e9 assignments on diffeq at k=1, level 0 alone is ~74k.
    a, b = tmp_path / "oracle.csv", tmp_path / "bb.csv"
    flags = ["--dfg", str(bench_path("diffeq")), "--lib", LIB, "--k", "1", "--mode", "single-vdd"]
    assert main(["oracle", *flags, "--max-nodes", "11", "--out", str(a)]) == 0
    assert main(["pareto", *flags, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oracle_cmd_cap_override(tmp_path):
    rc = main([
        "oracle", "--dfg", str(bench_path("diffeq")), "--lib", LIB,
        "--max-nodes", "11", "--max-states", "100",
    ])
    assert rc == 3  # state estimate still too large


# ---------------------------------------------------------------------------
# validate


def test_validate_plain_schedule_file(tmp_path, capsys):
    graph = dfg_file(tmp_path, support.TRI_DFG)
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"1": [1, 1], "2": [1, 1], "3": [1, 1]}))
    rc = main(["validate", "--dfg", graph, "--lib", LIB, "--schedule", str(sched)])
    assert rc == 0
    assert "schedule 1/1: ok area=3" in capsys.readouterr().out


def test_validate_sidecar_roundtrip(tmp_path, capsys):
    side = tmp_path / "run.json"
    assert main([
        "pareto", "--dfg", str(bench_path("diffeq")), "--lib", LIB,
        "--k", "1", "--json", str(side),
    ]) == 0
    rc = main([
        "validate", "--dfg", str(bench_path("diffeq")), "--lib", LIB,
        "--k", "1", "--schedule", str(side),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count(": ok ") == 4  # every front schedule re-validates


def test_validate_single_vdd_flags_each_slower_level(tmp_path, capsys):
    # A compare sidecar holds the fronts of all three modes; under
    # single-vdd only its level-0 schedules are valid.
    side = tmp_path / "runs.json"
    graph = str(bench_path("diffeq"))
    assert main(["compare", "--dfg", graph, "--lib", LIB, "--k", "1", "--json", str(side)]) == 0
    capsys.readouterr()
    rc = main([
        "validate", "--dfg", graph, "--lib", LIB, "--k", "1",
        "--mode", "single-vdd", "--schedule", str(side),
    ])
    assert rc == 2
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line.split(": ", 1)[1] for line in lines[:-1]]
    assert len(verdicts) == 10
    assert sum(v.startswith("ok ") for v in verdicts) == 1
    assert all(v.startswith(("ok ", "INVALID [duration] ")) for v in verdicts)
    assert lines[-1] == "9/10 schedules failed validation"


def test_validate_flags_broken_schedule(tmp_path, capsys):
    graph = dfg_file(tmp_path, support.TRI_DFG)
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"1": [1, 1], "2": [1, 1], "3": [9, 1]}))
    rc = main(["validate", "--dfg", graph, "--lib", LIB, "--schedule", str(sched)])
    assert rc == 2
    assert "INVALID [deadline]" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# error handling


def test_missing_file_is_input_error(capsys):
    rc = main(["pareto", "--dfg", "no-such-file.dfg", "--lib", LIB])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_dfg_is_input_error(tmp_path, capsys):
    rc = main(["pareto", "--dfg", dfg_file(tmp_path, "node 1 mul\n"), "--lib", LIB])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def test_bad_area_budget_is_input_error(tmp_path, capsys):
    rc = main([
        "budget", "--dfg", dfg_file(tmp_path, support.TRI_DFG), "--lib", LIB,
        "--area-budget", "mul:2",
    ])
    assert rc == 2
    assert "area budget" in capsys.readouterr().err


IGNORED_BUDGETS = [
    (["--area-budget", "mull=1"], "'mull' is not in the library"),
    (["--area-budget", "mul=1,mul=9"], "names 'mul' twice"),
    (["--time-limit", "nan"], "time_limit must be positive"),
    (["--power-budget", "nan"], "power cap must be finite"),
    (["--power-budget", "inf"], "power cap must be finite"),
    (["--time-limit", "-5"], "time_limit must be positive"),
]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--algorithm", algorithm, *flags], message)
        for algorithm in ("bb-first", "list")
        for flags, message in IGNORED_BUDGETS
    ],
)
def test_budget_that_would_be_ignored_is_input_error(capsys, flags, message):
    # The list scheduler takes no time limit, but checks it like the searches.
    rc = main(["budget", "--dfg", str(bench_path("diffeq")), "--lib", LIB, *flags])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_non_finite_library_is_input_error(tmp_path, capsys):
    lib = tmp_path / "nan.lib"
    lib.write_text(
        Path(LIB).read_text(encoding="utf-8").replace("pdyn=16.00", "pdyn=nan", 1),
        encoding="utf-8",
    )
    rc = main(["pareto", "--dfg", str(bench_path("diffeq")), "--lib", str(lib)])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"1": 5}, "expected [start, cycles]"),
        ({"runs": [1]}, "must hold objects with a schedule"),
        ({"front": [{"area": 1}]}, "must hold objects with a schedule"),
        # "01" and "1" are one node; neither entry may silently win.
        pytest.param('{"01": [1, 9], "1": [1, 1]}', "node 1 is named twice", id="node-twice"),
        # A budget sidecar without a schedule (INFEASIBLE, NONE or timed out).
        pytest.param(
            {"command": "budget", "dfg": "tri", "algorithm": "list", "feasible": False},
            "no schedules found",
            id="sidecar-without-schedule",
        ),
        pytest.param("[" * 200_000 + "]" * 200_000, "nested too deeply", id="deep"),
    ],
)
def test_validate_malformed_schedule_is_input_error(tmp_path, capsys, doc, message):
    graph = dfg_file(tmp_path, support.TRI_DFG)
    sched = tmp_path / "sched.json"
    sched.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rc = main(["validate", "--dfg", graph, "--lib", LIB, "--schedule", str(sched)])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_sweep_negative_k_max_is_input_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--dfg", dfg_file(tmp_path, support.TRI_DFG), "--lib", LIB,
        "--k-max", "-1", "--out", str(out),
    ])
    assert rc == 2
    assert "--k-max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [["pareto", "--k", str(10**12)], ["sweep", "--k-max", str(10**12)]]
)
def test_slack_too_large_to_table_is_input_error(tmp_path, capsys, flags):
    # Refused before any table, or any timing past the largest slack's, is
    # built; the bound and move tables of this slack would not fit in memory.
    out = tmp_path / "out.csv"
    rc = main([flags[0], "--dfg", str(bench_path("diffeq")), "--lib", LIB, *flags[1:],
               "--out", str(out)])
    assert rc == 2
    assert "window steps" in capsys.readouterr().err
    assert not out.exists()


def test_window_step_limit_is_inclusive(monkeypatch, default_lib):
    g = parse_dfg(support.SMOKE_DFG)
    t = compute_timing(g, 2)
    steps = sum(t.alap[v] - t.asap[v] + 1 for v in g.nodes)
    monkeypatch.setattr(bb, "MAX_WINDOW_STEPS", steps)
    assert len(bb_pareto(g, t, default_lib, SearchConfig(ArchMode.FGDVS)).front) > 0
    monkeypatch.setattr(bb, "MAX_WINDOW_STEPS", steps - 1)
    for search in (bb_pareto, bb_first):
        with pytest.raises(ValueError, match="window steps"):
            search(g, t, default_lib, SearchConfig(ArchMode.FGDVS))


def test_slack_two_is_within_the_window_step_limit(tmp_path, capsys):
    for name in ("diffeq", "iir", "fir", "volterra", "lattice", "ewf", "dct"):
        rc = main(["budget", "--dfg", str(bench_path(name)), "--lib", LIB, "--k", "2",
                   "--algorithm", "bb-first"])
        assert rc == 0, name
    rc = main(["pareto", "--dfg", dfg_file(tmp_path, chain_dfg(1500)), "--lib", LIB,
               "--mode", "multi-vdd", "--k", "2"])
    assert rc == 0
    assert "latency_bound=1502 front=1" in capsys.readouterr().out


def test_cycle_is_input_error(tmp_path, capsys):
    text = "name loop\nnode 1 mul\nnode 2 mul\nedge 1 -> 2\nedge 2 -> 1\n"
    rc = main(["pareto", "--dfg", dfg_file(tmp_path, text), "--lib", LIB])
    assert rc == 2
    assert "cycle" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# sidecar schema


def key_paths(doc: object, prefix: str = "") -> set[str]:
    """Every key path of a JSON document; ``[]`` marks a list's items.

    Schedules and per-type areas are keyed by node id and op type, which are
    data rather than schema, so their keys are not descended into.
    """
    paths: set[str] = set()
    if isinstance(doc, dict):
        for key, val in doc.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            if key not in ("schedule", "area_by_type"):
                paths |= key_paths(val, path)
    elif isinstance(doc, list):
        for val in doc:
            paths |= key_paths(val, prefix + "[]")
    return paths


def under(prefix: str, keys: set[str]) -> set[str]:
    return {f"{prefix}.{k}" for k in keys}


FRONT = {"area", "area_by_type", "dynamic", "latency", "leakage", "power", "schedule", "switching"}
COUNTERS = {
    "budget_prunes", "dominance_prunes", "leaves", "nodes_expanded", "state_lookups",
    "state_prunes", "switch_binds",
}
REPORT = {
    "completed", "elapsed", "front", "front_size", *COUNTERS,
} | under("front[]", FRONT)
SCHEDULE = {
    "algorithm", "area", "command", "dfg", "elapsed", "feasible", "k", "mode", "power",
    "schedule",
}

# The key sets each subcommand wrote before the CLI shared one output path,
# with the search counters added since.
SIDECAR_KEYS = {
    "pareto": {"command", "dfg", "k", "latency_bound", "mode", "first_solution", *REPORT}
    | under("first_solution", {"area", "elapsed", "power", "schedule"}),
    "compare": {"command", "dfg", "k", "latency_bound", "coverage", "runs"}
    | under("coverage", {"covered_by_fgdvs", "multi_points", "percent"})
    | under("runs", {"single-vdd", "multi-vdd", "fgdvs"})
    | under("runs.single-vdd", REPORT)
    | under("runs.multi-vdd", REPORT)
    | under("runs.fgdvs", REPORT),
    "sweep": {"command", "dfg", "k_max", "mode", "runs", "front3"}
    | under("runs[]", {"k", "latency_bound", *REPORT})
    | under("front3[]", {"area", "k", "latency", "power", "schedule"}),
    "budget-list": SCHEDULE,
    "budget-bb-first": {"completed", *SCHEDULE, *COUNTERS},
    "budget-bb": {"algorithm", "command", "dfg", "k", "mode", *REPORT},
    "oracle": {"command", "dfg", "front", "front_size", "k", "latency_bound", "mode"}
    | under("front[]", FRONT),
}


def test_sidecar_keys_unchanged(tmp_path):
    # Each sidecar is one line of JSON with the keys above, and validate
    # reads back every schedule in it at the slack it was written at.
    graph = dfg_file(tmp_path, support.SMOKE_DFG)
    cap = ["--k", "1", "--power-budget", "60", "--algorithm"]
    commands = {
        "pareto": (2, ["pareto", "--k", "2", "--emit-first"]),
        "compare": (1, ["compare", "--k", "1"]),
        "sweep": (1, ["sweep", "--k-max", "1", "--front3"]),
        "budget-list": (1, ["budget", *cap, "list"]),
        "budget-bb-first": (1, ["budget", *cap, "bb-first"]),
        "budget-bb": (1, ["budget", *cap, "bb"]),
        "oracle": (2, ["oracle", "--k", "2"]),
    }
    for name, (k, (sub, *flags)) in commands.items():
        side = tmp_path / f"{name}.json"
        assert main([sub, "--dfg", graph, "--lib", LIB, *flags, "--json", str(side)]) == 0
        text = side.read_text()
        assert text.endswith("\n") and text.count("\n") == 1, name
        assert key_paths(json.loads(text)) == SIDECAR_KEYS[name], name
        rc = main(["validate", "--dfg", graph, "--lib", LIB, "--k", str(k),
                   "--schedule", str(side)])
        assert rc == 0, name


# ---------------------------------------------------------------------------
# the parser shared by main() calls


def clock_free(captured) -> tuple[str, str]:
    """Captured stdout and stderr without the times they print."""
    return tuple(re.sub(r"\d+\.\d+s\b", "", text) for text in (captured.out, captured.err))


def test_shared_parser_carries_nothing_between_calls(tmp_path, monkeypatch, capsys):
    graph = dfg_file(tmp_path, support.SMOKE_DFG)

    def outputs(at: Path) -> tuple[dict[str, bytes], object]:
        csvs = {p.name: p.read_bytes() for p in sorted(at.glob("*.csv"))}
        side = at / "out.json"
        return csvs, without_elapsed(json.loads(side.read_text())) if side.exists() else None

    def run(at: Path, sub: str, *flags: str) -> tuple:
        at.mkdir()
        argv = [sub, "--dfg", graph, "--lib", LIB, *flags]
        if "--k-max" not in flags:
            argv += ["--k", "1"]
        if sub != "budget":
            argv += ["--out", str(at / "out.csv")]
        try:
            code = main([*argv, "--json", str(at / "out.json")])
        except SystemExit as exc:
            code = exc.code
        return (code, capsys.readouterr(), *outputs(at))

    commands = [
        ("sweep", "--k-max", "1", "--front3"),
        ("budget", "--algorithm", "list"),
        ("pareto", "--mode", "no-such-mode"),
        ("pareto", "--emit-first"),
        ("pareto",),
    ]
    cli._parser.cache_clear()
    shared = [run(tmp_path / f"shared{i}", *cmd) for i, cmd in enumerate(commands)]
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(tmp_path / f"fresh{i}", *cmd) for i, cmd in enumerate(commands)]

    assert [r[0] for r in shared] == [0, 0, 2, 0, 0]
    assert set(shared[0][2]) == {"out.csv", "out.front3.csv"}
    assert shared[1][2] == {} and shared[1][3]["feasible"] is True
    assert "first_solution" in shared[3][3] and "first_solution" not in shared[4][3]
    for cmd, (code, out, csvs, side), (fcode, fout, fcsvs, fside) in zip(commands, shared, fresh):
        assert (code, csvs, side) == (fcode, fcsvs, fside), cmd
        assert clock_free(out) == clock_free(fout), cmd
