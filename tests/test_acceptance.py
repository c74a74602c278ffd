"""End-to-end acceptance checks for the scheduling engine.

Every test prints exactly one verdict line of the form

    [label] PASS: detail

so a full run doubles as a release report.  The random corpus is generated
once per session from a fixed seed and shared across tests.
"""
from __future__ import annotations

import functools
import json
import random
import time
from pathlib import Path

from dvsched import (
    ArchMode,
    Budget,
    Priority,
    SearchConfig,
    bb_first,
    bb_pareto,
    compute_timing,
    list_schedule,
    load_resource_library,
    oracle_front,
    parse_dfg,
    schedule_cost,
    validate_schedule,
)
from dvsched.cli import main

import support
from conftest import BENCH_NAMES, SMALL_BENCH_NAMES, bench_path, load_bench

MODES = (ArchMode.SINGLE_VDD, ArchMode.MULTI_VDD, ArchMode.FGDVS)
SEED = 20260817
LIB = str(bench_path("diffeq").parent / "default.lib")
POWER_TOL = 1e-9


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"[{label}] {detail}"


def _rows(path: Path) -> list[dict[str, str]]:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cols = header.split(",")
    return [dict(zip(cols, row.split(","))) for row in rows]


def _same_points(got: list[tuple[int, float]], want: list[tuple[int, float]]) -> bool:
    return len(got) == len(want) and all(
        a == b and abs(p - q) <= POWER_TOL for (a, p), (b, q) in zip(got, want)
    )


@functools.lru_cache(maxsize=1)
def _corpus() -> tuple[tuple, ...]:
    rng = random.Random(SEED)
    return tuple(support.random_instance(rng) for _ in range(220))


def test_search_matches_exhaustive_oracle(capsys):
    rng = random.Random(SEED + 1)
    t0 = time.perf_counter()
    configs = mismatches = 0
    for g, lib in _corpus():
        for k in (0, 1, 2):
            timing = compute_timing(g, k)
            for budget in support.sampled_budgets(rng, g, timing, lib):
                for mode in MODES:
                    want = oracle_front(g, timing, lib, mode, budget=budget)
                    rep = bb_pareto(g, timing, lib, SearchConfig(mode=mode, budget=budget))
                    assert rep.completed
                    configs += 1
                    if not _same_points(rep.front.cost_points(), want.cost_points()):
                        mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = len(_corpus()) >= 200 and mismatches == 0 and elapsed < 300.0
    _verdict(
        capsys, "oracle-equivalence", ok,
        f"{len(_corpus())} random dags x k in 0..2 x 3 modes x 3 budgets = "
        f"{configs} fronts, {mismatches} mismatches, {elapsed:.1f}s (limit 300s)",
    )


def test_pruning_preserves_front(capsys, default_lib):
    t0 = time.perf_counter()
    pairs = 0
    for g, lib in _corpus():
        for k in (0, 1, 2):
            timing = compute_timing(g, k)
            for mode in MODES:
                on = bb_pareto(g, timing, lib, SearchConfig(mode=mode))
                off = bb_pareto(
                    g, timing, lib, SearchConfig(mode=mode, prune_dominance=False)
                )
                assert _same_points(on.front.cost_points(), off.front.cost_points())
                assert on.nodes_expanded <= off.nodes_expanded
                assert off.dominance_prunes == 0
                pairs += 1
    # 8-node fixture where dominance pruning must cut the tree by > 50%
    g = parse_dfg(support.DIAMONDS_DFG)
    timing = compute_timing(g, 2)
    ratios = []
    for mode in (ArchMode.MULTI_VDD, ArchMode.FGDVS):
        on = bb_pareto(g, timing, default_lib, SearchConfig(mode=mode))
        off = bb_pareto(
            g, timing, default_lib, SearchConfig(mode=mode, prune_dominance=False)
        )
        assert _same_points(on.front.cost_points(), off.front.cost_points())
        ratios.append(on.nodes_expanded / off.nodes_expanded)
    elapsed = time.perf_counter() - t0
    ok = pairs == 1980 and max(ratios) < 0.5
    _verdict(
        capsys, "pruning-soundness", ok,
        f"{pairs} on/off corpus runs agree; 8-node fixture expansion ratios "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + f" (all < 0.5), {elapsed:.1f}s",
    )


def test_fgdvs_area_never_exceeds_multi_vdd(capsys):
    rng = random.Random(SEED + 2)
    checked = strict = 0
    for g, lib in _corpus()[:200]:
        timing = compute_timing(g, rng.randint(0, 2))
        for _ in range(5):
            s = support.random_schedule(rng, g, timing, lib)
            fg = schedule_cost(g, s, lib, ArchMode.FGDVS, timing.latency_bound).area_total
            mu = schedule_cost(g, s, lib, ArchMode.MULTI_VDD, timing.latency_bound).area_total
            assert fg <= mu
            durs: dict[str, set[int]] = {}
            for v, (_start, d) in s.items():
                durs.setdefault(g.nodes[v], set()).add(d)
            if all(len(ds) == 1 for ds in durs.values()):
                assert fg == mu
            if fg < mu:
                strict += 1
            checked += 1
    # three same-type ops, one slowed down: a voltage-switchable unit pair
    # absorbs the overlap that multi-vdd needs a third fixed instance for
    tri = parse_dfg(support.TRI_DFG)
    lib = load_resource_library(support.TINY_LIB)
    timing = compute_timing(tri, 2)
    mixed = {1: (1, 1), 2: (1, 2), 3: (2, 2)}
    assert validate_schedule(tri, timing, mixed) is None
    fg = schedule_cost(tri, mixed, lib, ArchMode.FGDVS, timing.latency_bound).area_total
    mu = schedule_cost(tri, mixed, lib, ArchMode.MULTI_VDD, timing.latency_bound).area_total
    ok = checked == 1000 and fg == 2 and mu == 3
    _verdict(
        capsys, "area-inequality", ok,
        f"{checked} random schedules hold fgdvs <= multi-vdd ({strict} strictly); "
        f"mixed-level fixture needs {fg} units under fgdvs vs {mu} under multi-vdd",
    )


def test_fgdvs_covers_multi_vdd_front(capsys, tmp_path):
    percents: dict[str, float] = {}
    for name in SMALL_BENCH_NAMES:
        side = tmp_path / f"{name}.json"
        rc = main([
            "compare", "--dfg", str(bench_path(name)), "--lib", LIB,
            "--k", "0", "--json", str(side),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        cov = json.loads(side.read_text())["coverage"]
        assert f"({cov['percent']:.1f}%)" in stdout  # report states the figure
        percents[name] = cov["percent"]
    ok = all(p >= 90.0 for p in percents.values())
    _verdict(
        capsys, "front-coverage", ok,
        ", ".join(f"{n}={p:.1f}%" for n, p in percents.items())
        + " of multi-vdd points matched or beaten by fgdvs (floor 90%)",
    )


def test_greedy_gap_closed_by_first_solution(capsys, default_lib):
    fixtures = [
        ("diffeq/area-caps", load_bench("diffeq"), 0,
         Budget(area_caps={"mul": 4, "add": 1, "comp": 1}), Priority.MAX_DURATION),
        ("parallel/power-cap", parse_dfg(support.TRI_DFG), 2,
         Budget(power_cap=26.0), Priority.MIN_DURATION),
        ("defer/single-unit", parse_dfg(support.DEFER_DFG), 1,
         Budget(area_caps={"mul": 1}), Priority.MIN_DURATION),
    ]
    ok = True
    notes = []
    for label, g, k, budget, prio in fixtures:
        timing = compute_timing(g, k)
        greedy = list_schedule(g, timing, default_lib, ArchMode.FGDVS, budget, prio)
        cfg = SearchConfig(mode=ArchMode.FGDVS, budget=budget)
        full = bb_pareto(g, timing, default_lib, cfg)
        rep = bb_first(g, timing, default_lib, cfg)
        found = rep.first_solution is not None
        # Expansions, not seconds: these searches take about a millisecond.
        sooner = rep.nodes_expanded < full.nodes_expanded
        ok = ok and greedy is None and found and sooner and len(full.front) > 0
        notes.append(
            f"{label}: greedy={'infeasible' if greedy is None else 'feasible'}"
            f", first after {rep.nodes_expanded} vs full {full.nodes_expanded} expansions"
            if found else f"{label}: greedy-only"
        )
    _verdict(capsys, "greedy-gap", ok, "; ".join(notes))


def test_more_slack_never_costs_more(capsys, tmp_path):
    t0 = time.perf_counter()
    monotone = True
    strict_drop = False
    notes = []
    for name in SMALL_BENCH_NAMES:
        out = tmp_path / f"{name}.csv"
        rc = main([
            "sweep", "--dfg", str(bench_path(name)), "--lib", LIB,
            "--mode", "fgdvs", "--k-max", "3", "--out", str(out),
        ])
        assert rc == 0
        capsys.readouterr()
        rows = _rows(out)
        assert [r["k"] for r in rows] == ["0", "1", "2", "3"]
        areas = [int(r["min_area"]) for r in rows]
        powers = [float(r["min_power"]) for r in rows]
        monotone = monotone and all(b <= a for a, b in zip(areas, areas[1:]))
        monotone = monotone and all(
            b <= a + 1e-6 for a, b in zip(powers, powers[1:])
        )
        strict_drop = strict_drop or any(
            b < a - 1e-6 for a, b in zip(powers, powers[1:])
        )
        notes.append(f"{name} min-power {powers[0]:.2f}->{powers[-1]:.2f}")
    elapsed = time.perf_counter() - t0
    ok = monotone and strict_drop
    _verdict(
        capsys, "slack-trend", ok,
        "; ".join(notes) + f" over k=0..3, non-increasing with a strict drop, "
        f"{elapsed:.1f}s",
    )


def test_single_vdd_front_has_one_point(capsys, tmp_path):
    sizes: dict[str, int] = {}
    for name in BENCH_NAMES:
        out = tmp_path / f"{name}.csv"
        rc = main([
            "pareto", "--dfg", str(bench_path(name)), "--lib", LIB,
            "--mode", "single-vdd", "--k", "0", "--out", str(out),
        ])
        assert rc == 0
        sizes[name] = len(_rows(out))
    capsys.readouterr()
    ok = all(n == 1 for n in sizes.values())
    _verdict(
        capsys, "single-vdd-degeneracy", ok,
        "front sizes "
        + ", ".join(f"{n}={s}" for n, s in sizes.items())
        + " (want all 1)",
    )


def test_repeat_runs_identical_and_revalidate(capsys, tmp_path):
    base = ["--dfg", str(bench_path("diffeq")), "--lib", LIB, "--k", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    side = tmp_path / "run.json"
    assert main(["pareto", *base, "--out", str(a), "--json", str(side)]) == 0
    assert main(["pareto", *base, "--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    rc_front = main(["validate", *base, "--schedule", str(side)])
    out_front = capsys.readouterr().out
    cmp_side = tmp_path / "cmp.json"
    assert main(["compare", *base, "--json", str(cmp_side)]) == 0
    rc_cmp = main(["validate", *base, "--schedule", str(cmp_side)])
    out_cmp = capsys.readouterr().out
    revalidated = out_front.count(": ok ") + out_cmp.count(": ok ")
    ok = (
        identical
        and rc_front == 0
        and rc_cmp == 0
        and revalidated >= 5
        and "INVALID" not in out_front + out_cmp
    )
    _verdict(
        capsys, "determinism-roundtrip", ok,
        f"byte-identical csv across repeat runs={identical}; "
        f"{revalidated} emitted schedules re-validate cleanly",
    )


def test_desk_scale_performance(capsys, tmp_path, default_lib):
    limits = {"diffeq": 10.0, "iir": 120.0}
    timings: dict[str, float] = {}
    for name in limits:
        g = load_bench(name)
        timing = compute_timing(g, 0)
        start = time.perf_counter()
        for mode in MODES:
            rep = bb_pareto(g, timing, default_lib, SearchConfig(mode=mode))
            assert rep.completed
        timings[name] = time.perf_counter() - start
    graceful = []
    for name in ("volterra", "dct"):
        out = tmp_path / f"{name}.csv"
        side = tmp_path / f"{name}.json"
        rc = main([
            "pareto", "--dfg", str(bench_path(name)), "--lib", LIB,
            "--k", "1", "--time-limit", "0.5",
            "--out", str(out), "--json", str(side),
        ])
        data = json.loads(side.read_text())
        graceful.append(rc == 4 and data["completed"] is False and out.exists())
    capsys.readouterr()
    ok = (
        all(timings[n] < limits[n] for n in limits)
        and all(graceful)
    )
    _verdict(
        capsys, "performance-envelope", ok,
        f"all-mode exact fronts: diffeq {timings['diffeq']:.3f}s (<10s), "
        f"iir {timings['iir']:.3f}s (<120s); volterra and dct stop at "
        f"--time-limit 0.5 with completed=false and a partial csv",
    )
