"""The benchmark's workloads: inputs made from a seed, and command lists.

Each workload is a fixed list of ``dvsched`` command lines.  The seed
shapes the generated graphs (small graphs for the brute-force check, the
layered graphs of the list-scheduling queries) and the line order of the
bundled graphs; it never changes which cells run, so the work of a pass
barely moves between seeds.  The 1500-node chain does not depend on the
seed.  README.md in this directory says why each cell is there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import checker

LIB = "in/default.lib"
OP_MIX = ("mul", "mul", "add", "add", "add", "comp")
SMALL_SCHEDULES = 20_000


@dataclass
class Workload:
    files: dict[str, str] = field(default_factory=dict)  # path under the work dir -> text
    commands: list[dict] = field(default_factory=list)    # {"id", "argv", "check"}
    slacks: dict[str, set[int]] = field(default_factory=dict)  # graph file -> slacks timed in set-up

    def add(self, cid: str, argv: list[str], check: dict, ks: list[int]) -> None:
        self.commands.append({"id": cid, "argv": argv, "check": check})
        self.slacks.setdefault(f"in/{check['graph']}.dfg", set()).update(ks)


# ---------------------------------------------------------------------------
# generated graphs


def shuffled(text: str, rng: random.Random) -> str:
    """The same graph with its node and edge lines in a seeded order."""
    body = [ln for ln in text.splitlines() if ln.split("#", 1)[0].strip()]
    head, rest = body[0], body[1:]
    rng.shuffle(rest)
    return "\n".join([head] + rest) + "\n"


def small_dag_text(rng: random.Random, name: str, n: int, lib_text: str, k: int) -> str:
    """A random DAG of ``n`` nodes whose schedules at slack ``k`` number at
    most SMALL_SCHEDULES, so that the checker can enumerate them all.  Ids
    are shuffled against the topological order."""
    lib = checker.read_library(lib_text)
    while True:
        ids = list(range(1, n + 1))
        rng.shuffle(ids)
        lines = [f"name {name}"]
        lines += [f"node {ids[i]} {rng.choice(OP_MIX)}" for i in range(n)]
        lines += [f"edge {ids[i]} -> {ids[j]}" for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.3]
        text = "\n".join(lines) + "\n"
        g = checker.read_graph(text)
        schedules = checker.enumerate_schedules(g, lib, checker.windows(g, k), "fgdvs")
        if sum(1 for _ in zip(range(SMALL_SCHEDULES + 1), schedules)) <= SMALL_SCHEDULES:
            return text


def layered_dag_text(rng: random.Random, name: str, layers: int, width: int) -> str:
    """``layers`` x ``width`` nodes; each node past the first layer has one or
    two parents in the layer above, so the critical path is ``layers`` long."""
    ids = list(range(1, layers * width + 1))
    rng.shuffle(ids)
    grid = [ids[i * width:(i + 1) * width] for i in range(layers)]
    lines = [f"name {name}"]
    lines += [f"node {v} {rng.choice(OP_MIX)}" for row in grid for v in row]
    for above, row in zip(grid, grid[1:]):
        for v in row:
            lines += [f"edge {u} -> {v}" for u in rng.sample(above, rng.randint(1, 2))]
    return "\n".join(lines) + "\n"


def chain_text(n: int) -> str:
    lines = [f"name chain{n}"] + [f"node {i} add" for i in range(1, n + 1)]
    lines += [f"edge {i} -> {i + 1}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def list_cap(text: str, lib_text: str, k: int, mode: str) -> float:
    """A power cap halfway between the slowest-first and the fastest-first
    greedy schedules, computed with the checker's own model."""
    g, lib = checker.read_graph(text), checker.read_library(lib_text)
    win = checker.windows(g, k)
    slow, fast = (checker.cost(g, lib, mode, win.bound, checker.greedy(g, lib, win, mode, s)).power
                  for s in (True, False))
    return round(slow + 0.5 * (fast - slow), 2)


# ---------------------------------------------------------------------------
# command lines


def _argv(sub: str, graph: str, *extra: object) -> list[str]:
    return [sub, "--dfg", f"in/{graph}.dfg", "--lib", LIB, *map(str, extra)]


def _pareto(w: Workload, graph: str, mode: str, k: int, expect: str) -> None:
    cid = f"pareto-{graph}-{mode}-k{k}"
    out = f"out/{cid}"
    w.add(cid, _argv("pareto", graph, "--mode", mode, "--k", k,
                     "--out", f"{out}.csv", "--json", f"{out}.json"),
          {"kind": "pareto", "graph": graph, "mode": mode, "k": k, "expect": expect,
           "csv": f"{out}.csv", "json": f"{out}.json"}, [k])


def _sweep(w: Workload, graph: str, mode: str, k_max: int) -> None:
    cid = f"sweep-{graph}-{mode}"
    out = f"out/{cid}"
    w.add(cid, _argv("sweep", graph, "--mode", mode, "--k-max", k_max, "--out", f"{out}.csv",
                     "--front3", f"{out}.front3.csv", "--json", f"{out}.json"),
          {"kind": "sweep", "graph": graph, "mode": mode, "k_max": k_max, "expect": "reference",
           "csv": f"{out}.csv", "front3": f"{out}.front3.csv", "json": f"{out}.json"},
          list(range(k_max + 1)))


def _compare(w: Workload, graph: str, k: int, expect: str) -> None:
    cid = f"compare-{graph}-k{k}"
    out = f"out/{cid}"
    w.add(cid, _argv("compare", graph, "--k", k, "--out", f"{out}.csv", "--json", f"{out}.json"),
          {"kind": "compare", "graph": graph, "k": k, "expect": expect,
           "csv": f"{out}.csv", "json": f"{out}.json"}, [k])


def _budget(w: Workload, cid: str, graph: str, mode: str, k: int, algorithm: str,
            power: float | None = None, area: dict[str, int] | None = None,
            expect: str | None = "reference") -> None:
    cap = (["--power-budget", power] if power is not None
           else ["--area-budget", ",".join(f"{op}={n}" for op, n in area.items())])
    out = f"out/{cid}.json"
    extra = ["--priority", "max-duration"] if algorithm == "list" else []
    w.add(cid, _argv("budget", graph, "--mode", mode, "--k", k, "--algorithm", algorithm,
                     *cap, *extra, "--json", out),
          {"kind": f"budget-{algorithm}", "graph": graph, "mode": mode, "k": k, "expect": expect,
           "power_cap": power, "area_caps": area, "json": out}, [k])


# ---------------------------------------------------------------------------
# workloads


def _small(w: Workload, rng: random.Random, mode: str) -> None:
    """Seeded graphs of 7 nodes, checked against brute-force enumeration.
    The two budget queries on the first one touch every layer at little
    cost, so that no layer's time reads zero in a traced run."""
    for i, k in enumerate((1, 2)):
        name = f"small{i}"
        w.files[f"in/{name}.dfg"] = small_dag_text(rng, name, 7, w.files[LIB], k)
        if i == 0 and mode == "fgdvs":
            _compare(w, name, k, "brute")
        else:
            _pareto(w, name, mode, k, "brute")
    cap = list_cap(w.files["in/small0.dfg"], w.files[LIB], 1, mode)
    _budget(w, "first-small0", "small0", mode, 1, "bb-first", power=cap, expect="brute")
    _budget(w, "list-small0", "small0", mode, 1, "list", power=cap, expect=None)


def _fronts_multi_vdd(w: Workload, rng: random.Random) -> None:
    _sweep(w, "fir", "multi-vdd", 2)
    _pareto(w, "lattice", "multi-vdd", 2, "reference")
    _pareto(w, "ewf", "multi-vdd", 1, "reference")
    _pareto(w, "volterra", "multi-vdd", 0, "reference")
    _small(w, rng, "multi-vdd")


def _fronts_fgdvs(w: Workload, rng: random.Random) -> None:
    _pareto(w, "diffeq", "fgdvs", 2, "reference")
    _sweep(w, "ewf", "fgdvs", 1)
    _compare(w, "ewf", 0, "reference")
    _small(w, rng, "fgdvs")


def _budget_queries(w: Workload, rng: random.Random) -> None:
    # Caps sit between points of the exact fronts in reference.json.
    _budget(w, "first-fir-power", "fir", "fgdvs", 2, "bb-first", power=205.0)
    _budget(w, "first-volterra-power", "volterra", "fgdvs", 1, "bb-first", power=290.03)
    _budget(w, "first-volterra-area", "volterra", "fgdvs", 1, "bb-first", area={"mul": 10, "add": 2})
    _budget(w, "first-lattice-area", "lattice", "multi-vdd", 2, "bb-first", area={"mul": 2, "add": 1})
    _budget(w, "front-fir-power", "fir", "fgdvs", 2, "bb", power=220.0)
    _budget(w, "front-diffeq-area", "diffeq", "fgdvs", 2, "bb", area={"mul": 2, "add": 1, "comp": 1})
    lib_text = w.files[LIB]
    for i, mode in enumerate(("fgdvs", "fgdvs", "multi-vdd")):
        name = f"layered{i}"
        text = layered_dag_text(rng, name, 20, 22)
        w.files[f"in/{name}.dfg"] = text
        _budget(w, f"list-{name}", name, mode, 2, "list", power=list_cap(text, lib_text, 2, mode),
                expect=None)
    w.files["in/chain1500.dfg"] = chain_text(1500)
    _budget(w, "first-chain1500", "chain1500", "fgdvs", 0, "bb-first", area={"add": 1}, expect=None)


WORKLOADS = {
    "fronts-multi-vdd": _fronts_multi_vdd,
    "fronts-fgdvs": _fronts_fgdvs,
    "budget-queries": _budget_queries,
}


def build(name: str, seed: int, root: Path) -> Workload:
    """The inputs and command list of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    w = Workload()
    bundled = root / "benchmarks"
    w.files[LIB] = (bundled / "default.lib").read_text(encoding="utf-8")
    for path in sorted(bundled.glob("*.dfg")):
        w.files[f"in/{path.name}"] = shuffled(path.read_text(encoding="utf-8"), rng)
    WORKLOADS[name](w, rng)
    return w
