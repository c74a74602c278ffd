"""Time budgeted ``list_schedule`` per call, on one or more source trees.

    python3 tools/listtime.py --src src --repeats 7 > listtime.json
    python3 tools/listtime.py --src ../parent/src --src src --repeats 7

The cases are seeded layered graphs like the benchmark's list queries (20
layers of 22 nodes, each fed by one or two nodes of the layer above, ops
drawn from mul, mul, add, add, add, comp; slack 2, max-duration priority,
a power cap halfway between the slowest-first and the fastest-first greedy
schedules' costs) and the 1500-node ``add`` chain (slack 0, min-duration,
under ``add=1`` and under a power cap equal to its unit ASAP schedule's
cost), each in all three modes, priced with ``benchmarks/default.lib``.

Each repeat runs every case once per source tree, in a fresh interpreter
that imports ``dvsched`` from that ``--src``, alternating the trees so that
they share the box's drift (in reverse order on odd repeats, so that no
tree always runs first).  The JSON printed holds ``trees``, the ``--src``
directories in the order given, and per case a list with one entry per
tree in that order: the median and the runs in seconds and a digest of
the answer; and ``same_answers``: whether every tree gave every case the
same answer.  A tree may be given twice, to see the noise of the box.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import hashlib, json, random, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from dvsched import (ArchMode, Budget, Priority, compute_timing, list_schedule,
                     load_resource_library, parse_dfg, schedule_cost)
seed, graphs = int(sys.argv[2]), int(sys.argv[3])
lib = load_resource_library(Path(sys.argv[4]).read_text())

def layered(rng, layers=20, width=22):
    ids = list(range(1, layers * width + 1))
    rng.shuffle(ids)
    rows = [ids[i * width:(i + 1) * width] for i in range(layers)]
    lines = ["name layered"] + [f"node {v} {rng.choice(('mul', 'mul', 'add', 'add', 'add', 'comp'))}"
                                for v in ids]
    for above, row in zip(rows, rows[1:]):
        for v in row:
            lines += [f"edge {u} -> {v}" for u in rng.sample(above, rng.randint(1, 2))]
    return parse_dfg("\\n".join(lines) + "\\n")

cases = []
rng = random.Random(seed)
for i in range(graphs):
    g = layered(rng)
    t = compute_timing(g, 2)
    for mode in ArchMode:
        slow, fast = (schedule_cost(g, list_schedule(g, t, lib, mode, priority=p), lib, mode,
                                    t.latency_bound).power
                      for p in (Priority.MAX_DURATION, Priority.MIN_DURATION))
        cases.append((f"layered{i}-{mode.value}", g, t, mode,
                      Budget(power_cap=slow + 0.5 * (fast - slow)), Priority.MAX_DURATION))
n = 1500
g = parse_dfg("\\n".join([f"name chain{n}"] + [f"node {i} add" for i in range(1, n + 1)]
                          + [f"edge {i} -> {i + 1}" for i in range(1, n)]) + "\\n")
t = compute_timing(g, 0)
asap = {v: (t.asap[v], 1) for v in g.nodes}
for mode in ArchMode:
    cap = schedule_cost(g, asap, lib, mode, t.latency_bound).power
    for tag, budget in (("area", Budget(area_caps={"add": 1})), ("power", Budget(power_cap=cap))):
        cases.append((f"chain{n}-{mode.value}-{tag}", g, t, mode, budget, Priority.MIN_DURATION))
out = {}
for name, g, t, mode, budget, priority in cases:
    t0 = time.perf_counter()
    answer = list_schedule(g, t, lib, mode, budget, priority)
    seconds = time.perf_counter() - t0
    out[name] = [seconds, hashlib.sha256(repr(answer).encode()).hexdigest()[:16]]
print(json.dumps(out))
"""


def run_once(src: str, seed: int, graphs: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, src, str(seed), str(graphs),
         str(ROOT / "benchmarks" / "default.lib")],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="a directory holding the dvsched package; repeat to compare trees")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1, help="seed of the layered graphs")
    ap.add_argument("--graphs", type=int, default=3, help="number of layered graphs")
    args = ap.parse_args()
    srcs = [str(Path(s).resolve()) for s in args.src]
    runs: list[dict[str, list]] = [{} for _ in srcs]
    for repeat in range(args.repeats):
        turn = list(zip(srcs, runs))
        for src, tree_runs in turn[::-1] if repeat % 2 else turn:
            for name, result in run_once(src, args.seed, args.graphs).items():
                tree_runs.setdefault(name, []).append(result)
    cases: dict[str, list] = {}
    for tree_runs in runs:
        for name, results in tree_runs.items():
            seconds = [round(s, 5) for s, _answer in results]
            cases.setdefault(name, []).append({
                "median_s": round(statistics.median(seconds), 5),
                "runs": seconds,
                "answer": results[0][1],
            })
    same = all(len({r["answer"] for r in case}) == 1 for case in cases.values())
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "trees": srcs, "cases": cases,
                      "same_answers": same}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
