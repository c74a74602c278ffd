"""Regenerate reference.json, the fronts that exact runs are compared with.

    python3 bench/reference.py

For every cell that a workload checks against the reference, this runs
``dvsched pareto`` on the bundled graph and stores its front: each point's
area, power, area per type and schedule.  Every point is rechecked with
checker.py before it is written, and run.py rechecks them on every run.
A cell whose search does not finish within TIME_LIMIT_S (volterra k=1
fgdvs) is stored with ``"exact": false``; its points are then only known
feasible schedules, which bb-first under a cap they meet must match or beat.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 20


def cells() -> list[tuple[str, str, int]]:
    """(graph, mode, k) of every check that reads the reference."""
    out = set()
    for name in workloads.WORKLOADS:
        for cmd in workloads.build(name, 0, ROOT).commands:
            chk = cmd["check"]
            if chk.get("expect") != "reference":
                continue
            modes = checker.MODES if chk["kind"] == "compare" else [chk["mode"]]
            ks = range(chk["k_max"] + 1) if chk["kind"] == "sweep" else [chk["k"]]
            out.update((chk["graph"], m, k) for m in modes for k in ks)
    return sorted(out)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from dvsched import cli

    bench = ROOT / "benchmarks"
    lib = checker.read_library((bench / "default.lib").read_text(encoding="utf-8"))
    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for graph, mode, k in cells():
            sidecar = Path(tmp) / "front.json"
            argv = ["pareto", "--dfg", str(bench / f"{graph}.dfg"), "--lib", str(bench / "default.lib"),
                    "--mode", mode, "--k", str(k), "--time-limit", str(TIME_LIMIT_S), "--json", str(sidecar)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            doc = json.loads(sidecar.read_text(encoding="utf-8"))
            g = checker.read_graph((bench / f"{graph}.dfg").read_text(encoding="utf-8"))
            points = []
            for item in doc["front"]:
                (area, power), c, s = checker.check_json_point(g, lib, item, mode, k)
                points.append({"area": area, "power": round(power, 6),
                               "area_by_type": dict(sorted(c.area_by_type.items())),
                               "schedule": ";".join(f"{v}:{t}:{d}" for v, (t, d) in sorted(s.items()))})
            reference[f"{graph}/{mode}/k{k}"] = {"exact": doc["completed"], "points": points}
            print(f"{graph}/{mode}/k{k}: exit {code}, {len(points)} points, exact={doc['completed']}")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
