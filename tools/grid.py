"""Time exact searches over a grid of bundled graphs, slacks and modes.

    python3 tools/grid.py --src src --limit 10 --repeats 3 > grid.json
    python3 tools/grid.py --src src --cells dct:1:multi-vdd --limit 0

Each run is one ``bb_pareto`` call in a fresh interpreter that imports
``dvsched`` from ``--src`` (so two checkouts can be compared), and reports
the search counters, the search's own elapsed seconds, the interpreter's
peak RSS, the front's cost points and ``kept``, a digest of each front
point's exact cost and kept schedule (what the CSV rows carry).  A cell is
repeated ``--repeats`` times unless its first run hits the time limit; the
JSON printed holds each cell's median seconds and the counters of its
first run (they repeat exactly).
``--limit 0`` runs without a time limit.

    python3 tools/grid.py --src src --limit 10 --repeats 1 --against parent.json > grid.json

``--against FILE`` compares the run with a grid JSON saved earlier: on
stderr it names every cell that completed in both runs with a different
``front`` or ``kept``, and gives the expansions and summed seconds of each
run over those cells.  The exit status is 1 when any cell differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ("diffeq", "iir", "fir", "volterra", "lattice", "ewf", "dct")

CHILD = """
import hashlib, json, resource, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from dvsched import ArchMode, SearchConfig, bb_pareto, compute_timing, load_resource_library, parse_dfg
graph, k, mode, limit = sys.argv[2], int(sys.argv[3]), ArchMode(sys.argv[4]), float(sys.argv[5])
bench = Path(sys.argv[6])
g = parse_dfg((bench / f"{graph}.dfg").read_text())
lib = load_resource_library((bench / "default.lib").read_text())
rep = bb_pareto(g, compute_timing(g, k), lib, SearchConfig(mode=mode, time_limit=limit or None))
kept = sorted((e.cost.area_total, repr(e.cost.power), sorted(e.schedule.items())) for e in rep.front)
print(json.dumps({
    "completed": rep.completed, "seconds": rep.elapsed, "expanded": rep.nodes_expanded,
    "budget_prunes": rep.budget_prunes, "dominance_prunes": rep.dominance_prunes,
    "state_prunes": getattr(rep, "state_prunes", None), "leaves": getattr(rep, "leaves", None),
    "state_lookups": getattr(rep, "state_lookups", None),
    "front": rep.front.cost_points(),
    "kept": hashlib.sha256(repr(kept).encode()).hexdigest()[:16],
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run_cell(src: str, graph: str, k: int, mode: str, limit: float) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, src, graph, str(k), mode, str(limit), str(ROOT / "benchmarks")],
        capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the dvsched package")
    ap.add_argument("--limit", type=float, default=10.0, help="seconds per run; 0 = none")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--cells", nargs="*", help="graph:k:mode; default 7 graphs x k 0..2 x "
                    "the 3 modes")
    ap.add_argument("--against", type=Path, help="a grid JSON to compare this run with")
    args = ap.parse_args()
    against = json.loads(args.against.read_text()) if args.against else None
    cells = args.cells or [f"{g}:{k}:{m}" for g in GRAPHS for k in range(3)
                           for m in ("single-vdd", "multi-vdd", "fgdvs")]
    src = str(Path(args.src).resolve())
    result = {}
    for cell in cells:
        graph, k, mode = cell.split(":")
        runs = [run_cell(src, graph, int(k), mode, args.limit)]
        while runs[0]["completed"] and len(runs) < args.repeats:
            runs.append(run_cell(src, graph, int(k), mode, args.limit))
        result[cell] = {**runs[0], "seconds": statistics.median(r["seconds"] for r in runs),
                        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
                        "runs": len(runs)}
        print(cell, {key: result[cell][key] for key in ("completed", "expanded", "seconds")},
              file=sys.stderr, flush=True)
    print(json.dumps(result, indent=1))
    return compare(against, result) if against is not None else 0


def compare(old: dict, new: dict) -> int:
    """Report the cells both grids completed whose answers differ; 1 if any."""
    both = [c for c in new if c in old and old[c]["completed"] and new[c]["completed"]]
    differ = [c for c in both if any(old[c][key] != new[c][key] for key in ("front", "kept"))]
    for cell in differ:
        print(f"differs: {cell}", file=sys.stderr)
    for name, grid in (("against", old), ("this run", new)):
        expanded = sum(grid[c]["expanded"] for c in both)
        seconds = sum(grid[c]["seconds"] for c in both)
        print(f"{name}: {expanded} expansions, {seconds:.2f} s over {len(both)} cells "
              "completed in both", file=sys.stderr)
    print(f"{len(differ)} of {len(both)} cells differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
