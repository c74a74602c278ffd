"""End-to-end benchmark of dvsched: one workload, one seed, one run.

    python3 bench/run.py --workload fronts-fgdvs --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run makes the workload's inputs from
the seed in a fresh directory under ``.bench_work/``, samples set-up time
in several fresh interpreters, then runs whole passes over the workload's
command list in one more fresh interpreter (worker.py): a closed loop of
one client, one thread, commands back to back through
``dvsched.cli.main``.  It checks every output with checker.py, which
shares no code with dvsched, and prints each metric by name and unit; the
last line of stdout is the JSON result.  ``--trace 1`` reports the
per-layer metrics of layers.py instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import checker
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # set-up-only interpreters before and after the run; setup_s is the median of 2 * 4 + 1
WORKER_TIMEOUT_S = 150


def run_worker(spec: dict, work: Path, tag: str) -> dict:
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        env={**os.environ, "PYTHONHASHSEED": "0"},  # the same dict layouts in every run
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def search_counts(work: Path) -> dict[str, int]:
    """Search counters summed over every JSON sidecar of the last pass."""
    keys = ("nodes_expanded", "budget_prunes", "dominance_prunes")
    total = dict.fromkeys(keys, 0)
    for path in sorted((work / "out").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        runs = doc.get("runs", [doc])
        for run in runs.values() if isinstance(runs, dict) else runs:
            for key in keys:
                total[key] += run.get(key, 0)
    return total


def check_outputs(work: Path, commands: list[dict], last: dict, outputs: list[str]) -> bool:
    """Check every command that succeeded in the last pass; report each miss."""
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    ctx = checker.Context(work, reference)
    ok = True
    try:
        graphs = {p.stem: ctx.graph(p.stem) for p in (work / "in").glob("*.dfg")}
        checker.check_reference(reference, ctx.lib, graphs)
    except Exception:
        print(f"reference.json: {traceback.format_exc()}", file=sys.stderr)
        ok = False
    for cmd, code, out in zip(commands, last["codes"], outputs):
        if code != 0:
            print(f"{cmd['id']}: failed ({code})", file=sys.stderr)
            continue
        try:
            checker.CHECKS[cmd["check"]["kind"]](ctx, cmd["check"], out)
        except Exception:
            print(f"{cmd['id']}: {traceback.format_exc()}", file=sys.stderr)
            ok = False
    return ok


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "dvsched" / "__init__.py").is_file():
        print(f"error: no dvsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_work"))
    try:
        w = workloads.build(args.workload, args.seed, ROOT)
        for name, text in w.files.items():
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            (work / name).write_text(text, encoding="utf-8")
        (work / "out").mkdir()
        spec = {
            "root": str(ROOT), "work": str(work), "commands": w.commands,
            "slacks": sorted((path, sorted(ks)) for path, ks in w.slacks.items()),
            "seconds": args.seconds, "trace": bool(args.trace), "setup_only": True,
        }
        # Set-up is sampled before and after the measured passes, so that
        # its median sees the machine over the same stretch of time.
        probes = 0 if args.trace else SETUP_PROBES
        setups = [run_worker(spec, work, f"setup{i}")["setup_s"] for i in range(probes)]
        res = run_worker({**spec, "setup_only": False}, work, "run")
        setups += [run_worker(spec, work, f"setup{i}")["setup_s"] for i in range(probes)]
        setups.append(res["setup_s"])
        passes = res["passes"]

        correct = len({p["csv"] for p in passes}) == 1
        if not correct:
            print("CSV outputs differ between passes", file=sys.stderr)
        correct = check_outputs(work, w.commands, passes[-1], res["outputs"]) and correct
        failed = sum(code != 0 for p in passes for code in p["codes"])
        attempted = len(passes) * len(w.commands)

        plain = [p["wall_s"] for p in passes if not p["traced"]]
        if args.trace:
            counts = search_counts(work)
            traced = [p for p in passes if p["traced"]]
            metrics = median_metrics([layers.layer_metrics(p["totals"], counts) for p in traced])
            metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
        else:
            metrics = {
                "wall_s": statistics.median(plain),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": res["peak_rss_mb"],
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes of {len(w.commands)} commands, "
          f"pass walls {' '.join(format(p['wall_s'], '.3f') for p in passes)} s")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
