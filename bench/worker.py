"""One measured run of a workload, in a fresh interpreter.

    python3 bench/worker.py SPEC.json RESULT.json

run.py writes SPEC (the work directory, the command list, the graphs to
time in set-up, the seconds to measure, whether to trace) and reads RESULT.
The worker imports dvsched from the checkout's ``src``, sets up, and then
runs whole passes over the command list through ``dvsched.cli.main``, in
this one thread, until the seconds are spent.  With ``setup_only`` it stops
after set-up, so that run.py can sample set-up in several interpreters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def set_up(spec: dict) -> tuple[float, object]:
    """Import dvsched, load the library, parse and time each graph once."""
    t0 = time.perf_counter()
    import dvsched
    from dvsched import cli

    dvsched.load_resource_library(Path("in/default.lib").read_text(encoding="utf-8"))
    for path, slacks in spec["slacks"]:
        g = dvsched.parse_dfg(Path(path).read_text(encoding="utf-8"))
        for k in slacks:
            dvsched.compute_timing(g, k)
    return time.perf_counter() - t0, cli


def run_pass(cli, commands: list[dict]) -> tuple[float, list, list[str]]:
    """Run every command once; returns the wall time, each command's exit
    code (or exception name) and its captured output."""
    codes, outputs = [], []
    t0 = time.perf_counter()
    for cmd in commands:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(cmd["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a command that crashes counts as failed
                code = type(exc).__name__
        codes.append(code)
        outputs.append(sink.getvalue())
    return time.perf_counter() - t0, codes, outputs


def csv_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path("out").glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    os.chdir(spec["work"])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    setup_s, cli = set_up(spec)
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"dvsched was imported from {cli.__file__}, not from {src}")
    result: dict = {"setup_s": setup_s}
    if not spec["setup_only"]:
        from dvsched import bb, listsched, power

        import layers

        tracer = layers.Tracer({"cli": cli, "bb": bb, "listsched": listsched,
                                "ParetoSet": power.ParetoSet})
        passes: list[dict] = []
        start = time.perf_counter()
        # Whole passes while the next one is expected to end within the
        # seconds.  With tracing, passes alternate untraced and traced, so
        # that both see the same machine and their difference is the
        # tracing overhead; a traced run makes at least one of each.
        while not passes or (spec["trace"] and len(passes) < 2) or (
                time.perf_counter() - start + passes[-1]["wall_s"] <= spec["seconds"]):
            traced = spec["trace"] and len(passes) % 2 == 1
            if traced:
                tracer.totals.clear()
                tracer.install()
            try:
                wall, codes, outputs = run_pass(cli, spec["commands"])
            finally:
                tracer.remove()
            passes.append({"wall_s": wall, "traced": traced, "codes": codes,
                           "csv": csv_digest(), "totals": dict(tracer.totals) if traced else None})
        result.update(
            passes=passes,
            outputs=outputs,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:3])
