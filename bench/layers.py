"""Per-layer tracing, wrapped around dvsched from outside.

``Tracer`` replaces the layer entry points that ``dvsched.cli``,
``dvsched.bb`` and ``dvsched.listsched`` look up in their own namespaces
(and ``ParetoSet.insert`` on its class) with wrappers that time each call
and subtract the time of the wrapped calls nested inside it, so every span
has a total and a self time.  Spans stay in memory; ``layer_metrics``
turns one pass's totals into the per-layer metrics of BENCHMARK.json.
This module imports nothing from dvsched itself: the worker hands it the
modules.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Mapping

# (module name, attribute, span).  A span named after the caller's layer
# ("power.cost.bb") tells who asked for the work.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_dfg", "dfg.parse"),
    ("cli", "compute_timing", "dfg.timing"),
    ("cli", "load_resource_library", "power.lib_load"),
    ("cli", "bb_pareto", "bb.pareto"),
    ("cli", "bb_first", "bb.first"),
    ("cli", "list_schedule", "listsched.cli"),
    ("cli", "schedule_cost", "power.cost.cli"),
    ("bb", "list_schedule", "listsched.bb"),
    ("bb", "schedule_cost", "power.cost.bb"),
    ("listsched", "schedule_cost", "power.cost.listsched"),
    ("ParetoSet", "insert", "power.insert"),
)


def _count_result(span: str, result: Any, totals: defaultdict) -> None:
    if span == "dfg.parse":
        totals["dfg.nodes"] += len(result)
    elif span == "listsched.bb" and result is not None:
        totals["listsched.bb.found"] += 1  # a seed that bb then costs
    elif span == "power.insert" and result:
        totals["power.insert.accepted"] += 1


class Tracer:
    def __init__(self, modules: Mapping[str, Any]):
        self.modules = modules
        self.totals: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[Any, str, Callable]] = []

    def _wrap(self, fn: Callable, span: str) -> Callable:
        totals, stack, clock = self.totals, self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                totals[span + ".calls"] += 1
                totals[span + ".s"] += dt
                totals[span + ".self_s"] += dt - children[0]
            _count_result(span, result, totals)
            return result

        return traced

    def install(self) -> None:
        for mod, attr, span in TARGETS:
            owner = self.modules[mod]
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span))

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def layer_metrics(t: Mapping[str, float], sidecars: Mapping[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``t`` holds the tracer's totals; ``sidecars`` the search counters summed
    over the pass's JSON sidecars, which bb-first does not write, so
    ``bb.expanded_per_s`` divides them by the walk time of ``bb_pareto`` only.
    """
    t = defaultdict(float, t)
    cost_calls = sum(t[f"power.cost.{c}.calls"] for c in ("bb", "listsched", "cli"))
    cost_s = sum(t[f"power.cost.{c}.s"] for c in ("bb", "listsched", "cli"))
    leaves = t["power.cost.bb.calls"] - t["listsched.bb.found"]
    return {
        "bb.walk_self_s": t["bb.pareto.self_s"] + t["bb.first.self_s"],
        "bb.expanded_per_s": sidecars["nodes_expanded"] / t["bb.pareto.self_s"] if t["bb.pareto.self_s"] else 0.0,
        "bb.expanded": sidecars["nodes_expanded"],
        "bb.budget_prunes": sidecars["budget_prunes"],
        "bb.dominance_prunes": sidecars["dominance_prunes"],
        "bb.first_s": t["bb.first.s"],
        "bb.searches": t["bb.pareto.calls"] + t["bb.first.calls"],
        "bb.search_s": t["bb.pareto.s"] + t["bb.first.s"],
        "bb.leaves": leaves,
        "bb.leaf_yield": t["power.insert.accepted"] / t["power.cost.bb.calls"] if t["power.cost.bb.calls"] else 0.0,
        "power.cost_calls.bb": t["power.cost.bb.calls"],
        "power.cost_s.bb": t["power.cost.bb.s"],
        "power.cost_us_per_call": 1e6 * cost_s / cost_calls if cost_calls else 0.0,
        "power.cost_calls.listsched": t["power.cost.listsched.calls"],
        "power.cost_s.listsched": t["power.cost.listsched.s"],
        "power.cost_calls.cli": t["power.cost.cli.calls"],
        "power.cost_s.cli": t["power.cost.cli.s"],
        "power.lib_load_s": t["power.lib_load.s"],
        "power.insert_calls": t["power.insert.calls"],
        "power.insert_accepted": t["power.insert.accepted"],
        "power.insert_s": t["power.insert.s"],
        "listsched.calls": t["listsched.cli.calls"] + t["listsched.bb.calls"],
        "listsched.s": t["listsched.cli.s"] + t["listsched.bb.s"],
        "listsched.self_s": t["listsched.cli.self_s"] + t["listsched.bb.self_s"],
        "dfg.parse_calls": t["dfg.parse.calls"],
        "dfg.parse_s": t["dfg.parse.s"],
        "dfg.nodes_parsed": t["dfg.nodes"],
        "dfg.timing_s": t["dfg.timing.s"],
        "cli.commands": t["cli.main.calls"],
        "cli.self_s": t["cli.main.self_s"],
    }
