"""Voltage-aware operator scheduling on data-flow graphs.

Schedules each operation at a control step and a voltage level (encoded as
a cycle count) and explores the area/power trade-off under three
architecture cost models: a single supply rail, one rail per voltage
level, and per-unit dynamic voltage scaling with power gating.
"""

from .bb import (
    SearchConfig,
    SearchReport,
    bb_first,
    bb_pareto,
)
from .dfg import (
    CycleError,
    Dfg,
    DfgError,
    DfgParseError,
    Schedule,
    TimingInfo,
    Violation,
    compute_timing,
    parse_dfg,
    topological_order,
    validate_schedule,
)
from .listsched import Priority, list_schedule
from .oracle import (
    EnumerationBound,
    StateSpaceTooLarge,
    enumerate_schedules,
    oracle_front,
    state_space_estimate,
)
from .power import (
    POWER_EPS,
    ArchMode,
    Budget,
    CostTuple,
    LibraryError,
    ParetoEntry,
    ParetoSet,
    ResourceLibrary,
    VoltageLevel,
    load_resource_library,
    schedule_cost,
)

__version__ = "0.1.0"

__all__ = [
    "ArchMode",
    "Budget",
    "CostTuple",
    "CycleError",
    "Dfg",
    "DfgError",
    "DfgParseError",
    "EnumerationBound",
    "LibraryError",
    "POWER_EPS",
    "ParetoEntry",
    "ParetoSet",
    "Priority",
    "ResourceLibrary",
    "Schedule",
    "SearchConfig",
    "SearchReport",
    "StateSpaceTooLarge",
    "TimingInfo",
    "VoltageLevel",
    "Violation",
    "bb_first",
    "bb_pareto",
    "compute_timing",
    "enumerate_schedules",
    "list_schedule",
    "load_resource_library",
    "oracle_front",
    "parse_dfg",
    "schedule_cost",
    "state_space_estimate",
    "topological_order",
    "validate_schedule",
]
