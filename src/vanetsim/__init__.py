"""Deterministic discrete-event simulator for vehicular ad-hoc networks.

Provides a unit-disk radio model over scripted or random-waypoint mobility,
two routing protocols (reactive route discovery and proactive distance
vector), a simplified congestion-controlled transport, and per-flow metric
extraction suitable for comparative protocol studies.
"""

from .engine import Scheduler, SchedulerMisuseError
from .scenario import builtin_scenario, compare, load_config, run
from .simulation import Motion, Simulation

__all__ = [
    "Scheduler",
    "SchedulerMisuseError",
    "builtin_scenario",
    "compare",
    "load_config",
    "run",
    "Motion",
    "Simulation",
]
__version__ = "0.1.0"
