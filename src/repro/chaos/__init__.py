"""Chaos engineering for the reproduction: fault injection with
checker-verified guarantees.

* :mod:`repro.chaos.faults` — the :class:`FaultController` nemesis
  interface both transports honor (drop / partition / delay / reorder).
* :mod:`repro.chaos.scenario` — declarative fault timelines
  (:class:`Scenario`, :class:`FaultEvent`) and their fault windows.
* :mod:`repro.chaos.scenarios` — the named catalog
  (``python -m repro chaos --list``).
* :mod:`repro.chaos.engine` — :func:`run_scenario`: the same scenario
  against the simulated or the live cluster (a multi-group fleet included),
  with WAL-backed crash recovery, leader failover, migration-controller
  recovery, and streaming-checker verdicts.
"""

from repro.chaos.faults import Fate, FaultController
from repro.chaos.scenario import FaultEvent, Scenario
from repro.chaos.scenarios import all_scenarios, get_scenario, scenario_names
from repro.chaos.engine import ChaosReport, NodeRecovery, run_scenario

__all__ = [
    "Fate",
    "FaultController",
    "FaultEvent",
    "Scenario",
    "ChaosReport",
    "NodeRecovery",
    "run_scenario",
    "all_scenarios",
    "get_scenario",
    "scenario_names",
]
