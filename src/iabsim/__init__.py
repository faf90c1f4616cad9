"""Deterministic packet-level simulator of a 5G IAB network with an aerial DU."""

from .engine import PathMode, Simulator, link_capacity, measure_throughput
from .scenario_io import load_scenario
from .topology import (Carrier, FlowSpec, Link, Medium, Node, Role, Scenario,
                       validate_topology)

__all__ = [
    "Carrier", "FlowSpec", "Link", "Medium", "Node", "PathMode", "Role",
    "Scenario", "Simulator", "link_capacity",
    "load_scenario", "measure_throughput", "validate_topology",
]
