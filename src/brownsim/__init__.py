"""Brownout-based energy management simulator for container fleets.

The package root holds what running a config takes; the submodules (model,
power, workload, policies, engine, qos, cli) hold the rest.
"""

from .engine import ConfigError, Simulation
from .model import SimConfig, load_config
from .workload import load_trace

__version__ = "0.1.0"

__all__ = ["ConfigError", "SimConfig", "Simulation", "load_config", "load_trace"]
