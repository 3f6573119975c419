"""Brownout-based energy management simulator for container fleets."""

from .engine import (
    ConfigError,
    Simulation,
    derive_utilization,
    route_demand,
    synthesize_response,
)
from .model import (
    ContainerInstance,
    ContainerSpec,
    HostMode,
    HostState,
    IntervalRecord,
    PolicyConfig,
    PowerProfile,
    RunResult,
    SimConfig,
    linear_profile,
    load_config,
    validate_config,
)
from .policies import (
    BrownoutDecision,
    OptionalItem,
    autoscale,
    brownout_step,
    dimmer,
    expected_reduction,
    select_lucf,
    select_mncf,
    select_rsc,
)
from .power import EnergyAccumulator, accumulate_energy, hpm, hum
from .qos import QosReport, check_constraints, nearest_rank_percentile, otr, slavr
from .workload import Trace, load_trace, predict_rate, synthetic_diurnal_trace

__version__ = "0.1.0"

__all__ = [
    "BrownoutDecision",
    "ConfigError",
    "ContainerInstance",
    "ContainerSpec",
    "EnergyAccumulator",
    "HostMode",
    "HostState",
    "IntervalRecord",
    "OptionalItem",
    "PolicyConfig",
    "PowerProfile",
    "QosReport",
    "RunResult",
    "SimConfig",
    "Simulation",
    "Trace",
    "accumulate_energy",
    "autoscale",
    "brownout_step",
    "check_constraints",
    "derive_utilization",
    "dimmer",
    "expected_reduction",
    "hpm",
    "hum",
    "linear_profile",
    "load_config",
    "load_trace",
    "nearest_rank_percentile",
    "otr",
    "predict_rate",
    "route_demand",
    "select_lucf",
    "select_mncf",
    "select_rsc",
    "slavr",
    "synthesize_response",
    "synthetic_diurnal_trace",
    "validate_config",
]
