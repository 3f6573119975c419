"""Host power model: utilization to watts, its inverse, and energy tallying."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .model import HostMode, PowerProfile


def hum(profile: PowerProfile, mode: HostMode, utilization: float) -> float:
    """Host power draw in watts for the given mode and utilization.

    Off hosts draw nothing, sleeping hosts the flat sleep draw.  Active and
    booting hosts interpolate linearly between the profile breakpoints
    (booting hosts idle at utilization 0 until they come up).
    """
    if mode == HostMode.OFF:
        return 0.0
    if mode == HostMode.SLEEP:
        return profile.sleep_power_w
    if not (0.0 <= utilization <= 1.0):
        raise ValueError(f"utilization {utilization} outside [0, 1]")
    bps = profile.breakpoints
    idx = bisect_right(profile.utilizations, utilization) - 1
    if idx >= len(bps) - 1:
        return bps[-1][1]
    u0, p0 = bps[idx]
    u1, p1 = bps[idx + 1]
    return p0 + (p1 - p0) * (utilization - u0) / (u1 - u0)


def hpm(profile: PowerProfile, power_w: float) -> float:
    """Inverse of hum on the active curve: watts back to utilization.

    Only meaningful between idle and max power; anything outside raises.
    """
    lo, hi = profile.idle_power_w, profile.max_power_w
    if not (lo <= power_w <= hi):
        raise ValueError(f"power {power_w} W outside [{lo}, {hi}] W")
    bps = profile.breakpoints
    for i in range(1, len(bps)):
        u0, p0 = bps[i - 1]
        u1, p1 = bps[i]
        if power_w <= p1:
            if p1 == p0:  # flat segment: lowest utilization that reaches it
                return u0
            return u0 + (u1 - u0) * (power_w - p0) / (p1 - p0)
    return bps[-1][0]


@dataclass
class EnergyAccumulator:
    """Running watt-hour totals, per host and fleet-wide."""

    per_host_wh: dict = field(default_factory=dict)
    total_wh: float = 0.0

    @property
    def total_kwh(self) -> float:
        return self.total_wh / 1000.0


def accumulate_energy(acc: EnergyAccumulator, host_powers_w: dict,
                      interval_seconds: float) -> EnergyAccumulator:
    """Add one interval of draw (rectangle rule) to the accumulator."""
    if interval_seconds <= 0:
        raise ValueError(f"interval_seconds must be > 0 (got {interval_seconds})")
    for host, watts in host_powers_w.items():
        if watts < 0:
            raise ValueError(f"negative power {watts} W for host {host}")
        wh = watts * interval_seconds / 3600.0
        acc.per_host_wh[host] = acc.per_host_wh.get(host, 0.0) + wh
        acc.total_wh += wh
    return acc
