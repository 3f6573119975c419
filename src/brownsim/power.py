"""Host power model: utilization to watts and its inverse."""

from __future__ import annotations

from bisect import bisect_right

from .model import HostMode, PowerProfile


def hum(profile: PowerProfile, mode: HostMode, utilization: float) -> float:
    """Host power draw in watts for the given mode and utilization.

    Sleeping hosts draw the flat sleep draw.  Active and booting hosts
    interpolate linearly between the profile breakpoints (booting hosts idle
    at utilization 0 until they come up).
    """
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
        if power_w <= p1:  # a flat segment gives the lowest utilization that reaches it
            return u0 if p1 == p0 else u0 + (u1 - u0) * (power_w - p0) / (p1 - p0)
    return bps[-1][0]
