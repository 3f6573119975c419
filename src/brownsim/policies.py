"""Scaling and brownout decision policies.

The brownout controller activates when hosts run past the overload
threshold: a dimmer derived from the overloaded share of the fleet sets a
per-host utilization reduction target, and a selector picks which optional
containers to deactivate to meet it.  Three selectors are provided:

  LUCF  largest subset of optional utilization that still fits under the
        target (closest from below),
  MNCF  fewest containers whose combined utilization covers the target,
  RSC   random picks until the target is covered.

Every selector is called as (items, target, rng); only RSC uses the rng.
Optional containers sharing a connection tag on one host only work as a
group, so they are bundled into single units before selection.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .model import HostMode, HostState, PowerProfile
from .power import hpm, hum

EXACT_SEARCH_LIMIT = 16  # beyond this many units, selectors fall back to greedy
FEAS_EPS = 1e-9  # subset sums near the target must not flip on rounding order


def autoscale(predicted_rate: float, capacity: float,
              fleet: int, min_active: int = 1) -> int:
    """Target active-host count: enough hosts to absorb the predicted rate,
    clamped to [min_active, fleet]."""
    if capacity <= 0:
        raise ValueError(f"capacity must be > 0 (got {capacity})")
    if fleet < 1 or not (1 <= min_active <= fleet):
        raise ValueError(f"bad fleet/min_active ({fleet}/{min_active})")
    want = math.ceil(predicted_rate / capacity)
    return max(min_active, min(fleet, want))


def dimmer(overloaded: int, fleet: int) -> float:
    """Severity dial in [0, 1]: square root of the overloaded fleet share."""
    if fleet < 1:
        raise ValueError(f"fleet must be >= 1 (got {fleet})")
    if not (0 <= overloaded <= fleet):
        raise ValueError(f"overloaded count {overloaded} outside [0, {fleet}]")
    return math.sqrt(overloaded / fleet)


def expected_reduction(host: HostState, theta: float, profile: PowerProfile) -> float:
    """Utilization the host should shed, from the dimmer's power target.

    The dimmer asks for theta * P of power back; the reduced draw is clamped
    to the feasible [idle, max] band and mapped back through the inverse
    power curve.  Result is in [0, utilization].
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta {theta} outside [0, 1]")
    power = host.power_w if host.power_w > 0 else hum(profile, host.mode, host.utilization)
    target = power - theta * power
    target = min(max(target, profile.idle_power_w), profile.max_power_w)
    reduced_util = hpm(profile, target)
    return min(max(host.utilization - reduced_util, 0.0), host.utilization)


# ---------------------------------------------------------------------------
# Deactivation selectors


@dataclass(frozen=True)
class OptionalItem:
    """One active optional container instance offered for deactivation."""

    id: str
    utilization: float
    connection_tag: str | None = None


@dataclass(frozen=True)
class _Unit:
    ids: tuple
    utilization: float
    tag: str | None


def group_units(items: list) -> list:
    """Bundle same-tag items into single units; untagged items stand alone.

    Units come back sorted by ascending utilization, ties by id, which also
    fixes the order every selector sees.
    """
    by_tag = {}
    singles = []
    for it in items:
        if it.connection_tag is None:
            singles.append(_Unit(ids=(it.id,), utilization=it.utilization, tag=None))
        else:
            by_tag.setdefault(it.connection_tag, []).append(it)
    units = singles + [
        _Unit(ids=tuple(sorted(i.id for i in group)),
              utilization=sum(i.utilization for i in group),
              tag=tag)
        for tag, group in by_tag.items()
    ]
    units.sort(key=lambda u: (u.utilization, u.ids))
    return units


def _subset_totals(units: list) -> list:
    totals = [0.0] * (1 << len(units))
    for mask in range(1, len(totals)):
        low = mask & -mask
        totals[mask] = totals[mask ^ low] + units[low.bit_length() - 1].utilization
    return totals


def _mask_ids(mask: int, units: list) -> tuple:
    ids = []
    i = 0
    while mask:
        if mask & 1:
            ids.extend(units[i].ids)
        mask >>= 1
        i += 1
    return tuple(sorted(ids))


def select_lucf(items: list, target: float, rng: random.Random | None = None) -> list:
    """Deactivation set whose utilization lands closest under the target.

    If even the smallest unit meets the target it alone is taken; otherwise
    the subset maximizing total utilization without exceeding the target
    wins.  Ties prefer fewer units, then lexicographic ids.
    """
    units = group_units(items)
    if not units or target <= 0:
        return []
    if units[0].utilization >= target:
        return list(units[0].ids)
    if len(units) <= EXACT_SEARCH_LIMIT:
        totals = _subset_totals(units)
        best = 0
        best_key = None
        for mask in range(1, len(totals)):
            if totals[mask] > target + FEAS_EPS:
                continue
            key = (-totals[mask], bin(mask).count("1"))
            if best_key is None or key < best_key or (
                    key == best_key and _mask_ids(mask, units) < _mask_ids(best, units)):
                best, best_key = mask, key
        return list(_mask_ids(best, units))
    # greedy from the largest units down
    chosen, total = [], 0.0
    for u in sorted(units, key=lambda u: (-u.utilization, u.ids)):
        if total + u.utilization <= target + FEAS_EPS:
            chosen.append(u)
            total += u.utilization
    return sorted(i for u in chosen for i in u.ids)


def select_mncf(items: list, target: float, rng: random.Random | None = None) -> list:
    """Fewest units whose combined utilization covers the target.

    Equal cardinality prefers the larger total; if everything together still
    falls short, everything goes.
    """
    units = group_units(items)
    if not units or target <= 0:
        return []
    if len(units) <= EXACT_SEARCH_LIMIT:
        totals = _subset_totals(units)
        best = None
        best_key = None
        for mask in range(1, len(totals)):
            if totals[mask] < target - FEAS_EPS:
                continue
            key = (bin(mask).count("1"), -totals[mask])
            if best_key is None or key < best_key or (
                    key == best_key and _mask_ids(mask, units) < _mask_ids(best, units)):
                best, best_key = mask, key
        if best is None:
            return sorted(i for u in units for i in u.ids)
        return list(_mask_ids(best, units))
    chosen, total = [], 0.0
    for u in sorted(units, key=lambda u: (-u.utilization, u.ids)):
        chosen.append(u)
        total += u.utilization
        if total >= target - FEAS_EPS:
            break
    if total < target - FEAS_EPS:
        chosen = units
    return sorted(i for u in chosen for i in u.ids)


def select_rsc(items: list, target: float, rng: random.Random) -> list:
    """Random units until the target is covered or nothing is left."""
    units = group_units(items)
    if not units or target <= 0:
        return []
    pool = list(units)
    chosen, total = [], 0.0
    while pool and total < target - FEAS_EPS:
        u = pool.pop(rng.randrange(len(pool)))
        chosen.append(u)
        total += u.utilization
    return sorted(i for u in chosen for i in u.ids)


SELECTORS = {"LUCF": select_lucf, "MNCF": select_mncf, "RSC": select_rsc}


# ---------------------------------------------------------------------------
# Fleet-level brownout step


@dataclass
class BrownoutDecision:
    """Outcome of one brownout evaluation.

    A dimmer of 0 (no overloaded hosts) is the signal to bring deactivated
    containers back; otherwise per_host maps host id -> instance ids to
    deactivate and tags_used collects the connection tags that went down.
    """

    dimmer: float = 0.0
    per_host: dict = field(default_factory=dict)
    tags_used: set = field(default_factory=set)

    @property
    def reactivate(self) -> bool:
        return self.dimmer == 0.0


def brownout_step(hosts: list, specs_by_id: dict, u_t: float, fleet_size: int,
                  profile: PowerProfile, selector, rng: random.Random | None = None) -> BrownoutDecision:
    """Evaluate the fleet once and decide what to deactivate.

    Overload is utilization strictly above u_t on active hosts.  With no
    overload the decision is an empty reactivation directive; otherwise each
    overloaded host gets a target from the shared dimmer and its own
    selector pick.  Mandatory containers are never offered to selectors.
    """
    overloaded = [h for h in hosts if h.mode == HostMode.ACTIVE and h.utilization > u_t]
    if not overloaded:
        return BrownoutDecision()
    theta = dimmer(len(overloaded), fleet_size)
    decision = BrownoutDecision(dimmer=theta)
    for h in overloaded:
        target = expected_reduction(h, theta, profile)
        items = [
            OptionalItem(id=i.id, utilization=i.utilization,
                         connection_tag=specs_by_id[i.spec_id].connection_tag)
            for i in h.optional_instances(specs_by_id) if i.active
        ]
        if not items:
            continue
        picked = selector(items, target, rng)
        picked = _close_tags(picked, items)
        if picked:
            decision.per_host[h.id] = picked
            for it in items:
                if it.id in picked and it.connection_tag:
                    decision.tags_used.add(it.connection_tag)
    return decision


def _close_tags(picked: list, items: list) -> list:
    """Drag every same-tag sibling along with any picked tagged item."""
    tags = {it.connection_tag for it in items if it.id in picked and it.connection_tag}
    out = set(picked)
    for it in items:
        if it.connection_tag in tags:
            out.add(it.id)
    return sorted(out)
