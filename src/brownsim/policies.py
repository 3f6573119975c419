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
Once no host is overloaded, `restorable` decides which deactivated
containers each host takes back.  Optional containers sharing a connection
tag on one host only work as a group, so `group_units` bundles them into
single units for both decisions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import HostState, PowerProfile
from .power import hpm

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


def expected_reduction(utilization: float, power_w: float, theta: float,
                       profile: PowerProfile) -> float:
    """Utilization a host at (utilization, power_w) should shed, from the
    dimmer's power target.

    The dimmer asks for theta * power_w back; the reduced draw is clamped to
    the feasible [idle, max] band and mapped back through the inverse power
    curve.  Result is in [0, utilization].
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta {theta} outside [0, 1]")
    target = min(max(power_w - theta * power_w, profile.idle_power_w), profile.max_power_w)
    return min(max(utilization - hpm(profile, target), 0.0), utilization)


# ---------------------------------------------------------------------------
# Deactivation selectors


class OptionalItem(NamedTuple):
    """One optional container instance offered to a brownout decision.

    Selectors see active instances at their current utilization;
    `restorable` sees deactivated ones at their weight.
    """

    id: str
    utilization: float
    connection_tag: str | None = None


class _Unit(NamedTuple):
    utilization: float  # first, so that units sort by (utilization, ids)
    ids: tuple


def group_units(items: list) -> list:
    """Bundle same-tag items into single units; untagged items stand alone.

    Units come back sorted by ascending utilization, ties by id, which also
    fixes the order every selector sees.
    """
    by_tag = {}
    singles = []
    for it in items:
        if it.connection_tag is None:
            singles.append(_Unit(ids=(it.id,), utilization=it.utilization))
        else:
            by_tag.setdefault(it.connection_tag, []).append(it)
    units = singles + [
        _Unit(ids=tuple(sorted([i.id for i in group])),
              utilization=sum([i.utilization for i in group]))
        for group in by_tag.values()
    ]
    units.sort()
    return units


def _subset_totals(units: list) -> list:
    totals = [0.0] * (1 << len(units))
    for mask in range(1, len(totals)):
        low = mask & -mask
        totals[mask] = totals[mask ^ low] + units[low.bit_length() - 1].utilization
    return totals


def _mask_ids(mask: int, units: list) -> tuple:
    return tuple(sorted(i for k, u in enumerate(units) if mask >> k & 1 for i in u.ids))


def _best_subset(units: list, feasible, rank) -> tuple | None:
    """Ids of the feasible subset of units with the lowest rank(total, count).

    Equal ranks prefer lexicographically smaller ids, which are computed
    only for masks that tie the best.  None when no subset is feasible.
    """
    totals = _subset_totals(units)
    best = best_key = best_ids = None
    for mask in range(1, len(totals)):
        if feasible(totals[mask]):
            key = rank(totals[mask], mask.bit_count())
            if best_key is None or key < best_key:
                best, best_key, best_ids = mask, key, None
            elif key == best_key:
                best_ids = best_ids or _mask_ids(best, units)
                ids = _mask_ids(mask, units)
                if ids < best_ids:
                    best, best_ids = mask, ids
    return None if best is None else best_ids or _mask_ids(best, units)


def _largest_first(units: list) -> list:
    return sorted(units, key=lambda u: (-u.utilization, u.ids))


def _ids(units: list) -> list:
    return sorted(i for u in units for i in u.ids)


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
    limit = target + FEAS_EPS
    if len(units) <= EXACT_SEARCH_LIMIT:
        return list(_best_subset(units, lambda total: total <= limit,
                                 lambda total, count: (-total, count)))
    chosen, total = [], 0.0
    for u in _largest_first(units):
        if total + u.utilization <= limit:
            chosen.append(u)
            total += u.utilization
    return _ids(chosen)


def select_mncf(items: list, target: float, rng: random.Random | None = None) -> list:
    """Fewest units whose combined utilization covers the target.

    Equal cardinality prefers the larger total; if everything together still
    falls short, everything goes.
    """
    units = group_units(items)
    if not units or target <= 0:
        return []
    need = target - FEAS_EPS
    if len(units) <= EXACT_SEARCH_LIMIT:
        ids = _best_subset(units, lambda total: total >= need,
                           lambda total, count: (count, -total))
        return _ids(units) if ids is None else list(ids)
    chosen, total = [], 0.0
    for u in _largest_first(units):
        chosen.append(u)
        total += u.utilization
        if total >= need:
            return _ids(chosen)
    return _ids(units)


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
    return _ids(chosen)


SELECTORS = {"LUCF": select_lucf, "MNCF": select_mncf, "RSC": select_rsc}


# ---------------------------------------------------------------------------
# Fleet-level brownout step


@dataclass
class BrownoutDecision:
    """Outcome of one brownout evaluation.

    A dimmer of 0 (no overloaded hosts) is the signal to bring deactivated
    containers back; otherwise per_host maps host id -> instance ids to
    deactivate.
    """

    dimmer: float = 0.0
    per_host: dict = field(default_factory=dict)

    @property
    def reactivate(self) -> bool:
        return self.dimmer == 0.0


def brownout_step(overloaded: list, fleet_size: int, profile: PowerProfile, selector,
                  rng: random.Random | None = None) -> BrownoutDecision:
    """Evaluate the fleet once and decide what to deactivate.

    `overloaded` holds one (host, state) pair per overloaded host, in host
    order; the state gives its utilization, power_w and one utilization per
    container.  With none the decision is an empty reactivation directive;
    otherwise each host gets a target from the shared dimmer and a selector
    pick over the optional containers its mask keeps on, never mandatory ones.
    """
    if not overloaded:
        return BrownoutDecision()
    theta = dimmer(len(overloaded), fleet_size)
    decision = BrownoutDecision(dimmer=theta)
    for host, state in overloaded:
        target = expected_reduction(state.utilization, state.power_w, theta, profile)
        items = [
            OptionalItem(id=cid, utilization=u, connection_tag=spec.connection_tag)
            for (cid, spec), on, u in zip(host.containers, host.active, state.instance_utilizations)
            if on and spec.optional
        ]
        if not items:
            continue
        picked = selector(items, target, rng)
        if picked:
            decision.per_host[host.id] = picked
    return decision


def deactivated_units(host: HostState) -> list:
    """The containers the host's mask has off, as units weighted by their
    specs' weights, lightest first."""
    return group_units([
        OptionalItem(id=cid, utilization=spec.weight, connection_tag=spec.connection_tag)
        for (cid, spec), on in zip(host.containers, host.active) if not on
    ])


def restorable(units: list, utilization: float, demand: float, u_t: float) -> list:
    """Ids of the deactivated units (from `deactivated_units`) that a host at
    `utilization` can take back.

    A unit brings back demand times its weight.  Units come back largest
    first, ties by ids, as long as the host stays at or under u_t; a unit
    that does not fit is skipped and a smaller one after it may still fit.
    """
    u = utilization
    back = []
    for unit in _largest_first(units):
        delta = demand * unit.utilization
        if u + delta <= u_t + 1e-12:
            back.extend(unit.ids)
            u += delta
    return back
