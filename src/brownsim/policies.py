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
`brownout_step` makes one LUCF or MNCF decision per overloaded host class,
whose hosts share one offer and take one mask; RSC draws once per host.
Up to EXACT_SEARCH_LIMIT units, LUCF and MNCF scan a table of every subset's
total with C-level filters.  Ties break on the ids' order alone, so a pick is
memoised on the utilizations and the ids' ranks, across classes and runs.
Once no host is overloaded, `restorable` decides which deactivated
containers each class takes back.  Optional containers sharing a connection
tag on one host only work as a group, so `group_units` bundles them into
single units for both decisions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add
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


def _subset_totals(utilizations: tuple) -> list:
    """Every subset's total by bitmask, adding its units highest index first."""
    totals = [0.0]
    for u in reversed(utilizations):
        grown = [0.0] * (2 * len(totals))
        grown[0::2] = totals
        grown[1::2] = map(add, totals, repeat(u))
        totals = grown
    return totals


def _mask_ids(mask: int, groups: tuple) -> tuple:
    return tuple(sorted(i for k, ids in enumerate(groups) if mask >> k & 1 for i in ids))


def _keep(masks, key, test) -> list:
    return list(compress(masks, map(test, map(key, masks))))


@lru_cache(maxsize=1024)
def _best_mask(utilizations: tuple, ranks: tuple, bound: float, lucf: bool) -> int:
    """Bitmask of LUCF's pick (largest total <= bound, then fewest units) or
    MNCF's (fewest units with total >= bound, then largest total), 0 if none;
    remaining ties go to the smallest sorted id ranks."""
    totals = _subset_totals(utilizations)
    total, masks = totals.__getitem__, range(1, len(totals))
    if lucf:
        masks = _keep(masks, total, max(filter(bound.__ge__, totals[1:])).__eq__)
    elif not (masks := _keep(masks, total, bound.__le__)):
        return 0
    masks = _keep(masks, int.bit_count, min(map(int.bit_count, masks)).__eq__)
    if not lucf:
        masks = _keep(masks, total, max(map(total, masks)).__eq__)
    return min(masks, key=lambda m: _mask_ids(m, ranks))


def _exact_search(units: list, bound: float, lucf: bool) -> list | None:
    """Ids of the subset `_best_mask` picks among the units; None if none."""
    utilizations, groups = zip(*units)
    rank = {i: k for k, i in enumerate(sorted(chain.from_iterable(groups)))}.__getitem__
    mask = _best_mask(utilizations, tuple([tuple(map(rank, ids)) for ids in groups]), bound, lucf)
    return list(_mask_ids(mask, groups)) if mask else None


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
        return _exact_search(units, limit, True)
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
        return _exact_search(units, need, False) or _ids(units)
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


SHARED_PICKS = ("LUCF", "MNCF")  # selectors whose pick is a function of the offer alone


@dataclass
class BrownoutDecision:
    """Outcome of one brownout evaluation.

    A dimmer of 0 (no overloaded hosts) is the signal to bring deactivated
    containers back; otherwise `shed` holds one (hosts, mask) pair per pick:
    hosts of one class and the active mask they all take.
    """

    dimmer: float = 0.0
    shed: list = field(default_factory=list)

    @property
    def reactivate(self) -> bool:
        return self.dimmer == 0.0


def brownout_step(overloaded: list, fleet_size: int, profile: PowerProfile, policy: str,
                  rng: random.Random | None = None) -> BrownoutDecision:
    """Evaluate the fleet once and decide what to deactivate.

    `overloaded` holds one (host, class) pair per overloaded host, in host
    order; a class gives its hosts' utilization, power_w and one utilization
    per container.  With none the decision is an empty reactivation
    directive.  Otherwise each class gets a target from the shared dimmer and
    an offer of the optional containers its mask keeps on, never mandatory
    ones.  The policy's selector (SELECTORS[policy]) picks once per class for
    SHARED_PICKS, else once per host in host order, so RSC's draws stay put.
    """
    if not overloaded:
        return BrownoutDecision()
    theta = dimmer(len(overloaded), fleet_size)
    decision = BrownoutDecision(dimmer=theta)
    select, members, offers = SELECTORS[policy], {}, {}
    for host, cls in overloaded:
        members.setdefault(cls, []).append(host)
    for cls, (host, *_) in members.items():  # (target, items, first host) per class
        offers[cls] = (expected_reduction(cls.utilization, cls.power_w, theta, profile), [
            OptionalItem(id=cid, utilization=u, connection_tag=spec.connection_tag)
            for (cid, spec), on, u in zip(host.containers, host.active, cls.instance_utilizations)
            if on and spec.optional
        ], host)
    picks = members.items() if policy in SHARED_PICKS else [(c, [h]) for h, c in overloaded]
    for cls, hosts in picks:
        target, items, host = offers[cls]
        if items and (picked := set(select(items, target, rng))):
            decision.shed.append((hosts, tuple([on and cid not in picked for (cid, _), on
                                                in zip(host.containers, host.active)])))
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
