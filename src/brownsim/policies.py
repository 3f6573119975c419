"""Scaling and brownout decision policies.

The brownout controller activates when hosts run past the overload
threshold: a dimmer (after Klein et al., ICSE 2014) derived from the
overloaded share of the fleet sets a per-host utilization reduction target,
and a selector picks which optional containers to deactivate to meet it:

  LUCF  largest subset of optional utilization that still fits under the
        target (closest from below: this package's reading, pinned by
        acceptance criterion 2; the authors' earlier brownout work may
        expand LUCF as "Lowest Utilization Component First", recalled and
        not checked against the paper),
  MNCF  fewest containers whose combined utilization covers the target,
  RSC   random picks until the target is covered; when every draw order
        would take the whole offer (`takes_every_unit`), all of it, undrawn:
        a forced pick.

Every selector is called as (items, target, rng); only RSC uses the rng, and
only for picks that a draw can change.
LUCF and MNCF scan a table with C-level filters, one total per count vector
(how many units of each utilization a pick takes: equal units are
interchangeable); `model.validate_config` keeps a placement within
EXACT_SEARCH_LIMIT units, so the search is exact at every stack size.  Ties
break on the items' ids alone, which the controller sets to stack positions,
so a pick is memoised on the utilizations and positions, across classes and runs.

`brownout_step` is the controller, called once per interval on the whole
fleet, cut into runs of consecutive hosts in one class: it sheds while a
host is overloaded and restores otherwise.  Each run's (count, mask) segments
come from one LUCF, MNCF or forced RSC pick per overloaded host class and
dimmer value per run (these depend on the offer alone), else from one RSC
draw per overloaded host, masked once per distinct pick, or, at dimmer value
0, from the class's `restore_mask`, made once per class and kept in its memo.
Optional containers sharing a connection tag on one host only work as a
group, so `group_units` bundles them into single units for both decisions.
Hosts of one placement share their stack, so each class keeps one `Offer`
to its selector for the run, built and grouped once.
"""

from __future__ import annotations

import math
import random
import sys
from functools import lru_cache
from itertools import chain, compress, count, groupby, repeat
from operator import add
from typing import NamedTuple

from .model import EXACT_SEARCH_LIMIT, HostState, PowerProfile, SimConfig
from .power import hpm

FEAS_EPS = 1e-9  # subset sums near the target must not flip on rounding order


def over_threshold(utilization: float, u_t: float) -> bool:
    """The overload test, shared by the host flag and `restore_mask`: a sum
    that reaches u_t only by rounding is not over it."""
    return utilization > u_t + 1e-12


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
    """One optional container offered to a brownout decision, `id` its stack
    position.  Selectors see active containers at their current utilization;
    `restore_mask` sees deactivated ones at their weight.
    """

    id: int | str
    utilization: float
    connection_tag: str | None = None


class _Unit(NamedTuple):
    """Items that go off or come back together, by sorted ids (positions)."""
    utilization: float  # summed; first, so that units sort by (utilization, ids)
    ids: tuple


class Offer(list):
    """The OptionalItems a host class offers its selector, kept on the class
    for the run (see `brownout_step`) with their `group_units` tuple, `units`."""

    __slots__ = ("units",)

    def __init__(self, items: list):
        super().__init__(items)
        self.units = tuple(group_units(items))


def group_units(items: list) -> list | tuple:
    """Bundle same-tag items into single units; untagged items stand alone.

    Units come back sorted by ascending utilization, ties by ids (stack
    positions in the controller's offers), which also fixes the order every
    selector sees.  An `Offer` returns its own `units`.
    """
    if type(items) is Offer:
        return items.units
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


def _count_table(utilizations: tuple) -> tuple:
    """Totals by unit count: `layers[k]` holds one per count vector (units
    taken from each run of equal utilizations) taking k units; its subsets
    all share that total, summed highest index first.  `runs` keeps each
    run's first index and the layer sizes before it, for `_taken`."""
    layers, runs, end = [[0.0]], [], len(utilizations)
    for u, run in groupby(reversed(utilizations)):
        end -= (m := len(list(run)))
        runs.append((end, list(map(len, layers))))
        added, top = [layers], len(layers) - 1
        for _ in range(m):
            added.append([list(map(add, layer, repeat(u))) for layer in added[-1]])
        layers = [list(chain.from_iterable(added[c][k - c] for c in range(m + 1) if 0 <= k - c <= top))
                  for k in range(top + m + 1)]
    return layers, runs


def _taken(groups: tuple, runs: list, k: int, p: int) -> tuple:
    """Sorted ids of entry p of layers[k]: the first units of each run, the
    smallest ids of the subsets its count vector stands for."""
    ids = []
    for start, sizes in reversed(runs):
        c = max(0, k - len(sizes) + 1)
        while p >= sizes[k - c]:
            p -= sizes[k - c]
            c += 1
        ids += [i for unit in groups[start:start + c] for i in unit]
        k -= c
    return tuple(sorted(ids))


@lru_cache(maxsize=1024)
def _best_pick(utilizations: tuple, groups: tuple, bound: float, lucf: bool) -> tuple:
    """Sorted ids of LUCF's pick (largest total <= bound, then fewest units)
    or MNCF's (fewest units with total >= bound, then largest total) among
    the units, () if none; remaining ties go to the smallest sorted ids."""
    if len(utilizations) > EXACT_SEARCH_LIMIT:
        raise ValueError(f"{len(utilizations)} units, more than the {EXACT_SEARCH_LIMIT} "
                         "searched exactly")
    layers, runs = _count_table(utilizations)
    if lucf:
        best = max(filter(bound.__ge__, chain.from_iterable(layers[1:])))
        k = next(k for k in range(1, len(layers)) if best in layers[k])
    elif (k := next((k for k in range(1, len(layers)) if bound <= max(layers[k])), 0)):
        best = max(layers[k])
    else:
        return ()
    return min(_taken(groups, runs, k, p) for p in compress(count(), map(best.__eq__, layers[k])))


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
    return list(_best_pick(*zip(*units), target + FEAS_EPS, True))


def select_mncf(items: list, target: float, rng: random.Random | None = None) -> list:
    """Fewest units whose combined utilization covers the target.

    Equal cardinality prefers the larger total; if everything together still
    falls short, everything goes.
    """
    units = group_units(items)
    if not units or target <= 0:
        return []
    return list(_best_pick(*zip(*units), target - FEAS_EPS, False)) or _ids(units)


def takes_every_unit(units: tuple, target: float) -> bool:
    """Whether RSC's draws take every unit whatever their order: all units but
    the smallest, summed exactly, fall short of the target by more than any
    float running total of them can round (a margin in proportion to their
    count), so no proper subset covers it.  `units` as `group_units` sorts them."""
    rest = math.fsum([u.utilization for u in units[1:]])
    return rest * (1.0 + len(units) * sys.float_info.epsilon) < target - FEAS_EPS


def select_rsc(items: list, target: float, rng: random.Random) -> list:
    """Random units until the target is covered or nothing is left.

    When every unit goes whatever the draw order (`takes_every_unit`), every
    unit is returned and the rng is not touched: one call stands for a run."""
    units = group_units(items)
    if not units or target <= 0:
        return []
    if takes_every_unit(units, target):
        return _ids(units)
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


def brownout_step(fleet: list, cfg: SimConfig, rng: random.Random | None = None) -> list:
    """Decide the interval's brownout for the whole fleet and return each
    piece's masks: (count, mask) segments that cover its hosts in order.

    `fleet` holds (run, class) pieces in host order, each a `HostState` run
    of consecutive hosts sharing their stack, mode, mask and class; `cfg` is
    the run's `SimConfig`.  While any class is overloaded, the shared dimmer
    theta is above 0 and each overloaded class gets a target from it and an
    offer of the optional containers its mask keeps on, each at the class's
    demand times its weight, capped at 1.  The policy's selector picks once
    per class and theta, except that RSC draws once per host in host order
    where a draw can change its pick (not `takes_every_unit`); a piece splits
    only where its draws differ, and other pieces keep their mask.  While no
    class is overloaded, theta is 0 and every piece takes its class's
    `restore_mask`.  A class builds its offer once per run, at its first
    overload, and keeps it in `cls.offer`.  It keeps its decisions for the
    run in `cls.decided`: theta -> its restore mask (at 0), its shed mask,
    or the target RSC draws for; and a drawn pick's positions -> its mask.
    A class is overloaded in every interval or in none, so it never holds
    both a restore and a shed entry.
    """
    overloaded = sum([run.count for run, cls in fleet if cls.overloaded])
    theta = dimmer(overloaded, sum([run.count for run, _ in fleet])) if overloaded else 0.0
    select, out = SELECTORS[cfg.policy_name], []
    for run, cls in fleet:
        if cls.overloaded and cls.offer is None:
            cls.offer = Offer([
                OptionalItem(id=j, utilization=min(cls.demand * spec.weight, 1.0),
                             connection_tag=spec.connection_tag)
                for j, (spec, on) in enumerate(zip(run.containers, run.active))
                if on and spec.optional])
        # an overloaded class with nothing to offer, or a calm one while others shed
        if not (cls.offer if cls.overloaded else not theta):
            out.append([(run.count, run.active)])
            continue
        memo = cls.decided
        if theta not in memo:
            if theta:
                target = expected_reduction(cls.utilization, cls.power_w, theta, cfg.power_profile)
                draws = cfg.policy_name == "RSC" and not takes_every_unit(cls.offer.units, target)
                memo[theta] = target if draws else _shed(run.active, select(cls.offer, target, rng))
            else:
                memo[theta] = restore_mask(run, cls.utilization, cls.demand,
                                           cfg.policy.overloaded_threshold_u_t)
        decided = memo[theta]
        if type(decided) is tuple:  # a mask for the whole run
            out.append([(run.count, decided)])
        else:
            picks = [tuple(select(cls.offer, decided, rng)) for _ in range(run.count)]
            memo.update({off: _shed(run.active, off) for off in set(picks) - memo.keys()})
            out.append([(len(list(same)), memo[off]) for off, same in groupby(picks)])
    return out


def _shed(active: tuple, off: list) -> tuple:
    """The mask with the containers at the positions in `off` turned off."""
    off = set(off)
    return tuple([on and j not in off for j, on in enumerate(active)]) if off else active


def restore_mask(host: HostState, utilization: float, demand: float, u_t: float) -> tuple:
    """The host's mask with the deactivated containers it can take back at
    `utilization` turned on.

    The containers its mask has off are units, named by stack position and
    weighted by their specs' weights, and a unit brings back demand times
    its weight.  Units come back largest first, ties by positions, as long
    as the host stays out of `over_threshold`; a unit that does not fit is
    skipped and a smaller one after it may still fit.  If none comes back,
    the host's own mask is returned.
    """
    units = group_units([OptionalItem(j, spec.weight, spec.connection_tag) for j, (spec, on)
                         in enumerate(zip(host.containers, host.active)) if not on])
    u, back = utilization, set()
    for unit in sorted(units, key=lambda unit: (-unit.utilization, unit.ids)):
        delta = demand * unit.utilization
        if not over_threshold(u + delta, u_t):
            back.update(unit.ids)
            u += delta
    return tuple([on or j in back for j, on in enumerate(host.active)]) if back else host.active
