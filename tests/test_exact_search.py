# LUCF's and MNCF's exact subset search against the loop it replaced, and
# its memo: one search per distinct (units, target), not per host.

import json
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from brownsim import policies
from brownsim.engine import Simulation
from brownsim.model import config_from_dict
from brownsim.policies import FEAS_EPS, OptionalItem, group_units, select_lucf, select_mncf
from brownsim.workload import load_trace
from test_golden import DENSE_STACK

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# reference: the per-mask search as it was before the memo


def _subset_totals(units: list) -> list:
    totals = [0.0] * (1 << len(units))
    for mask in range(1, len(totals)):
        low = mask & -mask
        totals[mask] = totals[mask ^ low] + units[low.bit_length() - 1].utilization
    return totals


def _mask_ids(mask: int, units: list) -> tuple:
    return tuple(sorted(i for k, u in enumerate(units) if mask >> k & 1 for i in u.ids))


def _best_subset(units: list, feasible, rank) -> tuple | None:
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


def reference_lucf(items, target):
    units = group_units(items)
    if not units or target <= 0:
        return []
    if units[0].utilization >= target:
        return list(units[0].ids)
    limit = target + FEAS_EPS
    return list(_best_subset(units, lambda total: total <= limit,
                             lambda total, count: (-total, count)))


def reference_mncf(items, target):
    units = group_units(items)
    if not units or target <= 0:
        return []
    need = target - FEAS_EPS
    ids = _best_subset(units, lambda total: total >= need, lambda total, count: (count, -total))
    return sorted(i for u in units for i in u.ids) if ids is None else list(ids)


# ---------------------------------------------------------------------------
# equivalence

# Few distinct values, zero among them, so that many subsets tie; sums of
# eighths are exact, so subsets of different units tie too.
UTILIZATION = st.one_of(st.sampled_from([0.0, 0.025, 0.05, 0.125, 0.25, 0.375]),
                        st.floats(0.0, 0.4))
# Short ids over a small alphabet: prefixes of each other ("x", "x@h1",
# "x@h1+1") and orders unlike the units' utilization order.
IDS = st.text(alphabet="x@h1+0", min_size=1, max_size=6)


@st.composite
def offers(draw):
    ids = draw(st.lists(IDS, min_size=1, max_size=16, unique=True))
    items = [OptionalItem(i, draw(UTILIZATION), draw(st.sampled_from([None, None, "p", "q"])))
             for i in ids]
    units = group_units(items)
    # a target at some subset's exact total, or within FEAS_EPS of it
    total = _subset_totals(units)[draw(st.integers(0, (1 << len(units)) - 1))]
    at_sum = total + draw(st.sampled_from([-FEAS_EPS, 0.0, FEAS_EPS]))
    target = draw(st.one_of(st.just(at_sum), st.floats(0.0, 1.5)))
    return items, target, draw(st.permutations(ids))


# runs of equal units beside a tagged pair that totals one of them, so that
# at 0.5 LUCF's two-unit vectors {0.25, 0.25} and {0.375, 0.125} tie on total
# and count, and ids decide between them
TIED_VECTORS = [OptionalItem("1", 0.375), OptionalItem("x", 0.25),
                OptionalItem("@", 0.125, "p"), OptionalItem("+", 0.125, "p"),
                OptionalItem("0", 0.125), OptionalItem("h", 0.125), OptionalItem("x1", 0.0)]


@settings(max_examples=300, deadline=None)
@given(offers())
@example((TIED_VECTORS, 0.5, [it.id for it in reversed(TIED_VECTORS)]))
def test_exact_search_picks_what_the_per_mask_loop_picked(offer):
    items, target, shuffled = offer
    policies._best_pick.cache_clear()
    # cold, warm, then cold for the same units under other ids: a prefix keeps
    # the ids' order, a shuffle moves ids between units
    for ids in ([it.id for it in items], [it.id for it in items],
                ["h9/" + it.id for it in items], shuffled):
        offer = [it._replace(id=i) for it, i in zip(items, ids)]
        assert select_lucf(offer, target) == reference_lucf(offer, target)
        assert select_mncf(offer, target) == reference_mncf(offer, target)


def test_sixteen_equal_units_tie_on_ids():
    items = [OptionalItem(f"c@h1+{k}", 0.025) for k in range(16)]
    for target in (0.1, 0.1 + FEAS_EPS, 0.1 - FEAS_EPS, 0.2501, 0.41):
        policies._best_pick.cache_clear()
        assert select_lucf(items, target) == reference_lucf(items, target)
        assert select_mncf(items, target) == reference_mncf(items, target)


def test_equal_units_build_one_entry_per_count(monkeypatch):
    # sixteen units of one utilization are 17 count vectors (0 to 16 units
    # taken), where a table of every subset would hold 65,536 totals
    items = [OptionalItem(f"c@h1+{k}", 0.025) for k in range(16)]
    entries, real_table = [], policies._count_table

    def table(utilizations):
        layers, runs = real_table(utilizations)
        entries.append(sum(map(len, layers)))
        return layers, runs

    monkeypatch.setattr(policies, "_count_table", table)
    for target in (0.1, 0.2501):
        policies._best_pick.cache_clear()
        assert select_lucf(items, target) == reference_lucf(items, target)
        assert select_mncf(items, target) == reference_mncf(items, target)
    assert entries == [17] * 4


# ---------------------------------------------------------------------------
# one search per distinct key


def test_a_dense_stack_day_searches_once_per_distinct_offer(monkeypatch):
    # On the 10-host dense stack, hosts of one class are offered the same
    # units, stack positions included, at an equal target.
    raw = json.loads((ROOT / "configs" / "sample.json").read_text())
    raw["services"] = DENSE_STACK
    cfg = config_from_dict(raw, base_dir=str(ROOT / "configs"))
    trace = load_trace(cfg.trace_path, cfg.trace_scale, cfg.interval_seconds)
    searches, offered, tables = [], set(), []
    real_select, real_table = policies.select_lucf, policies._count_table

    def select(items, target, rng=None):
        units = group_units(items)
        if units[0].utilization < target:  # not the smallest-unit shortcut
            searches.append(target)
            offered.add((tuple(u.utilization for u in units), tuple(u.ids for u in units),
                         target + FEAS_EPS))
        return real_select(items, target, rng)

    def table(*args):
        tables.append(args)
        return real_table(*args)

    monkeypatch.setitem(policies.SELECTORS, "LUCF", select)
    monkeypatch.setattr(policies, "_count_table", table)
    policies._best_pick.cache_clear()
    Simulation(cfg, trace).run()
    assert len(tables) == len(offered) < len(searches) / 2
