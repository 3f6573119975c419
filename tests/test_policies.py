import itertools
import math
import random
from types import SimpleNamespace

import pytest

from brownsim.model import (
    ContainerSpec,
    HostMode,
    HostState,
    PowerProfile,
)
from brownsim.policies import (
    OptionalItem,
    autoscale,
    brownout_step,
    dimmer,
    expected_reduction,
    group_units,
    select_lucf,
    select_mncf,
    select_rsc,
)
from brownsim.power import hum

PROFILE = PowerProfile()
I = OptionalItem


# ---------------------------------------------------------------------------
# autoscale, dimmer, expected_reduction


def test_autoscale_examples():
    assert autoscale(95, 10, 16, 1) == 10
    assert autoscale(30, 10, 16, 1) == 3
    assert autoscale(0, 10, 16, 1) == 1, "zero rate clamps to min_active"
    assert autoscale(500, 10, 16, 1) == 16, "demand beyond the fleet clamps to fleet"


def test_autoscale_idempotent():
    rng = random.Random(2)
    for _ in range(200):
        rate = rng.uniform(0, 400)
        first = autoscale(rate, 25.0, 10, 1)
        assert autoscale(rate, 25.0, 10, 1) == first


def test_autoscale_rejects_bad_capacity():
    with pytest.raises(ValueError):
        autoscale(10, 0.0, 10, 1)


def test_dimmer_examples():
    assert dimmer(0, 16) == 0.0
    assert dimmer(16, 16) == 1.0
    assert dimmer(4, 16) == pytest.approx(0.5, abs=1e-9)


def test_dimmer_strictly_increasing():
    values = [dimmer(n, 10) for n in range(11)]
    for a, b in zip(values, values[1:]):
        assert a < b


def test_dimmer_rejects_bad_counts():
    with pytest.raises(ValueError):
        dimmer(-1, 10)
    with pytest.raises(ValueError):
        dimmer(11, 10)
    with pytest.raises(ValueError):
        dimmer(0, 0)


def test_expected_reduction_worked_example():
    # full host, 237 W; a 6 W trim corresponds to dropping from 100% to 80%
    got = expected_reduction(1.0, 237.0, 6.0 / 237.0, PROFILE)
    assert got == pytest.approx(0.20, abs=1e-9)


def test_expected_reduction_zero_theta():
    assert expected_reduction(0.9, 233.0, 0.0, PROFILE) == pytest.approx(0.0)


def test_expected_reduction_clamps_to_idle():
    # theta 1 asks for all the power back; the target clamps at idle,
    # which maps to utilization 0, so the whole utilization must go
    got = expected_reduction(1.0, 237.0, 1.0, PROFILE)
    assert got == pytest.approx(1.0, abs=1e-9)


def test_expected_reduction_bounded():
    rng = random.Random(9)
    for _ in range(300):
        u = rng.random()
        theta = rng.random()
        got = expected_reduction(u, hum(PROFILE, HostMode.ACTIVE, u), theta, PROFILE)
        assert 0.0 <= got <= u + 1e-12, f"u_r {got} outside [0, {u}]"


# ---------------------------------------------------------------------------
# selectors


def test_lucf_single_unit_covers_target():
    assert select_lucf([I("a", 0.20)], 0.12) == ["a"]


def test_lucf_best_fit_from_below():
    assert select_lucf([I("a", 0.05), I("b", 0.10), I("c", 0.15)], 0.12) == ["b"]


def test_lucf_empty_and_zero_target():
    assert select_lucf([], 0.1) == []
    assert select_lucf([I("a", 0.05)], 0.0) == []


def test_lucf_grouped_tags_compete_as_one_unit():
    got = select_lucf([I("a", 0.05, "X"), I("b", 0.04, "X"), I("c", 0.10)], 0.12)
    assert got == ["c"], "the 0.10 single beats the 0.09 tag pair on gap"


def test_lucf_takes_whole_tag_group():
    got = select_lucf([I("a", 0.05, "X"), I("b", 0.04, "X"), I("c", 0.10)], 0.095)
    assert got == ["a", "b"]


def test_mncf_single_unit_suffices():
    assert select_mncf([I("a", 0.05), I("b", 0.10), I("c", 0.15)], 0.12) == ["c"]


def test_mncf_shortfall_takes_everything():
    assert select_mncf([I("a", 0.05), I("b", 0.06)], 0.12) == ["a", "b"]


def test_mncf_zero_target():
    assert select_mncf([I("a", 0.05)], 0.0) == []


def test_mncf_prefers_larger_total_at_equal_count():
    got = select_mncf([I("a", 0.06), I("b", 0.09)], 0.05)
    assert got == ["b"]


def test_rsc_golden_seed():
    got = select_rsc([I("a", 0.05), I("b", 0.10), I("c", 0.15)], 0.12, random.Random(42))
    assert got == ["c"]


def test_rsc_covers_target_or_exhausts():
    rng = random.Random(17)
    for _ in range(300):
        items = [I(f"c{i}", rng.uniform(0.01, 0.2)) for i in range(rng.randint(1, 8))]
        target = rng.uniform(0.0, 0.6)
        got = select_rsc(items, target, rng)
        total = sum(it.utilization for it in items if it.id in got)
        if len(got) < len(items):
            assert total >= target - 1e-12
        else:
            assert total <= sum(it.utilization for it in items) + 1e-12


def test_rsc_single_choice():
    assert select_rsc([I("a", 0.2)], 0.1, random.Random(1)) == ["a"]


def test_group_units_orders_by_utilization():
    units = group_units([I("big", 0.3), I("a", 0.05, "X"), I("b", 0.04, "X"), I("tiny", 0.01)])
    assert [u.ids for u in units] == [("tiny",), ("a", "b"), ("big",)]


# ---------------------------------------------------------------------------
# exhaustive oracles (small scale; the acceptance suite runs the big sweep)


def oracle_lucf_gap(utils, target):
    """Best achievable nonnegative gap target - total over subsets with total <= target.

    Integer arithmetic on the 1e-4 grid, so boundary ties are exact.
    """
    scaled = [round(u * 10000) for u in utils]
    t = round(target * 10000)
    if min(scaled) >= t:
        return None  # smallest-unit rule takes over
    best = 0
    for mask in range(1, 1 << len(scaled)):
        total = sum(u for i, u in enumerate(scaled) if mask >> i & 1)
        if total <= t and total > best:
            best = total
    return (t - best) / 10000


def oracle_mncf_count(utils, target):
    scaled = [round(u * 10000) for u in utils]
    t = round(target * 10000)
    for size in range(1, len(scaled) + 1):
        for combo in itertools.combinations(scaled, size):
            if sum(combo) >= t:
                return size
    return len(scaled)


def test_lucf_matches_oracle_gap():
    rng = random.Random(31)
    for trial in range(200):
        n = rng.randint(1, 10)
        items = [I(f"c{i}", round(rng.uniform(0.01, 0.25), 4)) for i in range(n)]
        target = round(rng.uniform(0.01, 0.8), 4)
        got = select_lucf(items, target)
        total = sum(it.utilization for it in items if it.id in got)
        want_gap = oracle_lucf_gap([it.utilization for it in items], target)
        if want_gap is None:
            smallest = min(items, key=lambda it: (it.utilization, it.id))
            assert got == [smallest.id], f"trial {trial}: smallest-unit rule violated"
        else:
            assert target - total == pytest.approx(want_gap, abs=1e-9), (
                f"trial {trial}: gap {target - total} vs oracle {want_gap}")


def test_mncf_matches_oracle_cardinality():
    rng = random.Random(37)
    for trial in range(200):
        n = rng.randint(1, 10)
        items = [I(f"c{i}", round(rng.uniform(0.01, 0.25), 4)) for i in range(n)]
        target = round(rng.uniform(0.01, 0.8), 4)
        got = select_mncf(items, target)
        want = oracle_mncf_count([it.utilization for it in items], target)
        assert len(got) == want, f"trial {trial}: picked {len(got)} units, oracle {want}"


def test_selector_feasibility_property():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 9)
        items = [I(f"c{i}", rng.uniform(0.01, 0.3)) for i in range(n)]
        target = rng.uniform(0.01, 1.0)
        lucf_total = sum(it.utilization for it in items
                         if it.id in select_lucf(items, target))
        smallest = min(it.utilization for it in items)
        if smallest < target:
            assert lucf_total <= target + 1e-12
        mncf = select_mncf(items, target)
        mncf_total = sum(it.utilization for it in items if it.id in mncf)
        if len(mncf) < n:
            assert mncf_total >= target - 1e-12


def test_tag_closure_property():
    rng = random.Random(43)
    tags = [None, None, "X", "Y"]
    for _ in range(300):
        n = rng.randint(2, 8)
        items = [I(f"c{i}", rng.uniform(0.01, 0.2), rng.choice(tags)) for i in range(n)]
        target = rng.uniform(0.01, 0.8)
        for picked in (select_lucf(items, target), select_mncf(items, target),
                       select_rsc(items, target, rng)):
            chosen_tags = {it.connection_tag for it in items
                           if it.id in picked and it.connection_tag}
            for it in items:
                if it.connection_tag in chosen_tags:
                    assert it.id in picked, f"tag sibling {it.id} left behind in {picked}"


def test_greedy_fallback_beyond_exact_limit():
    items = [I(f"c{i:02d}", 0.01 + 0.001 * i) for i in range(20)]
    target = 0.1
    got = select_lucf(items, target)
    total = sum(it.utilization for it in items if it.id in got)
    assert 0 < total <= target
    got_m = select_mncf(items, target)
    total_m = sum(it.utilization for it in items if it.id in got_m)
    assert total_m >= target


# ---------------------------------------------------------------------------
# brownout_step


class HostClassStub(SimpleNamespace):
    """What brownout_step reads of a host class; one per state, keyed by identity."""

    __eq__, __hash__ = object.__eq__, object.__hash__


def make_host(idx, utilization, specs, deactivate=()):
    """An active host at `utilization` and its class, as the engine passes
    them to brownout_step."""
    hid = f"h{idx:02d}"
    host = HostState(id=hid, mode=HostMode.ACTIVE,
                     containers=tuple((f"{spec.id}@{hid}", spec) for spec in specs.values()),
                     active=tuple(spec.id not in deactivate for spec in specs.values()))
    state = HostClassStub(
        utilization=utilization, power_w=hum(PROFILE, HostMode.ACTIVE, utilization),
        instance_utilizations=tuple(utilization * spec.weight for spec in specs.values()))
    return host, state


SPECS = {s.id: s for s in [
    ContainerSpec(id="web", service="s", weight=0.6),
    ContainerSpec(id="rec", service="s", weight=0.3, optional=True),
    ContainerSpec(id="ads", service="s", weight=0.1, optional=True),
]}


def shed_ids(decision):
    """Host id -> the ids its new mask turns off, from a decision's (hosts, mask) pairs."""
    return {host.id: sorted(cid for (cid, _), on, keep in zip(host.containers, host.active, mask)
                            if on and not keep)
            for hosts, mask in decision.shed for host in hosts}


def test_brownout_no_overload_is_reactivation_directive():
    decision = brownout_step([], 4, PROFILE, "LUCF")
    assert decision.reactivate
    assert decision.dimmer == 0.0
    assert decision.shed == []


def test_brownout_only_overloaded_hosts_selected():
    # which hosts are overloaded is the engine's call (see test_engine's
    # test_brownout_is_offered_exactly_the_overloaded_serving_hosts); the
    # dimmer is the overloaded share of the whole fleet
    decision = brownout_step([make_host(0, 0.9, SPECS)], 4, PROFILE, "LUCF")
    assert not decision.reactivate
    assert decision.dimmer == pytest.approx(math.sqrt(1 / 4))


def test_brownout_all_overloaded_full_dimmer():
    pairs = [make_host(i, 0.95, SPECS) for i in range(4)]
    decision = brownout_step(pairs, 4, PROFILE, "LUCF")
    assert decision.dimmer == pytest.approx(1.0)
    assert set(shed_ids(decision)) == {h.id for h, _ in pairs}


def test_brownout_never_touches_mandatory():
    rng = random.Random(47)
    pairs = [make_host(i, rng.uniform(0.81, 1.0), SPECS) for i in range(4)]
    for policy in ("LUCF", "MNCF", "RSC"):
        decision = brownout_step(pairs, 4, PROFILE, policy, rng)
        assert decision.shed, policy
        for hosts, mask in decision.shed:
            for host in hosts:
                for (inst_id, spec), keep in zip(host.containers, mask):
                    assert keep or spec.optional, f"mandatory {inst_id} in decision"


def test_brownout_full_dimmer_sheds_everything_optional():
    pairs = [make_host(i, 1.0, SPECS) for i in range(4)]
    decision = brownout_step(pairs, 4, PROFILE, "LUCF")
    for host, _ in pairs:
        assert shed_ids(decision)[host.id] == sorted(
            cid for cid, spec in host.containers if spec.optional)


def test_brownout_per_host_holds_both_tag_siblings():
    specs = {s.id: s for s in [
        ContainerSpec(id="web", service="s", weight=0.2),
        ContainerSpec(id="rec", service="s", weight=0.25, optional=True, connection_tag="r"),
        ContainerSpec(id="cache", service="s", weight=0.15, optional=True, connection_tag="r"),
        ContainerSpec(id="ads", service="s", weight=0.2, optional=True),
        ContainerSpec(id="extra", service="s", weight=0.2, optional=True),
    ]}
    pairs = [make_host(0, 1.0, specs)]
    # one overloaded host in 100 asks for 0.69 of its 1.0: LUCF fits the
    # 0.4 pair plus one 0.2 single under it, not all three units (0.8)
    decision = brownout_step(pairs, 100, PROFILE, "LUCF")
    assert shed_ids(decision) == {"h00": ["ads@h00", "cache@h00", "rec@h00"]}
    rng = random.Random(53)
    for policy in ("MNCF", "RSC"):
        picked = set(shed_ids(brownout_step(pairs, 100, PROFILE, policy, rng))["h00"])
        assert ("rec@h00" in picked) == ("cache@h00" in picked), (policy, picked)


def test_brownout_decides_once_per_class_and_rsc_once_per_host():
    # h00, h01 and h03 share one state; h02 is in another.  LUCF picks once
    # for the class and every member takes its mask, ids mapped by position.
    # RSC draws per host, in host order, each over its class's offer.
    (h0, hot), (h1, _), (h2, warm), (h3, _) = [make_host(i, 1.0, SPECS) for i in range(4)]
    warm.utilization = 0.9
    pairs = [(h0, hot), (h1, hot), (h2, warm), (h3, hot)]
    decision = brownout_step(pairs, 4, PROFILE, "LUCF")
    assert [[h.id for h in hosts] for hosts, _ in decision.shed] == [["h00", "h01", "h03"], ["h02"]]
    assert shed_ids(decision)["h03"] == ["ads@h03", "rec@h03"]
    rng, draws = random.Random(5), random.Random(5)
    decision = brownout_step(pairs, 4, PROFILE, "RSC", rng)
    assert [[h.id for h in hosts] for hosts, _ in decision.shed] == [["h00"], ["h01"], ["h02"], ["h03"]]
    target = {id(hot): expected_reduction(1.0, hot.power_w, 1.0, PROFILE),
              id(warm): expected_reduction(0.9, warm.power_w, 1.0, PROFILE)}
    for (host, state), (_, mask) in zip(pairs, decision.shed):
        items = [I(cid, u) for (cid, spec), u in zip(host.containers, state.instance_utilizations)
                 if spec.optional]
        assert shed_ids(decision)[host.id] == select_rsc(items, target[id(state)], draws)
    assert rng.getstate() == draws.getstate()
