import dataclasses
import math
import random
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from brownsim import policies
from brownsim.model import (
    ContainerSpec,
    HostMode,
    HostState,
    PolicyConfig,
    PowerProfile,
    SimConfig,
    host_id,
)
from brownsim.policies import (
    FEAS_EPS,
    Layout,
    Offer,
    OptionalItem,
    autoscale,
    brownout_step,
    dimmer,
    expected_reduction,
    group_units,
    restore_mask,
    select_lucf,
    select_mncf,
    select_rsc,
    takes_every_unit,
)
from brownsim.power import hum
from test_acceptance import brute_lucf_gap, brute_mncf_count

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


def _reach(utilization, share):
    """The largest theta (within 1e-12) whose target for a host at
    `utilization` on the shipped curve stays below `share`, read as the
    utilization the optional containers of a full stack carry."""
    power = hum(PROFILE, HostMode.ACTIVE, utilization)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if expected_reduction(utilization, power, mid, PROFILE) < share:
            lo = mid
        else:
            hi = mid
    return lo


def test_the_dimmer_asks_for_less_than_the_optional_share_only_on_large_fleets():
    # The controller's reach today, from the dimmer, the target and the
    # shipped curve alone: the curve spans 201-237 W, so a small power cut
    # is a large utilization cut.  A change that lets a selector leave some
    # optional load on moves these numbers; show the old and new side by side.
    utilizations = [0.8 + k / 100 for k in range(1, 21)]  # overloaded at u_t 0.8, up to 1
    reach = {share: [_reach(u, share) for u in utilizations] for share in (0.1, 0.2, 0.3, 0.4)}
    bands = {share: (min(thetas), max(thetas)) for share, thetas in reach.items()}
    assert bands == {0.1: pytest.approx((0.008584, 0.024221), abs=1e-6),
                     0.2: pytest.approx((0.025316, 0.034602), abs=1e-6),
                     0.3: pytest.approx((0.042918, 0.050633), abs=1e-6),
                     0.4: pytest.approx((0.051502, 0.063581), abs=1e-6)}
    # theta = sqrt(overloaded / fleet): one overloaded host gets a target
    # below a 0.4 share only in a fleet of at least this many hosts
    fleets = [next(n for n in range(1, 1000) if dimmer(1, n) <= theta) for theta in reach[0.4]]
    assert (min(fleets), max(fleets)) == (248, 378)


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


def drawing_loop(units, target, draw):
    """RSC's pick as it drew every unit: random units until the target is
    covered or nothing is left, `draw(n)` choosing among the n still in the pool."""
    if not units or target <= 0:
        return []
    pool = list(units)
    chosen, total = [], 0.0
    while pool and total < target - FEAS_EPS:
        u = pool.pop(draw(len(pool)))
        chosen.append(u)
        total += u.utilization
    return sorted(i for u in chosen for i in u.ids)


def _ulps(x, k):
    """x moved k units in the last place."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# equal and tiny utilizations beside arbitrary ones
RSC_UTILIZATION = st.one_of(st.sampled_from([0.0, 5e-324, 1e-17, FEAS_EPS, 0.025, 0.1, 1 / 3]),
                            st.floats(0.0, 1.0))


@st.composite
def rsc_offers(draw):
    """1-16 items, some tagged, and a target whose goal (target - FEAS_EPS)
    lies within a few ulps of all the units but the smallest, or of all of them."""
    equal = draw(RSC_UTILIZATION)
    n = draw(st.integers(1, 16))
    items = [I(k, draw(st.one_of(st.just(equal), st.just(equal), RSC_UTILIZATION)),
               draw(st.sampled_from([None, None, None, "p", "q"])))
             for k in range(n)]
    units = group_units(items)
    edge = math.fsum([u.utilization for u in units[draw(st.integers(0, 1)):]])
    # a few ulps per unit: the predicate's margin grows with the unit count
    target = _ulps(edge + draw(st.sampled_from([0.0, FEAS_EPS])), draw(st.integers(-3 * n, 3 * n)))
    return items, draw(st.one_of(st.just(target), st.floats(0.0, 2.0)))


@settings(max_examples=100, deadline=None)
@given(rsc_offers(), st.integers(0, 2 ** 32))
# (0.1 + 0.2) + 0.3 rounds to 0.6000000000000001, one ulp past their exact
# sum, and reaches this goal before the 0.0 unit is drawn
@example(([I(0, 0.0), I(1, 0.1), I(2, 0.2), I(3, 0.3)], 0.6000000000000001 + FEAS_EPS), 0)
def test_rsc_skips_only_draws_that_cannot_change_its_pick(offer, seed):
    items, target = offer
    units = group_units(items)
    if takes_every_unit(units, target):
        every = sorted(it.id for it in items)
        if len(units) <= 5:
            picks = [drawing_loop(order, target, lambda n: 0) for order in permutations(units)]
        else:
            picks = [drawing_loop(units, target, random.Random(s).randrange) for s in range(20)]
        assert all(pick == every for pick in picks)
        rng = random.Random(seed)
        state = rng.getstate()
        assert select_rsc(items, target, rng) == every
        assert rng.getstate() == state
    else:
        old, new = random.Random(seed), random.Random(seed)
        assert select_rsc(items, target, new) == drawing_loop(units, target, old.randrange)
        assert new.getstate() == old.getstate()


def test_group_units_orders_by_utilization():
    units = group_units([I("big", 0.3), I("a", 0.05, "X"), I("b", 0.04, "X"), I("tiny", 0.01)])
    assert [u.ids for u in units] == [("tiny",), ("a", "b"), ("big",)]
    # plain (id, utilization, tag) triples group alike; a tag's sum keeps its
    # rounding (0.1 + 0.2 is not 0.3) and the order it gives
    items = [I("big", 0.3), I("b", 0.2, "X"), I("a", 0.1, "X"), I("tiny", 0.01)]
    units = group_units(items)
    assert units == group_units([tuple(it) for it in items])
    assert [tuple(u) for u in units] == [(0.01, ("tiny",)), (0.3, ("big",)),
                                         (0.2 + 0.1, ("a", "b"))]


# ---------------------------------------------------------------------------
# exhaustive oracles, shared with criterion 2 (small scale here; the
# acceptance suite runs the big sweep)


def test_lucf_matches_oracle_gap():
    rng = random.Random(31)
    for trial in range(200):
        n = rng.randint(1, 10)
        items = [I(f"c{i}", round(rng.uniform(0.01, 0.25), 4)) for i in range(n)]
        target = round(rng.uniform(0.01, 0.8), 4)
        got = select_lucf(items, target)
        total = sum(it.utilization for it in items if it.id in got)
        want_gap = brute_lucf_gap([it.utilization for it in items], target)
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
        want = brute_mncf_count([it.utilization for it in items], target)
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


def test_selectors_search_no_more_than_the_validated_limit():
    # validate_config keeps a placement within EXACT_SEARCH_LIMIT units (see
    # test_model), so LUCF and MNCF have one exact meaning; past it they
    # refuse instead of switching to a greedy pick
    items = [I(f"c{i:02d}", 0.01 + 0.001 * i) for i in range(policies.EXACT_SEARCH_LIMIT + 1)]
    for select in (select_lucf, select_mncf):
        with pytest.raises(ValueError, match="searched exactly"):
            select(items, 0.1)
    items = items[:policies.EXACT_SEARCH_LIMIT]
    assert sum(it.utilization for it in items if it.id in select_lucf(items, 0.1)) <= 0.1
    assert sum(it.utilization for it in items if it.id in select_mncf(items, 0.1)) >= 0.1


# ---------------------------------------------------------------------------
# brownout_step


class HostClassStub(SimpleNamespace):
    """What brownout_step reads of a host class; one per state, keyed by identity."""

    __eq__, __hash__ = object.__eq__, object.__hash__


def make_host(idx, utilization, specs, deactivate=(), demand=None):
    """An active host at `utilization` and its class, as the engine passes
    them to brownout_step: a run of one host whose stack is the specs in
    order; the class's demand is its utilization unless given, it has a
    layout of its own, and it has no offer and no decision yet.  A host's id
    is its position in the fleet (`idx`)."""
    host = HostState(1, mode=HostMode.ACTIVE,
                     containers=tuple(specs.values()),
                     active=tuple(spec.id not in deactivate for spec in specs.values()))
    state = HostClassStub(
        utilization=utilization, power_w=hum(PROFILE, HostMode.ACTIVE, utilization),
        demand=utilization if demand is None else demand, overloaded=utilization > 0.8,
        layout=Layout(host.containers, host.active), offer=None, decided={})
    return host, state


def run_of(host, count):
    """`count` hosts in the state of the run `host`."""
    return HostState(count, host.mode, host.boot_remaining, host.stack, host.containers,
                     host.active)


def with_calm(pairs, fleet):
    """The pairs followed by calm hosts up to a fleet of `fleet`."""
    return pairs + [make_host(i, 0.5, SPECS) for i in range(len(pairs), fleet)]


SPECS = {s.id: s for s in [
    ContainerSpec(id="web", service="s", weight=0.6),
    ContainerSpec(id="rec", service="s", weight=0.3, optional=True),
    ContainerSpec(id="ads", service="s", weight=0.1, optional=True),
]}


def config(policy):
    """What brownout_step reads of a run's config: the policy, the power
    profile and u_t 0.8, the threshold `make_host` flags overload at."""
    return SimConfig(policy_name=policy, power_profile=PROFILE,
                     policy=PolicyConfig(overloaded_threshold_u_t=0.8))


def step(pairs, policy, rng=None):
    """brownout_step over the (host, class) pairs, each host a piece alone:
    the (fleet, segments) that `moves` and `shed_ids` read."""
    return pairs, brownout_step(pairs, config(policy), rng)


def masks_of(fleet, segments):
    """(host id, host, mask it takes) per host of the fleet's (run, class)
    pieces, from the (count, mask) segments brownout_step returned for them."""
    hosts = [run for run, _ in fleet for _ in range(run.count)]
    masks = [mask for piece in segments for n, mask in piece for _ in range(n)]
    assert len(segments) == len(fleet) and len(masks) == len(hosts), "every host takes one mask"
    return [(host_id(i), host, mask) for i, (host, mask) in enumerate(zip(hosts, masks))]


def moves(decided):
    """Host id -> the new mask of every host whose mask changes, in host order."""
    return {hid: mask for hid, host, mask in masks_of(*decided) if mask != host.active}


def shed_ids(decided):
    """Host id -> the spec ids its new mask turns off, for every host it changes."""
    return {hid: sorted(spec.id for spec, on, keep in zip(host.containers, host.active, mask)
                        if on and not keep)
            for hid, host, mask in masks_of(*decided) if mask != host.active}


def offered(host, state):
    """The optional items brownout_step offers for the host, named by position."""
    return [I(j, min(state.demand * spec.weight, 1.0)) for j, spec in enumerate(host.containers)
            if spec.optional]


def spec_ids(host, positions):
    """The spec ids at the stack positions, sorted."""
    return sorted(host.containers[j].id for j in positions)


def spy_dimmer(monkeypatch):
    """Record every dimmer value brownout_step computes."""
    seen, real = [], policies.dimmer

    def spy(overloaded, fleet):
        seen.append(real(overloaded, fleet))
        return seen[-1]

    monkeypatch.setattr(policies, "dimmer", spy)
    return seen


def test_brownout_no_overload_is_reactivation_directive():
    # no overloaded host and nothing to restore: no moves
    assert step([], "LUCF")[1] == []
    calm = with_calm([], 4)
    assert step(calm, "LUCF")[1] == [[(1, host.active)] for host, _ in calm]
    assert moves(step(calm, "LUCF")) == {}


@pytest.mark.parametrize("policy", ["LUCF", "MNCF", "RSC"])
def test_brownout_restores_when_no_host_is_overloaded(policy):
    # web (0.6) alone runs, u_t is 0.8.  h00 and h02 share a class at demand
    # 1 that takes "ads" (0.1) back but not "rec" (0.3); h01's class, at
    # demand 0.5, takes both back; h03's, at 1.25, takes neither.  Every
    # piece takes its class's restore mask, so the hosts that move are those
    # whose class's restore mask differs from their own.
    off = ("rec", "ads")
    (h0, one), (h1, both), (h2, _), (h3, kept) = [
        make_host(i, 0.6 * demand, SPECS, deactivate=off, demand=demand)
        for i, demand in enumerate((1.0, 0.5, 1.0, 1.25))]
    fleet = [(h0, one), (h1, both), (h2, one), (h3, kept)]
    rng = random.Random(3)
    state = rng.getstate()
    decided = step(fleet, policy, rng)
    assert decided[1] == [[(1, (True, False, True))], [(1, (True, True, True))],
                          [(1, (True, False, True))], [(1, h3.active)]]
    assert moves(decided) == {
        "h00": (True, False, True), "h01": (True, True, True), "h02": (True, False, True)}
    assert rng.getstate() == state, "restoring draws nothing"
    # each class keeps its restore mask under dimmer value 0, and only it
    for host, cls in fleet:
        assert cls.decided == {0.0: restore_mask(cls.layout, cls.utilization, cls.demand, 0.8)}
    # one overloaded pair turns the interval into a shed: no restore move
    hot, hot_state = make_host(4, 1.0, SPECS)
    assert list(moves(step(fleet + [(hot, hot_state)], policy, rng))) == ["h04"]


def test_brownout_only_overloaded_hosts_selected(monkeypatch):
    # which hosts are overloaded is the engine's call (see test_engine's
    # test_brownout_is_offered_exactly_the_overloaded_serving_hosts); the
    # dimmer is the overloaded share of the whole fleet
    seen = spy_dimmer(monkeypatch)
    host, state = make_host(0, 0.9, SPECS)
    decided = step(with_calm([(host, state)], 4), "LUCF")
    assert seen == [pytest.approx(math.sqrt(1 / 4))]
    assert list(moves(decided)) == ["h00"]
    target = expected_reduction(0.9, state.power_w, math.sqrt(1 / 4), PROFILE)
    assert shed_ids(decided)["h00"] == spec_ids(host, select_lucf(offered(host, state), target))


def test_brownout_all_overloaded_full_dimmer(monkeypatch):
    seen = spy_dimmer(monkeypatch)
    pairs = [make_host(i, 0.95, SPECS) for i in range(4)]
    decided = step(pairs, "LUCF")
    assert seen == [pytest.approx(1.0)]
    assert set(shed_ids(decided)) == {host_id(i) for i in range(len(pairs))}


def test_brownout_never_touches_mandatory():
    rng = random.Random(47)
    pairs = [make_host(i, rng.uniform(0.81, 1.0), SPECS) for i in range(4)]
    for policy in ("LUCF", "MNCF", "RSC"):
        decided = step(pairs, policy, rng)
        assert moves(decided), policy
        for _, host, mask in masks_of(*decided):
            for spec, keep in zip(host.containers, mask):
                assert keep or spec.optional, f"mandatory {spec.id} in decision"


def test_brownout_full_dimmer_sheds_everything_optional():
    pairs = [make_host(i, 1.0, SPECS) for i in range(4)]
    decided = step(pairs, "LUCF")
    for i, (host, _) in enumerate(pairs):
        assert shed_ids(decided)[host_id(i)] == sorted(
            spec.id for spec in host.containers if spec.optional)


def test_brownout_per_host_holds_both_tag_siblings():
    specs = {s.id: s for s in [
        ContainerSpec(id="web", service="s", weight=0.2),
        ContainerSpec(id="rec", service="s", weight=0.25, optional=True, connection_tag="r"),
        ContainerSpec(id="cache", service="s", weight=0.15, optional=True, connection_tag="r"),
        ContainerSpec(id="ads", service="s", weight=0.2, optional=True),
        ContainerSpec(id="extra", service="s", weight=0.2, optional=True),
    ]}
    pairs = with_calm([make_host(0, 1.0, specs)], 100)
    # one overloaded host in 100 asks for 0.69 of its 1.0: LUCF fits the
    # 0.4 pair plus one 0.2 single under it, not all three units (0.8)
    assert shed_ids(step(pairs, "LUCF")) == {"h00": ["ads", "cache", "rec"]}
    rng = random.Random(53)
    for policy in ("MNCF", "RSC"):
        picked = set(shed_ids(step(pairs, policy, rng))["h00"])
        assert ("rec" in picked) == ("cache" in picked), (policy, picked)


def test_brownout_decides_once_per_class_and_rsc_once_per_host(monkeypatch):
    # h00, h01 and h03 share one state; h02 is in another.  LUCF picks once
    # per (class, dimmer value) for the run: every member takes its mask, the
    # same object, in this evaluation and in a later one at the same value.
    # RSC draws per host, in host order, each over its class's offer, and the
    # hosts of one class that shed the same positions take one mask object.
    # A class's decisions are keyed by dimmer value alone (one run, one
    # policy), so RSC gets classes of its own.
    def fleet():
        (h0, hot), (h1, _), (h2, warm), (h3, _) = [make_host(i, 1.0, SPECS) for i in range(4)]
        warm.utilization = 0.9
        return [(h0, hot), (h1, hot), (h2, warm), (h3, hot)], hot, warm

    pairs, hot, warm = fleet()
    offered_to, real = [], policies.SELECTORS["LUCF"]
    monkeypatch.setitem(policies.SELECTORS, "LUCF",
                        lambda items, *args: offered_to.append(items) or real(items, *args))
    decided = step(pairs, "LUCF")
    picked = moves(decided)
    assert list(picked) == ["h00", "h01", "h02", "h03"]
    assert picked["h00"] is picked["h01"] is picked["h03"] is not picked["h02"]
    assert shed_ids(decided)["h03"] == ["ads", "rec"]
    assert len(offered_to) == 2 and offered_to[0] is hot.offer and offered_to[1] is warm.offer
    again = moves(step(pairs, "LUCF"))
    assert again == picked and again["h00"] is picked["h00"] and len(offered_to) == 2
    diluted = with_calm(pairs, 1600)  # a target that rec alone, or rec and ads, covers
    step(diluted, "LUCF")  # a new dimmer value: each class picks again
    assert len(offered_to) == 4
    pairs, hot, warm = fleet()
    diluted = with_calm(pairs, 1600)
    rng, draws = random.Random(5), random.Random(5)
    decided = step(pairs, "RSC", rng)
    assert list(moves(decided)) == ["h00", "h01", "h02", "h03"]
    target = {id(hot): expected_reduction(1.0, hot.power_w, 1.0, PROFILE),
              id(warm): expected_reduction(0.9, warm.power_w, 1.0, PROFILE)}
    for i, (host, state) in enumerate(pairs):
        assert shed_ids(decided)[host_id(i)] == spec_ids(
            host, select_rsc(offered(host, state), target[id(state)], draws))
    assert rng.getstate() == draws.getstate()
    hot_masks = [mask for _ in range(10) for (_, state), (*_, mask)
                 in zip(diluted, masks_of(*step(diluted, "RSC", rng))) if state is hot]
    assert len(set(hot_masks)) > 1
    assert len({id(mask) for mask in hot_masks}) == len(set(hot_masks))


@pytest.mark.parametrize("policy", ["LUCF", "MNCF", "RSC"])
def test_pieces_of_several_hosts_decide_as_hosts_alone(policy):
    # The engine hands brownout_step runs of consecutive hosts in one class;
    # the masks, the order of RSC's draws and the restores are those of the
    # same hosts handed over one by one.
    (h0, hot), (h1, _), (h2, warm), (h3, _) = [make_host(i, 1.0, SPECS) for i in range(4)]
    warm.utilization = 0.9
    pairs = [(h0, hot), (h1, hot), (h2, warm), (h3, hot)]
    pieces = [(run_of(h0, 2), hot), (h2, warm), (h3, hot)]
    alone, runs = random.Random(9), random.Random(9)
    in_runs = masks_of(pieces, brownout_step(pieces, config(policy), runs))
    assert [mask for *_, mask in in_runs] == [mask for *_, mask in masks_of(*step(
        pairs, policy, alone))]
    assert runs.getstate() == alone.getstate()
    calm = [make_host(i, 0.5, SPECS, deactivate=("rec",)) for i in range(4)]
    pieces = [(run_of(calm[0][0], 3), calm[0][1]), calm[3]]
    assert ([mask for *_, mask in masks_of(pieces, brownout_step(pieces, config(policy)))]
            == [mask for *_, mask in masks_of(*step(calm, policy))])


def test_a_kept_offer_gives_each_pick_its_own_mask():
    # The class keeps its offer, built once; a later target from the same
    # offer still gets its own mask, the one a fresh class would give.
    specs = {s.id: s for s in [
        ContainerSpec(id="web", service="s", weight=0.2),
        ContainerSpec(id="rec", service="s", weight=0.25, optional=True, connection_tag="r"),
        ContainerSpec(id="cache", service="s", weight=0.15, optional=True, connection_tag="r"),
        ContainerSpec(id="ads", service="s", weight=0.2, optional=True),
        ContainerSpec(id="extra", service="s", weight=0.2, optional=True),
    ]}
    host, kept = make_host(0, 1.0, specs)
    masks, offers = [], set()
    for fleet in (100, 1, 100, 1):  # the dimmer reads 0.1, then 1
        segments = step(with_calm([(host, kept)], fleet), "LUCF")[1]
        fresh = HostClassStub(**{**vars(kept), "offer": None, "decided": {}})
        assert segments == step(with_calm([(host, fresh)], fleet), "LUCF")[1]
        masks.append(segments[0][0][1])
        offers.add(id(kept.offer))
    assert masks[0] == masks[2] != masks[1] == masks[3]
    assert masks[0] is masks[2], "the class must keep the mask it picked at a dimmer value"
    assert len(offers) == 1, "the class must keep the offer it built first"


def class_items(containers, mask, demand):
    """The items a class offered before layouts: built from its own stack,
    mask and demand."""
    return [I(j, min(demand * spec.weight, 1.0), spec.connection_tag)
            for j, (spec, on) in enumerate(zip(containers, mask)) if on and spec.optional]


def class_restore_mask(containers, mask, utilization, demand, u_t):
    """`restore_mask` as each class derived it before layouts: its off
    containers grouped afresh, by negated weight, on every call."""
    units = group_units([(j, -spec.weight, spec.connection_tag)
                         for j, (spec, on) in enumerate(zip(containers, mask)) if not on])
    u, back = utilization, set()
    for unit in units:
        delta = demand * -unit.utilization
        if not policies.over_threshold(u + delta, u_t):
            back.update(unit.ids)
            u += delta
    return tuple([on or j in back for j, on in enumerate(mask)]) if back else mask


def class_shed(mask, off):
    """A shed mask as each class made it before layouts."""
    off = set(off)
    return tuple([on and j not in off for j, on in enumerate(mask)]) if off else mask


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_layout_decides_as_each_class_did_alone(data):
    # For random stacks (1-6 optional containers among 1-2 mandatory ones),
    # masks and loads, the layout-built offer, restore mask and shed masks
    # equal a class's own derivation, float for float and object for object
    # where the mask is kept.
    n = data.draw(st.integers(1, 6))
    weight = st.one_of(st.integers(1, 40).map(lambda k: k / 40), st.floats(1e-3, 0.5))
    optional = [ContainerSpec(id=f"o{i}", service="s", weight=data.draw(weight), optional=True,
                              connection_tag=data.draw(st.sampled_from([None, "a", "b"])))
                for i in range(n)]
    mandatory = [ContainerSpec(id=f"m{i}", service="s", weight=data.draw(weight))
                 for i in range(data.draw(st.integers(1, 2)))]
    containers = tuple(data.draw(st.permutations(optional + mandatory)))
    mask = tuple(not spec.optional or data.draw(st.booleans()) for spec in containers)
    demand = data.draw(st.one_of(st.floats(0.0, 4.0), st.integers(0, 100).map(lambda k: k / 25)))
    layout = Layout(containers, mask)
    weights = [spec.weight for spec in containers]
    hi, lo = layout.halves  # exact halves of the active share
    assert hi + lo == sum([w for w, on in zip(weights, mask) if on]) / sum(weights)
    assert layout.deactivated == mask.count(False)
    items = class_items(containers, mask, demand)
    offer = Offer(layout, demand)
    assert list(offer) == items and offer.units == tuple(group_units(items))
    u_t = data.draw(st.floats(0.5, 1.0))
    # anywhere, or where taking back some of the off containers lands on u_t
    off_weights = [spec.weight for spec, on in zip(containers, mask) if not on]
    utilization = data.draw(st.one_of(st.floats(0.0, 1.0), st.lists(
        st.sampled_from(off_weights or [0.0]), max_size=3).map(lambda ws: u_t - demand * sum(ws))))
    back = restore_mask(layout, utilization, demand, u_t)
    assert back == class_restore_mask(containers, mask, utilization, demand, u_t)
    assert back != mask or back is mask
    for _ in range(3):
        off = tuple(sorted(data.draw(st.sets(st.sampled_from([it.id for it in items]))
                                     if items else st.just(set()))))
        shed = layout.shed(off)
        assert shed == class_shed(mask, off) and layout.shed(off) is shed is layout.sheds[off]


def test_restore_mask_returns_the_host_mask_itself_when_nothing_comes_back():
    # rec (0.3) would lift the host past u_t 0.8, ads (0.1) fits; a host
    # that takes nothing back keeps its own mask object, so the engine can
    # see that its piece stays whole
    host, cls = make_host(0, 0.6, SPECS, deactivate=("rec", "ads"))
    assert restore_mask(cls.layout, 0.6, 1.0, 0.8) == (True, False, True)
    assert restore_mask(cls.layout, 0.75, 1.0, 0.8) is host.active
    full, cls = make_host(1, 0.6, SPECS)
    assert restore_mask(cls.layout, 0.6, 1.0, 0.8) is full.active


def test_restore_mask_is_the_layout_mask_exactly_when_no_off_unit_fits():
    # the engine skips the controller while every class's restore mask `is`
    # its layout's mask, so a restore that brings nothing back must return
    # that very object, and one that brings a unit back a new tuple
    specs = tuple(SPECS.values())  # web 0.6, rec 0.3, ads 0.1
    for mask in ((True, True, True), (True, False, False)):
        layout = Layout(specs, mask)
        assert restore_mask(layout, 0.75, 1.0, 0.8) is layout.mask  # ads would pass u_t
    layout = Layout(specs, (True, False, False))
    back = restore_mask(layout, 0.6, 1.0, 0.8)
    assert back == (True, False, True) and back is not layout.mask


def test_the_kept_restore_order_belongs_to_the_placement_not_its_stack_index():
    # Each run numbers its placements from 0, so two runs' stack 0 may hold
    # different specs under one mask; each takes back what its own weights
    # allow, in either order of first use.
    a = tuple(SPECS.values())  # web 0.6, rec 0.3, ads 0.1
    b = (a[0], dataclasses.replace(a[1], weight=0.1), dataclasses.replace(a[2], weight=0.3))
    for containers, back in ((a, (True, False, True)), (b, (True, True, False)),
                             (a, (True, False, True))):
        assert restore_mask(Layout(containers, (True, False, False)), 0.6, 1.0, 0.8) == back


def test_ties_break_on_stack_position():
    # zeta and alpha weigh the same and either meets the target alone: the
    # one placed first is shed, whatever the ids' alphabetical order
    specs = {s.id: s for s in [
        ContainerSpec(id="web", service="s", weight=0.1),
        ContainerSpec(id="zeta", service="s", weight=0.45, optional=True),
        ContainerSpec(id="alpha", service="s", weight=0.45, optional=True),
    ]}
    host, state = make_host(0, 1.0, specs)
    target = expected_reduction(1.0, state.power_w, math.sqrt(1 / 400), PROFILE)
    assert 0 < target <= 0.45
    assert shed_ids(step(with_calm([(host, state)], 400), "LUCF")) == {"h00": ["zeta"]}
