import dataclasses
import gc
import math
import random
import tracemalloc
from collections import Counter
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from brownsim import engine, policies
from brownsim.policies import FEAS_EPS
from brownsim.engine import (
    ConfigError,
    Simulation,
    derive_utilization,
    synthesize_response,
)
from brownsim.model import (
    POLICY_NAMES,
    ContainerSpec,
    HostMode,
    HostState,
    IntervalRecord,
    PolicyConfig,
    SimConfig,
    exact_sum,
    host_id,
    load_config,
    place_replicas,
    with_values,
)
from brownsim.workload import load_trace
from builders import (flat_trace, hosts_of, response_groups, result_view, same_records, shop_cfg,
                      spike_trace)
import reference_engine
from reference_engine import route_demand
from test_golden import DENSE_STACK

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
DIURNAL = load_trace(str(DATA / "diurnal_day.csv"), 1.0, 60.0)


def class_of(sim):
    """Host id -> the class it ended the last interval in, from the pieces of
    that interval's record."""
    record = sim.records[-1]
    return dict(zip(map(host_id, count()),
                    chain.from_iterable(repeat(c, n) for c, n in record.pieces)))


# ---------------------------------------------------------------------------
# routing


def test_route_even_split_with_remainder():
    alloc = route_demand(10, ["h00", "h01", "h02"])
    assert [alloc[h] for h in ("h00", "h01", "h02")] == [4, 3, 3]


def test_route_zero_requests():
    assert route_demand(0, ["h00", "h01"]) == {"h00": 0, "h01": 0}


def test_route_one_each():
    alloc = route_demand(7, [f"h{i:02d}" for i in range(7)])
    assert all(v == 1 for v in alloc.values())


def test_route_conserves_requests():
    rng = random.Random(23)
    for _ in range(300):
        hosts = [f"h{i:02d}" for i in range(rng.randint(1, 12))]
        requests = rng.randint(0, 1000)
        alloc = route_demand(requests, hosts)
        assert sum(alloc.values()) == requests


def test_route_no_hosts():
    assert route_demand(50, []) == {}


def test_route_remainder_follows_the_order_given():
    # past h99 the ids no longer sort in fleet order: h100 sorts before h11
    alloc = route_demand(120 * 3 + 12, [host_id(i) for i in range(120)])
    assert [hid for hid, n in alloc.items() if n == 4] == [host_id(i) for i in range(12)]


def test_a_fleet_past_h99_keeps_index_order():
    sim = Simulation(shop_cfg(policy="AUTOS", hosts=120, pct=0.0), flat_trace([1212, 1212]))
    fleet = [host_id(i) for i in range(120)]
    assert [hid for hid, _ in hosts_of(sim)] == fleet
    # 1212 = 120 x 10 + 12: the remainder goes to h00-h11, not to h100
    record = sim.step(0, 1212)
    assert [hid for hid, *_ in record.per_host] == fleet
    assert [class_of(sim)[hid].group[1] for hid in ("h11", "h100")] == [11, 10]
    # the scaler keeps ceil(1212 / 25) = 49 hosts and sleeps from h119 down
    sim.step(1, 1212)
    assert [hid for hid, h in hosts_of(sim) if h.mode is HostMode.ACTIVE] == fleet[:49]


def test_per_host_otr_follows_host_order_past_h99():
    result = Simulation(shop_cfg(policy="LUCF", hosts=120, pct=0.0), flat_trace([6000] * 3)).run()
    # the view expands the runs in host order
    assert list(result.per_host_otr) == [host_id(i) for i in range(120)]
    assert list(result.per_host_otr.values()) == [r for r, n in result.otr_runs for _ in range(n)]
    assert 0 < result.otr_mean, "some hosts must be overloaded"


@pytest.mark.parametrize("stagger", [0, 9973])
def test_a_100000_host_fleet_is_built_from_its_stretches(stagger):
    # the validated bound; stagger 0 puts one of each spec on every host, and
    # otherwise spec i places 100,000 - (i + 1) x stagger replicas, one cut each
    cfg = dataclasses.replace(SAMPLE_CFG, host_count=100_000, services=[
        dataclasses.replace(s, replicas=100_000 - (i + 1) * stagger)
        for i, s in enumerate(SAMPLE_CFG.services)])
    stretches = place_replicas(cfg)
    assert len(stretches) == (len(cfg.services) + 1 if stagger else 1)
    sim = Simulation(cfg, flat_trace([1]))
    assert [(run.count, run.stack, tuple(s.id for s in run.containers), run.mode, run.active)
            for run in sim.runs] == [(count, i, ids, HostMode.ACTIVE, (True,) * len(ids))
                                     for i, (count, ids) in enumerate(stretches)]
    result = sim.run()
    assert sum([n for _, n in result.otr_runs]) == 100_000
    assert list(result.per_host_otr) == [f"h{i:02d}" for i in range(100_000)]


# ---------------------------------------------------------------------------
# utilization derivation


def derive_host(deactivate=()):
    specs = [
        ContainerSpec(id="m", service="s", weight=0.6),
        ContainerSpec(id="o1", service="s", weight=0.2, optional=True),
        ContainerSpec(id="o2", service="s", weight=0.2, optional=True),
    ]
    return HostState(1, mode=HostMode.ACTIVE,
                     containers=tuple(specs),
                     active=tuple(s.id not in deactivate for s in specs))


def test_derive_full_stack():
    # demand 0.8 (20 requests at n_o 25) over weights 0.6, 0.2 and 0.2
    assert derive_utilization(derive_host(), 0.8) == pytest.approx(0.8)


def test_derive_with_deactivated_optionals():
    host = derive_host(deactivate=("o1", "o2"))
    assert derive_utilization(host, 0.8) == pytest.approx(0.48), "deactivated containers do no work"
    host = derive_host(deactivate=("o1",))
    assert derive_utilization(host, 0.8) == 0.8 * 0.6 + 0.8 * 0.2, "the kept ones in stack order"


def test_derive_clamps_overload():
    # the load stays raw; a class clamps its utilization at 1, and its offer
    # caps each container at 1
    assert derive_utilization(derive_host(), 1.52) == pytest.approx(1.52)
    cfg = SimConfig(policy_name="LUCF", host_count=1, services=list(derive_host().containers),
                    policy=PolicyConfig(capacity_n_o=25.0), trace_path="unused.csv")
    sim = Simulation(cfg, flat_trace([150]))
    sim.step(0, 150)  # demand 6
    cls = next(c for c in sim.classes.values() if c.offer is not None)
    assert (cls.demand, cls.utilization) == (6.0, 1.0)
    assert [item.utilization for item in cls.offer] == [1.0, 1.0]


def test_derive_inactive_host_is_idle():
    host = derive_host()
    host.mode = HostMode.SLEEP
    assert derive_utilization(host, 0.8) == 0.0


# ---------------------------------------------------------------------------
# response surrogate


def test_synthesize_unloaded_host():
    assert synthesize_response(0.0, 5, 100.0) == (100.0, 5, 0)


def test_synthesize_half_loaded_host():
    response_ms, served, _ = synthesize_response(0.5, 5, 100.0)
    assert response_ms == 200.0 and served == 5


def test_synthesize_saturation_errors():
    _, served, errors = synthesize_response(1.25, 100, 100.0)
    assert errors == 20
    assert served == 80


def test_synthesize_zero_requests():
    _, served, errors = synthesize_response(0.9, 0, 100.0)
    assert (served, errors) == (0, 0)


def test_synthesize_conservation_property():
    rng = random.Random(29)
    for _ in range(300):
        load = rng.uniform(0.0, 3.0)
        requests = rng.randint(0, 200)
        response_ms, served, errors = synthesize_response(load, requests, 100.0)
        assert served + errors == requests
        assert 0 <= errors <= requests
        assert 100.0 <= response_ms <= 100.0 / (1 - 0.99)


@pytest.mark.parametrize("policy", ["LUCF", "AUTOS"])
def test_aggregate_response_keeps_the_jittered_model_within_five_percent(policy):
    # The earlier model drew every served request as value * (1 + U(-0.05, 0.05))
    # around its group's value; redraw it from the groups and compare.
    cfg = dataclasses.replace(load_config(str(ROOT / "configs" / "sample.json")),
                              policy_name=policy)
    result = Simulation(cfg, load_trace(cfg.trace_path, cfg.trace_scale,
                                        cfg.interval_seconds)).run()
    rng = random.Random(11)
    drawn = sorted(value * (1.0 + rng.uniform(-0.05, 0.05))
                   for rec in result.interval_records
                   for value, count in response_groups(rec) for _ in range(count))
    k = cfg.policy.percentile_k
    assert len(drawn) == result.total_requests - result.total_errors
    old_mean, old_kth = sum(drawn) / len(drawn), drawn[math.ceil(k / 100 * len(drawn)) - 1]
    assert 0.95 * result.avg_response_ms <= old_mean <= 1.05 * result.avg_response_ms
    assert 0.95 * result.p_kth_response_ms <= old_kth <= 1.05 * result.p_kth_response_ms


def test_peak_memory_is_flat_in_trace_scale():
    peaks = {}
    for scale in (1.0, 4.0):
        sim = Simulation(shop_cfg(hosts=10), load_trace(str(DATA / "diurnal_day.csv"), scale, 60.0))
        tracemalloc.start()
        try:
            sim.run()
            peaks[scale] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4.0] <= 1.2 * peaks[1.0], peaks


def test_peak_memory_follows_runs_of_hosts_not_hosts():
    # The fleet is runs of hosts in one state and a record keeps (class,
    # count) pieces, not one entry per host, so ten times the fleet on ten
    # times the trace (every host loaded) must not take ten times the memory,
    # and the runs stay a handful after every step at either size
    sample, peaks, runs = load_config(str(ROOT / "configs" / "sample.json")), {}, {}
    for hosts, scale in ((100, 10.0), (1000, 100.0)):
        cfg = dataclasses.replace(sample, policy_name="LUCF", host_count=hosts, services=[
            dataclasses.replace(s, replicas=hosts) for s in sample.services])
        sim = Simulation(cfg, load_trace(str(DATA / "diurnal_day.csv"), scale, 60.0))
        tracemalloc.start()
        try:
            runs[hosts] = max(len(sim.runs) for t, rate in enumerate(sim.trace.rates)
                              if sim.step(t, rate))
            sim._result()
            peaks[hosts] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] <= 2 * peaks[100], peaks
    assert max(runs.values()) <= 6, runs


# ---------------------------------------------------------------------------
# simulation behavior


def test_invalid_config_raises_with_violations():
    cfg = shop_cfg(policy="BOGUS")
    with pytest.raises(ConfigError) as err:
        Simulation(cfg, flat_trace([10]))
    assert err.value.violations


def test_npa_keeps_the_whole_fleet_active():
    result = Simulation(shop_cfg(policy="NPA", hosts=6, pct=0.0), flat_trace([50] * 30)).run()
    assert result.active_host_series == [6] * 30


def test_autoscaler_drops_to_min_active_on_zero_rate():
    result = Simulation(shop_cfg(policy="AUTOS", pct=0.0), flat_trace([0] * 10)).run()
    assert result.active_host_series[0] == 10, "full fleet carries the warm-up interval"
    assert result.active_host_series[1:] == [1] * 9


def test_min_active_hosts_respected():
    result = Simulation(shop_cfg(policy="AUTOS", pct=0.0, min_active_hosts=3),
                        flat_trace([0] * 10)).run()
    assert all(n >= 3 for n in result.active_host_series)


def test_interval_conservation_and_error_bound():
    result = Simulation(shop_cfg(), DIURNAL).run()
    for rec in result.interval_records:
        assert sum(served for _, served in response_groups(rec)) + rec.errors == rec.requests
        assert rec.errors <= rec.requests
        assert all(served > 0 for _, served in response_groups(rec))


def test_overloaded_flag_matches_threshold():
    sim = Simulation(shop_cfg(ut=0.7), DIURNAL)
    flagged = 0
    for t, rate in enumerate(DIURNAL.rates):
        for hid, _, overloaded in sim.step(t, rate).per_host:
            assert overloaded == (class_of(sim)[hid].utilization > 0.7)
            flagged += overloaded
    assert flagged > 0


def test_brownout_is_offered_exactly_the_overloaded_serving_hosts(monkeypatch):
    # the overload test lives in the host classes; brownout_step trusts it
    sim = Simulation(shop_cfg(ut=0.7), DIURNAL)
    offered, real = [], engine.brownout_step

    def spy(fleet, *args):
        assert [id(run) for run, _ in fleet] == [id(run) for run in sim.runs], (
            "the fleet, in host order")
        hosts = hosts_of(sim)
        # each piece's class is the state of each of its hosts, routed host by host
        alloc = route_demand(sim.trace.rates[len(sim.records)],
                             [hid for hid, h in hosts if h.mode is HostMode.ACTIVE])
        state_of = dict(zip(map(host_id, count()), chain.from_iterable(
            repeat(state, run.count) for run, state in fleet)))
        assert all(state_of[hid] is sim.classes[
            (h.stack, h.mode, h.active if h.mode is HostMode.ACTIVE else (), alloc.get(hid, 0))]
            for hid, h in hosts)
        want = [hid for hid, h in hosts
                if h.mode is HostMode.ACTIVE and state_of[hid].utilization > 0.7]
        assert [hid for hid, _ in hosts if state_of[hid].overloaded] == want
        offered.append(len(want))
        return real(fleet, *args)

    monkeypatch.setattr(engine, "brownout_step", spy)
    sim.run()
    assert len(offered) == len(DIURNAL)
    assert 0 < sum(n > 0 for n in offered) < len(offered), "calm and overloaded intervals"
    assert any(0 < n < sim.cfg.host_count for n in offered), (
        "some intervals overload part of the fleet")


def test_determinism_same_seed_same_run():
    a = Simulation(shop_cfg(seed=7), DIURNAL).run()
    b = Simulation(shop_cfg(seed=7), DIURNAL).run()
    assert a.energy_kwh == b.energy_kwh
    assert a.active_host_series == b.active_host_series
    assert a.slavr == b.slavr
    for ra, rb in zip(a.interval_records, b.interval_records):
        assert response_groups(ra) == response_groups(rb)
        assert ra.per_host == rb.per_host


def test_avg_below_p95_on_standard_runs():
    for policy in ("AUTOS", "LUCF"):
        result = Simulation(shop_cfg(policy=policy), DIURNAL).run()
        assert result.avg_response_ms <= result.p_kth_response_ms, policy


def test_state_machine_legality():
    legal = {
        (HostMode.ACTIVE, HostMode.SLEEP),
        (HostMode.SLEEP, HostMode.BOOTING),
        (HostMode.SLEEP, HostMode.ACTIVE),  # boot completed within the interval
        (HostMode.BOOTING, HostMode.ACTIVE),
    }
    cfg = shop_cfg()
    trace = DIURNAL
    sim = Simulation(cfg, trace)
    modes = {hid: h.mode for hid, h in hosts_of(sim)}
    for t in range(len(trace)):
        sim.step(t, trace.rates[t])
        for hid, h in hosts_of(sim):
            pair = (modes[hid], h.mode)
            assert pair[0] == pair[1] or pair in legal, f"illegal transition {pair}"
            modes[hid] = h.mode


def test_host_invariants_hold_throughout():
    cfg = shop_cfg()
    trace = spike_trace()
    sim = Simulation(cfg, trace)
    for t in range(len(trace)):
        sim.step(t, trace.rates[t])
        for hid, h in hosts_of(sim):
            cls = class_of(sim)[hid]
            assert len(h.containers) == len(h.active)
            assert type(h.active) is tuple and all(type(on) is bool for on in h.active)
            if h.mode is not HostMode.ACTIVE:
                assert cls.utilization == 0.0
            if h.mode is HostMode.BOOTING:
                assert h.boot_remaining > 0
            for spec, on in zip(h.containers, h.active):
                assert on or spec.optional, "mandatory container deactivated"
            if h.mode is HostMode.ACTIVE:  # a container that is off does no work
                working = sum(spec.weight for spec, on in zip(h.containers, h.active) if on)
                assert cls.utilization == pytest.approx(min(cls.demand * working, 1.0))


def test_boot_delay_two_serves_after_booting():
    cfg = shop_cfg(policy="AUTOS", hosts=3, pct=0.0, boot_delay=2)
    trace = flat_trace([10, 10, 10, 200, 200, 200, 200])
    sim = Simulation(cfg, trace)
    records = []
    for t, rate in enumerate(trace.rates):
        records.append(sim.step(t, rate))
        if t == 4:
            assert [class_of(sim)[hid].utilization for hid in ("h01", "h02")] == [0.0, 0.0]
    assert records[1].active_hosts == 1, "scaler sleeps the idle hosts"
    assert records[4].active_hosts == 1, "woken hosts are still booting"
    booting_entries = [p for p in records[4].per_host if p[0] in ("h01", "h02")]
    for _, power, _ in booting_entries:
        assert power == pytest.approx(201.0), "booting host draws idle power"
    assert records[5].active_hosts == 3, "boot completes after two intervals"


def test_boot_delay_one_serves_immediately():
    cfg = shop_cfg(policy="AUTOS", hosts=3, pct=0.0, boot_delay=1)
    trace = flat_trace([10, 10, 10, 200, 200, 200, 200])
    sim = Simulation(cfg, trace)
    records = [sim.step(t, trace.rates[t]) for t in range(len(trace))]
    assert records[4].active_hosts == 3


def test_spike_sheds_then_restores():
    result = Simulation(shop_cfg(), spike_trace()).run()
    deact = [r.deactivated_containers for r in result.interval_records]
    overload = [r.overloaded_hosts for r in result.interval_records]
    spike = range(80, 120)
    assert max(deact[t] for t in spike) > 0, "spike must trigger deactivations"
    calm_after = next(t for t in range(120, len(deact)) if overload[t] == 0)
    assert deact[calm_after] == 0, "first calm evaluation restores everything"
    assert all(d == 0 for d in deact[calm_after:])


@pytest.mark.parametrize("rate, states", [(200, 1), (210, 2)])
def test_hosts_in_one_state_derive_it_once(monkeypatch, rate, states):
    # 20 identical hosts split 200 requests evenly (one state in every
    # interval); 210 gives h00-h09 one request more (two states).  A state
    # is derived once per run, not once per interval.
    calls, real = [], engine.derive_utilization

    def spy(host, *args):
        calls.append(host)
        return real(host, *args)

    monkeypatch.setattr(engine, "derive_utilization", spy)
    result = Simulation(shop_cfg(policy="NPA", hosts=20), flat_trace([rate] * 10)).run()
    assert len(calls) == states
    for rec in result.interval_records:
        assert len({p for _, p, _ in rec.per_host}) == states
        assert sum(served for _, served in response_groups(rec)) == rate
        assert len(response_groups(rec)) == 20


SAMPLE_CFG = load_config(str(ROOT / "configs" / "sample.json"))
# the golden tests' dense stack: 2 mandatory containers and 15 optional units
DENSE_SERVICES = [ContainerSpec(**spec) for spec in DENSE_STACK]


def sample_day_cfg(policy, ut):
    return dataclasses.replace(
        with_values(SAMPLE_CFG, {"policy.overloaded_threshold_u_t": ut}), policy_name=policy)


def dense_cfg(policy):
    return dataclasses.replace(SAMPLE_CFG, services=DENSE_SERVICES, policy_name=policy)


# Ten hosts that swing between saturation and calm.  A saturated host's
# full offer sums above 1, so no target takes all of it and the three
# selectors pick differently; the only fixed day where they do.  (A host
# left with one unit to offer sheds it whatever RSC draws.)
PARTIAL_DAY = flat_trace(([700] * 5 + [150] * 5) * 4)
# The same hosts loaded just past u_t, where RSC's every draw order sheds
# the whole offer, then saturated, where its draws decide, then calm.
MIXED_DAY = flat_trace(([220] * 5 + [700] * 5 + [150] * 5) * 2)
BIG_DAY = load_trace(str(DATA / "diurnal_day.csv"), 12.0, 60.0)  # the day for 120 hosts


@pytest.mark.parametrize("cfg, trace", [
    pytest.param(sample_day_cfg(p, ut), DIURNAL, id=f"{p}-{ut}")
    for p in POLICY_NAMES for ut in (0.7, 0.8)
] + [
    pytest.param(dense_cfg(p), DIURNAL, id=f"{p}-dense") for p in ("LUCF", "MNCF", "RSC")
] + [
    pytest.param(shop_cfg(policy=p, pct=0.5), PARTIAL_DAY, id=f"{p}-partial")
    for p in ("LUCF", "MNCF", "RSC")
] + [
    pytest.param(shop_cfg(policy="RSC", pct=0.5), MIXED_DAY, id="RSC-mixed")
] + [
    pytest.param(shop_cfg(policy=p, hosts=120), BIG_DAY, id=f"{p}-120-hosts")
    for p in ("LUCF", "RSC")
])
def test_run_wide_classes_and_shared_picks_equal_a_per_interval_per_host_run(monkeypatch, cfg,
                                                                            trace):
    # Run-wide classes, kept offers, shared LUCF/MNCF picks and per-class
    # restores must give what the per-host reference derives afresh, host by
    # host, every interval.  A step finds each run's class with one lookup on
    # its state, after routing and after a brownout that moved its mask or
    # split it, and derives the class only on a miss: once per state and run.
    derived, real = [], Simulation._class

    def spy(self, host, key):
        derived.append(key)
        return real(self, host, key)

    monkeypatch.setattr(Simulation, "_class", spy)
    kept = Simulation(cfg, trace)
    result = kept.run()
    assert len(derived) == len(set(derived)) == len(kept.classes)
    assert len(kept.classes) < sum(r.active_hosts > 0 for r in result.interval_records), (
        "the run must revisit states")
    assert result_view(result) == result_view(reference_engine.run(cfg, trace))


def test_the_mixed_day_forces_some_rsc_picks_and_draws_others(monkeypatch):
    # The reference comparison on the mixed day checks the rng stream that
    # forced picks no longer advance, so both kinds of pick must occur there,
    # forced ones of more than one unit among them.
    asked, real = [], policies.takes_every_unit
    monkeypatch.setattr(policies, "takes_every_unit",
                        lambda units, target: asked.append((len(units) > 1, real(units, target)))
                        or asked[-1][1])
    Simulation(shop_cfg(policy="RSC", pct=0.5), MIXED_DAY).run()
    assert {(True, True), (True, False)} <= set(asked)


def test_the_partial_day_tells_the_selectors_apart():
    deactivations = {sum(r.deactivated_containers for r in Simulation(
        shop_cfg(policy=p, pct=0.5), PARTIAL_DAY).run().interval_records)
        for p in ("LUCF", "MNCF", "RSC")}
    assert len(deactivations) == 3, deactivations


MANDATORY_ONLY = [dataclasses.replace(s, optional=False, connection_tag=None)
                  for s in SAMPLE_CFG.services]


def sample_day_records(policy, ut, pct=0.0, services=None):
    cfg = with_values(SAMPLE_CFG, {"policy.overloaded_threshold_u_t": ut,
                                   "policy.optional_util_pct": pct})
    cfg = dataclasses.replace(cfg, policy_name=policy, services=services or cfg.services)
    return Simulation(cfg, DIURNAL).run().interval_records


@pytest.mark.parametrize("policy, ut, pct, services, same", [
    pytest.param(p, 1.0, pct, None, True, id=f"{p}-1.0-{pct}")
    for p in ("LUCF", "MNCF", "RSC") for pct in (0.0, 0.4)
] + [
    pytest.param(p, ut, 0.0, MANDATORY_ONLY, True, id=f"{p}-{ut}-mandatory-only")
    for p in ("LUCF", "MNCF", "RSC") for ut in (0.7, 0.8)
] + [pytest.param("LUCF", 0.8, 0.0, None, False, id="LUCF-0.8-control")])
def test_brownout_with_nothing_to_do_equals_autoscaling(policy, ut, pct, services, same):
    # No host can pass u_t 1.0 (utilization is clamped to 1), and a
    # mandatory-only stack offers nothing to shed, so the controller must
    # never move a host and the day must be AUTOS's, record for record.
    # The control, LUCF at 0.8 on the sample stack, sheds and differs.
    records = sample_day_records(policy, ut, pct, services)
    assert same_records(records, sample_day_records("AUTOS", ut, pct, services)) is same


def _spy_selections(monkeypatch, policy):
    """Per brownout evaluation, the overloaded (run, class) pairs, one per
    host, and the class whose offer each selector call is handed."""
    evaluations, real_step, real_select = [], engine.brownout_step, policies.SELECTORS[policy]

    def step(fleet, *args):
        overloaded = [(run, c) for run, c in fleet if c.overloaded for _ in range(run.count)]
        evaluations.append((overloaded, []))
        return real_step(fleet, *args)

    def select(items, target, rng=None):
        overloaded, calls = evaluations[-1]
        calls.append(next(c for _, c in overloaded if c.offer is items))
        return real_select(items, target, rng)

    monkeypatch.setattr(engine, "brownout_step", step)
    monkeypatch.setitem(policies.SELECTORS, policy, select)
    return evaluations


@pytest.mark.parametrize("policy", ["LUCF", "MNCF"])
def test_lucf_and_mncf_pick_once_per_overloaded_class(monkeypatch, policy):
    # A class's pick is a function of the class and the dimmer value alone:
    # each (class, value) picks at the first evaluation that overloads the
    # class at that value, in first-member order, and never again that run.
    evaluations = _spy_selections(monkeypatch, policy)
    thetas, real_dimmer = [], policies.dimmer

    def dimmer(overloaded, fleet):
        thetas.append(real_dimmer(overloaded, fleet))
        return thetas[-1]

    monkeypatch.setattr(policies, "dimmer", dimmer)
    Simulation(dense_cfg(policy), DIURNAL).run()
    decided, shared, kept, values = set(), 0, 0, iter(thetas)
    for overloaded, calls in evaluations:
        classes = list(dict.fromkeys(cls for _, cls in overloaded))  # in first-member order
        theta = next(values) if overloaded else None
        assert calls == [cls for cls in classes if (cls, theta) not in decided]
        decided.update((cls, theta) for cls in classes)
        shared += len(overloaded) - len(classes)
        kept += len(classes) - len(calls)
    assert next(values, None) is None, "one dimmer value per evaluation that sheds"
    assert shared > 0, "some evaluations must find classes of several hosts"
    assert kept > 0, "some evaluations must reuse a pick made earlier in the run"


@pytest.mark.parametrize("policy, cfg, day", [
    pytest.param(p, dense_cfg(p), DIURNAL, id=p) for p in ("LUCF", "MNCF", "RSC")
] + [pytest.param("RSC", shop_cfg(policy="RSC", pct=0.5), PARTIAL_DAY, id="RSC-partial")])
def test_brownout_decides_once_per_class_and_dimmer_value(monkeypatch, policy, cfg, day):
    # Over one run, a target is computed once per (overloaded class with an
    # offer, dimmer value), and so is a LUCF or MNCF pick, or an RSC pick
    # that every draw order makes (all of the dense day's): one selector
    # call each, a forced RSC one leaving the rng where it was.  RSC draws
    # per host otherwise.  A mask is built once per distinct (layout,
    # positions picked): classes of one (stack, mask) share their masks.
    wanted, picks, forced, theta, masked = set(), set(), [], [None], []
    calls = {"reductions": 0, "sheds": 0, "draws": 0}
    real_step, real_select = engine.brownout_step, policies.SELECTORS[policy]
    real_reduction, real_shed = policies.expected_reduction, policies._shed

    def step(fleet, *args):
        if any(cls.overloaded for _, cls in fleet):
            theta[0] = policies.dimmer(sum([run.count for run, c in fleet if c.overloaded]),
                                       sum([run.count for run, _ in fleet]))
        segments = real_step(fleet, *args)
        wanted.update((cls, theta[0]) for _, cls in fleet if cls.overloaded and cls.offer)
        return segments

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    def select(items, target, rng=None):
        before = rng and rng.getstate()
        picked = real_select(items, target, rng)
        if policy == "RSC" and policies.takes_every_unit(items.units, target):
            assert rng.getstate() == before, "a forced pick draws nothing"
            forced.append((id(items), theta[0]))
        else:
            picks.add((id(items), tuple(picked)))
        calls["draws"] += 1
        masked.append((id(items), tuple(picked)))
        return picked

    monkeypatch.setattr(engine, "brownout_step", step)
    monkeypatch.setattr(policies, "expected_reduction", counted("reductions", real_reduction))
    monkeypatch.setattr(policies, "_shed", counted("sheds", real_shed))
    monkeypatch.setitem(policies.SELECTORS, policy, select)
    (sim := Simulation(cfg, day)).run()
    layout_of = {id(cls.offer): cls.layout for cls in sim.classes.values() if cls.offer is not None}
    assert calls["reductions"] == len(wanted) > 0
    assert len(set(forced)) == len(forced), "one selector call per forced (class, value)"
    assert calls["sheds"] == len({(layout_of[offer], off) for offer, off in masked})
    assert calls["sheds"] < calls["draws"], "classes of one layout must share masks"
    if policy != "RSC":
        assert calls["draws"] == len(wanted)
    elif day is DIURNAL:
        assert calls["draws"] == len(forced) == len(wanted)
    else:
        assert 0 < len(forced) < len(wanted) and len(picks) < calls["draws"] - len(forced)


def _rsc_draws(cls, theta, profile):
    """Whether an overloaded host of the class draws its RSC pick: the class
    offers units that not every draw order takes whole."""
    target = policies.expected_reduction(cls.utilization, cls.power_w, theta, profile)
    return bool(cls.offer) and not policies.takes_every_unit(cls.offer.units, target)


def test_rsc_draws_once_per_overloaded_host_in_host_order(monkeypatch):
    # each draw is over the offer of the host's class; on the partial day a
    # saturated host's offer covers its target before it runs out, but one
    # unit alone goes whatever the draw, so such a host draws nothing: its
    # class picks once per dimmer value for all its hosts
    evaluations = _spy_selections(monkeypatch, "RSC")
    sim = Simulation(cfg := shop_cfg(policy="RSC", pct=0.5), PARTIAL_DAY)
    sim.run()
    drawn = skipped = 0
    forced = set()  # the (class, dimmer value) pairs already picked whole
    for overloaded, calls in evaluations:
        theta = policies.dimmer(len(overloaded), cfg.host_count) if overloaded else None
        want = []
        for _, cls in overloaded:
            if _rsc_draws(cls, theta, sim.profile):
                want.append(cls)
            elif cls.offer and (cls, theta) not in forced:
                forced.add((cls, theta))
                want.append(cls)
        assert calls == want
        drawn += len(calls) > len(set(calls))
        skipped += len(calls) < len(overloaded)
    assert drawn > 0, "some evaluations must draw for several hosts of one class"
    assert skipped > 0, "some evaluations must skip a forced pick"


def test_forced_rsc_picks_leave_the_rng_and_the_runs_alone(monkeypatch):
    # Every RSC pick of the dense day takes the whole offer whatever the draw
    # order: the selector is called once per (class, dimmer value) and the
    # rng does not move, and each overloaded run takes one segment, one mask
    # for its whole length.
    runs, decided, selected = [], set(), []
    real_step, real_select = engine.brownout_step, policies.SELECTORS["RSC"]

    def step(fleet, cfg, rng):
        before = rng.getstate()
        segments = real_step(fleet, cfg, rng)
        assert rng.getstate() == before
        overloaded = sum([run.count for run, cls in fleet if cls.overloaded])
        for (run, cls), segs in zip(fleet, segments):
            if cls.overloaded and cls.offer:
                assert segs == [(run.count, segs[0][1])] and segs[0][1] != run.active
                decided.add((cls, policies.dimmer(overloaded, cfg.host_count)))
                runs.append(run.count)
        return segments

    def select(items, target, rng=None):
        before = rng.getstate()
        selected.append(items)
        picked = real_select(items, target, rng)
        assert rng.getstate() == before and len(picked) == len(items)
        return picked

    monkeypatch.setattr(engine, "brownout_step", step)
    monkeypatch.setitem(policies.SELECTORS, "RSC", select)
    Simulation(dense_cfg("RSC"), DIURNAL).run()
    assert max(runs) > 1, "some overloaded runs must hold several hosts"
    assert len(selected) == len(decided) < len(runs), "one call per (class, value), not per run"


@pytest.mark.parametrize("policy, cfg, day", [
    pytest.param("LUCF", dense_cfg("LUCF"), DIURNAL, id="LUCF"),
    pytest.param("RSC", shop_cfg(policy="RSC", pct=0.5), PARTIAL_DAY, id="RSC")])
def test_each_class_builds_one_offer_per_run(monkeypatch, policy, cfg, day):
    # An offer lasts the run: the items and their units are built once per
    # class that ever offers, however many evaluations and RSC draws use
    # them, and every selector call is handed a kept offer.  On the partial
    # day every offer goes to a selector; those of one unit once per dimmer
    # value, as every draw order takes them whole.
    offering, built, offered = set(), [], []
    real_step, real_select = engine.brownout_step, policies.SELECTORS[policy]

    class CountedOffer(policies.Offer):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def step(fleet, *args):
        offering.update(cls for _, cls in fleet if cls.overloaded)
        return real_step(fleet, *args)

    def select(items, target, rng=None):
        offered.append(items)
        return real_select(items, target, rng)

    monkeypatch.setattr(engine, "brownout_step", step)
    monkeypatch.setattr(policies, "Offer", CountedOffer)
    monkeypatch.setitem(policies.SELECTORS, policy, select)
    sim = Simulation(cfg, day)
    sim.run()
    kept = [cls.offer for cls in sim.classes.values() if cls.offer is not None]
    assert len(built) == len(kept) == len(offering)
    assert {id(offer) for offer in built} == {id(offer) for offer in kept}
    assert {id(items) for items in offered} == {id(offer) for offer in kept if offer}
    assert len(offered) > 2 * len(offering), "the run must reuse its offers"


@pytest.mark.parametrize("cfg, day", [
    pytest.param(dense_cfg(p), DIURNAL, id=f"{p}-dense") for p in ("LUCF", "MNCF", "RSC")
] + [pytest.param(sample_day_cfg(p, 0.7), DIURNAL, id=f"{p}-sample") for p in ("LUCF", "RSC")
     ] + [pytest.param(shop_cfg(policy="RSC", pct=0.5), PARTIAL_DAY, id="RSC-partial")])
def test_each_layout_is_built_once_per_stack_and_mask_and_sheds_once_per_pick(
        monkeypatch, cfg, day):
    # What a mask decides, whatever the load, is derived once per (stack,
    # mask) per run, and every class of that pair holds the same layout (a
    # class off the serving set, its run's full mask's).  A shed mask is
    # made once per (layout, positions picked), whichever class picks it.
    built, sheds, real_shed = [], [], policies._shed

    class CountedLayout(policies.Layout):
        __slots__ = ()

        def __init__(self, containers, mask):
            super().__init__(containers, mask)
            built.append(self)

    def shed(mask, off):
        sheds.append((mask, off))
        return real_shed(mask, off)

    monkeypatch.setattr(engine, "Layout", CountedLayout)
    monkeypatch.setattr(policies, "_shed", shed)
    sim = Simulation(cfg, day)
    sim.run()
    assert sorted(map(id, built)) == sorted(map(id, sim.layouts.values()))
    full = {run.stack: (True,) * len(run.containers) for run in sim.runs}
    for (stack, mode, mask, _), cls in sim.classes.items():
        layout = sim.layouts[stack, mask if mode is HostMode.ACTIVE else full[stack]]
        assert cls.layout is layout and layout.mask == (mask or full[stack])
    assert len(sim.layouts) < len(sim.classes), "classes of one (stack, mask) share a layout"
    stacks = {run.stack: [spec.weight for spec in run.containers] for run in sim.runs}
    for (stack, mask), layout in sim.layouts.items():
        hi, lo = layout.halves  # exact halves: they add back to the active share
        assert hi + lo == sum(compress(stacks[stack], mask)) / sum(stacks[stack])
    kept = [(layout, off) for layout in sim.layouts.values() for off in layout.sheds]
    assert len(sheds) == len(kept) > 0
    shedding = [cls for cls in sim.classes.values() if cls.offer]
    assert len({cls.layout for cls in shedding}) < len(shedding), "some classes share their masks"


def test_offers_die_with_their_run(monkeypatch):
    # Offers live on the run's host classes, not in a module-level memo: once
    # a run is dropped, none of the items it offered is left.
    class CountedItem(policies.OptionalItem):
        live = 0

        def __new__(cls, *args, **kwargs):
            CountedItem.live += 1
            return super().__new__(cls, *args, **kwargs)

        def __del__(self):
            CountedItem.live -= 1

    monkeypatch.setattr(policies, "OptionalItem", CountedItem)
    for policy in ("LUCF", "RSC"):
        sim = Simulation(dense_cfg(policy), DIURNAL)
        sim.run()
        gc.collect()
        kept = sum(len(cls.offer) for cls in sim.classes.values() if cls.offer is not None)
        assert CountedItem.live == kept > 0, "only the live run's offers may hold items"
    del sim
    gc.collect()
    assert CountedItem.live == 0


def test_partial_restore_takes_the_largest_units_that_fit():
    services = [
        ContainerSpec(id="web", service="shop", weight=0.4),
        ContainerSpec(id="p1", service="shop", weight=0.15, optional=True, connection_tag="pair"),
        ContainerSpec(id="p2", service="shop", weight=0.15, optional=True, connection_tag="pair"),
        ContainerSpec(id="big", service="shop", weight=0.2, optional=True),
        ContainerSpec(id="small", service="shop", weight=0.1, optional=True),
    ]
    cfg = SimConfig(policy_name="LUCF", host_count=1, services=services,
                    policy=PolicyConfig(overloaded_threshold_u_t=0.8, capacity_n_o=100.0),
                    trace_path="unused.csv")
    sim = Simulation(cfg, flat_trace([97]))
    [(hid, host)] = hosts_of(sim)
    host.active = tuple(spec.id == "web" for spec in host.containers)
    # demand 0.97 puts web alone at 0.388, under u_t, so the host restores:
    # the pair (0.3) first, to 0.679; "big" (0.2) would reach 0.873 and is
    # skipped; "small" (0.1) still fits, to 0.776.  Smallest first would
    # have taken "small" and "big" and left the pair out.
    record = sim.step(0, 97)
    [(hid, host)] = hosts_of(sim)
    assert {spec.id for spec, on in zip(host.containers, host.active) if on} == {
        "web", "p1", "p2", "small"}
    assert record.deactivated_containers == 1
    assert class_of(sim)[hid].utilization == pytest.approx(0.97 * 0.8)


def test_two_replicas_on_one_host_are_shed_and_restored_by_position():
    services = [
        ContainerSpec(id="web", service="shop", weight=0.6),
        ContainerSpec(id="ads", service="shop", weight=0.2, optional=True, replicas=2),
        ContainerSpec(id="rec", service="shop", weight=0.2, optional=True),
    ]
    cfg = SimConfig(policy_name="LUCF", host_count=1, services=services,
                    policy=PolicyConfig(overloaded_threshold_u_t=0.8, capacity_n_o=100.0),
                    trace_path="unused.csv")
    trace = flat_trace([90, 90, 40])
    sim = Simulation(cfg, trace)
    [(_, host)] = hosts_of(sim)
    # a container is its position in the stack, so the two ads are told apart
    assert [spec.id for spec in host.containers] == ["web", "ads", "ads", "rec"]
    # 90 overloads the full stack and the lone host's dimmer of 1 sheds every
    # optional container; at 90 again only the first ads fits back (ties go
    # by position); at 40 everything does
    masks = []
    for t, rate in enumerate(trace.rates):
        sim.step(t, rate)
        [(_, host)] = hosts_of(sim)
        masks.append(host.active)
    T, F = True, False
    assert masks == [(T, F, F, F), (T, T, F, F), (T, T, T, T)]


def _spy_restore_mask(monkeypatch):
    """Record (mask before, mask returned) for every `restore_mask` call."""
    asked, real = [], policies.restore_mask

    def spy(layout, *args):
        mask = real(layout, *args)
        asked.append((layout.mask, mask))
        return mask

    monkeypatch.setattr(policies, "restore_mask", spy)
    return asked


def test_restore_skips_a_host_whose_lightest_container_cannot_fit(monkeypatch):
    services = [
        ContainerSpec(id="web", service="shop", weight=0.5),
        ContainerSpec(id="ads", service="shop", weight=0.5, optional=True),
    ]
    cfg = SimConfig(policy_name="LUCF", host_count=1, services=services,
                    policy=PolicyConfig(overloaded_threshold_u_t=0.8, capacity_n_o=100.0),
                    trace_path="unused.csv")
    sim = Simulation(cfg, flat_trace([97]))
    [(_, host)] = hosts_of(sim)
    host.active = tuple(spec.id == "web" for spec in host.containers)
    asked = _spy_restore_mask(monkeypatch)
    # web alone is at 0.485, under u_t, so the host is in the restore path;
    # ads would lift it to 0.97, so nothing can come back: the class's one
    # `restore_mask` call returns the mask it was given
    record = sim.step(0, 97)
    assert asked == [((True, False), (True, False))]
    assert record.deactivated_containers == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restore_takes_back_what_fits_and_leaves_off_only_what_does_not(data):
    # one host: a mandatory container and 1-6 optional ones, weights in
    # twentieths, some optional ones off, at a rate that keeps it under u_t
    n = data.draw(st.integers(1, 6))
    weights = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    tags = data.draw(st.lists(st.sampled_from([None, "a", "b"]), min_size=n, max_size=n))
    off = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    ut_twentieths = data.draw(st.integers(10, 19))
    ut = ut_twentieths / 20
    services = [ContainerSpec(id="web", service="s", weight=(20 - sum(weights)) / 20)] + [
        ContainerSpec(id=f"o{i}", service="s", weight=w / 20, optional=True, connection_tag=tag)
        for i, (w, tag) in enumerate(zip(weights, tags))]
    before = (True,) + tuple(not o for o in off)
    on_twentieths = 20 - sum(w for w, o in zip(weights, off) if o)
    # load = rate/100 x on_twentieths/20, kept a whole 1/2000 under u_t
    rate = data.draw(st.integers(0, (100 * ut_twentieths - 1) // on_twentieths))
    cfg = SimConfig(policy_name="LUCF", host_count=1, services=services,
                    policy=PolicyConfig(overloaded_threshold_u_t=ut, capacity_n_o=100.0),
                    trace_path="unused.csv")
    sim = Simulation(cfg, flat_trace([rate]))
    [(_, host)] = hosts_of(sim)
    host.active = before
    sim.step(0, rate)
    [(hid, host)] = hosts_of(sim)
    assert all(now or not was for now, was in zip(host.active, before))
    assert all(on for spec, on in zip(host.containers, host.active) if not spec.optional)
    utilization = class_of(sim)[hid].utilization
    assert utilization <= ut + 1e-12
    assert not class_of(sim)[hid].overloaded, "restored into an overloaded class"
    for unit in policies.group_units([
            policies.OptionalItem(j, spec.weight, spec.connection_tag)
            for j, (spec, on) in enumerate(zip(host.containers, host.active)) if not on]):
        assert utilization + rate / 100 * unit.utilization > ut + 1e-12, unit


def checked_run(sim):
    """Step sim through its trace and return its result, checking after each
    interval that no host has a mandatory container off and that only
    ACTIVE hosts are flagged overloaded."""
    for t, rate in enumerate(sim.trace.rates):
        record = sim.step(t, rate)
        for hid, host in hosts_of(sim):
            assert all(on for spec, on in zip(host.containers, host.active)
                       if not spec.optional), (t, hid)
        modes = {hid: host.mode for hid, host in hosts_of(sim)}
        assert all(modes[hid] is HostMode.ACTIVE for hid, _, over in record.per_host if over), t
    return sim._result()


def run_with_restores(sim):
    """Run sim with `checked_run`; return its result, the number of restore
    moves and the intervals in which a host that a restore moved ends
    flagged overloaded."""
    restored, real = [], engine.brownout_step

    def step(fleet, *args):
        segments = real(fleet, *args)
        if not any(cls.overloaded for _, cls in fleet):  # a restore: name the hosts it moves
            ids = map(host_id, count())
            restored.extend((len(sim.records), hid) for (run, _), masks in zip(fleet, segments)
                            for n, mask in masks for hid in islice(ids, n) if mask != run.active)
        return segments

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "brownout_step", step)
        result = checked_run(sim)
    flagged = {(r.t, hid) for r in result.interval_records for hid, _, over in r.per_host if over}
    return result, len(restored), sorted({t for t, hid in restored if (t, hid) in flagged})


def test_a_restore_that_lands_on_u_t_stays_restored():
    # at rate 150 on 10 hosts (demand 0.6) the shed sample stack takes back
    # every optional container and lands on u_t 0.6 itself, a sum that
    # rounds just above it; the overload flag must not shed it again
    cfg = with_values(SAMPLE_CFG, {"policy.overloaded_threshold_u_t": 0.6,
                                   "policy.min_active_hosts": 10})
    result, restores, overloaded = run_with_restores(
        Simulation(cfg, flat_trace([250] * 3 + [150] * 8)))
    records = result.interval_records
    assert [r.deactivated_containers > 0 for r in records] == [True] * 3 + [False] * 8
    assert restores == 10 and overloaded == []
    assert [r.overloaded_hosts for r in records] == [0] * 11
    assert result.otr_mean == 0.0


@pytest.mark.parametrize("ut", [0.7, 0.8])
def test_no_restore_lands_a_host_in_an_overloaded_class(ut):
    # on the dense stack 0.6 + 4 x 0.025 sums to 0.7000000000000001
    cfg = with_values(dense_cfg("LUCF"), {"policy.overloaded_threshold_u_t": ut})
    _, restores, overloaded = run_with_restores(Simulation(cfg, DIURNAL))
    assert restores > 0, "the day must restore something"
    assert overloaded == [], f"{len(overloaded)} intervals restore into an overloaded class"


@pytest.mark.parametrize("cfg", [sample_day_cfg("LUCF", 0.7), sample_day_cfg("LUCF", 0.8),
                                 dense_cfg("LUCF"), dense_cfg("RSC")],
                         ids=["LUCF-0.7", "LUCF-0.8", "LUCF-dense", "RSC-dense"])
def test_restorable_is_asked_at_most_once_per_distinct_serving_state(monkeypatch, cfg):
    # the restore mask is a class's decision at dimmer value 0: `restore_mask`
    # runs when an interval with no overload first meets a class, never
    # again, however often its hosts restore.  Every mask it returns is read:
    # the class keeps it, and classes met only while others shed ask nothing.
    asked = _spy_restore_mask(monkeypatch)
    sim = Simulation(cfg, DIURNAL)
    sim.run()
    assert any(before != mask for before, mask in asked), "the day must restore something"
    kept = [cls.decided[0.0] for cls in sim.classes.values() if 0.0 in cls.decided]
    assert Counter([mask for _, mask in asked]) == Counter(kept)
    serving = [key for key in sim.classes if key[1] is HostMode.ACTIVE]
    assert len(asked) < len(serving), "a serving state that only sheds or sits out asks nothing"
    assert len(asked) < sum(r.active_hosts for r in sim.records), "asked per state, not per host"


@pytest.mark.parametrize("cfg, day", [
    pytest.param(dense_cfg("LUCF"), DIURNAL, id="LUCF-dense"),
    pytest.param(sample_day_cfg("RSC", 0.7), DIURNAL, id="RSC-0.7"),
    pytest.param(shop_cfg(policy="MNCF", pct=0.5), MIXED_DAY, id="MNCF-mixed")])
def test_a_class_derives_its_restore_mask_once_in_its_first_calm_interval(monkeypatch, cfg, day):
    # brownout_step derives a class's restore mask in the first interval
    # with no overloaded class that meets it, from the class's own state,
    # and keeps it as the class's only decision; an interval that sheds
    # derives none
    fleets, derived = [], []
    real_step, real_restore = engine.brownout_step, policies.restore_mask

    def step(fleet, *args):
        fleets.append(fleet)
        return real_step(fleet, *args)

    def restore(layout, *args):
        derived.append((len(fleets) - 1, layout, args, mask := real_restore(layout, *args)))
        return mask

    monkeypatch.setattr(engine, "brownout_step", step)
    monkeypatch.setattr(policies, "restore_mask", restore)
    Simulation(cfg, day).run()
    first, met = {}, 0  # class -> the first calm interval that meets it
    for t, fleet in enumerate(fleets):
        if not any(cls.overloaded for _, cls in fleet):
            met += len(fleet)
            for _, cls in fleet:
                first.setdefault(cls, t)
    # the calls come in fleet order, one per class at the first calm interval that meets it
    assert [t for t, *_ in derived] == list(first.values())
    assert 0 < len(derived) < met, "classes must meet calm intervals more than once"
    assert any(mask != layout.mask for _, layout, _, mask in derived), "some class restores"
    for cls, (_, layout, args, mask) in zip(first, derived):
        assert layout is cls.layout
        assert args == (cls.utilization, cls.demand, cfg.policy.overloaded_threshold_u_t)
        assert cls.decided == {0.0: mask}


@pytest.mark.parametrize("policy", ["NPA", "AUTOS"])
@pytest.mark.parametrize("ut", [0.7, 0.8])
def test_runs_without_a_brownout_controller_derive_no_restore_mask(monkeypatch, policy, ut):
    # without a selector nothing is ever shed, so no restore mask is read
    asked = _spy_restore_mask(monkeypatch)
    sim = Simulation(sample_day_cfg(policy, ut), DIURNAL)
    sim.run()
    assert asked == []
    assert sum(key[1] is HostMode.ACTIVE for key in sim.classes) > 1, "serving states to ask"


def test_wrapped_rsc_selector_runs_identically(monkeypatch):
    plain = Simulation(shop_cfg(policy="RSC"), spike_trace()).run()
    inner, calls = policies.SELECTORS["RSC"], []

    def passthrough(items, target, rng=None):
        calls.append(target)
        return inner(items, target, rng)

    monkeypatch.setitem(policies.SELECTORS, "RSC", passthrough)
    wrapped = Simulation(shop_cfg(policy="RSC"), spike_trace()).run()
    assert calls, "the spike must reach the selector"
    assert same_records(wrapped.interval_records, plain.interval_records)
    assert wrapped.energy_kwh == plain.energy_kwh


def test_capacity_credit_saves_energy():
    eager = Simulation(shop_cfg(capacity_credit=0.35), DIURNAL).run()
    frozen = Simulation(shop_cfg(capacity_credit=0.0), DIURNAL).run()
    assert eager.energy_kwh < frozen.energy_kwh, (
        f"crediting shed capacity should cut energy ({eager.energy_kwh} vs {frozen.energy_kwh})")


def test_slavr_none_only_when_no_requests():
    result = Simulation(shop_cfg(policy="NPA", pct=0.0), flat_trace([0] * 5)).run()
    assert result.slavr is None
    assert result.total_requests == 0


# ---------------------------------------------------------------------------
# energy and capacity, read from the host classes


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_energy_is_the_recorded_power_over_the_run(policy):
    cfg = dataclasses.replace(load_config(str(ROOT / "configs" / "sample.json")),
                              policy_name=policy)
    result = Simulation(cfg, DIURNAL).run()
    # exactly rounded sums, so the totals are equal, not close
    drawn = math.fsum([w for r in result.interval_records for _, w, _ in r.per_host])
    assert result.energy_kwh == drawn * cfg.interval_seconds / 3.6e6
    for r in result.interval_records:
        assert r.total_power_w == math.fsum([w for _, w, _ in r.per_host]), r.t


def test_idle_day_on_thirteen_hosts_draws_idle_power():
    cfg = dataclasses.replace(shop_cfg(policy="NPA", hosts=13), interval_seconds=3600.0)
    day = flat_trace([0] * 24, 3600.0)
    assert Simulation(cfg, day).run().energy_kwh == pytest.approx(62.712, abs=1e-9)


def _capacity_factor_from_instances(sim):
    """The capacity factor recomputed host by host from the containers."""
    fractions = []
    for _, h in hosts_of(sim):
        if h.mode is HostMode.ACTIVE:
            total = sum(spec.weight for spec in h.containers)
            active = sum(spec.weight for spec, on in zip(h.containers, h.active) if on)
            fractions.append(active / total if total > 0 else 1.0)
    if not fractions:
        return 1.0
    return 1.0 - sim.cfg.policy.capacity_credit * (1.0 - math.fsum(fractions) / len(fractions))


def test_capacity_factor_matches_the_hosts_instances_at_every_step():
    trace = spike_trace()
    sim = Simulation(shop_cfg(capacity_credit=0.35), trace)
    factors = []
    for t in range(len(trace)):
        sim.step(t, trace.rates[t])
        factors.append(sim._capacity_factor())
        assert factors[-1] == _capacity_factor_from_instances(sim), t
    assert min(factors) < 1.0, "the spike must shed containers"


def test_a_zero_capacity_factor_asks_for_the_floor():
    # Only h00 carries the mandatory container.  Once it sleeps, the two
    # optional-only hosts shed everything, so at credit 1 the factor is
    # 1 - 1 * (1 - 0) = 0; its limit is a host that absorbs any rate.
    cfg = SimConfig(policy_name="LUCF", host_count=3, trace_path="unused.csv", services=[
        ContainerSpec(id="web", service="s", weight=0.844, replicas=1),
        ContainerSpec(id="o0", service="s", weight=0.083, optional=True, replicas=3),
        ContainerSpec(id="o1", service="s", weight=0.039, optional=True, replicas=1),
        ContainerSpec(id="o2", service="s", weight=0.034, optional=True, replicas=3),
    ], policy=PolicyConfig(capacity_credit=1.0, boot_delay=2, window_size_L_w=1,
                           capacity_n_o=10.0, optional_util_pct=0.3, seed=1))
    trace = flat_trace([71, 5, 108, 18, 78, 80, 11, 36])
    sim = Simulation(cfg, trace)
    for t in range(5):
        sim.step(t, trace.rates[t])
    assert sim._capacity_factor() == 0.0
    sim.step(5, trace.rates[5])
    assert [h.mode for _, h in hosts_of(sim)] == [HostMode.SLEEP, HostMode.ACTIVE, HostMode.SLEEP]
    for t in range(6, len(trace)):
        sim.step(t, trace.rates[t])
    assert result_view(sim._result()) == result_view(reference_engine.run(cfg, trace))


# A calm day with two bursts, read one interval back: the fleet falls to its
# floor of 2, wakes eight hosts that boot for 3 intervals, then, calm again,
# may drop only one of its 2 active hosts while none of the boots finishes.
FLOOR_DAY = flat_trace([0] * 5 + [400] + [0] * 6 + [400] * 3 + [0] * 6)


@pytest.mark.parametrize("cfg, trace, reached", [
    pytest.param(shop_cfg(), spike_trace(), {"wake", "drop"}, id="spike"),
    pytest.param(shop_cfg(boot_delay=2), spike_trace(), {"wake", "drop", "booting"},
                 id="spike-boot-2"),
    pytest.param(shop_cfg(policy="AUTOS", boot_delay=3), spike_trace(),
                 {"wake", "drop", "booting"}, id="spike-boot-3"),
    pytest.param(shop_cfg(boot_delay=3, window_size_L_w=1, min_active_hosts=2), FLOOR_DAY,
                 {"wake", "drop", "booting", "floor", "keep one alive"}, id="floor"),
])
def test_the_committed_count_is_the_hosts_not_asleep_after_every_step(cfg, trace, reached):
    # `committed` is fleet state that only scaling moves; it must equal the
    # hosts not asleep counted host by host, whichever branch scaled.
    sim, seen, apply = Simulation(cfg, trace), set(), Simulation._apply_scaling

    def scale(target):
        hosts = [h for _, h in hosts_of(sim)]
        active = sum(h.mode is HostMode.ACTIVE for h in hosts)
        finishing = sum(h.mode is HostMode.BOOTING and h.boot_remaining <= 1 for h in hosts)
        before = sim.committed
        apply(sim, target)
        if sim.committed != before:
            seen.add("wake" if sim.committed > before else "drop")
        if before - target >= active > 0 and not finishing:  # dropping every active host is capped
            seen.add("keep one alive")

    sim._apply_scaling = scale
    for t in range(len(trace)):
        sim.step(t, trace.rates[t])
        modes = [h.mode for _, h in hosts_of(sim)]
        assert sim.committed == len(modes) - modes.count(HostMode.SLEEP), t
        if HostMode.BOOTING in modes:  # still booting after its first interval
            seen.add("booting")
        if modes.count(HostMode.ACTIVE) == cfg.policy.min_active_hosts:
            seen.add("floor")
    assert reached <= seen


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()),
                                   min_size=1, max_size=4),
                          st.integers(1, 100000)), min_size=1, max_size=8))
@example([([(0.5, False)], 100000), ([(0.25, True)], 1)])  # fractions 0 and 1
def test_the_capacity_mean_from_layout_halves_is_the_exact_sum(stacks):
    # 1-8 pieces, each a stack of (weight, on) containers (so an active share
    # in [0, 1], both ends included) and a count of hosts below 2**26: each
    # half times a count is exact, so one fsum of those products is
    # `exact_sum` of the (fraction, count) pairs, bit for bit.
    pieces, pairs = [], []
    for containers, n in stacks:
        weights = [w for w, _ in containers]
        mask = tuple([on for _, on in containers])
        total = sum(weights)
        fraction = sum([w for w, on in containers if on]) / total if total > 0 else 1.0
        layout = policies.Layout(tuple([ContainerSpec(id=f"c{j}", service="s", weight=w,
                                                      optional=True)
                                        for j, w in enumerate(weights)]), mask)
        hi, lo = layout.halves
        assert hi + lo == fraction
        pieces.append((SimpleNamespace(halves=layout.halves), n))
        pairs.append((fraction, n))
    assert math.fsum([h * n for cls, n in pieces for h in cls.halves]) == exact_sum(pairs)
    sim = Simulation(shop_cfg(capacity_credit=1.0), flat_trace([0]))
    active = sum([n for _, n in pieces])
    sim.records = [IntervalRecord(0, 0, active, pieces)]
    assert sim._capacity_factor() == 1.0 - (1.0 - exact_sum(pairs) / active)


# ---------------------------------------------------------------------------
# properties of generated configs


@st.composite
def small_runs(draw):
    """A small valid config, policy left to the caller, and a trace with
    spikes: 1-20 hosts, 1 mandatory replica to one per host and 1-6 optional
    containers (weights in twentieths, some tagged, 1 replica to one per
    host), so that full, partial and empty stacks sit side by side, boots of
    1-4 intervals, a floor of 1 to every host and a capacity credit of 0,
    0.35 or 1."""
    hosts = draw(st.integers(1, 20))
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    services = [ContainerSpec(id="web", service="s", weight=(20 - sum(weights)) / 20,
                              replicas=draw(st.integers(1, hosts)))] + [
        ContainerSpec(id=f"o{i}", service="s", weight=w / 20, optional=True,
                      connection_tag=draw(st.sampled_from([None, "a", "b"])),
                      replicas=draw(st.integers(1, hosts)))
        for i, w in enumerate(weights)]
    policy = PolicyConfig(overloaded_threshold_u_t=draw(st.sampled_from([0.6, 0.7, 0.8, 1.0])),
                          optional_util_pct=draw(st.sampled_from([0.0, 0.2, 0.4])),
                          boot_delay=draw(st.integers(1, 4)),
                          min_active_hosts=draw(st.integers(1, hosts)),
                          capacity_credit=draw(st.sampled_from([0.0, 0.35, 1.0])))
    cfg = SimConfig(host_count=hosts, services=services, policy=policy, trace_path="unused.csv")
    intervals = draw(st.integers(10, 40))
    rates = [draw(st.integers(0, 25 * hosts))] * intervals
    for t in draw(st.lists(st.integers(0, intervals - 1), min_size=1, max_size=4)):
        rates[t] = draw(st.integers(25 * hosts, 50 * hosts))  # at least a full stack's capacity
    return cfg, flat_trace(rates)


def check_lucf(units, picked, target):
    """LUCF stays under the target, or takes the smallest unit that meets it."""
    total = sum(u.utilization for u in units if set(u.ids) <= picked)
    alone = units and picked == set(units[0].ids) and units[0].utilization >= target
    assert alone or total <= target + FEAS_EPS + 1e-12, (units, picked, target)


def check_mncf(units, picked, target):
    """MNCF covers the target, or takes everything it was offered."""
    total = sum(u.utilization for u in units if set(u.ids) <= picked)
    everything = picked == {i for u in units for i in u.ids}
    assert everything or total >= target - FEAS_EPS - 1e-12, (units, picked, target)


def checking_selectors(mp):
    """Wrap LUCF and MNCF in pass-through spies that check each pick against
    its rule."""
    for policy, check in (("LUCF", check_lucf), ("MNCF", check_mncf)):
        def spy(items, target, rng=None, select=policies.SELECTORS[policy], check=check):
            picked = select(items, target, rng)
            if target > 0:
                check(policies.group_units(items), set(picked), target)
            return picked
        mp.setitem(policies.SELECTORS, policy, spy)


# No shrinking: shrinking a failure reruns five policies on both engines per
# candidate, about a minute where a passing run takes under a second.
@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(small_runs())
def test_generated_runs_keep_their_invariants(run):
    base, trace = run
    profile = base.power_profile
    kwh = base.host_count * len(trace) * base.interval_seconds / 3.6e6
    stacks = {}
    for _, host in hosts_of(Simulation(base, trace)):  # one shared spec tuple per placement
        assert stacks.setdefault(host.stack, host.containers) is host.containers
    for policy in POLICY_NAMES:
        cfg = dataclasses.replace(base, policy_name=policy)
        with pytest.MonkeyPatch.context() as mp:
            checking_selectors(mp)
            result, _, overloaded = run_with_restores(Simulation(cfg, trace))
        for rec in result.interval_records:
            assert sum(served for _, served in response_groups(rec)) + rec.errors == rec.requests
            assert rec.active_hosts >= 1, "every interval has a serving host"
        assert profile.sleep_power_w * kwh * (1 - 1e-12) <= result.energy_kwh
        assert result.energy_kwh <= profile.max_power_w * kwh * (1 + 1e-12)
        assert overloaded == [], f"{policy}: a restore landed in an overloaded class"
        assert result_view(result) == result_view(reference_engine.run(cfg, trace)), policy
    # no clamped utilization passes u_t 1.0, so brownout never acts
    calm = with_values(base, {"policy.overloaded_threshold_u_t": 1.0})
    autos = Simulation(dataclasses.replace(calm, policy_name="AUTOS"), trace).run()
    for policy in policies.SELECTORS:
        shed = Simulation(dataclasses.replace(calm, policy_name=policy), trace).run()
        assert same_records(shed.interval_records, autos.interval_records), policy
    # a mandatory-only stack offers nothing to shed, so brownout never acts
    bare = dataclasses.replace(base, services=[
        dataclasses.replace(s, optional=False, connection_tag=None) for s in base.services])
    autos = Simulation(dataclasses.replace(bare, policy_name="AUTOS"), trace).run()
    for policy in policies.SELECTORS:
        shed = Simulation(dataclasses.replace(bare, policy_name=policy), trace).run()
        assert same_records(shed.interval_records, autos.interval_records), policy
