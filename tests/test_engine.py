import dataclasses
import math
import random
import tracemalloc
from pathlib import Path

import pytest

from brownsim import engine, policies
from brownsim.engine import (
    ConfigError,
    Simulation,
    derive_utilization,
    route_demand,
    synthesize_response,
)
from brownsim.model import (
    POLICY_NAMES,
    ContainerInstance,
    ContainerSpec,
    HostMode,
    HostState,
    PolicyConfig,
    SimConfig,
    load_config,
    with_values,
)
from brownsim.workload import Trace, load_trace
from trace_helpers import spike_trace

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
DIURNAL = load_trace(str(DATA / "diurnal_day.csv"), 1.0, 60.0)


def make_services(replicas):
    return [
        ContainerSpec(id="web", service="shop", weight=0.35, replicas=replicas),
        ContainerSpec(id="db", service="shop", weight=0.25, replicas=replicas),
        ContainerSpec(id="recommender", service="shop", weight=0.25, optional=True,
                      connection_tag="rec", replicas=replicas),
        ContainerSpec(id="rec-cache", service="shop", weight=0.05, optional=True,
                      connection_tag="rec", replicas=replicas),
        ContainerSpec(id="ads", service="shop", weight=0.10, optional=True, replicas=replicas),
    ]


def make_cfg(policy="LUCF", hosts=10, pct=0.4, ut=0.8, seed=42, **policy_overrides):
    policy_cfg = PolicyConfig(overloaded_threshold_u_t=ut, optional_util_pct=pct, seed=seed)
    for key, value in policy_overrides.items():
        setattr(policy_cfg, key, value)
    return SimConfig(policy_name=policy, host_count=hosts, services=make_services(hosts),
                     policy=policy_cfg, trace_path="unused.csv")


def flat_trace(rates):
    return Trace(times=list(range(len(rates))), rates=list(rates), interval_seconds=60.0)


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


# ---------------------------------------------------------------------------
# utilization derivation


def derive_host(deactivate=()):
    specs = {s.id: s for s in [
        ContainerSpec(id="m", service="s", weight=0.6),
        ContainerSpec(id="o1", service="s", weight=0.2, optional=True),
        ContainerSpec(id="o2", service="s", weight=0.2, optional=True),
    ]}
    host = HostState(id="h00", mode=HostMode.ACTIVE)
    for sid in specs:
        host.instances.append(ContainerInstance(
            id=f"{sid}@h00", spec_id=sid, host_id="h00", active=sid not in deactivate))
    return host, specs


def test_derive_full_stack():
    host, specs = derive_host()
    load, utilizations = derive_utilization(host, 20, 25.0, specs)
    assert load == pytest.approx(0.8)
    assert utilizations == pytest.approx((0.48, 0.16, 0.16))


def test_derive_with_deactivated_optionals():
    host, specs = derive_host(deactivate=("o1", "o2"))
    load, utilizations = derive_utilization(host, 20, 25.0, specs)
    assert load == pytest.approx(0.48)
    assert utilizations[0] == pytest.approx(0.48)
    assert utilizations[1:] == (0.0, 0.0), "deactivated instances do no work"


def test_derive_clamps_overload():
    host, specs = derive_host()
    load, utilizations = derive_utilization(host, 38, 25.0, specs)  # demand 1.52
    assert load == pytest.approx(1.52), "the load itself is not clamped"
    assert utilizations == pytest.approx((0.912, 0.304, 0.304))
    load, utilizations = derive_utilization(host, 50, 25.0, specs)  # demand 2
    assert utilizations[0] == 1.0, "an instance is capped at 1"


def test_derive_inactive_host_is_idle():
    host, specs = derive_host()
    host.mode = HostMode.SLEEP
    assert derive_utilization(host, 20, 25.0, specs) == (0.0, (0.0, 0.0, 0.0))


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
                   for rec in result.interval_records for value, count in rec.response_groups
                   for _ in range(count))
    k = cfg.policy.percentile_k
    assert len(drawn) == result.total_requests - result.total_errors
    old_mean, old_kth = sum(drawn) / len(drawn), drawn[math.ceil(k / 100 * len(drawn)) - 1]
    assert 0.95 * result.avg_response_ms <= old_mean <= 1.05 * result.avg_response_ms
    assert 0.95 * result.p_kth_response_ms <= old_kth <= 1.05 * result.p_kth_response_ms


def test_peak_memory_is_flat_in_trace_scale():
    peaks = {}
    for scale in (1.0, 4.0):
        sim = Simulation(make_cfg(hosts=10), load_trace(str(DATA / "diurnal_day.csv"), scale, 60.0))
        tracemalloc.start()
        try:
            sim.run()
            peaks[scale] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4.0] <= 1.2 * peaks[1.0], peaks


# ---------------------------------------------------------------------------
# simulation behavior


def test_invalid_config_raises_with_violations():
    cfg = make_cfg(policy="BOGUS")
    with pytest.raises(ConfigError) as err:
        Simulation(cfg, flat_trace([10]))
    assert err.value.violations


def test_npa_keeps_the_whole_fleet_active():
    result = Simulation(make_cfg(policy="NPA", hosts=6, pct=0.0), flat_trace([50] * 30)).run()
    assert result.active_host_series == [6] * 30


def test_autoscaler_drops_to_min_active_on_zero_rate():
    result = Simulation(make_cfg(policy="AUTOS", pct=0.0), flat_trace([0] * 10)).run()
    assert result.active_host_series[0] == 10, "full fleet carries the warm-up interval"
    assert result.active_host_series[1:] == [1] * 9


def test_min_active_hosts_respected():
    result = Simulation(make_cfg(policy="AUTOS", pct=0.0, min_active_hosts=3),
                        flat_trace([0] * 10)).run()
    assert all(n >= 3 for n in result.active_host_series)


def test_interval_conservation_and_error_bound():
    result = Simulation(make_cfg(), DIURNAL).run()
    for rec in result.interval_records:
        assert sum(served for _, served in rec.response_groups) + rec.errors == rec.requests
        assert rec.errors <= rec.requests
        assert all(served > 0 for _, served in rec.response_groups)


def test_overloaded_flag_matches_threshold():
    result = Simulation(make_cfg(ut=0.7), DIURNAL).run()
    for rec in result.interval_records:
        for _, utilization, _, overloaded in rec.per_host:
            assert overloaded == (utilization > 0.7)


def test_brownout_is_offered_exactly_the_overloaded_serving_hosts(monkeypatch):
    # the overload test lives in the host classes; brownout_step trusts it
    sim = Simulation(make_cfg(ut=0.7), DIURNAL)
    offered, real = [], engine.brownout_step

    def spy(overloaded, *args):
        want = [h.id for h in sim.hosts
                if h.mode is HostMode.ACTIVE and sim.class_of[h.id].utilization > 0.7]
        assert [h.id for h, _ in overloaded] == want
        assert all(state is sim.class_of[h.id] for h, state in overloaded)
        offered.append(len(want))
        return real(overloaded, *args)

    monkeypatch.setattr(engine, "brownout_step", spy)
    sim.run()
    assert len(offered) == len(DIURNAL)
    assert 0 < sum(n > 0 for n in offered) < len(offered), "calm and overloaded intervals"
    assert any(0 < n < len(sim.hosts) for n in offered), "some intervals overload part of the fleet"


def test_determinism_same_seed_same_run():
    a = Simulation(make_cfg(seed=7), DIURNAL).run()
    b = Simulation(make_cfg(seed=7), DIURNAL).run()
    assert a.energy_kwh == b.energy_kwh
    assert a.active_host_series == b.active_host_series
    assert a.slavr == b.slavr
    for ra, rb in zip(a.interval_records, b.interval_records):
        assert ra.response_groups == rb.response_groups
        assert ra.per_host == rb.per_host


def test_avg_below_p95_on_standard_runs():
    for policy in ("AUTOS", "LUCF"):
        result = Simulation(make_cfg(policy=policy), DIURNAL).run()
        assert result.avg_response_ms <= result.p_kth_response_ms, policy


def test_state_machine_legality():
    legal = {
        (HostMode.ACTIVE, HostMode.SLEEP),
        (HostMode.SLEEP, HostMode.BOOTING),
        (HostMode.SLEEP, HostMode.ACTIVE),  # boot completed within the interval
        (HostMode.BOOTING, HostMode.ACTIVE),
    }
    cfg = make_cfg()
    trace = DIURNAL
    sim = Simulation(cfg, trace)
    modes = {h.id: h.mode for h in sim.hosts}
    for t in range(len(trace)):
        sim.step(t, trace.rates[t])
        for h in sim.hosts:
            pair = (modes[h.id], h.mode)
            assert pair[0] == pair[1] or pair in legal, f"illegal transition {pair}"
            modes[h.id] = h.mode


def test_host_invariants_hold_throughout():
    cfg = make_cfg()
    trace = spike_trace()
    sim = Simulation(cfg, trace)
    for t in range(len(trace)):
        sim.step(t, trace.rates[t])
        for h in sim.hosts:
            cls = sim.class_of[h.id]
            assert len(cls.instance_utilizations) == len(h.instances)
            if h.mode is not HostMode.ACTIVE:
                assert cls.utilization == 0.0
            if h.mode is HostMode.BOOTING:
                assert h.boot_remaining > 0
            for inst, utilization in zip(h.instances, cls.instance_utilizations):
                if not sim.specs[inst.spec_id].optional:
                    assert inst.active, "mandatory container deactivated"
                if not inst.active:
                    assert utilization == 0.0


def test_boot_delay_two_serves_after_booting():
    cfg = make_cfg(policy="AUTOS", hosts=3, pct=0.0, boot_delay=2)
    trace = flat_trace([10, 10, 10, 200, 200, 200, 200])
    sim = Simulation(cfg, trace)
    records = [sim.step(t, trace.rates[t]) for t in range(len(trace))]
    assert records[1].active_hosts == 1, "scaler sleeps the idle hosts"
    assert records[4].active_hosts == 1, "woken hosts are still booting"
    booting_entries = [p for p in records[4].per_host if p[0] in ("h01", "h02")]
    for _, utilization, power, _ in booting_entries:
        assert utilization == 0.0
        assert power == pytest.approx(201.0), "booting host draws idle power"
    assert records[5].active_hosts == 3, "boot completes after two intervals"


def test_boot_delay_one_serves_immediately():
    cfg = make_cfg(policy="AUTOS", hosts=3, pct=0.0, boot_delay=1)
    trace = flat_trace([10, 10, 10, 200, 200, 200, 200])
    sim = Simulation(cfg, trace)
    records = [sim.step(t, trace.rates[t]) for t in range(len(trace))]
    assert records[4].active_hosts == 3


def test_spike_sheds_then_restores():
    result = Simulation(make_cfg(), spike_trace()).run()
    deact = [r.deactivated_containers for r in result.interval_records]
    overload = [r.overloaded_hosts for r in result.interval_records]
    spike = range(80, 120)
    assert max(deact[t] for t in spike) > 0, "spike must trigger deactivations"
    calm_after = next(t for t in range(120, len(deact)) if overload[t] == 0)
    assert deact[calm_after] == 0, "first calm evaluation restores everything"
    assert all(d == 0 for d in deact[calm_after:])


@pytest.mark.parametrize("rate, states", [(200, 1), (210, 2)])
def test_hosts_in_one_state_derive_it_once(monkeypatch, rate, states):
    # 20 identical hosts split 200 requests evenly (one state per interval);
    # 210 gives h00-h09 one request more (two states)
    calls, real = [], engine.derive_utilization

    def spy(host, *args):
        calls.append(host.id)
        return real(host, *args)

    monkeypatch.setattr(engine, "derive_utilization", spy)
    result = Simulation(make_cfg(policy="NPA", hosts=20), flat_trace([rate] * 10)).run()
    assert len(calls) == states * 10
    for rec in result.interval_records:
        assert len({(u, p) for _, u, p, _ in rec.per_host}) == states
        assert sum(served for _, served in rec.response_groups) == rate
        assert len(rec.response_groups) == 20


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
    host = sim.hosts[0]
    for inst in host.instances:
        inst.active = inst.spec_id == "web"
    # demand 0.97 puts web alone at 0.388, under u_t, so the host restores:
    # the pair (0.3) first, to 0.679; "big" (0.2) would reach 0.873 and is
    # skipped; "small" (0.1) still fits, to 0.776.  Smallest first would
    # have taken "small" and "big" and left the pair out.
    record = sim.step(0, 97)
    assert {i.spec_id for i in host.instances if i.active} == {"web", "p1", "p2", "small"}
    assert record.deactivated_containers == 1
    assert sim.class_of[host.id].utilization == pytest.approx(0.97 * 0.8)


def _reactivate_everywhere(sim, alloc):
    """Reference restore loop: ask `restorable` on every active host with
    something deactivated, one host at a time, with no pre-check."""
    u_t, n_o = sim.cfg.policy.overloaded_threshold_u_t, sim.cfg.policy.capacity_n_o
    for host in sim.hosts:
        if host.mode is HostMode.ACTIVE and any(not i.active for i in host.instances):
            back = engine.restorable(engine.deactivated_units(host, sim.specs),
                                     sim.class_of[host.id].utilization,
                                     alloc.get(host.id, 0) / n_o, u_t)
            if back:
                sim._switch(host, back, True, alloc)


def _spy_restorable(monkeypatch):
    """Record (units offered, ids returned) for every `restorable` call the engine makes."""
    asked, real = [], engine.restorable

    def spy(units, *args):
        back = real(units, *args)
        asked.append((units, back))
        return back

    monkeypatch.setattr(engine, "restorable", spy)
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
    for inst in sim.hosts[0].instances:
        inst.active = inst.spec_id == "web"
    asked = _spy_restorable(monkeypatch)
    # web alone is at 0.485, under u_t, so the host is in the restore path;
    # ads would lift it to 0.97, so nothing can come back
    record = sim.step(0, 97)
    assert asked == []
    assert record.deactivated_containers == 1


@pytest.mark.parametrize("ut", [0.7, 0.8])
@pytest.mark.parametrize("policy", ["LUCF", "RSC"])
def test_restore_precheck_leaves_the_records_unchanged(monkeypatch, policy, ut):
    asked = _spy_restorable(monkeypatch)
    checked = Simulation(make_cfg(policy=policy, ut=ut), DIURNAL).run()
    asked_checked = len(asked)
    asked.clear()
    monkeypatch.setattr(Simulation, "_reactivate", _reactivate_everywhere)
    everywhere = Simulation(make_cfg(policy=policy, ut=ut), DIURNAL).run()
    assert checked.interval_records == everywhere.interval_records
    assert asked_checked < len(asked), "the pre-check must skip some hosts"


@pytest.mark.parametrize("ut", [0.7, 0.8])
def test_restore_precheck_asks_only_hosts_that_take_something_back(monkeypatch, ut):
    # the pre-check bounds by the lightest deactivated unit (a tag group
    # weighs its members' sum), so a host that passes it restores that unit
    asked = _spy_restorable(monkeypatch)
    cfg = with_values(load_config(str(ROOT / "configs" / "sample.json")),
                      {"policy.overloaded_threshold_u_t": ut})
    Simulation(cfg, DIURNAL).run()
    assert asked, "the sample day must reach the restore step"
    assert all(back for _, back in asked)


def test_wrapped_rsc_selector_runs_identically(monkeypatch):
    plain = Simulation(make_cfg(policy="RSC"), spike_trace()).run()
    inner, calls = policies.SELECTORS["RSC"], []

    def passthrough(items, target, rng=None):
        calls.append(target)
        return inner(items, target, rng)

    monkeypatch.setitem(policies.SELECTORS, "RSC", passthrough)
    wrapped = Simulation(make_cfg(policy="RSC"), spike_trace()).run()
    assert calls, "the spike must reach the selector"
    assert wrapped.interval_records == plain.interval_records
    assert wrapped.energy_kwh == plain.energy_kwh


def test_capacity_credit_saves_energy():
    eager = Simulation(make_cfg(capacity_credit=0.35), DIURNAL).run()
    frozen = Simulation(make_cfg(capacity_credit=0.0), DIURNAL).run()
    assert eager.energy_kwh < frozen.energy_kwh, (
        f"crediting shed capacity should cut energy ({eager.energy_kwh} vs {frozen.energy_kwh})")


def test_slavr_none_only_when_no_requests():
    result = Simulation(make_cfg(policy="NPA", pct=0.0), flat_trace([0] * 5)).run()
    assert result.slavr is None
    assert result.total_requests == 0


# ---------------------------------------------------------------------------
# energy and capacity, read from the host classes


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_energy_is_the_recorded_power_over_the_run(policy):
    cfg = dataclasses.replace(load_config(str(ROOT / "configs" / "sample.json")),
                              policy_name=policy)
    result = Simulation(cfg, DIURNAL).run()
    drawn = sum(r.total_power_w for r in result.interval_records)
    assert result.energy_kwh == pytest.approx(drawn * cfg.interval_seconds / 3.6e6, rel=1e-12)


def test_idle_day_on_thirteen_hosts_draws_idle_power():
    cfg = dataclasses.replace(make_cfg(policy="NPA", hosts=13), interval_seconds=3600.0)
    day = Trace(times=list(range(24)), rates=[0] * 24, interval_seconds=3600.0)
    assert Simulation(cfg, day).run().energy_kwh == pytest.approx(62.712, abs=1e-9)


def _capacity_factor_from_instances(sim):
    """The capacity factor recomputed host by host from the containers."""
    fractions = []
    for h in sim.hosts:
        if h.mode is HostMode.ACTIVE:
            total = sum(sim.specs[i.spec_id].weight for i in h.instances)
            active = sum(sim.specs[i.spec_id].weight for i in h.instances if i.active)
            fractions.append(active / total if total > 0 else 1.0)
    if not fractions:
        return 1.0
    return 1.0 - sim.cfg.policy.capacity_credit * (1.0 - sum(fractions) / len(fractions))


def test_capacity_factor_matches_the_hosts_instances_at_every_step():
    trace = spike_trace()
    sim = Simulation(make_cfg(capacity_credit=0.35), trace)
    factors = []
    for t in range(len(trace)):
        sim.step(t, trace.rates[t])
        factors.append(sim._capacity_factor())
        assert factors[-1] == _capacity_factor_from_instances(sim), t
    assert min(factors) < 1.0, "the spike must shed containers"
