"""Per-host reference engine: README's model transcribed host by host, the
test oracle for `brownsim.engine.Simulation`.

It keeps no host classes, offers or memo and shares no decision between
hosts.  Every interval it derives each host's state afresh, calls the
policy's selector once per overloaded host in host order on a plain item
list, restores host by host with its own `restore`, and sums energy, the
capacity mean, the average response's numerator and the mean overload ratio
with `math.fsum` over per-host lists.  Each host's state carries its own
errors and deactivated count, and each host's overloaded intervals are
counted host by host.  It reuses only the unit-tested leaf formulas, so any
cache in the engine that changes a result shows as a difference from `run`.
It places and routes host by host with its own `place` and `route_demand`;
the engine places and routes runs.
"""

from __future__ import annotations

import math
import random
from itertools import groupby
from typing import NamedTuple

from brownsim.engine import POLICY_RNG_SALT, derive_utilization, synthesize_response
from brownsim.model import (HostMode, HostState, IntervalRecord, RunResult, SimConfig,
                            host_id, scaled_services)
from brownsim.policies import (SELECTORS, OptionalItem, autoscale, dimmer, expected_reduction,
                               over_threshold)
from brownsim.power import hum
from brownsim.qos import nearest_rank_percentile, slavr
from brownsim.workload import Trace, predict_rate

ACTIVE, BOOTING, SLEEP = HostMode.ACTIVE, HostMode.BOOTING, HostMode.SLEEP


class State(NamedTuple):
    """What one host yields in one interval."""
    utilization: float
    power_w: float
    demand: float  # assigned requests / n_o
    overloaded: bool
    group: tuple  # (response_ms, served)
    errors: int
    deactivated: int  # containers its mask has off, 0 off the serving set


def place(cfg: SimConfig) -> list:
    """Each host's spec ids, in host order: replica r of a spec goes to host
    r % fleet, spec by spec."""
    stacks = [[] for _ in range(cfg.host_count)]
    for s in cfg.services:
        for r in range(s.replicas):
            stacks[r % cfg.host_count].append(s.id)
    return stacks


def route_demand(requests: int, active_host_ids: list) -> dict:
    """Spread requests evenly, remainder to the first hosts in the order given."""
    if requests < 0:
        raise ValueError(f"requests must be >= 0 (got {requests})")
    alloc = dict.fromkeys(active_host_ids, 0)
    if not alloc or requests == 0:
        return alloc
    share, remainder = divmod(requests, len(alloc))
    alloc.update(dict.fromkeys(alloc, share))
    for hid in list(alloc)[:remainder]:
        alloc[hid] += 1
    return alloc


def derive(cfg: SimConfig, host: HostState, assigned: int) -> State:
    serving = host.mode is ACTIVE
    demand = assigned / cfg.policy.capacity_n_o
    load = derive_utilization(host, demand)
    utilization = min(max(load, 0.0), 1.0)
    response_ms, served, errors = (synthesize_response(load, assigned, cfg.base_response_ms)
                                   if serving else (0.0, 0, 0))
    return State(utilization, hum(cfg.power_profile, host.mode, utilization), demand,
                 serving and over_threshold(utilization, cfg.policy.overloaded_threshold_u_t),
                 (response_ms, served), errors, host.active.count(False) if serving else 0)


def restore(host: HostState, utilization: float, demand: float, u_t: float) -> tuple:
    """The host's mask with the containers it takes back at `utilization`.

    The containers its mask has off form units, same-tag ones together, each
    weighing its containers' summed weights in stack order.  Units come back
    largest first, ties by their positions, and a unit that would take the
    host over `u_t` (demand times its weight added) is skipped.
    """
    units = {}  # tag, or position when untagged -> the positions it holds
    for j, (spec, on) in enumerate(zip(host.containers, host.active)):
        if not on:
            tag = spec.connection_tag
            units.setdefault(j if tag is None else tag, []).append(j)
    weighed = [(sum([host.containers[j].weight for j in ids]), tuple(ids))
               for ids in units.values()]
    u, back = utilization, []
    for weight, ids in sorted(weighed, key=lambda unit: (-unit[0], unit[1])):
        if not over_threshold(u + demand * weight, u_t):
            back += ids
            u += demand * weight
    return tuple([on or j in back for j, on in enumerate(host.active)])


def resize(hosts: list, target: int, boot_delay: int) -> None:
    """Wake sleeping hosts lowest index first, or put active ones to sleep
    highest index first, keeping one server while boots are in flight."""
    active = [h for h in hosts if h.mode is ACTIVE]
    booting = [h for h in hosts if h.mode is BOOTING]
    committed = len(active) + len(booting)
    if target > committed:
        for h in [h for h in hosts if h.mode is SLEEP][:target - committed]:
            h.mode, h.boot_remaining = BOOTING, boot_delay
    elif target < committed:
        finishing = sum(1 for h in booting if h.boot_remaining <= 1)
        allowed = max(0, len(active) - max(0, 1 - finishing))
        for h in active[::-1][:min(committed - target, allowed)]:
            h.mode, h.boot_remaining, h.active = SLEEP, 0, (True,) * len(h.containers)


def run(cfg: SimConfig, trace: Trace) -> RunResult:
    pol, profile = cfg.policy, cfg.power_profile
    specs = {s.id: s for s in scaled_services(cfg.services, pol.optional_util_pct)}
    ids = tuple(map(host_id, range(cfg.host_count)))  # hosts[i] is ids[i], a run of one host
    hosts = [HostState(1, containers=tuple([specs[sid] for sid in stack]),
                       active=(True,) * len(stack))
             for stack in place(cfg)]
    rng = random.Random(pol.seed ^ POLICY_RNG_SALT)
    history, records, powers_w, fractions, errors = [], [], [], [], []
    hot = [0] * cfg.host_count  # intervals each host ended overloaded
    for t, rate in enumerate(trace.rates):
        if cfg.policy_name != "NPA" and history:
            factor = 1.0
            if fractions:
                factor -= pol.capacity_credit * (1.0 - math.fsum(fractions) / len(fractions))
            # a factor of 0 is the limit: any rate fits a host
            capacity = pol.capacity_n_o / factor if factor else math.inf
            resize(hosts, autoscale(predict_rate(history, pol.window_size_L_w),
                                    capacity, len(hosts), pol.min_active_hosts),
                   pol.boot_delay)
        for h in hosts:
            if h.mode is BOOTING:
                h.boot_remaining -= 1
                if h.boot_remaining <= 0:
                    h.mode, h.boot_remaining = ACTIVE, 0
        serving = [h for h in hosts if h.mode is ACTIVE]
        alloc = route_demand(rate, [hid for hid, h in zip(ids, hosts) if h.mode is ACTIVE])
        assigned = [alloc.get(hid, 0) for hid in ids]
        states = [derive(cfg, h, n) for h, n in zip(hosts, assigned)]

        if cfg.policy_name in SELECTORS:
            overloaded = sum(s.overloaded for s in states)
            theta = dimmer(overloaded, len(hosts))
            for i, (h, s) in enumerate(zip(hosts, states)):
                mask = h.active
                if s.overloaded:  # shed: each host picks alone
                    offer = [OptionalItem(j, min(s.demand * spec.weight, 1.0), spec.connection_tag)
                             for j, (spec, on) in enumerate(zip(h.containers, h.active))
                             if on and spec.optional]
                    target = expected_reduction(s.utilization, s.power_w, theta, profile)
                    if offer and (off := set(SELECTORS[cfg.policy_name](offer, target, rng))):
                        mask = tuple([on and j not in off for j, on in enumerate(h.active)])
                elif not overloaded and h.mode is ACTIVE and not all(h.active):  # restore
                    mask = restore(h, s.utilization, s.demand, pol.overloaded_threshold_u_t)
                if mask != h.active:
                    h.active = mask
                    states[i] = derive(cfg, h, assigned[i])

        powers_w += [s.power_w for s in states]
        hot = [k + s.overloaded for k, s in zip(hot, states)]
        fractions = []
        for h in serving:
            weights = [spec.weight for spec in h.containers]
            total = sum(weights)
            fractions.append(sum(w for w, on in zip(weights, h.active) if on) / total
                             if total > 0 else 1.0)
        records.append(IntervalRecord(  # a piece of one host per host
            t=t, requests=rate, active_hosts=len(serving), pieces=[(s, 1) for s in states]))
        errors.append(sum(s.errors for s in states))
        history.append(float(rate))

    ratios = [k / len(records) for k in hot] if records else []
    groups = [g for r in records for g in r.response_groups]
    served = sum(count for _, count in groups)
    total_requests = sum(r.requests for r in records)
    total_errors = sum(errors)
    return RunResult(
        policy_name=cfg.policy_name,
        seed=pol.seed,
        energy_kwh=math.fsum(powers_w) * cfg.interval_seconds / 3.6e6,
        otr_mean=math.fsum(ratios) / len(ratios) if ratios else 0.0,
        avg_response_ms=math.fsum(v * count for v, count in groups) / served if served else 0.0,
        p_kth_response_ms=nearest_rank_percentile(groups, pol.percentile_k) if served else 0.0,
        slavr=slavr(total_errors, total_requests),
        active_host_series=[r.active_hosts for r in records],
        interval_records=records,
        otr_runs=[(ratio, len(list(same))) for ratio, same in groupby(ratios)],
        total_requests=total_requests,
        total_errors=total_errors,
    )
