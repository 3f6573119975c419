"""Discrete-time simulation loop.

Each interval runs a fixed pipeline: predict the request rate, resize the
active fleet, advance booting hosts, spread requests over active hosts,
derive container/host utilization and power, let the brownout controller
deactivate or restore optional containers, give each serving host one
(response_ms, served) group and its errors, and account energy.  One run
is single-threaded and deterministic for a given config, trace, and seed.
"""

from __future__ import annotations

import math
import random

from .model import (
    ContainerInstance,
    HostMode,
    HostState,
    IntervalRecord,
    RunResult,
    SimConfig,
    place_replicas,
    scaled_services,
    validate_config,
)
from .policies import SELECTORS, autoscale, brownout_step, restorable
from .power import EnergyAccumulator, accumulate_energy, hum
from .qos import nearest_rank_percentile, overload_ratios, slavr
from .workload import Trace, predict_rate, predict_rate_weighted

POLICY_RNG_SALT = 0x517CC1B727220A95

BROWNOUT_POLICIES = ("LUCF", "MNCF", "RSC")


class ConfigError(ValueError):
    """Raised when a SimConfig fails validation; carries the violation list."""

    def __init__(self, violations: list):
        super().__init__("; ".join(violations))
        self.violations = violations


def route_demand(requests: int, active_host_ids: list) -> dict:
    """Spread requests evenly, remainder to the lowest host ids."""
    if requests < 0:
        raise ValueError(f"requests must be >= 0 (got {requests})")
    alloc = {hid: 0 for hid in active_host_ids}
    if not alloc or requests == 0:
        return alloc
    order = sorted(alloc)
    share, remainder = divmod(requests, len(order))
    for i, hid in enumerate(order):
        alloc[hid] = share + (1 if i < remainder else 0)
    return alloc


def derive_utilization(host: HostState, assigned: int, n_o: float, specs_by_id: dict) -> float:
    """Refresh instance and host utilization from the assigned request count.

    Demand d = assigned / n_o; every active instance works at d times its
    weight, deactivated ones at 0.  Returns the raw (unclamped) load; the
    host stores it clamped to [0, 1].
    """
    if host.mode is not HostMode.ACTIVE:
        for inst in host.instances:
            inst.utilization = 0.0
        host.utilization = 0.0
        return 0.0
    demand = assigned / n_o
    load = 0.0
    for inst in host.instances:
        if inst.active:
            share = demand * specs_by_id[inst.spec_id].weight
            load += share
            inst.utilization = min(share, 1.0)
        else:
            inst.utilization = 0.0
    host.utilization = min(max(load, 0.0), 1.0)
    return load


def synthesize_response(load: float, requests: int, base_ms: float) -> tuple:
    """Surrogate response model for one host: (base_ms / (1 - u), served, errors).

    Every request the host serves takes the same time.  When the raw load
    exceeds 1 the host is saturated and the excess fraction of its requests
    fail instead of being served, so served + errors equals the request count.
    """
    if requests < 0:
        raise ValueError(f"requests must be >= 0 (got {requests})")
    errors = 0
    if load > 1.0:
        errors = min(requests, math.floor(requests * (load - 1.0) / load + 0.5))
    return base_ms / (1.0 - min(load, 0.99)), requests - errors, errors


class Simulation:
    """One policy run over one trace."""

    def __init__(self, cfg: SimConfig, trace: Trace):
        violations = validate_config(cfg)
        if violations:
            raise ConfigError(violations)
        self.cfg = cfg
        self.trace = trace
        self.profile = cfg.power_profile
        self.specs = {s.id: s for s in scaled_services(cfg.services, cfg.policy.optional_util_pct)}
        self.selector = SELECTORS.get(cfg.policy_name)
        self.scaling = cfg.policy_name != "NPA"
        self.brownout = cfg.policy_name in BROWNOUT_POLICIES

        self.hosts = []
        placement = place_replicas(cfg)
        for hid in sorted(placement):
            host = HostState(id=hid, mode=HostMode.ACTIVE)
            for j, spec_id in enumerate(placement[hid]):
                suffix = f"+{j}" if placement[hid][:j].count(spec_id) else ""
                host.instances.append(ContainerInstance(
                    id=f"{spec_id}@{hid}{suffix}", spec_id=spec_id, host_id=hid))
            self.hosts.append(host)
        self.hosts_by_id = {h.id: h for h in self.hosts}

        self.rng_policy = random.Random(cfg.policy.seed ^ POLICY_RNG_SALT)
        self.history = []
        self.energy = EnergyAccumulator()
        self.records = []

    def run(self) -> RunResult:
        for t in range(len(self.trace)):
            self.step(t, self.trace.rates[t])
        return self._result()

    def step(self, t: int, rate: int) -> IntervalRecord:
        pol = self.cfg.policy

        # 1-2: predict and resize.  The scaler waits for history, so the
        # full fleet carries the first interval.
        if self.scaling and self.history:
            predict = predict_rate_weighted if pol.weighted_prediction else predict_rate
            predicted = predict(self.history, pol.window_size_L_w)
            capacity = pol.capacity_n_o / self._capacity_factor()
            target = autoscale(predicted, capacity, len(self.hosts), pol.min_active_hosts)
            self._apply_scaling(target)

        # 3: advance boots; a host woken this interval with boot_delay 1
        # serves this interval.
        for h in self.hosts:
            if h.mode is HostMode.BOOTING:
                h.boot_remaining -= 1
                if h.boot_remaining <= 0:
                    h.mode = HostMode.ACTIVE
                    h.boot_remaining = 0

        # 4: route.
        serving = [h for h in self.hosts if h.mode is HostMode.ACTIVE]
        alloc = route_demand(rate, [h.id for h in serving])

        # 5: derive utilization and power.
        loads = {}
        for h in self.hosts:
            self._refresh(h, alloc, loads)

        # 6-7: brownout controller, then refresh what it touched.
        if self.brownout:
            decision = brownout_step(self.hosts, self.specs, pol.overloaded_threshold_u_t,
                                     len(self.hosts), self.profile, self.selector,
                                     self.rng_policy)
            if decision.reactivate:
                self._reactivate(alloc, loads)
            else:
                for hid in sorted(decision.per_host):
                    self._switch(self.hosts_by_id[hid], decision.per_host[hid], False,
                                 alloc, loads)

        # 8: responses and errors.
        groups = []
        errors = 0
        for h in serving:
            response_ms, served, host_errors = synthesize_response(
                loads[h.id], alloc.get(h.id, 0), self.cfg.base_response_ms)
            if served:
                groups.append((response_ms, served))
            errors += host_errors
        if not serving and rate > 0:
            errors = rate

        # 9: energy.
        accumulate_energy(self.energy, {h.id: h.power_w for h in self.hosts},
                          self.cfg.interval_seconds)

        # 10: record.
        record = IntervalRecord(
            t=t,
            requests=rate,
            active_hosts=len(serving),
            per_host=[(h.id, h.utilization, h.power_w, self._overloaded(h)) for h in self.hosts],
            response_groups=groups,
            errors=errors,
            deactivated_containers=sum(
                1 for h in self.hosts if h.mode is HostMode.ACTIVE
                for inst in h.instances if not inst.active),
        )
        self.records.append(record)
        self.history.append(float(rate))
        return record

    # -- helpers -----------------------------------------------------------

    def _overloaded(self, host: HostState) -> bool:
        return host.mode is HostMode.ACTIVE and host.utilization > self.cfg.policy.overloaded_threshold_u_t

    def _capacity_factor(self) -> float:
        """Divisor on per-host capacity reflecting shed containers.

        Active hosts running a reduced stack absorb more requests per unit
        of utilization; capacity_credit sets how much of that headroom the
        scaler banks on.  Full stacks give exactly 1.
        """
        active = [h for h in self.hosts if h.mode is HostMode.ACTIVE]
        if not active:
            return 1.0
        fractions = []
        for h in active:
            total = h.total_weight(self.specs)
            fractions.append(h.active_weight(self.specs) / total if total > 0 else 1.0)
        mean_fraction = sum(fractions) / len(fractions)
        return 1.0 - self.cfg.policy.capacity_credit * (1.0 - mean_fraction)

    def _apply_scaling(self, target: int) -> None:
        active = [h for h in self.hosts if h.mode is HostMode.ACTIVE]
        booting = [h for h in self.hosts if h.mode is HostMode.BOOTING]
        committed = len(active) + len(booting)
        if target > committed:
            pool = sorted((h for h in self.hosts if h.mode in (HostMode.SLEEP, HostMode.OFF)),
                          key=lambda h: h.id)
            for h in pool[:target - committed]:
                h.mode = HostMode.BOOTING
                h.boot_remaining = self.cfg.policy.boot_delay
        elif target < committed:
            # Booting hosts cannot be put to sleep; keep one server alive in
            # case the in-flight boots do not finish this interval.
            excess = committed - target
            finishing = sum(1 for h in booting if h.boot_remaining <= 1)
            allowed = max(0, len(active) - max(0, 1 - finishing))
            for h in sorted(active, key=lambda h: h.id, reverse=True)[:min(excess, allowed)]:
                self._sleep(h)

    def _sleep(self, host: HostState) -> None:
        host.mode = HostMode.SLEEP
        host.boot_remaining = 0
        host.utilization = 0.0
        # Replicas are dropped with the host; when it wakes it comes back
        # with its full configured stack.
        for inst in host.instances:
            inst.active = True
            inst.utilization = 0.0

    def _reactivate(self, alloc: dict, loads: dict) -> None:
        """Bring back, on each active host, the deactivated units it can absorb."""
        u_t = self.cfg.policy.overloaded_threshold_u_t
        n_o = self.cfg.policy.capacity_n_o
        for host in self.hosts:
            weights = [self.specs[i.spec_id].weight for i in host.instances if not i.active]
            demand = alloc.get(host.id, 0) / n_o
            # no unit weighs less than its lightest member; if that cannot come back, none can
            if (host.mode is HostMode.ACTIVE and weights
                    and host.utilization + demand * min(weights) <= u_t + 1e-12):
                back = restorable(host, self.specs, demand, u_t)
                if back:
                    self._switch(host, back, True, alloc, loads)

    def _switch(self, host: HostState, ids: list, active: bool, alloc: dict, loads: dict) -> None:
        """Set the named instances' active flag, then refresh the host."""
        named = set(ids)
        for inst in host.instances:
            if inst.id in named:
                inst.active = active
        self._refresh(host, alloc, loads)

    def _refresh(self, host: HostState, alloc: dict, loads: dict) -> None:
        loads[host.id] = derive_utilization(host, alloc.get(host.id, 0),
                                            self.cfg.policy.capacity_n_o, self.specs)
        host.power_w = hum(self.profile, host.mode, host.utilization)

    def _result(self) -> RunResult:
        per_host_otr = overload_ratios(self.records)
        otr_mean = sum(per_host_otr.values()) / len(per_host_otr) if per_host_otr else 0.0
        groups = [g for r in self.records for g in r.response_groups]
        served = sum(count for _, count in groups)
        total_requests = sum(r.requests for r in self.records)
        total_errors = sum(r.errors for r in self.records)
        return RunResult(
            policy_name=self.cfg.policy_name,
            seed=self.cfg.policy.seed,
            energy_kwh=self.energy.total_kwh,
            otr_mean=otr_mean,
            avg_response_ms=sum(v * count for v, count in groups) / served if served else 0.0,
            p_kth_response_ms=(nearest_rank_percentile(groups, self.cfg.policy.percentile_k)
                               if served else 0.0),
            slavr=slavr(total_errors, total_requests),
            active_host_series=[r.active_hosts for r in self.records],
            interval_records=self.records,
            per_host_otr=per_host_otr,
            total_requests=total_requests,
            total_errors=total_errors,
        )
