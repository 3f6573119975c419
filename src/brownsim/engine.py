"""Discrete-time simulation loop.

Each interval runs a fixed pipeline: predict the request rate, resize the
active fleet, advance booting hosts, spread requests over active hosts,
derive container/host utilization and power, let the brownout controller
deactivate or restore optional containers, give each serving host one
(response_ms, served) group and its errors, and account energy.  One run
is single-threaded and deterministic for a given config, trace, and seed.

A host's containers are its placement stack and one active mask over it, a
tuple that brownout replaces when it sheds or restores containers.  Steps
5-9 run per host class: hosts that share a placement stack, a mode, an
active mask and a request count are in one state.  Its utilization, power,
watt-hours, active-weight fraction, response group and restore mask are
functions of that key and the run's constants, so a class is derived once
per run and kept; each interval maps every host to one.  The records, the
brownout controller, the energy total and the next capacity factor read
utilization and power from the classes.  Brownout picks once per
overloaded class for LUCF and MNCF, and once per host for RSC so that its
draws stay in host order; so do the loops whose float sums depend on order:
the records, the energy additions and the capacity mean, in host-id order.
"""

from __future__ import annotations

import math
import random

from .model import (
    HostMode,
    HostState,
    IntervalRecord,
    RunResult,
    SimConfig,
    place_replicas,
    scaled_services,
    validate_config,
)
from .policies import autoscale, brownout_step, deactivated_units, restorable
from .power import hum
from .qos import nearest_rank_percentile, overload_ratios, slavr
from .workload import Trace, predict_rate, predict_rate_weighted

POLICY_RNG_SALT = 0x517CC1B727220A95

BROWNOUT_POLICIES = ("LUCF", "MNCF", "RSC")

# Looking a member up on the enum class is slow in per-host loops.
ACTIVE, BOOTING, SLEEP = HostMode.ACTIVE, HostMode.BOOTING, HostMode.SLEEP


class ConfigError(ValueError):
    """Raised when a SimConfig fails validation; carries the violation list."""

    def __init__(self, violations: list):
        super().__init__("; ".join(violations))
        self.violations = violations


def route_demand(requests: int, active_host_ids: list) -> dict:
    """Spread requests evenly, remainder to the lowest host ids."""
    if requests < 0:
        raise ValueError(f"requests must be >= 0 (got {requests})")
    alloc = dict.fromkeys(active_host_ids, 0)
    if not alloc or requests == 0:
        return alloc
    share, remainder = divmod(requests, len(alloc))
    alloc.update(dict.fromkeys(alloc, share))
    for hid in sorted(alloc)[:remainder]:
        alloc[hid] += 1
    return alloc


def derive_utilization(host: HostState, assigned: int, n_o: float) -> tuple:
    """(raw load, per-container utilizations) from the assigned request count.

    Demand d = assigned / n_o; each container the host's mask keeps on works at
    d times its weight (capped at 1), the others at 0.  The load is unclamped;
    a host off the serving set has load 0 and all zeros.
    """
    if host.mode is not ACTIVE:
        return 0.0, (0.0,) * len(host.containers)
    demand = assigned / n_o
    load, utilizations = 0.0, []
    for (_, spec), on in zip(host.containers, host.active):
        share = demand * spec.weight if on else 0.0
        load += share
        utilizations.append(min(share, 1.0))
    return load, tuple(utilizations)


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


class HostClass:
    """What a host state (placement stack, mode, active mask, assigned
    requests; the mask is () off the serving set) yields in any interval.

    Every field is a function of that key and of the run's constants (u_t,
    n_o, interval length, power profile, base response), so a class lasts
    the run.  `group` is (response_ms, served), with served 0 off the
    serving set; `fraction` is the active share of the stack's weight, None
    off the serving set; `restore` is the active mask, by position, after
    the restore step, once asked.  A plain class, because building a
    dataclass slows every package import.
    """

    __slots__ = ("utilization", "power_w", "energy_wh", "instance_utilizations", "overloaded",
                 "group", "errors", "deactivated", "fraction", "restore")

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values + (None,)):
            setattr(self, name, value)


class Simulation:
    """One policy run over one trace."""

    def __init__(self, cfg: SimConfig, trace: Trace):
        violations = validate_config(cfg)
        if violations:
            raise ConfigError(violations)
        self.cfg = cfg
        self.trace = trace
        self.profile = cfg.power_profile
        self.scaling = cfg.policy_name != "NPA"
        self.brownout = cfg.policy_name in BROWNOUT_POLICIES

        self.hosts = []
        specs = {s.id: s for s in scaled_services(cfg.services, cfg.policy.optional_util_pct)}
        placement = place_replicas(cfg)
        stacks = {}  # distinct placement -> its index
        for hid in sorted(placement):
            ids = placement[hid]
            containers = tuple((f"{sid}@{hid}" + (f"+{j}" if sid in ids[:j] else ""), specs[sid])
                               for j, sid in enumerate(ids))
            self.hosts.append(HostState(hid, stack=stacks.setdefault(tuple(ids), len(stacks)),
                                        containers=containers, active=(True,) * len(ids)))
        self.classes = {}  # state -> HostClass, for the whole run
        self.class_of = {}  # host id -> its HostClass, in host order

        self.rng_policy = random.Random(cfg.policy.seed ^ POLICY_RNG_SALT)
        self.history = []
        self.energy_wh = 0.0
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
            if h.mode is BOOTING:
                h.boot_remaining -= 1
                if h.boot_remaining <= 0:
                    h.mode = ACTIVE
                    h.boot_remaining = 0

        # 4: route.
        serving = [h for h in self.hosts if h.mode is ACTIVE]
        alloc = route_demand(rate, [h.id for h in serving])

        # 5: map hosts to the classes of their states; a state new to the run
        # derives utilization, power and its response group once.
        self.class_of = {}
        self._refresh(self.hosts, alloc)

        # 6-7: brownout controller, then move what it touched to new classes.
        if self.brownout:
            overloaded = [(h, c) for h, c in zip(self.hosts, self.class_of.values()) if c.overloaded]
            decision = brownout_step(overloaded, len(self.hosts), self.profile,
                                     self.cfg.policy_name, self.rng_policy)
            if decision.reactivate:
                self._reactivate(alloc)
            for hosts, mask in decision.shed:  # empty when reactivating
                self._move(hosts, mask, alloc)

        # 8-9: responses, errors and energy, from each host's final class.
        classes = list(self.class_of.values())  # filled in host order at step 5
        groups = [c.group for c in classes if c.group[1]]
        errors = sum([c.errors for c in classes])
        if not serving and rate > 0:
            errors = rate
        for c in classes:
            self.energy_wh += c.energy_wh

        # 10: record.
        record = IntervalRecord(
            t=t,
            requests=rate,
            active_hosts=len(serving),
            per_host=[(hid, c.utilization, c.power_w, c.overloaded)
                      for hid, c in self.class_of.items()],
            response_groups=groups,
            errors=errors,
            deactivated_containers=sum([c.deactivated for c in classes]),
        )
        self.records.append(record)
        self.history.append(float(rate))
        return record

    # -- helpers -----------------------------------------------------------

    def _capacity_factor(self) -> float:
        """Divisor on per-host capacity reflecting shed containers.

        Active hosts running a reduced stack absorb more requests per unit
        of utilization; capacity_credit sets how much of that headroom the
        scaler banks on.  Full stacks give exactly 1.  Read from the classes
        the last interval ended with: no host changes mode or mask between
        then and the scaling that asks.
        """
        fractions = [c.fraction for c in self.class_of.values() if c.fraction is not None]
        if not fractions:
            return 1.0
        mean_fraction = sum(fractions) / len(fractions)
        return 1.0 - self.cfg.policy.capacity_credit * (1.0 - mean_fraction)

    def _apply_scaling(self, target: int) -> None:
        active = [h for h in self.hosts if h.mode is ACTIVE]
        booting = [h for h in self.hosts if h.mode is BOOTING]
        committed = len(active) + len(booting)
        # self.hosts is in id order
        if target > committed:
            pool = [h for h in self.hosts if h.mode is SLEEP]
            for h in pool[:target - committed]:
                h.mode = BOOTING
                h.boot_remaining = self.cfg.policy.boot_delay
        elif target < committed:
            # Booting hosts cannot be put to sleep; keep one server alive in
            # case the in-flight boots do not finish this interval.
            excess = committed - target
            finishing = sum(1 for h in booting if h.boot_remaining <= 1)
            allowed = max(0, len(active) - max(0, 1 - finishing))
            for h in active[::-1][:min(excess, allowed)]:
                self._sleep(h)

    def _sleep(self, host: HostState) -> None:
        host.mode = SLEEP
        host.boot_remaining = 0
        # Replicas are dropped with the host; when it wakes it comes back
        # with its full configured stack.
        host.active = (True,) * len(host.containers)

    def _reactivate(self, alloc: dict) -> None:
        """Bring back, on each active host, the deactivated units it can absorb.

        A class decides its restored mask once per run, from the first host
        that asks, and the members whose mask it changes move together.
        `restorable` is asked only if the lightest deactivated unit fits, so
        it never returns nothing.
        """
        u_t = self.cfg.policy.overloaded_threshold_u_t
        members = {}  # class -> its hosts, in host order
        for host, cls in zip(self.hosts, self.class_of.values()):
            members.setdefault(cls, []).append(host)
        for cls, hosts in members.items():
            host = hosts[0]
            if cls.restore is None:
                demand = alloc.get(host.id, 0) / self.cfg.policy.capacity_n_o
                units = cls.deactivated and deactivated_units(host)
                fits = units and cls.utilization + demand * units[0].utilization <= u_t + 1e-12
                back = set(restorable(units, cls.utilization, demand, u_t)) if fits else ()
                cls.restore = tuple([on or cid in back
                                     for (cid, _), on in zip(host.containers, host.active)])
            if cls.restore != host.active:
                self._move(hosts, cls.restore, alloc)

    def _move(self, hosts: list, mask: tuple, alloc: dict) -> None:
        """Give hosts of one class one new mask: the first finds the class it
        moves to, the others take that class without rebuilding their keys."""
        for host in hosts:
            host.active = mask
        self._refresh(hosts[:1], alloc)
        self.class_of.update(dict.fromkeys([h.id for h in hosts[1:]], self.class_of[hosts[0].id]))

    def _refresh(self, hosts: list, alloc: dict) -> None:
        """Put each host in the class of its current state; the first host in
        a state this run derives the class, the others reuse it."""
        pol, classes, class_of = self.cfg.policy, self.classes, self.class_of
        for host in hosts:
            hid, serving = host.id, host.mode is ACTIVE
            assigned = alloc.get(hid, 0)
            # a host off the serving set is idle whatever its mask
            mask = host.active if serving else ()
            cls = classes.get(key := (host.stack, host.mode, mask, assigned))
            if cls is None:
                load, instance_utilizations = derive_utilization(host, assigned, pol.capacity_n_o)
                utilization = min(max(load, 0.0), 1.0)
                power_w = hum(self.profile, host.mode, utilization)
                response_ms, served, errors = (synthesize_response(
                    load, assigned, self.cfg.base_response_ms) if serving else (0.0, 0, 0))
                fraction = None
                if serving:
                    weights = [spec.weight for _, spec in host.containers]
                    total = sum(weights)
                    fraction = (sum([w for w, on in zip(weights, mask) if on]) / total
                                if total > 0 else 1.0)
                cls = classes[key] = HostClass(
                    utilization, power_w, power_w * self.cfg.interval_seconds / 3600.0,
                    instance_utilizations, serving and utilization > pol.overloaded_threshold_u_t,
                    (response_ms, served), errors, mask.count(False), fraction)
            class_of[hid] = cls

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
            energy_kwh=self.energy_wh / 1000.0,
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
