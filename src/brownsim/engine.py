"""Discrete-time simulation loop.

Each interval runs a fixed pipeline: predict the request rate, resize the
active fleet, advance booting hosts, spread requests over active hosts,
derive host utilization and power, let the brownout controller deactivate
or restore optional containers, give each serving host one (response_ms,
served) group and its errors, and account energy.  One run is
single-threaded and deterministic for a given config, trace, and seed.

A host's containers are its placement stack, a tuple of specs shared by its
placement's hosts, in which a container is its position, and one active
mask over it, a tuple that brownout replaces when it sheds or restores
containers.  Steps 5-9 run per host class: hosts that share a placement
stack, a mode, an active mask and a request count are in one state.  Its
utilization, power, watt-hours, active-weight fraction, response group and
restore mask are functions of that key and the run's constants, so a class
is derived once per run and kept; each interval maps every host to one.
The records, the controller, the energy total and the next capacity factor
read the classes.  One `policies.brownout_step` call per interval decides
to shed or restore and returns (hosts, mask) moves; the engine only applies
them.  The loops whose float sums depend on order keep host order: the
records, the energy additions and the capacity mean.  Host order is
placement index order, so h100 follows h99.
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
from .policies import SELECTORS, autoscale, brownout_step, over_threshold, restore_mask
from .power import hum
from .qos import nearest_rank_percentile, overload_ratios, slavr
from .workload import Trace, predict_rate

POLICY_RNG_SALT = 0x517CC1B727220A95

# Looking a member up on the enum class is slow in per-host loops.
ACTIVE, BOOTING, SLEEP = HostMode.ACTIVE, HostMode.BOOTING, HostMode.SLEEP


class ConfigError(ValueError):
    """Raised when a SimConfig fails validation; carries the violation list."""

    def __init__(self, violations: list):
        super().__init__("; ".join(violations))
        self.violations = violations


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


def derive_utilization(host: HostState, demand: float) -> float:
    """The host's raw load: demand (assigned requests / n_o) times the weight
    of each container its mask keeps on, summed in stack order and unclamped;
    0 off the serving set."""
    load = 0.0
    if host.mode is ACTIVE:
        for spec, on in zip(host.containers, host.active):
            if on:
                load += demand * spec.weight
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


class HostClass:
    """What a host state (placement stack, mode, active mask, assigned
    requests; the mask is () off the serving set) yields in any interval.

    Every field is a function of that key and of the run's constants (u_t,
    n_o, interval length, power profile, base response), so a class lasts
    the run.  `demand` is assigned requests / n_o, a container's load per
    unit of weight; `group` is (response_ms, served), with served 0 off the
    serving set; `fraction` is the active share of the stack's weight, None
    off the serving set; `restore` is the mask, by position, that a member
    takes once no host is overloaded, from `restore_mask`; `offer` is its
    `policies.Offer` from its first overload on (None before).  A plain
    class, because building a dataclass slows every package import.
    """

    __slots__ = ("utilization", "power_w", "energy_wh", "demand", "overloaded", "group",
                 "errors", "deactivated", "fraction", "restore", "offer")

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
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
        self.brownout = cfg.policy_name in SELECTORS

        self.hosts = []
        specs = {s.id: s for s in scaled_services(cfg.services, cfg.policy.optional_util_pct)}
        stacks = {}  # distinct placement -> its index and specs, one tuple for its hosts
        for hid, ids in place_replicas(cfg).items():  # in index order: h100 comes after h99
            if (ids := tuple(ids)) not in stacks:
                stacks[ids] = len(stacks), tuple([specs[sid] for sid in ids])
            stack, containers = stacks[ids]
            self.hosts.append(HostState(hid, stack=stack, containers=containers,
                                        active=(True,) * len(ids)))
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
            predicted = predict_rate(self.history, pol.window_size_L_w)
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

        # 6-7: brownout controller (shed or restore), then move what it
        # touched to new classes.
        if self.brownout:
            for hosts, mask in brownout_step(list(zip(self.hosts, self.class_of.values())),
                                             self.profile, self.cfg.policy_name, self.rng_policy):
                self._move(hosts, mask, alloc)

        # 8-9: responses, errors and energy, from each host's final class.
        classes = list(self.class_of.values())  # filled in host order at step 5
        groups = [c.group for c in classes if c.group[1]]
        for c in classes:
            self.energy_wh += c.energy_wh

        # 10: record.
        record = IntervalRecord(
            t=t,
            requests=rate,
            active_hosts=len(serving),
            per_host=[(hid, c.power_w, c.overloaded) for hid, c in self.class_of.items()],
            response_groups=groups,
            errors=sum([c.errors for c in classes]),
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
        # self.hosts is in index order
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
        u_t = pol.overloaded_threshold_u_t
        for host in hosts:
            hid, serving = host.id, host.mode is ACTIVE
            assigned = alloc.get(hid, 0)
            # a host off the serving set is idle whatever its mask
            mask = host.active if serving else ()
            cls = classes.get(key := (host.stack, host.mode, mask, assigned))
            if cls is None:
                demand = assigned / pol.capacity_n_o
                load = derive_utilization(host, demand)
                utilization = min(max(load, 0.0), 1.0)
                power_w = hum(self.profile, host.mode, utilization)
                response_ms, served, errors = (synthesize_response(
                    load, assigned, self.cfg.base_response_ms) if serving else (0.0, 0, 0))
                fraction, restore = None, host.active  # off the serving set nothing is off
                if serving:
                    weights = [spec.weight for spec in host.containers]
                    total = sum(weights)
                    fraction = (sum([w for w, on in zip(weights, mask) if on]) / total
                                if total > 0 else 1.0)
                    restore = restore_mask(host, utilization, demand, u_t)
                cls = classes[key] = HostClass(
                    utilization, power_w, power_w * self.cfg.interval_seconds / 3600.0,
                    demand, serving and over_threshold(utilization, u_t),
                    (response_ms, served), errors, mask.count(False), fraction, restore, None)
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
