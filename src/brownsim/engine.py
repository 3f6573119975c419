"""Discrete-time simulation loop.

Each interval runs a fixed pipeline: predict the request rate, resize the
active fleet, advance booting hosts, spread requests over active hosts,
derive host utilization and power, let the brownout controller deactivate
or restore optional containers (called only while some class is overloaded
or has something to restore), give each serving host one (response_ms,
served) group and its errors, and record the interval.  One run is
single-threaded and deterministic for a given config, trace, and seed.

The fleet is its runs: `model.HostState`s of consecutive hosts, in placement
index order (h100 follows h99), that share a stack, a mode, a boot countdown
and a mask (a tuple over the stack, in which a container is its position).
Scaling splits at most one run each way, boots count down per run, equal
neighbours merge, routing's remainder splits one run, and brownout sets each
run's mask; only RSC's per-host draws, made where a draw can change the
pick, split a run further.  Each piece's state (its run's key and request
count) has one class: utilization, power, response group and errors, derived
when a lookup of it first misses, and its (stack, mask)'s `policies.Layout`,
shared by that pair's classes: weight fraction (as exact halves), deactivated
count, units.  `policies.brownout_step` takes the (run, class) pieces, makes
every shed and restore decision, and returns each one's (count, mask)
segments.  Records keep only (class, count) pieces and counts of requests
and serving hosts; the scaler reads their rates and the last one's pieces
and serving count, and keeps the count of hosts not asleep as fleet state.
Every other total is read from the pieces: a record's as a view, the
result's from one tally, its overload ratios as runs of hosts named by index
when read.  Every float total is exactly rounded (`model.exact_sum`; the
scaler's mean active share, one fsum of its pieces' halves times counts),
so it depends on the simulated states alone, not on host order or run cuts.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import chain

from .model import (
    HostMode,
    HostState,
    IntervalRecord,
    RunResult,
    SimConfig,
    exact_sum,
    place_replicas,
    scaled_services,
    validate_config,
)
from .policies import SELECTORS, Layout, autoscale, brownout_step, over_threshold
from .power import hum
from .qos import nearest_rank_percentile, overload_ratios, slavr
from .workload import Trace, predict_rate

POLICY_RNG_SALT = 0x517CC1B727220A95

# Looking a member up on the enum class is slow in the per-run loops of each step.
ACTIVE, BOOTING, SLEEP = HostMode.ACTIVE, HostMode.BOOTING, HostMode.SLEEP


class ConfigError(ValueError):
    """Raised when a SimConfig fails validation; carries the violation list."""

    def __init__(self, violations: list):
        super().__init__("; ".join(violations))
        self.violations = violations


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
    n_o, power profile, base response), so a class lasts the run; totals
    count its `power_w` once per member.  `demand` is assigned requests /
    n_o, a container's load per unit of weight; `group` is (response_ms,
    served), with served 0 off the serving set; `layout` is its run's
    (stack, mask)'s shared `policies.Layout` (full off the serving set),
    which gives `deactivated` and `halves` (() off the serving set);
    `offer` is its `policies.Offer` from its first overload on (None before);
    `decided` holds the brownout decisions it has made, keyed by dimmer
    value, its restore mask at 0 (see `policies.brownout_step`), all
    functions of the class too.  A plain class: a dataclass slows import.
    """

    __slots__ = ("utilization", "power_w", "demand", "overloaded", "group", "errors",
                 "layout", "deactivated", "halves", "offer", "decided")

    def __init__(self, *values):
        (self.utilization, self.power_w, self.demand, self.overloaded, self.group, self.errors,
         self.layout, self.halves) = values
        self.deactivated, self.offer, self.decided = self.layout.deactivated, None, {}


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

        specs = {s.id: s for s in scaled_services(cfg.services, cfg.policy.optional_util_pct)}
        self.runs = [HostState(count, stack=i, containers=tuple([specs[sid] for sid in ids]),
                               active=(True,) * len(ids))  # the fleet, in host order
                     for i, (count, ids) in enumerate(place_replicas(cfg))]
        self.classes = {}  # state -> HostClass, for the whole run
        self.layouts = {}  # (stack, mask) -> policies.Layout, for the whole run
        self.committed = cfg.host_count  # hosts not asleep; only _apply_scaling moves it

        self.rng_policy = random.Random(cfg.policy.seed ^ POLICY_RNG_SALT)
        self.records = []  # all a step reads of earlier intervals

    def run(self) -> RunResult:
        for t in range(len(self.trace)):
            self.step(t, self.trace.rates[t])
        return self._result()

    def step(self, t: int, rate: int) -> IntervalRecord:
        pol = self.cfg.policy

        # 1-2: predict and resize.  The scaler waits for history, so the
        # full fleet carries the first interval.
        if self.scaling and self.records:
            window = pol.window_size_L_w
            predicted = predict_rate([r.requests for r in self.records[-window:]], window)
            factor = self._capacity_factor()
            # 0 (credit 1, every serving stack shed) is the limit: any rate fits a host
            capacity = pol.capacity_n_o / factor if factor else math.inf
            if (target := autoscale(predicted, capacity, self.cfg.host_count,
                                    pol.min_active_hosts)) != self.committed:
                self._apply_scaling(target)

        # 3: advance boots (a run woken this interval with boot_delay 1 serves
        # this interval) and join each run to the one before it in one state.
        runs = []
        for run in self.runs:
            if run.mode is BOOTING:
                run.boot_remaining -= 1
                if run.boot_remaining <= 0:
                    run.mode, run.boot_remaining = ACTIVE, 0
            if runs and runs[-1] == run:  # HostState equality ignores the count
                runs[-1].count += run.count
            else:
                runs.append(run)

        # 4-5: route and give each run the class of its state.  The first
        # `extra` serving hosts take one request more: routing splits one run.
        self.runs, classes = runs, self.classes
        serving = sum([run.count for run in runs if run.mode is ACTIVE])
        share, extra = divmod(rate, serving) if serving else (0, 0)
        pieces, assigned, settled = [], [], True  # (run, class) pieces; their requests
        for i, run in enumerate(runs):  # a split inserts the run's rest next
            if run.mode is ACTIVE:
                n = share
                if extra:
                    _split(runs, i, extra)
                    n, extra = share + 1, max(0, extra - run.count)
                key = (run.stack, ACTIVE, run.active, n)
            else:
                n, key = 0, (run.stack, run.mode, (), 0)
            pieces.append((run, cls := classes.get(key) or self._class(run, key)))
            assigned.append(n)
            settled = settled and cls.decided.get(0.0) is cls.layout.mask

        # 6-7: brownout controller (shed or restore), not called while every class is
        # calm and restores nothing (θ 0, no mask moves).  Each piece's run takes
        # its (count, mask) segments, top one first so that a split (RSC's
        # differing draws) leaves the runs below in place, and its class again;
        # a piece whose one segment is its own mask keeps its run and class.
        if self.brownout and not settled:
            segments = brownout_step(pieces, self.cfg, self.rng_policy)
            cut = []
            for i in range(len(pieces) - 1, -1, -1):
                run, cls = pieces[i]
                if len(seg := segments[i]) == 1:  # the whole run, in a new class if its mask moved
                    if (mask := seg[0][1]) != run.active:
                        run.active = mask
                        key = (run.stack, run.mode, mask if run.mode is ACTIVE else (), assigned[i])
                        cls = classes.get(key) or self._class(run, key)
                    cut.append((cls, run.count))
                    continue
                for count, mask in reversed(seg):
                    (run := _split(runs, i, runs[i].count - count)).active = mask
                    key = (run.stack, run.mode, mask if run.mode is ACTIVE else (), assigned[i])
                    cut.append((classes.get(key) or self._class(run, key), count))
            cut.reverse()
        else:
            cut = [(cls, run.count) for run, cls in pieces]

        # 8-9: the record, each piece's final class and count; its totals are views.
        self.records.append(record := IntervalRecord(t, rate, serving, cut))
        return record

    # -- helpers -----------------------------------------------------------

    def _capacity_factor(self) -> float:
        """Divisor on per-host capacity reflecting shed containers.

        Active hosts running a reduced stack absorb more requests per unit
        of utilization; capacity_credit sets how much of that headroom the
        scaler banks on.  Full stacks give exactly 1.  Read from the last
        record's pieces and serving count: no mode or mask changed since.
        Each half times a count (below 2**26) is exact: this is `exact_sum`.
        """
        last = self.records[-1]
        if not last.active_hosts:
            return 1.0
        mean_fraction = math.fsum([h * n for cls, n in last.pieces
                                   for h in cls.halves]) / last.active_hosts
        return 1.0 - self.cfg.policy.capacity_credit * (1.0 - mean_fraction)

    def _apply_scaling(self, target: int) -> None:
        """Wake sleeping hosts lowest index first or sleep active ones highest
        first; each direction splits at most one run, where it stops."""
        runs, active = self.runs, self.records[-1].active_hosts  # no mode changed since
        committed = self.committed
        if (wake := target - committed) > 0:
            for i, run in enumerate(runs):
                if run.mode is SLEEP and wake > 0:
                    _split(runs, i, wake)
                    run.mode, run.boot_remaining = BOOTING, self.cfg.policy.boot_delay
                    wake -= run.count
            self.committed = target - wake  # wake is left over only when every host is up
        elif target < committed:
            # Booting hosts cannot be put to sleep; keep one server alive in
            # case the in-flight boots do not finish this interval.
            finishing = sum([r.count for r in runs if r.mode is BOOTING and r.boot_remaining <= 1])
            drop = min(committed - target, max(0, active - max(0, 1 - finishing)))
            self.committed = committed - drop  # at most the active hosts: all of it goes
            for i in range(len(runs) - 1, -1, -1):
                if runs[i].mode is ACTIVE and drop > 0:
                    run = _split(runs, i, runs[i].count - drop)
                    # Replicas are dropped with the host; when it wakes it
                    # comes back with its full configured stack.
                    run.mode, run.active = SLEEP, (True,) * len(run.containers)
                    drop -= run.count

    def _class(self, host: HostState, key: tuple) -> HostClass:
        """Derive and keep the class of `key`, the host's state (stack, mode, mask
        or () off the serving set, assigned requests): on a miss in `classes`."""
        _, mode, _, assigned = key
        serving = mode is ACTIVE
        pol = self.cfg.policy
        demand = assigned / pol.capacity_n_o
        load = derive_utilization(host, demand)
        utilization = min(max(load, 0.0), 1.0)
        power_w = hum(self.profile, mode, utilization)
        response_ms, served, errors = (synthesize_response(
            load, assigned, self.cfg.base_response_ms) if serving else (0.0, 0, 0))
        if (layout := self.layouts.get(at := (host.stack, host.active))) is None:
            layout = self.layouts[at] = Layout(host.containers, host.active)
        cls = self.classes[key] = HostClass(
            utilization, power_w, demand,
            serving and over_threshold(utilization, pol.overloaded_threshold_u_t),
            (response_ms, served), errors, layout, layout.halves if serving else ())
        return cls

    def _result(self) -> RunResult:
        otr_runs = overload_ratios(self.records)
        groups, drawn = Counter(), Counter()  # (response_ms, served) or watts -> host-intervals
        total_errors = 0
        for (cls, n), k in Counter(chain.from_iterable([r.pieces for r in self.records])).items():
            drawn[cls.power_w] += n * k  # k pieces of n hosts in class cls
            total_errors += cls.errors * n * k
            if cls.group[1]:
                groups[cls.group] += n * k
        served = sum([count * n for (_, count), n in groups.items()])
        total_requests = sum(r.requests for r in self.records)
        return RunResult(
            policy_name=self.cfg.policy_name,
            seed=self.cfg.policy.seed,
            energy_kwh=exact_sum(drawn.items()) * self.cfg.interval_seconds / 3.6e6,
            otr_mean=exact_sum(otr_runs) / self.cfg.host_count,
            avg_response_ms=(exact_sum([(ms * count, n) for (ms, count), n in groups.items()])
                             / served if served else 0.0),
            p_kth_response_ms=(nearest_rank_percentile(groups, self.cfg.policy.percentile_k)
                               if served else 0.0),
            slavr=slavr(total_errors, total_requests),
            active_host_series=[r.active_hosts for r in self.records],
            interval_records=self.records,
            otr_runs=otr_runs,
            total_requests=total_requests,
            total_errors=total_errors,
        )


def _split(runs: list, i: int, head: int) -> HostState:
    """Cut runs[i] after its first `head` hosts, if both parts keep some; return its top part."""
    run = runs[i]
    if 0 < head < run.count:
        runs.insert(i + 1, run := HostState(run.count - head, run.mode, run.boot_remaining,
                                            run.stack, run.containers, run.active))
        runs[i].count = head
    return run
