"""Inputs the tests build in code: the shop stack, its config and traces;
a simulation's fleet read host by host; and the views that interval records
and run results are compared by."""

import math
from itertools import chain, count, repeat

from brownsim.model import ContainerSpec, PolicyConfig, SimConfig, host_id
from brownsim.workload import MAX_REQUESTS, Trace


def shop_services(replicas):
    """The shop stack: web and db mandatory, recommender and rec-cache
    optional and tied by the tag `rec`, ads optional."""
    return [
        ContainerSpec(id="web", service="shop", weight=0.35, replicas=replicas),
        ContainerSpec(id="db", service="shop", weight=0.25, replicas=replicas),
        ContainerSpec(id="recommender", service="shop", weight=0.25, optional=True,
                      connection_tag="rec", replicas=replicas),
        ContainerSpec(id="rec-cache", service="shop", weight=0.05, optional=True,
                      connection_tag="rec", replicas=replicas),
        ContainerSpec(id="ads", service="shop", weight=0.10, optional=True, replicas=replicas),
    ]


def shop_cfg(policy="LUCF", hosts=10, pct=0.4, ut=0.8, seed=42, **policy_overrides):
    """The shop stack on every one of `hosts` hosts; other policy fields by keyword."""
    policy_cfg = PolicyConfig(overloaded_threshold_u_t=ut, optional_util_pct=pct, seed=seed)
    for key, value in policy_overrides.items():
        setattr(policy_cfg, key, value)
    return SimConfig(policy_name=policy, host_count=hosts, services=shop_services(hosts),
                     policy=policy_cfg, trace_path="unused.csv")


def flat_trace(rates, interval_seconds=60.0):
    return Trace(rates=list(rates), interval_seconds=interval_seconds)


def spike_trace(intervals: int = 240, baseline: float = 35.0, spike: float = 375.0,
                spike_start: int = 80, spike_len: int = 40) -> Trace:
    """Flat baseline with one rectangular overload spike; deterministic."""
    return flat_trace([int(spike if spike_start <= t < spike_start + spike_len else baseline)
                       for t in range(intervals)])


def write_trace_csv(trace: Trace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("t,requests\n")
        for t, r in enumerate(trace.rates):
            fh.write(f"{t},{r}\n")


def hosts_of(sim) -> list:
    """(host id, run) per host of the simulation's fleet, in host order: each
    run of `sim.runs` repeated once per host it counts, the ids by index."""
    assert sum(run.count for run in sim.runs) == sim.cfg.host_count, "the runs cover the fleet"
    return list(zip(map(host_id, count()),
                    chain.from_iterable(repeat(run, run.count) for run in sim.runs)))


def response_groups(record) -> list:
    """(response_ms, served) of each serving host of an interval record, in host order."""
    return [cls.group for cls, n in record.pieces if cls.group[1] for _ in range(n)]


def record_view(record) -> tuple:
    """What two interval records must share to be equal: their type, their t,
    request, serving, error and deactivated counts, and their per-host views."""
    return (type(record), record.t, record.requests, record.active_hosts, record.errors,
            record.deactivated_containers, record.per_host, response_groups(record))


def same_records(a: list, b: list) -> bool:
    """Whether two record lists are equal record for record, by `record_view`."""
    return [record_view(r) for r in a] == [record_view(r) for r in b]


def result_view(result) -> tuple:
    """A run result's type and fields, each interval record as its
    `record_view`: two results are equal when these are (records themselves
    compare by identity)."""
    return type(result), {**vars(result), "interval_records": [
        record_view(r) for r in result.interval_records]}


def reference_load_trace(path, scale=1.0, interval_seconds=60.0):
    """`workload.load_trace` as it checked each row in turn: strip, split,
    test both fields, then convert them.  The oracle the parser's rates and
    ValueError messages are compared with."""
    def numeric(s):
        try:
            float(s)
            return True
        except ValueError:
            return False

    last, rates = -math.inf, []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 't,requests', got {line!r}")
            if lineno == 1 and not (numeric(parts[0]) or numeric(parts[1])):
                continue  # header
            if not (numeric(parts[0]) and numeric(parts[1])):
                raise ValueError(f"line {lineno}: non-numeric field in {line!r}")
            t = float(parts[0])
            r = float(parts[1])
            if r < 0:
                raise ValueError(f"line {lineno}: negative request count {r}")
            if not (math.isfinite(t) and r * scale <= MAX_REQUESTS):  # NaN fails too
                raise ValueError(f"line {lineno}: {line!r} at scale {scale} is not finite "
                                 f"or above 2**53 requests")
            if t <= last:
                raise ValueError(f"line {lineno}: time {parts[0].strip()} not strictly increasing")
            last = t
            rates.append(int(math.floor(r * scale + 0.5)))
    if not rates:
        raise ValueError(f"trace {path}: no data rows")
    return Trace(rates=rates, interval_seconds=interval_seconds)
