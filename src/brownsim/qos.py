"""QoS metrics and service-level constraint checks.

Metrics: overloaded time ratio per run of hosts, SLA violation ratio (failed
requests over total), and nearest-rank response-time percentiles.  The
constraint checker compares a finished run against the configured bounds;
total energy is the optimization objective, not a bound, so it has no check.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, groupby
from typing import NamedTuple


def overload_ratios(interval_records: list) -> list:
    """Overloaded time ratios across a run's interval records, which share
    one fleet, as maximal (ratio, count) runs of hosts in host order.
    Intervals a host spends asleep count as not overloaded.  An overloaded
    piece adds 1 where it starts and -1 where it ends; a running sum gives
    each host's count, and equal neighbours join."""
    if not interval_records:
        return []
    steps = [0] * (sum([n for _, n in interval_records[0].pieces]) + 1)
    for rec in interval_records:
        for end, (cls, n) in zip(accumulate([n for _, n in rec.pieces]), rec.pieces):
            if cls.overloaded:
                steps[end - n] += 1
                steps[end] -= 1
    return [(k / len(interval_records), len(list(same)))
            for k, same in groupby(accumulate(steps[:-1]))]


def slavr(errors: int, total: int) -> float | None:
    """Failed-request ratio; None when no requests were served at all."""
    if errors < 0 or total < 0 or errors > total:
        raise ValueError(f"bad error/total counts ({errors}/{total})")
    if total == 0:
        return None
    return errors / total


def nearest_rank_percentile(groups, k: int) -> float:
    """Sample at rank ceil(k/100 * N) of N samples given as (value, count)
    groups: a list, or a mapping from each group to how often it occurs."""
    if not (1 <= k <= 100):
        raise ValueError(f"percentile k must be within [1, 100] (got {k})")
    tally = Counter(groups)  # hosts of one class repeat a group; sort each once
    rank = -(-k * sum(count * times for (_, count), times in tally.items()) // 100)
    if rank < 1:
        raise ValueError("no samples to take a percentile of")
    for (value, count), times in sorted(tally.items()):
        rank -= count * times
        if rank <= 0:
            return value


class ConstraintCheck(NamedTuple):
    """One SLA bound, the run's value for it (None if it has none) and whether it holds."""
    name: str
    bound: float
    actual: float | None
    passed: bool


class QosReport:
    """A run's `ConstraintCheck`s, in the order `check_constraints` makes them."""
    __slots__ = ("constraints",)

    def __init__(self, constraints: list | None = None):
        self.constraints = [] if constraints is None else constraints

    def __eq__(self, other):
        return self.constraints == other.constraints if type(other) is QosReport else NotImplemented


def check_constraints(result, policy) -> QosReport:
    """Check a run against the configured SLA bounds.

    Four checks: mean overloaded time ratio vs alpha, average response vs
    beta, kth-percentile response vs phi, failure ratio vs gamma.  A run
    that served no requests has no failure ratio; that check passes and its
    actual value stays None.
    """
    checks = [
        ConstraintCheck("otr_mean", policy.sla_alpha, result.otr_mean,
                        result.otr_mean <= policy.sla_alpha),
        ConstraintCheck("avg_response_ms", policy.sla_beta, result.avg_response_ms,
                        result.avg_response_ms <= policy.sla_beta),
        ConstraintCheck(f"p{policy.percentile_k}_response_ms", policy.sla_phi,
                        result.p_kth_response_ms,
                        result.p_kth_response_ms <= policy.sla_phi),
        ConstraintCheck("slavr", policy.sla_gamma, result.slavr,
                        result.slavr is None or result.slavr <= policy.sla_gamma),
    ]
    return QosReport(constraints=checks)
