"""QoS metrics and service-level constraint checks.

Metrics: per-host overloaded time ratio, SLA violation ratio (failed
requests over total), and nearest-rank response-time percentiles.  The
constraint checker compares a finished run against the configured bounds;
total energy is reported next to the checks but is the optimization
objective, not a bound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field


def otr(overload_flags: list) -> float:
    """Fraction of intervals a host spent overloaded."""
    if not overload_flags:
        raise ValueError("overload flag series is empty")
    return sum(1 for f in overload_flags if f) / len(overload_flags)


def overload_ratios(interval_records: list) -> dict:
    """Per-host overloaded time ratio across a run's interval records.

    Intervals a host spends asleep count as not overloaded; every host in
    the records shares the same denominator.
    """
    flags = {}
    for rec in interval_records:
        for host_id, _, _, overloaded in rec.per_host:
            flags.setdefault(host_id, []).append(overloaded)
    return {host_id: otr(series) for host_id, series in sorted(flags.items())}


def slavr(errors: int, total: int) -> float | None:
    """Failed-request ratio; None when no requests were served at all."""
    if errors < 0 or total < 0 or errors > total:
        raise ValueError(f"bad error/total counts ({errors}/{total})")
    if total == 0:
        return None
    return errors / total


def nearest_rank_percentile(groups: list, k: int) -> float:
    """Sample at rank ceil(k/100 * N) of N samples given as (value, count) groups."""
    if not (1 <= k <= 100):
        raise ValueError(f"percentile k must be within [1, 100] (got {k})")
    tally = Counter(groups)  # hosts of one class repeat a group; sort each once
    rank = math.ceil(k / 100 * sum(count * times for (_, count), times in tally.items()))
    if rank < 1:
        raise ValueError("no samples to take a percentile of")
    for (value, count), times in sorted(tally.items()):
        rank -= count * times
        if rank <= 0:
            return value


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    bound: float
    actual: float | None
    passed: bool


@dataclass
class QosReport:
    otr_per_host: dict = field(default_factory=dict)
    otr_mean: float = 0.0
    avg_response_ms: float = 0.0
    p_kth_response_ms: float = 0.0
    slavr: float | None = None
    energy_kwh: float = 0.0  # objective, reported but never pass/failed
    constraints: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.constraints)


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
    return QosReport(
        otr_per_host=dict(result.per_host_otr),
        otr_mean=result.otr_mean,
        avg_response_ms=result.avg_response_ms,
        p_kth_response_ms=result.p_kth_response_ms,
        slavr=result.slavr,
        energy_kwh=result.energy_kwh,
        constraints=checks,
    )
