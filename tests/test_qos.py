import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from brownsim.model import IntervalRecord, PolicyConfig, RunResult, host_id
from brownsim.qos import (
    check_constraints,
    nearest_rank_percentile,
    overload_ratios,
    slavr,
)


def record(t, per_host):
    """An interval record from (host_id, power_w, overloaded) triples, one
    piece per host; a record names its hosts by index, so the ids must be
    h00, h01, ... in order."""
    assert [h for h, _, _ in per_host] == [host_id(i) for i in range(len(per_host))]
    return IntervalRecord(
        t=t, requests=10, active_hosts=len(per_host),
        pieces=[(SimpleNamespace(power_w=p, overloaded=o, group=(0.0, 0)), 1)
                for _, p, o in per_host])


def test_overload_ratios_spans_all_hosts_and_intervals():
    records = [
        record(0, [("h00", 233.0, True), ("h01", 213.0, False), ("h02", 237.0, True)]),
        record(1, [("h00", 221.0, False), ("h01", 10.0, False), ("h02", 237.0, True)]),
    ]
    ratios = overload_ratios(records)
    assert ratios == {"h00": 0.5, "h01": 0.0, "h02": 1.0}
    assert overload_ratios([]) == {}, "no records, no hosts"


def test_overload_ratios_keep_the_records_host_order():
    # the ids follow the hosts' indices: h100 follows h99, not h10 as it
    # would by id string
    hosts = [host_id(i) for i in range(102)]
    records = [record(0, [(h, 233.0, h == "h100") for h in hosts])]
    ratios = overload_ratios(records)
    assert list(ratios) == hosts and hosts[98:] == ["h98", "h99", "h100", "h101"]
    assert [h for h, r in ratios.items() if r] == ["h100"]


def test_overload_ratios_count_pieces_of_several_hosts():
    hot, calm = (SimpleNamespace(power_w=233.0, overloaded=flag, group=(0.0, 0))
                 for flag in (True, False))
    records = [IntervalRecord(t=0, requests=0, active_hosts=4,
                              pieces=[(calm, 1), (hot, 2), (calm, 1)]),
               IntervalRecord(t=1, requests=0, active_hosts=4, pieces=[(hot, 3), (calm, 1)])]
    assert overload_ratios(records) == {"h00": 0.5, "h01": 1.0, "h02": 1.0, "h03": 0.0}
    assert overload_ratios(records) == overload_ratios(
        [record(r.t, r.per_host) for r in records])


def test_slavr_examples():
    assert slavr(5, 1000) == pytest.approx(0.005)
    assert slavr(0, 500) == 0.0
    assert slavr(0, 0) is None, "no requests means the metric is undefined"


def test_slavr_rejects_bad_counts():
    with pytest.raises(ValueError):
        slavr(-1, 10)
    with pytest.raises(ValueError):
        slavr(11, 10)


def test_slavr_pooling_additivity():
    rng = random.Random(13)
    for _ in range(200):
        parts = [(rng.randint(0, 50), rng.randint(50, 200)) for _ in range(4)]
        pooled = slavr(sum(e for e, _ in parts), sum(t for _, t in parts))
        weighted = sum(e for e, _ in parts) / sum(t for _, t in parts)
        assert pooled == pytest.approx(weighted)


def singles(samples):
    return [(s, 1) for s in samples]


def test_percentile_examples():
    assert nearest_rank_percentile(singles(range(1, 101)), 95) == 95
    assert nearest_rank_percentile(singles([42.0]), 99) == 42.0
    assert nearest_rank_percentile(singles([10, 10, 10, 1000]), 50) == 10


@pytest.mark.parametrize("n, k, rank", [(100, 55, 55), (100, 7, 7), (25, 28, 7)])
def test_percentile_rank_is_an_exact_ceiling(n, k, rank):
    # ceil(k/100 * N) in floats lands one rank high here: 55/100 * 100 is 55.00000000000001
    assert nearest_rank_percentile(singles(range(1, n + 1)), k) == rank


def test_percentile_rejects_empty_or_bad_k():
    with pytest.raises(ValueError):
        nearest_rank_percentile([], 95)
    with pytest.raises(ValueError):
        nearest_rank_percentile(singles([1.0]), 0)
    with pytest.raises(ValueError):
        nearest_rank_percentile(singles([1.0]), 101)


def test_percentile_monotone_and_bounded():
    rng = random.Random(19)
    for _ in range(200):
        samples = [rng.uniform(1, 1000) for _ in range(rng.randint(1, 60))]
        values = [nearest_rank_percentile(singles(samples), k) for k in (10, 50, 90, 99)]
        for a, b in zip(values, values[1:]):
            assert a <= b, "percentile must be monotone in k"
        assert min(samples) <= values[0] and values[-1] <= max(samples)


@settings(max_examples=300, deadline=None)
@given(groups=st.lists(st.tuples(st.floats(0.0, 1e4), st.integers(1, 30)), min_size=1,
                       max_size=25),
       k=st.integers(1, 100))
def test_percentile_of_groups_is_the_percentile_of_their_samples(groups, k):
    # the reference: nearest rank over the sorted list of expanded samples
    ordered = sorted(value for value, count in groups for _ in range(count))
    expected = ordered[math.ceil(Fraction(k, 100) * len(ordered)) - 1]
    assert nearest_rank_percentile(groups, k) == expected


def result_with(otr_mean=0.05, avg=300.0, p95=800.0, slavr_value=0.001):
    return RunResult(policy_name="LUCF", seed=1, energy_kwh=40.0, otr_mean=otr_mean,
                     avg_response_ms=avg, p_kth_response_ms=p95, slavr=slavr_value,
                     active_host_series=[], interval_records=[],
                     per_host_otr={"h00": otr_mean}, total_requests=1000, total_errors=1)


def test_constraints_pass_case():
    report = check_constraints(result_with(otr_mean=0.08), PolicyConfig(sla_alpha=0.1))
    otr_check = next(c for c in report.constraints if c.name == "otr_mean")
    assert otr_check.passed
    assert all(c.passed for c in report.constraints)


def test_constraints_slavr_failure():
    report = check_constraints(result_with(slavr_value=0.0424), PolicyConfig(sla_gamma=0.02))
    slavr_check = next(c for c in report.constraints if c.name == "slavr")
    assert not slavr_check.passed
    assert not all(c.passed for c in report.constraints)


def test_constraints_all_zero_metrics_pass():
    report = check_constraints(result_with(otr_mean=0.0, avg=0.0, p95=0.0, slavr_value=0.0),
                               PolicyConfig())
    assert all(c.passed for c in report.constraints)


def test_constraints_not_applicable_slavr_passes():
    report = check_constraints(result_with(slavr_value=None), PolicyConfig(sla_gamma=0.0))
    slavr_check = next(c for c in report.constraints if c.name == "slavr")
    assert slavr_check.passed
    assert slavr_check.actual is None


def test_constraints_report_carries_energy_and_percentile_name():
    report = check_constraints(result_with(), PolicyConfig(percentile_k=99))
    assert any(c.name == "p99_response_ms" for c in report.constraints)
