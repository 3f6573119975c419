import copy
import importlib
import json
import math
import pkgutil
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from brownsim.model import (
    _KNOWN_KEYS,
    DEFAULT_BREAKPOINTS,
    EXACT_SEARCH_LIMIT,
    SCHEMA,
    ContainerSpec,
    HostMode,
    HostState,
    IntervalRecord,
    PolicyConfig,
    PowerProfile,
    RunResult,
    SimConfig,
    config_from_dict,
    config_to_dict,
    dump_config,
    exact_sum,
    host_id,
    load_config,
    place_replicas,
    scaled_services,
    validate_config,
    with_values,
)
from brownsim.qos import ConstraintCheck, QosReport
from brownsim.workload import Trace
from builders import response_groups, shop_services
from reference_engine import place


def sample_config(**overrides):
    cfg = SimConfig(policy_name="LUCF", host_count=4, services=shop_services(4),
                    trace_path="trace.csv")
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_valid_config_has_no_violations():
    assert validate_config(sample_config()) == []


def test_unknown_policy_flagged():
    violations = validate_config(sample_config(policy_name="BOGUS"))
    assert any("policy_name" in v for v in violations)


def test_weights_must_sum_to_one():
    services = shop_services(4)
    services[0] = ContainerSpec(id="web", service="shop", weight=0.30, replicas=4)
    violations = validate_config(sample_config(services=services))
    assert any("sum to 1" in v for v in violations)


def test_every_service_needs_a_mandatory_container():
    services = [
        ContainerSpec(id="a", service="solo", weight=0.5, optional=True),
        ContainerSpec(id="b", service="solo", weight=0.5, optional=True),
    ]
    violations = validate_config(sample_config(services=services))
    assert any("mandatory" in v for v in violations)


def test_connection_tag_requires_optional():
    services = shop_services(4)
    services[0] = ContainerSpec(id="web", service="shop", weight=0.35,
                                connection_tag="x", replicas=4)
    violations = validate_config(sample_config(services=services))
    assert any("connection_tag" in v for v in violations)


def test_duplicate_ids_flagged():
    services = shop_services(4) + [ContainerSpec(id="web", service="other", weight=1.0)]
    violations = validate_config(sample_config(services=services))
    assert any("duplicate" in v for v in violations)


def test_optional_pct_bound():
    cfg = sample_config()
    cfg.policy = PolicyConfig(optional_util_pct=0.6)
    violations = validate_config(cfg)
    assert any("optional_util_pct" in v for v in violations)


def test_threshold_bound():
    cfg = sample_config()
    cfg.policy = PolicyConfig(overloaded_threshold_u_t=0.4)
    violations = validate_config(cfg)
    assert any("overloaded_threshold_u_t" in v for v in violations)


def test_breakpoints_must_cover_full_range():
    cfg = sample_config(power_profile=PowerProfile(
        breakpoints=((0.0, 201.0), (0.9, 233.0)), sleep_power_w=10.0))
    violations = validate_config(cfg)
    assert any("1.0" in v for v in violations)


def test_sleep_power_below_idle():
    cfg = sample_config(power_profile=PowerProfile(
        breakpoints=((0.0, 201.0), (1.0, 237.0)), sleep_power_w=220.0))
    violations = validate_config(cfg)
    assert any("sleep_power_w" in v for v in violations)


def test_decreasing_power_flagged():
    cfg = sample_config(power_profile=PowerProfile(
        breakpoints=((0.0, 210.0), (0.5, 205.0), (1.0, 237.0)), sleep_power_w=10.0))
    violations = validate_config(cfg)
    assert any("non-decreasing" in v for v in violations)


def test_energy_inputs_are_validated():
    # the engine adds watts x seconds with no check of its own
    assert any("trace.interval_seconds" in v
               for v in validate_config(sample_config(interval_seconds=0.0)))
    below_zero = sample_config(power_profile=PowerProfile(
        breakpoints=((0.0, -1.0), (1.0, 237.0)), sleep_power_w=0.0))
    assert any("sleep_power_w" in v for v in validate_config(below_zero))


def test_min_active_hosts_within_fleet():
    cfg = sample_config()
    cfg.policy = PolicyConfig(min_active_hosts=9)
    violations = validate_config(cfg)
    assert any("min_active_hosts" in v for v in violations)


def test_scaled_services_moves_weight_to_requested_share():
    for pct in (0.1, 0.2, 0.3, 0.4):
        scaled = scaled_services(shop_services(4), pct)
        opt = sum(s.weight for s in scaled if s.optional)
        total = sum(s.weight for s in scaled)
        assert opt == pytest.approx(pct, abs=1e-9)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_scaled_services_zero_keeps_weights():
    original = shop_services(4)
    assert scaled_services(original, 0.0) == original


@settings(max_examples=60, deadline=None)
@given(replicas=st.lists(st.integers(1, 120), min_size=1, max_size=6), fleet=st.integers(1, 50))
def test_place_replicas_matches_per_host_round_robin(replicas, fleet):
    services = [ContainerSpec(id=f"c{i}", service="s", weight=1 / len(replicas), replicas=r)
                for i, r in enumerate(replicas)]
    cfg = sample_config(host_count=fleet, services=services)
    stretches = place_replicas(cfg)
    assert [list(ids) for count, ids in stretches for _ in range(count)] == place(cfg)
    assert all(count >= 1 for count, _ in stretches)
    assert len({ids for _, ids in stretches}) == len(stretches), "stretches are pairwise distinct"
    assert sum(count for count, _ in stretches) == fleet
    assert sum(count * len(ids) for count, ids in stretches) == sum(replicas)


def test_place_replicas_round_robin_overflow():
    cfg = sample_config(host_count=3)  # 4 replicas of each of 5 specs
    twice = tuple(s.id for s in cfg.services for _ in range(2))
    assert place_replicas(cfg) == [(1, twice), (2, twice[::2])], (
        "first host takes the wrapped replicas")


def _optional_units(cfg):
    """The most optional units (a connection tag counts once) on any host of
    `place_replicas`' placement."""
    specs = {s.id: s for s in cfg.services}
    most = 0
    for _, ids in place_replicas(cfg):
        placed = [specs[sid] for sid in ids if specs[sid].optional]
        tags = {s.connection_tag for s in placed} - {None}
        most = max(most, len(tags) + sum(s.connection_tag is None for s in placed))
    return most


@pytest.mark.parametrize("untagged, replicas, tagged, hosts, units", [
    (16, 1, 0, 1, 16), (17, 1, 0, 1, 17), (16, 1, 2, 1, 17), (15, 1, 3, 1, 16),
    (9, 2, 0, 1, 18), (9, 2, 0, 2, 9), (9, 3, 0, 2, 18), (9, 3, 0, 3, 9)])
def test_placement_beyond_exact_search_limit_is_rejected(untagged, replicas, tagged, hosts,
                                                          units):
    # LUCF and MNCF search every subset of a host's units exactly, so no
    # placement may carry more than EXACT_SEARCH_LIMIT; a connection tag
    # counts once, and a spec with more replicas than hosts counts on h00
    # once per replica it places there
    weight = 0.5 / (untagged + tagged)
    services = [ContainerSpec(id="web", service="s", weight=0.5, replicas=hosts)] + [
        ContainerSpec(id=f"o{i}", service="s", weight=weight, optional=True, replicas=replicas)
        for i in range(untagged)] + [
        ContainerSpec(id=f"t{i}", service="s", weight=weight, optional=True, replicas=replicas,
                      connection_tag="pair") for i in range(tagged)]
    cfg = sample_config(host_count=hosts, services=services)
    assert _optional_units(cfg) == units
    violations = [v for v in validate_config(cfg) if "optional units" in v]
    assert bool(violations) == (units > EXACT_SEARCH_LIMIT)
    assert all(v.startswith("services: ") and f"{units} optional units" in v for v in violations)


def test_config_roundtrip_through_dict():
    cfg = sample_config()
    cfg.policy = PolicyConfig(seed=99, capacity_credit=0.5, optional_util_pct=0.3)
    back = config_from_dict(config_to_dict(cfg))
    assert back.policy_name == cfg.policy_name
    assert back.host_count == cfg.host_count
    assert back.services == cfg.services
    assert back.policy == cfg.policy
    assert back.power_profile == cfg.power_profile
    assert back.trace_scale == cfg.trace_scale


def test_config_roundtrip_through_file(tmp_path):
    cfg = sample_config()
    path = tmp_path / "cfg.json"
    dump_config(cfg, str(path))
    back = load_config(str(path))
    # relative trace paths resolve against the config file's directory
    assert back.trace_path == str(tmp_path / "trace.csv")
    want = config_to_dict(cfg)
    got = config_to_dict(back)
    want["trace"].pop("path")
    got["trace"].pop("path")
    assert got == want


def test_underscore_keys_are_comments():
    raw = config_to_dict(sample_config())
    raw["_note"] = "ignore me"
    raw["policy"]["_hint"] = "me too"
    raw["services"][0]["_why"] = "and me"
    cfg = config_from_dict(raw)
    assert validate_config(cfg) == []


def test_relative_trace_path_resolves_against_config_dir(tmp_path):
    raw = config_to_dict(sample_config())
    raw["trace"]["path"] = "data/t.csv"
    cfg = config_from_dict(raw, base_dir=str(tmp_path))
    assert cfg.trace_path.startswith(str(tmp_path))


def _drawn(f):
    """Values of one schema field, drawn from its declared type and range."""
    kind = f.type.partition(" | ")[0]
    if kind == "str":
        return st.text(max_size=12)
    within = f.metadata.get("within")
    if within is None:
        return st.integers() if kind == "int" else st.floats(allow_nan=False, allow_infinity=False)
    lo, hi = (float(bound) for bound in within[1:-1].split(","))
    lo_open, hi_open = within[0] == "(", within[-1] == ")"
    if kind == "int":
        return st.integers(min_value=int(lo) + lo_open, max_value=int(min(hi, 1e6)) - (hi_open and hi < 1e6))
    return st.floats(min_value=lo, max_value=min(hi, 1e12), exclude_min=lo_open,
                     exclude_max=hi_open and hi < 1e12)


def _section(section):
    return st.fixed_dictionaries({f.name: _drawn(f) for s, f, _ in SCHEMA if s == section})


@settings(max_examples=150, deadline=None)
@given(own=_section(""), policy=_section("policy."))
def test_schema_round_trip(own, policy):
    cfg = SimConfig(**own, services=shop_services(4), policy=PolicyConfig(**policy))
    assert config_from_dict(config_to_dict(cfg)) == cfg
    text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
    again = config_from_dict(json.loads(text))
    assert json.dumps(config_to_dict(again), indent=2, sort_keys=True) == text
    # every value inside the declared ranges passes the per-field checks
    flagged = {v.split(":")[0] for v in validate_config(cfg)}
    assert flagged <= {"policy_name", "policy.min_active_hosts"}


@settings(max_examples=100, deadline=None)
@given(own=_section(""), policy=_section("policy."))
def test_with_values_sets_every_key_and_leaves_the_original(own, policy):
    base = sample_config()
    before = copy.deepcopy(base)
    values = {key: (policy if section else own)[f.name] for section, f, key in SCHEMA}
    cfg = with_values(base, values)
    assert base == before
    assert cfg == SimConfig(**own, power_profile=base.power_profile, services=base.services,
                            policy=PolicyConfig(**policy))
    assert with_values(base, {}) == base and with_values(base, {}) is not base


def test_readme_config_tables_list_exactly_the_known_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Config\n", 1)[1].split("\n## ", 1)[0]
    tables, rows = [], []  # first-column keys of each table, in order
    for line in section.splitlines() + [""]:
        if line.startswith("|"):
            rows.append(line.split("|")[1].strip().strip("`"))
        elif rows:
            tables.append(rows[2:])  # past the header and its rule
            rows = []
    config_keys, service_keys = tables
    assert sorted(config_keys) == sorted(_KNOWN_KEYS)
    assert service_keys == [f.name for f in fields(ContainerSpec)]


# Finite values from subnormal to 1e300, both signs; counts as a piece's hosts.
PAIRS = st.lists(st.tuples(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
                           st.integers(min_value=0, max_value=1000)), max_size=8)


@settings(max_examples=200, deadline=None)
@given(pairs=PAIRS, rng=st.randoms(use_true_random=False), data=st.data())
def test_exact_sum_depends_on_the_values_alone(pairs, rng, data):
    total = exact_sum(pairs)
    assert total == math.fsum([value for value, count in pairs for _ in range(count)])
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert exact_sum(shuffled) == total
    if pairs:  # one piece cut in two
        i = data.draw(st.integers(0, len(pairs) - 1))
        value, count = pairs[i]
        k = data.draw(st.integers(0, count))
        assert exact_sum(pairs[:i] + [(value, k), (value, count - k)] + pairs[i + 1:]) == total
    merged = Counter()  # pieces of one value joined
    for value, count in pairs:
        merged[value] += count
    assert exact_sum(merged.items()) == total


def exactly_rounded(pairs):
    """The sum of each value repeated count times in exact rational
    arithmetic, rounded to a float once."""
    return float(sum([Fraction(value) * count for value, count in pairs], Fraction(0)))


@settings(max_examples=50, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
                                st.integers(min_value=0, max_value=100_000)), max_size=3))
def test_exact_sum_is_the_repeated_sum_up_to_100000_hosts(pairs):
    assert exact_sum(pairs) == math.fsum([value for value, count in pairs for _ in range(count)])


# Counts past 2**26, where one half of a value times the whole count could
# round; values kept small enough that value * 2**50 stays finite.
@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(min_value=-1e250, max_value=1e250, allow_nan=False),
                                st.integers(min_value=2**26, max_value=2**50)),
                      min_size=1, max_size=8))
def test_exact_sum_is_exactly_rounded_for_counts_up_to_2_50(pairs):
    assert exact_sum(pairs) == exactly_rounded(pairs)


def test_an_interval_record_reads_every_total_from_its_pieces():
    hot = SimpleNamespace(power_w=0.1, overloaded=True, group=(150.0, 20), errors=3,
                          deactivated=2)
    asleep = SimpleNamespace(power_w=10.0, overloaded=False, group=(0.0, 0), errors=0,
                             deactivated=0)
    calm = SimpleNamespace(power_w=221.5, overloaded=False, group=(120.0, 25), errors=1,
                           deactivated=1)
    record = IntervalRecord(t=4, requests=173, active_hosts=7,
                            pieces=[(hot, 3), (asleep, 2), (calm, 4)])
    assert list(vars(record)) == ["t", "requests", "active_hosts", "pieces"]
    assert record.errors == 3 * 3 + 1 * 4
    assert record.deactivated_containers == 2 * 3 + 1 * 4
    assert record.total_power_w == math.fsum([0.1] * 3 + [10.0] * 2 + [221.5] * 4)
    assert record.overloaded_hosts == 3
    assert response_groups(record) == [(150.0, 20)] * 3 + [(120.0, 25)] * 4


def test_per_host_otr_expands_the_runs_by_host_index():
    result = RunResult(policy_name="LUCF", seed=1, energy_kwh=1.0, otr_mean=0.0,
                       avg_response_ms=0.0, p_kth_response_ms=0.0, slavr=None,
                       active_host_series=[], interval_records=[],
                       otr_runs=[(0.0, 99), (0.5, 2), (0.0, 1)], total_requests=0,
                       total_errors=0)
    ratios = result.per_host_otr
    assert list(ratios) == [host_id(i) for i in range(102)]
    assert [h for h, r in ratios.items() if r] == ["h99", "h100"] and ratios["h100"] == 0.5


def test_only_the_config_schema_is_made_of_dataclasses():
    # The run-time types are plain classes: a dataclass generates its methods
    # with exec at every import, and every run pays the import.
    brownsim = importlib.import_module("brownsim")
    modules = [importlib.import_module(f"brownsim.{m.name}")
               for m in pkgutil.iter_modules(brownsim.__path__)]
    assert {name for m in modules for name, obj in vars(m).items() if isinstance(obj, type)
            and obj.__module__ == m.__name__ and is_dataclass(obj)} == {
        "SimConfig", "PolicyConfig", "ContainerSpec"}

    # runs are equal when their hosts share one state, whatever their counts
    run = HostState(3, HostMode.BOOTING, 2, 1, (ContainerSpec("web", "shop", 1.0),), (True,))
    assert run == HostState(7, HostMode.BOOTING, 2, 1, run.containers, (True,))
    for other in [HostState(3, HostMode.ACTIVE, 2, 1, run.containers, (True,)),
                  HostState(3, HostMode.BOOTING, 1, 1, run.containers, (True,)),
                  HostState(3, HostMode.BOOTING, 2, 0, run.containers, (True,)),
                  HostState(3, HostMode.BOOTING, 2, 1, (), (True,)),
                  HostState(3, HostMode.BOOTING, 2, 1, run.containers, (False,)), "run"]:
        assert run != other
    with pytest.raises(TypeError):
        hash(run)
    fresh = HostState()
    assert not hasattr(fresh, "__dict__")  # slotted
    assert (fresh.count, fresh.mode, fresh.boot_remaining, fresh.stack, fresh.containers,
            fresh.active) == (1, HostMode.ACTIVE, 0, 0, (), ())

    record = IntervalRecord(0, 5, 1, [(SimpleNamespace(deactivated=2), 1)])
    assert record == record and record != IntervalRecord(0, 5, 1, record.pieces)
    record.deactivated_containers += 1  # what bench/test_bench.py does to a record
    assert record.deactivated_containers == 3
    assert IntervalRecord(0, 5, 1, record.pieces).deactivated_containers == 2

    profile = PowerProfile()
    assert profile == PowerProfile(DEFAULT_BREAKPOINTS, 10.0) != PowerProfile(sleep_power_w=5.0)
    assert hash(profile) == hash(PowerProfile(tuple([(u, w) for u, w in DEFAULT_BREAKPOINTS])))
    assert profile.utilizations == tuple(u for u, _ in DEFAULT_BREAKPOINTS)
    malformed = PowerProfile(breakpoints=((0.0,),), sleep_power_w=-1.0)  # constructs all the same
    assert validate_config(sample_config(power_profile=malformed))

    given = dict(policy_name="LUCF", seed=1, energy_kwh=1.0, otr_mean=0.0, avg_response_ms=0.0,
                 p_kth_response_ms=0.0, slavr=None, active_host_series=[], interval_records=[],
                 otr_runs=[], total_requests=0, total_errors=0)
    result = RunResult(**given)
    assert vars(result) == given and result != RunResult(**given)
    for wrong in [{k: v for k, v in given.items() if k != "seed"}, {**given, "extra": 1}]:
        with pytest.raises(TypeError):
            RunResult(**wrong)

    assert Trace([1, 2], 30.0) == Trace([1, 2], 30.0) != Trace([1, 2]) and len(Trace([1, 2])) == 2
    check = ConstraintCheck("slavr", 0.02, None, True)
    assert hash(check) == hash(ConstraintCheck("slavr", 0.02, None, True))
    assert QosReport([check]) == QosReport([check]) != QosReport()


@pytest.mark.parametrize("value", [5e-324, -5e-324, 1e300, -1e300])
@pytest.mark.parametrize("count", [1, 3, 2**26 - 1, 2**26, 2**26 + 1, 10**8])
def test_exact_sum_holds_at_both_ends_of_its_range(value, count):
    # the smallest subnormal and the largest magnitude the docstring promises
    for pairs in ([(value, count)], [(value, count), (0.1, 7)],
                  [(value, count), (-value, count - 1)]):
        assert exact_sum(pairs) == exactly_rounded(pairs), pairs
    assert exact_sum([(value, count), (-value, count - 1)]) == value
