"""Domain types and configuration handling for the brownout simulator.

The object model mirrors a small container data center: a fleet of hosts,
each hosting replicas of mandatory and optional containers, driven by a
request trace and governed by a scaling/brownout policy.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from itertools import chain, count, repeat
from pathlib import Path

WEIGHT_SUM_TOL = 1e-9
EXACT_SEARCH_LIMIT = 16  # optional units a placement may carry; LUCF and MNCF search them exactly


class HostMode(str, Enum):
    SLEEP = "sleep"
    BOOTING = "booting"
    ACTIVE = "active"


POLICY_NAMES = ("NPA", "AUTOS", "LUCF", "MNCF", "RSC")

# Utilization -> watts curve for the reference machine, measured at 10%
# steps.  Sleep draw is flat.
DEFAULT_BREAKPOINTS = (
    (0.0, 201.0),
    (0.1, 206.0),
    (0.2, 211.0),
    (0.3, 213.0),
    (0.4, 216.0),
    (0.5, 221.0),
    (0.6, 223.0),
    (0.7, 225.0),
    (0.8, 231.0),
    (0.9, 233.0),
    (1.0, 237.0),
)
DEFAULT_SLEEP_POWER_W = 10.0
BREAKPOINT_WATTS = "[0, 1e9]"  # bounded, so that no energy total overflows


# ---------------------------------------------------------------------------
# Config schema: the scalar fields of SimConfig, PolicyConfig and
# ContainerSpec.  The annotation is the JSON type; metadata may give the JSON
# key (default: the name, under "policy." for PolicyConfig) and the allowed
# range in interval notation.  Load, dump and validation iterate the fields.

_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


def _knob(default=MISSING, within: str | None = None, key: str | None = None):
    """A schema field with a range, a JSON key other than the default, or both."""
    return field(default=default, metadata={"within": within, "key": key})


def _in_range(value, within: str) -> bool:
    lo, hi = (float(bound) for bound in within[1:-1].split(","))
    above = lo < value if within[0] == "(" else lo <= value
    below = value < hi if within[-1] == ")" else value <= hi
    return above and below


def _float(value) -> float:
    """A JSON number as a float; an integer beyond the float range is infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _field_problem(f, value) -> str | None:
    """What is wrong with a schema field's value: type, finiteness, range."""
    kind, _, nullable = f.type.partition(" | ")
    if value is None and nullable:
        return None
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _TYPES[kind]):
        return f"expected {kind}, got {type(value).__name__} {value!r}"
    if kind == "float" and not math.isfinite(number := _float(value)):
        return f"must be finite (got {number})"
    within = f.metadata.get("within")
    if within and not _in_range(value, within):
        return f"must be within {within} (got {value})"
    return None


@dataclass(frozen=True)
class PowerProfile:
    """Piecewise-linear utilization->power curve plus the sleep draw."""

    breakpoints: tuple = DEFAULT_BREAKPOINTS
    sleep_power_w: float = DEFAULT_SLEEP_POWER_W

    @cached_property
    def utilizations(self) -> tuple:
        return tuple(u for u, _ in self.breakpoints)

    @property
    def idle_power_w(self) -> float:
        return self.breakpoints[0][1]

    @property
    def max_power_w(self) -> float:
        return self.breakpoints[-1][1]

    def violations(self) -> list:
        prefix = "hosts.power_breakpoints"
        bps = self.breakpoints
        if len(bps) < 2:
            return [f"{prefix}: needs at least two breakpoints"]
        if not all(math.isfinite(x) for bp in bps for x in bp):
            return [f"{prefix}: every coordinate must be finite"]
        out = []
        if bps[0][0] != 0.0:
            out.append(f"{prefix}: first breakpoint must be at utilization 0.0")
        if bps[-1][0] != 1.0:
            out.append(f"{prefix}: last breakpoint must be at utilization 1.0")
        if any(b[0] <= a[0] for a, b in zip(bps, bps[1:])):
            out.append(f"{prefix}: utilizations must be strictly increasing")
        if any(b[1] < a[1] for a, b in zip(bps, bps[1:])):
            out.append(f"{prefix}: power must be non-decreasing")
        if not (0.0 <= self.sleep_power_w < math.inf):
            out.append(f"hosts.sleep_power_w: must be finite and >= 0 (got {self.sleep_power_w})")
        elif not out and self.sleep_power_w >= self.idle_power_w:
            out.append(f"hosts.sleep_power_w: must be below idle power ({self.idle_power_w} W)")
        out += [f"{prefix}: watts must be within {BREAKPOINT_WATTS} (got {w})"
                for _, w in bps if not _in_range(w, BREAKPOINT_WATTS)][:1]
        return out


@dataclass(frozen=True)
class ContainerSpec:
    """A container image in a service stack.

    weight is the share of one request's processing cost this container is
    responsible for; per service the weights sum to 1.  Optional containers
    may carry a connection_tag: same-tag containers on a host only function
    together and are deactivated together.
    """

    id: str
    service: str
    weight: float = _knob(within="[1e-9, 1]")  # scaled_services divides by weight sums
    optional: bool = False
    connection_tag: str | None = None
    replicas: int = _knob(1, "[1, 100000]")


@dataclass
class HostState:
    """A run: `count` consecutive hosts in one mode, boot countdown and active
    mask.  `containers` is their placement's ContainerSpecs, one tuple per
    distinct placement, whose index is `stack`, and `active` one on/off flag
    per container, a tuple the engine replaces.  A container is its position."""

    count: int = field(default=1, compare=False)  # equal runs: hosts in one state
    mode: HostMode = HostMode.ACTIVE
    boot_remaining: int = 0
    stack: int = 0
    containers: tuple = ()
    active: tuple = ()


@dataclass
class PolicyConfig:
    """Knobs shared by every policy run."""

    overloaded_threshold_u_t: float = _knob(0.8, "[0.5, 1]")
    optional_util_pct: float = _knob(0.0, "[0, 0.5]")  # 0 keeps the configured weights untouched
    window_size_L_w: int = _knob(5, "[1, inf)")
    # requests per interval one host absorbs; bounded so that 2**53 / n_o is finite
    capacity_n_o: float = _knob(25.0, "[1e-9, inf)")
    min_active_hosts: int = _knob(1, "[1, inf)")  # and at most hosts.count
    boot_delay: int = _knob(1, "[1, inf)", key="hosts.boot_delay")
    sla_alpha: float = _knob(0.1, "[0, 1]")
    sla_beta: float = _knob(1000.0, "(0, inf)")
    sla_phi: float = _knob(2000.0, "(0, inf)")
    sla_gamma: float = _knob(0.02, "[0, 1]")
    percentile_k: int = _knob(95, "[1, 100]")
    seed: int = 42
    # Fraction of the capacity freed by deactivated containers that the
    # auto-scaler is allowed to bank on.  0 sizes for the full stack at all
    # times, 1 trusts the shed state completely.
    capacity_credit: float = _knob(0.35, "[0, 1]")


@dataclass
class SimConfig:
    """One run's settings: the policy, the fleet, its stack, the knobs and the trace."""
    policy_name: str = "AUTOS"
    host_count: int = _knob(10, "[1, 100000]", key="hosts.count")
    power_profile: PowerProfile = field(default_factory=PowerProfile)
    services: list = field(default_factory=list)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    trace_path: str = _knob("", key="trace.path")
    trace_scale: float = _knob(1.0, "(0, inf)", key="trace.scale")
    interval_seconds: float = _knob(60.0, "(0, 1e9]", key="trace.interval_seconds")
    base_response_ms: float = _knob(100.0, "(0, 1e9]")


# (section, field, JSON key) per scalar knob; section "" holds SimConfig's
# own fields, "policy." PolicyConfig's.
SCHEMA = tuple((section, f, f.metadata.get("key") or section + f.name)
               for cls, section in ((SimConfig, ""), (PolicyConfig, "policy."))
               for f in fields(cls) if f.type.partition(" | ")[0] in _TYPES)


def with_values(cfg: SimConfig, values: dict) -> SimConfig:
    """A shallow copy of cfg with the config keys in values (SCHEMA's JSON keys) set."""
    given = [(section, f.name, values[key]) for section, f, key in SCHEMA if key in values]
    policy = replace(cfg.policy, **{name: v for section, name, v in given if section})
    return replace(cfg, policy=policy, **{name: v for section, name, v in given if not section})


def exact_sum(pairs) -> float:
    """Each (value, count) pair's value repeated count times, summed exactly
    rounded (`math.fsum`, after Shewchuk 1997): a run's every float total,
    so it depends on the values alone, not on order or on how hosts are cut.
    Exact for |value| below about 1.3e300 and counts below 2**52 (Dekker 1971)."""
    parts = []  # exact products of 26-bit halves of value and count
    for value, count in pairs:
        hi = (c := 134217729.0 * value) - (c - value)  # 2**27 + 1
        lo, high, low = value - hi, count >> 26, count & 67108863
        parts += (hi * low, lo * low)
        if high:  # only from 2**26 hosts; hosts.count is at most 100,000
            parts += (hi * high * 67108864.0, lo * high * 67108864.0)
    return math.fsum(parts)


class _Total(str):
    """A record's sum, over its pieces, of the class attribute this names, kept
    nowhere; not a property, so that bench/test_bench.py may override it by assignment."""

    def __get__(self, rec, owner=None):
        return self if rec is None else sum([getattr(cls, self) * n for cls, n in rec.pieces])


@dataclass(eq=False)
class IntervalRecord:
    """One interval's request and serving counts and its fleet as (class,
    count) pieces in host order: the next `count` hosts, by index, ended the
    interval in `class`.  Every total and per-host view reads the classes'
    power_w, overloaded flag, errors and deactivated count; hosts are named
    by index (`host_id`)."""

    t: int
    requests: int
    active_hosts: int
    pieces: list = field(default_factory=list, repr=False)

    def _each(self, attr: str):
        return chain.from_iterable([repeat(getattr(cls, attr), n) for cls, n in self.pieces])

    # (host_id, power_w, overloaded) per host
    per_host = property(lambda r: list(zip(map(host_id, count()), r._each("power_w"),
                                           r._each("overloaded"))))
    total_power_w = property(lambda r: exact_sum([(cls.power_w, n) for cls, n in r.pieces]))
    overloaded_hosts = property(lambda r: sum([n for cls, n in r.pieces if cls.overloaded]))
    errors = _Total("errors")
    deactivated_containers = _Total("deactivated")


@dataclass
class RunResult:
    """What one policy run reports: its energy and QoS totals and its interval records."""
    policy_name: str
    seed: int
    energy_kwh: float
    otr_mean: float
    avg_response_ms: float
    p_kth_response_ms: float
    slavr: float | None  # None marks no requests at all (not zero violations)
    active_host_series: list
    interval_records: list
    otr_runs: list  # overloaded time ratios: maximal (ratio, count) runs of hosts in host order
    total_requests: int
    total_errors: int

    # the runs expanded to a dict by host id (h100 follows h99) when read
    per_host_otr = property(lambda r: dict(zip(map(host_id, count()), chain.from_iterable(
        [repeat(ratio, n) for ratio, n in r.otr_runs]))))


# ---------------------------------------------------------------------------
# Validation


def validate_config(cfg: SimConfig) -> list:
    """Collect config violations as strings; an empty list means valid.

    Checks each schema field's type, finiteness and range, then the checks
    that span fields.  Violations are data for the caller, not exceptions.
    """
    v = [f"{key}: {problem}" for section, f, key in SCHEMA
         if (problem := _field_problem(f, getattr(cfg.policy if section else cfg, f.name)))]
    return v + _spanning_violations(cfg)


def _spanning_violations(cfg: SimConfig) -> list:
    v = []
    if cfg.policy_name not in POLICY_NAMES:
        v.append(f"policy_name: unknown policy {cfg.policy_name!r}, expected one of {'/'.join(POLICY_NAMES)}")
    floor, fleet = cfg.policy.min_active_hosts, cfg.host_count
    if type(floor) is int and type(fleet) is int and floor > fleet:
        v.append(f"policy.min_active_hosts: must be at most hosts.count {fleet} (got {floor})")
    services = _services_violations(cfg.services)
    if not services and type(fleet) is int and fleet >= 1:
        services = _placement_violations(cfg.services, fleet)
    return v + cfg.power_profile.violations() + services


def _services_violations(specs: list) -> list:
    if not specs:
        return ["services: at least one container spec is required"]
    v = [f"services[{i}].{f.name}: {problem}" for i, s in enumerate(specs)
         for f in fields(ContainerSpec) if (problem := _field_problem(f, getattr(s, f.name)))]
    if v:  # the checks below compare and add values of well-typed fields
        return v
    seen = set()
    services = {}
    for i, s in enumerate(specs):
        if s.id in seen:
            v.append(f"services[{i}].id: duplicate container id {s.id!r}")
        seen.add(s.id)
        if s.connection_tag is not None and not s.optional:
            v.append(f"services[{i}].connection_tag: only applies to optional containers")
        services.setdefault(s.service, []).append(s)
    for name, group in services.items():
        total = sum(s.weight for s in group)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            v.append(f"services ({name}): container weights must sum to 1 (got {total!r})")
        if all(s.optional for s in group):
            v.append(f"services ({name}): needs at least one mandatory container")
    return v


def _placement_violations(specs: list, fleet: int) -> list:
    """Round-robin placement gives h00 the most replicas of every spec, so its
    optional units (a connection tag counts once) bound every placement's."""
    optional = [s for s in specs if s.optional]
    units = len({s.connection_tag for s in optional} - {None}) + sum(
        -(-s.replicas // fleet) for s in optional if s.connection_tag is None)
    if units <= EXACT_SEARCH_LIMIT:
        return []
    return [f"services: {host_id(0)} carries {units} optional units (a connection tag counts "
            f"once), more than the {EXACT_SEARCH_LIMIT} that LUCF and MNCF search exactly"]


def scaled_services(services: list, optional_util_pct: float) -> list:
    """Rescale container weights so optional weight per service equals the
    requested fraction.  A pct of 0 means "as configured"."""
    if optional_util_pct <= 0:
        return list(services)
    out = []
    by_service = {}
    for s in services:
        by_service.setdefault(s.service, []).append(s)
    for name, specs in by_service.items():
        opt = sum(s.weight for s in specs if s.optional)
        mand = sum(s.weight for s in specs if not s.optional)
        if opt <= 0 or mand <= 0:
            out.extend(specs)
            continue
        for s in specs:
            f = optional_util_pct / opt if s.optional else (1.0 - optional_util_pct) / mand
            out.append(replace(s, weight=s.weight * f))
    return out


def place_replicas(cfg: SimConfig) -> list:
    """Round-robin the replicas of each spec across the fleet.

    Returns (count, spec ids) stretches of consecutive hosts, lowest index
    first, that cover the fleet: each host takes replicas // hosts copies of
    a spec, the first replicas % hosts one more.  Each cut lowers some spec's
    copies by one, and copies never rise with the index: no two stretches are equal.
    """
    fleet = cfg.host_count
    cuts = sorted({0, fleet} | {s.replicas % fleet for s in cfg.services})
    return [(hi - lo, tuple([s.id for s in cfg.services
                             for _ in range(s.replicas // fleet + (lo < s.replicas % fleet))]))
            for lo, hi in zip(cuts, cuts[1:])]


def host_id(index: int) -> str:
    return f"h{index:02d}"


# ---------------------------------------------------------------------------
# JSON config round trip


def config_to_dict(cfg: SimConfig) -> dict:
    out = {
        "hosts": {
            "power_breakpoints": [list(bp) for bp in cfg.power_profile.breakpoints],
            "sleep_power_w": cfg.power_profile.sleep_power_w,
        },
        "services": [
            {k: v for k, v in asdict(s).items() if not (k == "connection_tag" and v is None)}
            for s in cfg.services
        ],
    }
    for section, f, key in SCHEMA:
        *parent, name = key.split(".")
        target = out.setdefault(parent[0], {}) if parent else out
        target[name] = getattr(cfg.policy if section else cfg, f.name)
    return out


_KNOWN_KEYS = frozenset([key for _, _, key in SCHEMA] + [
    "hosts.power_breakpoints", "hosts.sleep_power_w"])


def config_from_dict(raw: dict, base_dir: str | None = None) -> SimConfig:
    """Build a SimConfig from parsed JSON, values as given for validate_config.

    Keys starting with '_' are comments.  Unknown keys and services missing
    a required field raise one ValueError naming them all.  Relative trace
    paths resolve against base_dir (normally the config file's directory).
    """
    flat = {}
    for key, value in _clean(raw, "config").items():
        if key in ("hosts", "policy", "trace"):
            flat.update((f"{key}.{k}", v) for k, v in _clean(value, key).items())
        else:
            flat[key] = value
    services = flat.pop("services", [])
    if not isinstance(services, list):
        raise ValueError(f"services: expected a list, got {type(services).__name__}")
    specs = [{"service": "app", **_clean(s, f"services[{i}]")} for i, s in enumerate(services)]
    # a dotted top-level key such as "policy.seed" must not alias a section key
    problems = [f"{key}: unknown key" for key in flat
                if key not in _KNOWN_KEYS or ("." in key and key in raw)]
    for i, s in enumerate(specs):
        problems += [f"services[{i}].{k}: unknown key" for k in s
                     if k not in ContainerSpec.__dataclass_fields__]
        problems += [f"services[{i}].{f.name}: required" for f in fields(ContainerSpec)
                     if f.default is MISSING and f.name not in s]
    if problems:
        raise ValueError("; ".join(problems))

    cfg = with_values(SimConfig(power_profile=_power_profile(flat),
                                services=[ContainerSpec(**s) for s in specs]), flat)
    path = cfg.trace_path
    if base_dir and isinstance(path, str) and path and not Path(path).is_absolute():
        cfg.trace_path = str((Path(base_dir) / path).resolve())
    return cfg


def _clean(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"{where}: expected an object, got {type(d).__name__}")
    return {k: v for k, v in d.items() if not k.startswith("_")}


def _power_profile(flat: dict) -> PowerProfile:
    sleep_w = _number(flat.get("hosts.sleep_power_w", DEFAULT_SLEEP_POWER_W), "hosts.sleep_power_w")
    bps = flat.get("hosts.power_breakpoints", DEFAULT_BREAKPOINTS)
    if not isinstance(bps, (list, tuple)) or not all(
            isinstance(bp, (list, tuple)) and len(bp) == 2 for bp in bps):
        raise ValueError(f"hosts.power_breakpoints: expected [utilization, watts] pairs, got {bps!r}")
    bps = tuple(tuple(_number(x, "hosts.power_breakpoints") for x in bp) for bp in bps)
    return PowerProfile(breakpoints=bps, sleep_power_w=sleep_w)


def _number(value, key: str) -> float:
    """A JSON number as a float; anything else raises ValueError naming key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key}: expected float, got {type(value).__name__} {value!r}")
    return _float(value)


def load_config(path: str) -> SimConfig:
    p = Path(path)
    with open(p) as fh:
        raw = json.load(fh)
    return config_from_dict(raw, base_dir=str(p.parent))


def dump_config(cfg: SimConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
