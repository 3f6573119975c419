"""Per-layer tracing of brownsim, taken from outside the package.

Every wrapper times one call into a module's public function and keeps a
span stack, so each span knows how much of its time its children covered
(self time = duration minus children).  Wrappers are bound where the caller
looks the name up: on `brownsim.engine` for the names it imports, on
`brownsim.cli` for the ones the CLI imports, and on the `Simulation` class
for `step` and `run`.  `installed` puts them in place and always restores
the originals, so nothing under `src/brownsim` needs a hook.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (attribute looked up by brownsim.engine, span name)
ENGINE_NAMES = (
    ("route_demand", "engine.route_demand"),
    ("derive_utilization", "engine.derive_utilization"),
    ("synthesize_response", "engine.synthesize_response"),
    ("validate_config", "model.validate_config"),
    ("autoscale", "policies.autoscale"),
    ("brownout_step", "policies.brownout_step"),
    ("hum", "power.hum"),
    ("accumulate_energy", "power.accumulate_energy"),
    ("nearest_rank_percentile", "qos.nearest_rank_percentile"),
    ("overload_ratios", "qos.overload_ratios"),
    ("predict_rate", "workload.predict_rate"),
)
# (attribute looked up by brownsim.cli, span name)
CLI_NAMES = (
    ("main", "cli.main"),
    ("load_config", "model.load_config"),
    ("validate_config", "model.validate_config"),
    ("load_trace", "workload.load_trace"),
    ("check_constraints", "qos.check_constraints"),
)


class Tracer:
    """Span totals, self times and call counts per name, plus counters."""

    def __init__(self):
        self.stats = {}  # name -> [total_s, self_s, calls]
        self.durations = {}  # name -> per-call seconds, for names wrapped with keep=True
        self.counts = {}
        self._stack = []

    def wrap(self, name: str, fn, keep: bool = False, after=None):
        """Return fn timed under `name`; `after(args, result)` runs once the
        span has closed, to count what the call was offered and returned."""
        stat = self.stats.setdefault(name, [0.0, 0.0, 0])
        durations = self.durations.setdefault(name, []) if keep else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[0] += elapsed
                stat[1] += elapsed - child
                stat[2] += 1
                if durations is not None:
                    durations.append(elapsed)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self, name: str) -> float:
        return self.stats.get(name, (0.0, 0.0, 0))[0]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0.0, 0.0, 0))[2]


def _count_selection(tracer: Tracer):
    def after(args, picked):
        items = args[0]
        tags = {it.connection_tag for it in items if it.connection_tag is not None}
        singles = sum(1 for it in items if it.connection_tag is None)
        tracer.count("policies.select.units_offered", singles + len(tags))
        if items and len(set(picked)) == len(items):
            tracer.count("policies.select.all_picked")
    return after


def _count_samples(tracer: Tracer):
    def after(args, result):
        # response_samples_ms is expected to go away with an aggregate
        # response model; then the count reads 0 instead of failing.
        tracer.count("engine.response_samples", sum(
            len(getattr(rec, "response_samples_ms", ())) for rec in result.interval_records))
    return after


@contextmanager
def installed(tracer: Tracer, engine, policies, cli):
    """Bind traced wrappers into the given brownsim modules, then restore.

    Selectors are swapped inside `policies.SELECTORS` (the dict the engine
    imported), so this must be entered before a `Simulation` is built.
    `brownout_step` passes the rng only when `selector is select_rsc`, so
    `policies.select_rsc` is rebound to the same RSC wrapper.
    """
    sim = engine.Simulation
    # A name the program no longer has is skipped; its metrics then read 0.
    patches = [(owner, attr, tracer.wrap(name, getattr(owner, attr)))
               for owner, names in ((engine, ENGINE_NAMES), (cli, CLI_NAMES))
               for attr, name in names if hasattr(owner, attr)]
    patches.append((sim, "step", tracer.wrap("engine.step", vars(sim)["step"], keep=True)))
    patches.append((sim, "run", tracer.wrap("engine.run", vars(sim)["run"],
                                            after=_count_samples(tracer))))
    selectors = dict(policies.SELECTORS)
    traced_selectors = {key: tracer.wrap("policies.select", fn, after=_count_selection(tracer))
                        for key, fn in selectors.items()}
    patches.append((policies, "select_rsc", traced_selectors["RSC"]))

    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        policies.SELECTORS.update(traced_selectors)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
        policies.SELECTORS.clear()
        policies.SELECTORS.update(selectors)
