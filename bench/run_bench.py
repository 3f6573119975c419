"""brownsim benchmark: time, set-up time and memory of three batch replays.

    python3 bench/run_bench.py --workload sweep-sample --seed 3 --seconds 40 --trace 0

Run from anywhere; the script works on the checkout it sits in: it imports
`src/brownsim`, reads `configs/sample.json`, and writes its generated
inputs and the sweep's result files under `.bench_work/`, which it removes
before exiting.  Everything runs in this one process and thread.

Workloads (each simulation replays the whole day back to back; there is no
arrival process):

  sweep-sample  `brownsim compare` in-process on the sample config over
                5 policies x u_t {0.7, 0.8} x optional share {0.0, 0.4}:
                20 cells, 5.8M requests.  The only workload that goes
                through the CLI, which re-reads the trace and writes files
                for every cell; per-request engine and qos work (response
                samples and their percentile) and its memory dominate.
  fleet-100     One LUCF simulation on 100 hosts at trace scale 10: 2.9M
                requests.  Per-request engine and qos work and memory
                dominate; the selectors do little.
  dense-stack   LUCF, MNCF and RSC on 10 hosts, each carrying 2 mandatory
                and 16 optional containers (15 selection units), over two
                seeded day traces.  The brownout selectors dominate;
                per-request work is small.

Every input comes from `--seed`: the request traces (the diurnal day
generator, reimplemented here so the inputs do not move when the program
changes) and the policy seed.  The program receives only the generated
config and trace files.

`--trace 0` prints the end-to-end metrics: `wall_s`, the median time of one
pass over as many passes as fit in `--seconds`; `setup_s`, the median over
repeated set-ups of import, load_config, validate_config, load_trace and
building the first Simulation; and `peak_mem_mb`, the peak resident set of
this process.  Both times are host time converted to reference seconds by
sampling the machine's speed while the work runs (see speed.py), because a
shared host's speed drifts by more than any bound; the plain host times are
printed beside them.  `--trace 1` alternates untraced passes with
passes traced from outside (see layers.py) and prints per-layer metrics.

Every pass checks its outputs, and a digest of the simulated statistics
must be identical across all passes of a run, traced or not.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Exit code 2 means the checkout lacks what the benchmark needs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from layers import Tracer, installed
from speed import measured

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("sweep-sample", "fleet-100", "dense-stack")
SETUPS_PER_PASS = 5

SWEEP_POLICIES = ("NPA", "AUTOS", "LUCF", "MNCF", "RSC")
SWEEP_THRESHOLDS = (0.7, 0.8)
SWEEP_SHARES = (0.0, 0.4)
FLEET_HOSTS = 100
FLEET_SCALE = 10.0
DENSE_POLICIES = ("LUCF", "MNCF", "RSC")
DENSE_SECOND_TRACE = 1_000_003  # added to the run's seed
# 2 mandatory containers plus 16 optional ones of 0.025: 14 untagged and a
# tagged pair make 15 units, just under the selectors' exact-search limit.
DENSE_STACK = (
    [{"id": "web", "service": "shop", "weight": 0.35, "optional": False, "replicas": 10},
     {"id": "db", "service": "shop", "weight": 0.25, "optional": False, "replicas": 10}]
    + [{"id": f"opt{i:02d}", "service": "shop", "weight": 0.025, "optional": True,
        "replicas": 10, **({"connection_tag": "pair"} if i >= 14 else {})}
       for i in range(16)]
)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_mem_mb", "MB"))
PER_LAYER = (
    ("engine.step.s", "s"), ("engine.step.self_s", "s"), ("engine.step.calls", "count"),
    ("engine.step_ms.p50", "ms"), ("engine.step_ms.p99", "ms"),
    ("engine.synthesize_response.s", "s"), ("engine.synthesize_response.calls", "count"),
    ("engine.response_samples", "count"), ("engine.derive_utilization.s", "s"),
    ("engine.route_demand.s", "s"), ("engine.result.s", "s"),
    ("qos.nearest_rank_percentile.s", "s"), ("qos.overload_ratios.s", "s"),
    ("qos.check_constraints.s", "s"),
    ("power.hum.s", "s"), ("power.hum.calls", "count"), ("power.accumulate_energy.s", "s"),
    ("policies.brownout_step.s", "s"), ("policies.brownout_step.calls", "count"),
    ("policies.select.s", "s"), ("policies.select.calls", "count"),
    ("policies.select.units_offered", "count"), ("policies.select.all_picked_ratio", "ratio"),
    ("policies.autoscale.s", "s"),
    ("workload.load_trace.s", "s"), ("workload.load_trace.calls", "count"),
    ("workload.predict_rate.s", "s"),
    ("model.load_config.s", "s"), ("model.validate_config.s", "s"),
    ("model.validate_config.calls", "count"),
    ("cli.main.s", "s"), ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"), ("failed_ops_ratio", "ratio"),
)


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program or inputs)."""


# ---------------------------------------------------------------------------
# Program and inputs


def import_brownsim() -> SimpleNamespace:
    """Import the checkout's brownsim afresh, dropping any earlier import."""
    src = ROOT / "src"
    if not (src / "brownsim" / "__init__.py").is_file():
        raise BenchError(f"no brownsim package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "brownsim" or m.startswith("brownsim.")]:
        del sys.modules[name]
    names = ("model", "engine", "policies", "qos", "workload", "cli")
    mods = SimpleNamespace(**{n: importlib.import_module(f"brownsim.{n}") for n in names})
    if not Path(mods.cli.__file__).resolve().is_relative_to(src):
        raise BenchError(f"imported brownsim from {mods.cli.__file__}, not from {src}")
    return mods


def diurnal_rates(seed: int, intervals: int = 1440, low: float = 105.0, high: float = 300.0,
                  noise: float = 0.04, trough_at: int = 360) -> list:
    """The diurnal day of `brownsim.workload.synthetic_diurnal_trace`."""
    rng = random.Random(seed)
    rates = []
    for t in range(intervals):
        hump = math.sin(math.pi * (t - trough_at) / intervals) ** 2
        value = (low + (high - low) * hump) * (1.0 + rng.gauss(0.0, noise))
        value = min(max(value, low * 0.85), high * 1.06)
        rates.append(int(math.floor(value + 0.5)))
    return rates


@dataclass
class Inputs:
    workload: str
    work: Path
    configs: list  # one config file per simulation; the sweep's base config
    requests: list  # total requests each config's simulation must report
    intervals: int
    interval_seconds: float


def trace_seeds(workload: str, seed: int) -> list:
    """Seeds of the day traces a workload replays: one, or two on dense-stack.

    How much selector work a day brings depends on where the trace's noise
    puts the peak against the fleet's capacity: one trace's dense-stack time
    moves by 15% from seed to seed.  Two traces per pass halve that.
    """
    if workload == "dense-stack":
        return [seed, seed + DENSE_SECOND_TRACE]
    return [seed]


def write_inputs(workload: str, seed: int, work: Path) -> Inputs:
    sample_path = ROOT / "configs" / "sample.json"
    try:
        sample = json.loads(sample_path.read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {sample_path}: {err}")
    work.mkdir(parents=True)
    traces = {}  # file name -> rates
    for k, trace_seed in enumerate(trace_seeds(workload, seed)):
        rates = traces[f"trace{k}.csv"] = diurnal_rates(trace_seed)
        (work / f"trace{k}.csv").write_text(
            "t,requests\n" + "".join(f"{t},{r}\n" for t, r in enumerate(rates)))

    base = sample
    base["trace"]["path"] = "trace0.csv"
    base["policy"]["seed"] = seed
    variants = [base]
    if workload == "fleet-100":
        base["policy_name"] = "LUCF"
        base["hosts"]["count"] = FLEET_HOSTS
        base["trace"]["scale"] = FLEET_SCALE
    elif workload == "dense-stack":
        base["services"] = DENSE_STACK
        variants = [dict(base, policy_name=name, trace=dict(base["trace"], path=trace))
                    for trace in traces for name in DENSE_POLICIES]
    configs, requests = [], []
    scale = float(base["trace"].get("scale", 1.0))
    for i, cfg in enumerate(variants):
        path = work / f"config{i}.json"
        path.write_text(json.dumps(cfg, indent=2))
        configs.append(str(path))
        requests.append(sum(math.floor(r * scale + 0.5) for r in traces[cfg["trace"]["path"]]))
    return Inputs(workload=workload, work=work, configs=configs, requests=requests,
                  intervals=len(rates),
                  interval_seconds=float(base["trace"].get("interval_seconds", 60.0)))


# ---------------------------------------------------------------------------
# One pass


@dataclass
class Pass:
    seconds: float  # host time
    ops: int
    failures: list  # one message per failed operation
    digest: str
    output_bytes: int = 0
    ref_seconds: float = 0.0  # reference seconds; 0 in traced passes

    @property
    def failed_ops(self) -> int:
        return len(self.failures)


def _untraced(name, fn):
    return fn


def run_pass(mods, inputs: Inputs, index: int, tracer: Tracer | None = None) -> Pass:
    """Run the workload once, time it, then check its outputs untimed.

    An untraced pass is also timed in reference seconds; a traced one is
    not, so that no speed probe lands inside the tracer's spans.
    """
    if tracer:
        around, wrap = installed(tracer, mods.engine, mods.policies, mods.cli), tracer.wrap
    else:
        around, wrap = measured(), _untraced
    gc.collect()
    if inputs.workload == "sweep-sample":
        out = inputs.work / f"sweep{index}"
        argv = ["compare", "--config", inputs.configs[0],
                "--policy", ",".join(SWEEP_POLICIES),
                "--u-threshold", ",".join(map(str, SWEEP_THRESHOLDS)),
                "--optional-pct", ",".join(map(str, SWEEP_SHARES)), "--out", str(out)]
        stdout = io.StringIO()
        with around as timing:
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                try:
                    code = mods.cli.main(argv)
                except Exception:
                    code = traceback.format_exc()
            seconds = time.perf_counter() - start
        failures, digest, nbytes = check_sweep(out, stdout.getvalue(), code, inputs)
        shutil.rmtree(out, ignore_errors=True)
        result = Pass(seconds, len(SWEEP_POLICIES) * len(SWEEP_THRESHOLDS) * len(SWEEP_SHARES),
                      failures, digest, nbytes)
    else:
        with around as timing:
            start = time.perf_counter()
            done = simulate(mods, inputs, wrap)
            seconds = time.perf_counter() - start
        failures, digest = check_simulations(done, inputs)
        result = Pass(seconds, len(inputs.configs), failures, digest)
    if not tracer:
        result.seconds, result.ref_seconds = timing.host_s, timing.ref_s
    return result


def simulate(mods, inputs: Inputs, wrap) -> list:
    """What a library user does per config: load, validate, run, check SLAs.

    Returns one (result, qos report) pair or one traceback per config.
    """
    load_config = wrap("model.load_config", mods.model.load_config)
    validate_config = wrap("model.validate_config", mods.model.validate_config)
    load_trace = wrap("workload.load_trace", mods.workload.load_trace)
    check_constraints = wrap("qos.check_constraints", mods.qos.check_constraints)
    done, traces = [], {}
    for path in inputs.configs:
        try:
            cfg = load_config(path)
            violations = validate_config(cfg)
            if violations:
                raise ValueError("; ".join(violations))
            if cfg.trace_path not in traces:  # configs share their traces
                traces[cfg.trace_path] = load_trace(cfg.trace_path, cfg.trace_scale,
                                                    cfg.interval_seconds)
            result = mods.engine.Simulation(cfg, traces[cfg.trace_path]).run()
            done.append((result, check_constraints(result, cfg.policy)))
        except Exception:
            done.append(traceback.format_exc())
    return done


# ---------------------------------------------------------------------------
# Output checks and digests


def check_totals(label: str, expected: int, requests: int, errors: int, energy_kwh: float,
                 powers_w: list, inputs: Inputs) -> list:
    """Conservation checks shared by library runs and CLI result files."""
    problems = []
    if requests != expected:
        problems.append(f"total_requests {requests} != trace sum {expected}")
    if not 0 <= errors <= requests:
        problems.append(f"total_errors {errors} outside [0, {requests}]")
    if len(powers_w) != inputs.intervals:
        problems.append(f"{len(powers_w)} intervals, expected {inputs.intervals}")
    expected = sum(powers_w) * inputs.interval_seconds / 3.6e6
    if not abs(energy_kwh - expected) <= 1e-9 * abs(expected):
        problems.append(f"energy_kwh {energy_kwh!r} != sum of interval power {expected!r}")
    return [f"{label}: " + "; ".join(problems)] if problems else []


def check_simulations(done: list, inputs: Inputs) -> tuple:
    failures = []
    digest = hashlib.sha256()
    for path, expected, item in zip(inputs.configs, inputs.requests, done):
        label = Path(path).name
        if isinstance(item, str):
            failures.append(f"{label} raised:\n{item}")
            continue
        result, report = item
        records = result.interval_records
        failures += check_totals(label, expected, result.total_requests, result.total_errors,
                                 result.energy_kwh, [r.total_power_w for r in records], inputs)
        digest.update(repr((
            result.policy_name, result.seed, result.energy_kwh, result.otr_mean,
            result.avg_response_ms, result.p_kth_response_ms, result.slavr,
            result.total_requests, result.total_errors, sorted(result.per_host_otr.items()),
            [(c.name, c.actual, c.passed) for c in report.constraints])).encode())
        for r in records:
            digest.update(repr((r.t, r.requests, r.active_hosts, r.errors,
                                r.deactivated_containers, r.per_host)).encode())
    return failures, digest.hexdigest()


def check_sweep(out: Path, stdout: str, code, inputs: Inputs) -> tuple:
    """Check every compare cell's files; digest everything the CLI wrote."""
    expected = {(p, u, s) for p in SWEEP_POLICIES for u in SWEEP_THRESHOLDS for s in SWEEP_SHARES}
    cells = sorted(p for p in out.iterdir() if p.is_dir()) if out.is_dir() else []
    failures, seen = [], set()
    for cell in cells:
        try:
            data = json.loads((cell / "result.json").read_text())
            rows = (cell / "intervals.csv").read_text().splitlines()[1:]
            key = (data["policy"], data["overloaded_threshold_u_t"], data["optional_util_pct"])
            powers = [float(row.split(",")[3]) for row in rows]
            problems = check_totals(cell.name, inputs.requests[0], data["total_requests"],
                                    data["total_errors"], data["energy_kwh"], powers, inputs)
        except (OSError, ValueError, KeyError, IndexError) as err:
            problems = [f"{cell.name}: unreadable output: {err!r}"]
        else:
            if key not in expected or key in seen:
                problems = problems or [f"{cell.name}: unexpected cell {key}"]
            seen.add(key)
        failures += problems
    failures += [f"{len(expected) - len(cells)} cells missing"] * (len(expected) - len(cells))
    if code != 0:
        # an aborted sweep fails every cell it was asked for
        failures = [f"compare did not finish ({code})"] * len(expected)

    digest = hashlib.sha256(stdout.encode())
    nbytes = len(stdout.encode())
    for path in sorted(out.rglob("*")) if out.is_dir() else []:
        if path.is_file():
            data = path.read_bytes()
            nbytes += len(data)
            digest.update(str(path.relative_to(out)).encode() + b"\0" + data)
    return failures[:len(expected)], digest.hexdigest(), nbytes


def mark_digest_mismatches(passes: list) -> None:
    """A pass whose simulated statistics differ from the first pass fails."""
    for p in passes[1:]:
        if p.digest != passes[0].digest:
            p.failures = [f"digest {p.digest} != first pass {passes[0].digest}"] * p.ops


# ---------------------------------------------------------------------------
# Runs


def time_setup(inputs: Inputs) -> tuple:
    """Time import through building the first Simulation; return the modules."""
    with measured() as timing:
        mods = import_brownsim()
        cfg = mods.model.load_config(inputs.configs[0])
        violations = mods.model.validate_config(cfg)
        trace = mods.workload.load_trace(cfg.trace_path, cfg.trace_scale, cfg.interval_seconds)
        mods.engine.Simulation(cfg, trace)
    if violations:
        raise BenchError(f"generated config is invalid: {violations}")
    return timing, mods


def layer_metrics(tracer: Tracer, p: Pass) -> dict:
    steps = sorted(tracer.durations.get("engine.step", ()))
    selects = tracer.calls("policies.select")
    metrics = {
        "engine.step.self_s": tracer.self_time("engine.step"),
        "engine.step.calls": len(steps),
        "engine.step_ms.p50": nearest_rank(steps, 50) * 1e3,
        "engine.step_ms.p99": nearest_rank(steps, 99) * 1e3,
        "engine.synthesize_response.calls": tracer.calls("engine.synthesize_response"),
        "engine.response_samples": tracer.counts.get("engine.response_samples", 0),
        "engine.result.s": tracer.total("engine.run") - tracer.total("engine.step"),
        "power.hum.calls": tracer.calls("power.hum"),
        "policies.brownout_step.calls": tracer.calls("policies.brownout_step"),
        "policies.select.calls": selects,
        "policies.select.units_offered": tracer.counts.get("policies.select.units_offered", 0),
        "policies.select.all_picked_ratio":
            tracer.counts.get("policies.select.all_picked", 0) / selects if selects else 0.0,
        "workload.load_trace.calls": tracer.calls("workload.load_trace"),
        "model.validate_config.calls": tracer.calls("model.validate_config"),
        "cli.self_s": tracer.self_time("cli.main"),
        "cli.output_bytes": p.output_bytes,
    }
    # every other time is a span total: "power.hum.s" is the "power.hum" span
    for name, unit in PER_LAYER:
        if unit == "s" and name not in metrics:
            metrics[name] = tracer.total(name[:-2])
    return metrics


def nearest_rank(ordered: list, k: int) -> float:
    return ordered[math.ceil(k / 100 * len(ordered)) - 1] if ordered else 0.0


def time_left(start: float, seconds: float, rounds: list) -> bool:
    """Whether another round of the typical host time still fits in the run."""
    if not rounds:
        return True
    return time.perf_counter() - start + statistics.median(rounds) <= seconds


def timed_run(inputs: Inputs, seconds: float) -> tuple:
    # Set-ups are spread between the passes, so that both sample the same
    # stretch of a shared machine's speed.
    setups, passes, rounds = [], [], []
    start = time.perf_counter()
    while time_left(start, seconds, rounds):
        round_start = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            timing, mods = time_setup(inputs)
            setups.append(timing)
        passes.append(run_pass(mods, inputs, len(passes)))
        rounds.append(time.perf_counter() - round_start)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mark_digest_mismatches(passes)
    walls = [p.ref_seconds for p in passes]
    setup_s = [t.ref_s for t in setups]
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup_s),
               "peak_mem_mb": peak_kib * 1024 / 1e6}
    host_walls = [p.seconds for p in passes]
    host_setups = [t.host_s for t in setups]
    notes = [f"wall_s quartiles {_quartiles(walls)} over {len(walls)} passes",
             f"setup_s quartiles {_quartiles(setup_s)} over {len(setup_s)} set-ups",
             f"host time: wall median {statistics.median(host_walls):.6g} s, "
             f"quartiles {_quartiles(host_walls)}; setup median "
             f"{statistics.median(host_setups):.6g} s",
             "wall_s and setup_s are in reference seconds (speed.py)",
             "peak_mem_mb is the peak resident set of this process (getrusage)"]
    return passes, metrics, notes


def traced_run(inputs: Inputs, seconds: float) -> tuple:
    mods = import_brownsim()
    plain, traced, layers, rounds = [], [], [], []
    start = time.perf_counter()
    while time_left(start, seconds, rounds):
        round_start = time.perf_counter()
        plain.append(run_pass(mods, inputs, 2 * len(traced)))
        tracer = Tracer()
        traced.append(run_pass(mods, inputs, 2 * len(traced) + 1, tracer))
        layers.append(layer_metrics(tracer, traced[-1]))
        rounds.append(time.perf_counter() - round_start)
    passes = plain + traced
    mark_digest_mismatches(passes)
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    # each traced pass against the untraced pass just before it, in host time
    metrics["trace.overhead_ratio"] = statistics.median(
        t.seconds / p.seconds for p, t in zip(plain, traced))
    notes = [f"per-layer values are medians over {len(traced)} traced passes, in host time; "
             f"trace.overhead_ratio pairs each with the untraced pass before it"]
    return passes, metrics, notes


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} {values[0]:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.6g} {q3:.6g}"


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        import_brownsim()
        inputs = write_inputs(args.workload, args.seed, work)
        run = traced_run if args.trace else timed_run
        passes, metrics, notes = run(inputs, args.seconds)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed_ops for p in passes)
    for message in [m for p in passes for m in p.failures][:5]:
        print(f"bench: FAILED {message}", file=sys.stderr)
    names = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        metrics["failed_ops_ratio"] = failed / attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    for name, unit in names:
        print(f"  {name:36s} {metrics[name]:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_ops_ratio {failed}/{attempted}")
    print(f"  digest sha256:{passes[0].digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
