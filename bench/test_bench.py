"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run_bench  # noqa: E402
import speed  # noqa: E402
from layers import CLI_NAMES, ENGINE_NAMES, Tracer, installed  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run_bench.import_brownsim()


def short_inputs(workload, tmp_path, seed=5, start=960, length=180):
    """The workload's generated inputs cut to a busy stretch of the day."""
    inputs = run_bench.write_inputs(workload, seed, tmp_path / "work")
    scale = json.loads(Path(inputs.configs[0]).read_text())["trace"]["scale"]
    totals = {}
    for k, trace_seed in enumerate(run_bench.trace_seeds(workload, seed)):
        rates = run_bench.diurnal_rates(trace_seed)[start:start + length]
        (inputs.work / f"trace{k}.csv").write_text(
            "t,requests\n" + "".join(f"{t},{r}\n" for t, r in enumerate(rates)))
        totals[f"trace{k}.csv"] = sum(int(r * scale + 0.5) for r in rates)
    inputs.requests = [totals[json.loads(Path(c).read_text())["trace"]["path"]]
                       for c in inputs.configs]
    inputs.intervals = length
    return inputs


def bindings(mods):
    sim = mods.engine.Simulation
    out = {(mods.engine, attr): getattr(mods.engine, attr) for attr, _ in ENGINE_NAMES}
    out.update({(mods.cli, attr): getattr(mods.cli, attr) for attr, _ in CLI_NAMES})
    out[(sim, "step")] = vars(sim)["step"]
    out[(sim, "run")] = vars(sim)["run"]
    out[(mods.policies, "select_rsc")] = mods.policies.select_rsc
    return out


def test_generator_matches_program(mods):
    for seed in (0, 7, 123):
        program = mods.workload.synthetic_diurnal_trace(seed=seed)
        assert run_bench.diurnal_rates(seed) == program.rates
    shipped = mods.workload.load_trace(str(run_bench.ROOT / "data" / "diurnal_day.csv"))
    assert run_bench.diurnal_rates(7) == shipped.rates


def test_fleet_inputs_scale_the_sample(tmp_path):
    inputs = run_bench.write_inputs("fleet-100", 5, tmp_path / "work")
    cfg = json.loads(Path(inputs.configs[0]).read_text())
    assert cfg["hosts"]["count"] == 100 and cfg["trace"]["scale"] == 10.0
    assert cfg["policy_name"] == "LUCF" and len(inputs.configs) == 1
    assert inputs.requests == [sum(int(r * 10 + 0.5) for r in run_bench.diurnal_rates(5))]


def test_dense_inputs_replay_two_traces(tmp_path):
    inputs = run_bench.write_inputs("dense-stack", 5, tmp_path / "work")
    cfgs = [json.loads(Path(c).read_text()) for c in inputs.configs]
    assert [(c["trace"]["path"], c["policy_name"]) for c in cfgs] == [
        (f"trace{k}.csv", name) for k in (0, 1) for name in run_bench.DENSE_POLICIES]
    assert inputs.requests == [sum(run_bench.diurnal_rates(s)) for s in (5, 5 + 1_000_003)
                               for _ in run_bench.DENSE_POLICIES]


def test_measured_probes_and_restores(monkeypatch):
    def previous(signum, frame):
        pass

    # a machine at half the reference speed: every probe takes twice as long
    monkeypatch.setattr(speed, "probe", lambda: time.sleep(2 * speed.PROBE_REF_S))
    old = signal.signal(signal.SIGALRM, previous)
    try:
        with speed.measured(interval=0.01) as timing:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                sum(range(1000))
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert timing.probes > 5  # both ends and the alarms between
    assert 0.08 < timing.host_s < 0.2  # the probes' own time is left out
    assert timing.ref_s == pytest.approx(timing.host_s / 2, rel=0.25)


def test_installed_wraps_and_restores(mods):
    before = bindings(mods)
    selectors = dict(mods.policies.SELECTORS)
    with installed(Tracer(), mods.engine, mods.policies, mods.cli):
        during = bindings(mods)
        assert all(during[key] is not fn for key, fn in before.items())
        assert all(during[key].__wrapped__ is fn for key, fn in before.items())
        assert mods.policies.select_rsc is mods.policies.SELECTORS["RSC"]
    assert bindings(mods) == before
    assert mods.policies.SELECTORS == selectors

    with pytest.raises(RuntimeError):
        with installed(Tracer(), mods.engine, mods.policies, mods.cli):
            raise RuntimeError("boom")
    assert bindings(mods) == before
    assert mods.policies.SELECTORS == selectors


def test_traced_pass_runs_rsc_and_keeps_digest(mods, tmp_path):
    inputs = short_inputs("dense-stack", tmp_path)
    assert json.loads(Path(inputs.configs[-1]).read_text())["policy_name"] == "RSC"
    plain = run_bench.run_pass(mods, inputs, 0)
    tracer = Tracer()
    traced = run_bench.run_pass(mods, inputs, 1, tracer)
    assert plain.failures == [] and traced.failures == []
    assert 0 < plain.seconds and 0 < plain.ref_seconds and traced.ref_seconds == 0
    assert traced.digest == plain.digest
    metrics = run_bench.layer_metrics(tracer, traced)
    assert metrics["policies.select.calls"] > 0
    assert metrics["engine.step.calls"] == 6 * inputs.intervals
    assert metrics["workload.load_trace.calls"] == 2
    assert metrics["engine.step.self_s"] < metrics["engine.step.s"]


def test_digest_differs_when_a_statistic_does(mods, tmp_path):
    inputs = short_inputs("sweep-sample", tmp_path, length=60)
    done = run_bench.simulate(mods, inputs, run_bench._untraced)
    failures, digest = run_bench.check_simulations(done, inputs)
    assert failures == []
    done[0][0].interval_records[-1].deactivated_containers += 1
    assert run_bench.check_simulations(done, inputs)[1] != digest

    passes = [run_bench.Pass(1.0, 3, [], "a"), run_bench.Pass(1.0, 3, [], "a"),
              run_bench.Pass(1.0, 3, [], "b")]
    run_bench.mark_digest_mismatches(passes)
    assert [p.failed_ops for p in passes] == [0, 0, 3]


def test_output_checks_count_failures(mods, tmp_path):
    inputs = short_inputs("sweep-sample", tmp_path, length=60)
    done = run_bench.simulate(mods, inputs, run_bench._untraced)
    done[0][0].energy_kwh *= 1.0 + 1e-6
    assert len(run_bench.check_simulations(done, inputs)[0]) == 1
    failures, _ = run_bench.check_simulations(["Traceback"], inputs)
    assert len(failures) == 1 and "raised" in failures[0]


def test_sweep_pass_checks_every_cell(mods, tmp_path):
    inputs = short_inputs("sweep-sample", tmp_path, length=60)
    tracer = Tracer()
    result = run_bench.run_pass(mods, inputs, 0, tracer)
    assert result.ops == 20 and result.failures == []
    assert tracer.calls("workload.load_trace") == 20
    assert tracer.calls("cli.main") == 1 and result.output_bytes > 0

    assert not (inputs.work / "sweep0").exists()

    out = inputs.work / "partial"
    mods.cli.main(["compare", "--config", inputs.configs[0], "--policy", "NPA,RSC",
                   "--u-threshold", "0.7,0.8", "--optional-pct", "0.0,0.4", "--out", str(out)])
    (out / "RSC_u0.7_p0_r0" / "result.json").write_text("{")
    failures, _, _ = run_bench.check_sweep(out, "", 0, inputs)
    assert len(failures) == 1 + 12  # the unreadable cell, and 12 cells never run


def test_benchmark_json_names_every_metric():
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run_bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run_bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run_bench.PER_LAYER)
    names = {name for name, _ in run_bench.PER_LAYER}
    emitted = run_bench.layer_metrics(Tracer(), run_bench.Pass(1.0, 1, [], ""))
    assert set(emitted) | {"trace.overhead_ratio", "failed_ops_ratio"} == names


def test_missing_program_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run_bench, "ROOT", tmp_path)
    monkeypatch.setattr(run_bench, "WORK_ROOT", tmp_path / ".bench_work")
    code = run_bench.main(["--workload", "dense-stack", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []
