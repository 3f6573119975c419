# Acceptance checks. Each test prints one "criterion N: PASS/FAIL" line with
# the measured numbers, then asserts, so a failing run still shows every verdict.

import itertools
import random
import time
from pathlib import Path

from brownsim import policies
from brownsim.cli import main as cli_main
from brownsim.engine import Simulation
from brownsim.model import DEFAULT_BREAKPOINTS, PowerProfile, dump_config
from brownsim.policies import OptionalItem, autoscale, dimmer, select_lucf, select_mncf
from brownsim.power import hpm, hum
from brownsim.workload import load_trace, predict_rate
from builders import shop_cfg, spike_trace

ROOT = Path(__file__).resolve().parent.parent
ACCEPT_TRACE = load_trace(str(ROOT / "data" / "diurnal_day.csv"), 1.0, 60.0)
SPIKE_TRACE = spike_trace()

_RUNS = {}


def run_sim(policy, hosts=10, pct=0.4, ut=0.8, seed=42, spike=False):
    """Cached simulation run; returns (result, wall seconds of the original run)."""
    key = (policy, hosts, pct, ut, seed, spike)
    if key not in _RUNS:
        trace = SPIKE_TRACE if spike else ACCEPT_TRACE
        start = time.perf_counter()
        result = Simulation(shop_cfg(policy, hosts, pct, ut, seed), trace).run()
        _RUNS[key] = (result, time.perf_counter() - start)
    return _RUNS[key]


def report(num, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {num}: {verdict} - {detail}")
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_formula_exactness():
    start = time.perf_counter()
    profile = PowerProfile()
    checks = [
        abs(dimmer(0, 16) - 0.0) <= 1e-9,
        abs(dimmer(16, 16) - 1.0) <= 1e-9,
        abs(dimmer(4, 16) - 0.5) <= 1e-9,
        all(abs(hum(profile, None, u) - w) <= 1e-9 for u, w in DEFAULT_BREAKPOINTS),
        abs(hpm(profile, 231.0) - 0.80) <= 1e-9,
        abs(predict_rate([10, 20, 30, 40, 50], 5) - 30.0) <= 1e-9,
        autoscale(95.0, 10.0, 16) == 10,
    ]
    elapsed = time.perf_counter() - start
    report(1, all(checks) and elapsed < 1.0,
           f"{sum(checks)}/{len(checks)} formula checks exact in {elapsed * 1000:.0f} ms")


def _subset_totals(scaled):
    """totals[mask] = integer sum of the units selected by mask."""
    totals = [0] * (1 << len(scaled))
    for mask in range(1, len(totals)):
        low = (mask & -mask).bit_length() - 1
        totals[mask] = totals[mask ^ (1 << low)] + scaled[low]
    return totals


def brute_lucf_gap(utils, target):
    """Exact on the 1e-4 grid; None when every unit overshoots (smallest-unit rule)."""
    scaled = [round(u * 10000) for u in utils]
    t = round(target * 10000)
    if min(scaled) >= t:
        return None
    best = max(s for s in _subset_totals(scaled) if s <= t)
    return (t - best) / 10000


def brute_mncf_count(utils, target):
    """Fewest units on the 1e-4 grid that cover the target; all of them if none do."""
    scaled = [round(u * 10000) for u in utils]
    t = round(target * 10000)
    for size in range(1, len(scaled) + 1):
        for combo in itertools.combinations(scaled, size):
            if sum(combo) >= t:
                return size
    return len(scaled)


def test_criterion_2_oracle_equivalence():
    rng = random.Random(1234)
    start = time.perf_counter()
    trials = 1000
    mismatches = 0
    for trial in range(trials):
        n = rng.randint(1, 12)
        utils = [round(rng.uniform(0.01, 0.30), 4) for _ in range(n)]
        items = [OptionalItem(f"c{i:02d}", u) for i, u in enumerate(utils)]
        target = round(rng.uniform(0.02, 1.2), 4)

        chosen = select_lucf(items, target)
        total = sum(u for i, u in enumerate(utils) if f"c{i:02d}" in chosen)
        want_gap = brute_lucf_gap(utils, target)
        if want_gap is None:
            smallest = min(items, key=lambda it: (it.utilization, it.id))
            ok_lucf = chosen == [smallest.id]
        else:
            ok_lucf = abs((target - total) - want_gap) <= 1e-9

        chosen_m = select_mncf(items, target)
        total_m = sum(u for i, u in enumerate(utils) if f"c{i:02d}" in chosen_m)
        want_count = brute_mncf_count(utils, target)
        ok_mncf = len(chosen_m) == want_count
        if sum(utils) >= target:
            ok_mncf = ok_mncf and total_m >= target - 1e-9

        if not (ok_lucf and ok_mncf):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(2, mismatches == 0 and elapsed < 30.0,
           f"{trials} instances, {mismatches} mismatches, {elapsed:.1f} s")


def test_criterion_3_energy_ordering():
    npa, t_npa = run_sim("NPA", hosts=13)
    autos, t_autos = run_sim("AUTOS")
    lucf, t_lucf = run_sim("LUCF")
    e_npa, e_autos, e_lucf = npa.energy_kwh, autos.energy_kwh, lucf.energy_kwh
    save_npa = 1.0 - e_lucf / e_npa
    save_autos = 1.0 - e_lucf / e_autos
    ok = (e_npa > e_autos > e_lucf
          and 0.30 <= save_npa <= 0.55
          and 0.05 <= save_autos <= 0.20
          and max(t_npa, t_autos, t_lucf) < 60.0)
    report(3, ok,
           f"E NPA={e_npa:.2f} > AUTOS={e_autos:.2f} > LUCF-40={e_lucf:.2f} kWh; "
           f"saves {save_npa:.1%} vs NPA, {save_autos:.1%} vs AUTOS; "
           f"slowest run {max(t_npa, t_autos, t_lucf):.1f} s")


def test_criterion_4_monotonic_in_optional_share():
    shares = (0.1, 0.2, 0.3, 0.4)
    ok = True
    spans = []
    for seed in (42, 43, 44):
        runs = [run_sim("LUCF", pct=p, seed=seed)[0] for p in shares]
        energy = [r.energy_kwh for r in runs]
        slavr = [r.slavr for r in runs]
        avg = [r.avg_response_ms for r in runs]
        for series in (energy, slavr, avg):
            ok = ok and all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
        spans.append(f"seed {seed}: E {energy[0]:.2f}->{energy[-1]:.2f}, "
                     f"SLAVR {slavr[0]:.2%}->{slavr[-1]:.2%}, "
                     f"avg {avg[0]:.0f}->{avg[-1]:.0f} ms")
    report(4, ok, "; ".join(spans))


def test_criterion_5_threshold_tradeoff():
    otr_06 = run_sim("LUCF", ut=0.6)[0].otr_mean
    otr_09 = run_sim("LUCF", ut=0.9)[0].otr_mean
    e_07 = run_sim("LUCF", ut=0.7)[0].energy_kwh
    e_08 = run_sim("LUCF", ut=0.8)[0].energy_kwh
    ok = otr_06 > 0.0 and otr_06 >= 2.0 * otr_09 and e_07 <= e_08 + 1e-9
    report(5, ok,
           f"OTR(u_t=0.6)={otr_06:.4f} vs OTR(u_t=0.9)={otr_09:.4f}; "
           f"E(u_t=0.7)={e_07:.2f} <= E(u_t=0.8)={e_08:.2f} kWh")


def test_criterion_6_lucf_beats_rsc():
    seeds = (42, 43, 44, 45, 46)
    lucf = [run_sim("LUCF", seed=s)[0] for s in seeds]
    rsc = [run_sim("RSC", seed=s)[0] for s in seeds]
    mean = lambda xs: sum(xs) / len(xs)
    slavr_l = mean([r.slavr for r in lucf])
    slavr_r = mean([r.slavr for r in rsc])
    avg_l = mean([r.avg_response_ms for r in lucf])
    avg_r = mean([r.avg_response_ms for r in rsc])
    ok = slavr_l <= slavr_r + 1e-12 and avg_l <= avg_r + 1e-9
    report(6, ok,
           f"mean SLAVR {slavr_l:.4%} (LUCF) vs {slavr_r:.4%} (RSC); "
           f"mean avg response {avg_l:.1f} vs {avg_r:.1f} ms over {len(seeds)} seeds")


def test_criterion_7_spike_reactivation():
    result = run_sim("LUCF", spike=True)[0]
    deact = [r.deactivated_containers for r in result.interval_records]
    overload = [r.overloaded_hosts for r in result.interval_records]
    peak = max(deact[t] for t in range(80, 120))
    calm = next(t for t in range(120, len(deact)) if overload[t] == 0)
    restored = deact[calm] == 0 and all(d == 0 for d in deact[calm:])
    report(7, peak > 0 and restored,
           f"peak deactivated={peak} during spike; 0 from first calm evaluation (t={calm}) on")


def test_criterion_8_byte_determinism(tmp_path):
    cfg = shop_cfg("LUCF")
    cfg.trace_path = str(ROOT / "data" / "diurnal_day.csv")
    dump_config(cfg, str(tmp_path / "config.json"))
    for sub in ("a", "b"):
        code = cli_main(["run", "--config", str(tmp_path / "config.json"),
                         "--out", str(tmp_path / sub)])
        assert code == 0
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("result.json", "intervals.csv"))
    report(8, same, "result.json and intervals.csv byte-identical across reruns")


def _spying(inner, calls):
    # A plain copy of the offer: a run's `policies.Offer` carries its grouped
    # units, and a timed replay must group them again, as a cold call does.
    def spy(items, target, rng=None):
        calls.append((list(items), target))
        return inner(items, target, rng)
    return spy


def test_criterion_9_fleet_scaling():
    sizes = (5, 10, 15)
    orig = policies.SELECTORS["LUCF"]
    energy, avg, batches = [], [], []
    try:
        for hosts in sizes:
            calls = []
            policies.SELECTORS["LUCF"] = _spying(orig, calls)
            result = Simulation(shop_cfg("LUCF", hosts=hosts, pct=0.3), ACCEPT_TRACE).run()
            policies.SELECTORS["LUCF"] = orig
            energy.append(result.energy_kwh)
            avg.append(result.avg_response_ms)
            assert calls, f"fleet {hosts} never invoked the selector"
            batches.append((calls * (1 + 400 // len(calls)))[:400])
    finally:
        policies.SELECTORS["LUCF"] = orig
    # Interleaved rounds: a change in the machine's speed mid-test then
    # touches every fleet's batch alike instead of one fleet's.  The search
    # memo is cleared before each call, so every call times the search.
    timings = [[] for _ in sizes]
    for _ in range(7):
        for batch, fleet_timings in zip(batches, timings):
            elapsed = 0.0
            for items, target in batch:
                policies._best_pick.cache_clear()
                t0 = time.perf_counter()
                orig(items, target)
                elapsed += time.perf_counter() - t0
            fleet_timings.append(elapsed / len(batch))
    per_call = [min(fleet_timings) for fleet_timings in timings]
    spread = max(per_call) / min(per_call)
    ok = (energy[0] < energy[1] < energy[2]
          and avg[0] > avg[1] > avg[2]
          and spread <= 2.0)
    report(9, ok,
           f"E {energy[0]:.2f} < {energy[1]:.2f} < {energy[2]:.2f} kWh; "
           f"avg {avg[0]:.0f} > {avg[1]:.0f} > {avg[2]:.0f} ms; "
           f"selector per-call spread {spread:.2f}x across fleets {sizes}")
