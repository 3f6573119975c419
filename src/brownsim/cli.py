"""Experiment runner.

Subcommands: validate a config, run one policy, compare policies across
sweep axes (threshold, optional utilization share, repetitions), and
rebuild the comparison summary from files on disk.  Exit codes: 0 on
success, 2 for config problems, 3 for trace/result file problems.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import os
import sys
from pathlib import Path

from .engine import Simulation
from .model import SimConfig, load_config, validate_config
from .qos import check_constraints
from .workload import load_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRACE = 3

INTERVALS_HEADER = ["t", "requests", "active_hosts", "total_power_w",
                    "overloaded_hosts", "errors", "deactivated"]
SUMMARY_HEADER = ["run", "policy", "u_threshold", "optional_pct", "rep", "seed",
                  "energy_kwh", "avg_response_ms", "p_kth_response_ms", "slavr", "otr_mean"]
SUMMARY_NOTE = ("# energy in kWh, responses in ms; slavr and otr_mean are fractions"
                " (empty slavr = no requests)")


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliExit as stop:
        print(stop.message, file=sys.stderr)
        return stop.code


class _CliExit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="brownsim",
                                     description="Brownout data-center simulator")
    sub = parser.add_subparsers(required=True)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run one policy over a trace")
    _run_flags(p_run)
    p_run.add_argument("--u-threshold", type=float, default=None,
                       help="override the overload threshold")
    p_run.add_argument("--optional-pct", type=float, default=None,
                       help="override the optional utilization share")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="sweep policies/settings and tabulate")
    _run_flags(p_cmp)
    p_cmp.add_argument("--u-threshold", default=None,
                       help="comma-separated thresholds to sweep")
    p_cmp.add_argument("--optional-pct", default=None,
                       help="comma-separated optional shares to sweep")
    p_cmp.add_argument("--reps", type=int, default=1,
                       help="repetitions per cell, seeds base+0..base+reps-1")
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="rebuild the summary from existing results")
    p_rep.add_argument("--out", default="out")
    p_rep.set_defaults(func=cmd_report)
    return parser


def _run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--trace", default=None, help="override the trace path")
    p.add_argument("--scale", type=float, default=None, help="override the trace scale")
    p.add_argument("--policy", default=None,
                   help="policy name; comma-separated list under compare")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out", help="output directory")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_validate(args) -> int:
    cfg = _read_config(args.config)
    violations = validate_config(cfg)
    if violations:
        for v in violations:
            print(v)
        return EXIT_CONFIG
    print(f"config ok: {args.config}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _read_config(args.config)
    _apply_overrides(cfg, args, policy=args.policy,
                     u_threshold=args.u_threshold, optional_pct=args.optional_pct)
    _validate_or_exit(cfg)
    trace = _read_trace(cfg)
    result = Simulation(cfg, trace).run()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_result_files(out, cfg, result, rep=0)
    print(_one_liner(cfg, result))
    print(f"wrote {out / 'result.json'} and {out / 'intervals.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    base = _read_config(args.config)
    _apply_overrides(base, args)
    _validate_or_exit(base)  # the sweep below does arithmetic on its values
    policies = _split(args.policy, str) or [base.policy_name]
    thresholds = _split(args.u_threshold, float) or [base.policy.overloaded_threshold_u_t]
    shares = _split(args.optional_pct, float) or [base.policy.optional_util_pct]
    if args.reps < 1:
        raise _CliExit(EXIT_CONFIG, f"--reps must be >= 1 (got {args.reps})")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base_seed = base.policy.seed
    for policy in policies:
        for u_t in thresholds:
            for pct in shares:
                for rep in range(args.reps):
                    cfg = copy.deepcopy(base)
                    cfg.policy_name = policy
                    cfg.policy.overloaded_threshold_u_t = u_t
                    cfg.policy.optional_util_pct = pct
                    cfg.policy.seed = base_seed + rep
                    _validate_or_exit(cfg)
                    trace = _read_trace(cfg)
                    result = Simulation(cfg, trace).run()
                    cell = out / f"{policy}_u{u_t:g}_p{pct:g}_r{rep}"
                    cell.mkdir(parents=True, exist_ok=True)
                    _write_result_files(cell, cfg, result, rep=rep)
    table = _summarize(out)
    print(table, end="")
    return EXIT_OK


def cmd_report(args) -> int:
    table = _summarize(Path(args.out))
    print(table, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Loading and overrides


def _read_config(path: str) -> SimConfig:
    try:
        return load_config(path)
    except OSError as err:
        raise _CliExit(EXIT_CONFIG, f"cannot read config {path}: {err}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        raise _CliExit(EXIT_CONFIG, f"bad config {path}: {err}")


def _apply_overrides(cfg: SimConfig, args, policy: str | None = None,
                     u_threshold: float | None = None,
                     optional_pct: float | None = None) -> None:
    if policy is not None:
        cfg.policy_name = policy
    if args.trace is not None:
        cfg.trace_path = args.trace
    if args.scale is not None:
        cfg.trace_scale = args.scale
    if args.seed is not None:
        cfg.policy.seed = args.seed
    if u_threshold is not None:
        cfg.policy.overloaded_threshold_u_t = u_threshold
    if optional_pct is not None:
        cfg.policy.optional_util_pct = optional_pct


def _validate_or_exit(cfg: SimConfig) -> None:
    violations = validate_config(cfg)
    if violations:
        raise _CliExit(EXIT_CONFIG, "\n".join(violations))


def _read_trace(cfg: SimConfig):
    try:
        return load_trace(cfg.trace_path, cfg.trace_scale, cfg.interval_seconds)
    except (OSError, ValueError) as err:
        raise _CliExit(EXIT_TRACE, f"cannot load trace {cfg.trace_path}: {err}")


def _split(raw: str | None, kind):
    if raw is None:
        return None
    try:
        return [kind(part.strip()) for part in str(raw).split(",") if part.strip()]
    except ValueError as err:
        raise _CliExit(EXIT_CONFIG, f"bad sweep value list {raw!r}: {err}")


# ---------------------------------------------------------------------------
# Output files


def _write_result_files(out: Path, cfg: SimConfig, result, rep: int) -> None:
    payload = _result_payload(cfg, result, rep)
    _atomic_write(out / "result.json",
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _atomic_write(out / "intervals.csv", _intervals_csv(result.interval_records))


def _result_payload(cfg: SimConfig, result, rep: int) -> dict:
    report = check_constraints(result, cfg.policy)
    return {
        "policy": result.policy_name,
        "seed": result.seed,
        "rep": rep,
        "overloaded_threshold_u_t": cfg.policy.overloaded_threshold_u_t,
        "optional_util_pct": cfg.policy.optional_util_pct,
        "percentile_k": cfg.policy.percentile_k,
        "energy_kwh": result.energy_kwh,
        "otr_mean": result.otr_mean,
        "avg_response_ms": result.avg_response_ms,
        "p_kth_response_ms": result.p_kth_response_ms,
        "slavr": result.slavr,
        "total_requests": result.total_requests,
        "total_errors": result.total_errors,
        "per_host_otr": result.per_host_otr,
        "active_host_series": result.active_host_series,
        "constraints": [
            {"name": c.name, "bound": c.bound, "actual": c.actual, "pass": c.passed}
            for c in report.constraints
        ],
    }


def _intervals_csv(records: list) -> str:
    buf = io.StringIO()
    buf.write(",".join(INTERVALS_HEADER) + "\n")
    for r in records:
        buf.write(f"{r.t},{r.requests},{r.active_hosts},{r.total_power_w:.6f},"
                  f"{r.overloaded_hosts},{r.errors},{r.deactivated_containers}\n")
    return buf.getvalue()


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _one_liner(cfg: SimConfig, result) -> str:
    slavr_txt = "-" if result.slavr is None else f"{result.slavr * 100:.3f}%"
    return (f"{result.policy_name} seed {result.seed}: "
            f"energy {result.energy_kwh:.3f} kWh, "
            f"avg {result.avg_response_ms:.1f} ms, "
            f"p{cfg.policy.percentile_k} {result.p_kth_response_ms:.1f} ms, "
            f"SLAVR {slavr_txt}, mean OTR {result.otr_mean:.4f}")


# ---------------------------------------------------------------------------
# Summaries


def _collect_rows(out: Path) -> list:
    paths = sorted(out.glob("*/result.json"))
    if not paths and (out / "result.json").exists():
        paths = [out / "result.json"]
    rows = []
    for path in paths:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise _CliExit(EXIT_TRACE, f"cannot read {path}: {err}")
        rows.append({
            "run": path.parent.name if path.parent != out else "-",
            "policy": data["policy"],
            "u_threshold": data["overloaded_threshold_u_t"],
            "optional_pct": data["optional_util_pct"],
            "rep": data.get("rep", 0),
            "seed": data["seed"],
            "energy_kwh": data["energy_kwh"],
            "avg_response_ms": data["avg_response_ms"],
            "p_kth_response_ms": data["p_kth_response_ms"],
            "slavr": data["slavr"],
            "otr_mean": data["otr_mean"],
        })
    if not rows:
        raise _CliExit(EXIT_TRACE, f"no result.json files under {out}")
    return rows


def _summarize(out: Path) -> str:
    rows = _collect_rows(out)
    _atomic_write(out / "summary.csv", _summary_csv(rows))
    table = _summary_table(rows)
    _atomic_write(out / "summary.txt", table)
    return table


def _summary_csv(rows: list) -> str:
    buf = io.StringIO()
    buf.write(SUMMARY_NOTE + "\n")
    buf.write(",".join(SUMMARY_HEADER) + "\n")
    for r in rows:
        slavr_txt = "" if r["slavr"] is None else repr(r["slavr"])
        buf.write(f"{r['run']},{r['policy']},{r['u_threshold']:g},{r['optional_pct']:g},"
                  f"{r['rep']},{r['seed']},{r['energy_kwh']!r},{r['avg_response_ms']!r},"
                  f"{r['p_kth_response_ms']!r},{slavr_txt},{r['otr_mean']!r}\n")
    return buf.getvalue()


def _summary_table(rows: list) -> str:
    headers = ["run", "policy", "u_t", "opt", "rep", "seed",
               "energy kWh", "avg ms", "pctl ms", "SLAVR %", "mean OTR"]
    cells = []
    for r in rows:
        slavr_txt = "-" if r["slavr"] is None else f"{r['slavr'] * 100:.3f}"
        cells.append([
            r["run"], r["policy"], f"{r['u_threshold']:.2f}", f"{r['optional_pct']:.2f}",
            str(r["rep"]), str(r["seed"]), f"{r['energy_kwh']:.3f}",
            f"{r['avg_response_ms']:.1f}", f"{r['p_kth_response_ms']:.1f}",
            slavr_txt, f"{r['otr_mean']:.4f}",
        ])
    widths = [max(len(headers[i]), max((len(row[i]) for row in cells), default=0))
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))).rstrip())
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
