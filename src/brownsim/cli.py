"""Experiment runner.

Subcommands: validate a config, run one policy, compare policies across
sweep axes (threshold, optional utilization share, repetitions), and
rebuild the comparison summary from files on disk.  Exit codes: 0 on
success, 2 for config problems, 3 for trace/result file problems,
including an --out that cannot be written.

`compare` runs its cells in min(cells, usable CPUs) forked worker
processes, each writing its own cells' files; its output is byte-identical
to running them one after another.  One cell, or a process limited to one
CPU (`taskset -c 0 brownsim compare ...`, say, for profiling), runs them
in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections import Counter, namedtuple
from pathlib import Path

from .engine import Simulation
from .model import SimConfig, load_config, validate_config, with_values
from .qos import check_constraints
from .workload import load_trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRACE = 3

INTERVALS_HEADER = ["t", "requests", "active_hosts", "total_power_w",
                    "overloaded_hosts", "errors", "deactivated"]

# Each override flag (by its argparse dest) and the config key it sets.
OVERRIDES = {
    "policy": "policy_name",
    "trace": "trace.path",
    "scale": "trace.scale",
    "seed": "policy.seed",
    "u_threshold": "policy.overloaded_threshold_u_t",
    "optional_pct": "policy.optional_util_pct",
}

# One summary column: its summary.csv name, the result.json key it reads, its
# summary.csv format, and its summary.txt header and format.
Column = namedtuple("Column", "name key csv header text")
# Summary columns after "run" (the cell directory).  A None value prints as
# "" in summary.csv and "-" in summary.txt.
COLUMNS = (
    Column("policy", "policy", str, "policy", str),
    Column("u_threshold", "overloaded_threshold_u_t", "{:g}".format, "u_t", "{:.2f}".format),
    Column("optional_pct", "optional_util_pct", "{:g}".format, "opt", "{:.2f}".format),
    Column("rep", "rep", str, "rep", str),
    Column("seed", "seed", str, "seed", str),
    Column("energy_kwh", "energy_kwh", repr, "energy kWh", "{:.3f}".format),
    Column("avg_response_ms", "avg_response_ms", repr, "avg ms", "{:.1f}".format),
    Column("p_kth_response_ms", "p_kth_response_ms", repr, "pctl ms", "{:.1f}".format),
    Column("slavr", "slavr", repr, "SLAVR %", lambda v: f"{v * 100:.3f}"),
    Column("otr_mean", "otr_mean", repr, "mean OTR", "{:.4f}".format),
)
# result.json holds the columns' keys, these, and the constraint checks.  Each
# key names a RunResult attribute, a PolicyConfig field, "policy" or "rep".
RESULT_KEYS = tuple(c.key for c in COLUMNS) + (
    "percentile_k", "total_requests", "total_errors", "per_host_otr", "active_host_series")
SUMMARY_NOTE = ("# energy in kWh, responses in ms; slavr and otr_mean are fractions"
                " (empty slavr = no requests)")


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:  # every read is checked where it happens, so this is a write
        print(f"cannot write output: {err}", file=sys.stderr)
        return EXIT_TRACE
    except _CliExit as stop:
        print(stop, file=sys.stderr)
        return stop.code


class _CliExit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


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
    cfg = _configured(_read_config(args.config),
                      _values(**{flag: getattr(args, flag) for flag in OVERRIDES}))
    trace = _read_trace(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before the run
    result = Simulation(cfg, trace).run()
    _write_result_files(out, cfg, result, rep=0)
    print(_one_liner(cfg, result))
    print(f"wrote {out / 'result.json'} and {out / 'intervals.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    """Build and validate every cell, read the trace once, then run the cells."""
    base = _configured(_read_config(args.config),
                       _values(trace=args.trace, scale=args.scale, seed=args.seed))
    # the sweep does arithmetic on the base values, so they were validated first
    policies = _split(args, "policy", str, base.policy_name)
    thresholds = _split(args, "u_threshold", float, base.policy.overloaded_threshold_u_t)
    shares = _split(args, "optional_pct", float, base.policy.optional_util_pct)
    if args.reps < 1:
        raise _CliExit(EXIT_CONFIG, f"--reps must be >= 1 (got {args.reps})")
    cells = [(f"{policy}_u{u_t:g}_p{pct:g}_r{rep}", rep,
              _configured(base, _values(policy=policy, u_threshold=u_t, optional_pct=pct,
                                        seed=base.policy.seed + rep)))
             for policy in policies for u_t in thresholds for pct in shares
             for rep in range(args.reps)]
    clash = sorted(name for name, n in Counter(name for name, _, _ in cells).items() if n > 1)
    if clash:
        raise _CliExit(EXIT_CONFIG,
                       f"distinct sweep values share a cell directory: {', '.join(clash)}")
    trace = _read_trace(base)  # no sweep axis touches the trace path, scale or interval
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before any cell
    _run_cells(trace, [(out / name, rep, cfg) for name, rep, cfg in cells])
    return cmd_report(args)


def cmd_report(args) -> int:
    print(_summarize(Path(args.out)), end="")
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


def _values(**flags) -> dict:
    """Config key -> value for each override flag that was given."""
    return {OVERRIDES[flag]: value for flag, value in flags.items() if value is not None}


def _configured(cfg: SimConfig, values: dict) -> SimConfig:
    """A copy of cfg with values set; exits 2 unless the copy is valid."""
    cfg = with_values(cfg, values)
    violations = validate_config(cfg)
    if violations:
        raise _CliExit(EXIT_CONFIG, "\n".join(violations))
    return cfg


def _read_trace(cfg: SimConfig):
    try:
        return load_trace(cfg.trace_path, cfg.trace_scale, cfg.interval_seconds)
    except (OSError, ValueError) as err:
        raise _CliExit(EXIT_TRACE, f"cannot load trace {cfg.trace_path}: {err}")


def _split(args, dest: str, kind, default) -> list:
    """The distinct values of a comma-separated sweep flag, in order; [default]
    when the flag is not given, exit 2 when it is given but holds no value."""
    raw, flag = getattr(args, dest), "--" + dest.replace("_", "-")
    if raw is None:
        return [default]
    try:
        values = list(dict.fromkeys(kind(part.strip()) for part in str(raw).split(",")
                                    if part.strip()))
    except ValueError as err:
        raise _CliExit(EXIT_CONFIG, f"bad sweep value list {flag} {raw!r}: {err}")
    if not values:
        raise _CliExit(EXIT_CONFIG, f"sweep value list {flag} {raw!r} holds no value")
    return values


# ---------------------------------------------------------------------------
# Sweep cells


def _worker_count(cells: int, cpus: int) -> int:
    """One worker process per cell, at most one per usable CPU, at least one."""
    return max(1, min(cells, cpus))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _run_cells(trace, cells: list) -> None:
    """Run each (directory, rep, config) cell and write its files.

    Forked workers split the cells round-robin, run theirs in sweep order,
    report each one written and stop at their first failure; no result
    travels back and no thread starts.  The first cell in sweep order left
    unwritten decides: its exception is raised here, as in one process, or,
    if its worker died (killed, say), compare exits 3 naming every cell left
    unwritten.
    """
    run = functools.partial(_run_cell, trace)
    workers = _worker_count(len(cells), _usable_cpus())
    if workers == 1:
        for cell in cells:
            run(cell)
        return
    import multiprocessing  # here, not at the top: every CLI start would pay its import

    context, started, reports = multiprocessing.get_context("fork"), [], {}
    try:
        for w in range(workers):
            receive, send = context.Pipe(duplex=False)
            started.append((context.Process(target=_run_share, daemon=True, args=(
                run, cells, range(w, len(cells), workers), send)), receive))
            started[-1][0].start()
            send.close()  # so that the pipe ends with the worker
        for _, receive in started:
            with receive, contextlib.suppress(EOFError, OSError):
                while True:
                    index, err = receive.recv()
                    reports[index] = err  # None once the cell is written
    finally:
        for worker, _ in started:
            if worker.is_alive():
                worker.kill()
            worker.join()
    left = [i for i in range(len(cells)) if i not in reports or reports[i] is not None]
    if left and left[0] in reports:
        raise reports[left[0]]
    if left:
        raise _CliExit(EXIT_TRACE, "a compare worker died; cells left unwritten: "
                       + ", ".join(cells[i][0].name for i in left))


def _run_share(run, cells: list, indices: range, send) -> None:
    """A worker's cells: send (index, None) for each one written and
    (index, exception) for the first that raises, then stop."""
    for i in indices:
        try:
            run(cells[i])
        except Exception as err:
            return send.send((i, err))
        send.send((i, None))


def _run_cell(trace, cell: tuple) -> None:
    out, rep, cfg = cell
    _write_result_files(out, cfg, Simulation(cfg, trace).run(), rep=rep)


# ---------------------------------------------------------------------------
# Output files


def _write_result_files(out: Path, cfg: SimConfig, result, rep: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    payload = _result_payload(cfg, result, rep)
    _atomic_write(out / "result.json",
                  json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    _atomic_write(out / "intervals.csv", _intervals_csv(result.interval_records))


def _result_payload(cfg: SimConfig, result, rep: int) -> dict:
    report = check_constraints(result, cfg.policy)
    known = {**vars(cfg.policy), **vars(result), "per_host_otr": result.per_host_otr,
             "policy": result.policy_name, "rep": rep}
    payload = {key: known[key] for key in RESULT_KEYS}
    payload["constraints"] = [
        {"name": c.name, "bound": c.bound, "actual": c.actual, "pass": c.passed}
        for c in report.constraints
    ]
    return payload


def _intervals_csv(records: list) -> str:
    """One row per record; a row's last four cells are totals of its pieces, so
    they are read and formatted once per distinct piece list."""
    keys = [tuple(r.pieces) for r in records]
    holders = dict(zip(keys, records))  # a record of each distinct piece list
    powers = [r.total_power_w for r in holders.values()]
    json.dumps(powers, allow_nan=False)  # result.json's rule: raise on Infinity or NaN
    tails = {key: f",{power:.6f},{r.overloaded_hosts},{r.errors},{r.deactivated_containers}\n"
             for (key, r), power in zip(holders.items(), powers)}
    return "".join([",".join(INTERVALS_HEADER) + "\n"] + [
        f"{r.t},{r.requests},{r.active_hosts}{tails[key]}" for r, key in zip(records, keys)])


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
    """(summary.csv cells, summary.txt cells) of each result.json under out."""
    paths = sorted(out.glob("*/result.json"))
    if not paths and (out / "result.json").exists():
        paths = [out / "result.json"]
    rows = []
    for path in paths:
        run = path.parent.name if path.parent != out else "-"
        try:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError(f"expected an object, got {type(data).__name__}")
            missing = [c.key for c in COLUMNS if c.key not in data]
            if missing:
                raise ValueError(f"missing key {', '.join(missing)}")
            json.dumps(data, allow_nan=False)  # as written: no Infinity or NaN
            rows.append(([run] + [_cell(c.csv, data, c.key, "") for c in COLUMNS],
                         [run] + [_cell(c.text, data, c.key, "-") for c in COLUMNS]))
        except (OSError, ValueError) as err:
            raise _CliExit(EXIT_TRACE, f"cannot read {path}: {err}")
    if not rows:
        raise _CliExit(EXIT_TRACE, f"no result.json files under {out}")
    return rows


def _cell(fmt, data: dict, key: str, none: str) -> str:
    try:
        return none if data[key] is None else fmt(data[key])
    except (TypeError, ValueError) as err:
        raise ValueError(f"{key}: {err}") from None


def _summarize(out: Path) -> str:
    rows = _collect_rows(out)
    csv_lines = [SUMMARY_NOTE, ",".join(["run"] + [c.name for c in COLUMNS])]
    csv_lines += [",".join(csv) for csv, _ in rows]
    _atomic_write(out / "summary.csv", "\n".join(csv_lines) + "\n")
    table = _summary_table(["run"] + [c.header for c in COLUMNS], [text for _, text in rows])
    _atomic_write(out / "summary.txt", table)
    return table


def _summary_table(headers: list, cells: list) -> str:
    widths = [max(len(headers[i]), max((len(row[i]) for row in cells), default=0))
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
             "  ".join("-" * w for w in widths)]
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))).rstrip())
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
