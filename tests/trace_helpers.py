"""Trace builders used only by the tests."""

from brownsim.workload import Trace


def spike_trace(intervals: int = 240, baseline: float = 35.0, spike: float = 375.0,
                spike_start: int = 80, spike_len: int = 40) -> Trace:
    """Flat baseline with one rectangular overload spike; deterministic."""
    rates = []
    for t in range(intervals):
        rates.append(int(spike if spike_start <= t < spike_start + spike_len else baseline))
    return Trace(times=list(range(intervals)), rates=rates, interval_seconds=60.0)


def write_trace_csv(trace: Trace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("t,requests\n")
        for t, r in zip(trace.times, trace.rates):
            fh.write(f"{t},{r}\n")
