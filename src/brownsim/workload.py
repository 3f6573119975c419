"""Request traces: loading, scaling, rate prediction, synthetic generation."""

from __future__ import annotations

import math
import random

# The largest scaled request count a trace row may hold: beyond 2**53 a float
# no longer holds every integer, and near 1e308 the response model overflows.
MAX_REQUESTS = 2 ** 53


class Trace:
    """Requests per interval, scaled, and the interval's length in seconds."""
    __slots__ = ("rates", "interval_seconds")

    def __init__(self, rates: list, interval_seconds: float = 60.0):
        self.rates, self.interval_seconds = rates, interval_seconds

    def __eq__(self, other):
        return ((self.rates, self.interval_seconds) == (other.rates, other.interval_seconds)
                if type(other) is Trace else NotImplemented)

    def __len__(self):
        return len(self.rates)


def load_trace(path: str, scale: float = 1.0, interval_seconds: float = 60.0) -> Trace:
    """Read a two-column CSV (t,requests) into a Trace.

    t must be strictly increasing; only its order is read, so it may be
    fractional.  A byte-order mark and a header (line 1 with no numeric
    field) are skipped; malformed data, or a scaled count above
    MAX_REQUESTS, raises ValueError naming the offending line.
    """
    last, rates = -math.inf, []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:  # float() ignores the whitespace that strip() takes off
                t_field, r_field = line.split(",")
                t, r = float(t_field), float(r_field)
            except ValueError:  # blank, a header, or malformed: only now is the row looked at again
                if not (line := line.strip()):
                    continue
                if len(parts := line.split(",")) != 2:
                    raise ValueError(f"line {lineno}: expected 't,requests', got {line!r}") from None
                if lineno == 1 and not (_numeric(parts[0]) or _numeric(parts[1])):
                    continue  # header
                raise ValueError(f"line {lineno}: non-numeric field in {line!r}") from None
            if r < 0:
                raise ValueError(f"line {lineno}: negative request count {r}")
            if not (math.isfinite(t) and r * scale <= MAX_REQUESTS):  # NaN fails too
                raise ValueError(f"line {lineno}: {line.strip()!r} at scale {scale} is not finite "
                                 f"or above 2**53 requests")
            if t <= last:
                raise ValueError(f"line {lineno}: time {t_field.strip()} not strictly increasing")
            last = t
            rates.append(math.floor(r * scale + 0.5))  # round half up, as counts are downsampled
    if not rates:
        raise ValueError(f"trace {path}: no data rows")
    return Trace(rates=rates, interval_seconds=interval_seconds)


def _numeric(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def predict_rate(history: list, window: int) -> float:
    """Sliding-window mean of the most recent observed rates.

    No history yet means no demand to predict: returns 0.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1 (got {window})")
    if not history:
        return 0.0
    tail = history[-window:]
    return sum(tail) / len(tail)


def synthetic_diurnal_trace(intervals: int = 1440, low: float = 105.0,
                            high: float = 300.0, noise: float = 0.04,
                            seed: int = 7, trough_at: int = 360) -> Trace:
    """One simulated day of per-minute request counts.

    A squared-sine hump bottoming out at trough_at (6am by default) and
    peaking twelve hours later, with multiplicative Gaussian noise.  Output
    is clamped so the noise cannot push past ~6% above the nominal peak.
    """
    rng = random.Random(seed)
    rates = []
    ceiling = high * 1.06
    floor = low * 0.85
    for t in range(intervals):
        hump = math.sin(math.pi * (t - trough_at) / intervals) ** 2
        nominal = low + (high - low) * hump
        value = nominal * (1.0 + rng.gauss(0.0, noise))
        value = min(max(value, floor), ceiling)
        rates.append(int(math.floor(value + 0.5)))
    return Trace(rates=rates, interval_seconds=60.0)

