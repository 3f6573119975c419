import random

import pytest
from hypothesis import given, settings, strategies as st

from brownsim.workload import MAX_REQUESTS, load_trace, predict_rate, synthetic_diurnal_trace
from builders import flat_trace, reference_load_trace, spike_trace, write_trace_csv


def write_rows(tmp_path, rows, header="t,requests"):
    path = tmp_path / "trace.csv"
    lines = ([header] if header else []) + [f"{t},{r}" for t, r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _fault(kind, t, before, r):
    """A row of the given fault kind at time t, after a row at time `before`."""
    return {
        "blank": "  ",
        "header": "t,requests",
        "3 fields": f"{t},{r},1",
        "non-numeric": f"{t},many",
        "negative": f"{t},-{r + 1}",
        "nan": f"{t},nan",
        "inf": f"inf,{r}",
        "not increasing": f"{before},{r}",
        "above 2**53": f"{t},{MAX_REQUESTS + 2 ** 11}",
    }[kind]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_load_trace_matches_the_row_by_row_parser(tmp_path_factory, data):
    # A trace of valid rows, with or without a header and padded fields, and
    # one fault at a random row: the rates, or the ValueError's message and
    # line number, are those of the parser that checked each row in turn.
    n = data.draw(st.integers(1, 12))
    times = sorted(data.draw(st.sets(st.integers(0, 50), min_size=n, max_size=n)))
    pad = st.sampled_from(["", " ", "\t"])
    rows = [f"{data.draw(pad)}{t}{data.draw(pad)},{data.draw(pad)}{r}{data.draw(pad)}"
            for t, r in zip(times, data.draw(st.lists(st.integers(0, 500), min_size=n, max_size=n)))]
    if data.draw(st.booleans()):
        rows.insert(0, "t,requests")
    at = data.draw(st.integers(0, len(rows)))
    kind = data.draw(st.sampled_from(["none", "blank", "header", "3 fields", "non-numeric",
                                      "negative", "nan", "inf", "not increasing", "above 2**53"]))
    if kind != "none":
        rows.insert(at, _fault(kind, 51 + at, times[0], 7))
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    scale = data.draw(st.sampled_from([0.05, 1.0, 10.0]))
    outcomes = []
    for parse in (load_trace, reference_load_trace):
        try:
            trace = parse(str(path), scale, 30.0)
            outcomes.append((trace.rates, trace.interval_seconds))
        except ValueError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


def test_load_scales_and_rounds(tmp_path):
    path = write_rows(tmp_path, [(0, 100), (1, 120)])
    trace = load_trace(path, 0.05, 60.0)
    assert trace.rates == [5, 6]


def test_load_identity_scale(tmp_path):
    path = write_rows(tmp_path, [(0, 10), (1, 20), (2, 30)])
    assert load_trace(path, 1.0, 60.0).rates == [10, 20, 30]


def test_load_rounds_half_up(tmp_path):
    path = write_rows(tmp_path, [(0, 5), (1, 15)])
    assert load_trace(path, 0.5, 60.0).rates == [3, 8]


def test_load_without_header(tmp_path):
    path = write_rows(tmp_path, [(0, 7), (1, 9)], header="")
    assert load_trace(path, 1.0, 60.0).rates == [7, 9]


def test_load_keeps_the_first_row_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("\ufeff0,120\n1,130\n2,140\n", encoding="utf-8")
    trace = load_trace(str(path), 1.0, 60.0)
    assert trace.rates == [120, 130, 140]
    path.write_text("\ufefft,requests\n0,7\n", encoding="utf-8")
    assert load_trace(str(path), 1.0, 60.0).rates == [7]


@pytest.mark.parametrize("first", ["x,120", "0,x"])
def test_load_rejects_a_half_numeric_first_row(tmp_path, first):
    path = tmp_path / "trace.csv"
    path.write_text(f"{first}\n1,130\n")
    with pytest.raises(ValueError) as err:
        load_trace(str(path), 1.0, 60.0)
    assert "line 1" in str(err.value)


def test_load_rejects_non_monotonic_time(tmp_path):
    path = write_rows(tmp_path, [(0, 10), (2, 20), (1, 30)])
    with pytest.raises(ValueError) as err:
        load_trace(path, 1.0, 60.0)
    assert "line 4" in str(err.value)


def test_load_orders_fractional_times_as_written(tmp_path):
    # t is compared as parsed: 0.2 < 0.7 < 1.4 increases although 0.2 and
    # 0.7 share an integer part
    path = write_rows(tmp_path, [(0.2, 10), (0.7, 12), (1.4, 9)])
    assert load_trace(path, 1.0, 60.0).rates == [10, 12, 9]
    path = write_rows(tmp_path, [(0.2, 10), (0.7, 12), (0.7, 9)])
    with pytest.raises(ValueError, match="line 4: time 0.7 not strictly increasing"):
        load_trace(path, 1.0, 60.0)


def test_load_rejects_negative_rate(tmp_path):
    path = write_rows(tmp_path, [(0, 10), (1, -5)])
    with pytest.raises(ValueError) as err:
        load_trace(path, 1.0, 60.0)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("rows, scale, line", [
    pytest.param([(0, 10), (1, 20)], 1e308, "line 2", id="scaled count overflows"),
    pytest.param([(0, 10), (1, "nan")], 1.0, "line 3", id="nan count"),
    pytest.param([(0, 10), ("inf", 20)], 1.0, "line 3", id="infinite time"),
])
def test_load_rejects_non_finite_rows(tmp_path, rows, scale, line):
    with pytest.raises(ValueError) as err:
        load_trace(write_rows(tmp_path, rows), scale, 60.0)
    assert line in str(err.value)


def test_load_rejects_bad_columns(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,requests\n0,10\n1\n")
    with pytest.raises(ValueError) as err:
        load_trace(str(path), 1.0, 60.0)
    assert "line 3" in str(err.value)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,requests\n")
    with pytest.raises(ValueError):
        load_trace(str(path), 1.0, 60.0)


def test_predict_mean_of_window():
    assert predict_rate([10, 20, 30, 40, 50], 5) == pytest.approx(30.0)


def test_predict_short_history_uses_what_exists():
    assert predict_rate([10, 20], 5) == pytest.approx(15.0)


def test_predict_empty_history():
    assert predict_rate([], 5) == 0.0


def test_predict_uses_most_recent_window():
    assert predict_rate([100, 100, 10, 20, 30], 3) == pytest.approx(20.0)


def test_predict_rejects_bad_window():
    with pytest.raises(ValueError):
        predict_rate([1, 2, 3], 0)


def test_predict_bounded_by_window_property():
    rng = random.Random(5)
    for _ in range(300):
        history = [rng.uniform(0, 500) for _ in range(rng.randint(1, 30))]
        window = rng.randint(1, 10)
        got = predict_rate(history, window)
        recent = history[-window:]
        assert min(recent) - 1e-9 <= got <= max(recent) + 1e-9


def test_predict_constant_trace_property():
    for window in (1, 3, 5, 8):
        assert predict_rate([42.0] * 20, window) == pytest.approx(42.0)


def test_synthetic_trace_shape():
    trace = synthetic_diurnal_trace()
    assert len(trace.rates) == 1440
    assert min(trace.rates) >= round(105 * 0.85)
    assert max(trace.rates) <= round(300 * 1.06)
    again = synthetic_diurnal_trace()
    assert trace.rates == again.rates, "same seed must give the same trace"


def test_spike_trace_shape():
    trace = spike_trace()
    assert len(trace.rates) == 240
    assert trace.rates[0] == 35
    assert max(trace.rates[80:120]) == 375
    assert all(r == 35 for r in trace.rates[120:])


def test_write_read_roundtrip(tmp_path):
    trace = flat_trace([4, 9, 2])
    path = tmp_path / "out.csv"
    write_trace_csv(trace, str(path))
    back = load_trace(str(path), 1.0, 60.0)
    assert back.rates == trace.rates
