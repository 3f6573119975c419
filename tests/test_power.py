import random

import pytest

from brownsim.model import DEFAULT_BREAKPOINTS, HostMode, PowerProfile
from brownsim.power import hpm, hum

PROFILE = PowerProfile()


def test_hum_hits_every_breakpoint():
    for u, watts in DEFAULT_BREAKPOINTS:
        got = hum(PROFILE, HostMode.ACTIVE, u)
        assert got == watts, f"hum({u}) = {got}, expected {watts}"


def test_hum_modes():
    assert hum(PROFILE, HostMode.SLEEP, 0.0) == 10.0
    assert hum(PROFILE, HostMode.SLEEP, 0.9) == 10.0, "sleep draw ignores utilization"
    assert hum(PROFILE, HostMode.BOOTING, 0.0) == 201.0, "booting host draws idle power"


def test_hum_interpolates_between_breakpoints():
    assert hum(PROFILE, HostMode.ACTIVE, 0.75) == pytest.approx(228.0, abs=1e-9)
    assert hum(PROFILE, HostMode.ACTIVE, 0.05) == pytest.approx(203.5, abs=1e-9)


def test_hum_rejects_out_of_range_utilization():
    with pytest.raises(ValueError):
        hum(PROFILE, HostMode.ACTIVE, -0.01)
    with pytest.raises(ValueError):
        hum(PROFILE, HostMode.ACTIVE, 1.01)


def test_hpm_inverts_breakpoints_exactly():
    for u, watts in DEFAULT_BREAKPOINTS:
        got = hpm(PROFILE, watts)
        assert got == u, f"hpm({watts}) = {got}, expected {u}"


def test_hpm_known_values():
    assert hpm(PROFILE, 231.0) == pytest.approx(0.80, abs=1e-9)
    assert hpm(PROFILE, 228.0) == pytest.approx(0.75, abs=1e-9)
    assert hpm(PROFILE, 201.0) == 0.0


def test_hpm_range_error_names_interval():
    with pytest.raises(ValueError) as err:
        hpm(PROFILE, 200.0)
    assert "201" in str(err.value) and "237" in str(err.value)
    with pytest.raises(ValueError):
        hpm(PROFILE, 238.0)


def test_hpm_flat_segment_returns_lowest_utilization():
    flat = PowerProfile(breakpoints=((0.0, 100.0), (0.5, 200.0), (1.0, 200.0)),
                        sleep_power_w=5.0)
    assert hpm(flat, 200.0) == 0.5


def test_roundtrip_property():
    rng = random.Random(7)
    for _ in range(500):
        u = rng.random()
        p = hum(PROFILE, HostMode.ACTIVE, u)
        back = hpm(PROFILE, p)
        assert abs(back - u) < 1e-9, f"hpm(hum({u})) drifted to {back}"


def test_monotonicity_property():
    rng = random.Random(11)
    for _ in range(500):
        a, b = sorted((rng.random(), rng.random()))
        pa = hum(PROFILE, HostMode.ACTIVE, a)
        pb = hum(PROFILE, HostMode.ACTIVE, b)
        assert pa <= pb, f"power not monotone: u={a}->{pa} vs u={b}->{pb}"


def test_linear_profile_variant():
    lin = PowerProfile(breakpoints=((0.0, 201.0), (1.0, 237.0)))
    assert hum(lin, HostMode.ACTIVE, 0.0) == 201.0
    assert hum(lin, HostMode.ACTIVE, 1.0) == 237.0
    assert hum(lin, HostMode.ACTIVE, 0.5) == pytest.approx(219.0, abs=1e-9)
