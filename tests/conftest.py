"""Shared synthetic-profile builders and calibrated-scenario fixtures."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from satqlink import LinkParams, PassProfile, load_experiment

# the calibrated two-station pass: 500 km, Nice and Paris, m_S = 100
DEMO_SPEC = Path(__file__).resolve().parents[1] / "demos/specs/two_station.json"

# JSON texts that only the reader's guards stop: nesting past the parser's depth limit (1,000 levels already pass it
# on Python 3.11; 100,000 pass it on every version, whose C recursion limits differ), an integer past int()'s digit limit
JSON_PAST_LIMITS = {"nested": "[" * 100_000 + "]" * 100_000, "digits": "9" * 5000}

# round-log header values a reader must refuse rather than coerce: (key, JSON text)
LOG_HEADER_COERCIONS = [("seed", "1.9"), ("seed", "true"), ("seed", '"7"'), ("seed", "-1"), ("bin_width_s", '"2.5"'),
                        ("policy", "7"), ("policy", "null"), ("engine_version", "1")]

C_LIGHT = 299792458.0
EPOCH = "2026-01-01T00:00:00Z"


def make_profile(
    eta,
    visible=None,
    distance_m=None,
    v_r_mps=None,
    station: str = "syn",
    step_s: float = 1.0,
    epoch: str = EPOCH,
) -> PassProfile:
    """Profile from raw arrays; invisible samples get eta 0 and elevation -5."""
    eta = np.asarray(eta, dtype=float)
    n = eta.size
    if visible is None:
        visible = eta > 0
    visible = np.asarray(visible, dtype=bool)
    eta = np.where(visible, eta, 0.0)
    if distance_m is None:
        distance_m = np.full(n, 500e3)
    if v_r_mps is None:
        v_r_mps = np.zeros(n)
    return PassProfile(
        station=station,
        epoch=epoch,
        step_s=step_s,
        t_s=np.arange(n, dtype=float) * step_s,
        distance_m=np.asarray(distance_m, dtype=float),
        elevation_deg=np.where(visible, 45.0, -5.0),
        radial_velocity_mps=np.asarray(v_r_mps, dtype=float),
        eta=eta,
        visible=visible,
    )


def constant_profile(
    n_samples: int,
    eta: float,
    t_rt_s: float,
    v_r_mps: float = 0.0,
    station: str = "const",
    step_s: float = 1.0,
) -> PassProfile:
    """Constant-channel profile whose distance realizes the given round trip."""
    return make_profile(
        np.full(n_samples, eta),
        distance_m=np.full(n_samples, t_rt_s * C_LIGHT / 2.0),
        v_r_mps=np.full(n_samples, v_r_mps),
        station=station,
        step_s=step_s,
    )


def unimodal_pair(rng: np.random.Generator, n: int = 240) -> tuple[PassProfile, PassProfile]:
    """Random pair of offset bell-shaped passes on a shared grid."""
    t = np.arange(n, dtype=float)

    def leg(name, center, width, peak_eta, d0, dspan):
        eta = peak_eta * np.exp(-0.5 * ((t - center) / width) ** 2)
        vis = eta > peak_eta * 0.02
        eta = np.where(vis, eta, 0.0)
        dist = d0 + dspan * ((t - center) / n) ** 2
        v_r = np.gradient(dist, t)
        return make_profile(eta, vis, dist, v_r, station=name)

    c1 = rng.uniform(0.25 * n, 0.5 * n)
    c2 = c1 + rng.uniform(n / 12, n / 3)
    a = leg("a", c1, rng.uniform(n / 12, 0.1875 * n), 10 ** rng.uniform(-3.2, -1.8),
            rng.uniform(5e5, 9e5), rng.uniform(4e5, 1e6))
    b = leg("b", c2, rng.uniform(n / 12, 0.1875 * n), 10 ** rng.uniform(-3.2, -1.8),
            rng.uniform(5e5, 9e5), rng.uniform(4e5, 1e6))
    return a, b


def random_profile(rng: np.random.Generator, n: int | None = None) -> PassProfile:
    """Arbitrary valid profile for serialization round-trips."""
    if n is None:
        n = int(rng.integers(2, 400))
    eta = 10 ** rng.uniform(-8, 0, n)
    visible = rng.random(n) < 0.7
    return make_profile(
        eta,
        visible,
        distance_m=rng.uniform(3e5, 3e6, n),
        v_r_mps=rng.uniform(-8e3, 8e3, n),
        station=f"rnd{rng.integers(0, 1000)}",
        step_s=float(rng.choice([0.5, 1.0, 2.0])),
    )


def _calibrated(m_sat: int) -> tuple[tuple[PassProfile, PassProfile], LinkParams]:
    exp = load_experiment(DEMO_SPEC).with_overrides(m_sat=m_sat)
    return exp.profiles(), exp.link


@pytest.fixture(scope="session")
def calibrated_m1000() -> tuple[tuple[PassProfile, PassProfile], LinkParams]:
    return _calibrated(1000)


@pytest.fixture(scope="session")
def calibrated_m100() -> tuple[tuple[PassProfile, PassProfile], LinkParams]:
    return _calibrated(100)


@pytest.fixture(scope="session")
def calibrated_m50() -> tuple[tuple[PassProfile, PassProfile], LinkParams]:
    return _calibrated(50)


@pytest.fixture(scope="session")
def calibrated_m10() -> tuple[tuple[PassProfile, PassProfile], LinkParams]:
    return _calibrated(10)
