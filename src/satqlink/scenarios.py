"""Canned scenarios shared by tests and demo scripts.

The two-station scenario is calibrated so that a 500 km sun-synchronous-like
pass covers both stations with a co-visible window of a few minutes and
culminations offset by about 90 s.  Tests pin down its derived numbers, so
treat every constant here as frozen.
"""

from __future__ import annotations

from .analytics import LinkParams
from .passes import (
    GroundStation,
    OpticalParams,
    PassProfile,
    SatelliteConfig,
    overpass_geometry,
    propagate_pass,
)

__all__ = [
    "EPOCH",
    "two_station_scenario",
    "two_station_profiles",
]

EPOCH = "2026-03-21T10:00:00Z"

_ALTITUDE_M = 500e3
_INCLINATION_DEG = 97.4
_AIM_LAT_DEG = 46.3
_AIM_LON_DEG = 5.0
_AIM_TIME_S = 400.0
_DURATION_S = 900.0
_STEP_S = 1.0


def two_station_scenario(
    m_sat: int = 100,
) -> tuple[SatelliteConfig, tuple[GroundStation, GroundStation], OpticalParams, LinkParams]:
    """Satellite, stations, optics, and link constants for the paired pass.

    The orbit is aimed to cross (46.3 N, 5.0 E) ascending at t = 400 s, which
    puts the track between the two stations and gives both a high pass.
    """
    raan_deg, phase_deg = overpass_geometry(
        _ALTITUDE_M, _INCLINATION_DEG, _AIM_LAT_DEG, _AIM_LON_DEG, _AIM_TIME_S, ascending=True
    )
    sat = SatelliteConfig(
        orbit_altitude_m=_ALTITUDE_M,
        orbit_inclination_deg=_INCLINATION_DEG,
        raan_deg=raan_deg,
        phase_at_epoch_deg=phase_deg,
        tx_telescope_diameter_m=0.1,
        memory_slots=m_sat,
    )
    stations = (
        GroundStation("nice", 43.7034, 7.2663),
        GroundStation("paris", 48.8566, 2.3522),
    )
    optics = OpticalParams(wavelength_m=1550e-9, zenith_atmospheric_transmission=0.85)
    link = LinkParams(m_sat=m_sat)
    return sat, stations, optics, link


def two_station_profiles(
    m_sat: int = 100,
) -> tuple[tuple[PassProfile, PassProfile], LinkParams]:
    """Propagated pass pair for the calibrated scenario."""
    sat, stations, optics, link = two_station_scenario(m_sat)
    profiles = tuple(
        propagate_pass(sat, st, EPOCH, _DURATION_S, _STEP_S, optics) for st in stations
    )
    return profiles, link

