"""Physical constants and model defaults shared across modules.

All quantities are SI unless the name says otherwise.
"""

from __future__ import annotations

# the package exports the defaults a caller may quote; the orbit constants stay internal
__all__ = [
    "C_LIGHT",
    "EARTH_RADIUS",
    "DEFAULT_EMISSION_PERIOD",
    "DEFAULT_COINCIDENCE_WINDOW",
    "DEFAULT_P_BSM",
]

# Vacuum speed of light, m/s (exact by definition).
C_LIGHT = 299_792_458.0

# Spherical-Earth radius used by the pass geometry, m.
EARTH_RADIUS = 6_371_000.0

# Standard gravitational parameter of Earth, m^3/s^2.
EARTH_MU = 3.986_004_418e14

# Earth rotation rate, rad/s.
EARTH_OMEGA = 7.292_1159e-5

# Default emission period of the source photon train, s (1 MHz repetition).
DEFAULT_EMISSION_PERIOD = 1e-6

# Default coincidence window of the receiver-side interference filter, s.
DEFAULT_COINCIDENCE_WINDOW = 1.5e-9

# Default Bell-state measurement success probability (linear optics).
DEFAULT_P_BSM = 0.5
