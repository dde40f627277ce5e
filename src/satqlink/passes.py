"""Satellite pass geometry and free-space link transmission.

This module produces time series of the quantities a downlink cares about
during one satellite pass over a ground station: slant range, elevation,
range rate, and total channel transmission.  The orbit model is a circular
two-body Keplerian orbit around a rotating spherical Earth; the inertial
frame is chosen to coincide with the Earth-fixed frame at the pass epoch,
so right ascension and longitude share an origin at t = 0.

Transmission combines a far-field diffraction gain capped at 1 with a
zenith atmospheric transmission raised to the plane-parallel airmass
1/sin(elevation), times a catch-all system efficiency.  Profiles computed
elsewhere (other orbit propagators, other atmosphere codes) can be ingested
from CSV instead; the on-disk format is documented at
:func:`write_profile`.  Every CSV table the package writes or reads goes
through the one writer and reader here, and every file through one opener.

Conventions: SI units, angles in degrees in all public fields (suffix
``_deg``), radial velocity positive when the satellite recedes.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from datetime import datetime
from itertools import repeat
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .constants import EARTH_MU, EARTH_OMEGA, EARTH_RADIUS
from .errors import ConfigError, DataFormatError

__all__ = [
    "GroundStation",
    "SatelliteConfig",
    "OpticalParams",
    "PassSample",
    "PassProfile",
    "link_budget",
    "propagate_pass",
    "overpass_geometry",
    "read_profile",
    "write_profile",
]


# --------------------------------------------------------------------------
# configuration types


def _check_finite(config) -> None:
    """Reject NaN and +-inf in every float field of a dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} is not finite: {value}", field=f.name)


_MAX_ORBIT_RADIUS_M = 1e102  # the mean motion cubes the orbit radius; a float64 cube overflows past 5.6e102


def _orbit_radius(altitude_m: float, name: str) -> float:
    """The orbit radius at ``altitude_m``, refused unless it is above the surface and its cube is finite."""
    a = EARTH_RADIUS + altitude_m
    if not (altitude_m > 0.0 and a <= _MAX_ORBIT_RADIUS_M):
        raise ConfigError(f"{name} must be > 0 and at most {_MAX_ORBIT_RADIUS_M:g}: {altitude_m}", name)
    return a


@dataclass(frozen=True)
class GroundStation:
    """A receiving telescope site on the spherical Earth.

    ``min_elevation_deg`` gates visibility: the link exists only while the
    satellite elevation is at or above it.
    """

    name: str
    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0
    rx_telescope_diameter_m: float = 1.0
    min_elevation_deg: float = 20.0

    def __post_init__(self) -> None:
        _check_finite(self)
        # the name is a file-name part and a CSV column suffix
        if not self.name or not self.name.isprintable() or re.search(r"[\s/\\,]", self.name):
            raise ConfigError(f"station name must be a printable token without whitespace, '/', '\\' "
                              f"or ',', got {self.name!r}", "name")
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ConfigError(f"latitude_deg out of [-90, 90]: {self.latitude_deg}")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ConfigError(f"longitude_deg out of [-180, 180]: {self.longitude_deg}")
        if self.altitude_m < 0.0:
            raise ConfigError(f"altitude_m must be >= 0: {self.altitude_m}")
        if self.rx_telescope_diameter_m <= 0.0:
            raise ConfigError("rx_telescope_diameter_m must be > 0")
        if not 0.0 < self.min_elevation_deg < 90.0:
            raise ConfigError(f"min_elevation_deg out of (0, 90): {self.min_elevation_deg}")


@dataclass(frozen=True)
class SatelliteConfig:
    """Circular-orbit satellite carrying the entangled-photon source.

    ``raan_deg`` and ``phase_at_epoch_deg`` locate the orbital plane and the
    satellite within it at t = 0 (inertial frame = Earth-fixed frame at
    epoch).  ``memory_slots`` is the number of qubits the onboard memory can
    hold, the quantity every rate formula calls m_S.
    """

    orbit_altitude_m: float
    orbit_inclination_deg: float = 0.0
    raan_deg: float = 0.0
    phase_at_epoch_deg: float = 0.0
    tx_telescope_diameter_m: float = 0.1
    memory_slots: int = 100

    def __post_init__(self) -> None:
        _check_finite(self)
        _orbit_radius(self.orbit_altitude_m, "orbit_altitude_m")
        if self.tx_telescope_diameter_m <= 0.0:
            raise ConfigError("tx_telescope_diameter_m must be > 0")
        if int(self.memory_slots) != self.memory_slots or self.memory_slots < 1:
            raise ConfigError(f"memory_slots must be a positive integer: {self.memory_slots}")

    @property
    def semi_major_axis_m(self) -> float:
        return EARTH_RADIUS + self.orbit_altitude_m

    @property
    def mean_motion_rad_s(self) -> float:
        a = self.semi_major_axis_m
        return math.sqrt(EARTH_MU / a**3)

    @property
    def orbital_speed_mps(self) -> float:
        return self.semi_major_axis_m * self.mean_motion_rad_s


@dataclass(frozen=True)
class OpticalParams:
    """Optical-channel constants shared by every sample of a pass."""

    wavelength_m: float = 1550e-9
    zenith_atmospheric_transmission: float = 1.0
    system_efficiency: float = 1.0

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.wavelength_m <= 0.0:
            raise ConfigError("wavelength_m must be > 0")
        if not 0.0 < self.zenith_atmospheric_transmission <= 1.0:
            raise ConfigError("zenith_atmospheric_transmission must be in (0, 1]")
        if not 0.0 < self.system_efficiency <= 1.0:
            raise ConfigError("system_efficiency must be in (0, 1]")


# --------------------------------------------------------------------------
# samples and profiles


@dataclass(frozen=True)
class PassSample:
    """Link state at one instant of a pass.

    ``radial_velocity_mps`` is d(distance)/dt, positive while receding.
    ``eta`` is the total downlink transmission, zero whenever the sample is
    not visible.
    """

    t_s: float
    distance_m: float
    elevation_deg: float
    radial_velocity_mps: float
    eta: float
    visible: bool

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.distance_m <= 0.0:
            raise ConfigError(f"distance_m must be > 0: {self.distance_m}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta out of [0, 1]: {self.eta}")
        if not self.visible and self.eta != 0.0:
            raise ConfigError("eta must be 0 on invisible samples")


_EPOCH_RE = re.compile(r"^\S+$")


def _check_epoch(epoch: str) -> None:
    if not _EPOCH_RE.match(epoch):
        raise ConfigError(f"epoch must be a whitespace-free ISO-8601 string: {epoch!r}")
    try:
        datetime.fromisoformat(epoch.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ConfigError(f"epoch is not ISO-8601: {epoch!r}") from exc


@dataclass(frozen=True)
class PassProfile:
    """Uniformly sampled time series of link state for one station.

    Columns are stored as equal-length numpy arrays; ``sample(i)`` and
    iteration give scalar :class:`PassSample` views.  ``t_s`` starts at 0
    (seconds since ``epoch``) and advances in steps of ``step_s``.
    """

    station: str
    epoch: str
    step_s: float
    t_s: np.ndarray
    distance_m: np.ndarray
    elevation_deg: np.ndarray
    radial_velocity_mps: np.ndarray
    eta: np.ndarray
    visible: np.ndarray

    # spacing slack, seconds: profiles must be uniform to within this
    GRID_TOL_S = 1e-6

    def __post_init__(self) -> None:
        _check_finite(self)
        _check_epoch(self.epoch)
        arrays = {
            "t_s": np.asarray(self.t_s, dtype=float),
            "distance_m": np.asarray(self.distance_m, dtype=float),
            "elevation_deg": np.asarray(self.elevation_deg, dtype=float),
            "radial_velocity_mps": np.asarray(self.radial_velocity_mps, dtype=float),
            "eta": np.asarray(self.eta, dtype=float),
            "visible": np.asarray(self.visible, dtype=bool),
        }
        n = arrays["t_s"].size
        if n < 2:
            raise ConfigError("a pass profile needs at least 2 samples")
        for name, arr in arrays.items():
            if arr.shape != (n,):
                raise ConfigError(f"profile column {name} has shape {arr.shape}, want ({n},)")
            if name != "visible" and not np.all(np.isfinite(arr)):
                row = int(np.argmin(np.isfinite(arr)))
                raise ConfigError(f"profile column {name} is not finite at sample {row}: {arr[row]}")
            object.__setattr__(self, name, arr)
        if self.step_s <= 0.0:
            raise ConfigError(f"step_s must be > 0: {self.step_s}")
        dt = np.diff(arrays["t_s"])
        if np.any(dt <= 0.0):
            row = int(np.argmax(dt <= 0.0)) + 1
            raise ConfigError(f"t_s must be strictly increasing (sample {row})")
        if np.any(np.abs(dt - self.step_s) > self.GRID_TOL_S):
            raise ConfigError("t_s spacing deviates from step_s by more than 1 us")
        if np.any(arrays["distance_m"] <= 0.0):
            raise ConfigError("distance_m must be > 0 at every sample")
        eta = arrays["eta"]
        if np.any((eta < 0.0) | (eta > 1.0)):
            raise ConfigError("eta out of [0, 1]")
        if np.any(eta[~arrays["visible"]] != 0.0):
            raise ConfigError("eta must be 0 on invisible samples")

    @property
    def n_samples(self) -> int:
        return int(self.t_s.size)

    @property
    def duration_s(self) -> float:
        """Time covered by the profile under zero-order hold."""
        return float(self.t_s[-1] - self.t_s[0] + self.step_s)

    def sample(self, i: int) -> PassSample:
        return PassSample(
            t_s=float(self.t_s[i]),
            distance_m=float(self.distance_m[i]),
            elevation_deg=float(self.elevation_deg[i]),
            radial_velocity_mps=float(self.radial_velocity_mps[i]),
            eta=float(self.eta[i]),
            visible=bool(self.visible[i]),
        )

    def __iter__(self) -> Iterator[PassSample]:
        return (self.sample(i) for i in range(self.n_samples))

    def index_at(self, t: float) -> int:
        """Zero-order-hold sample index for time ``t`` (seconds from epoch)."""
        i = int(np.floor((t - self.t_s[0]) / self.step_s))
        return min(max(i, 0), self.n_samples - 1)


# --------------------------------------------------------------------------
# link budget


def _eta_arrays(
    distance_m: np.ndarray,
    elevation_deg: np.ndarray,
    sat: SatelliteConfig,
    station: GroundStation,
    optics: OpticalParams,
) -> np.ndarray:
    """Vectorized transmission; caller guarantees elevation > 0."""
    geom = (
        math.pi
        * sat.tx_telescope_diameter_m
        * station.rx_telescope_diameter_m
        / (4.0 * optics.wavelength_m * distance_m)
    ) ** 2
    geom = np.minimum(1.0, geom)
    airmass = 1.0 / np.sin(np.radians(elevation_deg))
    atmo = optics.zenith_atmospheric_transmission**airmass
    return geom * atmo * optics.system_efficiency


def link_budget(
    sample: PassSample,
    sat: SatelliteConfig,
    station: GroundStation,
    optics: OpticalParams,
) -> float:
    """Total downlink transmission for one visible sample.

    eta = min(1, (pi D_tx D_rx / (4 lambda L))^2)
          * T_zenith^(1/sin el) * system_efficiency

    The diffraction term is capped at 1 so short ranges cannot produce
    gain; the atmospheric term uses the plane-parallel airmass.  Pure and
    deterministic: identical inputs give bit-identical outputs.
    """
    if not sample.visible:
        raise ConfigError("link_budget needs a visible sample")
    if sample.elevation_deg <= 0.0:
        raise ConfigError(
            f"visible sample with non-positive elevation {sample.elevation_deg}"
        )
    out = _eta_arrays(
        np.asarray(sample.distance_m),
        np.asarray(sample.elevation_deg),
        sat,
        station,
        optics,
    )
    return float(out)


# --------------------------------------------------------------------------
# orbit propagation


def _rot_z(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _station_frame(station: GroundStation, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inertial position and velocity of the station at times ``t`` (3, n)."""
    lat = math.radians(station.latitude_deg)
    lon = math.radians(station.longitude_deg)
    r = EARTH_RADIUS + station.altitude_m
    p0 = r * np.array([math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)])
    ang = EARTH_OMEGA * t
    c, s = np.cos(ang), np.sin(ang)
    pos = np.vstack([c * p0[0] - s * p0[1], s * p0[0] + c * p0[1], np.full_like(t, p0[2])])
    # v = omega x r with omega along +z
    vel = EARTH_OMEGA * np.vstack([-pos[1], pos[0], np.zeros_like(t)])
    return pos, vel


def _satellite_frame(sat: SatelliteConfig, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inertial position and velocity of the satellite at times ``t`` (3, n)."""
    a = sat.semi_major_axis_m
    n = sat.mean_motion_rad_s
    u = math.radians(sat.phase_at_epoch_deg) + n * t
    plane = _rot_z(math.radians(sat.raan_deg)) @ _rot_x(math.radians(sat.orbit_inclination_deg))
    in_plane_pos = np.vstack([np.cos(u), np.sin(u), np.zeros_like(u)])
    in_plane_vel = np.vstack([-np.sin(u), np.cos(u), np.zeros_like(u)])
    return a * (plane @ in_plane_pos), a * n * (plane @ in_plane_vel)


def propagate_pass(
    sat: SatelliteConfig,
    station: GroundStation,
    epoch: str,
    duration_s: float,
    step_s: float = 1.0,
    optics: OpticalParams | None = None,
) -> PassProfile:
    """Sample the link geometry over ``[0, duration_s]`` at ``step_s``.

    Samples land at t = 0, step, 2 step, ... up to and including
    ``duration_s``.  Visibility is gated on the station's minimum
    elevation; ``eta`` is the link budget on visible samples and exactly 0
    elsewhere.  A pass that never rises above the elevation mask yields an
    all-invisible profile, not an error.
    """
    if not (0.0 < duration_s < math.inf and 0.0 < step_s < math.inf):
        raise ConfigError(f"duration_s and step_s must be finite and > 0: {duration_s}, {step_s}")
    if duration_s / step_s < 2.0:
        raise ConfigError("duration_s must cover at least 2 steps")
    _check_epoch(epoch)
    if optics is None:
        optics = OpticalParams()
    n = int(math.floor(duration_s / step_s + 1e-9)) + 1
    t = np.arange(n, dtype=float) * step_s

    sat_pos, sat_vel = _satellite_frame(sat, t)
    st_pos, st_vel = _station_frame(station, t)
    d = sat_pos - st_pos
    dist = np.linalg.norm(d, axis=0)
    zenith = st_pos / np.linalg.norm(st_pos, axis=0)
    sin_el = np.einsum("ij,ij->j", d, zenith) / dist
    elev = np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
    v_r = np.einsum("ij,ij->j", d, sat_vel - st_vel) / dist

    visible = elev >= station.min_elevation_deg
    eta = np.zeros_like(dist)
    if np.any(visible):
        eta[visible] = _eta_arrays(dist[visible], elev[visible], sat, station, optics)
    return PassProfile(
        station=station.name,
        epoch=epoch,
        step_s=step_s,
        t_s=t,
        distance_m=dist,
        elevation_deg=elev,
        radial_velocity_mps=v_r,
        eta=eta,
        visible=visible,
    )


def overpass_geometry(
    sat_altitude_m: float,
    inclination_deg: float,
    site_latitude_deg: float,
    site_longitude_deg: float,
    t_cross_s: float,
    ascending: bool = True,
) -> tuple[float, float]:
    """Choose (raan_deg, phase_at_epoch_deg) so the ground track crosses the site.

    Solves the circular-orbit geometry so that at ``t_cross_s`` seconds
    after epoch the sub-satellite point sits at the given latitude and
    longitude, on the ascending or descending half of the orbit.  Handy for
    building near-overhead passes in tests and demos without trial and error.
    """
    i = math.radians(inclination_deg)
    lat = math.radians(site_latitude_deg)
    if abs(math.sin(i)) < abs(math.sin(lat)):
        raise ConfigError(
            f"inclination {inclination_deg} deg cannot reach latitude {site_latitude_deg} deg"
        )
    a = _orbit_radius(sat_altitude_m, "sat_altitude_m")
    n = math.sqrt(EARTH_MU / a**3)
    u_asc = math.asin(math.sin(lat) / math.sin(i))
    u = u_asc if ascending else math.pi - u_asc
    # longitude of the sub-satellite point relative to the ascending node
    dalpha = math.atan2(math.sin(u) * math.cos(i), math.cos(u))
    raan = math.radians(site_longitude_deg) + EARTH_OMEGA * t_cross_s - dalpha
    phase = u - n * t_cross_s
    return math.degrees(raan) % 360.0, math.degrees(phase) % 360.0


# --------------------------------------------------------------------------
# CSV interchange

@contextmanager
def _text_io(target, mode: str) -> Iterator[tuple[TextIO, str]]:
    """Yield a text handle for ``target`` and the name that error messages cite.

    Every file the package reads or writes is opened here.  A path (``str``,
    ``bytes`` or ``os.PathLike``) is opened as UTF-8 and closed on exit.  A
    write goes to ``<path>.tmp``, with LF line ends, and is renamed over the
    path when the block exits cleanly; on an exception the temporary file is
    removed, so the path keeps its previous bytes.  An open handle is used
    as is and left open.
    """
    if not isinstance(target, (str, bytes, os.PathLike)):
        yield target, getattr(target, "name", "<stream>")
        return
    name = os.fsdecode(target)
    if "w" not in mode:
        with open(name, mode, encoding="utf-8") as fh:
            yield fh, name
        return
    tmp = name + ".tmp"
    try:
        with open(tmp, mode, encoding="utf-8", newline="\n") as fh:
            yield fh, name
        os.replace(tmp, name)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_csv(destination, header: str, columns: Sequence, comment: str | None = None) -> None:
    """Write ``columns`` as CSV rows under ``header``, after an optional ``comment`` line.

    A float column's cells carry 12 significant digits; integer and boolean cells are integers.
    Columns of unequal length raise ConfigError before ``destination`` is touched.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        lengths = ", ".join(f"{name}={len(c)}" for name, c in zip(header.split(","), columns))
        raise ConfigError(f"CSV columns differ in length: {lengths}")
    row = ",".join("%.12g" if c.dtype.kind == "f" else "%d" for c in columns) + "\n"
    with _text_io(destination, "w") as (fh, _):
        fh.write(header + "\n" if comment is None else f"{comment}\n{header}\n")
        fh.writelines(map(row.__mod__, zip(*(c.tolist() for c in columns))))


def _cell_fault(kind: type, token: str) -> str | None:
    """Why ``token`` is no ``kind`` cell (a finite float, an integer in [0, 2**63), a 0/1 flag), or None."""
    if kind is bool:
        return None if token in ("0", "1") else f"want 0 or 1, got {token!r}"
    try:
        value = kind(token)
    except ValueError:
        return f"not a number: {token!r}" if kind is float else f"not an integer >= 0: {token!r}"
    if kind is float:
        return None if math.isfinite(value) else f"not finite: {token!r}"
    return None if 0 <= value < 2**63 else f"not an integer >= 0: {token!r}"


def _read_csv(source, header: str, kinds: Sequence[type], comment: re.Pattern | None = None) -> tuple:
    """Read a table written by :func:`_write_csv` as ``(where, rows, match, columns)``.

    ``comment`` must match the first line, if given, and ``header`` the next.
    Each column is parsed whole into an array of its ``kinds`` entry, and a
    bad cell (see :func:`_cell_fault`) raises DataFormatError citing its row
    and column.  ``where`` names the source; ``rows`` holds each data line's
    row, counting every line from 1, as blank lines are skipped.
    """
    with _text_io(source, "r") as (fh, where):
        lines = fh.read().split("\n")
    match = None
    if comment is not None and not (match := comment.match(lines[0])):
        raise DataFormatError(f"{where}: row 1: bad metadata line {lines[0]!r}")
    top = 0 if comment is None else 1
    if (line := lines[top] if top < len(lines) else "") != header:
        raise DataFormatError(f"{where}: row {top + 1}: bad header {line!r}")
    data = lines[top + 1 : -1 if lines[-1] == "" else None]  # the line end of the last row ends no row
    rows: Sequence[int] = range(top + 2, top + 2 + len(data))
    if "" in data:
        rows = [r for r, line in zip(rows, data) if line]
        data = [line for line in data if line]
    n = header.count(",") + 1
    commas = list(map(str.count, data, repeat(",")))
    if commas.count(n - 1) != len(commas):
        i = next(i for i, c in enumerate(commas) if c != n - 1)
        raise DataFormatError(f"{where}: row {rows[i]}: expected {n} fields, got {commas[i] + 1}")
    cells = ",".join(data).split(",") if data else []
    columns = []
    for k, (name, kind) in enumerate(zip(header.split(","), kinds)):
        tokens = cells[k::n]
        parse, dtype = {float: (float, float), int: (int, np.int64), bool: (("0", "1").index, bool)}[kind]
        try:
            column = np.fromiter(map(parse, tokens), dtype, len(tokens))
        except (ValueError, OverflowError):
            column = None
        if column is None or not (np.isfinite(column) if kind is float else column >= 0).all():
            i, fault = next((i, f) for i, t in enumerate(tokens) if (f := _cell_fault(kind, t)))
            raise DataFormatError(f"{where}: row {rows[i]}, column {name}: {fault}")
        columns.append(column)
    return where, rows, match, columns


_CSV_HEADER = "t_s,distance_m,elevation_deg,radial_velocity_mps,eta,visible"
_META_RE = re.compile(r"^# station=(?P<station>\S+) epoch=(?P<epoch>\S+) step_s=(?P<step>\S+)$")


def write_profile(profile: PassProfile, destination: str | Path | TextIO) -> None:
    """Write a profile as CSV (UTF-8, LF), one metadata comment then data.

    Numeric fields carry 12 significant digits so a read/write cycle
    reproduces values to well past the 9 digits the format guarantees.
    """
    columns = [getattr(profile, name) for name in _CSV_HEADER.split(",")]
    meta = f"# station={profile.station} epoch={profile.epoch} step_s={profile.step_s:.12g}"
    _write_csv(destination, _CSV_HEADER, columns, meta)


def read_profile(source: str | Path | TextIO) -> PassProfile:
    """Read a profile written by :func:`write_profile`.

    Errors name the offending row (1-based, counting the metadata line as
    row 1) and column.  All profile invariants are re-checked on ingest, so
    hand-edited files cannot smuggle in inconsistent samples.
    """
    where, rows, meta, columns = _read_csv(source, _CSV_HEADER, (float,) * 5 + (bool,), _META_RE)
    if fault := _cell_fault(float, meta["step"]):
        raise DataFormatError(f"{where}: row 1, column step_s: {fault}")
    t, distance, _, _, eta, visible = columns
    for bad, name, fault in (
        (np.diff(t, prepend=-np.inf) <= 0.0, "t_s", "not increasing"),
        (distance <= 0.0, "distance_m", "must be > 0"),
        ((eta < 0.0) | (eta > 1.0), "eta", "out of [0, 1]"),
        (~visible & (eta != 0.0), "eta", "must be 0 when visible=0"),
    ):
        if bad.any():  # the first bad row of the check
            raise DataFormatError(f"{where}: row {rows[int(bad.argmax())]}, column {name}: {fault}")
    try:
        return PassProfile(meta["station"], meta["epoch"], float(meta["step"]), *columns)
    except ConfigError as exc:
        raise DataFormatError(f"{where}: {exc}") from exc
