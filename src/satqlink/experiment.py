"""Declarative experiment files: one JSON document describing a whole run.

The file names the ground stations, the satellite and optics, the link
constants, the pass window, and the run settings (policy, seeds, binning).
Every key is checked against the schema and unknown keys are rejected, so
a typo fails loudly instead of silently falling back to a default.  All
physics defaults can be overridden here and are echoed into every output
for provenance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from .analytics import LinkParams, best_static_split
from .constants import C_LIGHT, DEFAULT_COINCIDENCE_WINDOW, DEFAULT_EMISSION_PERIOD, DEFAULT_P_BSM
from .errors import ConfigError, DataFormatError
from .passes import GroundStation, OpticalParams, PassProfile, SatelliteConfig, propagate_pass
from .sim import SimConfig

__all__ = ["Experiment", "load_experiment"]

_POLICY_ALIASES = {
    "single": "single",
    "static": "static",
    "dynamic": "dynamic_int",
    "dynamic_int": "dynamic_int",
}


@dataclass(frozen=True)
class Experiment:
    """A fully resolved experiment description."""

    name: str
    stations: tuple[GroundStation, ...]
    satellite: SatelliteConfig
    optics: OpticalParams
    link: LinkParams
    epoch: str
    duration_s: float
    step_s: float
    policy: str
    static_split: tuple[int, int] | None
    seeds: int
    seed0: int
    bin_width_s: float
    drift: bool
    capture_rounds: bool
    retain_until_swap: bool
    output_dir: str | None

    def __post_init__(self) -> None:
        if not 1 <= len(self.stations) <= 2:
            raise ConfigError(f"need 1 or 2 stations, got {len(self.stations)}")
        if self.policy not in ("single", "static", "dynamic_int"):
            raise ConfigError(f"unknown policy {self.policy!r}")
        want = 1 if self.policy == "single" else 2
        if len(self.stations) != want:
            raise ConfigError(
                f"policy {self.policy} needs {want} station(s), got {len(self.stations)}"
            )
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1: {self.seeds}")
        if self.seed0 < 0:
            raise ConfigError(f"seed0 must be >= 0: {self.seed0}")

    @property
    def seed_list(self) -> list[int]:
        return list(range(self.seed0, self.seed0 + self.seeds))

    def profiles(self) -> tuple[PassProfile, ...]:
        """Propagate the pass for every station on the shared time grid."""
        return tuple(
            propagate_pass(self.satellite, st, self.epoch, self.duration_s, self.step_s, self.optics)
            for st in self.stations
        )

    def resolve_static_split(self, profiles: tuple[PassProfile, ...]) -> tuple[int, int]:
        """The declared split, or the best fixed split of the profile pair."""
        if self.static_split is not None:
            return self.static_split
        return best_static_split(profiles[0], profiles[1], self.link.m_sat, self.link)

    def sim_config(self, seed: int, profiles: tuple[PassProfile, ...] | None = None) -> SimConfig:
        if profiles is None:
            profiles = self.profiles()
        split = None
        if self.policy == "static":
            split = self.resolve_static_split(profiles)
        return SimConfig(
            profiles=profiles,
            link_params=tuple(self.link for _ in profiles),
            policy=self.policy,
            rng_seed=seed,
            static_split=split,
            bin_width_s=self.bin_width_s,
            drift=self.drift,
            capture_rounds=self.capture_rounds,
            retain_until_swap=self.retain_until_swap,
        )

    def with_overrides(
        self,
        m_sat: int | None = None,
        policy: str | None = None,
        drift: bool | None = None,
        seeds: int | None = None,
    ) -> "Experiment":
        """Copy with command-line overrides applied."""
        exp = self
        if m_sat is not None:
            sat = replace(exp.satellite, memory_slots=m_sat)
            exp = replace(exp, satellite=sat, link=exp.link.with_m_sat(m_sat), static_split=None)
        if policy is not None:
            resolved = _POLICY_ALIASES.get(policy)
            if resolved is None:
                raise ConfigError(f"unknown policy {policy!r}")
            exp = replace(exp, policy=resolved)
            if resolved != "static":
                exp = replace(exp, static_split=None)
        if drift is not None:
            exp = replace(exp, drift=drift)
        if seeds is not None:
            exp = replace(exp, seeds=seeds)
        return exp


def _check_keys(obj: dict, allowed: dict[str, bool], path: str) -> None:
    """``allowed`` maps key -> required; unknown keys are an error."""
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")
    for key, required in allowed.items():
        if required and key not in obj:
            raise ConfigError(f"missing key {path}.{key}")


def _num(obj: dict, key: str, path: str, default: float | None = None) -> float | None:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number, got {type(v).__name__}")
    return float(v)


def _intval(obj: dict, key: str, path: str, default: int | None = None) -> int | None:
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key} must be an integer, got {type(v).__name__}")
    return int(v)


def _boolean(obj: dict, key: str, path: str, default: bool) -> bool:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, bool):
        raise ConfigError(f"{path}.{key} must be true or false, got {type(v).__name__}")
    return v


def _text(obj: dict, key: str, path: str, default: str | None = None) -> str | None:
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, str):
        raise ConfigError(f"{path}.{key} must be a string, got {type(v).__name__}")
    return v


def _station(obj: Any, path: str) -> GroundStation:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    _check_keys(
        obj,
        {
            "name": True,
            "latitude_deg": True,
            "longitude_deg": True,
            "altitude_m": False,
            "rx_telescope_diameter_m": False,
            "min_elevation_deg": False,
        },
        path,
    )
    return GroundStation(
        name=_text(obj, "name", path),
        latitude_deg=_num(obj, "latitude_deg", path),
        longitude_deg=_num(obj, "longitude_deg", path),
        altitude_m=_num(obj, "altitude_m", path, 0.0),
        rx_telescope_diameter_m=_num(obj, "rx_telescope_diameter_m", path, 1.0),
        min_elevation_deg=_num(obj, "min_elevation_deg", path, 20.0),
    )


def load_experiment(path: str | Path) -> Experiment:
    """Read and schema-check an experiment file."""
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{p}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{p}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: experiment file must hold a JSON object")
    _check_keys(
        doc,
        {
            "name": False,
            "stations": True,
            "satellite": True,
            "optics": False,
            "link": False,
            "pass": True,
            "run": False,
            "output_dir": False,
        },
        "spec",
    )

    stations_raw = doc["stations"]
    if not isinstance(stations_raw, list) or not stations_raw:
        raise ConfigError("spec.stations must be a non-empty array")
    stations = tuple(
        _station(s, f"spec.stations[{i}]") for i, s in enumerate(stations_raw)
    )

    sat_raw = doc["satellite"]
    if not isinstance(sat_raw, dict):
        raise ConfigError("spec.satellite must be an object")
    _check_keys(
        sat_raw,
        {
            "orbit_altitude_m": True,
            "orbit_inclination_deg": False,
            "raan_deg": False,
            "phase_at_epoch_deg": False,
            "tx_telescope_diameter_m": False,
            "memory_slots": False,
        },
        "spec.satellite",
    )
    satellite = SatelliteConfig(
        orbit_altitude_m=_num(sat_raw, "orbit_altitude_m", "spec.satellite"),
        orbit_inclination_deg=_num(sat_raw, "orbit_inclination_deg", "spec.satellite", 0.0),
        raan_deg=_num(sat_raw, "raan_deg", "spec.satellite", 0.0),
        phase_at_epoch_deg=_num(sat_raw, "phase_at_epoch_deg", "spec.satellite", 0.0),
        tx_telescope_diameter_m=_num(sat_raw, "tx_telescope_diameter_m", "spec.satellite", 0.1),
        memory_slots=_intval(sat_raw, "memory_slots", "spec.satellite", 100),
    )

    optics_raw = doc.get("optics", {})
    if not isinstance(optics_raw, dict):
        raise ConfigError("spec.optics must be an object")
    _check_keys(
        optics_raw,
        {"wavelength_m": False, "zenith_atmospheric_transmission": False, "system_efficiency": False},
        "spec.optics",
    )
    optics = OpticalParams(
        wavelength_m=_num(optics_raw, "wavelength_m", "spec.optics", 1550e-9),
        zenith_atmospheric_transmission=_num(
            optics_raw, "zenith_atmospheric_transmission", "spec.optics", 1.0
        ),
        system_efficiency=_num(optics_raw, "system_efficiency", "spec.optics", 1.0),
    )

    link_raw = doc.get("link", {})
    if not isinstance(link_raw, dict):
        raise ConfigError("spec.link must be an object")
    _check_keys(
        link_raw,
        {
            "emission_period_s": False,
            "acceptance_window_s": False,
            "p_bsm": False,
            "m_ground": False,
            "processing_delay_s": False,
            "light_speed_mps": False,
        },
        "spec.link",
    )
    link = LinkParams(
        m_sat=satellite.memory_slots,
        m_ground=_intval(link_raw, "m_ground", "spec.link", None),
        emission_period_s=_num(link_raw, "emission_period_s", "spec.link", DEFAULT_EMISSION_PERIOD),
        acceptance_window_s=_num(
            link_raw, "acceptance_window_s", "spec.link", DEFAULT_COINCIDENCE_WINDOW
        ),
        p_bsm=_num(link_raw, "p_bsm", "spec.link", DEFAULT_P_BSM),
        processing_delay_s=_num(link_raw, "processing_delay_s", "spec.link", 0.0),
        light_speed_mps=_num(link_raw, "light_speed_mps", "spec.link", C_LIGHT),
    )

    pass_raw = doc["pass"]
    if not isinstance(pass_raw, dict):
        raise ConfigError("spec.pass must be an object")
    _check_keys(pass_raw, {"epoch": True, "duration_s": True, "step_s": False}, "spec.pass")
    epoch = _text(pass_raw, "epoch", "spec.pass")
    duration_s = _num(pass_raw, "duration_s", "spec.pass")
    step_s = _num(pass_raw, "step_s", "spec.pass", 1.0)

    run_raw = doc.get("run", {})
    if not isinstance(run_raw, dict):
        raise ConfigError("spec.run must be an object")
    _check_keys(
        run_raw,
        {
            "policy": False,
            "static_split": False,
            "seeds": False,
            "seed0": False,
            "bin_width_s": False,
            "drift": False,
            "capture_rounds": False,
            "retain_until_swap": False,
        },
        "spec.run",
    )
    policy_raw = _text(run_raw, "policy", "spec.run", "single" if len(stations) == 1 else "dynamic_int")
    policy = _POLICY_ALIASES.get(policy_raw)
    if policy is None:
        raise ConfigError(f"spec.run.policy: unknown policy {policy_raw!r}")
    split_raw = run_raw.get("static_split")
    static_split: tuple[int, int] | None = None
    if split_raw is not None:
        if (
            not isinstance(split_raw, list)
            or len(split_raw) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in split_raw)
        ):
            raise ConfigError("spec.run.static_split must be a pair of integers")
        static_split = (split_raw[0], split_raw[1])

    return Experiment(
        name=_text(doc, "name", "spec", p.stem),
        stations=stations,
        satellite=satellite,
        optics=optics,
        link=link,
        epoch=epoch,
        duration_s=duration_s,
        step_s=step_s,
        policy=policy,
        static_split=static_split,
        seeds=_intval(run_raw, "seeds", "spec.run", 1),
        seed0=_intval(run_raw, "seed0", "spec.run", 0),
        bin_width_s=_num(run_raw, "bin_width_s", "spec.run", 1.0),
        drift=_boolean(run_raw, "drift", "spec.run", True),
        capture_rounds=_boolean(run_raw, "capture_rounds", "spec.run", False),
        retain_until_swap=_boolean(run_raw, "retain_until_swap", "spec.run", False),
        output_dir=_text(doc, "output_dir", "spec", None),
    )
