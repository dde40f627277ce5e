"""Declarative experiment files: one JSON document describing a whole run.

The config dataclasses are the file's schema.  ``stations[i]``,
``satellite``, ``optics`` and ``link`` hold the fields of
:class:`GroundStation`, :class:`SatelliteConfig`, :class:`OpticalParams`
and :class:`LinkParams` (whose ``m_sat`` is ``satellite.memory_slots``).
``pass``, ``run`` and the top-level ``name``/``output_dir`` hold the field
groups of :class:`Experiment`.  A key is required exactly when its field
has no default, its type is the field's type, and ``null`` is accepted
(meaning the default) exactly where the default is ``None``.  Unknown keys
are rejected with their full path, so a typo fails loudly instead of
silently falling back to a default; a value a dataclass rejects is
reported with the path of the object that holds its key (``spec.pass``
for ``duration_s``).  All physics defaults can be overridden here and are
echoed into every output for provenance.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import Any

from .analytics import LinkParams, best_static_split
from .errors import ConfigError, DataFormatError
from .passes import (
    GroundStation,
    OpticalParams,
    PassProfile,
    SatelliteConfig,
    _check_finite,
    _text_io,
    propagate_pass,
)
from .sim import SimConfig, _check_run

__all__ = ["Experiment", "load_experiment"]

_POLICY_ALIASES = {"dynamic": "dynamic_int"}

# field groups of Experiment: the keys of the file's "pass" and "run" objects
_PASS = {"group": "pass"}
_RUN = {"group": "run"}

_MAX_GRID = 10**6  # samples (duration / step) or bins (duration / bin width) of one run; the demo spec has 900


@dataclass(frozen=True)
class Experiment:
    """A fully resolved experiment description.

    ``policy`` defaults to ``single`` for one station and ``dynamic_int``
    for two; ``dynamic`` is accepted for ``dynamic_int``.
    """

    name: str
    stations: tuple[GroundStation, ...]
    satellite: SatelliteConfig
    link: LinkParams
    epoch: str = field(metadata=_PASS)
    duration_s: float = field(metadata=_PASS)
    step_s: float = field(default=1.0, metadata=_PASS)
    optics: OpticalParams = field(default_factory=OpticalParams)
    policy: str | None = field(default=None, metadata=_RUN)
    static_split: tuple[int, int] | None = field(default=None, metadata=_RUN)
    seeds: int = field(default=1, metadata=_RUN)
    seed0: int = field(default=0, metadata=_RUN)
    bin_width_s: float = field(default=1.0, metadata=_RUN)
    drift: bool = field(default=True, metadata=_RUN)
    capture_rounds: bool = field(default=False, metadata=_RUN)
    retain_until_swap: bool = field(default=False, metadata=_RUN)
    output_dir: str | None = None

    def __post_init__(self) -> None:
        _check_finite(self)
        n = len(self.stations)
        policy = self.policy if self.policy is not None else ("single" if n == 1 else "dynamic_int")
        object.__setattr__(self, "policy", _POLICY_ALIASES.get(policy, policy))
        _check_run(self.policy, n, self.satellite.memory_slots, self.static_split, self.retain_until_swap,
                   self.bin_width_s)
        names = [st.name for st in self.stations]
        if len(set(names)) < n:
            raise ConfigError(f"stations[{n - 1}].name repeats {names[-1]!r}")
        for key, what in (("step_s", "samples"), ("bin_width_s", "bins")):
            width = getattr(self, key)
            if width > 0 and self.duration_s / width > _MAX_GRID:  # a step_s <= 0 is refused where it is used
                raise ConfigError(
                    f"{key} {width} makes more than {_MAX_GRID} {what} of duration_s {self.duration_s}", key)
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1: {self.seeds}", "seeds")
        if not 0 <= self.seed0 <= 2**64 - self.seeds:  # every seed fits a 64-bit generator seed
            raise ConfigError(f"seed0 must be in [0, 2**64 - seeds]: {self.seed0}", "seed0")

    @property
    def seed_list(self) -> list[int]:
        return list(range(self.seed0, self.seed0 + self.seeds))

    def profiles(self) -> tuple[PassProfile, ...]:
        """Propagate the pass for every station on the shared time grid."""
        return tuple(
            propagate_pass(self.satellite, st, self.epoch, self.duration_s, self.step_s, self.optics)
            for st in self.stations
        )

    def sim_config(self, seed: int, profiles: tuple[PassProfile, ...] | None = None) -> SimConfig:
        """The run at ``seed``; the static policy takes the declared split, else the best fixed one."""
        if profiles is None:
            profiles = self.profiles()
        split = None
        if self.policy == "static":
            split = self.static_split or best_static_split(*profiles, self.link.m_sat, self.link)
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
        if policy is not None:  # a declared split goes with the static policy, in one step
            exp = replace(exp, policy=policy, static_split=exp.static_split if policy == "static" else None)
        if drift is not None:
            exp = replace(exp, drift=drift)
        if seeds is not None:
            exp = replace(exp, seeds=seeds)
        return exp


# JSON value kinds of the scalar field types: (what the message asks for, accepted types)
_SCALARS = {
    float: ("a number", (int, float)),
    int: ("an integer", int),
    bool: ("true or false", bool),
    str: ("a string", str),
}


@cache
def _schema(cls: type) -> dict[str | None, dict[str, tuple[Any, bool, bool]]]:
    """Per key group (None: the object itself), each field's (type, required, nullable)."""
    hints = typing.get_type_hints(cls)
    groups: dict = {None: {}}
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        group = groups.setdefault(f.metadata.get("group"), {})
        group[f.name] = (hints[f.name], required, f.default is None)
    return groups


def _section(cls: type, obj: Any, path: str, **fixed: Any) -> Any:
    """Build ``cls`` from the JSON object at ``path``; ``fixed`` fields are not keys."""
    schema = _schema(cls)
    kwargs = dict(fixed)
    for group, keys in schema.items():
        where, src = (path, obj) if group is None else (f"{path}.{group}", obj.get(group, {}))
        if not isinstance(src, dict):
            raise ConfigError(f"{where} must be an object")
        allowed = keys.keys() - fixed.keys()
        if group is None:
            allowed |= schema.keys() - {None}
        for key in src:
            if key not in allowed:
                raise ConfigError(f"unknown key {where}.{key}")
        for key, (hint, required, nullable) in keys.items():
            if key in fixed:
                continue
            if is_dataclass(hint):
                # an absent section reads as {}; a link's memory is the satellite's
                sub = {"m_sat": kwargs["satellite"].memory_slots} if hint is LinkParams else {}
                kwargs[key] = _section(hint, src.get(key, {}), f"{where}.{key}", **sub)
            elif key in src and not (nullable and src[key] is None):
                kwargs[key] = _value(hint, src[key], f"{where}.{key}")
            elif required:
                raise ConfigError(f"missing key {where}.{key}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:  # cite the object that holds the field's key
        group = next((g for g, keys in schema.items() if exc.field in keys), None)
        raise ConfigError(f"{path}.{group}: {exc}" if group else f"{path}: {exc}") from None


def _value(hint: Any, value: Any, path: str) -> Any:
    """Check one JSON value against a field type and convert it."""
    if isinstance(hint, types.UnionType):  # X | None: null was handled by the caller
        hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        return _section(hint, value, path)
    if typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)
        if items[-1] is Ellipsis:
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{path} must be a non-empty array")
            items = items[:1] * len(value)
        elif not isinstance(value, list) or len(value) != len(items):
            raise ConfigError(f"{path} must be an array of {len(items)}")
        return tuple(_value(h, v, f"{path}[{i}]") for i, (h, v) in enumerate(zip(items, value)))
    what, accepted = _SCALARS[hint]
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{path} must be {what}, got {type(value).__name__}")
    return float(value) if hint is float else value


def load_experiment(path: str | Path) -> Experiment:
    """Read and schema-check an experiment file; ``name`` defaults to the file's stem."""
    p = Path(path)
    try:
        with _text_io(p, "r") as (fh, _):
            raw = fh.read()
    except OSError as exc:
        raise DataFormatError(f"{p}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{p}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: experiment file must hold a JSON object")
    return _section(Experiment, {"name": p.stem, **doc}, "spec")
