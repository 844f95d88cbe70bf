"""Run configuration: INI-style ``key = value`` files with section headers.

Defaults reproduce the baseline experiment set (s0=100, T=1, nu0=4, dt=0.005,
q0=0, gamma=0.1, theta=0.02, alpha=4, rho=0.7, xi=0.5, k=1.5, A=140,
beta=0.03; eta=0.09 for impact runs).  Unknown sections or keys are rejected
so typos cannot silently fall back to defaults.  A resolved configuration can
be dumped to a manifest and re-parsed to reproduce a run exactly.
"""

from __future__ import annotations

import configparser
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .quotes import IMPACT_VARIANTS
from .seeding import SCHEMES

__all__ = ["RunConfig", "load_config", "apply_overrides", "dump_manifest"]


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected a list of numbers, got {text!r}") from exc


# section -> key -> (parser, default)
SCHEMA: dict[str, dict[str, tuple]] = {
    "heston": {
        "theta": (float, 0.02),
        "alpha": (float, 4.0),
        "xi": (float, 0.5),
        "rho": (float, 0.7),
        "s0": (float, 100.0),
        "nu0": (float, 4.0),
    },
    "arrival": {
        "a": (float, 140.0),
        "k": (float, 1.5),
    },
    "risk": {
        "gamma": (float, 0.1),
        "beta": (float, 0.03),
        "eta": (float, 0.09),
    },
    "sim": {
        "t_horizon": (float, 1.0),
        "dt": (float, 0.005),
        "q0": (int, 0),
        "n_paths": (int, 1000),
        "seed": (int, 0),
        "scheme": (str, "binomial"),
        "snapshot_stride": (int, 1),
        "impact": (_bool, False),
        "policy": (str, "inventory"),
        "impact_variant": (str, "flow_adjusted"),
    },
    "frontier": {
        "gammas": (_float_list, [0.0, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0]),
        "q0": (int, 6),
        "n_paths": (int, 1000),
    },
    "hjb": {
        "q_min": (int, -10),
        "q_max": (int, 10),
        "nu_lo": (float, 0.0),
        "nu_hi": (float, 12.0),
        "n_nu": (int, 61),
        "n_time": (int, 200),
        "include_impact": (_bool, False),
        "gap_nu_lo": (float, 1.0),
        "gap_nu_hi": (float, 8.0),
    },
    "pricing": {
        "strike": (float, 100.0),
        "eta_nu": (float, 0.0),
        "n_s": (int, 161),
        "n_nu": (int, 31),
        "n_time": (int, 200),
    },
    "option_mm": {
        "hedged": (_bool, True),
        "n_paths": (int, 1000),
        "dt": (float, 0.001),
        "q_o0": (int, 0),
        "lattice_n_s": (int, 5),
        "lattice_n_nu": (int, 4),
        "lattice_n_t": (int, 5),
        "lattice_paths": (int, 1000),  # unused: the lattice is solved, not sampled
    },
    "output": {
        "dir": (str, ""),
    },
}

_POLICIES = ("inventory", "impact", "symmetric", "frozen", "risk_neutral")


@dataclass
class RunConfig:
    """Fully resolved configuration: ``values[section][key]``."""

    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    def get(self, section: str, key: str):
        return self.values[section][key]


def _defaults() -> dict:
    return {sec: {k: spec[1] for k, spec in keys.items()} for sec, keys in SCHEMA.items()}


def _set_value(values: dict, section: str, key: str, raw: str) -> None:
    if section not in SCHEMA:
        raise ConfigError(f"unknown section [{section}]")
    key = key.lower()
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    parser = SCHEMA[section][key][0]
    try:
        values[section][key] = parser(raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def _validate(cfg: RunConfig) -> None:
    if cfg.get("sim", "policy") not in _POLICIES:
        raise ConfigError(f"unknown policy {cfg.get('sim', 'policy')!r}; choose from {_POLICIES}")
    for key, choices in (("scheme", SCHEMES), ("impact_variant", IMPACT_VARIANTS)):
        if cfg.get("sim", key) not in choices:
            raise ConfigError(f"sim.{key} must be {' or '.join(choices)}")
    for sec, key in (("sim", "n_paths"), ("frontier", "n_paths"), ("option_mm", "n_paths")):
        if cfg.get(sec, key) < 1:
            raise ConfigError(f"{sec}.{key} must be positive")
    for key in ("lattice_n_s", "lattice_n_nu", "lattice_n_t"):  # a cell needs two nodes
        if cfg.get("option_mm", key) < 2:
            raise ConfigError(f"option_mm.{key} must be at least 2")
    if cfg.get("sim", "seed") < 0:  # a seed entropy is a non-negative integer
        raise ConfigError("sim.seed must be non-negative")


def load_config(path: str | Path | None = None, overrides: Sequence[str] = ()) -> RunConfig:
    """Defaults, overlaid with an optional config file and then with
    ``section.key=value`` overrides, validated once."""
    values = _defaults()
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            read = parser.read(str(path), encoding="utf-8")
            if not read:
                raise ConfigError(f"config file not found: {path}")
            for section in parser.sections():
                if section not in SCHEMA:
                    raise ConfigError(f"unknown section [{section}]")
                for key, raw in parser.items(section):
                    _set_value(values, section, key, raw)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
    return apply_overrides(RunConfig(values=values), overrides)


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``section.key=value`` command-line overrides (highest precedence)."""
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        _set_value(cfg.values, section.strip().lower(), key.strip(), raw.strip())
    _validate(cfg)
    return cfg


def dump_manifest(cfg: RunConfig, path: str | Path) -> None:
    """Write the resolved configuration as a re-loadable config file."""
    lines = []
    for section in SCHEMA:
        lines.append(f"[{section}]")
        for key, value in cfg.values[section].items():
            if isinstance(value, list):
                text = " ".join(repr(float(v)) for v in value)
            elif isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    Path(path).write_text("\n".join(lines))
