"""Flat key=value run configuration: parsing, defaults, validation.

The format is one ``key = value`` per line, ``#`` comments, blank lines
ignored. Powers are written in dB and converted to linear scale on load
(the noise variance is 1 at both receivers, so dB powers read as SNRs).
``SCHEMA`` is the one table of defaults, and each key but the dB ones names
the field it fills.
"""

from __future__ import annotations

import dataclasses
import math
from importlib import resources
from pathlib import Path
from typing import Optional

from .channel import ChannelParams
from .experiment import ExperimentKind, SystemConfig
from .metrics import PowerConfig, db_to_linear, linear_to_db
from .optimizer import OptimizerConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# key -> (converter, default); REQUIRED means the key must appear. The
# optimizer keys take their defaults from OptimizerConfig; mu_db is mu in dB.
REQUIRED = object()
_OPTIMIZER = {f.name: f.default for f in dataclasses.fields(OptimizerConfig)}
SCHEMA = {
    "n_tx": (int, REQUIRED),
    "n_rx": (int, REQUIRED),
    "n_clusters": (int, REQUIRED),
    "n_rays": (int, REQUIRED),
    "angular_spread_deg": (float, 10.0),
    "p_s_db": (float, 10.0),
    "p_j_db": (float, 10.0),
    "delta0": (float, _OPTIMIZER["delta0"]),
    "epsilon": (float, _OPTIMIZER["epsilon"]),
    "kappa": (float, _OPTIMIZER["kappa"]),
    "zeta": (float, _OPTIMIZER["zeta"]),
    "mu_db": (float, linear_to_db(_OPTIMIZER["mu"])),
    "max_iters": (int, _OPTIMIZER["max_iters"]),
    "max_cycles": (int, _OPTIMIZER["max_cycles"]),
    "delta_min": (float, _OPTIMIZER["delta_min"]),
    "n_trials": (int, 1000),
    "seed": (int, 0),
    "experiment": (ExperimentKind, REQUIRED),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Raw key=value lines to a string map; duplicate keys are an error."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def resolve_values(raw: dict[str, str]) -> dict:
    """Apply the schema: convert types, fill defaults, reject unknown keys
    and non-finite floats."""
    for key in raw:
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
    resolved = {}
    for key, (convert, default) in SCHEMA.items():
        if key in raw:
            try:
                resolved[key] = convert(raw[key])
            except ValueError as exc:
                why = (f"{raw[key]!r} is not one of {', '.join(m.value for m in convert)}"
                       if convert is ExperimentKind else exc)
                raise ConfigError(f"invalid value for {key!r}: {why}") from exc
            # float() accepts nan and inf, which no key has a meaning for
            if convert is float and not math.isfinite(resolved[key]):
                raise ConfigError(f"invalid value for {key!r}: not finite: {raw[key]!r}")
        elif default is REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            resolved[key] = default
    return resolved


def _linear_power(resolved: dict, key: str, may_be_zero: bool = False) -> float:
    """The linear power of the dB key ``key``. A dB value whose power
    overflows a float is rejected, and so is one whose power rounds to 0
    unless ``may_be_zero`` (a silent jammer is a valid plan; a silent source
    or a zero power ceiling is not)."""
    value = resolved[key]
    try:
        power = db_to_linear(value)
    except OverflowError:
        raise ConfigError(f"invalid value for {key!r}: {value!r} dB overflows "
                          f"as a linear power") from None
    if power == 0.0 and not may_be_zero:
        raise ConfigError(f"invalid value for {key!r}: {value!r} dB is a linear power of 0")
    return power


def _by_name(cls, resolved: dict, **derived):
    """A ``cls`` with each field read from the key of its name, or ``derived``."""
    return cls(**{f.name: resolved[f.name] for f in dataclasses.fields(cls) if f.name in resolved},
               **derived)


def build_system_config(resolved: dict) -> SystemConfig:
    """Typed SystemConfig from resolved values, with field-named errors. Each key
    but a dB one fills the field of its name; the parts are built channel, powers,
    optimizer, system, so the first invalid key is the one named."""
    try:
        channel = _by_name(ChannelParams, resolved)
        powers = PowerConfig(p_s=_linear_power(resolved, "p_s_db"),
                             p_j=_linear_power(resolved, "p_j_db", may_be_zero=True))
        optimizer = _by_name(OptimizerConfig, resolved, mu=_linear_power(resolved, "mu_db"))
        return _by_name(SystemConfig, resolved, channel=channel, powers=powers,
                        optimizer=optimizer)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_config_file(path_or_name: str, overrides: Optional[dict[str, str]] = None) -> dict:
    """Resolved (post-default) values for a config file or, when no such
    file exists, the shipped preset of that bare name (``mmwave`` or
    ``sub6``); a name with a directory part is never a preset."""
    path = Path(path_or_name)
    try:
        text = path.read_text(encoding="utf-8") if path.is_file() else None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    if text is not None:
        # not "utf-8-sig": its error offsets skip the BOM
        text, source = text.removeprefix("\ufeff"), str(path)
    else:
        stem = path_or_name.removesuffix(".cfg")
        preset = resources.files("secrecy_ascent") / "configs" / f"{stem}.cfg"
        if path.name != path_or_name or not preset.is_file():
            raise ConfigError(f"config file not found: {path_or_name}")
        text, source = preset.read_text(), f"bundled:{path_or_name}"
    raw = parse_config_text(text, source=source)
    raw.update(overrides or {})
    return resolve_values(raw)


def load_config(path_or_name: str, overrides: Optional[dict[str, str]] = None) -> SystemConfig:
    """Load a config file (or bundled preset name) and apply overrides."""
    return build_system_config(resolve_config_file(path_or_name, overrides))


def flat_items(resolved: dict) -> list[tuple[str, str]]:
    """Canonical key=value rendering of a resolved config, schema order."""
    items = []
    for key in SCHEMA:
        value = resolved[key]
        items.append((key, value.value if isinstance(value, ExperimentKind) else str(value)))
    return items
