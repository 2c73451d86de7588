"""Runtime settings: enumeration ceiling, factoring budget, workers, cache.

Settings load from an optional JSON file, then environment variables with
the PRIMOVER_ prefix override file values. An unreadable or malformed file
degrades to defaults with a warning, never an error. A Config is frozen:
a run that needs other values builds another one (dataclasses.replace).
"""
from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, fields

ENV_PREFIX = "PRIMOVER_"


@dataclass(frozen=True)
class Config:
    coset_ceiling: int = 10_000_000
    trial_bound: int = 10_000
    rho_budget: int = 5_000_000
    workers: int = 1
    cache_path: str | None = None

    def describe(self) -> str:
        return ", ".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))


_INT_FIELDS = {f.name for f in fields(Config) if f.type == "int"}


def load_config(
    path: str | None = None, env: dict[str, str] | None = None
) -> Config:
    """Build a Config from a JSON file (optional) and environment overrides.

    The file path comes from the argument or PRIMOVER_CONFIG. Each field is
    also an environment variable, e.g. PRIMOVER_COSET_CEILING=10000.
    """
    environ = os.environ if env is None else env
    known = {f.name for f in fields(Config)}
    values: dict[str, object] = {}

    if path is None:
        path = environ.get(ENV_PREFIX + "CONFIG")
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError("config root must be an object")
        except (OSError, ValueError) as exc:
            warnings.warn(f"ignoring config file {path}: {exc}")
            loaded = {}
        for key, value in loaded.items():
            if key not in known:
                warnings.warn(f"ignoring unknown config key {key!r}")
            elif key in _INT_FIELDS and (isinstance(value, bool) or not isinstance(value, int)):
                warnings.warn(f"ignoring non-integer config value for {key!r}")
            elif key == "cache_path" and not (value is None or isinstance(value, str)):
                warnings.warn(f"ignoring non-string config value for {key!r}")
            else:
                values[key] = value

    for name in known:
        raw = environ.get(ENV_PREFIX + name.upper())
        if raw is None:
            continue
        if name in _INT_FIELDS:
            try:
                values[name] = int(raw)
            except ValueError:
                warnings.warn(f"ignoring non-integer {ENV_PREFIX}{name.upper()}={raw!r}")
        else:
            values[name] = raw
    return Config(**values)  # type: ignore[arg-type]
