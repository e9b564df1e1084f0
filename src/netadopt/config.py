"""Scenario configuration: a flat ``key = value`` text format.

Lines hold one ``key = value`` pair each; ``#`` starts a comment and blank
lines are ignored.  Command-line ``--set key=value`` overrides win over
the file.  The shipped ``config_reference.txt`` documents every key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidParameterError
from .model import ModelParams, require_start

SUBSIDY_KINDS = ("none", "cls", "full", "min_duration")
MAX_SWEEP_POINTS = 10**6  # a sweep holds every row in memory


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One scenario: market parameters, initial state, subsidy, run controls."""

    u_min: float | None = None
    u_max: float | None = None
    cost: float | None = None
    externality: float | None = None
    gamma: float | None = None
    x0: float = 0.0
    kind: str = "none"
    s: float = 0.0
    T: float = 0.0
    target: float | None = None
    t_end: float | None = None
    dt: float | None = None
    sweep_points: int = 512
    output: str | None = None

    def params(self) -> ModelParams:
        missing = [
            k
            for k in ("u_min", "u_max", "cost", "externality", "gamma")
            if getattr(self, k) is None
        ]
        if missing:
            raise InvalidParameterError(f"missing model keys: {', '.join(missing)}")
        return ModelParams(
            u_min=self.u_min,
            u_max=self.u_max,
            cost=self.cost,
            externality=self.externality,
            gamma=self.gamma,
        )


_FLOAT_KEYS = {
    "u_min", "u_max", "cost", "externality", "gamma",
    "x0", "s", "T", "target", "t_end", "dt",
}
_INT_KEYS = {"sweep_points"}
_STR_KEYS = {"kind", "output"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _STR_KEYS:
        return raw
    try:
        if key in _INT_KEYS:
            return int(raw)
        value = float(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"bad value for {key!r}: {raw!r}") from exc
    if not math.isfinite(value):
        raise InvalidParameterError(f"{key} must be finite, got {raw!r}")
    return value


def parse_assignments(pairs: dict[str, str]) -> dict:
    out = {}
    for key, raw in pairs.items():
        if key not in _ALL_KEYS:
            raise InvalidParameterError(f"unknown config key {key!r}")
        out[key] = _parse_value(key, raw)
    if "kind" in out and out["kind"] not in SUBSIDY_KINDS:
        raise InvalidParameterError(
            f"kind must be one of {SUBSIDY_KINDS}, got {out['kind']!r}"
        )
    return out


def read_config_file(path: str | Path) -> dict[str, str]:
    """Raw key/value pairs from a config file; later lines win."""
    pairs: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = line.split("=", 1)
        pairs[key.strip()] = raw.strip()
    return pairs


def load_config(
    path: str | Path | None, overrides: dict[str, str] | None = None
) -> ScenarioConfig:
    """Build a config from an optional file plus override assignments."""
    pairs: dict[str, str] = {}
    if path is not None:
        pairs.update(read_config_file(path))
    if overrides:
        pairs.update(overrides)
    values = parse_assignments(pairs)
    # Every key whose meaning does not depend on the verb is checked here,
    # so that every verb refuses a bad value alike.
    if "x0" in values:
        values["x0"] = require_start(values["x0"], "x0")
    config = ScenarioConfig(**values)
    if config.T < 0:
        raise InvalidParameterError("T must be >= 0")
    if config.dt is not None and config.dt <= 0:
        raise InvalidParameterError(f"dt must be > 0, got {config.dt!r}")
    if config.sweep_points < 0:
        raise InvalidParameterError(f"sweep_points must be >= 0, got {config.sweep_points}")
    if config.sweep_points > MAX_SWEEP_POINTS:
        raise InvalidParameterError(
            f"sweep_points must be <= {MAX_SWEEP_POINTS}, got {config.sweep_points}"
        )
    return config


REFERENCE_PATH = Path(__file__).with_name("config_reference.txt")
