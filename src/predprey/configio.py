"""Flat key = value config files for training and evaluation runs.

One key per line, '#' starts a comment, unknown keys are hard errors. The
config dataclasses are the schema: every leaf field of ScenarioConfig or
EvalConfig, with the fields of their nested PpoHyperparams and WorldConfig
flattened in, is a key, parsed by its annotated type. Resolution order is
defaults, then file, then command-line flags; the winning source for every
key is recorded and echoed back as a comment when the resolved config is
written next to a run's outputs. Training defaults come from
train.scenario_defaults, so a scenario id pins max_steps and
predator_present unless a file or flag overrides them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_origin, get_type_hints

from .errors import ConfigError
from .net import atomic_open
from .seeding import check_seed
from .train import ScenarioConfig, scenario_defaults
from .world import WorldConfig

# Integer keys that also accept 1.0e6 style values.
SCI_INT_KEYS = frozenset({"seed", "max_steps", "summary_freq", "checkpoint_interval", "duration"})


@dataclass
class EvalConfig:
    checkpoint: str | None = None
    world: WorldConfig = field(default_factory=WorldConfig)
    n_runs: int = 50
    duration: int = 5000
    greedy: bool = False
    seed: int = 0
    condition_id: str = "condition"
    log_points: bool = False

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if self.n_runs < 2:
            raise ConfigError(f"n_runs must be at least 2 to summarize a condition, got {self.n_runs}")
        if self.duration < 1:
            raise ConfigError(f"duration must be at least 1 tick, got {self.duration}")
        for name in ("checkpoint", "condition_id"):
            value = getattr(self, name)
            if value is not None and ("#" in value or value != value.strip() or len(value.splitlines()) > 1):
                raise ConfigError(f"{name} {value!r}: a config file cannot carry '#', line breaks or end spaces")


def parse_bool(raw: str) -> bool:
    """Strict boolean: true/1/yes or false/0/no in any case; anything else is a ValueError."""
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_sci_int(raw: str) -> int:
    try:
        return int(raw)  # exact, also beyond float precision
    except ValueError:
        v = float(raw)
    if v != int(v):
        raise ValueError("not an integer")
    return int(v)


def _parse_barriers(raw: str) -> tuple:
    if raw.lower() in ("none", ""):
        return ()
    rects = []
    for part in raw.split(";"):
        coords = [float(v) for v in part.split(",")]
        if len(coords) != 4:
            raise ValueError("each barrier is 'xmin,ymin,xmax,ymax'")
        rects.append(tuple(coords))
    return tuple(rects)


_TYPE_PARSERS = {int: int, float: float, bool: parse_bool, str: str, str | None: str}


def _schema(cls) -> dict:
    """Config key -> value parser for every leaf field of cls, nested config dataclasses flattened."""
    hints = get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        kind = hints[f.name]
        if is_dataclass(kind):
            schema.update(_schema(kind))
        elif f.name in SCI_INT_KEYS:
            schema[f.name] = _parse_sci_int
        else:
            schema[f.name] = _parse_barriers if get_origin(kind) is tuple else _TYPE_PARSERS[kind]
    return schema


TRAIN_SCHEMA = _schema(ScenarioConfig)
EVAL_SCHEMA = _schema(EvalConfig)


def _read_flat(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    # an undecodable byte fails a key's or a number's parse and passes through in a string value
    for lineno, raw in enumerate(Path(path).read_text(errors="surrogateescape").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _resolve(schema: dict, path, overrides: dict | None) -> tuple[dict, dict[str, str]]:
    """Merge file values and typed flag overrides; returns (values, provenance of every key)."""
    values: dict = {}
    provenance = dict.fromkeys(schema, "default")
    if path is not None:
        for key, raw in _read_flat(path).items():
            if key not in schema:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            try:
                values[key] = schema[key](raw)
            except (ValueError, OverflowError) as exc:  # int(float("inf")) overflows
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r} ({exc})") from None
            provenance[key] = "file"
    for key, value in (overrides or {}).items():
        if key not in schema:
            raise ConfigError(f"unknown override key {key!r}")
        if value is not None:
            values[key] = value
            provenance[key] = "flag"
    return values, provenance


def _apply(cfg, values: dict):
    """cfg with every leaf field named in values replaced, nested configs included."""
    changes = {}
    for f in fields(cfg):
        current = getattr(cfg, f.name)
        if is_dataclass(current):
            changes[f.name] = _apply(current, values)
        elif f.name in values:
            changes[f.name] = values[f.name]
    return replace(cfg, **changes)


def parse_scenario_config(
    path=None, overrides: dict | None = None
) -> tuple[ScenarioConfig, dict[str, str]]:
    values, provenance = _resolve(TRAIN_SCHEMA, path, overrides)
    base = scenario_defaults(values.get("scenario_id", ScenarioConfig.scenario_id))
    return _apply(base, values), provenance


def parse_eval_config(path=None, overrides: dict | None = None) -> tuple[EvalConfig, dict[str, str]]:
    values, provenance = _resolve(EVAL_SCHEMA, path, overrides)
    return _apply(EvalConfig(), values), provenance


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):  # barrier layout
        if not value:
            return "none"
        return " ; ".join(",".join(repr(float(c)) for c in rect) for rect in value)
    return str(value)


def _items(cfg) -> list[tuple[str, object]]:
    """(key, value) for every leaf field in field order, nested configs inline; None is left unset."""
    items = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            items += _items(value)
        elif value is not None:
            items.append((f.name, value))
    return items


def write_resolved(cfg, path, provenance: dict[str, str] | None = None) -> None:
    """Full key = value snapshot; parsing it back reproduces the config."""
    provenance = provenance or {}
    lines = ["# resolved configuration"]
    for key, value in _items(cfg):
        source = provenance.get(key)
        suffix = f"  # {source}" if source else ""
        lines.append(f"{key} = {_format_value(value)}{suffix}")
    with atomic_open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
