"""Flat key = value config files for training and evaluation runs.

One key per line, '#' starts a comment, unknown keys are hard errors.
Resolution order is defaults, then file, then command-line flags; the
winning source for every key is recorded and echoed back as a comment when
the resolved config is written next to a run's outputs. Scenario ids pin
(max_steps, predator_in_training) unless a file or flag overrides them
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .ppo import PpoHyperparams
from .train import SCENARIO_TABLE, ScenarioConfig
from .world import WorldConfig

# key -> value kind; "sci_int" accepts 1.0e6 style integers
_WORLD_KEYS = {
    "arena_side": "float",
    "barrier_layout": "barriers",
    "n_prey": "int",
    "n_positive_points": "int",
    "n_negative_points": "int",
    "predator_present": "bool",
    "prey_move_speed": "float",
    "prey_turn_speed": "float",
    "predator_move_speed": "float",
    "predator_view_radius": "float",
    "predator_view_angle": "float",
    "tick_dt": "float",
    "episode_length": "int",
    "n_rays": "int",
    "ray_fov_degrees": "float",
    "ray_length": "float",
    "prey_radius": "float",
    "predator_radius": "float",
    "point_radius": "float",
}

_HP_KEYS = {
    "batch_size": "int",
    "beta": "float",
    "buffer_size": "int",
    "epsilon": "float",
    "gamma": "float",
    "gae_lambda": "float",
    "learning_rate": "float",
    "max_steps": "sci_int",
    "num_epoch": "int",
    "time_horizon": "int",
    "summary_freq": "sci_int",
    "value_loss_coeff": "float",
}

_SCENARIO_KEYS = {
    "scenario_id": "int",
    "seed": "sci_int",
    "hidden_units": "int",
    "num_layers": "int",
    "n_worlds": "int",
    "checkpoint_interval": "sci_int",
    "predator_in_training": "bool",
}

_EVAL_KEYS = {
    "checkpoint": "str",
    "n_runs": "int",
    "duration": "sci_int",
    "greedy": "bool",
    "seed": "sci_int",
    "condition_id": "str",
    "log_points": "bool",
}

TRAIN_KEY_KINDS = {**_SCENARIO_KEYS, **_HP_KEYS, **_WORLD_KEYS}
EVAL_KEY_KINDS = {**_EVAL_KEYS, **_WORLD_KEYS}


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
        if self.n_runs < 2:
            raise ConfigError(f"n_runs must be at least 2 to summarize a condition, got {self.n_runs}")
        if self.duration < 1:
            raise ConfigError(f"duration must be at least 1 tick, got {self.duration}")


def _read_flat(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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


def parse_bool(raw: str) -> bool:
    """Strict boolean: true/1/yes or false/0/no in any case; anything else is a ValueError."""
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_value(key: str, raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "sci_int":
            v = float(raw)
            if v != int(v):
                raise ValueError("not an integer")
            return int(v)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return parse_bool(raw)
        if kind == "str":
            return raw
        if kind == "barriers":
            if raw.lower() in ("none", ""):
                return ()
            rects = []
            for part in raw.split(";"):
                coords = [float(v) for v in part.split(",")]
                if len(coords) != 4:
                    raise ValueError("each barrier is 'xmin,ymin,xmax,ymax'")
                rects.append(tuple(coords))
            return tuple(rects)
    except (ValueError, OverflowError) as exc:  # int(float("inf")) overflows
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} ({exc})") from None
    raise ConfigError(f"internal: unknown value kind {kind!r}")


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


def _resolve(
    key_kinds: dict[str, str], path, overrides: dict | None
) -> tuple[dict, dict[str, str]]:
    """Merge file values and typed flag overrides; returns (values, provenance)."""
    values: dict = {}
    provenance: dict[str, str] = {}
    if path is not None:
        for key, raw in _read_flat(path).items():
            if key not in key_kinds:
                raise ConfigError(f"{path}: unknown config key {key!r}")
            values[key] = _parse_value(key, raw, key_kinds[key])
            provenance[key] = "file"
    for key, value in (overrides or {}).items():
        if key not in key_kinds:
            raise ConfigError(f"unknown override key {key!r}")
        if value is None:
            continue
        values[key] = value
        provenance[key] = "flag"
    return values, provenance


def parse_scenario_config(
    path=None, overrides: dict | None = None
) -> tuple[ScenarioConfig, dict[str, str]]:
    values, provenance = _resolve(TRAIN_KEY_KINDS, path, overrides)

    scenario_id = values.get("scenario_id", 3)
    if scenario_id not in SCENARIO_TABLE:
        raise ConfigError(f"scenario_id must be 1, 2 or 3, got {scenario_id}")
    table_steps, table_predator = SCENARIO_TABLE[scenario_id]

    world_kwargs = {k: values[k] for k in _WORLD_KEYS if k in values}
    world = WorldConfig(seed=values.get("seed", 0), **world_kwargs)

    hp_kwargs = {k: values[k] for k in _HP_KEYS if k in values}
    hp_kwargs.setdefault("max_steps", table_steps)
    hyperparams = PpoHyperparams(**hp_kwargs)

    cfg = ScenarioConfig(
        scenario_id=scenario_id,
        predator_in_training=values.get("predator_in_training", table_predator),
        hyperparams=hyperparams,
        world=world,
        seed=values.get("seed", 0),
        hidden_units=values.get("hidden_units", 128),
        num_layers=values.get("num_layers", 2),
        n_worlds=values.get("n_worlds", 1),
        checkpoint_interval=values.get("checkpoint_interval", 50_000),
    )
    for key in TRAIN_KEY_KINDS:
        provenance.setdefault(key, "default")
    return cfg, provenance


def parse_eval_config(path=None, overrides: dict | None = None) -> tuple[EvalConfig, dict[str, str]]:
    values, provenance = _resolve(EVAL_KEY_KINDS, path, overrides)
    world_kwargs = {k: values[k] for k in _WORLD_KEYS if k in values}
    world = WorldConfig(seed=values.get("seed", 0), **world_kwargs)
    cfg = EvalConfig(
        checkpoint=values.get("checkpoint"),
        world=world,
        n_runs=values.get("n_runs", 50),
        duration=values.get("duration", 5000),
        greedy=values.get("greedy", False),
        seed=values.get("seed", 0),
        condition_id=values.get("condition_id", "condition"),
        log_points=values.get("log_points", False),
    )
    for key in EVAL_KEY_KINDS:
        provenance.setdefault(key, "default")
    return cfg, provenance


def _scenario_items(cfg: ScenarioConfig) -> list[tuple[str, object]]:
    hp = cfg.hyperparams
    w = cfg.world
    return [
        ("scenario_id", cfg.scenario_id),
        ("seed", cfg.seed),
        ("predator_in_training", cfg.predator_in_training),
        ("hidden_units", cfg.hidden_units),
        ("num_layers", cfg.num_layers),
        ("n_worlds", cfg.n_worlds),
        ("checkpoint_interval", cfg.checkpoint_interval),
        ("batch_size", hp.batch_size),
        ("beta", hp.beta),
        ("buffer_size", hp.buffer_size),
        ("epsilon", hp.epsilon),
        ("gamma", hp.gamma),
        ("gae_lambda", hp.gae_lambda),
        ("learning_rate", hp.learning_rate),
        ("max_steps", hp.max_steps),
        ("num_epoch", hp.num_epoch),
        ("time_horizon", hp.time_horizon),
        ("summary_freq", hp.summary_freq),
        ("value_loss_coeff", hp.value_loss_coeff),
    ] + [(k, getattr(w, k)) for k in _WORLD_KEYS]


def _eval_items(cfg: EvalConfig) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [
        ("seed", cfg.seed),
        ("n_runs", cfg.n_runs),
        ("duration", cfg.duration),
        ("greedy", cfg.greedy),
        ("condition_id", cfg.condition_id),
        ("log_points", cfg.log_points),
    ]
    if cfg.checkpoint is not None:
        items.insert(0, ("checkpoint", cfg.checkpoint))
    return items + [(k, getattr(cfg.world, k)) for k in _WORLD_KEYS]


def write_resolved(cfg, path, provenance: dict[str, str] | None = None) -> None:
    """Full key = value snapshot; parsing it back reproduces the config."""
    items = _scenario_items(cfg) if isinstance(cfg, ScenarioConfig) else _eval_items(cfg)
    provenance = provenance or {}
    lines = ["# resolved configuration"]
    for key, value in items:
        source = provenance.get(key)
        suffix = f"  # {source}" if source else ""
        lines.append(f"{key} = {_format_value(value)}{suffix}")
    Path(path).write_text("\n".join(lines) + "\n")
