"""Config files: the shipped examples parse, and write_resolved round-trips any config that entry accepts."""

import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from predprey.configio import (
    SCI_INT_KEYS,
    EvalConfig,
    parse_eval_config,
    parse_scenario_config,
    write_resolved,
)
from predprey.errors import ConfigError
from predprey.ppo import PpoHyperparams
from predprey.train import ScenarioConfig
from predprey.world import WorldConfig

# PpoHyperparams warns on drawn values outside its recommended ranges.
pytestmark = pytest.mark.filterwarnings("ignore:.*outside recommended range")

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def parser_for(path: Path):
    """Files named eval* are evaluation configs, every other file is a training config."""
    return parse_eval_config if path.name.startswith("eval") else parse_scenario_config


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.txt")), ids=lambda p: p.name)
def test_shipped_config_parses_and_round_trips(path, tmp_path):
    parse = parser_for(path)
    cfg, provenance = parse(path)
    assert "file" in provenance.values()
    out = tmp_path / "resolved.txt"
    write_resolved(cfg, out, provenance)
    assert parse(out)[0] == cfg


def test_configs_directory_is_not_empty():
    assert any(CONFIG_DIR.glob("*.txt"))


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e3)
small_count = st.integers(1, 12)
unit = st.floats(0.0, 1.0)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
seeds = st.integers(0, 2**64 - 1)


@st.composite
def barrier_layouts(draw):
    """Rectangles inside [-1, 1]^2, which clears the walls of any arena drawn below."""
    rects = []
    for _ in range(draw(st.integers(0, 3))):
        x0, y0 = draw(st.floats(-1.0, 0.0)), draw(st.floats(-1.0, 0.0))
        x1, y1 = draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 1.0))
        rects.append((x0, y0, x1, y1))
    return tuple(rects)


@st.composite
def world_configs(draw):
    return WorldConfig(
        arena_side=draw(st.floats(4.0, 100.0)),
        barrier_layout=draw(barrier_layouts()),
        n_prey=draw(small_count),
        n_positive_points=draw(small_count),
        n_negative_points=draw(small_count),
        predator_present=draw(st.booleans()),
        prey_move_speed=draw(positive),
        prey_turn_speed=draw(positive),
        predator_move_speed=draw(positive),
        predator_view_radius=draw(positive),
        predator_view_angle=draw(st.floats(0.0, 360.0, exclude_min=True)),
        tick_dt=draw(positive),
        episode_length=draw(st.integers(1, 10**6)),
        n_rays=draw(small_count),
        ray_fov_degrees=draw(finite),
        ray_length=draw(positive),
        prey_radius=draw(st.floats(1e-3, 0.5)),
        predator_radius=draw(st.floats(1e-3, 0.5)),
        point_radius=draw(st.floats(1e-3, 0.5)),
    )


@st.composite
def hyperparams(draw):
    batch_size = draw(st.integers(1, 256))
    return PpoHyperparams(
        batch_size=batch_size,
        buffer_size=batch_size * draw(st.integers(1, 64)),
        epsilon=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        beta=draw(non_negative),
        gamma=draw(unit),
        gae_lambda=draw(unit),
        num_epoch=draw(small_count),
        time_horizon=draw(st.integers(1, 4096)),
        learning_rate=draw(non_negative),
        max_steps=draw(st.integers(1, 10**18)),
        value_loss_coeff=draw(non_negative),
        summary_freq=draw(st.integers(1, 10**18)),
    )


@st.composite
def scenario_configs(draw):
    return ScenarioConfig(
        scenario_id=draw(st.sampled_from((1, 2, 3))),
        hyperparams=draw(hyperparams()),
        world=draw(world_configs()),
        seed=draw(seeds),
        hidden_units=draw(st.integers(1, 512)),
        num_layers=draw(st.integers(0, 4)),
        n_worlds=draw(small_count),
        checkpoint_interval=draw(st.integers(1, 10**12)),
    )


STRING_KEYS = ("checkpoint", "condition_id")


@st.composite
def eval_fields(draw):
    """EvalConfig keyword arguments, its strings drawn from any text."""
    return dict(
        checkpoint=draw(st.none() | st.text()),
        world=draw(world_configs()),
        n_runs=draw(st.integers(2, 1000)),
        duration=draw(st.integers(1, 10**12)),
        greedy=draw(st.booleans()),
        seed=draw(seeds),
        condition_id=draw(st.text()),
        log_points=draw(st.booleans()),
    )


def survives_a_config_file(key: str, value: str, tmp_path) -> bool:
    """Whether a default eval config holding this string, set past the entry check, parses back equal."""
    cfg = EvalConfig()
    setattr(cfg, key, value)
    path = tmp_path / "probe.txt"
    write_resolved(cfg, path)
    try:
        return parse_eval_config(path)[0] == cfg
    except ConfigError:
        return False


def sci_notation(text: str) -> str:
    """The file with every sci-int value below 2**53 rewritten as an exact 1.23e+06 style float."""

    def rewrite(match):
        key, value = match.group(1), int(match.group(2))
        return f"{key} = {float(value):.17e}" if value < 2**53 else match.group(0)

    keys = "|".join(SCI_INT_KEYS)
    return re.sub(rf"^({keys}) = (\d+)$", rewrite, text, flags=re.M)


def assert_round_trip(cfg, parse, tmp_path):
    path = tmp_path / "resolved.txt"
    write_resolved(cfg, path)
    assert parse(path)[0] == cfg
    path.write_text(sci_notation(path.read_text()))
    assert parse(path)[0] == cfg


round_trip_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@round_trip_settings
@given(cfg=scenario_configs())
def test_scenario_config_round_trip(cfg, tmp_path):
    assert_round_trip(cfg, parse_scenario_config, tmp_path)


@round_trip_settings
@given(kwargs=eval_fields())
def test_eval_config_round_trip(kwargs, tmp_path):
    # entry rejects exactly the strings a resolved config file would change
    try:
        cfg = EvalConfig(**kwargs)
    except ConfigError:
        assert not all(survives_a_config_file(k, kwargs[k], tmp_path) for k in STRING_KEYS if kwargs[k] is not None)
        return
    assert_round_trip(cfg, parse_eval_config, tmp_path)
    for key in STRING_KEYS:  # the --checkpoint and --condition flags enter through the same check
        assert parse_eval_config(overrides={key: kwargs[key]})[0] == replace(EvalConfig(), **{key: kwargs[key]})


@pytest.mark.parametrize("value", ["run#2", " a.ckpt", "a.ckpt ", "a\nb", "a\rb", "a\x1cb", "\t"])
def test_strings_a_config_file_cannot_carry_are_rejected(value, tmp_path):
    for key in STRING_KEYS:
        assert not survives_a_config_file(key, value, tmp_path)
        with pytest.raises(ConfigError, match=key):
            EvalConfig(**{key: value})
        with pytest.raises(ConfigError, match=key):
            parse_eval_config(overrides={key: value})


def test_sci_notation_rewrites_every_sci_int_key(tmp_path):
    path = tmp_path / "resolved.txt"
    write_resolved(ScenarioConfig(seed=5), path)
    text = sci_notation(path.read_text())
    assert "seed = 5.00000000000000000e+00" in text
    assert sum("e+" in line for line in text.splitlines()) == len(SCI_INT_KEYS) - 1  # duration is eval-only
