"""Config files: the shipped examples parse, and write_resolved round-trips any valid config."""

import re
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
seeds = st.integers(0, 2**64 - 1)
# write_resolved does not quote strings, so a '#' or surrounding whitespace would not survive.
labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./-", min_size=1, max_size=20)


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
        epsilon=draw(finite),
        beta=draw(finite),
        gamma=draw(finite),
        gae_lambda=draw(finite),
        num_epoch=draw(small_count),
        time_horizon=draw(st.integers(1, 4096)),
        learning_rate=draw(finite),
        max_steps=draw(st.integers(1, 10**18)),
        value_loss_coeff=draw(finite),
        summary_freq=draw(st.integers(1, 10**18)),
    )


@st.composite
def scenario_configs(draw):
    return ScenarioConfig(
        scenario_id=draw(st.sampled_from((1, 2, 3))),
        predator_in_training=draw(st.booleans()),
        hyperparams=draw(hyperparams()),
        world=draw(world_configs()),
        seed=draw(seeds),
        hidden_units=draw(st.integers(1, 512)),
        num_layers=draw(st.integers(0, 4)),
        n_worlds=draw(small_count),
        checkpoint_interval=draw(st.integers(1, 10**12)),
    )


@st.composite
def eval_configs(draw):
    return EvalConfig(
        checkpoint=draw(st.none() | labels),
        world=draw(world_configs()),
        n_runs=draw(st.integers(2, 1000)),
        duration=draw(st.integers(1, 10**12)),
        greedy=draw(st.booleans()),
        seed=draw(seeds),
        condition_id=draw(labels),
        log_points=draw(st.booleans()),
    )


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
@given(cfg=eval_configs())
def test_eval_config_round_trip(cfg, tmp_path):
    assert_round_trip(cfg, parse_eval_config, tmp_path)


def test_sci_notation_rewrites_every_sci_int_key(tmp_path):
    path = tmp_path / "resolved.txt"
    write_resolved(ScenarioConfig(seed=5), path)
    text = sci_notation(path.read_text())
    assert "seed = 5.00000000000000000e+00" in text
    assert sum("e+" in line for line in text.splitlines()) == len(SCI_INT_KEYS) - 1  # duration is eval-only
