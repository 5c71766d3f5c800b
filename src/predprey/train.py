"""End-to-end training orchestration for the three standard scenarios.

Every update cycle draws freshly randomized worlds and all randomness is
keyed on (run seed, cycle index), so a checkpoint taken at a cycle boundary
(parameters, optimizer moments, seed, global step) replays the remainder of
the run step-for-step. Global step counts environment steps summed across
prey streams. Each cycle rewrites metrics.csv whole from its `MetricsRow`s
through `net.write_rows`; a resume reads them back through `net.read_rows`.

Scenario table: 1 trains 580k steps with the predator, 2 trains 1M steps
with the predator, 3 trains 1M steps without it. Everything else is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, StructuralError
from .net import AdamState, LrSchedule, init_net, load_checkpoint, lr_at, read_rows, save_checkpoint, write_rows
from .ppo import ActorWorlds, PpoHyperparams, RolloutBuffer, collect_rollout, ppo_update
from .seeding import check_seed, derive_seed
from .world import WorldConfig, prey_action_space, reset

SCENARIO_TABLE: dict[int, tuple[int, bool]] = {
    1: (580_000, True),
    2: (1_000_000, True),
    3: (1_000_000, False),
}

# Stream tags for deriving independent RNG seeds from (run_seed, cycle, ...).
_TAG_INIT = 1
_TAG_WORLD = 2
_TAG_ACTIONS = 3
_TAG_SHUFFLE = 4
_TAG_EPISODE = 5


@dataclass
class ScenarioConfig:
    scenario_id: int = 3
    hyperparams: PpoHyperparams = field(default_factory=PpoHyperparams)
    world: WorldConfig = field(default_factory=lambda: WorldConfig(predator_present=False))  # scenario 3's world
    seed: int = 0
    hidden_units: int = 128
    num_layers: int = 2
    n_worlds: int = 1
    checkpoint_interval: int = 50_000

    @property
    def max_steps(self) -> int:
        return self.hyperparams.max_steps

    def __post_init__(self) -> None:
        if self.scenario_id not in SCENARIO_TABLE:
            raise ConfigError(f"scenario_id must be 1, 2 or 3, got {self.scenario_id}")
        check_seed(self.seed)
        if self.hidden_units < 1 or self.num_layers < 0:
            raise ConfigError(
                f"hidden_units must be at least 1 and num_layers at least 0, "
                f"got hidden_units={self.hidden_units}, num_layers={self.num_layers}"
            )
        if self.n_worlds <= 0 or self.checkpoint_interval <= 0:
            raise ConfigError("n_worlds and checkpoint_interval must be positive")


def scenario_defaults(scenario_id: int, seed: int = 0) -> ScenarioConfig:
    """Canonical config for one scenario; only (max_steps, predator presence) vary."""
    cfg = ScenarioConfig(scenario_id=scenario_id, seed=seed)  # rejects an unknown scenario id
    max_steps, predator = SCENARIO_TABLE[scenario_id]
    return replace(
        cfg,
        hyperparams=PpoHyperparams(max_steps=max_steps),
        world=replace(cfg.world, predator_present=predator),
    )


@dataclass
class MetricsRow:
    """One row of metrics.csv: the training curves at one summary_freq boundary."""

    global_step: int
    cumulative_reward_mean: float
    policy_loss: float
    value_loss: float
    entropy: float
    extrinsic_reward_mean: float
    value_estimate_mean: float


def steps_per_cycle(cfg: ScenarioConfig) -> int:
    """Env steps consumed by one collect/update cycle; constant for a config."""
    hp = cfg.hyperparams
    per_sweep = cfg.n_worlds * cfg.world.n_prey * hp.time_horizon
    sweeps = math.ceil(hp.buffer_size / per_sweep)
    return sweeps * per_sweep


def run_training(
    cfg: ScenarioConfig,
    out_dir,
    resume_from=None,
) -> tuple[Path, list[MetricsRow]]:
    """Train until global step reaches max_steps; returns (final checkpoint, metrics.csv rows).

    Rewrites metrics.csv atomically every cycle and writes a checkpoint whenever
    the global step crosses a checkpoint_interval boundary, plus a final one. Resuming
    from any written checkpoint reproduces the uninterrupted run exactly; a
    resume into out_dir keeps the metrics.csv rows up to the checkpoint's step,
    and never parses a row past it, such as one a kill during an older append cut short.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    hp = cfg.hyperparams
    n_actions = prey_action_space().n_joint

    if resume_from is not None:
        net, adam, run_seed, global_step = load_checkpoint(resume_from)
        if net.input_dim != cfg.world.obs_dim or net.policy_dim != n_actions:
            raise StructuralError(
                f"checkpoint net ({net.input_dim} -> {net.policy_dim}) does not match "
                f"world ({cfg.world.obs_dim} -> {n_actions})"
            )
    else:
        net = init_net(
            cfg.world.obs_dim,
            n_actions,
            hidden_units=cfg.hidden_units,
            num_layers=cfg.num_layers,
            seed=derive_seed(cfg.seed, _TAG_INIT),
        )
        adam = AdamState.for_net(net)
        run_seed = cfg.seed
        global_step = 0

    schedule = LrSchedule(initial_rate=hp.learning_rate, max_steps=hp.max_steps)
    cycle_steps = steps_per_cycle(cfg)
    if global_step % cycle_steps != 0:
        raise StructuralError(
            f"checkpoint step {global_step} is not a cycle boundary (cycle={cycle_steps})"
        )
    update_idx = global_step // cycle_steps
    steps_per_tick = cfg.n_worlds * cfg.world.n_prey

    metrics_path = out_dir / "metrics.csv"
    rows = []
    if resume_from is not None and metrics_path.exists():
        rows = read_rows(metrics_path, MetricsRow, last_key=global_step)
    write_rows(metrics_path, MetricsRow, rows)

    while global_step < hp.max_steps:
        actors = ActorWorlds.from_state(
            reset(cfg.world, [derive_seed(run_seed, _TAG_WORLD, update_idx, w) for w in range(cfg.n_worlds)])
        )
        episode_counts = [0] * cfg.n_worlds

        def episode_seed(idx: int) -> int:
            episode_counts[idx] += 1
            return derive_seed(run_seed, _TAG_EPISODE, update_idx, idx, episode_counts[idx])

        action_rng = np.random.default_rng(derive_seed(run_seed, _TAG_ACTIONS, update_idx))
        buffer = RolloutBuffer(hp.buffer_size)
        while not buffer.is_full():
            collect_rollout(
                net, actors, hp.time_horizon, hp, action_rng, buffer, episode_seed
            )
            global_step += steps_per_tick * hp.time_horizon
        for w in range(cfg.n_worlds):
            actors.finish_episode(w)
        episode_returns = [r for returns in actors.completed_episode_returns for r in returns]

        lr = lr_at(schedule, min(global_step, hp.max_steps))
        shuffle_rng = np.random.default_rng(derive_seed(run_seed, _TAG_SHUFFLE, update_idx))
        stats = ppo_update(net, adam, buffer, hp, lr, shuffle_rng)
        update_idx += 1

        reward_mean = float(np.mean(episode_returns))
        prev_step = global_step - cycle_steps
        for boundary in range(
            (prev_step // hp.summary_freq + 1) * hp.summary_freq,
            global_step + 1,
            hp.summary_freq,
        ):
            row = MetricsRow(
                global_step=boundary,
                cumulative_reward_mean=reward_mean,
                policy_loss=stats.policy_loss,
                value_loss=stats.value_loss,
                entropy=stats.entropy,
                extrinsic_reward_mean=reward_mean,
                value_estimate_mean=stats.value_estimate_mean,
            )
            rows.append(row)
        write_rows(metrics_path, MetricsRow, rows)

        if prev_step // cfg.checkpoint_interval != global_step // cfg.checkpoint_interval:
            save_checkpoint(
                out_dir / f"checkpoint_{global_step:010d}.ckpt", net, adam, run_seed, global_step
            )

    final_path = out_dir / "checkpoint_final.ckpt"
    save_checkpoint(final_path, net, adam, run_seed, global_step)
    return final_path, rows
