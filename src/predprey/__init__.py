"""Headless 2D predator-prey world with PPO-trained prey and an evaluation pipeline."""

from .errors import (
    CheckpointError,
    ConfigError,
    ContractViolation,
    InputError,
    NumericsError,
    PredpreyError,
    StructuralError,
)
from .net import AdamState, DenseNet, adam_step, backward, forward, init_net, lr_at
from .ppo import (
    AdvantageEstimates,
    PpoHyperparams,
    RolloutBuffer,
    clipped_surrogate,
    collect_rollout,
    compute_gae,
    ppo_update,
)
from .stats import (
    AnovaResult,
    ConditionSummary,
    KdeGrid,
    RunRecord,
    cohens_d,
    evaluate_condition,
    kde_occupancy,
    one_way_anova,
    task_efficiency,
)
from .train import ScenarioConfig, run_training, scenario_defaults
from .world import (
    PredatorState,
    WorldConfig,
    WorldState,
    observation_matrix,
    observe_all,
    predator_step,
    prey_action_space,
    reset,
    reset_worlds,
    step,
    visible_prey,
)

__version__ = "0.1.0"
