"""Clipped-surrogate actor-critic learner.

Rollouts are collected from one shared policy across N independent worlds
(every prey is a separate experience stream) into one RolloutBuffer, whose
columns are allocated once with a cycle's rows. One collect_rollout call fills
the whole buffer a sweep at a time, writing each sweep's chunk straight into
it, and owns the cycle's episodes: it redraws a world whose episode ends and
returns every episode's per-prey return. Advantages come from
exponentially-weighted temporal-difference residuals truncated at the
collection horizon, and updates run num_epoch shuffled passes of
size // batch_size minibatches over the full buffer; each pass leaves the
size % batch_size rows at the end of its permutation out. Observations are stored as world.observe_all hands them out,
a hit kind and a distance per ray plus the ego features;
world.observation_matrix packs dense rows only where the net reads them: each
tick's actions, the bootstrap value and each minibatch. The stored behaviour
log-probabilities are never recomputed, so the post-update policy becomes the
next cycle's behaviour policy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import net as nets
from .errors import ConfigError, ContractViolation, InputError, NumericsError, StructuralError
from .net import AdamState, DenseNet
from .seeding import derive_seed
from .world import N_EGO_FEATURES, WorldState, observation_matrix, observe_all, reset_worlds, step

ADVANTAGE_NORM_EPS = 1e-8


@dataclass
class PpoHyperparams:
    batch_size: int = 1024
    buffer_size: int = 10240
    epsilon: float = 0.2
    beta: float = 1.0e-2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    num_epoch: int = 3
    time_horizon: int = 64
    learning_rate: float = 3.0e-4
    max_steps: int = 1_000_000
    value_loss_coeff: float = 0.5
    summary_freq: int = 10_000

    def __post_init__(self) -> None:
        for name in ("batch_size", "buffer_size", "num_epoch", "time_horizon", "max_steps", "summary_freq"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("epsilon", "beta", "gamma", "gae_lambda", "learning_rate", "value_loss_coeff"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must be in (0, 1), got {self.epsilon}")
        for name in ("gamma", "gae_lambda", "learning_rate", "beta", "value_loss_coeff"):
            hi = 1.0 if name in ("gamma", "gae_lambda") else math.inf
            if not 0.0 <= getattr(self, name) <= hi:
                raise ConfigError(f"{name} must be in [0, {hi}], got {getattr(self, name)}")
        if self.buffer_size % self.batch_size != 0:
            raise StructuralError(
                f"batch_size {self.batch_size} must divide buffer_size {self.buffer_size}"
            )
        recommended = {
            "epsilon": (self.epsilon, 0.1, 0.3),
            "gae_lambda": (self.gae_lambda, 0.9, 0.95),
            "gamma": (self.gamma, 0.8, 0.995),
        }
        for name, (value, lo, hi) in recommended.items():
            if not lo <= value <= hi:
                warnings.warn(
                    f"{name}={value} outside recommended range [{lo}, {hi}]",
                    stacklevel=2,
                )


@dataclass
class AdvantageEstimates:
    advantages: np.ndarray
    returns: np.ndarray


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    boundaries: np.ndarray,
    bootstrap_value,
    gamma: float,
    lam: float,
) -> AdvantageEstimates:
    """Backward recursion over time, the last axis, for every stream on the leading axes at once.

    delta_t = r_t + gamma * V(s_{t+1}) * (1 - done_t) - V(s_t), with
    V(s_{t+1}) = bootstrap_value past the last index; the advantage is the
    (gamma * lam)-discounted sum of deltas, cut at episode boundaries.
    Returns are advantages + values. bootstrap_value is a scalar or one value
    per stream, of shape rewards.shape[:-1]. Each stream gets the same bits
    as a one-stream call.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    boundaries = np.asarray(boundaries, dtype=bool)
    bootstrap = np.asarray(bootstrap_value, dtype=np.float64)
    if not (rewards.shape == values.shape == boundaries.shape) or rewards.ndim == 0:
        raise StructuralError(
            f"misaligned sequences: rewards {rewards.shape}, values {values.shape}, "
            f"boundaries {boundaries.shape}"
        )
    if bootstrap.shape not in ((), rewards.shape[:-1]):
        raise StructuralError(f"bootstrap shape {bootstrap.shape} != stream shape {rewards.shape[:-1]}")
    if not (0.0 <= gamma <= 1.0 and 0.0 <= lam <= 1.0):
        raise InputError(f"gamma={gamma} and lam={lam} must lie in [0, 1]")

    # The deltas need no recursion; only the discounted sum runs tick by tick.
    live = np.where(boundaries, 0.0, 1.0)
    bootstrap = np.broadcast_to(bootstrap, rewards.shape[:-1])[..., None]
    next_values = np.concatenate([values[..., 1:], bootstrap], axis=-1)
    deltas = rewards + gamma * next_values * live - values
    decay = gamma * lam * live
    advantages = np.empty(rewards.shape)
    next_advantage = 0.0
    for t in range(rewards.shape[-1] - 1, -1, -1):
        next_advantage = deltas[..., t] + decay[..., t] * next_advantage
        advantages[..., t] = next_advantage
    return AdvantageEstimates(advantages=advantages, returns=advantages + values)


def clipped_surrogate(r, advantage, epsilon: float):
    """Pessimistic objective: min(r * A, clip(r, 1-eps, 1+eps) * A). Elementwise."""
    if not 0.0 < epsilon < 1.0:
        raise InputError(f"epsilon must be in (0, 1), got {epsilon}")
    r = np.asarray(r, dtype=np.float64)
    advantage = np.asarray(advantage, dtype=np.float64)
    out = np.minimum(r * advantage, np.clip(r, 1.0 - epsilon, 1.0 + epsilon) * advantage)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# rollout storage


class RolloutBuffer:
    """Columnar store of transitions, allocated once and filled in place one sweep's chunk at a time.

    Every one of FIELDS is a column of `capacity` rows, one row per transition; its
    observations are kept as `world.observe_all` returns them, in the kinds, distances and
    ego fields. A default row takes 11 + 88 + 16 bytes of observation instead of a dense
    row's 632, and a full default buffer holds 1.6 MB of columns instead of 6.9.
    `observations(rows)` packs dense rows with `world.observation_matrix`.

    `append_chunk(n)` hands out views of the next n rows of every column and counts them
    as filled; the caller writes the chunk through them. `stacked()` returns views of the
    filled rows of FIELDS. `clear()` empties the buffer and keeps its columns for the next
    cycle.
    """

    FIELDS = ("kinds", "distances", "ego", "actions", "log_prob_old", "values", "advantages", "returns")

    def __init__(self, capacity: int, n_rays: int):
        self.capacity = capacity
        row_shapes = {"kinds": (n_rays,), "distances": (n_rays,), "ego": (N_EGO_FEATURES,)}
        dtypes = {"kinds": np.uint8, "actions": np.int64}
        self._columns = {
            f: np.empty((capacity, *row_shapes.get(f, ())), dtype=dtypes.get(f, np.float64)) for f in self.FIELDS
        }
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    def is_full(self) -> bool:
        return self._size == self.capacity

    def append_chunk(self, n: int) -> dict[str, np.ndarray]:
        """Views of the next n rows of every column, now counted as filled; refused if they do not fit."""
        if self._size + n > self.capacity:
            raise StructuralError(f"a chunk of {n} rows does not fit: buffer holds {self._size} of its {self.capacity}")
        start, self._size = self._size, self._size + n
        return {f: column[start : self._size] for f, column in self._columns.items()}

    def stacked(self) -> dict[str, np.ndarray]:
        return {f: column[: self._size] for f, column in self._columns.items()}

    def observations(self, rows) -> np.ndarray:
        """Dense (len(rows), obs_dim) observations of the filled rows that `rows` indexes."""
        return observation_matrix(*(self._columns[f][: self._size][rows] for f in ("kinds", "distances", "ego")))

    def clear(self) -> None:
        self._size = 0


def sample_actions(
    net: DenseNet, obs: np.ndarray, u: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One action per row of obs (..., obs_dim); returns (actions, log_probs, values).

    Each action inverts the policy's CDF at its uniform draw in u, of shape
    obs.shape[:-1]; with no draws the action is the argmax.
    """
    logits, values = nets.forward(net, obs)
    logp = nets.log_softmax(logits)
    if u is None:
        actions = logits.argmax(axis=-1)
    else:
        cdf = np.cumsum(np.exp(logp), axis=-1)
        actions = np.minimum((u[..., None] > cdf).sum(axis=-1), logits.shape[-1] - 1)
    rows = logp.reshape(-1, logp.shape[-1])
    return actions, rows[np.arange(len(rows)), actions.ravel()].reshape(actions.shape), values


def collect_rollout(
    net: DenseNet,
    state: WorldState,
    hp: PpoHyperparams,
    rng: np.random.Generator,
    buffer: RolloutBuffer,
    episode_key: tuple[int, ...],
) -> list[float]:
    """Fill the buffer from the freshly reset state, one sweep of hp.time_horizon lockstep ticks of every world at a time.

    Each sweep is one chunk of the buffer. Its action uniforms are drawn up front
    as (W, T, n_prey), which is the stream that drawing each world's ticks in turn
    would give. It is stored stream-major, (W, n_prey, T, ...), so the chunk's
    rows run world by world, prey by prey, tick by tick: each tick's
    observations, as observe_all returns them, and its actions, log-probabilities
    and values go straight into the buffer's rows, and so do the advantages and
    returns at the end. Only the rewards and episode boundaries are kept aside.
    Advantages are horizon-truncated: the value of the state after the sweep's
    last tick bootstraps the recursion unless an episode boundary cut it. When a
    world's tick count reaches its configured episode_length, its k-th ended
    episode, it is redrawn in place from derive_seed(*episode_key, world, k).
    Returns the per-prey episode returns world by world: a world's ended episodes
    in the order they ended, then its unfinished one.
    """
    n_worlds, n_prey = state.prey_heading.shape
    T = hp.time_horizon
    obs = observe_all(state)
    episode_return = np.zeros((n_worlds, n_prey))
    ended_returns: list[list[float]] = [[] for _ in range(n_worlds)]
    while not buffer.is_full():
        u = rng.random((n_worlds, T, n_prey))
        chunk = buffer.append_chunk(n_worlds * n_prey * T)
        kinds, distances, ego, actions_seq, logp_seq, val_seq, adv_seq, ret_seq = (
            chunk[f].reshape(n_worlds, n_prey, T, *chunk[f].shape[1:]) for f in RolloutBuffer.FIELDS
        )
        rew_seq = np.empty((n_worlds, n_prey, T))
        bound_seq = np.zeros((n_worlds, n_prey, T), dtype=bool)
        for t in range(T):
            kinds[:, :, t], distances[:, :, t], ego[:, :, t] = obs
            actions, logp, values = sample_actions(net, observation_matrix(*obs), u[:, t])
            actions_seq[..., t] = actions
            logp_seq[..., t] = logp
            val_seq[..., t] = values
            _, rewards, obs, _ = step(state, actions)
            rew_seq[..., t] = rewards
            episode_return += rewards
            ended = np.flatnonzero(state.tick >= state.config.episode_length)
            if len(ended):
                bound_seq[ended, :, t] = True
                for w in ended:
                    ended_returns[w].extend(episode_return[w].tolist())
                episode_return[ended] = 0.0
                seeds = [derive_seed(*episode_key, w, len(ended_returns[w]) // n_prey) for w in ended]
                reset_worlds(state, ended, seeds)
                obs = observe_all(state)
        _, bootstrap = nets.forward(net, observation_matrix(*obs))
        est = compute_gae(rew_seq, val_seq, bound_seq, bootstrap, hp.gamma, hp.gae_lambda)
        adv_seq[...] = est.advantages
        ret_seq[...] = est.returns
    return [r for w in range(n_worlds) for r in (*ended_returns[w], *episode_return[w].tolist())]


# ---------------------------------------------------------------------------
# loss and update


def ppo_loss_and_grads(
    net: DenseNet,
    obs: np.ndarray,
    actions: np.ndarray,
    log_prob_old: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    epsilon: float,
    beta: float,
    value_loss_coeff: float,
) -> tuple[float, dict[str, float], np.ndarray]:
    """Total loss over one minibatch plus the exact gradient, shaped like `net.flat`.

    loss = -mean(clipped surrogate) + value_loss_coeff * mean((returns - V)^2)
           - beta * mean(entropy)
    """
    n = len(obs)
    acts = nets.trunk(net, obs)
    logits, values = nets.heads(net, acts[-1])
    logp_all = nets.log_softmax(logits)
    probs = np.exp(logp_all)
    rows = np.arange(n)
    logp = logp_all[rows, actions]
    ratio = np.exp(logp - log_prob_old)

    surrogate = clipped_surrogate(ratio, advantages, epsilon)
    policy_loss = -float(surrogate.mean())

    value_err = returns - values
    value_loss = float((value_err**2).mean())
    entropy = -(probs * logp_all).sum(axis=1)
    entropy_mean = float(entropy.mean())

    total = policy_loss + value_loss_coeff * value_loss - beta * entropy_mean

    # d surrogate / d ratio is the advantage wherever the unclipped branch is
    # the minimum; when the clipped branch wins strictly, the ratio sits in
    # the saturated region and the derivative vanishes.
    active = (surrogate == ratio * advantages).astype(np.float64)
    d_ratio = -(active * advantages) / n
    onehot = np.zeros_like(logits)
    onehot[rows, actions] = 1.0
    d_logits = d_ratio[:, None] * ratio[:, None] * (onehot - probs)
    d_logits += (beta / n) * probs * (logp_all + entropy[:, None])
    d_value = (-2.0 * value_loss_coeff / n) * value_err

    grad = nets.backward(net, acts, d_logits, d_value)
    parts = {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy_mean,
        "total": total,
    }
    return total, parts, grad


@dataclass
class UpdateStats:
    policy_loss: float  # mean magnitude of the surrogate term across minibatches
    value_loss: float
    entropy: float
    value_estimate_mean: float
    n_minibatch_steps: int
    n_transitions: int


def ppo_update(
    net: DenseNet,
    adam: AdamState,
    buffer: RolloutBuffer,
    hp: PpoHyperparams,
    lr: float,
    rng: np.random.Generator,
) -> UpdateStats:
    """num_epoch shuffled passes of batch_size minibatches over the buffer, which must be full.

    Each epoch draws a permutation of the buffer's size rows and trains on its
    first (size // batch_size) * batch_size rows, one minibatch per batch_size
    of them; the last size % batch_size rows of the permutation sit that epoch
    out (128 of 10,368 at the default config). The columns come from
    `buffer.stacked()`, views of the buffer's own arrays, and
    `buffer.observations` packs dense observations for each minibatch's rows
    only, so no copy of the buffer is made. Advantages are normalized once
    across the whole batch. A non-finite loss aborts the update, restores the
    pre-update parameters and optimizer moments, and raises NumericsError. The
    buffer is cleared on success, which keeps its columns for the next cycle.
    """
    if not buffer.is_full():
        raise ContractViolation(f"update requires a full buffer ({buffer.size} < {buffer.capacity})")
    data = buffer.stacked()
    for name in ("distances", "ego", "log_prob_old", "advantages", "returns"):
        if not np.all(np.isfinite(data[name])):
            raise NumericsError(f"buffer field {name!r} contains non-finite values")
    adv = data["advantages"]
    adv = (adv - adv.mean()) / (adv.std() + ADVANTAGE_NORM_EPS)

    params_backup = net.flat.copy()
    adam_backup = adam.copy()
    n = buffer.size
    n_batches = n // hp.batch_size
    pol_mags, val_losses, entropies = [], [], []
    try:
        for _ in range(hp.num_epoch):
            order = rng.permutation(n)
            for b in range(n_batches):
                idx = order[b * hp.batch_size : (b + 1) * hp.batch_size]
                total, parts, grad = ppo_loss_and_grads(
                    net,
                    buffer.observations(idx),
                    data["actions"][idx],
                    data["log_prob_old"][idx],
                    adv[idx],
                    data["returns"][idx],
                    hp.epsilon,
                    hp.beta,
                    hp.value_loss_coeff,
                )
                if not np.isfinite(total):
                    raise NumericsError(f"non-finite loss {parts}; update aborted")
                nets.adam_step(net, adam, grad, lr)
                pol_mags.append(abs(parts["policy_loss"]))
                val_losses.append(parts["value_loss"])
                entropies.append(parts["entropy"])
        net.validate()  # parameters must stay finite across the whole update
    except NumericsError:
        net.flat[...] = params_backup
        adam.first_moment = adam_backup.first_moment
        adam.second_moment = adam_backup.second_moment
        adam.step_count = adam_backup.step_count
        raise

    stats = UpdateStats(
        policy_loss=float(np.mean(pol_mags)),
        value_loss=float(np.mean(val_losses)),
        entropy=float(np.mean(entropies)),
        value_estimate_mean=float(data["values"].mean()),
        n_minibatch_steps=hp.num_epoch * n_batches,
        n_transitions=n,
    )
    buffer.clear()
    return stats
