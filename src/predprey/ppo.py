"""Clipped-surrogate actor-critic learner.

Rollouts are collected from one shared policy across N independent worlds
(every prey is a separate experience stream), advantages come from
exponentially-weighted temporal-difference residuals truncated at the
collection horizon, and updates run num_epoch shuffled passes of
size // batch_size minibatches over the buffer; each pass leaves the
size % batch_size rows at the end of its permutation out. The buffer keeps
each observation as the world computes it, a hit kind and a distance per ray
plus the ego features, and packs dense rows only for the rows a minibatch
uses. The stored behaviour log-probabilities are never recomputed, so the
post-update policy becomes the next cycle's behaviour policy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import net as nets
from .errors import ConfigError, ContractViolation, InputError, NumericsError, StructuralError
from .net import AdamState, DenseNet
from .world import WorldState, observe_all, pack_observations, reset_world, split_observations, step

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
    """Columnar store of transitions, filled in place one sweep's chunk at a time.

    A chunk gives FIELDS, its observations as dense (n, obs_dim) rows. The buffer stores
    them as `world.split_observations` returns them, in the kinds, distances and ego
    columns: a default row takes 11 + 88 + 16 bytes instead of 632, and a full default
    buffer holds 1.6 MB of columns instead of 6.9. `observations(rows)` packs dense rows
    again, bit for bit, with `world.pack_observations`. A chunk whose observations do
    not split exactly is refused with StructuralError and leaves the buffer as it was.

    The first `append_chunk` fixes the chunk length n and allocates each column once, for
    ceil(capacity / n) chunks; every later chunk must have that length and is copied into
    the next rows. `stacked()` returns views of the filled rows of COLUMNS, which stay valid
    until the next `clear()`. `clear()` empties the buffer and keeps its columns for the
    next cycle.
    """

    FIELDS = ("obs", "actions", "log_prob_old", "values", "advantages", "returns")
    COLUMNS = ("kinds", "distances", "ego", *FIELDS[1:])

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._columns: dict[str, np.ndarray] = {}
        self._chunk_rows = 0
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    def is_full(self) -> bool:
        return self._size >= self.capacity

    def append_chunk(self, **arrays: np.ndarray) -> None:
        if set(arrays) != set(self.FIELDS):
            raise StructuralError(f"chunk must provide exactly {self.FIELDS}")
        arrays = {f: np.asarray(arrays[f]) for f in self.FIELDS}
        n = len(arrays["actions"])
        if any(len(a) != n for a in arrays.values()):
            raise StructuralError("chunk arrays have mismatched lengths")
        if arrays["obs"].ndim != 2:
            raise StructuralError(f"chunk obs must be (rows, obs_dim), got shape {arrays['obs'].shape}")
        kinds, distances, ego = split_observations(arrays.pop("obs"))
        arrays = {"kinds": kinds, "distances": distances, "ego": ego, **arrays}
        if not self._columns:
            if n == 0:
                raise StructuralError("chunk has no rows")
            rows = math.ceil(self.capacity / n) * n
            self._columns = {f: np.empty((rows, *a.shape[1:]), dtype=a.dtype) for f, a in arrays.items()}
            self._chunk_rows = n
        if n != self._chunk_rows:
            raise StructuralError(f"chunk has {n} rows, this buffer takes chunks of {self._chunk_rows}")
        for f, a in arrays.items():
            if a.shape[1:] != self._columns[f].shape[1:]:
                raise StructuralError(
                    f"chunk {f} rows are {a.shape[1:]}, this buffer's are {self._columns[f].shape[1:]}"
                )
        if self.is_full():
            raise StructuralError(f"buffer already holds {self._size} of its {self.capacity} rows")
        for f, a in arrays.items():
            self._columns[f][self._size : self._size + n] = a
        self._size += n

    def _filled(self, name: str) -> np.ndarray:
        if not self._columns:
            raise StructuralError("no chunk appended yet")
        return self._columns[name][: self._size]

    def stacked(self) -> dict[str, np.ndarray]:
        return {f: self._filled(f) for f in self.COLUMNS}

    def observations(self, rows) -> np.ndarray:
        """Dense (len(rows), obs_dim) observations of the filled rows that `rows` indexes."""
        return pack_observations(*(self._filled(f)[rows] for f in ("kinds", "distances", "ego")))

    def clear(self) -> None:
        self._size = 0


@dataclass(eq=False)
class ActorWorlds:
    """The worlds of one rollout plus the cached observations the policy acts on."""

    state: WorldState
    obs: np.ndarray  # (W, n_prey, obs_dim)
    episode_return: np.ndarray  # (W, n_prey)
    completed_episode_returns: list[list[float]]  # per world, in the order episodes ended

    @classmethod
    def from_state(cls, state: WorldState) -> "ActorWorlds":
        return cls(
            state=state,
            obs=observe_all(state),
            episode_return=np.zeros(state.prey_heading.shape),
            completed_episode_returns=[[] for _ in range(state.n_worlds)],
        )

    def finish_episode(self, world: int) -> None:
        self.completed_episode_returns[world].extend(float(r) for r in self.episode_return[world])
        self.episode_return[world] = 0.0


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
    actors: ActorWorlds,
    T: int,
    hp: PpoHyperparams,
    rng: np.random.Generator,
    buffer: RolloutBuffer | None = None,
    episode_seed=None,
) -> RolloutBuffer:
    """One sweep: T ticks of every world in lockstep, appended to the buffer as one chunk.

    The sweep's action uniforms are drawn up front as (W, T, n_prey), which is
    the stream that drawing each world's ticks in turn would give. The sweep is
    stored stream-major, (W, n_prey, T, ...), so the chunk's rows run world by
    world, prey by prey, tick by tick. Advantages are horizon-truncated: the
    value of the state after the last tick bootstraps the recursion unless an
    episode boundary cut it. When a world's tick count reaches its configured
    episode_length it is redrawn in place from the seed episode_seed(world_index)
    returns; passing None disables resets.
    """
    if buffer is None:
        buffer = RolloutBuffer(hp.buffer_size)
    state = actors.state
    n_worlds, n_prey, obs_dim = actors.obs.shape
    u = rng.random((n_worlds, T, n_prey))
    obs_seq = np.empty((n_worlds, n_prey, T, obs_dim))
    act_seq = np.empty((n_worlds, n_prey, T), dtype=np.int64)
    logp_seq = np.empty((n_worlds, n_prey, T))
    rew_seq = np.empty((n_worlds, n_prey, T))
    val_seq = np.empty((n_worlds, n_prey, T))
    bound_seq = np.zeros((n_worlds, n_prey, T), dtype=bool)

    for t in range(T):
        obs_seq[:, :, t] = actors.obs
        actions, logp, values = sample_actions(net, actors.obs, u[:, t])
        act_seq[..., t] = actions
        logp_seq[..., t] = logp
        val_seq[..., t] = values
        _, rewards, actors.obs, _ = step(state, actions)
        rew_seq[..., t] = rewards
        actors.episode_return += rewards
        if episode_seed is None:
            continue
        ended = np.flatnonzero(state.tick >= state.config.episode_length)
        for w in ended:
            bound_seq[w, :, t] = True
            actors.finish_episode(w)
            reset_world(state, w, episode_seed(w))
        if len(ended):
            actors.obs = observe_all(state)

    _, bootstrap = nets.forward(net, actors.obs)
    est = compute_gae(rew_seq, val_seq, bound_seq, bootstrap, hp.gamma, hp.gae_lambda)
    buffer.append_chunk(
        obs=obs_seq.reshape(-1, obs_dim),
        actions=act_seq.ravel(),
        log_prob_old=logp_seq.ravel(),
        values=val_seq.ravel(),
        advantages=est.advantages.ravel(),
        returns=est.returns.ravel(),
    )
    return buffer


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
    """num_epoch shuffled passes of batch_size minibatches over the full buffer.

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
    if buffer.size < hp.buffer_size:
        raise ContractViolation(
            f"update requires a full buffer ({buffer.size} < {hp.buffer_size})"
        )
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
