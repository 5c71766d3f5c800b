import numpy as np
import pytest

from predprey.errors import ConfigError, ContractViolation, InputError, NumericsError, StructuralError
from predprey.net import AdamState, forward, init_net, log_softmax
from predprey.ppo import (
    ActorWorlds,
    PpoHyperparams,
    RolloutBuffer,
    clipped_surrogate,
    collect_rollout,
    compute_gae,
    ppo_loss_and_grads,
    ppo_update,
    sample_actions,
)
from predprey.world import WorldConfig, observe_all, reset, reset_world, step
from tests_support import copy_net, get_flat, set_flat


def brute_gae(rewards, values, boundaries, bootstrap, gamma, lam):
    """O(T^2) oracle straight from the discounted-delta definition."""
    n = len(rewards)
    deltas = np.zeros(n)
    for t in range(n):
        if boundaries[t]:
            nv = 0.0
        elif t + 1 < n:
            nv = values[t + 1]
        else:
            nv = bootstrap
        deltas[t] = rewards[t] + gamma * nv - values[t]
    adv = np.zeros(n)
    for t in range(n):
        acc, w = 0.0, 1.0
        for k in range(t, n):
            acc += w * deltas[k]
            if boundaries[k]:
                break
            w *= gamma * lam
        adv[t] = acc
    return adv


def scalar_gae(rewards, values, boundaries, bootstrap, gamma, lam):
    """The one-stream recursion on Python scalars, tick by tick: the bitwise reference."""
    advantages = np.zeros(len(rewards))
    next_value, next_advantage = float(bootstrap), 0.0
    for t in range(len(rewards) - 1, -1, -1):
        live = 0.0 if boundaries[t] else 1.0
        delta = rewards[t] + gamma * next_value * live - values[t]
        next_advantage = delta + gamma * lam * live * next_advantage
        advantages[t] = next_advantage
        next_value = values[t]
    return advantages


class TestComputeGae:
    def test_lambda_zero_collapses_to_td_residual(self):
        rng = np.random.default_rng(1)
        r, v = rng.normal(size=10), rng.normal(size=10)
        b = np.zeros(10, dtype=bool)
        est = compute_gae(r, v, b, bootstrap_value=0.7, gamma=0.9, lam=0.0)
        deltas = r + 0.9 * np.append(v[1:], 0.7) - v
        assert np.abs(est.advantages - deltas).max() < 1e-12

    def test_monte_carlo_collapse(self):
        r = np.array([1.0, 2.0, 3.0, 4.0])
        est = compute_gae(r, np.zeros(4), np.zeros(4, dtype=bool), 0.0, gamma=1.0, lam=1.0)
        assert np.array_equal(est.advantages, np.array([10.0, 9.0, 7.0, 4.0]))

    def test_frozen_example_values(self):
        # expected values computed with the O(T^2) oracle before the build
        est = compute_gae(
            np.array([1.0, -0.2, -1.0]),
            np.array([0.5, 0.4, 0.3]),
            np.zeros(3, dtype=bool),
            bootstrap_value=0.2,
            gamma=0.99,
            lam=0.95,
        )
        frozen = np.array([-0.3637348555, -1.3394310000, -1.102])
        assert np.abs(est.advantages - frozen).max() < 1e-9
        oracle = brute_gae([1.0, -0.2, -1.0], [0.5, 0.4, 0.3], [False] * 3, 0.2, 0.99, 0.95)
        assert np.abs(est.advantages - oracle).max() < 1e-12
        assert np.abs(est.returns - (frozen + np.array([0.5, 0.4, 0.3]))).max() < 1e-9

    def test_matches_brute_force_on_random_sequences(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 65))
            r = rng.normal(size=n)
            v = rng.normal(size=n)
            b = rng.random(n) < 0.1
            bootstrap = float(rng.normal())
            gamma, lam = rng.uniform(0.8, 1.0), rng.uniform(0.9, 1.0)
            est = compute_gae(r, v, b, bootstrap, gamma, lam)
            assert np.abs(est.advantages - brute_gae(r, v, b, bootstrap, gamma, lam)).max() < 1e-10

    def test_streams_on_leading_axes_match_one_stream_calls_bitwise(self):
        rng = np.random.default_rng(21)
        for shape in ((1, 1), (5, 64), (3, 4, 17)):
            r, v = rng.normal(size=shape), rng.normal(size=shape)
            b = rng.random(shape) < 0.15
            bootstrap = rng.normal(size=shape[:-1])
            est = compute_gae(r, v, b, bootstrap, 0.99, 0.95)
            assert est.advantages.shape == est.returns.shape == shape
            for s in np.ndindex(shape[:-1]):
                one = compute_gae(r[s], v[s], b[s], float(bootstrap[s]), 0.99, 0.95)
                assert np.array_equal(est.advantages[s], one.advantages)
                assert np.array_equal(est.returns[s], one.returns)
                assert np.array_equal(one.advantages, scalar_gae(r[s], v[s], b[s], bootstrap[s], 0.99, 0.95))

    def test_bootstrap_shape_must_match_streams(self):
        with pytest.raises(StructuralError):
            compute_gae(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3), dtype=bool), np.zeros(3), 0.99, 0.95)

    def test_boundary_stops_bootstrap(self):
        est = compute_gae(
            np.array([1.0]), np.array([0.0]), np.array([True]), bootstrap_value=100.0,
            gamma=0.99, lam=0.95,
        )
        assert est.advantages[0] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            compute_gae(np.zeros(3), np.zeros(4), np.zeros(3, dtype=bool), 0.0, 0.99, 0.95)

    def test_gamma_out_of_range(self):
        with pytest.raises(InputError):
            compute_gae(np.zeros(3), np.zeros(3), np.zeros(3, dtype=bool), 0.0, 1.5, 0.95)


def probability_ratio(net, obs, action, log_prob_old) -> float:
    """exp(log pi(a|s) under the current net minus the stored behaviour log-prob)."""
    logits, _ = forward(net, obs)
    return float(np.exp(log_softmax(logits)[action] - log_prob_old))


class TestProbabilityRatio:
    def test_ratio_is_one_at_sync(self):
        net = init_net(6, 6, hidden_units=8, num_layers=1, seed=2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            obs = rng.normal(size=6)
            logits, _ = forward(net, obs)
            action = int(rng.integers(0, 6))
            lp_old = float(log_softmax(logits)[action])
            assert probability_ratio(net, obs, action, lp_old) == pytest.approx(1.0, abs=1e-12)

    def test_doubled_probability_gives_two(self):
        net = init_net(4, 3, hidden_units=5, num_layers=1, seed=3)
        obs = np.ones(4)
        logits, _ = forward(net, obs)
        lp_now = float(log_softmax(logits)[1])
        assert probability_ratio(net, obs, 1, lp_now - np.log(2.0)) == pytest.approx(2.0, rel=1e-12)

    def test_matches_independent_softmax_oracle(self):
        net = init_net(5, 4, hidden_units=6, num_layers=2, seed=4)
        rng = np.random.default_rng(4)
        for _ in range(30):
            obs = rng.normal(size=5)
            action = int(rng.integers(0, 4))
            lp_old = float(rng.normal(scale=0.5) - 1.5)
            logits, _ = forward(net, obs)
            exps = [np.exp(z) for z in logits]  # plain-python softmax
            p = exps[action] / sum(exps)
            expected = np.exp(np.log(p) - lp_old)
            assert probability_ratio(net, obs, action, lp_old) == pytest.approx(
                expected, rel=1e-10
            )


class TestClippedSurrogate:
    def test_truth_table(self):
        # analytic min/clip values for eps = 0.2
        expected = {
            (0.5, 1.0): 0.5,
            (1.0, 1.0): 1.0,
            (1.5, 1.0): 1.2,
            (0.5, 0.0): 0.0,
            (1.0, 0.0): 0.0,
            (1.5, 0.0): 0.0,
            (0.5, -1.0): -0.8,
            (1.0, -1.0): -1.0,
            (1.5, -1.0): -1.5,
        }
        for (r, adv), want in expected.items():
            assert clipped_surrogate(r, adv, 0.2) == want

    def test_pessimism_bound(self):
        rng = np.random.default_rng(5)
        r = rng.uniform(0.01, 3.0, size=1000)
        adv = rng.normal(size=1000)
        eps = rng.uniform(0.05, 0.5)
        assert np.all(clipped_surrogate(r, adv, eps) <= r * adv + 1e-15)

    def test_clip_inactive_inside_band(self):
        rng = np.random.default_rng(6)
        eps = 0.2
        r = rng.uniform(1 - eps, 1 + eps, size=500)
        adv = rng.normal(size=500)
        assert np.array_equal(clipped_surrogate(r, adv, eps), r * adv)

    def test_epsilon_validation(self):
        with pytest.raises(InputError):
            clipped_surrogate(1.0, 1.0, 0.0)


class TestHyperparams:
    def test_divisibility_enforced(self):
        with pytest.raises(StructuralError):
            PpoHyperparams(batch_size=1000, buffer_size=10240)

    def test_range_warnings(self):
        with pytest.warns(UserWarning, match="epsilon"):
            PpoHyperparams(epsilon=0.5)
        with pytest.warns(UserWarning, match="gamma"):
            PpoHyperparams(gamma=0.5)
        with pytest.warns(UserWarning, match="gae_lambda"):
            PpoHyperparams(gae_lambda=0.5)

    @pytest.mark.parametrize(
        "name", ["batch_size", "buffer_size", "num_epoch", "time_horizon", "max_steps", "summary_freq"]
    )
    def test_non_positive_counts_rejected(self, name):
        for value in (0, -1):
            with pytest.raises(ConfigError, match=name):
                PpoHyperparams(**{name: value})

    @pytest.mark.parametrize(
        "name", ["epsilon", "beta", "gamma", "gae_lambda", "learning_rate", "value_loss_coeff"]
    )
    def test_non_finite_floats_rejected(self, name):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match=name):
                PpoHyperparams(**{name: value})

    def test_table_defaults(self):
        hp = PpoHyperparams()
        assert (hp.batch_size, hp.buffer_size, hp.epsilon, hp.beta) == (1024, 10240, 0.2, 1e-2)
        assert (hp.gamma, hp.gae_lambda, hp.num_epoch, hp.time_horizon) == (0.99, 0.95, 3, 64)
        assert (hp.learning_rate, hp.summary_freq) == (3.0e-4, 10_000)


def tiny_world_actors(n_prey=1, seed=0, predator=False):
    cfg = WorldConfig(
        n_prey=n_prey,
        predator_present=predator,
        n_positive_points=4,
        n_negative_points=4,
    )
    state = reset(cfg, seed)
    return cfg, ActorWorlds.from_state(state)


class TestCollectRollout:
    def test_single_stream_horizon_64(self):
        cfg, actors = tiny_world_actors(n_prey=1)
        net = init_net(cfg.obs_dim, 6, hidden_units=16, num_layers=1, seed=0)
        hp = PpoHyperparams(batch_size=32, buffer_size=64, time_horizon=64)
        buf = collect_rollout(net, actors, 64, hp, np.random.default_rng(0))
        assert buf.size == 64

    def test_deterministic_buffers(self):
        outs = []
        for _ in range(2):
            cfg, actors = tiny_world_actors(n_prey=2, seed=3)
            net = init_net(cfg.obs_dim, 6, hidden_units=16, num_layers=1, seed=1)
            hp = PpoHyperparams(batch_size=32, buffer_size=64, time_horizon=16)
            buf = collect_rollout(net, actors, 16, hp, np.random.default_rng(11))
            outs.append(buf.stacked())
        for key in outs[0]:
            assert np.array_equal(outs[0][key], outs[1][key]), key

    def test_update_fires_after_16_sweeps_with_10_streams(self):
        cfg, actors = tiny_world_actors(n_prey=10, seed=5)
        net = init_net(cfg.obs_dim, 6, hidden_units=8, num_layers=1, seed=2)
        hp = PpoHyperparams()  # buffer 10240, horizon 64
        buf = RolloutBuffer(hp.buffer_size)
        rng = np.random.default_rng(0)
        sweeps = 0
        while not buf.is_full():
            collect_rollout(net, actors, hp.time_horizon, hp, rng, buf)
            sweeps += 1
        assert sweeps == 16  # 10240 / (10 streams * 64)

    def test_log_probs_recorded_from_behaviour_policy(self):
        cfg, actors = tiny_world_actors(n_prey=1, seed=9)
        net = init_net(cfg.obs_dim, 6, hidden_units=16, num_layers=1, seed=3)
        hp = PpoHyperparams(batch_size=8, buffer_size=16, time_horizon=16)
        buf = collect_rollout(net, actors, 16, hp, np.random.default_rng(1))
        data = buf.stacked()
        for i in range(buf.size):
            r = probability_ratio(net, data["obs"][i], int(data["actions"][i]), data["log_prob_old"][i])
            assert r == pytest.approx(1.0, abs=1e-9)

    def test_three_worlds_with_resets_match_per_stream_reference(self):
        cfg = WorldConfig(n_prey=2, n_positive_points=4, n_negative_points=4, episode_length=6)
        net = init_net(cfg.obs_dim, 6, hidden_units=16, num_layers=1, seed=5)
        hp = PpoHyperparams(batch_size=32, buffer_size=192, time_horizon=16)
        seeds = [31, 32, 33]
        actors = ActorWorlds.from_state(reset(cfg, seeds))
        buf, rng, episode_seed = RolloutBuffer(hp.buffer_size), np.random.default_rng(4), counting_episode_seeds(7)
        for _ in range(2):
            collect_rollout(net, actors, 16, hp, rng, buf, episode_seed)
        ref_actors = ActorWorlds.from_state(reset(cfg, seeds))
        ref_rng, ref_seed = np.random.default_rng(4), counting_episode_seeds(7)
        sweeps = [reference_sweep(net, ref_actors, 16, hp, ref_rng, ref_seed) for _ in range(2)]
        got = buf.stacked()
        assert buf.size == 2 * 3 * 2 * 16
        assert all(len(returns) == 2 * 5 for returns in actors.completed_episode_returns)  # 5 resets per world
        for key in RolloutBuffer.FIELDS:
            assert np.array_equal(got[key], np.concatenate([sw[key] for sw in sweeps])), key


def counting_episode_seeds(base):
    """episode_seed(w) for collect_rollout: a fresh seed for each episode of each world."""
    counts = {}

    def episode_seed(w):
        counts[w] = counts.get(w, 0) + 1
        return base + 100 * int(w) + counts[w]

    return episode_seed


def reference_sweep(net, actors, T, hp, rng, episode_seed):
    """One sweep laid out stream by stream: time-major arrays and one GAE call per (world, prey)."""
    state = actors.state
    n_worlds, n_prey, _ = actors.obs.shape
    u = rng.random((n_worlds, T, n_prey))
    seq = {k: [] for k in ("obs", "actions", "log_prob_old", "values", "rewards", "boundaries")}
    for t in range(T):
        actions, logp, values = sample_actions(net, actors.obs, u[:, t])
        for key, x in (("obs", actors.obs), ("actions", actions), ("log_prob_old", logp), ("values", values)):
            seq[key].append(np.array(x))
        _, rewards, actors.obs, _ = step(state, actions)
        ended = state.tick >= state.config.episode_length
        for w in np.flatnonzero(ended):
            reset_world(state, w, episode_seed(w))
        if ended.any():
            actors.obs = observe_all(state)
        seq["rewards"].append(np.array(rewards))
        seq["boundaries"].append(np.repeat(ended[:, None], n_prey, axis=1))
    seq = {k: np.stack(v) for k, v in seq.items()}  # (T, W, n_prey, ...)
    _, bootstrap = forward(net, actors.obs)
    rows = {k: [] for k in RolloutBuffer.FIELDS}
    for w in range(n_worlds):
        for i in range(n_prey):
            est = compute_gae(
                seq["rewards"][:, w, i], seq["values"][:, w, i], seq["boundaries"][:, w, i],
                float(bootstrap[w, i]), hp.gamma, hp.gae_lambda,
            )
            for key in ("obs", "actions", "log_prob_old", "values"):
                rows[key].append(seq[key][:, w, i])
            rows["advantages"].append(est.advantages)
            rows["returns"].append(est.returns)
    return {k: np.concatenate(v) for k, v in rows.items()}


def synthetic_buffer(net, n, obs_dim, rng, adv_scale=1.0, perturb=0.0):
    """Buffer of random transitions; log_prob_old from a perturbed copy of net."""
    behaviour = copy_net(net)
    if perturb:
        flat = get_flat(behaviour)
        set_flat(behaviour, flat + perturb * rng.normal(size=flat.shape))
    obs = rng.normal(size=(n, obs_dim))
    logits, values = forward(behaviour, obs)
    logp = log_softmax(logits)
    actions = np.array([rng.integers(0, logits.shape[1]) for _ in range(n)])
    lp_old = logp[np.arange(n), actions]
    buf = RolloutBuffer(n)
    buf.append_chunk(
        obs=obs,
        actions=actions,
        log_prob_old=lp_old,
        values=values,
        advantages=adv_scale * rng.normal(size=n),
        returns=rng.normal(size=n),
    )
    return buf


class TestPpoUpdate:
    def test_zero_advantages_zero_coeffs_leave_parameters(self):
        rng = np.random.default_rng(7)
        net = init_net(5, 4, hidden_units=6, num_layers=1, seed=7)
        adam = AdamState.for_net(net)
        buf = synthetic_buffer(net, 32, 5, rng, adv_scale=0.0)
        hp = PpoHyperparams(
            batch_size=16, buffer_size=32, beta=0.0, value_loss_coeff=0.0, time_horizon=32
        )
        before = get_flat(net)
        ppo_update(net, adam, buf, hp, lr=1e-2, rng=np.random.default_rng(0))
        assert np.array_equal(get_flat(net), before)

    def test_minibatch_step_count(self):
        rng = np.random.default_rng(8)
        net = init_net(4, 4, hidden_units=4, num_layers=1, seed=8)
        adam = AdamState.for_net(net)
        buf = synthetic_buffer(net, 10240, 4, rng)
        hp = PpoHyperparams()  # 1024 x 10240, 3 epochs
        stats = ppo_update(net, adam, buf, hp, lr=1e-4, rng=np.random.default_rng(0))
        assert stats.n_minibatch_steps == 30
        assert stats.n_transitions == 10240
        assert buf.size == 0  # cleared

    def test_buffer_not_full_contract(self):
        net = init_net(4, 4, seed=0)
        adam = AdamState.for_net(net)
        buf = RolloutBuffer(64)
        hp = PpoHyperparams(batch_size=16, buffer_size=64)
        with pytest.raises(ContractViolation):
            ppo_update(net, adam, buf, hp, lr=1e-3, rng=np.random.default_rng(0))

    def test_non_finite_aborts_and_restores(self):
        rng = np.random.default_rng(9)
        net = init_net(5, 4, hidden_units=6, num_layers=1, seed=9)
        adam = AdamState.for_net(net)
        buf = synthetic_buffer(net, 32, 5, rng)
        data_chunk = buf._chunks["advantages"][0]
        data_chunk[3] = np.inf
        hp = PpoHyperparams(batch_size=32, buffer_size=32)
        before = get_flat(net)
        with pytest.raises(NumericsError):
            ppo_update(net, adam, buf, hp, lr=1e-3, rng=np.random.default_rng(0))
        assert np.array_equal(get_flat(net), before)
        assert adam.step_count == 0

    def test_advantage_normalization_moments(self):
        rng = np.random.default_rng(10)
        adv = 5.0 + 3.0 * rng.normal(size=4096)
        norm = (adv - adv.mean()) / (adv.std() + 1e-8)
        assert abs(norm.mean()) < 1e-6
        assert abs(norm.std() - 1.0) < 1e-6

    def test_loss_gradient_matches_finite_differences_small(self):
        rng = np.random.default_rng(12)
        net = init_net(4, 3, hidden_units=4, num_layers=1, seed=12)
        buf = synthetic_buffer(net, 16, 4, rng, perturb=0.05)
        data = buf.stacked()
        args = (
            data["obs"],
            data["actions"],
            data["log_prob_old"],
            data["advantages"],
            data["returns"],
            0.2,
            1e-2,
            0.5,
        )
        _, _, grads = ppo_loss_and_grads(net, *args)
        flat_grad = np.concatenate([g.ravel() for g in grads])
        base = get_flat(net)
        h = 1e-6
        bad = 0
        for k in range(len(base)):
            up, down = base.copy(), base.copy()
            up[k] += h
            down[k] -= h
            probe = copy_net(net)
            set_flat(probe, up)
            lu, _, _ = ppo_loss_and_grads(probe, *args)
            set_flat(probe, down)
            ld, _, _ = ppo_loss_and_grads(probe, *args)
            fd = (lu - ld) / (2 * h)
            denom = max(abs(fd), abs(flat_grad[k]), 1e-8)
            if abs(fd - flat_grad[k]) / denom > 1e-4:
                bad += 1
        assert bad == 0

    def test_bandit_converges_to_better_arm(self):
        # one state, two actions, reward 1 for action 0: the policy must
        # concentrate on action 0
        rng = np.random.default_rng(1234)
        net = init_net(1, 2, hidden_units=8, num_layers=1, seed=99)
        adam = AdamState.for_net(net)
        hp = PpoHyperparams(
            batch_size=32, buffer_size=64, time_horizon=64, gamma=0.99, gae_lambda=0.95
        )
        obs1 = np.array([1.0])
        for _ in range(200):
            obs = np.tile(obs1, (64, 1))
            logits, values = forward(net, obs)
            logp = log_softmax(logits)
            u = rng.random(64)
            actions = (u > np.exp(logp)[:, 0]).astype(np.int64)  # inverse-cdf over 2 arms
            lp_old = logp[np.arange(64), actions]
            rewards = (actions == 0).astype(np.float64)
            adv = np.empty(64)
            rets = np.empty(64)
            for i in range(64):
                est = compute_gae(
                    rewards[i : i + 1], values[i : i + 1], np.array([True]), 0.0,
                    hp.gamma, hp.gae_lambda,
                )
                adv[i], rets[i] = est.advantages[0], est.returns[0]
            buf = RolloutBuffer(64)
            buf.append_chunk(
                obs=obs, actions=actions, log_prob_old=lp_old, values=values, advantages=adv, returns=rets,
            )
            ppo_update(net, adam, buf, hp, lr=0.01, rng=rng)
        logits, _ = forward(net, obs1)
        assert np.exp(log_softmax(logits))[0] > 0.9


class TestSampleActions:
    def test_greedy_picks_argmax(self):
        net = init_net(4, 6, seed=5)
        obs = np.random.default_rng(5).normal(size=(3, 4))
        actions, _, _ = sample_actions(net, obs)
        logits, _ = forward(net, obs)
        assert np.array_equal(actions, logits.argmax(axis=1))

    def test_stacked_worlds_match_each_world_bitwise(self):
        net = init_net(79, 6, seed=8)
        rng = np.random.default_rng(8)
        obs, u = rng.normal(size=(20, 6, 79)), rng.random((20, 6))
        for draws in (u, None):
            actions, logp, values = sample_actions(net, obs, draws)
            for w in range(20):
                a, lp, v = sample_actions(net, obs[w], None if draws is None else draws[w])
                assert np.array_equal(actions[w], a) and np.array_equal(logp[w], lp) and np.array_equal(values[w], v)

    def test_sampling_respects_probabilities(self):
        net = init_net(2, 3, hidden_units=4, num_layers=1, seed=6)
        obs = np.tile(np.array([0.5, -0.5]), (20000, 1))
        actions, _, _ = sample_actions(net, obs, np.random.default_rng(42).random(len(obs)))
        logits, _ = forward(net, obs[0])
        p = np.exp(log_softmax(logits))
        freq = np.bincount(actions, minlength=3) / len(actions)
        assert np.abs(freq - p).max() < 0.02
