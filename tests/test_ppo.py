import numpy as np
import pytest

import predprey.ppo as ppo_module
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
from predprey.world import (
    N_HIT_KINDS,
    WorldConfig,
    observation_matrix,
    observe_all,
    reset,
    reset_world,
    step,
)
from tests_support import copy_net, get_flat, set_flat, traced_peak


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
        data, obs = buf.stacked(), buf.observations(np.arange(buf.size))
        for i in range(buf.size):
            r = probability_ratio(net, obs[i], int(data["actions"][i]), data["log_prob_old"][i])
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
        got = dense_columns(buf)
        assert buf.size == 2 * 3 * 2 * 16
        assert all(len(returns) == 2 * 5 for returns in actors.completed_episode_returns)  # 5 resets per world
        for key in RolloutBuffer.FIELDS:
            assert np.array_equal(got[key], np.concatenate([sw[key] for sw in sweeps])), key


def world_rows(rng, n, n_rays=11):
    """n observations packed as the world packs them: a random hit kind and distance per ray, then speed and heading."""
    kinds = rng.integers(0, N_HIT_KINDS, (n, n_rays))
    ego = (rng.integers(0, 2, n).astype(np.float64), rng.random(n))
    return observation_matrix(kinds[..., None] == np.arange(N_HIT_KINDS), rng.random((n, n_rays)), ego)


def dense_columns(buf):
    """The buffer's filled rows under the chunk's FIELDS, observations packed dense again."""
    data = buf.stacked()
    return {f: buf.observations(np.arange(buf.size)) if f == "obs" else data[f] for f in RolloutBuffer.FIELDS}


def random_chunk(rng, n=384, n_rays=11, n_actions=6):
    """One sweep's chunk of random transitions, 384 rows by default: one world of 6 prey over 64 ticks."""
    return dict(
        obs=world_rows(rng, n, n_rays),
        actions=rng.integers(0, n_actions, n),
        log_prob_old=np.full(n, -np.log(n_actions)),
        values=rng.normal(size=n),
        advantages=rng.normal(size=n),
        returns=rng.normal(size=n),
    )


def full_default_buffer(rng):
    """A buffer of the default capacity, 10,240, filled as training fills it: 27 chunks of 384 rows."""
    buf = RolloutBuffer(PpoHyperparams().buffer_size)
    chunks = []
    while not buf.is_full():
        chunks.append(random_chunk(rng))
        buf.append_chunk(**chunks[-1])
    assert buf.size == 27 * 384
    return buf, chunks


class TestRolloutBufferInPlace:
    def test_stacked_returns_views_of_the_columns_without_copying(self):
        buf, chunks = full_default_buffer(np.random.default_rng(1))
        data, peak = traced_peak(buf.stacked)
        assert peak < 64 * 1024  # a copy of the buffer is 1.6 MB
        again = buf.stacked()
        for key in RolloutBuffer.COLUMNS:
            assert np.shares_memory(data[key], again[key]), key
        dense = dense_columns(buf)
        for key in RolloutBuffer.FIELDS:
            assert np.array_equal(dense[key], np.concatenate([c[key] for c in chunks])), key

    def test_second_cycle_reuses_the_same_columns(self):
        rng = np.random.default_rng(2)
        net = init_net(79, 6, hidden_units=8, num_layers=1, seed=2)
        buf, _ = full_default_buffer(rng)
        first = buf.stacked()
        ppo_update(net, AdamState.for_net(net), buf, PpoHyperparams(), 1e-4, np.random.default_rng(0))
        assert buf.size == 0 and not buf.is_full()  # the update empties the buffer for the next cycle
        chunks = []
        while not buf.is_full():
            chunks.append(random_chunk(rng))
            buf.append_chunk(**chunks[-1])
        second, dense = buf.stacked(), dense_columns(buf)
        for key in RolloutBuffer.COLUMNS:
            assert np.shares_memory(first[key], second[key]), key
        for key in RolloutBuffer.FIELDS:
            assert np.array_equal(dense[key], np.concatenate([c[key] for c in chunks])), key

    @pytest.mark.parametrize("rows", [383, 385, 768])
    def test_chunk_of_another_length_is_refused(self, rows):
        rng = np.random.default_rng(4)
        buf = RolloutBuffer(PpoHyperparams().buffer_size)
        buf.append_chunk(**random_chunk(rng))
        with pytest.raises(StructuralError, match=f"chunk has {rows} rows, this buffer takes chunks of 384"):
            buf.append_chunk(**random_chunk(rng, n=rows))
        assert buf.size == 384

    def test_full_default_buffer_holds_under_2_mib(self):
        # kinds, distances and ego take 115 of a default row's 155 bytes; dense float64
        # observations took the columns to 6.9 MB
        rng = np.random.default_rng(6)
        chunks = [random_chunk(rng) for _ in range(27)]
        buf = RolloutBuffer(PpoHyperparams().buffer_size)

        def fill():
            for chunk in chunks:
                buf.append_chunk(**chunk)

        _, peak = traced_peak(fill)
        assert buf.is_full() and buf.size == 27 * 384
        assert sum(column.nbytes for column in buf.stacked().values()) == 27 * 384 * 155
        assert peak < 2 * 2**20, peak / 2**20

    @pytest.mark.parametrize(
        "defect, match",
        [
            ("two hot kinds", r"row \(5,\)"),
            ("half cell", r"row \(5,\)"),
            ("width 80", "width 80"),
            ("12 rays", r"chunk kinds rows are \(12,\), this buffer's are \(11,\)"),
        ],
    )
    def test_observations_that_do_not_split_are_refused(self, defect, match):
        rng = np.random.default_rng(7)
        buf = RolloutBuffer(PpoHyperparams().buffer_size)
        buf.append_chunk(**random_chunk(rng))
        chunk = random_chunk(rng)
        per_ray = chunk["obs"][:, :77].reshape(384, 11, 7)  # a view of the chunk's rows
        if defect == "two hot kinds":
            per_ray[5, 2, :N_HIT_KINDS] = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        elif defect == "half cell":
            per_ray[5, 2, :N_HIT_KINDS] = [0.0, 0.5, 0.0, 0.0, 0.0, 0.0]
        elif defect == "width 80":
            chunk["obs"] = np.concatenate([chunk["obs"], np.zeros((384, 1))], axis=1)
        else:
            chunk["obs"] = world_rows(rng, 384, n_rays=12)  # rows that split, but not into this buffer's columns
        with pytest.raises(StructuralError, match=match):
            buf.append_chunk(**chunk)
        assert buf.size == 384
        good = random_chunk(rng)
        buf.append_chunk(**good)  # the refused chunk left no row behind
        assert np.array_equal(buf.observations(np.arange(384, 768)), good["obs"])

    def test_append_to_a_full_buffer_is_refused(self):
        rng = np.random.default_rng(5)
        buf, _ = full_default_buffer(rng)
        with pytest.raises(StructuralError, match="already holds 10368"):
            buf.append_chunk(**random_chunk(rng))


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
    obs = world_rows(rng, n, n_rays=(obs_dim - 2) // (N_HIT_KINDS + 1))
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
        net = init_net(9, 4, hidden_units=6, num_layers=1, seed=7)
        adam = AdamState.for_net(net)
        buf = synthetic_buffer(net, 32, 9, rng, adv_scale=0.0)
        hp = PpoHyperparams(
            batch_size=16, buffer_size=32, beta=0.0, value_loss_coeff=0.0, time_horizon=32
        )
        before = get_flat(net)
        ppo_update(net, adam, buf, hp, lr=1e-2, rng=np.random.default_rng(0))
        assert np.array_equal(get_flat(net), before)

    def test_minibatch_step_count(self):
        rng = np.random.default_rng(8)
        net = init_net(9, 4, hidden_units=4, num_layers=1, seed=8)
        adam = AdamState.for_net(net)
        buf = synthetic_buffer(net, 10240, 9, rng)
        hp = PpoHyperparams()  # 1024 x 10240, 3 epochs
        stats = ppo_update(net, adam, buf, hp, lr=1e-4, rng=np.random.default_rng(0))
        assert stats.n_minibatch_steps == 30
        assert stats.n_transitions == 10240
        assert buf.size == 0  # cleared

    def test_each_epoch_trains_on_the_head_of_its_permutation(self, monkeypatch):
        # 10,368 rows in batches of 1,024: each epoch trains on the first 10,240 rows of
        # rng.permutation(10,368), in order, and its last 128 rows sit that epoch out
        rng = np.random.default_rng(14)
        net = init_net(9, 6, hidden_units=4, num_layers=1, seed=14)
        buf = RolloutBuffer(PpoHyperparams().buffer_size)
        while not buf.is_full():
            buf.append_chunk(**random_chunk(rng, n_rays=1))
        buf.stacked()["returns"][:] = np.arange(buf.size)  # each row's returns name the row
        seen = []

        def recording(net, obs, actions, log_prob_old, advantages, returns, *rest):
            seen.append(returns.astype(np.int64))
            return ppo_loss_and_grads(net, obs, actions, log_prob_old, advantages, returns, *rest)

        monkeypatch.setattr(ppo_module, "ppo_loss_and_grads", recording)
        stats = ppo_update(net, AdamState.for_net(net), buf, PpoHyperparams(), 1e-4, np.random.default_rng(3))
        assert stats.n_minibatch_steps == len(seen) == 30
        replay = np.random.default_rng(3)
        for epoch in range(3):
            order = replay.permutation(10_368)
            for b in range(10):
                assert np.array_equal(seen[10 * epoch + b], order[1024 * b : 1024 * (b + 1)])
            used = np.concatenate(seen[10 * epoch : 10 * (epoch + 1)])
            left_out = np.setdiff1d(np.arange(10_368), used)
            assert len(np.unique(used)) == 10_240
            assert np.array_equal(np.sort(order[10_240:]), left_out) and len(left_out) == 128

    def test_update_peak_allocation_stays_under_10_mib(self):
        # a default-width net (79 -> 128 -> 128 -> 6) on a full default buffer; copying the
        # buffer and allocating three arrays a trunk layer took the peak to 14.8 MiB
        rng = np.random.default_rng(13)
        net = init_net(79, 6, hidden_units=128, num_layers=2, seed=13)
        buf, _ = full_default_buffer(rng)
        stats, peak = traced_peak(
            ppo_update, net, AdamState.for_net(net), buf, PpoHyperparams(), 1e-4, np.random.default_rng(0)
        )
        assert stats.n_transitions == 10_368
        assert peak < 10 * 2**20, peak / 2**20

    def test_buffer_not_full_contract(self):
        net = init_net(4, 4, seed=0)
        adam = AdamState.for_net(net)
        buf = RolloutBuffer(64)
        hp = PpoHyperparams(batch_size=16, buffer_size=64)
        with pytest.raises(ContractViolation):
            ppo_update(net, adam, buf, hp, lr=1e-3, rng=np.random.default_rng(0))

    def test_non_finite_aborts_and_restores(self):
        rng = np.random.default_rng(9)
        net = init_net(9, 4, hidden_units=6, num_layers=1, seed=9)
        adam = AdamState.for_net(net)
        buf = synthetic_buffer(net, 32, 9, rng)
        buf.stacked()["advantages"][3] = np.inf  # a view of the buffer's own column
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
        net = init_net(9, 3, hidden_units=4, num_layers=1, seed=12)
        buf = synthetic_buffer(net, 16, 9, rng, perturb=0.05)
        data = buf.stacked()
        args = (
            buf.observations(np.arange(buf.size)),
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
        net = init_net(9, 2, hidden_units=8, num_layers=1, seed=99)
        adam = AdamState.for_net(net)
        hp = PpoHyperparams(
            batch_size=32, buffer_size=64, time_horizon=64, gamma=0.99, gae_lambda=0.95
        )
        obs1 = world_rows(np.random.default_rng(99), 1, n_rays=1)[0]
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
