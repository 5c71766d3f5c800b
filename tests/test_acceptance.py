"""End-to-end acceptance suite.

One test per release criterion, each printing a PASS/FAIL line (run with
`pytest tests/test_acceptance.py -s` to watch them stream). The heavy
training-based checks sit at the end; the whole module runs in roughly ten
minutes on one desktop core.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from predprey.net import forward, init_net, log_softmax, read_rows
from predprey.ppo import PpoHyperparams, clipped_surrogate, compute_gae, ppo_loss_and_grads
from predprey.stats import RunRecord, cohens_d, evaluate_condition, one_way_anova, task_efficiency
from predprey.train import MetricsRow, ScenarioConfig, run_training
from predprey.trajectory import EVENT_NAMES
from predprey.world import EVENT_CAUGHT, EVENT_NEGATIVE, EVENT_POSITIVE, WorldConfig, reset, step
from tests_support import brute_force_can_see, copy_net, get_flat, make_state, set_flat


def report(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" :: {detail}"
    print(line, flush=True)
    assert ok, line


def group_with_moments(mean, sd, n=50):
    base = np.arange(n, dtype=np.float64)
    base -= base.mean()
    base /= base.std(ddof=1)
    return mean + sd * base


class TestCriterion1TaskEfficiencyArithmetic:
    def test_reproduces_all_five_reported_values(self):
        cases = [
            ((326.88, 320.44, 55.48), 207.312),
            ((779.4, 706.88, 72.7), 565.324),
            ((1455.18, 491.24, 0.0), 1356.93),
            ((779.4, 706.88, 72.7), 565.324),
            ((1476.62, 504.98, 102.08), 1273.544),
        ]
        worst = 0.0
        for (pos, neg, caught), expected in cases:
            got = task_efficiency(RunRecord(0, pos, neg, caught, 1))
            worst = max(worst, abs(got - expected))
        report(
            "task efficiency reproduces the five reported condition values to 0.01",
            worst <= 0.01,
            f"max abs error {worst:.6f}",
        )


class TestCriterion2EffectSizes:
    COND = {
        "e1c1_eff": (207.312, 33.835),
        "e1c2_eff": (565.324, 53.164),
        "e1c1_pos": (326.88, 34.231),
        "e1c2_pos": (779.4, 57.434),
        "e1c1_neg": (320.44, 35.595),
        "e1c2_neg": (706.88, 53.059),
        "e1c1_caught": (55.48, 15.931),
        "e1c2_caught": (72.7, 11.784),
        "e2c1_eff": (1356.93, 108.803),
        "e2c3_eff": (1273.544, 124.072),
    }
    PAIRS = [
        ("e1c1_eff", "e1c2_eff", -8.034, 1613.742),
        ("e1c1_pos", "e1c2_pos", -9.571, 2290.235),
        ("e1c1_neg", "e1c2_neg", -8.553, 1829.039),
        ("e1c1_caught", "e1c2_caught", -1.228, 37.758),
        ("e2c1_eff", "e2c3_eff", 0.714, 12.767),
        ("e1c2_eff", "e2c3_eff", -7.420, 1376.41),
        ("e2c1_eff", "e1c2_eff", 9.244, 2136.585),
    ]

    def test_reproduces_reported_d_and_f(self):
        n = 50
        worst_d = worst_f = 0.0
        for a, b, want_d, want_f in self.PAIRS:
            g1 = group_with_moments(*self.COND[a], n=n)
            g2 = group_with_moments(*self.COND[b], n=n)
            d = cohens_d(g1, g2)
            worst_d = max(worst_d, abs(d - want_d) / abs(want_d))
            f_direct = one_way_anova([g1, g2]).f_score
            f_identity = d * d * n / 2.0
            worst_f = max(
                worst_f,
                abs(f_direct - want_f) / want_f,
                abs(f_identity - want_f) / want_f,
            )
        report(
            "Cohen's d and F reproduce the seven reported pairings within 1%",
            worst_d < 0.01 and worst_f < 0.01,
            f"max rel error d {worst_d:.4%}, F {worst_f:.4%}",
        )


class TestCriterion3ClipTruthTable:
    def test_nine_case_grid_exact(self):
        expected = {
            (0.5, -1.0): -0.8, (0.5, 0.0): 0.0, (0.5, 1.0): 0.5,
            (1.0, -1.0): -1.0, (1.0, 0.0): 0.0, (1.0, 1.0): 1.0,
            (1.5, -1.0): -1.5, (1.5, 0.0): 0.0, (1.5, 1.0): 1.2,
        }
        exact = all(clipped_surrogate(r, a, 0.2) == v for (r, a), v in expected.items())
        report("clipped surrogate matches the 3x3 analytic grid exactly", exact)


class TestCriterion4GaeOracle:
    def test_thousand_random_sequences(self):
        def brute(rewards, values, boundaries, bootstrap, gamma, lam):
            n = len(rewards)
            deltas = np.zeros(n)
            for t in range(n):
                nv = 0.0 if boundaries[t] else (values[t + 1] if t + 1 < n else bootstrap)
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

        t0 = time.time()
        rng = np.random.default_rng(4444)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            r, v = rng.normal(size=n), rng.normal(size=n)
            b = rng.random(n) < rng.uniform(0.0, 0.3)
            bootstrap = float(rng.normal())
            gamma, lam = rng.uniform(0.8, 1.0), rng.uniform(0.9, 0.96)
            est = compute_gae(r, v, b, bootstrap, gamma, lam)
            worst = max(worst, float(np.abs(est.advantages - brute(r, v, b, bootstrap, gamma, lam)).max()))
        report(
            "advantage recursion matches the quadratic brute-force definition on 1000 sequences",
            worst < 1e-10,
            f"max abs error {worst:.2e}, {time.time() - t0:.1f}s",
        )


class TestCriterion5LossGradient:
    def test_full_loss_gradient_vs_finite_differences(self):
        t0 = time.time()
        rng = np.random.default_rng(5555)
        net = init_net(6, 6, hidden_units=8, num_layers=1, seed=55)
        behaviour = copy_net(net)
        flat = get_flat(behaviour)
        set_flat(behaviour, flat + 0.05 * rng.normal(size=flat.shape))
        n = 64
        obs = rng.normal(size=(n, 6))
        logits, values = forward(behaviour, obs)
        logp = log_softmax(logits)
        actions = np.array([rng.integers(0, 6) for _ in range(n)])
        args = (
            obs,
            actions,
            logp[np.arange(n), actions],
            rng.normal(size=n),
            rng.normal(size=n),
            0.2,
            1e-2,
            0.5,
        )
        _, _, grads = ppo_loss_and_grads(net, *args)
        flat_grad = np.concatenate([g.ravel() for g in grads])
        base = get_flat(net)
        h = 1e-6
        rel = np.zeros(len(base))
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
            rel[k] = abs(fd - flat_grad[k]) / max(abs(fd), abs(flat_grad[k]), 1e-8)
        frac_tight = float((rel < 1e-4).mean())
        ok = frac_tight >= 0.95 and bool(np.all(rel < 1e-3))
        report(
            "total loss gradient matches central differences (95% @ 1e-4, all @ 1e-3)",
            ok,
            f"{frac_tight:.1%} under 1e-4, worst {rel.max():.2e}, {time.time() - t0:.1f}s",
        )


@pytest.mark.slow
class TestCriterion6EnvironmentInvariants:
    def test_hundred_thousand_random_steps(self):
        t0 = time.time()
        cfg = WorldConfig()
        state = reset(cfg, 606)
        rng = np.random.default_rng(606)
        half = cfg.half_side
        rewards_all = []
        counts = np.zeros(3, dtype=np.int64)  # indexed by event kind
        containment_ok = True
        conservation_ok = True
        n_pos0 = int(state.point_positive.sum())
        n_neg0 = int((~state.point_positive).sum())
        for _ in range(100_000):
            state, rewards, _, events = step(state, rng.integers(0, 6, size=(1, cfg.n_prey)))
            rewards_all.extend(map(float, rewards[0]))
            counts += np.bincount(events.kind, minlength=3)
            pos = np.concatenate([state.prey_pos[0], state.predator.position, state.point_pos[0]])
            if not (np.abs(pos) <= half).all():
                containment_ok = False
                break
            for x0, y0, x1, y1 in cfg.barrier_layout:
                inside = (pos[:, 0] > x0) & (pos[:, 0] < x1) & (pos[:, 1] > y0) & (pos[:, 1] < y1)
                if inside.any():
                    containment_ok = False
            if not containment_ok:
                break
            if (
                state.point_pos.shape != (1, n_pos0 + n_neg0, 2)
                or state.point_positive.sum() != n_pos0
                or (~state.point_positive).sum() != n_neg0
            ):
                conservation_ok = False
                break

        total = math.fsum(rewards_all)
        scaled = 5 * counts[EVENT_POSITIVE] - counts[EVENT_NEGATIVE] - 5 * counts[EVENT_CAUGHT]
        accounting_ok = round(5 * total) == scaled and abs(5 * total - scaled) < 1e-6

        oracle_rng = np.random.default_rng(66)
        lim = cfg.half_side - 0.5
        from predprey.world import visible_prey

        mismatches = 0
        for _ in range(1000):
            # draw order: prey position, prey heading, predator position, predator heading
            probe = make_state(
                cfg,
                prey_specs=[(oracle_rng.uniform(-lim, lim, 2), float(oracle_rng.uniform(0, 360)))],
                predator_spec=(oracle_rng.uniform(-lim, lim, 2), float(oracle_rng.uniform(0, 360))),
            )
            if visible_prey(probe)[0, 0] != brute_force_can_see(probe, 0):
                mismatches += 1

        ok = containment_ok and conservation_ok and accounting_ok and mismatches == 0
        report(
            "100k-step invariants: containment, point conservation, exact reward accounting, vision oracle",
            ok,
            f"events {dict(zip(EVENT_NAMES, counts.tolist()))}, oracle mismatches {mismatches}, {time.time() - t0:.0f}s",
        )


def desk_scenario(predator: bool, seed: int, max_steps: int = 200_000) -> ScenarioConfig:
    return ScenarioConfig(
        scenario_id=2 if predator else 3,
        hyperparams=PpoHyperparams(max_steps=max_steps),
        world=WorldConfig(predator_present=predator),
        seed=seed,
        checkpoint_interval=10_000_000,
    )


@pytest.mark.slow
class TestCriterion7LearningSignal:
    def test_reward_rises_and_entropy_falls_across_seeds(self, tmp_path):
        t0 = time.time()
        results = []
        for seed in range(5):
            _, metrics = run_training(desk_scenario(False, seed), tmp_path / f"s{seed}")
            rows = metrics
            dec = max(1, len(rows) // 10)
            first_r = np.mean([r.cumulative_reward_mean for r in rows[:dec]])
            last_r = np.mean([r.cumulative_reward_mean for r in rows[-dec:]])
            first_h = np.mean([r.entropy for r in rows[:dec]])
            last_h = np.mean([r.entropy for r in rows[-dec:]])
            results.append((last_r > first_r, last_h < first_h, first_r, last_r))
        reward_up = sum(r[0] for r in results)
        entropy_down = sum(r[1] for r in results)
        ok = reward_up >= 4 and entropy_down >= 4
        detail = (
            f"reward up {reward_up}/5, entropy down {entropy_down}/5, "
            + ", ".join(f"{a:.1f}->{b:.1f}" for _, _, a, b in results)
            + f", {time.time() - t0:.0f}s"
        )
        report("200k-step no-predator training: reward rises, entropy falls (>=4 of 5 seeds)", ok, detail)


@pytest.mark.slow
class TestCriterion8ConditionOrdering:
    def test_predator_conditions_order_as_reported(self, tmp_path):
        t0 = time.time()
        ck_wo, _ = run_training(desk_scenario(False, 100), tmp_path / "wo")
        ck_w, _ = run_training(desk_scenario(True, 100), tmp_path / "w")
        world_wo = WorldConfig(predator_present=False)
        world_w = WorldConfig(predator_present=True)

        recs1, _ = evaluate_condition(ck_wo, world_wo, n_runs=20, duration=5000, seed=201)
        recs2, _ = evaluate_condition(ck_w, world_w, n_runs=20, duration=5000, seed=202)
        recs3, _ = evaluate_condition(ck_wo, world_w, n_runs=20, duration=5000, seed=203)

        eff1 = np.array([task_efficiency(r) for r in recs1])
        eff2 = np.array([task_efficiency(r) for r in recs2])
        caught2 = np.array([r.caught_total for r in recs2])
        caught3 = np.array([r.caught_total for r in recs3])

        _, p_eff = scipy.stats.ttest_ind(eff1, eff2, equal_var=False, alternative="greater")
        _, p_caught = scipy.stats.ttest_ind(caught3, caught2, equal_var=False, alternative="greater")
        ok = (
            eff1.mean() > eff2.mean()
            and caught3.mean() > caught2.mean()
            and p_eff < 0.05
            and p_caught < 0.05
        )
        report(
            "trained/tested condition ordering: no-predator beats predator; naive prey caught more",
            ok,
            f"eff {eff1.mean():.0f} vs {eff2.mean():.0f} (p={p_eff:.2g}), "
            f"caught {caught3.mean():.1f} vs {caught2.mean():.1f} (p={p_caught:.2g}), "
            f"{time.time() - t0:.0f}s",
        )


class TestCriterion9Determinism:
    def test_metrics_identical_and_resume_step_identical(self, tmp_path):
        hp = PpoHyperparams(
            batch_size=64, buffer_size=256, time_horizon=16, max_steps=2048, summary_freq=256
        )
        cfg = ScenarioConfig(
            scenario_id=3,
            hyperparams=hp,
            world=WorldConfig(n_prey=2, n_positive_points=4, n_negative_points=4, predator_present=False),
            seed=909,
            hidden_units=16,
            num_layers=1,
            checkpoint_interval=1024,
        )
        run_training(cfg, tmp_path / "a")
        run_training(cfg, tmp_path / "b")
        bytes_equal = (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

        _, tail = run_training(cfg, tmp_path / "resumed", resume_from=tmp_path / "a" / "checkpoint_0000001024.ckpt")
        straight = read_rows(tmp_path / "a" / "metrics.csv", MetricsRow)
        expected_tail = [r for r in straight if r.global_step > 1024]
        resume_equal = tail == expected_tail and (
            tmp_path / "a" / "checkpoint_final.ckpt"
        ).read_bytes() == (tmp_path / "resumed" / "checkpoint_final.ckpt").read_bytes()

        report(
            "byte-identical metrics across reruns; resume replays the interrupted run exactly",
            bytes_equal and resume_equal,
        )
