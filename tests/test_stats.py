import math
import os

import numpy as np
import pytest
import scipy.special
import scipy.stats

import predprey.stats as stats_module
from predprey.errors import InputError, NumericsError, StructuralError
from predprey.net import init_net, read_rows, write_rows
from predprey.stats import (
    ConditionSummary,
    RunRecord,
    StatsRow,
    cohens_d,
    compare,
    evaluate_condition,
    kde_occupancy,
    one_way_anova,
    scott_bandwidth,
    summarize_condition,
    task_efficiency,
    write_grid_pgm,
    write_grid_text,
)
from predprey.ppo import sample_actions
from predprey.seeding import derive_seed
from predprey.trajectory import CSV_HEADER, TrajectoryTable
from predprey.world import EVENT_CAUGHT, EVENT_NEGATIVE, EVENT_POSITIVE, WorldConfig, observe_all, reset, step
from tests_support import HalfWrite, full_erf_kde_grid, one_world_rows


def group_with_moments(mean, sd, n=50):
    """Samples whose mean and sample std match (mean, sd) exactly, up to fp."""
    base = np.arange(n, dtype=np.float64)
    base -= base.mean()
    base /= base.std(ddof=1)
    return mean + sd * base


# (mean, sample std) per variable for each reported condition
EXP1_COND1 = {"pos": (326.88, 34.231), "neg": (320.44, 35.595), "caught": (55.48, 15.931), "eff": (207.312, 33.835)}
EXP1_COND2 = {"pos": (779.4, 57.434), "neg": (706.88, 53.059), "caught": (72.7, 11.784), "eff": (565.324, 53.164)}
EXP2_COND1 = {"eff": (1356.93, 108.803)}
EXP2_COND3 = {"eff": (1273.544, 124.072)}


class TestTaskEfficiency:
    def test_reported_condition_means(self):
        rec = RunRecord(0, 326.88, 320.44, 55.48, 1)
        assert task_efficiency(rec) == pytest.approx(207.312, abs=1e-3)
        rec = RunRecord(0, 1455.18, 491.24, 0.0, 1)
        assert task_efficiency(rec) == pytest.approx(1356.932, abs=1e-3)

    def test_zero_record(self):
        assert task_efficiency(RunRecord(0, 0, 0, 0, 1)) == 0.0

    def test_weights(self):
        assert task_efficiency(RunRecord(0, 10, 5, 2, 1)) == pytest.approx(10 - 1.0 - 2.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(InputError):
            RunRecord(0, -1, 0, 0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_totals_rejected(self, bad):
        for totals in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
            with pytest.raises(InputError, match="finite"):
                RunRecord(0, *totals, 1)


class TestAnova:
    def test_identical_groups_give_zero_f(self):
        g = np.array([1.0, 2.0, 3.0, 4.0])
        res = one_way_anova([g, g.copy()])
        assert res.f_score == 0.0
        assert res.df_between == 1 and res.df_within == 6

    def test_reported_f_for_task_efficiency(self):
        g1 = group_with_moments(*EXP1_COND1["eff"])
        g2 = group_with_moments(*EXP1_COND2["eff"])
        res = one_way_anova([g1, g2])
        assert res.f_score == pytest.approx(1613.742, rel=0.005)
        assert res.p_value < 1e-10

    def test_matches_scipy_oracle_on_random_groups(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            groups = [rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=int(rng.integers(3, 40))) for _ in range(k)]
            res = one_way_anova(groups)
            ref_f, ref_p = scipy.stats.f_oneway(*groups)
            assert res.f_score == pytest.approx(ref_f, rel=1e-9)
            assert res.p_value == pytest.approx(ref_p, rel=1e-7, abs=1e-12)

    def test_p_value_from_f_distribution(self):
        rng = np.random.default_rng(18)
        g1, g2 = rng.normal(0, 1, 30), rng.normal(0.5, 1, 30)
        res = one_way_anova([g1, g2])
        assert res.p_value == pytest.approx(
            scipy.stats.f.sf(res.f_score, res.df_between, res.df_within), rel=1e-9
        )

    def test_zero_within_variance_flagged_infinite(self):
        res = one_way_anova([np.array([1.0, 1.0]), np.array([2.0, 2.0])])
        assert math.isinf(res.f_score) and res.p_value == 0.0

    def test_two_group_f_equals_t_squared(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            g1 = rng.normal(0, 1, size=25)
            g2 = rng.normal(0.4, 1.5, size=25)
            res = one_way_anova([g1, g2])
            t, _ = scipy.stats.ttest_ind(g1, g2, equal_var=True)
            assert res.f_score == pytest.approx(t**2, rel=1e-9)

    def test_needs_two_groups(self):
        with pytest.raises(InputError):
            one_way_anova([np.array([1.0, 2.0])])


class TestCohensD:
    def test_reported_effect_sizes_experiment_one(self):
        expected = {"eff": -8.034, "pos": -9.571, "neg": -8.553, "caught": -1.228}
        for var, want in expected.items():
            g1 = group_with_moments(*EXP1_COND1[var])
            g2 = group_with_moments(*EXP1_COND2[var])
            assert cohens_d(g1, g2) == pytest.approx(want, rel=0.01), var

    def test_reported_effect_sizes_experiment_two(self):
        pairs = {
            (1, 3): 0.714,
            (2, 3): -7.420,
            (1, 2): 9.244,
        }
        groups = {
            1: group_with_moments(*EXP2_COND1["eff"]),
            2: group_with_moments(*EXP1_COND2["eff"]),
            3: group_with_moments(*EXP2_COND3["eff"]),
        }
        for (a, b), want in pairs.items():
            assert cohens_d(groups[a], groups[b]) == pytest.approx(want, rel=0.01), (a, b)

    def test_identical_groups_give_zero(self):
        g = np.array([3.0, 4.0, 5.0])
        assert cohens_d(g, g.copy()) == 0.0

    def test_sign_antisymmetry(self):
        rng = np.random.default_rng(20)
        g1, g2 = rng.normal(0, 1, 20), rng.normal(1, 2, 20)
        assert cohens_d(g1, g2) == pytest.approx(-cohens_d(g2, g1), rel=1e-12)

    def test_f_equals_d_squared_times_half_n(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            g1 = rng.normal(0, 1, size=n)
            g2 = rng.normal(0.7, 1.3, size=n)
            d = cohens_d(g1, g2)
            f = one_way_anova([g1, g2]).f_score
            assert f == pytest.approx(d * d * n / 2.0, rel=1e-6)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(22)
        g1, g2 = rng.normal(2, 1, 30), rng.normal(3, 2, 30)
        for c in (0.5, 3.0, 1e4):
            assert cohens_d(c * g1, c * g2) == pytest.approx(cohens_d(g1, g2), rel=1e-9)
            assert one_way_anova([c * g1, c * g2]).f_score == pytest.approx(
                one_way_anova([g1, g2]).f_score, rel=1e-9
            )

    def test_zero_spread_is_nan(self):
        assert math.isnan(cohens_d(np.array([1.0, 1.0]), np.array([1.0, 1.0])))


def eval_world(predator=True):
    return WorldConfig(
        n_prey=2, n_positive_points=4, n_negative_points=4, predator_present=predator
    )


class TestEvaluateCondition:
    def make_net(self, cfg, seed=0):
        return init_net(cfg.obs_dim, 6, hidden_units=16, num_layers=1, seed=seed)

    def test_n_runs_records(self):
        cfg = eval_world()
        records, _ = evaluate_condition(self.make_net(cfg), cfg, n_runs=3, duration=30, seed=1)
        assert [r.run_id for r in records] == [0, 1, 2]
        assert all(r.duration_steps == 30 for r in records)

    def test_no_predator_means_no_catches(self):
        cfg = eval_world(predator=False)
        records, _ = evaluate_condition(self.make_net(cfg), cfg, n_runs=3, duration=50, seed=2)
        assert all(r.caught_total == 0 for r in records)

    def test_deterministic_given_seed(self):
        cfg = eval_world()
        net = self.make_net(cfg)
        a, _ = evaluate_condition(net, cfg, n_runs=2, duration=40, seed=3)
        b, _ = evaluate_condition(net, cfg, n_runs=2, duration=40, seed=3)
        assert a == b

    def test_obs_dim_mismatch(self):
        cfg = eval_world()
        bad_net = init_net(13, 6, hidden_units=4, num_layers=1, seed=0)
        with pytest.raises(StructuralError):
            evaluate_condition(bad_net, cfg, n_runs=1, duration=5, seed=0)

    def test_trajectory_log_written(self, tmp_path):
        cfg = eval_world()
        path = tmp_path / "traj.csv"
        evaluate_condition(
            self.make_net(cfg), cfg, n_runs=2, duration=10, seed=4, trajectory_path=path
        )
        table = TrajectoryTable.from_csv(path)
        assert set(table.runs()) == {0, 1}
        # prey + predator rows, every tick of every run
        assert len(table) == 2 * 10 * (cfg.n_prey + 1)

    def test_interrupted_eval_keeps_previous_trajectory(self, tmp_path, monkeypatch):
        cfg = eval_world()
        path = tmp_path / "trajectory.csv"
        evaluate_condition(self.make_net(cfg), cfg, n_runs=3, duration=5, seed=4, trajectory_path=path)
        before = path.read_bytes()
        real_step = stats_module.step
        ticks = []

        def step_then_fail(state, actions):
            ticks.append(len(ticks))
            if len(ticks) > 20:
                raise KeyboardInterrupt
            return real_step(state, actions)

        monkeypatch.setattr(stats_module, "step", step_then_fail)
        with pytest.raises(KeyboardInterrupt):
            evaluate_condition(self.make_net(cfg), cfg, n_runs=3, duration=50, seed=5, trajectory_path=path)
        assert len(ticks) == 21
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["trajectory.csv"]

    def test_greedy_mode_runs(self):
        cfg = eval_world(predator=False)
        records, _ = evaluate_condition(
            self.make_net(cfg), cfg, n_runs=1, duration=20, seed=5, greedy=True
        )
        assert len(records) == 1

    def test_records_roundtrip_csv(self, tmp_path):
        cfg = eval_world()
        records, _ = evaluate_condition(self.make_net(cfg), cfg, n_runs=3, duration=15, seed=6)
        path = tmp_path / "records.csv"
        write_rows(path, RunRecord, records)
        assert read_rows(path, RunRecord) == records


def one_run_oracle(net, cfg, seed, run, duration, greedy) -> tuple[RunRecord, str]:
    """A run alone: one world reset from the run's derived seed, its uniforms drawn one tick at a time.

    Returns the run's record and its trajectory rows.
    """
    state = reset(cfg, derive_seed(seed, stats_module._TAG_EVAL_WORLD, run))
    rng = np.random.default_rng(derive_seed(seed, stats_module._TAG_EVAL_ACTIONS, run))
    obs = observe_all(state)
    counts = {EVENT_POSITIVE: 0, EVENT_NEGATIVE: 0, EVENT_CAUGHT: 0}
    rows = []
    for tick in range(duration):
        u = None if greedy else rng.random(cfg.n_prey)[None]
        actions, _, _ = sample_actions(net, obs, u)
        state, _, obs, events = step(state, actions)
        for ev in events:
            counts[ev.kind] += 1
        rows.append(one_world_rows(run, tick, state, events, world=0, kinds=("prey", "predator")))
    record = RunRecord(run, counts[EVENT_POSITIVE], counts[EVENT_NEGATIVE], counts[EVENT_CAUGHT], duration)
    return record, "".join(rows)


class TestLockstepEval:
    # uniforms are drawn 64 ticks at a time: durations within one draw, exactly one, one and a tick, and into a third
    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("duration", [1, 64, 65, 130])
    def test_each_run_is_the_run_it_would_be_alone(self, duration, greedy, tmp_path):
        # a small arena without barriers, so that pickups and catches happen within a few ticks
        cfg = WorldConfig(arena_side=6.0, barrier_layout=(), n_prey=2, n_positive_points=5, n_negative_points=5)
        net = init_net(cfg.obs_dim, 6, hidden_units=16, num_layers=1, seed=8)
        path = tmp_path / "trajectory.csv"
        records, _ = evaluate_condition(net, cfg, n_runs=3, duration=duration, greedy=greedy, seed=9, trajectory_path=path)
        oracle = [one_run_oracle(net, cfg, 9, run, duration, greedy) for run in range(3)]
        assert records == [record for record, _ in oracle]
        header = ",".join(CSV_HEADER) + "\r\n"
        assert path.read_bytes() == (header + "".join(rows for _, rows in oracle)).encode()


class TestRunRecordConsistency:
    def test_task_efficiency_equals_summed_env_reward(self):
        # the run score weights are exactly the environment's reward values
        import math as m

        from predprey.ppo import sample_actions
        from predprey.world import observe_all, reset, step

        cfg = eval_world()
        net = init_net(cfg.obs_dim, 6, hidden_units=16, num_layers=1, seed=1)
        state = reset(cfg, 71)
        rng = np.random.default_rng(71)
        obs = observe_all(state)
        rewards_all = []
        counts = {"positive_collected": 0, "negative_collected": 0, "prey_caught": 0}
        for _ in range(300):
            actions, _, _ = sample_actions(net, obs, rng.random(obs.shape[:-1]))
            state, rewards, obs, events = step(state, actions)
            rewards_all.extend(map(float, rewards[0]))
            for e in events:
                counts[e.kind] += 1
        rec = RunRecord(
            0, counts["positive_collected"], counts["negative_collected"],
            counts["prey_caught"], 300,
        )
        eff = task_efficiency(rec)
        total = m.fsum(rewards_all)
        assert round(5 * eff) == round(5 * total)
        assert abs(eff - total) < 1e-9


class TestSummaries:
    def test_summary_moments(self):
        records = [RunRecord(i, 10 + i, 4, 1, 100) for i in range(4)]
        s = summarize_condition("c", records)
        assert s.n_runs == 4
        assert s.pos_mean == pytest.approx(11.5)
        assert s.pos_std == pytest.approx(np.std([10, 11, 12, 13], ddof=1))
        effs = [task_efficiency(r) for r in records]
        assert s.task_efficiency_mean == pytest.approx(np.mean(effs))
        assert s.task_efficiency_std == pytest.approx(np.std(effs, ddof=1))


def scaled_records(k):
    return [RunRecord(i, k * (10 + i), 4, 1, 100) for i in range(4)]


# Each CSV writer, writing rows that depend on k.
CSV_WRITERS = {
    "run_records": lambda path, k: write_rows(path, RunRecord, scaled_records(k)),
    "summary": lambda path, k: write_rows(path, ConditionSummary, [summarize_condition("c", scaled_records(k))]),
    "stats": lambda path, k: write_rows(path, StatsRow, [compare("a_vs_b", k * np.arange(5.0), np.arange(5.0) + 2.0)]),
}


class TestAtomicCsv:
    @pytest.mark.parametrize("kind", sorted(CSV_WRITERS))
    def test_failed_write_keeps_previous_file(self, kind, tmp_path, monkeypatch):
        import predprey.net as net_module

        path = tmp_path / "out.csv"
        CSV_WRITERS[kind](path, 1.0)
        before = path.read_bytes()
        monkeypatch.setattr(net_module, "open", HalfWrite, raising=False)
        with pytest.raises(OSError):
            CSV_WRITERS[kind](path, 2.0)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def grid_kde(k):
    """A small KDE grid whose values depend on k."""
    rng = np.random.default_rng(35)
    return kde_occupancy(rng.uniform(-1, 1, size=(50, 2)), "prey", bandwidth=0.1 * k, grid_dims=(8, 6), extent=(-1, 1, -1, 1))


GRID_WRITERS = {
    "grid_text": lambda path, k: write_grid_text(grid_kde(k), path),
    "grid_pgm": lambda path, k: write_grid_pgm(grid_kde(k), path),
}


class TestAtomicGrids:
    @pytest.mark.parametrize("kind", sorted(GRID_WRITERS))
    def test_failed_write_keeps_previous_file(self, kind, tmp_path, monkeypatch):
        import predprey.net as net_module

        path = tmp_path / "grid.out"
        GRID_WRITERS[kind](path, 1.0)
        before = path.read_bytes()
        monkeypatch.setattr(net_module, "open", HalfWrite, raising=False)
        with pytest.raises(OSError):
            GRID_WRITERS[kind](path, 2.0)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["grid.out"]


class TestErfSaturation:
    def test_scipy_erf_is_exactly_one_from_the_bound_on(self):
        # the premise of _half_cdf: every |z| >= _ERF_SATURATED gives exactly +-1.0
        z = np.concatenate(
            [np.linspace(stats_module._ERF_SATURATED, 40.0, 2_000_001), np.geomspace(40.0, 1e308, 1001), [np.inf]]
        )
        assert np.all(scipy.special.erf(z) == 1.0)
        assert np.all(scipy.special.erf(-z) == -1.0)

    def test_helper_matches_erf_bitwise(self):
        rng = np.random.default_rng(36)
        z = np.concatenate([rng.normal(0.0, 8.0, size=100_000), [0.0, -0.0, 6.0, -6.0, np.nextafter(6.0, 0.0), 1e300]])
        z = np.concatenate([z, -z]).reshape(2, -1)
        assert stats_module._half_cdf(z.copy()).tobytes() == (0.5 * (1.0 + scipy.special.erf(z))).tobytes()


def kde_cases():
    """(positions, bandwidth, extent) per case: edges, near edges, outside, tiny and huge bandwidths, chunk sizes."""
    rng = np.random.default_rng(37)
    extent = (-2.0, 3.0, -1.5, 1.5)
    edges = np.array([[-2.0, -1.5], [3.0, 1.5], [-2.0, 1.5], [3.0, -1.5], [0.5, -1.5], [-2.0, 0.0]])
    near = np.nextafter(edges, np.array([0.5, 0.0]))
    outside = np.array([[-2.3, 0.0], [3.4, 1.0], [0.0, -1.9], [3.2, 1.7]])
    cases = [
        ("edges", edges, 0.3),
        ("near_edges", near, 0.3),
        ("outside", outside, 0.5),
        ("edges_tiny_bandwidth", np.vstack([edges, near]), 1e-9),
        ("huge_bandwidth", rng.uniform(-2.0, 3.0, size=(40, 2)), 1e6),
        ("outside_tiny_bandwidth", outside, 1e-3),
        # one chunk holds rows whose reflections saturate at the first edge, at the last edge, or neither
        ("rows_saturated_at_either_end", rng.uniform((-2.5, -2.0), (3.5, 2.0), size=(1500, 2)), 0.05),
    ]
    for n in (1, 1023, 1024, 1025):
        cases.append((f"n{n}", rng.uniform((-2.5, -2.0), (3.5, 2.0), size=(n, 2)), 0.4))
    return [pytest.param(pos, bw, extent, id=label) for label, pos, bw in cases]


class TestKdeMatchesFullErfOracle:
    @pytest.mark.parametrize("positions, bandwidth, extent", kde_cases())
    def test_grid_bits(self, positions, bandwidth, extent):
        kde = kde_occupancy(positions, "prey", bandwidth=bandwidth, grid_dims=(24, 16), extent=extent)
        assert kde.grid.tobytes() == full_erf_kde_grid(positions, bandwidth, (24, 16), extent).tobytes()

    def test_default_bandwidth_and_extent(self):
        pos = np.random.default_rng(38).normal(size=(700, 2))
        kde = kde_occupancy(pos, "prey")
        assert kde.grid.tobytes() == full_erf_kde_grid(pos, kde.bandwidth, (64, 64), kde.extent).tobytes()

    def test_sample_without_mass_in_the_grid(self):
        pos = np.array([[0.0, 0.0], [50.0, 0.0]])
        with pytest.raises(ZeroDivisionError):
            full_erf_kde_grid(pos, 0.1, (8, 8), (-1, 1, -1, 1))
        with pytest.raises(NumericsError):
            kde_occupancy(pos, "prey", bandwidth=0.1, grid_dims=(8, 8), extent=(-1, 1, -1, 1))


class TestKdeRejectsNonFinite:
    @pytest.mark.parametrize(
        "positions, bandwidth, extent",
        [
            ([[0.0, 0.0], [np.nan, 0.5]], 0.5, (-1, 1, -1, 1)),
            ([[0.0, 0.0], [0.5, np.inf]], 0.5, (-1, 1, -1, 1)),
            ([[0.0, 0.0], [0.5, 0.5]], np.nan, (-1, 1, -1, 1)),
            ([[0.0, 0.0], [0.5, 0.5]], np.inf, (-1, 1, -1, 1)),
            ([[0.0, 0.0], [0.5, 0.5]], 0.5, (-np.inf, 1, -1, 1)),
            ([[0.0, 0.0], [0.5, 0.5]], 0.5, (-1, 1, -1, np.nan)),
            ([[np.nan, 0.0], [0.5, 0.5]], None, None),
        ],
    )
    def test_input_error_before_any_erf(self, monkeypatch, positions, bandwidth, extent):
        def no_erf(z):
            raise AssertionError("erf ran on a rejected input")

        monkeypatch.setattr(stats_module, "erf", no_erf)
        with pytest.raises(InputError):
            kde_occupancy(np.array(positions), "prey", bandwidth=bandwidth, grid_dims=(8, 8), extent=extent)


class TestKde:
    def test_single_point_peaks_at_its_cell(self):
        pos = np.tile(np.array([[1.0, 1.0]]), (5, 1))
        kde = kde_occupancy(pos, "prey", bandwidth=0.05, grid_dims=(32, 32), extent=(0, 2, 0, 2))
        ix, iy = np.unravel_index(np.argmax(kde.grid), kde.grid.shape)
        assert abs((ix + 0.5) * (2 / 32) - 1.0) < 2 / 32
        assert abs((iy + 0.5) * (2 / 32) - 1.0) < 2 / 32

    def test_two_clusters_two_maxima(self):
        rng = np.random.default_rng(30)
        a = rng.normal((-2.0, -2.0), 0.1, size=(300, 2))
        b = rng.normal((2.0, 2.0), 0.1, size=(300, 2))
        kde = kde_occupancy(
            np.vstack([a, b]), "prey", bandwidth=0.3, grid_dims=(40, 40), extent=(-4, 4, -4, 4)
        )
        w = kde.grid.shape[0]
        lo = kde.grid[: w // 2, : w // 2]
        hi = kde.grid[w // 2 :, w // 2 :]
        assert lo.max() > 10 * kde.grid[: w // 2, w // 2 :].max()
        assert hi.max() > 10 * kde.grid[w // 2 :, : w // 2].max()

    def test_mass_normalization(self):
        rng = np.random.default_rng(31)
        pos = rng.uniform(-3, 3, size=(777, 2))
        kde = kde_occupancy(pos, "prey", bandwidth=1.5, grid_dims=(48, 48), extent=(-3, 3, -3, 3))
        total = kde.grid.sum() * kde.cell_area
        assert total == pytest.approx(777.0, rel=1e-6)

    def test_uniform_positions_are_flat(self):
        rng = np.random.default_rng(32)
        pos = rng.uniform(-5, 5, size=(20000, 2))
        kde = kde_occupancy(pos, "prey", bandwidth=2.0, grid_dims=(32, 32), extent=(-5, 5, -5, 5))
        assert kde.grid.max() / kde.grid.min() < 2.0

    @pytest.mark.parametrize("grid_dims", [(0, 4), (4, 0), (-1, 5)])
    def test_grid_below_one_cell_rejected(self, grid_dims):
        with pytest.raises(InputError, match="grid needs W and H of at least 1"):
            kde_occupancy(np.zeros((3, 2)), "prey", bandwidth=0.5, grid_dims=grid_dims, extent=(-1, 1, -1, 1))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            kde_occupancy(np.zeros((0, 2)), "prey", bandwidth=1.0)

    def test_scott_default(self):
        rng = np.random.default_rng(33)
        pos = rng.normal(size=(500, 2))
        kde = kde_occupancy(pos, "prey")
        assert kde.bandwidth == pytest.approx(scott_bandwidth(pos))
        assert kde.bandwidth > 0

    def test_writers(self, tmp_path):
        rng = np.random.default_rng(34)
        kde = kde_occupancy(
            rng.uniform(-1, 1, size=(100, 2)), "prey", bandwidth=0.4,
            grid_dims=(16, 12), extent=(-1, 1, -1, 1),
        )
        write_grid_text(kde, tmp_path / "grid.txt")
        loaded = np.loadtxt(tmp_path / "grid.txt")
        assert loaded.shape == (16, 12)
        assert np.allclose(loaded, kde.grid)
        write_grid_pgm(kde, tmp_path / "grid.pgm")
        lines = (tmp_path / "grid.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "16 12"
        assert lines[2] == "255"
        values = [int(v) for row in lines[3:] for v in row.split()]
        assert len(values) == 16 * 12 and max(values) == 255
