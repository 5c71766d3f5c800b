from dataclasses import replace

import pytest

import predprey.world as world_module
from predprey.configio import parse_scenario_config
from predprey.errors import CheckpointError, ConfigError, StructuralError
from predprey.net import AdamState, init_net, load_checkpoint, read_rows, save_checkpoint
from predprey.ppo import PpoHyperparams
from predprey.train import (
    SCENARIO_TABLE,
    MetricsRow,
    ScenarioConfig,
    run_training,
    scenario_defaults,
    steps_per_cycle,
)
from predprey.world import WorldConfig


def tiny_config(seed=0, predator=False, max_steps=1024, **kwargs):
    hp = PpoHyperparams(
        batch_size=64,
        buffer_size=256,
        time_horizon=16,
        max_steps=max_steps,
        summary_freq=256,
    )
    world = WorldConfig(n_prey=2, n_positive_points=4, n_negative_points=4)
    defaults = dict(
        scenario_id=3,
        hyperparams=hp,
        world=world,
        seed=seed,
        hidden_units=16,
        num_layers=1,
        checkpoint_interval=512,
    )
    defaults.update(kwargs)
    defaults["world"] = replace(defaults["world"], predator_present=predator)  # `predator` decides, whatever world
    return ScenarioConfig(**defaults)


class TestScenarios:
    def test_table(self):
        assert SCENARIO_TABLE == {1: (580_000, True), 2: (1_000_000, True), 3: (1_000_000, False)}
        one = scenario_defaults(1)
        assert one.max_steps == 580_000 and one.world.predator_present
        three = scenario_defaults(3)
        assert three.max_steps == 1_000_000 and not three.world.predator_present
        assert three == ScenarioConfig()

    def test_scenarios_differ_only_in_steps_and_predator(self):
        cfgs = {i: scenario_defaults(i) for i in (1, 2, 3)}
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                ca, cb = cfgs[a], cfgs[b]
                assert ca.world.predator_present == SCENARIO_TABLE[a][1]
                assert replace(ca.world, predator_present=False) == replace(cb.world, predator_present=False)
                assert ca.seed == cb.seed
                assert (ca.hidden_units, ca.num_layers) == (cb.hidden_units, cb.num_layers)
                assert replace(ca.hyperparams, max_steps=1) == replace(cb.hyperparams, max_steps=1)

    def test_invalid_scenario_id(self):
        with pytest.raises(ConfigError):
            scenario_defaults(4)


class TestRunTraining:
    def test_stops_at_or_past_max_steps(self, tmp_path):
        cfg = tiny_config(max_steps=1000)
        _, metrics = run_training(cfg, tmp_path)
        cycle = steps_per_cycle(cfg)
        assert metrics[-1].global_step >= 1000 - cfg.hyperparams.summary_freq
        final_step = load_checkpoint(tmp_path / "checkpoint_final.ckpt")[3]
        assert final_step >= 1000
        assert final_step % cycle == 0

    def test_scenario3_trains_without_predator(self, tmp_path):
        cfg = tiny_config(predator=False, max_steps=512)
        run_training(cfg, tmp_path)  # would raise inside reset if predator logic ran

    def test_metrics_cadence_and_monotonicity(self, tmp_path):
        cfg = tiny_config(max_steps=4096)
        _, metrics = run_training(cfg, tmp_path)
        steps = [r.global_step for r in metrics]
        freq = cfg.hyperparams.summary_freq
        assert all(b - a == freq for a, b in zip(steps, steps[1:]))
        assert all(s % freq == 0 for s in steps)
        assert abs(len(metrics) - 4096 // freq) <= 1

    def test_metrics_csv_identical_across_runs(self, tmp_path):
        cfg = tiny_config(seed=5, max_steps=2048)
        run_training(cfg, tmp_path / "a")
        run_training(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_metrics_roundtrip_csv(self, tmp_path):
        cfg = tiny_config(max_steps=1024)
        _, metrics = run_training(cfg, tmp_path)
        loaded = read_rows(tmp_path / "metrics.csv", MetricsRow)
        assert loaded == metrics

    def test_predator_training_smoke(self, tmp_path):
        cfg = tiny_config(predator=True, max_steps=512)
        _, metrics = run_training(cfg, tmp_path)
        assert metrics  # ran and logged

    def test_config_file_can_train_scenario_one_without_predator(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "scenario_id = 1\npredator_present = false\nn_prey = 2\nn_positive_points = 4\n"
            "n_negative_points = 4\nbatch_size = 64\nbuffer_size = 256\ntime_horizon = 16\n"
            "max_steps = 256\nhidden_units = 8\nnum_layers = 1\n"
        )
        cfg, _ = parse_scenario_config(path)

        def no_predator_step(state):
            raise AssertionError("predator_step called in a world without a predator")

        monkeypatch.setattr(world_module, "predator_step", no_predator_step)
        run_training(cfg, tmp_path / "out")


class TestResume:
    @pytest.mark.parametrize("hidden_units", [16, 96])  # below and above the observation width
    def test_resume_equals_straight_run(self, tmp_path, hidden_units):
        # interrupt-and-resume means continuing the SAME config from one of
        # its own interval checkpoints; the remainder must replay exactly
        cfg = tiny_config(seed=9, max_steps=2048, checkpoint_interval=1024, hidden_units=hidden_units)
        _, straight = run_training(cfg, tmp_path / "full")
        mid = tmp_path / "full" / "checkpoint_0000001024.ckpt"
        assert mid.exists()

        _, tail = run_training(cfg, tmp_path / "resumed", resume_from=mid)
        expected_tail = [r for r in straight if r.global_step > 1024]
        assert tail == expected_tail

        # final checkpoints byte-identical
        assert (tmp_path / "full" / "checkpoint_final.ckpt").read_bytes() == (
            tmp_path / "resumed" / "checkpoint_final.ckpt"
        ).read_bytes()

    def test_resume_into_own_directory_keeps_metrics_history(self, tmp_path):
        # rows past the checkpoint are logged again, rows up to it are kept
        cfg = tiny_config(seed=9, max_steps=1024, checkpoint_interval=512)
        run_training(cfg, tmp_path)
        straight = (tmp_path / "metrics.csv").read_bytes()
        assert len(read_rows(tmp_path / "metrics.csv", MetricsRow)) == 4
        _, metrics = run_training(cfg, tmp_path, resume_from=tmp_path / "checkpoint_0000000512.ckpt")
        assert (tmp_path / "metrics.csv").read_bytes() == straight
        assert metrics == read_rows(tmp_path / "metrics.csv", MetricsRow)

    def test_interval_checkpoints_written(self, tmp_path):
        cfg = tiny_config(max_steps=2048, checkpoint_interval=512)
        run_training(cfg, tmp_path)
        intermediates = sorted(tmp_path.glob("checkpoint_0*.ckpt"))
        assert len(intermediates) >= 2

    def test_resume_from_corrupted_checkpoint_fails_cleanly(self, tmp_path):
        cfg = tiny_config(max_steps=1024)
        run_training(cfg, tmp_path)
        path = tmp_path / "checkpoint_final.ckpt"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            run_training(tiny_config(max_steps=2048), tmp_path / "resume", resume_from=path)

    def test_resume_rejects_mismatched_world(self, tmp_path):
        net = init_net(13, 6, hidden_units=4, num_layers=1, seed=0)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, net, AdamState.for_net(net), 0, 0)
        with pytest.raises(StructuralError):
            run_training(tiny_config(max_steps=512), tmp_path / "out", resume_from=path)


class TestLearningSmoke:
    def test_reward_improves_without_predator(self, tmp_path):
        # dense positives, no predator: the last summary must beat the first
        hp = PpoHyperparams(
            batch_size=256,
            buffer_size=1024,
            time_horizon=32,
            learning_rate=1e-3,
            max_steps=20_000,
            summary_freq=1024,
        )
        world = WorldConfig(
            n_prey=4, n_positive_points=16, n_negative_points=4, predator_present=False
        )
        cfg = ScenarioConfig(
            scenario_id=3,
            hyperparams=hp,
            world=world,
            seed=11,
            hidden_units=64,
            num_layers=2,
            checkpoint_interval=100_000,
        )
        _, metrics = run_training(cfg, tmp_path)
        assert metrics[-1].cumulative_reward_mean > metrics[0].cumulative_reward_mean
