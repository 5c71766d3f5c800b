import math

import numpy as np
import pytest

import predprey.world as world_module
from predprey.errors import ConfigError, ContractViolation, InputError, StructuralError
from tests_support import bodies, branch_sizes, brute_force_can_see, make_state, stack_worlds, state_digest

from predprey.world import (
    EVENT_CAUGHT,
    EVENT_NEGATIVE,
    EVENT_POSITIVE,
    HIT_NEGATIVE,
    HIT_NOTHING,
    HIT_POSITIVE,
    HIT_PREDATOR,
    HIT_PREY,
    HIT_WALL,
    N_HIT_KINDS,
    WorldConfig,
    _circles,
    _raycast_rows,
    observation_matrix,
    observe_all,
    pack_observations,
    predator_step,
    prey_action_space,
    reset,
    reset_world,
    split_observations,
    step,
    visible_prey,
)


def rays(state, prey):
    """One prey's (hit one-hot, normalized distance) per ray, from the batched ray cast of world 0."""
    onehot, distance = _raycast_rows(state)
    return onehot[0, prey], distance[0, prey]


def inside_barrier(pos, cfg) -> bool:
    return any(x0 < pos[0] < x1 and y0 < pos[1] < y1 for x0, y0, x1, y1 in cfg.barrier_layout)


class TestConfig:
    def test_defaults_validate(self):
        cfg = WorldConfig()
        assert cfg.obs_dim == 79
        assert cfg.half_side == pytest.approx(5.11)

    def test_barrier_outside_arena_rejected(self):
        with pytest.raises(ConfigError):
            WorldConfig(barrier_layout=((-6.0, 0.0, -5.5, 1.0),))

    def test_barrier_touching_wall_margin_rejected(self):
        with pytest.raises(ConfigError):
            WorldConfig(barrier_layout=((4.5, -1.0, 5.05, 1.0),))

    def test_negative_speed_rejected(self):
        with pytest.raises(ConfigError):
            WorldConfig(prey_move_speed=-2.0)

    @pytest.mark.parametrize("name", ["tick_dt", "arena_side", "prey_move_speed", "point_radius", "ray_fov_degrees"])
    def test_non_finite_rejected(self, name):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=name):
                WorldConfig(**{name: value})

    def test_view_angle_range(self):
        with pytest.raises(ConfigError):
            WorldConfig(predator_view_angle=0.0)
        WorldConfig(predator_view_angle=360.0)


class TestActionSpace:
    def test_branch_sizes(self):
        assert branch_sizes(prey_action_space()) == (2, 3)

    def test_forward_left_joint_index(self):
        assert prey_action_space().encode(1, 1) == 4

    def test_all_joint_actions_roundtrip(self):
        space = prey_action_space()
        seen = set()
        for joint in range(space.n_joint):
            move, turn = space.decode(joint)
            assert space.encode(move, turn) == joint
            seen.add((move, turn))
        assert len(seen) == 6


class TestReset:
    def test_same_seed_bit_identical(self):
        cfg = WorldConfig()
        assert state_digest(reset(cfg, 99)) == state_digest(reset(cfg, 99))

    def test_different_seed_differs(self):
        cfg = WorldConfig()
        assert state_digest(reset(cfg, 1)) != state_digest(reset(cfg, 2))

    def test_no_predator_config(self):
        state = reset(WorldConfig(predator_present=False), 0)
        assert state.predator is None

    def test_placements_respect_barriers_and_walls(self):
        # 10k-seed sweep: zero entities inside barriers or through walls
        cfg = WorldConfig()
        for seed in range(10_000):
            state = reset(cfg, seed)
            assert state.predator is not None
            for pos, radius in bodies(state):
                assert not inside_barrier(pos, cfg)
                assert np.all(np.abs(pos) <= cfg.half_side - radius + 1e-12)

    def test_placements_do_not_overlap(self):
        cfg = WorldConfig()
        state = reset(cfg, 5)
        entities = bodies(state)
        assert len(entities) == cfg.n_prey + 1 + 20
        for i in range(len(entities)):
            for j in range(i + 1, len(entities)):
                d = np.hypot(*(entities[i][0] - entities[j][0]))
                assert d >= entities[i][1] + entities[j][1] - 1e-12

    def test_impossible_arena_raises(self):
        cfg = WorldConfig(arena_side=2.2, n_prey=40, barrier_layout=())
        with pytest.raises(ConfigError):
            reset(cfg, 0)

    def test_point_counts(self):
        state = reset(WorldConfig(), 3)
        assert state.point_pos.shape == (1, 20, 2)
        assert state.point_positive.sum() == 10 and (~state.point_positive).sum() == 10

    def test_seed_list_gives_one_world_per_seed(self):
        cfg = WorldConfig()
        state = reset(cfg, [4, 9, 4])
        assert state.n_worlds == 3 and state.prey_pos.shape == (3, cfg.n_prey, 2)
        for w, seed in enumerate([4, 9, 4]):
            assert state_digest(state, w) == state_digest(reset(cfg, seed))

    def test_reset_world_redraws_one_world_in_place(self):
        cfg = WorldConfig()
        state = reset(cfg, [1, 2])
        step(state, np.zeros((2, cfg.n_prey), dtype=int))
        other = state_digest(state, 1)
        reset_world(state, 0, 7)
        assert state_digest(state, 0) == state_digest(reset(cfg, 7))
        assert state_digest(state, 1) == other


class TestStep:
    def test_noop_actions_keep_positions(self):
        cfg = WorldConfig(predator_present=False)
        state = reset(cfg, 11)
        before = state.prey_pos.copy()
        state, rewards, _, events = step(state, [[0] * cfg.n_prey])
        if events:  # a prey may have spawned on a point; rerole is fine
            pytest.skip("spawn happened to overlap a point")
        assert np.all(rewards == 0.0)
        assert np.array_equal(state.prey_pos, before)

    def test_noop_actions_with_predator_only_predator_moves(self):
        cfg = WorldConfig()
        state = reset(cfg, 13)
        before = state.prey_pos.copy()
        pred_before = state.predator.position.copy()
        state, _, _, events = step(state, [[0] * cfg.n_prey])
        caught = {e.prey_id for e in events if e.kind == EVENT_CAUGHT}
        for i, old in enumerate(before[0]):
            if i not in caught:
                assert np.array_equal(state.prey_pos[0, i], old)
        assert not np.array_equal(state.predator.position, pred_before)

    def test_prey_on_positive_point_collects_and_respawns(self):
        cfg = WorldConfig(predator_present=False)
        state = make_state(
            cfg,
            prey_specs=[((0.0, 0.0), 0.0)],
            points=[((0.1, 0.0), "positive")],
        )
        state, rewards, _, events = step(state, [[0]])
        assert rewards[0, 0] == pytest.approx(1.0)
        assert [e.kind for e in events] == [EVENT_POSITIVE]
        assert events[0].tick == 0 and events[0].prey_id == 0 and events[0].world == 0
        assert np.hypot(*(state.point_pos[0, 0] - np.array([0.1, 0.0]))) > 1e-9
        assert state.point_positive[0, 0]

    def test_forward_into_negative_point_penalizes(self):
        cfg = WorldConfig(predator_present=False)
        gap = cfg.prey_move_speed * cfg.tick_dt / 2.0  # half a tick's travel
        ahead = cfg.prey_radius + cfg.point_radius + gap
        state = make_state(
            cfg,
            prey_specs=[((0.0, 0.0), 0.0)],
            points=[((ahead, 0.0), "negative")],
        )
        joint_forward = prey_action_space().encode(1, 0)
        state, rewards, _, events = step(state, [[joint_forward]])
        assert rewards[0, 0] == pytest.approx(-0.2)
        assert [e.kind for e in events] == [EVENT_NEGATIVE]

    def test_catch_penalizes_and_teleports(self):
        cfg = WorldConfig(barrier_layout=())
        state = make_state(
            cfg,
            prey_specs=[((3.0, 3.0), 0.0)],
            predator_spec=((3.1, 3.0), 180.0),  # facing the prey: chase closes the gap
        )
        state, rewards, _, events = step(state, [[0]])
        assert rewards[0, 0] == pytest.approx(-1.0)
        assert [e.kind for e in events] == [EVENT_CAUGHT]
        # teleported away from the predator
        d = np.hypot(*(state.prey_pos[0, 0] - state.predator.position[0]))
        assert d > cfg.prey_radius + cfg.predator_radius

    def test_malformed_action_names_prey(self):
        cfg = WorldConfig(predator_present=False, n_prey=2)
        state = reset(cfg, 0)
        with pytest.raises(InputError, match="prey 1"):
            step(state, [[0, 17]])

    @pytest.mark.parametrize("value", [2**64 - 1, 2**63])
    def test_huge_unsigned_action_is_named_as_given(self, value):
        state = reset(WorldConfig(), 0)
        before = state_digest(state)
        with pytest.raises(InputError, match=f"prey 0: action index {value} outside"):
            step(state, np.full((1, 6), value, dtype=np.uint64))
        assert state_digest(state) == before

    @pytest.mark.parametrize("actions", [[[0.5] * 6], [[5.9] * 6], [[True] * 6], [["1"] * 6]])
    def test_non_integer_actions_refused_before_anything_moves(self, actions):
        state = reset(WorldConfig(), 0)
        before = state_digest(state)
        with pytest.raises(InputError, match="integer action indices"):
            step(state, actions)
        assert state_digest(state) == before

    def test_integer_lists_and_arrays_accepted(self):
        state = reset(WorldConfig(), 0)
        step(state, [[0, 1, 2, 3, 4, 5]])
        step(state, np.random.default_rng(0).integers(0, 6, size=(1, 6)))
        assert state.tick[0] == 2

    def test_two_prey_on_one_point_collect_it_once(self, monkeypatch):
        # both pairs are nominated; the first pickup respawns the point, and only the re-check of the second
        # pair against the point's live position keeps prey 1 from collecting it at its new spot as well
        cfg = WorldConfig(predator_present=False)
        state = make_state(
            cfg,
            prey_specs=[((0.0, 0.0), 0.0), ((0.3, 0.0), 180.0)],
            points=[((0.15, 0.0), "positive")],
        )
        respawns = []
        respawn = world_module._respawn_position

        def counted_respawn(*args, **kwargs):
            respawns.append(args[1:])
            return respawn(*args, **kwargs)

        monkeypatch.setattr(world_module, "_respawn_position", counted_respawn)
        state, rewards, _, events = step(state, [[0, 0]])
        assert [(e.kind, e.prey_id) for e in events] == [(EVENT_POSITIVE, 0)]
        assert len(respawns) == 1
        assert rewards.tolist() == [[1.0, 0.0]]
        assert not np.array_equal(state.point_pos[0, 0], [0.15, 0.0])

    def test_wrong_action_count(self):
        state = reset(WorldConfig(), 0)
        with pytest.raises(InputError):
            step(state, [0, 0])

    def test_turn_rates(self):
        cfg = WorldConfig(predator_present=False)
        state = make_state(cfg, prey_specs=[((0.0, 0.0), 90.0)])
        space = prey_action_space()
        per_tick = cfg.prey_turn_speed * cfg.tick_dt
        state, *_ = step(state, [[space.encode(0, 1)]])
        assert state.prey_heading[0, 0] == pytest.approx(90.0 + per_tick)
        state, *_ = step(state, [[space.encode(0, 2)]])
        assert state.prey_heading[0, 0] == pytest.approx(90.0)

    def test_forward_displacement_length(self):
        cfg = WorldConfig(predator_present=False)
        state = make_state(cfg, prey_specs=[((0.0, 0.0), 37.0)])
        state, *_ = step(state, [[prey_action_space().encode(1, 0)]])
        assert np.hypot(*state.prey_pos[0, 0]) == pytest.approx(
            cfg.prey_move_speed * cfg.tick_dt
        )

    def test_wall_blocks_motion(self):
        cfg = WorldConfig(predator_present=False)
        x_edge = cfg.half_side - cfg.prey_radius
        state = make_state(cfg, prey_specs=[((x_edge, 0.0), 0.0)])
        state, *_ = step(state, [[prey_action_space().encode(1, 0)]])
        assert state.prey_pos[0, 0, 0] == pytest.approx(x_edge)

    def test_barrier_blocks_and_slides(self):
        cfg = WorldConfig(predator_present=False)
        x0, y0, x1, y1 = cfg.barrier_layout[1]  # slab at positive x
        start = np.array([x0 - cfg.prey_radius - 0.05, 0.0])
        state = make_state(cfg, prey_specs=[(tuple(start), 30.0)])  # into the slab, angled up
        state, *_ = step(state, [[prey_action_space().encode(1, 0)]])
        pos = state.prey_pos[0, 0]
        assert pos[0] <= x0 - cfg.prey_radius + 1e-12  # clamped at the face
        assert pos[1] > 0.0  # slid along it

    def test_determinism_full_rollout(self):
        cfg = WorldConfig()
        rng = np.random.default_rng(21)
        actions = [rng.integers(0, 6, size=(1, cfg.n_prey)) for _ in range(400)]
        logs = []
        for _ in range(2):
            state = reset(cfg, 77)
            events_all = []
            for a in actions:
                state, _, _, events = step(state, a)
                events_all.extend((e.tick, e.kind, e.prey_id) for e in events)
            logs.append((state_digest(state), tuple(events_all)))
        assert logs[0] == logs[1]

    def test_conservation_and_reward_accounting(self):
        import math as m

        cfg = WorldConfig()
        state = reset(cfg, 31)
        rng = np.random.default_rng(4)
        rewards_all, counts = [], {EVENT_POSITIVE: 0, EVENT_NEGATIVE: 0, EVENT_CAUGHT: 0}
        for _ in range(2000):
            state, rewards, _, events = step(state, rng.integers(0, 6, size=(1, cfg.n_prey)))
            rewards_all.extend(float(r) for r in rewards[0])
            for e in events:
                counts[e.kind] += 1
            assert state.point_pos.shape == (1, 20, 2) and state.point_positive.sum() == 10
        total = m.fsum(rewards_all)
        # exact at the rational level: 5 * total is an integer combination
        expected = 5 * counts[EVENT_POSITIVE] - counts[EVENT_NEGATIVE] - 5 * counts[EVENT_CAUGHT]
        assert round(5 * total) == expected
        assert abs(5 * total - expected) < 1e-6


class TestRayCast:
    def test_empty_arena_rays_hit_walls(self):
        cfg = WorldConfig(predator_present=False, barrier_layout=())
        state = make_state(cfg, prey_specs=[((0.0, 0.0), 0.0)])
        onehot, distance = rays(state, 0)
        # centered prey: wall is within ray length in every fan direction
        assert np.all(onehot[:, HIT_WALL] == 1.0)
        forward_i = cfg.n_rays // 2
        assert distance[forward_i] == pytest.approx(cfg.half_side / cfg.ray_length)

    def test_positive_point_dead_ahead(self):
        cfg = WorldConfig(predator_present=False, barrier_layout=())
        dist = cfg.ray_length / 2.0
        state = make_state(
            cfg,
            prey_specs=[((-3.0, 0.0), 0.0)],
            points=[((-3.0 + dist, 0.0), "positive")],
        )
        onehot, distance = rays(state, 0)
        forward_i = cfg.n_rays // 2
        assert onehot[forward_i, HIT_POSITIVE] == 1.0
        expected = (dist - cfg.point_radius) / cfg.ray_length
        assert distance[forward_i] == pytest.approx(expected, abs=1e-12)
        assert abs(distance[forward_i] - 0.5) < 0.05

    def test_point_behind_barrier_occluded(self):
        cfg = WorldConfig(predator_present=False)
        x0, y0, x1, y1 = cfg.barrier_layout[1]
        state = make_state(
            cfg,
            prey_specs=[((x0 - 1.0, 0.0), 0.0)],
            points=[((x1 + 1.0, 0.0), "positive")],
        )
        onehot, distance = rays(state, 0)
        forward_i = cfg.n_rays // 2
        assert onehot[forward_i, HIT_WALL] == 1.0
        assert distance[forward_i] == pytest.approx(1.0 / cfg.ray_length, abs=1e-9)

    def test_sees_predator_and_other_prey(self):
        cfg = WorldConfig(barrier_layout=())
        state = make_state(
            cfg,
            prey_specs=[((0.0, 0.0), 0.0), ((2.0, 0.0), 0.0)],
            predator_spec=((0.0, 3.0), 0.0),
        )
        onehot, _ = rays(state, 0)
        forward_i = cfg.n_rays // 2
        assert onehot[forward_i, HIT_PREY] == 1.0
        up_i = np.argmin(np.abs(np.linspace(-70, 70, cfg.n_rays) - 70))
        # ray 70 degrees off heading 0 does not point straight up; rotate prey
        state.prey_heading[0, 0] = 20.0
        onehot, _ = rays(state, 0)
        assert onehot[up_i, HIT_PREDATOR] == 1.0

    def test_nothing_beyond_ray_length(self):
        cfg = WorldConfig(
            predator_present=False, barrier_layout=(), arena_side=40.0, ray_length=5.0
        )
        state = make_state(cfg, prey_specs=[((0.0, 0.0), 0.0)])
        onehot, distance = rays(state, 0)
        assert np.all(onehot[:, HIT_NOTHING] == 1.0)
        assert np.all(distance == 1.0)

    def test_vector_layout(self):
        cfg = WorldConfig()
        state = reset(cfg, 2)
        obs = observe_all(state)
        assert obs.shape == (1, cfg.n_prey, cfg.obs_dim)
        assert obs[0, 0, -1] == pytest.approx(state.prey_heading[0, 0] / 360.0)
        # each ray contributes its one-hot kind followed by its distance
        onehot, distance = _raycast_rows(state)
        per_ray = obs[..., : cfg.n_rays * (N_HIT_KINDS + 1)].reshape(1, cfg.n_prey, cfg.n_rays, N_HIT_KINDS + 1)
        assert np.array_equal(per_ray[..., :N_HIT_KINDS], onehot)
        assert np.array_equal(per_ray[..., N_HIT_KINDS], distance)

    def test_matches_analytic_circle_oracle(self):
        # straight-ahead ray vs circle at distance d: t = d - r exactly, in
        # each of 50 worlds cast together
        cfg = WorldConfig(predator_present=False, barrier_layout=())
        dists = np.random.default_rng(8).uniform(1.0, 4.0, size=50)
        batch = stack_worlds(
            [make_state(cfg, prey_specs=[((-4.0, 0.0), 0.0)], points=[((-4.0 + d, 0.0), "negative")]) for d in dists]
        )
        onehot, distance = _raycast_rows(batch)
        fi = cfg.n_rays // 2
        for w, d in enumerate(dists):
            assert onehot[w, 0, fi, HIT_NEGATIVE] == 1.0
            assert distance[w, 0, fi] == pytest.approx((d - cfg.point_radius) / cfg.ray_length, abs=1e-10)


    def test_ray_along_an_axis(self):
        # heading 0 makes the middle ray's y component exactly 0.0, so the y slab divides by zero
        cfg = WorldConfig(predator_present=False)
        x0, y0, x1, y1 = cfg.barrier_layout[1]
        fi = cfg.n_rays // 2
        # strictly inside the barrier's y band: blocked at its near face; level with a face: grazes past it
        for y, hit_at in ((0.0, x0), (y1 - 0.01, x0), (y1, cfg.half_side), (y0, cfg.half_side), (y1 + 0.01, cfg.half_side)):
            onehot, distance = rays(make_state(cfg, prey_specs=[((0.0, y), 0.0)]), 0)
            assert onehot[fi, HIT_WALL] == 1.0
            assert distance[fi] == hit_at / cfg.ray_length

    def test_ray_origin_on_inflated_barrier_face(self):
        # a body stops on the barrier inflated by its radius, one radius from the barrier
        cfg = WorldConfig(predator_present=False)
        x0, y0, x1, y1 = cfg.barrier_layout[1]
        r, fi = cfg.prey_radius, cfg.n_rays // 2
        cases = [
            (((x0 - r, 0.0), 0.0), x0 - (x0 - r)),  # left face, looking +x
            (((x1 + r, 0.0), 180.0), (x1 + r) - x1),  # right face, looking -x
            ((((x0 + x1) / 2.0, y1 + r), 270.0), (y1 + r) - y1),  # top face, looking -y
        ]
        for spec, t in cases:
            onehot, distance = rays(make_state(cfg, prey_specs=[spec]), 0)
            assert onehot[fi, HIT_WALL] == 1.0
            assert distance[fi] == t / cfg.ray_length
        # along the inflated top face, looking +x: the ray passes one radius above the barrier
        onehot, distance = rays(make_state(cfg, prey_specs=[((0.0, y1 + r), 0.0)]), 0)
        assert distance[fi] == cfg.half_side / cfg.ray_length

    def test_prey_inside_a_point_sees_it_at_distance_zero(self):
        cfg = WorldConfig(predator_present=False, barrier_layout=())
        for polarity, kind in (("positive", HIT_POSITIVE), ("negative", HIT_NEGATIVE)):
            points = [((3.0, 3.0), "negative"), ((1.1, 1.05), polarity)]  # the second holds the prey's center
            onehot, distance = rays(make_state(cfg, prey_specs=[((1.0, 1.0), 30.0)], points=points), 0)
            assert np.all(onehot[:, kind] == 1.0)
            assert np.all(distance == 0.0)

    def test_states_of_different_configs_keep_their_own_constants(self):
        # point counts, predator presence, n_rays and barriers all differ; each state casts with its own
        cfg_a = WorldConfig(barrier_layout=())
        cfg_b = WorldConfig(
            predator_present=False, n_rays=5, ray_fov_degrees=90.0, barrier_layout=((1.0, -1.0, 2.0, 1.0),)
        )
        a = make_state(
            cfg_a,
            prey_specs=[((-4.0, 0.0), 0.0)],
            predator_spec=((-1.0, 0.0), 90.0),
            points=[((-4.0, 2.0), "positive"), ((3.0, 3.0), "negative")],
        )
        b = make_state(cfg_b, prey_specs=[((-4.0, 0.0), 0.0), ((-4.0, -3.0), 90.0)], points=[((-4.0, -1.0), "positive")])
        first_a = observe_all(a)
        obs_b = observe_all(b)
        assert np.array_equal(observe_all(a), first_a)
        assert first_a.shape == (1, 1, cfg_a.obs_dim) and obs_b.shape == (1, 2, cfg_b.obs_dim)
        onehot, distance = rays(a, 0)
        assert onehot[cfg_a.n_rays // 2, HIT_PREDATOR] == 1.0
        assert distance[cfg_a.n_rays // 2] == pytest.approx((3.0 - cfg_a.predator_radius) / cfg_a.ray_length, abs=1e-12)
        onehot, distance = rays(b, 0)
        assert onehot[2, HIT_WALL] == 1.0 and distance[2] == 5.0 / cfg_b.ray_length
        onehot, distance = rays(b, 1)
        assert onehot[2, HIT_POSITIVE] == 1.0
        assert distance[2] == pytest.approx((2.0 - cfg_b.point_radius) / cfg_b.ray_length, abs=1e-12)


class TestObservationFormat:
    """split_observations undoes observation_matrix bit for bit and refuses rows it would not re-pack."""

    @staticmethod
    def check_round_trip(state):
        obs = observe_all(state)
        kinds, distances, ego = split_observations(obs)
        onehot, distance = _raycast_rows(state)
        assert kinds.dtype == np.uint8 and kinds.shape == distances.shape == distance.shape
        assert np.array_equal(kinds[..., None] == np.arange(N_HIT_KINDS), onehot)
        assert np.array_equal(distances.view(np.uint64), distance.view(np.uint64))
        assert np.array_equal(ego[..., 0].view(np.uint64), state.prey_speed.view(np.uint64))
        assert np.array_equal(ego[..., 1].view(np.uint64), (state.prey_heading / 360.0).view(np.uint64))
        packed = observation_matrix(onehot, distances, tuple(np.moveaxis(ego, -1, 0)))
        assert np.array_equal(packed.view(np.uint64), obs.view(np.uint64))
        assert np.array_equal(pack_observations(kinds, distances, ego).view(np.uint64), obs.view(np.uint64))
        return kinds, distances

    def test_one_world_without_predator_round_trips(self):
        cfg = WorldConfig(predator_present=False, barrier_layout=())
        state = make_state(
            cfg,
            prey_specs=[((1.0, 1.0), 30.0), ((-4.6, -4.6), 45.0), ((0.0, -3.0), 200.0)],
            points=[((1.1, 1.05), "positive"), ((0.0, 4.0), "negative")],  # the first holds prey 0's center
        )
        state.prey_speed[0, 2] = 1.0
        kinds, distances = self.check_round_trip(state)
        assert np.all(kinds[0, 0] == HIT_POSITIVE) and np.all(distances[0, 0] == 0.0)  # rays from inside a point
        assert (kinds[0, 1] == HIT_NOTHING).any()  # the corner prey looks down the diagonal, longer than a ray

    def test_fifty_worlds_with_predator_round_trip(self):
        cfg = WorldConfig()
        state = reset(cfg, list(range(50)))
        rng = np.random.default_rng(18)
        for _ in range(10):
            step(state, rng.integers(0, 6, (50, cfg.n_prey)))
        state.prey_pos[0, 0] = state.predator.position[0]  # rays from inside the predator
        kinds, distances = self.check_round_trip(state)
        assert np.all(kinds[0, 0] == HIT_PREDATOR) and np.all(distances[0, 0] == 0.0)
        assert (kinds == HIT_NOTHING).any()
        assert set(np.unique(kinds).tolist()) == set(range(N_HIT_KINDS))

    @pytest.mark.parametrize(
        "defect, match",
        [
            ("two hot kinds", r"row \(1, 2\) does not re-pack: ray 3 holds 1.0"),
            ("half cell", r"row \(1, 2\) does not re-pack: ray 3 holds 0.5"),
            ("negative zero", r"row \(1, 2\) does not re-pack: ray 3 holds -0.0"),
            ("width 78", "width 78 is not"),
            ("width 2", "width 2 is not"),
            ("float32", "must be float64"),
        ],
    )
    def test_rows_that_do_not_re_pack_are_refused(self, defect, match):
        obs = observe_all(reset(WorldConfig(), [4, 5]))
        per_ray = obs[..., :77].reshape(2, 6, 11, 7)  # a view of obs
        hot = int(per_ray[1, 2, 3, :N_HIT_KINDS].argmax())
        cold = (hot + 1) % N_HIT_KINDS
        if defect == "two hot kinds":
            per_ray[1, 2, 3, cold] = 1.0
        elif defect == "half cell":
            per_ray[1, 2, 3, hot] = 0.5
        elif defect == "negative zero":
            per_ray[1, 2, 3, cold] = -0.0
        elif defect == "width 78":
            obs = obs[..., 1:]
        elif defect == "width 2":
            obs = obs[..., -2:]
        else:
            obs = obs.astype(np.float32)
        with pytest.raises(StructuralError, match=match):
            split_observations(obs)


class TestPredatorVision:
    def test_prey_dead_ahead_inside_cone(self):
        cfg = WorldConfig(barrier_layout=())
        state = make_state(cfg, prey_specs=[((1.0, 0.0), 0.0)], predator_spec=((-4.0, 0.0), 0.0))
        assert visible_prey(state)[0, 0]

    def test_prey_beyond_radius(self):
        cfg = WorldConfig(arena_side=30.0, barrier_layout=())
        state = make_state(cfg, prey_specs=[((11.0, 0.0), 0.0)], predator_spec=((0.0, 0.0), 0.0))
        assert not visible_prey(state)[0, 0]
        state.prey_pos[0, 0] = [10.0, 0.0]
        assert visible_prey(state)[0, 0]

    def test_outside_cone(self):
        cfg = WorldConfig(barrier_layout=())
        state = make_state(cfg, prey_specs=[((0.0, 3.0), 0.0)], predator_spec=((0.0, 0.0), 0.0))
        # bearing 90, heading 0, half-angle 40 -> hidden
        assert not visible_prey(state)[0, 0]

    def test_barrier_occludes(self):
        cfg = WorldConfig()
        x0, y0, x1, y1 = cfg.barrier_layout[0]
        mid_y = (y0 + y1) / 2.0
        state = make_state(
            cfg,
            prey_specs=[((x1 + 1.0, mid_y), 0.0)],
            predator_spec=((x0 - 1.0, mid_y), 0.0),
        )
        assert not visible_prey(state)[0, 0]

    def test_no_predator_contract(self):
        cfg = WorldConfig(predator_present=False)
        state = make_state(cfg, prey_specs=[((0.0, 0.0), 0.0)])
        with pytest.raises(ContractViolation):
            visible_prey(state)

    def test_agrees_with_brute_force_oracle(self):
        cfg = WorldConfig()
        rng = np.random.default_rng(123)
        lim = cfg.half_side - 0.5
        mism = 0
        for _ in range(1000):
            state = make_state(
                cfg,
                prey_specs=[(tuple(rng.uniform(-lim, lim, 2)), rng.uniform(0, 360))],
                predator_spec=(tuple(rng.uniform(-lim, lim, 2)), rng.uniform(0, 360)),
            )
            if visible_prey(state)[0, 0] != brute_force_can_see(state, 0):
                mism += 1
        assert mism == 0

    def test_batched_visibility_matches_oracle(self):
        cfg = WorldConfig()
        rng = np.random.default_rng(321)
        lim = cfg.half_side - 0.5
        for _ in range(200):
            state = make_state(
                cfg,
                prey_specs=[
                    (tuple(rng.uniform(-lim, lim, 2)), rng.uniform(0, 360)) for _ in range(4)
                ],
                predator_spec=(tuple(rng.uniform(-lim, lim, 2)), rng.uniform(0, 360)),
            )
            mask = visible_prey(state)
            assert mask.shape == (1, 4)
            for i in range(4):
                assert mask[0, i] == brute_force_can_see(state, i)


class TestPredatorStep:
    def test_chases_visible_prey(self):
        cfg = WorldConfig(barrier_layout=())
        state = make_state(cfg, prey_specs=[((3.0, 0.0), 0.0)], predator_spec=((0.0, 0.0), 0.0))
        pred = predator_step(state)
        assert pred.chasing[0]
        assert pred.target_prey_id[0] == 0
        assert pred.heading[0] == pytest.approx(0.0)
        assert pred.position[0, 0] > 0.0

    def test_targets_nearest_of_two(self):
        cfg = WorldConfig(barrier_layout=())
        state = make_state(
            cfg,
            prey_specs=[((4.9, 0.5), 0.0), ((3.0, -0.5), 0.0)],  # both inside the cone
            predator_spec=((0.0, 0.0), 0.0),
        )
        pred = predator_step(state)
        assert pred.chasing[0]
        assert pred.target_prey_id[0] == 1  # distance ~3 beats ~4.9

    def test_nearest_tie_breaks_to_lowest_id(self):
        cfg = WorldConfig(barrier_layout=())
        state = make_state(
            cfg,
            prey_specs=[((2.0, 0.5), 0.0), ((2.0, -0.5), 0.0)],
            predator_spec=((0.0, 0.0), 0.0),
        )
        pred = predator_step(state)
        assert pred.target_prey_id[0] == 0

    def test_patrol_draws_new_waypoint_on_arrival(self):
        cfg = WorldConfig(predator_present=True)
        state = make_state(cfg, prey_specs=[((4.5, 4.5), 0.0)], predator_spec=((-4.0, -4.0), 180.0))
        state.predator.patrol_waypoint = state.predator.position + np.array([0.1, 0.0])
        wp_before = state.predator.patrol_waypoint.copy()
        pred = predator_step(state)
        assert not pred.chasing[0] and pred.target_prey_id[0] == -1
        assert not np.array_equal(pred.patrol_waypoint, wp_before)

    def test_patrol_moves_at_speed(self):
        cfg = WorldConfig()
        state = make_state(cfg, prey_specs=[((4.5, 4.5), 0.0)], predator_spec=((-4.0, -4.0), 0.0))
        state.predator.patrol_waypoint = np.array([[4.0, -4.0]])
        before = state.predator.position.copy()
        pred = predator_step(state)
        moved = np.hypot(*(pred.position[0] - before[0]))
        assert moved == pytest.approx(cfg.predator_move_speed * cfg.tick_dt)


class TestEgoFeatures:
    def test_speed_feature_tracks_move_branch(self):
        cfg = WorldConfig(predator_present=False)
        state = make_state(cfg, prey_specs=[((0.0, 0.0), 0.0)])
        space = prey_action_space()
        _, _, obs, _ = step(state, [[space.encode(1, 0)]])
        assert obs[0, 0, -2] == 1.0  # ego features close the row: speed, then heading
        _, _, obs, _ = step(state, [[space.encode(0, 0)]])
        assert obs[0, 0, -2] == 0.0


def random_world(cfg, rng, seed):
    """A hand-placed world where pickups, catches, chases, stalls and arrivals are all likely."""

    def free_spot():
        lim = cfg.half_side - 0.5
        while True:
            x, y = p = rng.uniform(-lim, lim, 2)
            if not any(x0 - 0.5 < x < x1 + 0.5 and y0 - 0.5 < y < y1 + 0.5 for x0, y0, x1, y1 in cfg.barrier_layout):
                return p

    def near(p, gap):
        return np.clip(p + rng.uniform(-gap, gap, 2), -cfg.half_side + 0.5, cfg.half_side - 0.5)

    prey = [free_spot() for _ in range(cfg.n_prey)]
    n_points = cfg.n_positive_points + cfg.n_negative_points
    points = [
        (near(prey[rng.integers(cfg.n_prey)], 0.5) if rng.random() < 0.2 else free_spot(),
         "positive" if j < cfg.n_positive_points else "negative")
        for j in range(n_points)
    ]  # fmt: skip
    predator = near(prey[0], 0.7) if rng.random() < 0.5 else free_spot()
    state = make_state(
        cfg,
        prey_specs=[(tuple(p), rng.uniform(0, 360)) for p in prey],
        predator_spec=(tuple(predator), rng.uniform(0, 360)),
        points=[(tuple(p), pol) for p, pol in points],
        seed=seed,
    )
    state.tick[0] = rng.integers(0, 1000)
    state.prey_speed[0] = rng.integers(0, 2, cfg.n_prey)
    state.predator.ticks_since_waypoint[0] = rng.integers(195, 205)
    state.predator.patrol_waypoint[0] = near(predator, 0.3) if rng.random() < 0.3 else free_spot()
    return state


def event_tuples(events):
    return [(e.tick, e.kind, e.prey_id) for e in events]


class TestBatchedWorlds:
    """One step of W worlds must equal W one-world steps bit for bit."""

    def test_batched_step_matches_single_world_steps(self):
        self.check_batched_steps(n_worlds=4, seed=2718)

    def test_batched_step_of_six_worlds_crosses_the_culled_ray_pass(self):
        # one default world casts at most _DENSE_TRIPLES (prey, ray, circle) triples and six cast more, so the
        # batch takes the culled ray pass and each single world the dense one
        batch = reset(WorldConfig(), list(range(6)))
        one_world = batch.prey_pos.shape[1] * len(batch.ray_offsets) * _circles(batch, 0).shape[0]
        assert one_world <= world_module._DENSE_TRIPLES < 6 * one_world
        self.check_batched_steps(n_worlds=6, seed=3141)

    @staticmethod
    def check_batched_steps(n_worlds, seed):
        cfg = WorldConfig()
        rng = np.random.default_rng(seed)
        seen_kinds = set()
        for trial in range(200):
            singles = [random_world(cfg, rng, seed=trial * n_worlds + w) for w in range(n_worlds)]
            batch = stack_worlds(singles)
            actions = rng.integers(0, 6, size=(n_worlds, cfg.n_prey))
            _, rewards, obs, events = step(batch, actions)
            assert [e.world for e in events] == sorted(e.world for e in events)
            for w, single in enumerate(singles):
                _, rewards_w, obs_w, events_w = step(single, actions[w : w + 1])
                assert np.array_equal(rewards[w], rewards_w[0])
                assert np.array_equal(obs[w], obs_w[0])
                assert event_tuples(e for e in events if e.world == w) == event_tuples(events_w)
                assert np.array_equal(batch.prey_pos[w], single.prey_pos[0])
                assert np.array_equal(batch.prey_heading[w], single.prey_heading[0])
                assert np.array_equal(batch.predator.position[w], single.predator.position[0])
                assert np.array_equal(batch.point_pos[w], single.point_pos[0])
                assert state_digest(batch, w) == state_digest(single)
                seen_kinds.update(e.kind for e in events_w)
        assert seen_kinds == {EVENT_POSITIVE, EVENT_NEGATIVE, EVENT_CAUGHT}

    def test_batched_run_matches_single_world_runs(self):
        cfg = WorldConfig()
        seeds = [5, 6, 7]
        batch = reset(cfg, seeds)
        singles = [reset(cfg, s) for s in seeds]
        rng = np.random.default_rng(3)
        for tick in range(300):
            actions = rng.integers(0, 6, size=(len(seeds), cfg.n_prey))
            _, _, obs, events = step(batch, actions)
            for w, single in enumerate(singles):
                _, _, obs_w, events_w = step(single, actions[w : w + 1])
                assert np.array_equal(obs[w], obs_w[0])
                assert event_tuples(e for e in events if e.world == w) == event_tuples(events_w)
        for w, single in enumerate(singles):
            assert state_digest(batch, w) == state_digest(single)

    def test_visibility_of_every_world_matches_oracle(self):
        cfg = WorldConfig()
        rng = np.random.default_rng(99)
        batch = stack_worlds([random_world(cfg, rng, seed=w) for w in range(50)])
        mask = visible_prey(batch)
        assert mask.shape == (50, cfg.n_prey)
        for w in range(50):
            for i in range(cfg.n_prey):
                assert mask[w, i] == brute_force_can_see(batch, i, world=w)
