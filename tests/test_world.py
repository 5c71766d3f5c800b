import copy
import math

import numpy as np
import pytest

import predprey.world as world_module
from predprey.errors import ConfigError, ContractViolation, InputError
from tests_support import (
    bodies,
    branch_sizes,
    brute_force_can_see,
    make_state,
    reference_observation_rows,
    respawn_position,
    sample_free_position,
    stack_worlds,
    state_digest,
)

from predprey.world import (
    _PATROL_STALL_TICKS,
    EVENT_CAUGHT,
    EVENT_DTYPE,
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
    predator_step,
    prey_action_space,
    reset,
    reset_worlds,
    step,
    visible_prey,
)


def rays(state, prey):
    """One prey's (hit kind, normalized distance) per ray, from the batched ray cast of world 0."""
    kinds, distance = _raycast_rows(state)
    return kinds[0, prey], distance[0, prey]


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
        reset_worlds(state, np.array([0]), [7])
        assert state_digest(state, 0) == state_digest(reset(cfg, 7))
        assert state_digest(state, 1) == other


class TestPlacement:
    """Respawns and waypoint redraws of scripted worlds against the world-by-world oracles, bit for bit."""

    @staticmethod
    def generator_states(state):
        return [rng.bit_generator.state for rng in state.rngs]

    def test_point_respawn_leaves_only_its_own_spot_out(self):
        cfg = WorldConfig(predator_present=False, barrier_layout=())
        limit = cfg.half_side - cfg.point_radius
        first = np.random.default_rng(5).uniform(-limit, limit, size=2)  # the respawn's first candidate
        point = first + [0.05, 0.0]  # the collected point still covers the candidate
        prey = point + [0.44, 0.0]  # within reach of the point, clear of the candidate
        quiet = make_state(cfg, [((-4.0, -4.0), 0.0)], points=[((4.0, 4.0), "positive")], seed=1)
        busy = make_state(cfg, [(tuple(prey), 0.0)], points=[(tuple(point), "positive")], seed=5)
        state = stack_worlds([quiet, busy])
        want = copy.deepcopy(state)
        _, rewards, _, _ = step(state, [[0], [0]])
        assert rewards.tolist() == [[0.0], [1.0]]
        expected = respawn_position(want, 1, cfg.point_radius, skip_point=0)
        assert np.array_equal(expected, first)
        assert state.point_pos.tobytes() == np.stack([want.point_pos[0], [expected]]).tobytes()
        assert self.generator_states(state) == self.generator_states(want)

    def test_catch_respawn_matches_the_oracle(self):
        cfg = WorldConfig(barrier_layout=(), n_prey=2, n_positive_points=2, n_negative_points=1)
        limit = cfg.half_side - cfg.prey_radius
        first = np.random.default_rng(2).uniform(-limit, limit, size=2)  # the respawn's first candidate
        points = [((-1.0, 2.0), "positive"), ((1.0, -2.0), "positive"), (tuple(first), "negative")]  # blocks it
        prey = [((3.0, 3.0), 0.0), ((-3.0, -3.0), 90.0)]
        quiet = make_state(cfg, prey, predator_spec=((-4.0, 4.0), 90.0), points=points, seed=1)
        caught = make_state(cfg, prey, predator_spec=((3.1, 3.0), 180.0), points=points, seed=2)
        state = stack_worlds([quiet, caught])
        want = copy.deepcopy(state)
        _, _, _, events = step(state, [[0, 0], [0, 0]])
        assert [(e.world, e.kind, e.prey_id) for e in events] == [(1, EVENT_CAUGHT, 0)]
        want.predator.position[:] = state.predator.position  # the catch respawns off the predator as it moved
        want.prey_pos[1, 0] = respawn_position(want, 1, cfg.prey_radius)
        assert not np.array_equal(want.prey_pos[1, 0], first)
        assert state.prey_pos.tobytes() == want.prey_pos.tobytes()
        assert self.generator_states(state) == self.generator_states(want)

    def test_stalled_and_arrived_waypoint_redraws_match_the_oracle(self):
        cfg = WorldConfig(barrier_layout=())
        behind = [((-4.0, 0.0), 0.0)]  # outside the cone of a predator heading along +x from the origin
        worlds = [make_state(cfg, behind, predator_spec=((0.0, 0.0), 0.0), seed=seed) for seed in (3, 4, 5)]
        state = stack_worlds(worlds)
        pred = state.predator
        pred.patrol_waypoint[:] = [(4.0, 4.0), (4.0, -4.0), (0.5, 0.0)]
        pred.ticks_since_waypoint[:] = [_PATROL_STALL_TICKS, 0, 0]  # world 0 stalls; world 2 arrives this tick
        want = copy.deepcopy(state)
        predator_step(state)
        for w in (0, 2):
            want.predator.patrol_waypoint[w] = sample_free_position(want.rngs[w], cfg, cfg.predator_radius)
        assert pred.patrol_waypoint.tobytes() == want.predator.patrol_waypoint.tobytes()
        assert pred.ticks_since_waypoint.tolist() == [0, 1, 0]
        assert self.generator_states(state) == self.generator_states(want)

    @pytest.mark.parametrize(
        "cfg, n_worlds",
        [
            (WorldConfig(arena_side=0.45, barrier_layout=()), 1),  # no spot at a prey's wall clearance
            (WorldConfig(arena_side=0.45, barrier_layout=()), 7),
            (WorldConfig(arena_side=2.2, n_prey=40, barrier_layout=()), 7),  # overlaps; W = 1: test_impossible_arena_raises
        ],
        ids=["too-small-1", "too-small-7", "too-crowded-7"],
    )
    def test_arena_without_room_refuses_the_reset(self, cfg, n_worlds):
        with pytest.raises(ConfigError, match=f"radius {cfg.prey_radius}"):
            reset(cfg, list(range(n_worlds)))


class TestStep:
    def test_noop_actions_keep_positions(self):
        cfg = WorldConfig(predator_present=False)
        state = reset(cfg, 11)
        before = state.prey_pos.copy()
        state, rewards, _, events = step(state, [[0] * cfg.n_prey])
        if len(events):  # a prey may have spawned on a point; rerole is fine
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
        assert events[0].prey_id == 0 and events[0].world == 0
        assert np.hypot(*(state.point_pos[0, 0] - np.array([0.1, 0.0]))) > 1e-9
        assert state.point_positive[0, 0]

    def test_events_are_one_record_array_and_quiet_ticks_share_one_empty_array(self):
        cfg = WorldConfig(predator_present=False)
        state = make_state(cfg, prey_specs=[((0.0, 0.0), 0.0)], points=[((0.1, 0.0), "positive"), ((3.0, 3.0), "negative")])
        _, _, _, events = step(state, [[0]])
        assert isinstance(events, np.recarray) and events.dtype == EVENT_DTYPE
        assert events.tolist() == [(0, 0, EVENT_POSITIVE)]
        state.point_pos[0, 0] = (-3.0, -3.0)  # wherever the point respawned, away from the prey
        _, _, _, quiet = step(state, [[0]])
        _, _, _, again = step(state, [[0]])
        assert isinstance(quiet, np.recarray) and quiet.dtype == EVENT_DTYPE and len(quiet) == 0
        assert quiet is again and not quiet.flags.writeable

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
        place = world_module._place

        def counted_place(rngs, *args, **kwargs):
            respawns.append(len(rngs))
            return place(rngs, *args, **kwargs)

        monkeypatch.setattr(world_module, "_place", counted_place)
        state, rewards, _, events = step(state, [[0, 0]])
        assert [(e.kind, e.prey_id) for e in events] == [(EVENT_POSITIVE, 0)]
        assert respawns == [1]
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
            for tick, a in enumerate(actions):
                state, _, _, events = step(state, a)
                events_all.extend((tick, e.kind, e.prey_id) for e in events)
            logs.append((state_digest(state), tuple(events_all)))
        assert logs[0] == logs[1]

    def test_conservation_and_reward_accounting(self):
        import math as m

        cfg = WorldConfig()
        state = reset(cfg, 31)
        rng = np.random.default_rng(4)
        rewards_all, counts = [], np.zeros(3, dtype=np.int64)
        for _ in range(2000):
            state, rewards, _, events = step(state, rng.integers(0, 6, size=(1, cfg.n_prey)))
            rewards_all.extend(float(r) for r in rewards[0])
            counts += np.bincount(events.kind, minlength=3)
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
        kinds, distance = rays(state, 0)
        # centered prey: wall is within ray length in every fan direction
        assert np.all(kinds == HIT_WALL)
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
        kinds, distance = rays(state, 0)
        forward_i = cfg.n_rays // 2
        assert kinds[forward_i] == HIT_POSITIVE
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
        kinds, distance = rays(state, 0)
        forward_i = cfg.n_rays // 2
        assert kinds[forward_i] == HIT_WALL
        assert distance[forward_i] == pytest.approx(1.0 / cfg.ray_length, abs=1e-9)

    def test_sees_predator_and_other_prey(self):
        cfg = WorldConfig(barrier_layout=())
        state = make_state(
            cfg,
            prey_specs=[((0.0, 0.0), 0.0), ((2.0, 0.0), 0.0)],
            predator_spec=((0.0, 3.0), 0.0),
        )
        kinds, _ = rays(state, 0)
        forward_i = cfg.n_rays // 2
        assert kinds[forward_i] == HIT_PREY
        up_i = np.argmin(np.abs(np.linspace(-70, 70, cfg.n_rays) - 70))
        # ray 70 degrees off heading 0 does not point straight up; rotate prey
        state.prey_heading[0, 0] = 20.0
        kinds, _ = rays(state, 0)
        assert kinds[up_i] == HIT_PREDATOR

    def test_nothing_beyond_ray_length(self):
        cfg = WorldConfig(
            predator_present=False, barrier_layout=(), arena_side=40.0, ray_length=5.0
        )
        state = make_state(cfg, prey_specs=[((0.0, 0.0), 0.0)])
        kinds, distance = rays(state, 0)
        assert np.all(kinds == HIT_NOTHING)
        assert np.all(distance == 1.0)

    def test_vector_layout(self):
        cfg = WorldConfig()
        state = reset(cfg, 2)
        obs = observation_matrix(*observe_all(state))
        assert obs.shape == (1, cfg.n_prey, cfg.obs_dim)
        assert obs[0, 0, -1] == pytest.approx(state.prey_heading[0, 0] / 360.0)
        # each ray contributes its one-hot kind followed by its distance
        kinds, distance = _raycast_rows(state)
        per_ray = obs[..., : cfg.n_rays * (N_HIT_KINDS + 1)].reshape(1, cfg.n_prey, cfg.n_rays, N_HIT_KINDS + 1)
        assert np.array_equal(per_ray[..., :N_HIT_KINDS], kinds[..., None] == np.arange(N_HIT_KINDS))
        assert np.array_equal(per_ray[..., N_HIT_KINDS], distance)

    def test_matches_analytic_circle_oracle(self):
        # straight-ahead ray vs circle at distance d: t = d - r exactly, in
        # each of 50 worlds cast together
        cfg = WorldConfig(predator_present=False, barrier_layout=())
        dists = np.random.default_rng(8).uniform(1.0, 4.0, size=50)
        batch = stack_worlds(
            [make_state(cfg, prey_specs=[((-4.0, 0.0), 0.0)], points=[((-4.0 + d, 0.0), "negative")]) for d in dists]
        )
        kinds, distance = _raycast_rows(batch)
        fi = cfg.n_rays // 2
        for w, d in enumerate(dists):
            assert kinds[w, 0, fi] == HIT_NEGATIVE
            assert distance[w, 0, fi] == pytest.approx((d - cfg.point_radius) / cfg.ray_length, abs=1e-10)


    def test_ray_along_an_axis(self):
        # heading 0 makes the middle ray's y component exactly 0.0, so the y slab divides by zero
        cfg = WorldConfig(predator_present=False)
        x0, y0, x1, y1 = cfg.barrier_layout[1]
        fi = cfg.n_rays // 2
        # strictly inside the barrier's y band: blocked at its near face; level with a face: grazes past it
        for y, hit_at in ((0.0, x0), (y1 - 0.01, x0), (y1, cfg.half_side), (y0, cfg.half_side), (y1 + 0.01, cfg.half_side)):
            kinds, distance = rays(make_state(cfg, prey_specs=[((0.0, y), 0.0)]), 0)
            assert kinds[fi] == HIT_WALL
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
            kinds, distance = rays(make_state(cfg, prey_specs=[spec]), 0)
            assert kinds[fi] == HIT_WALL
            assert distance[fi] == t / cfg.ray_length
        # along the inflated top face, looking +x: the ray passes one radius above the barrier
        kinds, distance = rays(make_state(cfg, prey_specs=[((0.0, y1 + r), 0.0)]), 0)
        assert distance[fi] == cfg.half_side / cfg.ray_length

    def test_prey_inside_a_point_sees_it_at_distance_zero(self):
        cfg = WorldConfig(predator_present=False, barrier_layout=())
        for polarity, kind in (("positive", HIT_POSITIVE), ("negative", HIT_NEGATIVE)):
            points = [((3.0, 3.0), "negative"), ((1.1, 1.05), polarity)]  # the second holds the prey's center
            kinds, distance = rays(make_state(cfg, prey_specs=[((1.0, 1.0), 30.0)], points=points), 0)
            assert np.all(kinds == kind)
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
        first_a = observation_matrix(*observe_all(a))
        obs_b = observation_matrix(*observe_all(b))
        assert np.array_equal(observation_matrix(*observe_all(a)), first_a)
        assert first_a.shape == (1, 1, cfg_a.obs_dim) and obs_b.shape == (1, 2, cfg_b.obs_dim)
        kinds, distance = rays(a, 0)
        assert kinds[cfg_a.n_rays // 2] == HIT_PREDATOR
        assert distance[cfg_a.n_rays // 2] == pytest.approx((3.0 - cfg_a.predator_radius) / cfg_a.ray_length, abs=1e-12)
        kinds, distance = rays(b, 0)
        assert kinds[2] == HIT_WALL and distance[2] == 5.0 / cfg_b.ray_length
        kinds, distance = rays(b, 1)
        assert kinds[2] == HIT_POSITIVE
        assert distance[2] == pytest.approx((2.0 - cfg_b.point_radius) / cfg_b.ray_length, abs=1e-12)


class TestObservationFormat:
    """observe_all hands out each ray's kind and distance and the ego features; observation_matrix packs them
    as the reference encoder does (its property test is in test_world_properties.py)."""

    @staticmethod
    def check_observation(state):
        kinds, distances, ego = observe_all(state)
        kind, distance = _raycast_rows(state)
        assert kinds.dtype == np.uint8 and np.array_equal(kinds, kind)
        assert np.array_equal(distances.view(np.uint64), distance.view(np.uint64))
        assert np.array_equal(ego[..., 0].view(np.uint64), state.prey_speed.view(np.uint64))
        assert np.array_equal(ego[..., 1].view(np.uint64), (state.prey_heading / 360.0).view(np.uint64))
        packed = observation_matrix(kinds, distances, ego)
        assert np.array_equal(packed.view(np.uint64), reference_observation_rows(kinds, distances, ego).view(np.uint64))
        return kinds, distances

    def test_one_world_without_predator_packs_as_the_reference(self):
        cfg = WorldConfig(predator_present=False, barrier_layout=())
        state = make_state(
            cfg,
            prey_specs=[((1.0, 1.0), 30.0), ((-4.6, -4.6), 45.0), ((0.0, -3.0), 200.0)],
            points=[((1.1, 1.05), "positive"), ((0.0, 4.0), "negative")],  # the first holds prey 0's center
        )
        state.prey_speed[0, 2] = 1.0
        kinds, distances = self.check_observation(state)
        assert np.all(kinds[0, 0] == HIT_POSITIVE) and np.all(distances[0, 0] == 0.0)  # rays from inside a point
        assert (kinds[0, 1] == HIT_NOTHING).any()  # the corner prey looks down the diagonal, longer than a ray

    def test_fifty_worlds_with_predator_pack_as_the_reference(self):
        cfg = WorldConfig()
        state = reset(cfg, list(range(50)))
        rng = np.random.default_rng(18)
        for _ in range(10):
            step(state, rng.integers(0, 6, (50, cfg.n_prey)))
        state.prey_pos[0, 0] = state.predator.position[0]  # rays from inside the predator
        kinds, distances = self.check_observation(state)
        assert np.all(kinds[0, 0] == HIT_PREDATOR) and np.all(distances[0, 0] == 0.0)
        assert (kinds == HIT_NOTHING).any()
        assert set(np.unique(kinds).tolist()) == set(range(N_HIT_KINDS))


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
        _, _, (_, _, ego), _ = step(state, [[space.encode(1, 0)]])
        assert ego[0, 0, 0] == 1.0  # the ego features: speed, then heading
        _, _, (_, _, ego), _ = step(state, [[space.encode(0, 0)]])
        assert ego[0, 0, 0] == 0.0


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


def same_observation(obs, world, one_world_obs) -> bool:
    """Whether world `world` of a W-world step's (kinds, distances, ego) equals a one-world step's, bit for bit."""
    return all(a[world].dtype == b.dtype and a[world].tobytes() == b[0].tobytes() for a, b in zip(obs, one_world_obs))


def event_tuples(events):
    return [(e.kind, e.prey_id) for e in events]


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
                assert same_observation(obs, w, obs_w)
                assert event_tuples(events[events.world == w]) == event_tuples(events_w)
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
                assert same_observation(obs, w, obs_w)
                assert event_tuples(events[events.world == w]) == event_tuples(events_w)
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
