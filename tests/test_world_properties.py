"""Property tests: world invariants under random barrier layouts, seeds and actions, the dense observation
rows against the reference encoder, and the fast paths of the ray-vs-circle pass, of body sliding and of
batched placement against their plain forms."""

from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests_support import bodies, brute_force_can_see, reference_observation_rows, reset_one_by_one, slide_per_body

import predprey.world as world
from predprey.errors import ConfigError
from predprey.world import (
    DEFAULT_BARRIERS,
    PredatorState,
    WorldState,
    EVENT_CAUGHT,
    EVENT_DTYPE,
    EVENT_NEGATIVE,
    EVENT_POSITIVE,
    REWARD_CAUGHT,
    REWARD_NEGATIVE,
    REWARD_POSITIVE,
    WorldConfig,
    observation_matrix,
    observe_all,
    reset,
    step,
    visible_prey,
)

ARENA_SIDE = 10.22
MARGIN = 0.8  # the config's wall clearance: twice the largest body radius
TICKS = 40
EVENT_REWARD = {EVENT_POSITIVE: REWARD_POSITIVE, EVENT_NEGATIVE: REWARD_NEGATIVE, EVENT_CAUGHT: REWARD_CAUGHT}

unit = st.floats(0.0, 1.0)


@st.composite
def barrier_layouts(draw):
    """Zero to three rectangles anywhere the config accepts them; they may overlap."""
    lim = ARENA_SIDE / 2.0 - MARGIN - 1e-9
    rects = []
    for _ in range(draw(st.integers(0, 3))):
        width = 0.1 + draw(unit) * 3.0
        height = 0.1 + draw(unit) * 4.0
        x0 = -lim + draw(unit) * (2.0 * lim - width)
        y0 = -lim + draw(unit) * (2.0 * lim - height)
        rects.append((x0, y0, x0 + width, y0 + height))
    return tuple(rects)


def outside_inflated_barriers(pos, radius, layout) -> bool:
    x, y = pos
    return not any(
        x0 - radius < x < x1 + radius and y0 - radius < y < y1 + radius for x0, y0, x1, y1 in layout
    )


@settings(max_examples=25, deadline=None)
@given(layout=barrier_layouts(), seed=st.integers(0, 2**32 - 1), predator=st.booleans())
def test_world_invariants(layout, seed, predator):
    cfg = WorldConfig(barrier_layout=layout, predator_present=predator)
    n_worlds = 3  # stepped together, so the checks cover the batched code
    state = reset(cfg, [seed + w for w in range(n_worlds)])
    actions = np.random.default_rng(seed).integers(0, 6, size=(TICKS, n_worlds, cfg.n_prey))
    assert (state.point_positive.sum(axis=1) == cfg.n_positive_points).all()
    limit = cfg.half_side
    for tick, joint in enumerate(actions):
        state, rewards, (kinds, distances, ego), events = step(state, joint)
        assert kinds.shape == distances.shape == (n_worlds, cfg.n_prey, cfg.n_rays)
        assert ego.shape == (n_worlds, cfg.n_prey, 2)
        assert state.point_pos.shape == (n_worlds, cfg.n_positive_points + cfg.n_negative_points, 2)
        assert (state.point_positive.sum(axis=1) == cfg.n_positive_points).all()

        expected = np.zeros((n_worlds, cfg.n_prey))
        assert isinstance(events, np.recarray) and events.dtype == EVENT_DTYPE
        for ev in events:
            expected[ev.world, ev.prey_id] += EVENT_REWARD[ev.kind]
        assert np.array_equal(rewards, expected)

        seen = visible_prey(state) if predator else None
        for w in range(n_worlds):
            for pos, radius in bodies(state, w):
                assert np.all(np.abs(pos) <= limit - radius + 1e-12), (tick, w, pos)
                assert outside_inflated_barriers(pos, radius, layout), (tick, w, pos, radius)
            if predator:
                for i in range(cfg.n_prey):
                    assert seen[w, i] == brute_force_can_see(state, i, world=w), (tick, w, i)


@settings(max_examples=25, deadline=None)
@given(layout=barrier_layouts(), seed=st.integers(0, 2**32 - 1))
def test_no_contact_outlives_its_tick(layout, seed):
    # a pickup respawns its point and a catch teleports its prey within the tick, each off every body
    cfg = WorldConfig(barrier_layout=layout, predator_present=True)
    n_worlds, ticks = 3, 100  # about 370 pickups and 1,270 catches over the 25 examples
    state = reset(cfg, [seed + w for w in range(n_worlds)])
    actions = np.random.default_rng(seed).integers(0, 6, size=(ticks, n_worlds, cfg.n_prey))
    for tick, joint in enumerate(actions):
        state = step(state, joint)[0]
        to_points = state.prey_pos[:, :, None] - state.point_pos[:, None]  # (W, n_prey, P, 2)
        to_predator = state.prey_pos - state.predator.position[:, None]  # (W, n_prey, 2)
        # the radius sums _place keeps clear, compared as it compares them
        assert (np.hypot(to_points[..., 0], to_points[..., 1]) >= cfg.prey_radius + cfg.point_radius).all(), tick
        assert (np.hypot(to_predator[..., 0], to_predator[..., 1]) >= cfg.prey_radius + cfg.predator_radius).all(), tick


@settings(max_examples=100, deadline=None)
@given(
    n_rays=st.integers(1, 13),
    fov=st.sampled_from([0.0, 140.0, 360.0]),
    layout=st.sampled_from([(), DEFAULT_BARRIERS]),
    predator=st.booleans(),
    n_worlds=st.sampled_from([1, 7, 50]),
    seed=st.integers(0, 2**32 - 1),
)
def test_observation_rows_match_the_reference_encoder_bit_for_bit(n_rays, fov, layout, predator, n_worlds, seed):
    cfg = WorldConfig(n_rays=n_rays, ray_fov_degrees=fov, barrier_layout=layout, predator_present=predator)
    state = reset(cfg, [seed + w for w in range(n_worlds)])
    rng = np.random.default_rng(seed)
    for _ in range(3):  # moves and turns give both speeds and headings off the reset draw
        _, _, obs, _ = step(state, rng.integers(0, 6, size=(n_worlds, cfg.n_prey)))
    kinds, distances, ego = observe_all(state)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(obs, (kinds, distances, ego)))  # step returns observe_all's view
    assert kinds.dtype == np.uint8 and kinds.shape == distances.shape == (n_worlds, cfg.n_prey, n_rays)
    dense = observation_matrix(kinds, distances, ego)
    assert dense.shape == (n_worlds, cfg.n_prey, cfg.obs_dim)
    assert np.array_equal(dense.view(np.uint64), reference_observation_rows(kinds, distances, ego).view(np.uint64))


@st.composite
def ray_scenes(draw):
    """W >= 1 worlds in odd fans, with circles placed where a culled ray pass could go wrong.

    Each point is random, holds a prey's center, is tangent to one of a prey's rays (to
    rounding), or straddles a prey's outermost ray; headings include 0 and just under 360.
    """
    cfg = WorldConfig(
        barrier_layout=(),
        n_rays=draw(st.sampled_from([1, 2, 3, 11, 24])),
        ray_fov_degrees=draw(st.one_of(st.sampled_from([0.0, 140.0, 180.0, 250.0, 360.0, -140.0]), st.floats(-400, 720))),
        n_prey=draw(st.integers(1, 6)),
        n_positive_points=draw(st.integers(1, 8)),
        n_negative_points=draw(st.integers(1, 8)),
        predator_present=draw(st.booleans()),
    )
    n_worlds, rng = draw(st.integers(1, 5)), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_points = cfg.n_positive_points + cfg.n_negative_points
    lim = cfg.half_side - cfg.prey_radius
    prey = rng.uniform(-lim, lim, size=(n_worlds, cfg.n_prey, 2))
    headings = rng.uniform(0.0, 360.0, size=(n_worlds, cfg.n_prey))
    odd = rng.random(headings.shape) < 0.3
    headings[odd] = rng.choice([0.0, 1e-12, 359.9999999, np.nextafter(360.0, 0.0)], size=int(odd.sum()))
    offsets = np.linspace(-cfg.ray_fov_degrees / 2.0, cfg.ray_fov_degrees / 2.0, cfg.n_rays)
    points = rng.uniform(-6.0, 6.0, size=(n_worlds, n_points, 2))
    r = cfg.point_radius
    for w in range(n_worlds):
        for j in range(n_points):
            i, case = rng.integers(cfg.n_prey), rng.integers(4)
            theta = np.deg2rad(headings[w, i] + offsets[rng.integers(cfg.n_rays) if case == 2 else -(rng.integers(2))])
            d = rng.uniform(0.3, 9.0)
            along, across = np.array([np.cos(theta), np.sin(theta)]), np.array([-np.sin(theta), np.cos(theta)])
            if case == 1:  # the prey's center inside the point
                points[w, j] = prey[w, i] + rng.uniform(-0.7, 0.7, size=2) * r
            elif case == 2:  # tangent to one of the prey's rays
                points[w, j] = prey[w, i] + d * along + rng.choice([-1.0, 1.0]) * r * across
            elif case == 3:  # straddling the prey's outermost ray
                points[w, j] = prey[w, i] + d * along + rng.uniform(-1.0, 1.0) * r * across
    predator = None
    if cfg.predator_present:
        predator = PredatorState(
            position=rng.uniform(-lim, lim, size=(n_worlds, 2)),
            heading=np.zeros(n_worlds),
            chasing=np.zeros(n_worlds, dtype=bool),
            target_prey_id=np.full(n_worlds, -1),
            patrol_waypoint=np.zeros((n_worlds, 2)),
            ticks_since_waypoint=np.zeros(n_worlds, dtype=np.int64),
        )
    return WorldState(
        config=cfg,
        tick=np.zeros(n_worlds, dtype=np.int64),
        prey_pos=prey,
        prey_heading=headings,
        prey_speed=np.zeros((n_worlds, cfg.n_prey)),
        predator=predator,
        point_pos=points,
        point_positive=np.arange(n_points) < np.full((n_worlds, 1), cfg.n_positive_points),
        rngs=[np.random.default_rng(w) for w in range(n_worlds)],
    )


@settings(max_examples=300, deadline=None)
@given(state=ray_scenes())
def test_culled_ray_pass_matches_dense_pass_bit_for_bit(state):
    rad = np.deg2rad(state.prey_heading[..., None] + state.ray_offsets)
    results = []
    for limit in (np.inf, 0):  # every triple, then only the triples in each circle's angular window
        # a near-zero fan leaves direction components that overflow the slab divisions to inf, as a zero one does
        with mock.patch.object(world, "_DENSE_TRIPLES", limit), np.errstate(invalid="ignore", over="ignore"):
            results.append((world._nearest_circles(state, np.cos(rad), np.sin(rad)), world._raycast_rows(state)))
    ((t_dense, kind_dense), (kinds_dense, dist_dense)), ((t_culled, kind_culled), (kinds_culled, dist_culled)) = results
    assert t_culled.tobytes() == t_dense.tobytes()
    hit = np.isfinite(t_dense)  # a ray that misses every circle has no kind
    assert np.array_equal(kind_culled[hit], kind_dense[hit])
    assert np.array_equal(kinds_culled, kinds_dense)
    assert dist_culled.tobytes() == dist_dense.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    layout=barrier_layouts(),
    n_bodies=st.integers(1, 300),
    radius=st.sampled_from([0.25, 0.4]),
    reach=st.sampled_from([0.0, 0.1, 1.0, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_slide_matches_the_per_body_loop_bit_for_bit(layout, n_bodies, radius, reach, seed):
    cfg = WorldConfig(barrier_layout=layout)
    rng = np.random.default_rng(seed)
    limit = cfg.half_side - radius
    pos = rng.uniform(-limit, limit, size=(n_bodies, 2))
    for k in range(n_bodies):  # snap most origins onto an inflated barrier face or a wall
        case = rng.integers(4)
        axis = rng.integers(2)
        if case < 2 and layout:
            x0, y0, x1, y1 = layout[rng.integers(len(layout))]
            lo, hi = ((x0, x1), (y0, y1))[axis]
            across_lo, across_hi = ((y0, y1), (x0, x1))[axis]
            pos[k, axis] = (lo - radius, hi + radius)[rng.integers(2)]
            pos[k, 1 - axis] = rng.uniform(across_lo - radius, across_hi + radius) if case == 0 else (across_lo - radius)
        elif case == 2:
            pos[k, axis] = (-limit, limit)[rng.integers(2)]
    dx, dy = rng.uniform(-reach, reach, size=(2, n_bodies))
    dx[rng.random(n_bodies) < 0.2] = 0.0
    want = slide_per_body(pos, dx, dy, radius, cfg)
    for fewest in (world._SLIDE_NOMINATE_BODIES, 0):  # the path the body count selects, then nomination at every count
        with mock.patch.object(world, "_SLIDE_NOMINATE_BODIES", fewest):
            assert world._slide(pos, dx, dy, radius, cfg).tobytes() == want.tobytes()


def world_arrays(state):
    """Every state array and each world's generator state, the bytes a reset must reproduce."""
    arrays = [state.tick, state.prey_pos, state.prey_heading, state.prey_speed, state.point_pos, state.point_positive]
    if state.predator is not None:
        arrays += [getattr(state.predator, f.name) for f in fields(PredatorState)]
    return [a.tobytes() for a in arrays], [rng.bit_generator.state for rng in state.rngs]


@settings(max_examples=40, deadline=None)
@given(
    n_worlds=st.sampled_from([1, 7, 50]),
    barriers=st.booleans(),
    side=st.floats(6.6, 12.0),
    n_positive=st.integers(0, 12),
    n_negative=st.integers(1, 12),
    radii=st.tuples(st.floats(0.05, 0.4), st.floats(0.05, 0.4), st.floats(0.05, 0.4)),
    predator=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_reset_equals_world_by_world_placement(n_worlds, barriers, side, n_positive, n_negative, radii, predator, seed):
    # the default barriers need an arena side of 6.5 at the largest radius; a crowded arena must fail alike
    prey_radius, predator_radius, point_radius = radii
    cfg = WorldConfig(
        arena_side=side if barriers else side / 2.0,
        barrier_layout=DEFAULT_BARRIERS if barriers else (),
        n_positive_points=n_positive + 1,
        n_negative_points=n_negative,
        prey_radius=prey_radius,
        predator_radius=predator_radius,
        point_radius=point_radius,
        predator_present=predator,
    )
    seeds = [seed + w for w in range(n_worlds)]
    try:
        want = reset_one_by_one(cfg, seeds)
    except ConfigError:
        with pytest.raises(ConfigError):
            reset(cfg, seeds)
        return
    assert world_arrays(reset(cfg, seeds)) == world_arrays(want)
