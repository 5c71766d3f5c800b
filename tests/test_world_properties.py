"""Property tests: world invariants under random barrier layouts, seeds and actions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from tests_support import bodies, brute_force_can_see

from predprey.world import (
    EVENT_CAUGHT,
    EVENT_NEGATIVE,
    EVENT_POSITIVE,
    REWARD_CAUGHT,
    REWARD_NEGATIVE,
    REWARD_POSITIVE,
    WorldConfig,
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
        state, rewards, obs, events = step(state, joint)
        assert obs.shape == (n_worlds, cfg.n_prey, cfg.obs_dim)
        assert state.point_pos.shape == (n_worlds, cfg.n_positive_points + cfg.n_negative_points, 2)
        assert (state.point_positive.sum(axis=1) == cfg.n_positive_points).all()

        expected = np.zeros((n_worlds, cfg.n_prey))
        for ev in events:
            assert ev.tick == tick
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
