"""Deterministic 2D predator-prey worlds, stepped together.

Square arena centered on the origin with axis-aligned rectangular barriers.
Prey move with a discrete two-branch action space (move none/forward x turn
none/left/right) and perceive through a fan of rays; the rule-based predator
chases the nearest prey inside its vision cone, otherwise patrols random
waypoints. Collected points respawn immediately; caught prey are penalised
and teleported, the run continues.

Conventions: one WorldState holds W independent worlds of one config as
arrays with a leading world axis, entities in reset order: tick (W,),
prey_pos (W, n_prey, 2), prey_heading and prey_speed (W, n_prey), point_pos
(W, P, 2) and point_positive (W, P), positives first, and one row per world
in every PredatorState field. A prey's id is its row within its world; a
point keeps its row when it respawns. Positions are float64 (x, y); headings
are degrees in [0, 360) with 0 along +x and counter-clockwise positive;
"left" turns increase the heading. Radii come from the config.

step, observe_all and predator_step advance every world with one numpy call
per stage; body sliding, whose barriers act one after another, loops over
the moving bodies. Only rare event work runs world by world: respawn
rejection sampling after pickups and catches, and patrol-waypoint redraws.
Each world draws all its randomness from its own generator (state.rngs[w])
in the order it would alone, so a world's run depends only on its (config,
seed, action sequence), never on W or on the other worlds, and a W-world
step equals W one-world steps bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, InputError

# Reward structure: foraging a positive point, foraging a negative point,
# being caught by the predator.
REWARD_POSITIVE = 1.0
REWARD_NEGATIVE = -0.2
REWARD_CAUGHT = -1.0

EVENT_POSITIVE = "positive_collected"
EVENT_NEGATIVE = "negative_collected"
EVENT_CAUGHT = "prey_caught"

# Ray hit categories, in one-hot order.
HIT_POSITIVE = 0
HIT_NEGATIVE = 1
HIT_WALL = 2  # arena walls and barriers
HIT_PREDATOR = 3
HIT_PREY = 4
HIT_NOTHING = 5
N_HIT_KINDS = 6

N_EGO_FEATURES = 2  # normalized speed, normalized heading

_PLACEMENT_ATTEMPTS = 1000
_PATROL_STALL_TICKS = 200  # redraw the waypoint if a barrier blocks it this long


# ---------------------------------------------------------------------------
# configuration


DEFAULT_BARRIERS: tuple[tuple[float, float, float, float], ...] = (
    (-2.45, -1.8, -2.15, 1.8),
    (2.15, -1.8, 2.45, 1.8),
)


@dataclass
class WorldConfig:
    arena_side: float = 10.22
    barrier_layout: tuple[tuple[float, float, float, float], ...] = DEFAULT_BARRIERS
    n_prey: int = 6
    n_positive_points: int = 10
    n_negative_points: int = 10
    predator_present: bool = True
    prey_move_speed: float = 2.0
    prey_turn_speed: float = 300.0
    predator_move_speed: float = 20.0
    predator_view_radius: float = 10.33
    predator_view_angle: float = 80.0
    tick_dt: float = 0.05
    episode_length: int = 2000
    n_rays: int = 11
    ray_fov_degrees: float = 140.0
    ray_length: float = 10.0
    prey_radius: float = 0.25
    predator_radius: float = 0.4
    point_radius: float = 0.2

    def __post_init__(self) -> None:
        self.barrier_layout = tuple(tuple(float(v) for v in rect) for rect in self.barrier_layout)
        positives = {
            "arena_side": self.arena_side,
            "n_prey": self.n_prey,
            "n_positive_points": self.n_positive_points,
            "n_negative_points": self.n_negative_points,
            "prey_move_speed": self.prey_move_speed,
            "prey_turn_speed": self.prey_turn_speed,
            "predator_move_speed": self.predator_move_speed,
            "predator_view_radius": self.predator_view_radius,
            "tick_dt": self.tick_dt,
            "episode_length": self.episode_length,
            "n_rays": self.n_rays,
            "ray_length": self.ray_length,
            "prey_radius": self.prey_radius,
            "predator_radius": self.predator_radius,
            "point_radius": self.point_radius,
        }
        for name, value in positives.items():
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and strictly positive, got {value}")
        if not math.isfinite(self.ray_fov_degrees):
            raise ConfigError(f"ray_fov_degrees must be finite, got {self.ray_fov_degrees}")
        if not 0.0 < self.predator_view_angle <= 360.0:
            raise ConfigError(
                f"predator_view_angle must be in (0, 360], got {self.predator_view_angle}"
            )
        half = self.arena_side / 2.0
        margin = 2.0 * max(self.prey_radius, self.predator_radius)
        for rect in self.barrier_layout:
            x0, y0, x1, y1 = rect
            if not (x0 < x1 and y0 < y1):
                raise ConfigError(f"barrier rectangle {rect} is not (xmin, ymin, xmax, ymax)")
            if x0 < -half + margin or y0 < -half + margin or x1 > half - margin or y1 > half - margin:
                raise ConfigError(
                    f"barrier {rect} must lie inside the arena with {margin} clearance from walls"
                )

    @property
    def half_side(self) -> float:
        return self.arena_side / 2.0

    @property
    def obs_dim(self) -> int:
        return self.n_rays * (N_HIT_KINDS + 1) + N_EGO_FEATURES


# ---------------------------------------------------------------------------
# state containers


@dataclass(eq=False)
class PredatorState:
    """Every world's predator, one row per world."""

    position: np.ndarray  # (W, 2)
    heading: np.ndarray  # (W,)
    chasing: np.ndarray  # (W,) bool; a predator that is not chasing patrols
    target_prey_id: np.ndarray  # (W,) int, -1 while patrolling
    patrol_waypoint: np.ndarray  # (W, 2)
    ticks_since_waypoint: np.ndarray  # (W,) int


@dataclass
class Event:
    tick: int
    kind: str
    prey_id: int
    world: int = 0


@dataclass(eq=False)
class WorldState:
    config: WorldConfig
    tick: np.ndarray  # (W,) int
    prey_pos: np.ndarray  # (W, n_prey, 2)
    prey_heading: np.ndarray  # (W, n_prey)
    prey_speed: np.ndarray  # (W, n_prey), 1.0 if the prey moved forward last tick
    predator: PredatorState | None
    point_pos: np.ndarray  # (W, P, 2)
    point_positive: np.ndarray  # (W, P) bool
    rngs: list[np.random.Generator]  # one generator per world

    @property
    def n_worlds(self) -> int:
        return len(self.prey_pos)


def state_digest(state: WorldState, world: int = 0) -> str:
    """Canonical hash of one world, including its generator; equal digests => equal worlds."""
    w = world
    h = hashlib.sha256()
    h.update(str(int(state.tick[w])).encode())
    for i, (pos, heading) in enumerate(zip(state.prey_pos[w], state.prey_heading[w])):
        h.update(pos.tobytes())
        h.update(heading.tobytes())
        h.update(str(i).encode())
    if state.predator is not None:
        p = state.predator
        h.update(p.position[w].tobytes())
        h.update(np.float64(p.heading[w]).tobytes())
        h.update(b"chase" if p.chasing[w] else b"patrol")
        h.update(str(int(p.target_prey_id[w]) if p.chasing[w] else None).encode())
        h.update(p.patrol_waypoint[w].tobytes())
        h.update(str(int(p.ticks_since_waypoint[w])).encode())
    for pos, positive in zip(state.point_pos[w], state.point_positive[w]):
        h.update(pos.tobytes())
        h.update(b"positive" if positive else b"negative")
    h.update(state.prey_speed[w].tobytes())
    h.update(json.dumps(state.rngs[w].bit_generator.state, sort_keys=True, default=int).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# action space


@dataclass(frozen=True)
class ActionSpace:
    """Two discrete branches, jointly encoded row-major: joint = move * 3 + turn."""

    move_labels: tuple[str, ...] = ("none", "forward")
    turn_labels: tuple[str, ...] = ("none", "left", "right")

    @property
    def branch_sizes(self) -> tuple[int, int]:
        return (len(self.move_labels), len(self.turn_labels))

    @property
    def n_joint(self) -> int:
        return len(self.move_labels) * len(self.turn_labels)

    def encode(self, move: int, turn: int) -> int:
        return move * len(self.turn_labels) + turn

    def decode(self, joint: int) -> tuple[int, int]:
        return joint // len(self.turn_labels), joint % len(self.turn_labels)


def prey_action_space() -> ActionSpace:
    return ActionSpace()


# ---------------------------------------------------------------------------
# geometry helpers


def _heading_vector(heading_deg: float | np.ndarray) -> np.ndarray:
    rad = np.deg2rad(heading_deg)
    return np.stack([np.cos(rad), np.sin(rad)], axis=-1)


def _inside_rect(p: np.ndarray, rect: tuple[float, float, float, float], pad: float = 0.0) -> bool:
    x0, y0, x1, y1 = rect
    return (x0 - pad < p[0] < x1 + pad) and (y0 - pad < p[1] < y1 + pad)


def _slab_interval(origins: np.ndarray, dirs: np.ndarray, cfg: WorldConfig) -> tuple[np.ndarray, np.ndarray]:
    """Entry and exit parameters of each line origins + t * dirs (R, 2) through each barrier, shape (B, R).

    Liang-Barsky slabs: a line parallel to an axis is unbounded by that slab
    when its origin lies strictly inside it, and misses the rectangle otherwise.
    """
    rects = np.asarray(cfg.barrier_layout, dtype=float).reshape(-1, 2, 2, 1)
    lo, hi = rects[:, 0], rects[:, 1]  # (B, axis, 1)
    o, d = np.ascontiguousarray(origins.T), np.ascontiguousarray(dirs.T)  # (axis, R): R innermost
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - o) / d
        t_hi = (hi - o) / d
    flat = d == 0.0
    inside = (o > lo) & (o < hi)
    t_near = np.where(flat, np.where(inside, -np.inf, np.inf), np.minimum(t_lo, t_hi))
    t_far = np.where(flat, np.where(inside, np.inf, -np.inf), np.maximum(t_lo, t_hi))
    return t_near.max(axis=1), t_far.min(axis=1)


def _slide(pos: np.ndarray, delta: np.ndarray, radius: float, cfg: WorldConfig) -> np.ndarray:
    """Integrate displacements (k, 2) from positions (k, 2) with wall clamping and axis-separated barrier sliding.

    Barriers are inflated by the body radius, so every returned center is
    outside every barrier and at least `radius` from every wall. Bodies move
    one at a time in Python floats: each barrier depends on where the last
    one stopped the body, and a handful of numpy calls per barrier costs more
    than the loop at the body counts one tick moves.
    """
    limit = cfg.half_side - radius
    out = np.empty_like(pos)
    for k, ((x, y), (dx, dy)) in enumerate(zip(pos.tolist(), delta.tolist())):
        # X sweep.
        tx = min(limit, max(-limit, x + dx))
        for x0, y0, x1, y1 in cfg.barrier_layout:
            if not (y0 - radius < y < y1 + radius):
                continue
            lo, hi = x0 - radius, x1 + radius
            if x <= lo < tx:
                tx = lo
            elif x >= hi > tx:
                tx = hi
            elif lo < x < hi:  # started inside the inflated band: push to nearest face
                tx = lo if (x - lo) <= (hi - x) else hi
        # Y sweep.
        ty = min(limit, max(-limit, y + dy))
        for x0, y0, x1, y1 in cfg.barrier_layout:
            if not (x0 - radius < tx < x1 + radius):
                continue
            lo, hi = y0 - radius, y1 + radius
            if y <= lo < ty:
                ty = lo
            elif y >= hi > ty:
                ty = hi
            elif lo < y < hi:
                ty = lo if (y - lo) <= (hi - y) else hi
        out[k] = tx, ty
    return out


def _sample_free_position(
    rng: np.random.Generator,
    cfg: WorldConfig,
    radius: float,
    centers: np.ndarray | None = None,
    radii: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform position with wall clearance, outside inflated barriers, off the given bodies."""
    limit = cfg.half_side - radius
    if limit <= 0:
        raise ConfigError(f"arena side {cfg.arena_side} too small for body radius {radius}")
    for _ in range(_PLACEMENT_ATTEMPTS):
        p = rng.uniform(-limit, limit, size=2)
        if any(_inside_rect(p, rect, pad=radius) for rect in cfg.barrier_layout):
            continue
        if centers is not None:
            offsets = p - centers
            if (np.hypot(offsets[:, 0], offsets[:, 1]) < radius + radii).any():
                continue
        return p
    placed = 0 if centers is None else len(centers)
    raise ConfigError(
        "could not place an entity without overlap; arena too crowded "
        f"(radius {radius}, {placed} bodies placed)"
    )


# ---------------------------------------------------------------------------
# reset / step


def reset(config: WorldConfig, seed: int | list[int]) -> WorldState:
    """Fresh worlds, one per seed, with uniformly random non-overlapping placements.

    An int seeds one world (W = 1), a list seeds W worlds.
    """
    seeds = [seed] if np.isscalar(seed) else list(seed)
    n_worlds, n_prey = len(seeds), config.n_prey
    predator = None
    if config.predator_present:
        predator = PredatorState(
            position=np.zeros((n_worlds, 2)),
            heading=np.zeros(n_worlds),
            chasing=np.zeros(n_worlds, dtype=bool),
            target_prey_id=np.full(n_worlds, -1),
            patrol_waypoint=np.zeros((n_worlds, 2)),
            ticks_since_waypoint=np.zeros(n_worlds, dtype=np.int64),
        )
    n_points = config.n_positive_points + config.n_negative_points
    state = WorldState(
        config=config,
        tick=np.zeros(n_worlds, dtype=np.int64),
        prey_pos=np.zeros((n_worlds, n_prey, 2)),
        prey_heading=np.zeros((n_worlds, n_prey)),
        prey_speed=np.zeros((n_worlds, n_prey)),
        predator=predator,
        point_pos=np.zeros((n_worlds, n_points, 2)),
        point_positive=np.zeros((n_worlds, n_points), dtype=bool),
        rngs=[None] * n_worlds,
    )
    for w, world_seed in enumerate(seeds):
        reset_world(state, w, world_seed)
    return state


def reset_world(state: WorldState, world: int, seed: int) -> None:
    """Redraw one world in place at tick 0, on a new generator seeded with `seed`.

    Draw order: each prey's position then heading, the predator's position,
    heading and first waypoint, then the positive and the negative points.
    """
    config = state.config
    rng = np.random.default_rng(seed)
    n_prey = config.n_prey
    n_agents = n_prey + int(config.predator_present)
    radii = np.repeat(
        [config.prey_radius, config.predator_radius, config.point_radius],
        [n_prey, n_agents - n_prey, config.n_positive_points + config.n_negative_points],
    )
    centers = np.empty((len(radii), 2))
    headings = np.empty(n_agents)
    waypoint = None
    for k in range(len(radii)):
        centers[k] = _sample_free_position(rng, config, radii[k], centers[:k], radii[:k])
        if k < n_agents:
            headings[k] = rng.uniform(0.0, 360.0)
        if k == n_prey and config.predator_present:  # the waypoint ignores every body
            waypoint = _sample_free_position(rng, config, config.predator_radius)

    if state.predator is not None:
        pred = state.predator
        pred.position[world] = centers[n_prey]
        pred.heading[world] = headings[n_prey]
        pred.chasing[world] = False
        pred.target_prey_id[world] = -1
        pred.patrol_waypoint[world] = waypoint
        pred.ticks_since_waypoint[world] = 0
    state.tick[world] = 0
    state.prey_pos[world] = centers[:n_prey]
    state.prey_heading[world] = headings[:n_prey]
    state.prey_speed[world] = 0.0
    state.point_pos[world] = centers[n_agents:]
    state.point_positive[world] = np.arange(len(radii) - n_agents) < config.n_positive_points
    state.rngs[world] = rng


def _circles(state: WorldState, world: int | slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bodies of `world` (an index or a slice of worlds) as circles, points then prey then the predator.

    Returns (centers (..., J, 2), radii (J,), hit kinds (..., J)).
    """
    cfg = state.config
    n_points, n_prey = state.point_pos.shape[1], state.prey_pos.shape[1]
    parts = [state.point_pos[world], state.prey_pos[world]]
    if state.predator is not None:
        parts.append(state.predator.position[world][..., None, :])
    counts = [n_points, n_prey, len(parts) - 2]
    centers = np.concatenate(parts, axis=-2)
    radii = np.repeat([cfg.point_radius, cfg.prey_radius, cfg.predator_radius], counts)
    kinds = np.broadcast_to(np.repeat([HIT_NEGATIVE, HIT_PREY, HIT_PREDATOR], counts), centers.shape[:-1]).copy()
    kinds[..., :n_points][state.point_positive[world]] = HIT_POSITIVE
    return centers, radii, kinds


def _respawn_position(state: WorldState, world: int, radius: float, skip_point: int | None = None) -> np.ndarray:
    """Free spot in one world, off every prey, the predator and every point except `skip_point`."""
    centers, radii, _ = _circles(state, world)
    if skip_point is not None:  # points lead the circle rows
        centers = np.delete(centers, skip_point, axis=0)
        radii = np.delete(radii, skip_point)
    return _sample_free_position(state.rngs[world], state.config, radius, centers, radii)


def step(
    state: WorldState, prey_actions: np.ndarray
) -> tuple[WorldState, np.ndarray, np.ndarray, list[Event]]:
    """Advance every world one tick: prey move, predators act, pickups and catches resolve.

    `prey_actions` is (W, n_prey). Returns the mutated state, the (W, n_prey)
    rewards, the (W, n_prey, obs_dim) observations of the post-step worlds,
    and this tick's events, world by world.
    """
    cfg = state.config
    space = prey_action_space()
    shape = state.prey_heading.shape
    actions = np.asarray(prey_actions)
    if actions.shape != shape:
        raise InputError(f"expected prey actions of shape {shape}, got {actions.shape}")
    actions = actions.astype(np.int64)
    bad = (actions < 0) | (actions >= space.n_joint)
    if bad.any():
        w, i = np.argwhere(bad)[0]
        raise InputError(f"world {w}, prey {i}: action index {actions[w, i]} outside [0, {space.n_joint})")
    rewards = np.zeros(shape)
    events: list[list[Event]] = [[] for _ in range(len(actions))]
    turn_step = cfg.prey_turn_speed * cfg.tick_dt
    move_step = cfg.prey_move_speed * cfg.tick_dt

    # Prey locomotion: turn, then move along the new heading.
    move, turn = space.decode(actions)
    heading = state.prey_heading
    heading[turn == 1] = (heading[turn == 1] + turn_step) % 360.0
    heading[turn == 2] = (heading[turn == 2] - turn_step) % 360.0
    moving = move == 1
    rad = np.deg2rad(heading[moving])
    delta = np.column_stack([move_step * np.cos(rad), move_step * np.sin(rad)])
    state.prey_pos[moving] = _slide(state.prey_pos[moving], delta, cfg.prey_radius, cfg)
    state.prey_speed[:] = move

    if state.predator is not None:
        predator_step(state)

    # Point pickups: contact means center distance within summed radii. The
    # distance matrix only nominates candidates; each hit is re-checked
    # against live positions because earlier pickups respawn points.
    prey_pos, point_pos = state.prey_pos, state.point_pos
    reach = cfg.prey_radius + cfg.point_radius
    near = ((prey_pos[:, :, None, :] - point_pos[:, None, :, :]) ** 2).sum(axis=-1) <= reach * reach
    for w, i, j in zip(*np.nonzero(near)):  # world by world, each in its own (prey, point) order
        if np.hypot(*(prey_pos[w, i] - point_pos[w, j])) > reach:
            continue
        positive = state.point_positive[w, j]
        rewards[w, i] += REWARD_POSITIVE if positive else REWARD_NEGATIVE
        events[w].append(Event(int(state.tick[w]), EVENT_POSITIVE if positive else EVENT_NEGATIVE, int(i), int(w)))
        point_pos[w, j] = _respawn_position(state, w, cfg.point_radius, skip_point=j)

    # Predator contact: penalty plus teleport to a free spot; the run continues.
    if state.predator is not None:
        pred_pos = state.predator.position
        contact = cfg.prey_radius + cfg.predator_radius
        touching = ((prey_pos - pred_pos[:, None, :]) ** 2).sum(axis=-1) <= contact**2
        for w, i in zip(*np.nonzero(touching)):
            if np.hypot(*(prey_pos[w, i] - pred_pos[w])) > contact:
                continue
            rewards[w, i] += REWARD_CAUGHT
            events[w].append(Event(int(state.tick[w]), EVENT_CAUGHT, int(i), int(w)))
            prey_pos[w, i] = _respawn_position(state, w, cfg.prey_radius)

    state.tick += 1
    return state, rewards, observe_all(state), [ev for world_events in events for ev in world_events]


# ---------------------------------------------------------------------------
# predator policy


def _sight(state: WorldState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(visible mask, prey offsets from the predator, their lengths), each with a leading world axis."""
    pred = state.predator
    cfg = state.config
    offsets = state.prey_pos - pred.position[:, None, :]
    dist = np.hypot(offsets[..., 0], offsets[..., 1])
    bearing = np.degrees(np.arctan2(offsets[..., 1], offsets[..., 0]))
    rel = (bearing - pred.heading[:, None] + 180.0) % 360.0 - 180.0
    visible = (dist <= cfg.predator_view_radius) & (np.abs(rel) <= cfg.predator_view_angle / 2.0)
    w, i = np.nonzero(visible)
    if len(w):
        # the sight line is the segment t in [0, 1] from the predator to each prey
        entry, exit_ = _slab_interval(pred.position[w], offsets[w, i], cfg)
        visible[w, i] = ~(np.maximum(entry, 0.0) < np.minimum(exit_, 1.0)).any(axis=0)
    return visible, offsets, dist


def visible_prey(state: WorldState) -> np.ndarray:
    """(W, n_prey) mask of prey within view radius, inside the vision cone, and unoccluded by barriers."""
    if state.predator is None:
        raise ContractViolation("visible_prey called with no predator in the world")
    return _sight(state)[0]


def predator_step(state: WorldState) -> PredatorState:
    """Every predator chases its nearest visible prey, otherwise patrols toward a random waypoint."""
    if state.predator is None:
        raise ContractViolation("predator_step called with no predator in the world")
    cfg = state.config
    pred = state.predator
    step_len = cfg.predator_move_speed * cfg.tick_dt

    visible, _, dist = _sight(state)
    chasing = visible.any(axis=1)
    target = np.where(visible, dist, np.inf).argmin(axis=1)  # argmin takes the lowest id on ties
    pred.chasing[:] = chasing
    pred.target_prey_id[:] = np.where(chasing, target, -1)
    patrol = ~chasing
    pred.ticks_since_waypoint += patrol
    for w in np.flatnonzero(patrol & (pred.ticks_since_waypoint > _PATROL_STALL_TICKS)):
        pred.patrol_waypoint[w] = _sample_free_position(state.rngs[w], cfg, cfg.predator_radius)
        pred.ticks_since_waypoint[w] = 0
    goal = np.where(chasing[:, None], state.prey_pos[np.arange(len(target)), target], pred.patrol_waypoint)

    offset = goal - pred.position
    goal_dist = np.hypot(offset[:, 0], offset[:, 1])
    moves = goal_dist > 1e-12  # a predator already at its goal neither turns nor moves
    heading = np.degrees(np.arctan2(offset[:, 1], offset[:, 0])) % 360.0
    pred.heading[:] = np.where(moves, heading, pred.heading)
    delta = offset * (step_len / np.maximum(goal_dist, step_len))[:, None]  # the whole offset within reach
    pred.position[:] = np.where(moves[:, None], _slide(pred.position, delta, cfg.predator_radius, cfg), pred.position)
    gap = pred.patrol_waypoint - pred.position
    for w in np.flatnonzero(patrol & (np.hypot(gap[:, 0], gap[:, 1]) <= 1e-9)):
        pred.patrol_waypoint[w] = _sample_free_position(state.rngs[w], cfg, cfg.predator_radius)
        pred.ticks_since_waypoint[w] = 0
    return pred


# ---------------------------------------------------------------------------
# perception

# Worlds per ray-vs-circle kernel call: its scratch arrays grow with the block,
# not with W (about 1.3 MiB at 8 default worlds).
_RAY_BLOCK_WORLDS = 8


def _ray_circle_hits(
    origins: np.ndarray, dirs: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Smallest non-negative ray parameter per (ray, circle); inf when missed.

    Each of P origins (P, 2) casts K rays dirs (P, K, 2) against its own
    circles centers (P, J, 2); returns (P, K, J). Rays starting inside a
    circle report t = 0. Origin-to-center terms are shared by an origin's rays.
    """
    ocx = origins[:, 0, None] - centers[..., 0]  # (P, J)
    ocy = origins[:, 1, None] - centers[..., 1]
    c0 = (ocx * ocx + ocy * ocy - radii**2)[:, None, :]
    b = dirs[..., 0, None] * ocx[:, None, :] + dirs[..., 1, None] * ocy[:, None, :]
    disc = b * b - c0
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    near = -b - sq
    far = -b + sq
    # the two cases are exclusive: hit ahead, or origin inside the circle
    return np.where(ok & (near >= 0.0), near, np.where(ok & (near < 0.0) & (far >= 0.0), 0.0, np.inf))


def _ray_wall_exit(origins: np.ndarray, dirs: np.ndarray, half: float) -> np.ndarray:
    """Distance at which each interior ray reaches the arena boundary."""
    with np.errstate(divide="ignore"):
        t_pos = (half - origins) / dirs
        t_neg = (-half - origins) / dirs
    t_all = np.where(dirs > 0.0, t_pos, np.where(dirs < 0.0, t_neg, np.inf))
    return t_all.min(axis=1)


def _raycast_rows(state: WorldState) -> tuple[np.ndarray, np.ndarray]:
    """Batched nearest-hit query for every ray of every prey of every world.

    Returns (one-hot kinds, normalized distances) of shape
    (W, n_prey, n_rays, N_HIT_KINDS) and (W, n_prey, n_rays). A ray tests only
    its own world's bodies, minus its own prey's body.
    """
    cfg = state.config
    n_worlds, n = state.prey_heading.shape
    n_rays = cfg.n_rays
    per_world = n * n_rays
    half_fov = cfg.ray_fov_degrees / 2.0
    angles = state.prey_heading[..., None] + np.linspace(-half_fov, half_fov, n_rays)
    dirs = _heading_vector(angles).reshape(-1, 2)
    origins = np.repeat(state.prey_pos, n_rays, axis=1).reshape(-1, 2)

    entry, exit_ = _slab_interval(origins, dirs, cfg)
    t_barrier = np.where((entry <= exit_) & (exit_ >= 0.0), np.maximum(entry, 0.0), np.inf)
    best_t = np.minimum(_ray_wall_exit(origins, dirs, cfg.half_side), t_barrier.min(axis=0, initial=np.inf))
    best_kind = np.full(len(best_t), HIT_WALL, dtype=np.int64)  # arena walls and barriers alike

    centers, radii, kinds = _circles(state, slice(None))
    own = state.point_pos.shape[1] + np.arange(n)  # a prey's rays never hit its own body
    dirs_by_prey = dirs.reshape(n_worlds * n, n_rays, 2)
    prey_origins = state.prey_pos.reshape(n_worlds * n, 2)
    for first in range(0, n_worlds, _RAY_BLOCK_WORLDS):
        worlds = np.arange(first, min(first + _RAY_BLOCK_WORLDS, n_worlds))
        prey = slice(first * n, (worlds[-1] + 1) * n)
        rays = slice(first * per_world, (worlds[-1] + 1) * per_world)
        world_of_prey = np.repeat(worlds, n)
        t = _ray_circle_hits(prey_origins[prey], dirs_by_prey[prey], centers[world_of_prey], radii)
        t[np.arange(len(t)), :, np.tile(own, len(worlds))] = np.inf
        t = t.reshape(-1, t.shape[-1])
        j_best = t.argmin(axis=1)
        t_best = t[np.arange(len(t)), j_best]
        closer = t_best < best_t[rays]
        best_t[rays] = np.where(closer, t_best, best_t[rays])
        best_kind[rays] = np.where(closer, kinds[np.repeat(world_of_prey, n_rays), j_best], best_kind[rays])

    missed = best_t > cfg.ray_length
    best_kind = np.where(missed, HIT_NOTHING, best_kind)
    distance = np.where(missed, 1.0, best_t / cfg.ray_length)

    onehot = np.zeros((len(best_t), N_HIT_KINDS))
    onehot[np.arange(len(best_t)), best_kind] = 1.0
    return onehot.reshape(n_worlds, n, n_rays, N_HIT_KINDS), distance.reshape(n_worlds, n, n_rays)


def observe_all(state: WorldState) -> np.ndarray:
    """Every prey's observation of its world: the (W, n_prey, obs_dim) policy input."""
    onehot, distance = _raycast_rows(state)
    ego = np.stack([state.prey_speed, state.prey_heading / 360.0], axis=-1)
    return observation_matrix(onehot, distance, ego)


def observation_matrix(onehot: np.ndarray, distance: np.ndarray, ego: np.ndarray) -> np.ndarray:
    """Pack per-ray (one-hot kind, distance) pairs, then the ego features, one row per prey.

    Takes (..., n_rays, N_HIT_KINDS), (..., n_rays) and (..., N_EGO_FEATURES).
    Row layout: for each ray, N_HIT_KINDS one-hot entries then its normalized
    distance (1.0 when nothing was hit); then normalized speed and heading / 360.
    """
    per_ray = np.concatenate([onehot, distance[..., None]], axis=-1)
    return np.concatenate([per_ray.reshape(*per_ray.shape[:-2], -1), ego], axis=-1)
