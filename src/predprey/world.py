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
the moving bodies a barrier can stop. One sampler, _place, makes every random
placement, one world after another with a rejection loop each: body k of every
world a reset draws, every predator due a new waypoint, and each pickup's or
catch's respawn. Each world draws all its randomness from its own generator
(state.rngs[w]) in the order it would alone, so a world's run depends only on
its (config, seed, action sequence), never on W or on the other worlds, and a
W-world step equals W one-world steps bit for bit.

Contacts resolve once every body has moved. A prey collects a point, and the
predator catches a prey, when their centers lie within the summed radii. The
squared distances of the x and y offset planes nominate the pairs, and one
vector np.hypot confirms them. Pairs resolve in (world, prey, point) order. A
pickup respawns its point at once, so a later pair with that point is
confirmed again against the point's live position. A caught prey teleports,
which moves no body of another pair, so catches need no such re-check.

step returns a tick's events as one record array of EVENT_DTYPE, a row
(world, prey_id, kind) per pickup or catch, with kind one of EVENT_POSITIVE,
EVENT_NEGATIVE and EVENT_CAUGHT (0, 1, 2, also the column order of a run's
totals). Rows go world by world and, within a world, in the order that world
resolves them alone: its pickups by (prey, point), then its catches. A tick
without events returns one shared, read-only empty array.

A WorldState computes the constants of its config and body counts once, when
it is built. Ray casting tests every barrier and the arena in one slab pass:
the arena is an inverted slab that holds every prey and that a ray leaves at
its exit parameter. A ray-vs-circle pass, culled by angular window, follows.
observe_all hands out what the rays saw as compact arrays, a uint8 hit kind
and a distance per ray plus the ego features; observation_matrix alone packs
them into the policy's dense rows, and nothing unpacks a dense row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, ContractViolation, InputError

# Reward structure: foraging a positive point, foraging a negative point,
# being caught by the predator.
REWARD_POSITIVE = 1.0
REWARD_NEGATIVE = -0.2
REWARD_CAUGHT = -1.0

# Event kinds, in the column order of a run's totals; step returns events as EVENT_DTYPE records.
EVENT_POSITIVE, EVENT_NEGATIVE, EVENT_CAUGHT = 0, 1, 2
EVENT_DTYPE = np.dtype([("world", np.int64), ("prey_id", np.int64), ("kind", np.int64)])
_NO_EVENTS = np.recarray(0, dtype=EVENT_DTYPE)
_NO_EVENTS.flags.writeable = False

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
_SLIDE_NOMINATE_BODIES = 16  # past this, nominating (~30 us) beats _slide's loop (~2 us a body), measured


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
        angles = ("predator_view_angle", "ray_fov_degrees")  # checked on their own below
        for f in fields(self):  # f.type is the annotation's text, as annotations are postponed here
            value = getattr(self, f.name)
            if f.type in ("int", "float") and f.name not in angles and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{f.name} must be finite and strictly positive, got {value}")
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
    # Constants of the config and the body counts, computed once at construction for every tick.
    ray_offsets: np.ndarray = field(init=False, repr=False)  # (n_rays,) degrees off the heading
    slab_lo: np.ndarray = field(init=False, repr=False)  # (B + 1, 2, 1, 1): barriers, then the arena
    slab_hi: np.ndarray = field(init=False, repr=False)
    circle_radii: np.ndarray = field(init=False, repr=False)  # (J,) points, then prey, then the predator
    circle_radii_sq: np.ndarray = field(init=False, repr=False)
    circle_kinds: np.ndarray = field(init=False, repr=False)  # (J,) with every point HIT_NEGATIVE
    own_circle: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)  # (prey row, its circle column)
    turn_deg: np.ndarray = field(init=False, repr=False)  # (3,) heading change per turn action

    def __post_init__(self) -> None:
        cfg = self.config
        n_prey, n_points = self.prey_pos.shape[1], self.point_pos.shape[1]
        half_fov, half = cfg.ray_fov_degrees / 2.0, cfg.half_side
        self.ray_offsets = np.linspace(-half_fov, half_fov, cfg.n_rays)
        rects = np.array(cfg.barrier_layout + ((-half, -half, half, half),)).reshape(-1, 2, 2, 1, 1)
        self.slab_lo, self.slab_hi = rects[:, 0], rects[:, 1]
        counts = [n_points, n_prey, int(self.predator is not None)]
        self.circle_radii = np.repeat([cfg.point_radius, cfg.prey_radius, cfg.predator_radius], counts)
        self.circle_radii_sq = self.circle_radii**2
        self.circle_kinds = np.repeat([HIT_NEGATIVE, HIT_PREY, HIT_PREDATOR], counts)
        self.own_circle = (np.arange(n_prey), n_points + np.arange(n_prey))
        turn_step = cfg.prey_turn_speed * cfg.tick_dt
        self.turn_deg = np.array([0.0, turn_step, -turn_step])

    @property
    def n_worlds(self) -> int:
        return len(self.prey_pos)


# ---------------------------------------------------------------------------
# action space


@dataclass(frozen=True)
class ActionSpace:
    """Two discrete branches, jointly encoded row-major: joint = move * 3 + turn."""

    move_labels: tuple[str, ...] = ("none", "forward")
    turn_labels: tuple[str, ...] = ("none", "left", "right")

    @property
    def n_joint(self) -> int:
        return len(self.move_labels) * len(self.turn_labels)

    def encode(self, move: int, turn: int) -> int:
        return move * len(self.turn_labels) + turn

    def decode(self, joint: int) -> tuple[int, int]:
        return joint // len(self.turn_labels), joint % len(self.turn_labels)


_PREY_ACTIONS = ActionSpace()


def prey_action_space() -> ActionSpace:
    return _PREY_ACTIONS


# ---------------------------------------------------------------------------
# geometry helpers


def _slab_interval(lo: np.ndarray, hi: np.ndarray, origins: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry and exit parameters of the lines origins + t * dirs through each rectangle, shape (rects, R, K).

    lo, hi are the (rects, 2, 1, 1) corners; origins (2, R, 1) and dirs (2, R, K)
    put the axis first. A zero direction component divides by zero: strictly
    inside that slab it gives infinities of opposite sign, which do not bound
    the line; outside, infinities of one sign or NaN (on a face), so every test
    a caller makes of a hit fails. Callers silence numpy's divide and invalid warnings.
    """
    t_lo = (lo - origins) / dirs
    t_hi = (hi - origins) / dirs
    return np.minimum(t_lo, t_hi).max(axis=1), np.maximum(t_lo, t_hi).min(axis=1)


def _slide(pos: np.ndarray, dx: np.ndarray, dy: np.ndarray, radius: float, cfg: WorldConfig) -> np.ndarray:
    """Move positions (k, 2) by (dx, dy), each (k,), with wall clamping and axis-separated barrier sliding.

    Barriers are inflated by the body radius, so every returned center is
    outside every barrier and at least `radius` from every wall. Bodies move one at
    a time in Python floats: each barrier depends on where the last one stopped the
    body. Past _SLIDE_NOMINATE_BODIES, a numpy wall clamp moves all, then the loop
    those whose swept box meets a barrier.
    """
    limit = cfg.half_side - radius
    out = np.empty_like(pos)
    moved = range(len(pos))
    if len(pos) > _SLIDE_NOMINATE_BODIES:
        out[:] = np.minimum(limit, np.maximum(-limit, pos + np.stack((dx, dy), axis=1)))
        rects = np.array(cfg.barrier_layout).reshape(-1, 1, 4) + [-radius, -radius, radius, radius]  # (B, 1, 4)
        meets = (np.minimum(pos, out) <= rects[..., 2:]) & (np.maximum(pos, out) >= rects[..., :2])  # swept boxes
        moved = np.flatnonzero(meets.all(axis=2).any(axis=0)).tolist()
    positions, dxs, dys = pos.tolist(), dx.tolist(), dy.tolist()
    for k in moved:
        (x, y), dx_k, dy_k = positions[k], dxs[k], dys[k]
        # X sweep.
        tx = min(limit, max(-limit, x + dx_k))
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
        ty = min(limit, max(-limit, y + dy_k))
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


def _place(rngs: list[np.random.Generator], cfg: WorldConfig, radius: float, centers=None, radii=None) -> np.ndarray:
    """One free spot per generator, (len(rngs), 2): wall clearance, outside inflated barriers, off the given bodies.

    centers (len(rngs), J, 2) holds each generator's bodies and radii (J,) their radii; a radius of -inf leaves
    a body out. Each generator in turn draws two uniforms an attempt until a spot is free, as in its world alone.
    """
    limit = cfg.half_side - radius
    if limit <= 0:
        raise ConfigError(f"arena side {cfg.arena_side} too small for body radius {radius}")
    rects = [(x0 - radius, y0 - radius, x1 + radius, y1 + radius) for x0, y0, x1, y1 in cfg.barrier_layout]
    out = np.empty((len(rngs), 2))
    for w, rng in enumerate(rngs):
        for _ in range(_PLACEMENT_ATTEMPTS):
            p = rng.uniform(-limit, limit, size=2)
            x, y = p.tolist()  # Python floats: numpy's per-call cost exceeds this loop's
            if any(x0 < x < x1 and y0 < y < y1 for x0, y0, x1, y1 in rects):
                continue
            if centers is not None and (np.hypot(*(p - centers[w]).T) < radius + radii).any():
                continue
            out[w] = p
            break
        else:
            placed = 0 if centers is None else centers.shape[1]
            raise ConfigError(f"arena too crowded: no free spot for body radius {radius} among {placed} placed bodies")
    return out


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
    reset_worlds(state, np.arange(n_worlds), seeds)
    return state


def reset_worlds(state: WorldState, worlds: np.ndarray, seeds) -> None:
    """Redraw `worlds` (an int array) in place at tick 0, worlds[i] on a new generator seeded with seeds[i].

    One _place call places body k of every world. Each world's draw order: each prey's position then
    heading, the predator's position, heading and first waypoint, then the positive and the negative points.
    """
    config = state.config
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n_prey = config.n_prey
    n_agents = n_prey + int(config.predator_present)
    radii = np.repeat(
        [config.prey_radius, config.predator_radius, config.point_radius],
        [n_prey, n_agents - n_prey, config.n_positive_points + config.n_negative_points],
    )
    centers = np.empty((len(rngs), len(radii), 2))
    headings = np.empty((len(rngs), n_agents))
    for k in range(len(radii)):
        centers[:, k] = _place(rngs, config, radii[k], centers[:, :k], radii[:k])
        if k < n_agents:
            headings[:, k] = [rng.uniform(0.0, 360.0) for rng in rngs]
        if k == n_prey and config.predator_present:  # the waypoint ignores every body
            waypoints = _place(rngs, config, config.predator_radius)

    if state.predator is not None:
        pred = state.predator
        pred.position[worlds] = centers[:, n_prey]
        pred.heading[worlds] = headings[:, n_prey]
        pred.chasing[worlds] = False
        pred.target_prey_id[worlds] = -1
        pred.patrol_waypoint[worlds] = waypoints
        pred.ticks_since_waypoint[worlds] = 0
    state.tick[worlds] = 0
    state.prey_pos[worlds] = centers[:, :n_prey]
    state.prey_heading[worlds] = headings[:, :n_prey]
    state.prey_speed[worlds] = 0.0
    state.point_pos[worlds] = centers[:, n_agents:]
    state.point_positive[worlds] = np.arange(len(radii) - n_agents) < config.n_positive_points
    for w, rng in zip(worlds.tolist(), rngs):
        state.rngs[w] = rng


def _circles(state: WorldState, world: int | slice) -> np.ndarray:
    """Centers (..., J, 2) of the bodies of `world` (an index or a slice of worlds) as circles.

    Points, then prey, then the predator; state.circle_radii holds their radii.
    """
    parts = [state.point_pos[world], state.prey_pos[world]]
    if state.predator is not None:
        parts.append(state.predator.position[world][..., None, :])
    return np.concatenate(parts, axis=-2)


def step(
    state: WorldState, prey_actions: np.ndarray
) -> tuple[WorldState, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray], np.recarray]:
    """Advance every world one tick: prey move, predators act, pickups and catches resolve.

    `prey_actions` is (W, n_prey). Returns the mutated state, the (W, n_prey)
    rewards, observe_all's (kinds, distances, ego) of the post-step worlds,
    and this tick's events as an EVENT_DTYPE record array of (world, prey_id,
    kind) rows: world by world, each world's pickups in (prey, point) order,
    then its catches (see the module docstring).
    """
    cfg = state.config
    space = _PREY_ACTIONS
    shape = state.prey_heading.shape
    actions = np.asarray(prey_actions)
    if actions.shape != shape:
        raise InputError(f"expected prey actions of shape {shape}, got {actions.shape}")
    if not np.issubdtype(actions.dtype, np.integer):  # a cast would truncate floats and take True as 1
        raise InputError(f"prey actions must be integer action indices, got dtype {actions.dtype}")
    bad = (actions < 0) | (actions >= space.n_joint)  # on the array as given: a cast could wrap a huge index
    if bad.any():
        w, i = np.argwhere(bad)[0]
        raise InputError(f"world {w}, prey {i}: action index {actions[w, i]} outside [0, {space.n_joint})")
    actions = actions.astype(np.int64)
    rewards = np.zeros(shape)
    events = []  # (world, prey_id, kind) rows, pickups before catches
    move_step = cfg.prey_move_speed * cfg.tick_dt

    # Prey locomotion: turn, then move along the new heading.
    move, turn = space.decode(actions)
    heading = state.prey_heading
    np.copyto(heading, (heading + state.turn_deg[turn]) % 360.0, where=turn != 0)
    moving = move == 1
    rad = np.deg2rad(heading[moving])
    dx, dy = move_step * np.cos(rad), move_step * np.sin(rad)
    state.prey_pos[moving] = _slide(state.prey_pos[moving], dx, dy, cfg.prey_radius, cfg)
    state.prey_speed[:] = move

    if state.predator is not None:
        predator_step(state)

    # Point pickups, in (world, prey, point) order: see the module docstring.
    prey_pos, point_pos = state.prey_pos, state.point_pos
    reach = cfg.prey_radius + cfg.point_radius
    dx = prey_pos[:, :, None, 0] - point_pos[:, None, :, 0]  # (W, n_prey, P)
    dy = prey_pos[:, :, None, 1] - point_pos[:, None, :, 1]
    pairs = np.nonzero(dx * dx + dy * dy <= reach * reach)
    touched = np.hypot(dx[pairs], dy[pairs]) <= reach
    respawned = set()  # (world, point) moved by an earlier pickup of this tick
    for w, i, j, touch in zip(*(a.tolist() for a in pairs), touched.tolist()):
        if (w, j) in respawned:
            touch = np.hypot(*(prey_pos[w, i] - point_pos[w, j])) <= reach
        if not touch:
            continue
        positive = state.point_positive[w, j]
        rewards[w, i] += REWARD_POSITIVE if positive else REWARD_NEGATIVE
        events.append((w, i, EVENT_POSITIVE if positive else EVENT_NEGATIVE))
        radii, world = state.circle_radii.copy(), slice(w, w + 1)
        radii[j] = -np.inf  # the point is no obstacle to itself; points lead the circles
        point_pos[w, j] = _place(state.rngs[world], cfg, cfg.point_radius, _circles(state, world), radii)[0]
        respawned.add((w, j))

    # Predator contact: penalty plus teleport to a free spot; the run continues.
    if state.predator is not None:
        pred_pos = state.predator.position
        contact = cfg.prey_radius + cfg.predator_radius
        dx = prey_pos[..., 0] - pred_pos[:, None, 0]  # (W, n_prey)
        dy = prey_pos[..., 1] - pred_pos[:, None, 1]
        pairs = np.nonzero(dx * dx + dy * dy <= contact**2)
        caught = np.hypot(dx[pairs], dy[pairs]) <= contact
        for w, i in zip(*(a[caught].tolist() for a in pairs)):
            rewards[w, i] += REWARD_CAUGHT
            events.append((w, i, EVENT_CAUGHT))
            world = slice(w, w + 1)
            prey_pos[w, i] = _place(state.rngs[world], cfg, cfg.prey_radius, _circles(state, world), state.circle_radii)[0]

    state.tick += 1
    events.sort(key=lambda row: row[0])  # stable: each world keeps its own order
    return state, rewards, observe_all(state), np.rec.fromrecords(events, dtype=EVENT_DTYPE) if events else _NO_EVENTS


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
        with np.errstate(divide="ignore", invalid="ignore"):
            lo, hi = state.slab_lo[:-1], state.slab_hi[:-1]  # the barriers, without the arena
            entry, exit_ = _slab_interval(lo, hi, pred.position[w].T[..., None], offsets[w, i].T[..., None])
            visible[w, i] = ~(np.maximum(entry, 0.0) < np.minimum(exit_, 1.0)).any(axis=0)[:, 0]
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
    stalled = np.flatnonzero(patrol & (pred.ticks_since_waypoint > _PATROL_STALL_TICKS)).tolist()
    pred.patrol_waypoint[stalled] = _place([state.rngs[w] for w in stalled], cfg, cfg.predator_radius)
    pred.ticks_since_waypoint[stalled] = 0
    goal = np.where(chasing[:, None], state.prey_pos[np.arange(len(target)), target], pred.patrol_waypoint)

    offset = goal - pred.position
    goal_dist = np.hypot(offset[:, 0], offset[:, 1])
    moves = goal_dist > 1e-12  # a predator already at its goal neither turns nor moves
    heading = np.degrees(np.arctan2(offset[:, 1], offset[:, 0])) % 360.0
    pred.heading[:] = np.where(moves, heading, pred.heading)
    delta = offset * (step_len / np.maximum(goal_dist, step_len))[:, None]  # the whole offset within reach
    slid = _slide(pred.position, delta[:, 0], delta[:, 1], cfg.predator_radius, cfg)
    pred.position[:] = np.where(moves[:, None], slid, pred.position)
    gap = pred.patrol_waypoint - pred.position
    arrived = np.flatnonzero(patrol & (np.hypot(gap[:, 0], gap[:, 1]) <= 1e-9)).tolist()
    pred.patrol_waypoint[arrived] = _place([state.rngs[w] for w in arrived], cfg, cfg.predator_radius)
    pred.ticks_since_waypoint[arrived] = 0
    return pred


# ---------------------------------------------------------------------------
# perception

# (prey, ray, circle) triples up to which testing every one beats culling's ~45 numpy
# calls, measured on a 2-core x86-64 host; a default world has 1,782.
_DENSE_TRIPLES = 9_000
_WINDOW_MARGIN = 1e-5  # radians widening every angular window; rounding moves a hit by under 1e-7
# Row k: kind k's one-hot cells; np.take of its rows runs about 4x faster than a broadcast compare.
_ONE_HOT = np.eye(N_HIT_KINDS, dtype=bool)


def _ray_t(dx: np.ndarray, dy: np.ndarray, ocx: np.ndarray, ocy: np.ndarray, c0: np.ndarray) -> np.ndarray:
    """Ray parameter to circles at offsets oc with c0 = |oc|^2 - r^2: 0 inside, inf on a miss; both passes share it."""
    b = dx * ocx + dy * ocy
    sq = np.sqrt(b * b - c0)  # NaN where the ray's line misses the circle
    near = -b - sq
    # hit ahead, else origin inside the circle, else a miss (NaN compares false)
    return np.where(near >= 0.0, near, np.where(sq - b >= 0.0, 0.0, np.inf))


def _window_triples(state: WorldState, ocx: np.ndarray, ocy: np.ndarray, c0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (prey-circle pair, ray) indices of the triples whose ray can reach its circle, pairs ascending.

    A circle seen from outside spans atan(r / sqrt(c0)) <= r / sqrt(c0) radians either side of its bearing. Every
    ray counts from inside, or where this window could wrap past the fan or the fan has no width; none at the own body.
    """
    fan = state.ray_offsets
    n_rays, span = len(fan), np.deg2rad(fan[-1] - fan[0])  # ray k sits at -span/2 + k * step off the middle
    step = max(abs(span) / max(n_rays - 1, 1), 1e-9)  # rays closer than 1e-9 all but coincide: every one counts
    reach = (np.pi - abs(span) / 2.0) / step if step > 1e-9 else -np.inf  # the widest window that cannot wrap
    mid = np.deg2rad(state.prey_heading + (fan[0] + fan[-1]) / 2.0)[..., None]
    back_x, back_y = -np.cos(mid), -np.sin(mid)  # oc points from the circle back to the prey
    bearing = np.arctan2(ocy * back_x - ocx * back_y, ocx * back_x + ocy * back_y)  # off the middle ray
    at = (bearing + span / 2.0) / np.copysign(step, span)  # in ray indices
    half = state.circle_radii / step / np.sqrt(c0) + _WINDOW_MARGIN / step  # NaN inside, inf on the rim
    half = np.where(half < reach, half, np.inf)
    lo = np.maximum(np.ceil(at - half), 0.0)
    count = np.maximum(np.minimum(np.floor(at + half) + 1.0, n_rays) - lo, 0.0).astype(np.int64)
    count[:, state.own_circle[0], state.own_circle[1]] = 0
    pair = np.repeat(np.arange(count.size), count.ravel())
    k = lo.ravel()[pair].astype(np.int64) + np.arange(len(pair)) - (np.cumsum(count) - count.ravel())[pair]
    return pair, pair // c0.shape[-1] * n_rays + k


def _nearest_circles(state: WorldState, dx: np.ndarray, dy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest circle per ray of every prey, rays (W, n, K) along (dx, dy).

    Returns the smallest non-negative ray parameter (inf, with any kind, when every circle is missed)
    and the hit kind, each (W, n, K). A ray starting inside a circle reports t = 0; a prey's rays skip
    its own body; the lowest circle index wins a tie. Large batches test only _window_triples.
    """
    circles = _circles(state, slice(None))  # (W, J, 2)
    ocx = state.prey_pos[..., 0, None] - circles[:, None, :, 0]  # (W, n, J)
    ocy = state.prey_pos[..., 1, None] - circles[:, None, :, 1]
    c0 = ocx * ocx + ocy * ocy - state.circle_radii_sq
    c0[:, state.own_circle[0], state.own_circle[1]] = np.inf  # no real root: the own body is never hit
    n_worlds, n_circles = len(c0), c0.shape[-1]
    if dx.size * n_circles <= _DENSE_TRIPLES:
        t = _ray_t(dx[..., None], dy[..., None], ocx[:, :, None, :], ocy[:, :, None, :], c0[:, :, None, :])
        rows = t.reshape(-1, n_circles)
        j_best = rows.argmin(axis=1)  # the lowest circle index on ties
        t_best = rows[np.arange(len(rows)), j_best]
    else:
        pair, ray = _window_triples(state, ocx, ocy, c0)
        t = _ray_t(dx.ravel()[ray], dy.ravel()[ray], ocx.ravel()[pair], ocy.ravel()[pair], c0.ravel()[pair])
        t_best = np.full(dx.size, np.inf)
        np.minimum.at(t_best, ray, t)
        best = t == t_best[ray]  # of these, the lowest circle index wins
        j_best = np.full(dx.size, n_circles - 1)
        np.minimum.at(j_best, ray[best], pair[best] % n_circles)
    j_best = j_best.reshape(dx.shape)
    # the template reads HIT_NEGATIVE at every point; a positive one reads HIT_POSITIVE, one lower
    positive = state.point_positive
    padded = np.concatenate((positive, np.zeros((n_worlds, n_circles - positive.shape[1]), bool)), axis=1)
    return t_best.reshape(dx.shape), state.circle_kinds[j_best] - padded[np.arange(n_worlds)[:, None, None], j_best]


def _raycast_rows(state: WorldState) -> tuple[np.ndarray, np.ndarray]:
    """Batched nearest-hit query for every ray of every prey of every world.

    Returns the uint8 hit kinds and the normalized distances (1.0 when nothing
    was hit), each (W, n_prey, n_rays). A ray tests only its own world's
    bodies, minus its own prey's body. The arena is the last slab: every prey
    lies strictly inside it, so a ray leaves it at its exit parameter, where
    each barrier blocks a ray from its entry parameter.
    """
    cfg = state.config
    n_worlds, n = state.prey_heading.shape
    rad = np.deg2rad(state.prey_heading.reshape(-1, 1) + state.ray_offsets)  # (W * n, K)
    dirs = np.empty((2, *rad.shape))
    np.cos(rad, out=dirs[0])
    np.sin(rad, out=dirs[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        origins = state.prey_pos.reshape(-1, 2).T[..., None]
        entry, exit_ = _slab_interval(state.slab_lo, state.slab_hi, origins, dirs)  # (B + 1, W * n, K)
        t_rect = np.where((entry <= exit_) & (exit_ >= 0.0), np.maximum(entry, 0.0), np.inf)
        t_rect[-1] = exit_[-1]
        best_t = t_rect.min(axis=0).reshape(n_worlds, n, -1)
        t_circle, kind = _nearest_circles(state, *dirs.reshape(2, n_worlds, n, -1))
    closer = t_circle < best_t
    best_t = np.where(closer, t_circle, best_t)
    missed = best_t > cfg.ray_length
    kind = np.where(missed, HIT_NOTHING, np.where(closer, kind, HIT_WALL))  # arena walls and barriers alike
    distance = np.where(missed, 1.0, best_t / cfg.ray_length)
    return kind.astype(np.uint8), distance


def observe_all(state: WorldState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every prey's view of its world: (kinds, distances, ego).

    kinds (W, n_prey, n_rays) is each ray's uint8 hit kind and distances the same
    shape of normalized hit distances, 1.0 when nothing was hit; ego (W, n_prey,
    N_EGO_FEATURES) holds the normalized speed and heading / 360.
    observation_matrix packs them into the policy's dense rows.
    """
    kinds, distances = _raycast_rows(state)
    return kinds, distances, np.stack((state.prey_speed, state.prey_heading / 360.0), axis=-1)


def observation_matrix(kinds: np.ndarray, distances: np.ndarray, ego: np.ndarray) -> np.ndarray:
    """The policy's dense (..., obs_dim) rows of what observe_all returns, one row per prey.

    Takes kinds and distances (..., n_rays) and ego (..., N_EGO_FEATURES) and
    writes them into one new array. Row layout: for each ray, N_HIT_KINDS
    one-hot entries then its distance; then the ego features. This is the only
    place a dense row is built.
    """
    *lead, n_rays = distances.shape
    width = n_rays * (N_HIT_KINDS + 1)
    out = np.empty((*lead, width + ego.shape[-1]))
    per_ray = out[..., :width].reshape(*lead, n_rays, N_HIT_KINDS + 1)  # a view of out
    per_ray[..., :N_HIT_KINDS] = np.take(_ONE_HOT, kinds, axis=0)
    per_ray[..., N_HIT_KINDS] = distances
    out[..., width:] = ego
    return out
