"""Deterministic 2D predator-prey world.

Square arena centered on the origin with axis-aligned rectangular barriers.
Prey move with a discrete two-branch action space (move none/forward x turn
none/left/right) and perceive through a fan of rays; the rule-based predator
chases the nearest prey inside its vision cone, otherwise patrols random
waypoints. Collected points respawn immediately; caught prey are penalised
and teleported, the run continues.

Conventions: the state is a handful of arrays indexed by entity, in reset
order: prey_pos (n_prey, 2), prey_heading and prey_speed (n_prey,),
point_pos (P, 2) and point_positive (P,), positives first. A prey's id is its
row; a point keeps its row when it respawns. Positions are float64 (x, y);
headings are degrees in [0, 360) with 0 along +x and counter-clockwise
positive; "left" turns increase the heading. Radii come from the config. All
randomness flows through the state's own generator, so a (config, seed,
action sequence) triple fully determines a run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

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
    seed: int = 0
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
    position: np.ndarray  # (2,)
    heading: float
    mode: str  # "patrol" | "chase"
    target_prey_id: int | None
    patrol_waypoint: np.ndarray
    ticks_since_waypoint: int = 0


@dataclass
class Event:
    tick: int
    kind: str
    prey_id: int


@dataclass(eq=False)
class WorldState:
    config: WorldConfig
    tick: int
    prey_pos: np.ndarray  # (n_prey, 2)
    prey_heading: np.ndarray  # (n_prey,)
    prey_speed: np.ndarray  # (n_prey,), 1.0 if the prey moved forward last tick
    predator: PredatorState | None
    point_pos: np.ndarray  # (P, 2)
    point_positive: np.ndarray  # (P,) bool
    rng: np.random.Generator
    event_log: list[Event] = field(default_factory=list)


def state_digest(state: WorldState) -> str:
    """Canonical hash of the full state, including the generator; equal digests => equal states."""
    h = hashlib.sha256()
    h.update(str(state.tick).encode())
    for i, (pos, heading) in enumerate(zip(state.prey_pos, state.prey_heading)):
        h.update(pos.tobytes())
        h.update(heading.tobytes())
        h.update(str(i).encode())
    if state.predator is not None:
        p = state.predator
        h.update(p.position.tobytes())
        h.update(np.float64(p.heading).tobytes())
        h.update(p.mode.encode())
        h.update(str(p.target_prey_id).encode())
        h.update(p.patrol_waypoint.tobytes())
        h.update(str(p.ticks_since_waypoint).encode())
    for pos, positive in zip(state.point_pos, state.point_positive):
        h.update(pos.tobytes())
        h.update(b"positive" if positive else b"negative")
    h.update(state.prey_speed.tobytes())
    h.update(json.dumps(state.rng.bit_generator.state, sort_keys=True, default=int).encode())
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
    """Entry and exit parameters of each line origins + t * dirs through each barrier, shape (B, R).

    Liang-Barsky slabs: a line parallel to an axis is unbounded by that slab
    when its origin lies strictly inside it, and misses the rectangle otherwise.
    """
    rects = np.asarray(cfg.barrier_layout, dtype=float).reshape(-1, 1, 4)
    lo, hi = rects[..., :2], rects[..., 2:]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - origins) / dirs
        t_hi = (hi - origins) / dirs
    flat = dirs == 0.0
    inside = (origins > lo) & (origins < hi)
    t_near = np.where(flat, np.where(inside, -np.inf, np.inf), np.minimum(t_lo, t_hi))
    t_far = np.where(flat, np.where(inside, np.inf, -np.inf), np.maximum(t_lo, t_hi))
    return t_near.max(axis=2), t_far.min(axis=2)


def _slide(x: float, y: float, dx: float, dy: float, radius: float, cfg: WorldConfig) -> tuple[float, float]:
    """Integrate one displacement with wall clamping and axis-separated barrier sliding.

    Barriers are inflated by the body radius, so the returned center is never
    inside a barrier and always at least `radius` from every wall.
    """
    limit = cfg.half_side - radius

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
    return tx, ty


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


def reset(config: WorldConfig, seed: int | None = None) -> WorldState:
    """Fresh world with uniformly random non-overlapping placements.

    Draw order: each prey's position then heading, the predator's position,
    heading and first waypoint, then the positive and the negative points.
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
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

    predator = None
    if config.predator_present:
        predator = PredatorState(
            position=centers[n_prey].copy(),
            heading=float(headings[n_prey]),
            mode="patrol",
            target_prey_id=None,
            patrol_waypoint=waypoint,
        )
    return WorldState(
        config=config,
        tick=0,
        prey_pos=centers[:n_prey].copy(),
        prey_heading=headings[:n_prey].copy(),
        prey_speed=np.zeros(n_prey),
        predator=predator,
        point_pos=centers[n_agents:].copy(),
        point_positive=np.arange(len(radii) - n_agents) < config.n_positive_points,
        rng=rng,
    )


def _circles(state: WorldState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every body as a circle, points then prey then the predator: (centers, radii, hit kinds)."""
    cfg = state.config
    n_points, n_prey = len(state.point_pos), len(state.prey_pos)
    n_pred = int(state.predator is not None)
    centers = np.concatenate(
        [state.point_pos, state.prey_pos] + ([state.predator.position[None, :]] if n_pred else [])
    )
    counts = [n_points, n_prey, n_pred]
    radii = np.repeat([cfg.point_radius, cfg.prey_radius, cfg.predator_radius], counts)
    kinds = np.repeat([HIT_NEGATIVE, HIT_PREY, HIT_PREDATOR], counts)
    kinds[:n_points][state.point_positive] = HIT_POSITIVE
    return centers, radii, kinds


def _respawn_position(state: WorldState, radius: float, skip_point: int | None = None) -> np.ndarray:
    """Free spot off every prey, the predator and every point except `skip_point`."""
    centers, radii, _ = _circles(state)
    if skip_point is not None:  # points lead the circle rows
        centers = np.delete(centers, skip_point, axis=0)
        radii = np.delete(radii, skip_point)
    return _sample_free_position(state.rng, state.config, radius, centers, radii)


def step(
    state: WorldState, prey_actions: list[int] | np.ndarray
) -> tuple[WorldState, np.ndarray, np.ndarray, list[Event]]:
    """Advance one tick: prey move, predator acts, pickups and catches resolve.

    Returns the mutated state, per-prey rewards, the (n_prey, obs_dim)
    observation matrix of the post-step world, and the events emitted this
    tick.
    """
    cfg = state.config
    space = prey_action_space()
    n_prey = len(state.prey_pos)
    actions = np.asarray(prey_actions)
    if actions.shape != (n_prey,):
        raise InputError(f"expected {n_prey} prey actions, got shape {actions.shape}")
    actions = actions.astype(np.int64)
    bad = np.flatnonzero((actions < 0) | (actions >= space.n_joint))
    if len(bad):
        i = bad[0]
        raise InputError(f"prey {i}: action index {actions[i]} outside [0, {space.n_joint})")
    tick = state.tick
    state.event_log = []
    rewards = np.zeros(n_prey)
    turn_step = cfg.prey_turn_speed * cfg.tick_dt
    move_step = cfg.prey_move_speed * cfg.tick_dt

    # Prey locomotion: turn, then move along the new heading.
    move, turn = space.decode(actions)
    heading = state.prey_heading
    heading[turn == 1] = (heading[turn == 1] + turn_step) % 360.0
    heading[turn == 2] = (heading[turn == 2] - turn_step) % 360.0
    for i in np.flatnonzero(move == 1):
        rad = math.radians(heading[i])
        x, y = state.prey_pos[i].tolist()
        state.prey_pos[i] = _slide(
            x, y, move_step * math.cos(rad), move_step * math.sin(rad), cfg.prey_radius, cfg
        )
    state.prey_speed[:] = move

    if state.predator is not None:
        predator_step(state)

    # Point pickups: contact means center distance within summed radii. The
    # distance matrix only nominates candidates; each hit is re-checked
    # against live positions because earlier pickups respawn points.
    prey_pos = state.prey_pos
    reach = cfg.prey_radius + cfg.point_radius
    d2 = ((prey_pos[:, None, :] - state.point_pos[None, :, :]) ** 2).sum(axis=-1)
    for i, j in zip(*np.nonzero(d2 <= reach * reach)):
        if np.hypot(*(prey_pos[i] - state.point_pos[j])) > reach:
            continue
        if state.point_positive[j]:
            rewards[i] += REWARD_POSITIVE
            state.event_log.append(Event(tick, EVENT_POSITIVE, int(i)))
        else:
            rewards[i] += REWARD_NEGATIVE
            state.event_log.append(Event(tick, EVENT_NEGATIVE, int(i)))
        state.point_pos[j] = _respawn_position(state, cfg.point_radius, skip_point=j)

    # Predator contact: penalty plus teleport to a free spot; the run continues.
    if state.predator is not None:
        pred_pos = state.predator.position
        contact = cfg.prey_radius + cfg.predator_radius
        d2 = ((prey_pos - pred_pos[None, :]) ** 2).sum(axis=-1)
        for i in np.flatnonzero(d2 <= contact**2):
            if np.hypot(*(prey_pos[i] - pred_pos)) > contact:
                continue
            rewards[i] += REWARD_CAUGHT
            state.event_log.append(Event(tick, EVENT_CAUGHT, int(i)))
            prey_pos[i] = _respawn_position(state, cfg.prey_radius)

    state.tick += 1
    return state, rewards, observe_all(state), list(state.event_log)


# ---------------------------------------------------------------------------
# predator policy


def visible_prey(state: WorldState) -> np.ndarray:
    """Indices of prey within view radius, inside the vision cone, and unoccluded by barriers."""
    if state.predator is None:
        raise ContractViolation("visible_prey called with no predator in the world")
    pred = state.predator
    offsets = state.prey_pos - pred.position
    dist = np.hypot(offsets[:, 0], offsets[:, 1])
    bearing = np.degrees(np.arctan2(offsets[:, 1], offsets[:, 0]))
    rel = (bearing - pred.heading + 180.0) % 360.0 - 180.0
    in_cone = np.flatnonzero(
        (dist <= state.config.predator_view_radius) & (np.abs(rel) <= state.config.predator_view_angle / 2.0)
    )
    if len(in_cone) == 0:
        return in_cone
    # the sight line is the segment t in [0, 1] from the predator to each prey
    entry, exit_ = _slab_interval(pred.position, offsets[in_cone], state.config)
    occluded = (np.maximum(entry, 0.0) < np.minimum(exit_, 1.0)).any(axis=0)
    return in_cone[~occluded]


def predator_step(state: WorldState) -> PredatorState:
    """Chase the nearest visible prey, otherwise patrol toward a random waypoint."""
    if state.predator is None:
        raise ContractViolation("predator_step called with no predator in the world")
    cfg = state.config
    pred = state.predator
    step_len = cfg.predator_move_speed * cfg.tick_dt

    visible = visible_prey(state)
    if len(visible):
        offsets = state.prey_pos[visible] - pred.position
        dists = np.hypot(offsets[:, 0], offsets[:, 1])
        target = int(visible[np.argmin(dists)])  # argmin takes the lowest id on ties
        pred.mode = "chase"
        pred.target_prey_id = target
        goal = state.prey_pos[target]
    else:
        pred.mode = "patrol"
        pred.target_prey_id = None
        pred.ticks_since_waypoint += 1
        if pred.ticks_since_waypoint > _PATROL_STALL_TICKS:
            pred.patrol_waypoint = _sample_free_position(state.rng, cfg, cfg.predator_radius)
            pred.ticks_since_waypoint = 0
        goal = pred.patrol_waypoint

    offset = goal - pred.position
    dist = float(np.hypot(*offset))
    if dist > 1e-12:
        pred.heading = float(np.degrees(np.arctan2(offset[1], offset[0]))) % 360.0
        delta = offset if dist <= step_len else offset * (step_len / dist)
        pred.position = np.array(_slide(*pred.position.tolist(), *delta.tolist(), cfg.predator_radius, cfg))
    if pred.mode == "patrol" and float(np.hypot(*(pred.patrol_waypoint - pred.position))) <= 1e-9:
        pred.patrol_waypoint = _sample_free_position(state.rng, cfg, cfg.predator_radius)
        pred.ticks_since_waypoint = 0
    return pred


# ---------------------------------------------------------------------------
# perception


def _ray_circle_hits(
    origins: np.ndarray, dirs: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> np.ndarray:
    """Smallest non-negative ray parameter per (ray, circle); inf when missed.

    Rays starting inside a circle report t = 0.
    """
    oc = origins[:, None, :] - centers[None, :, :]  # (R, J, 2)
    b = np.einsum("rd,rjd->rj", dirs, oc)
    c0 = np.einsum("rjd,rjd->rj", oc, oc) - radii[None, :] ** 2
    disc = b * b - c0
    t = np.full(disc.shape, np.inf)
    ok = disc >= 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    near = -b - sq
    far = -b + sq
    t = np.where(ok & (near >= 0.0), near, t)
    t = np.where(ok & (near < 0.0) & (far >= 0.0), 0.0, t)
    return t


def _ray_wall_exit(origins: np.ndarray, dirs: np.ndarray, half: float) -> np.ndarray:
    """Distance at which each interior ray reaches the arena boundary."""
    with np.errstate(divide="ignore"):
        t_pos = (half - origins) / dirs
        t_neg = (-half - origins) / dirs
    t_all = np.where(dirs > 0.0, t_pos, np.where(dirs < 0.0, t_neg, np.inf))
    return t_all.min(axis=1)


def _raycast_rows(state: WorldState) -> tuple[np.ndarray, np.ndarray]:
    """Batched nearest-hit query for every ray of every prey.

    Returns (one-hot kinds, normalized distances) of shape
    (n_prey, n_rays, N_HIT_KINDS) and (n_prey, n_rays). Each prey's own body
    is masked out of the circle set.
    """
    cfg = state.config
    n = len(state.prey_pos)
    n_rays = cfg.n_rays
    half_fov = cfg.ray_fov_degrees / 2.0
    angles = state.prey_heading[:, None] + np.linspace(-half_fov, half_fov, n_rays)[None, :]
    dirs = _heading_vector(angles).reshape(n * n_rays, 2)
    origins = np.repeat(state.prey_pos, n_rays, axis=0)

    entry, exit_ = _slab_interval(origins, dirs, cfg)
    t_barrier = np.where((entry <= exit_) & (exit_ >= 0.0), np.maximum(entry, 0.0), np.inf)
    best_t = np.minimum(_ray_wall_exit(origins, dirs, cfg.half_side), t_barrier.min(axis=0, initial=np.inf))
    best_kind = np.full(n * n_rays, HIT_WALL, dtype=np.int64)  # arena walls and barriers alike

    centers, radii, kinds = _circles(state)
    rows = np.arange(n * n_rays)
    t = _ray_circle_hits(origins, dirs, centers, radii)
    t[rows, len(state.point_pos) + rows // n_rays] = np.inf  # a prey's rays never hit its own body
    j_best = t.argmin(axis=1)
    t_best = t[rows, j_best]
    closer = t_best < best_t
    best_t = np.where(closer, t_best, best_t)
    best_kind = np.where(closer, kinds[j_best], best_kind)

    missed = best_t > cfg.ray_length
    best_kind = np.where(missed, HIT_NOTHING, best_kind)
    distance = np.where(missed, 1.0, best_t / cfg.ray_length)

    onehot = np.zeros((n * n_rays, N_HIT_KINDS))
    onehot[rows, best_kind] = 1.0
    return onehot.reshape(n, n_rays, N_HIT_KINDS), distance.reshape(n, n_rays)


def observe_all(state: WorldState) -> np.ndarray:
    """Every prey's observation of the current world: the (n_prey, obs_dim) policy input."""
    onehot, distance = _raycast_rows(state)
    ego = np.column_stack([state.prey_speed, state.prey_heading / 360.0])
    return observation_matrix(onehot, distance, ego)


def observation_matrix(onehot: np.ndarray, distance: np.ndarray, ego: np.ndarray) -> np.ndarray:
    """Pack per-ray (one-hot kind, distance) pairs, then the ego features, one row per prey.

    Row layout: for each ray, N_HIT_KINDS one-hot entries then its normalized
    distance (1.0 when nothing was hit); then normalized speed and heading / 360.
    """
    per_ray = np.concatenate([onehot, distance[:, :, None]], axis=2)
    return np.concatenate([per_ray.reshape(len(per_ray), -1), ego], axis=1)
