"""Shared helpers: hand-placed world states, world stacking, world digests, flat net parameters, the
independent vision, body-sliding, trajectory-writer, trajectory-reader, KDE and row-CSV-writer oracles, and a
failing file."""

import copy
import csv
import hashlib
import json
import math
from dataclasses import fields

import numpy as np
from scipy.special import erf

from predprey.errors import StructuralError
from predprey.net import DenseNet
from predprey.stats import cohens_d, one_way_anova, task_efficiency
from predprey.trajectory import ALL_KINDS, CSV_HEADER, TrajectoryTable
from predprey.world import ActionSpace, PredatorState, WorldConfig, WorldState


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


def branch_sizes(space: ActionSpace) -> tuple[int, int]:
    return (len(space.move_labels), len(space.turn_labels))


def get_flat(net: DenseNet) -> np.ndarray:
    """A copy of the net's parameter vector."""
    return net.flat.copy()


def set_flat(net: DenseNet, flat: np.ndarray) -> None:
    if np.shape(flat) != net.flat.shape:
        raise StructuralError(f"flat vector has shape {np.shape(flat)}, net has {net.flat.size} parameters")
    net.flat[...] = flat


def copy_net(net: DenseNet) -> DenseNet:
    """A net with its own copy of the parameters."""
    return DenseNet(net.layer_sizes, net.flat)


def make_state(cfg: WorldConfig, prey_specs, predator_spec=None, points=(), seed=0) -> WorldState:
    """Hand-placed one-world state for geometry tests; bypasses random placement.

    prey_specs: ((x, y), heading) per prey; predator_spec: ((x, y), heading)
    or None; points: ((x, y), "positive" | "negative") per point.
    """
    predator = None
    if predator_spec is not None:
        pos, heading = predator_spec
        predator = PredatorState(
            position=np.array([pos], dtype=float),
            heading=np.array([heading], dtype=float),
            chasing=np.zeros(1, dtype=bool),
            target_prey_id=np.full(1, -1),
            patrol_waypoint=np.zeros((1, 2)),
            ticks_since_waypoint=np.zeros(1, dtype=np.int64),
        )
    return WorldState(
        config=cfg,
        tick=np.zeros(1, dtype=np.int64),
        prey_pos=np.array([pos for pos, _ in prey_specs], dtype=float).reshape(1, -1, 2),
        prey_heading=np.array([[h for _, h in prey_specs]], dtype=float),
        prey_speed=np.zeros((1, len(prey_specs))),
        predator=predator,
        point_pos=np.array([pos for pos, _ in points], dtype=float).reshape(1, -1, 2),
        point_positive=np.array([[pol == "positive" for _, pol in points]], dtype=bool).reshape(1, -1),
        rngs=[np.random.default_rng(seed)],
    )


def stack_worlds(states) -> WorldState:
    """One W-world state holding copies of the given states' worlds, in order."""
    first = states[0]

    def cat(owner, name):
        return np.concatenate([getattr(owner(s), name) for s in states])

    predator = None
    if first.predator is not None:
        predator = PredatorState(**{f.name: cat(lambda s: s.predator, f.name) for f in fields(PredatorState)})
    arrays = ("tick", "prey_pos", "prey_heading", "prey_speed", "point_pos", "point_positive")
    return WorldState(
        config=first.config,
        predator=predator,
        rngs=[copy.deepcopy(rng) for s in states for rng in s.rngs],
        **{name: cat(lambda s: s, name) for name in arrays},
    )


def bodies(state, world=0):
    """(position, radius) of every body in one world: prey, predator, points."""
    cfg = state.config
    out = [(pos, cfg.prey_radius) for pos in state.prey_pos[world]]
    if state.predator is not None:
        out.append((state.predator.position[world], cfg.predator_radius))
    out.extend((pos, cfg.point_radius) for pos in state.point_pos[world])
    return out


def slide_per_body(pos: np.ndarray, dx: np.ndarray, dy: np.ndarray, radius: float, cfg: WorldConfig) -> np.ndarray:
    """Body-sliding oracle: every body clamped and swept through every barrier in its own Python loop."""
    limit = cfg.half_side - radius
    out = np.empty_like(pos)
    for k, ((x, y), dx_k, dy_k) in enumerate(zip(pos.tolist(), dx.tolist(), dy.tolist())):
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


def brute_force_can_see(state, prey_id, world=0) -> bool:
    """Independent oracle: explicit trig plus segment-vs-edge intersections."""
    cfg = state.config
    pred_xy = state.predator.position[world]
    prey_xy = state.prey_pos[world, prey_id]
    dx = prey_xy[0] - pred_xy[0]
    dy = prey_xy[1] - pred_xy[1]
    if math.sqrt(dx * dx + dy * dy) > cfg.predator_view_radius:
        return False
    bearing = math.degrees(math.atan2(dy, dx))
    diff = abs((bearing - state.predator.heading[world]) % 360.0)
    diff = min(diff, 360.0 - diff)
    if diff > cfg.predator_view_angle / 2.0:
        return False

    def segs_cross(p1, p2, p3, p4):
        def orient(a, b, c):
            v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            return 0 if v == 0 else (1 if v > 0 else -1)

        return (
            orient(p1, p2, p3) != orient(p1, p2, p4)
            and orient(p3, p4, p1) != orient(p3, p4, p2)
        )

    a = tuple(pred_xy)
    b = tuple(prey_xy)
    for x0, y0, x1, y1 in cfg.barrier_layout:
        for p in (a, b):  # endpoint inside the rectangle counts as occluded
            if x0 < p[0] < x1 and y0 < p[1] < y1:
                return False
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        edges = [(corners[i], corners[(i + 1) % 4]) for i in range(4)]
        if any(segs_cross(a, b, e0, e1) for e0, e1 in edges):
            return False
    return True


def make_contact_state():
    """Single prey directly in front of a chasing predator: a catch next step."""
    cfg = WorldConfig(barrier_layout=())
    return cfg, make_state(cfg, prey_specs=[((3.0, 3.0), 0.0)], predator_spec=((3.1, 3.0), 180.0))


class HalfWrite:
    """A file whose write stops halfway through the data, as on a full disk.

    Monkeypatched in as `open` of predprey.net, where atomic_open opens its temp file.
    """

    def __init__(self, *args, **kwargs):
        self.fh = open(*args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")


def one_world_rows(run_id, tick, state, events, world, kinds=ALL_KINDS) -> str:
    """Writer oracle: one tick of one world of `state` as rows of run `run_id`, formatted row by row."""
    by_prey: dict[int, list[str]] = {}
    for ev in events:
        if ev.world == world:
            by_prey.setdefault(ev.prey_id, []).append(ev.kind)
    rows = []
    if "prey" in kinds:
        headings = state.prey_heading[world].tolist()
        for i, (x, y) in enumerate(state.prey_pos[world].tolist()):
            events_i = ";".join(by_prey.get(i, []))
            rows.append(f"{run_id},{tick},prey,{i},{x:.6f},{y:.6f},{headings[i]:.4f},{events_i}\r\n")
    if "predator" in kinds and state.predator is not None:
        p = state.predator
        x, y = p.position[world].tolist()
        rows.append(f"{run_id},{tick},predator,0,{x:.6f},{y:.6f},{float(p.heading[world]):.4f},\r\n")
    if "points" in kinds:
        positive = state.point_positive[world].tolist()
        for idx, (x, y) in enumerate(state.point_pos[world].tolist()):
            kind = "point_positive" if positive[idx] else "point_negative"
            rows.append(f"{run_id},{tick},{kind},{idx},{x:.6f},{y:.6f},0.0,\r\n")
    return "".join(rows)


def csv_reader_table(path) -> TrajectoryTable:
    """Reader oracle: one csv.reader pass appending every field to a Python list per column."""
    cols: list[list] = [[] for _ in CSV_HEADER]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader, None) == CSV_HEADER
        for row in reader:
            for col, value in zip(cols, row):
                col.append(value)
    return TrajectoryTable(
        run_id=np.array(cols[0], dtype=np.int64),
        tick=np.array(cols[1], dtype=np.int64),
        entity_kind=np.array(cols[2], dtype=str),
        entity_id=np.array(cols[3], dtype=np.int64),
        x=np.array(cols[4], dtype=np.float64),
        y=np.array(cols[5], dtype=np.float64),
        heading=np.array(cols[6], dtype=np.float64),
        event=np.array(cols[7], dtype=str),
    )


def full_erf_kde_grid(positions, bandwidth, grid_dims, extent) -> np.ndarray:
    """KDE oracle: the occupancy grid with erf evaluated at every edge of every sample and reflection."""
    xmin, xmax, ymin, ymax = extent
    w, h = grid_dims
    x_edges = np.linspace(xmin, xmax, w + 1)
    y_edges = np.linspace(ymin, ymax, h + 1)
    scale = bandwidth * math.sqrt(2.0)

    def cell_masses(edges, coords, lo, hi):
        cdf = 0.5 * (1.0 + erf((edges[None, :] - coords) / scale))
        cdf += 0.5 * (1.0 + erf((edges[None, :] - (2.0 * lo - coords)) / scale))
        cdf += 0.5 * (1.0 + erf((edges[None, :] - (2.0 * hi - coords)) / scale))
        return np.diff(cdf, axis=1)

    mass = np.zeros((w, h))
    for start in range(0, len(positions), 1024):
        chunk = positions[start : start + 1024]
        px = cell_masses(x_edges, chunk[:, 0:1], xmin, xmax)
        py = cell_masses(y_edges, chunk[:, 1:2], ymin, ymax)
        in_grid = px.sum(axis=1) * py.sum(axis=1)
        if np.any(in_grid <= 0.0):
            raise ZeroDivisionError("a sample carries no mass inside the grid extent")
        mass += (px / in_grid[:, None]).T @ py
    cell_area = ((xmax - xmin) / w) * ((ymax - ymin) / h)
    return mass / cell_area


# Row-CSV writer oracles: one hand-written writer per file, with literal headers and repr'd floats.

RUN_RECORD_HEADER = ["run_id", "pos_total", "neg_total", "caught_total", "duration_steps", "task_efficiency"]
METRICS_HEADER = [
    "global_step",
    "cumulative_reward_mean",
    "policy_loss",
    "value_loss",
    "entropy",
    "extrinsic_reward_mean",
    "value_estimate_mean",
]
SUMMARY_HEADER = [
    "condition_id",
    "n_runs",
    "pos_mean",
    "pos_std",
    "neg_mean",
    "neg_std",
    "caught_mean",
    "caught_std",
    "task_efficiency_mean",
    "task_efficiency_std",
]
STATS_HEADER = ["pairing", "mean_1", "mean_2", "f_score", "p_value", "cohens_d"]


def write_run_records(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_RECORD_HEADER)
        for r in records:
            writer.writerow(
                [r.run_id, repr(r.pos_total), repr(r.neg_total), repr(r.caught_total), r.duration_steps, repr(task_efficiency(r))]
            )


def write_metrics_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for row in rows:
            values = [getattr(row, name) for name in METRICS_HEADER]
            writer.writerow([str(values[0])] + [repr(v) for v in values[1:]])


def write_summary_csv(summaries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for s in summaries:
            writer.writerow([s.condition_id, s.n_runs] + [repr(getattr(s, name)) for name in SUMMARY_HEADER[2:]])


def write_stats_csv(rows, path) -> None:
    """One line per (label, group 1, group 2): means, F, p, and d for the two groups."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_HEADER)
        for label, g1, g2 in rows:
            res = one_way_anova([g1, g2])
            d = cohens_d(g1, g2)
            writer.writerow(
                [label, repr(float(np.mean(g1))), repr(float(np.mean(g2))), repr(res.f_score), repr(res.p_value), repr(d)]
            )
