"""Post-training evaluation and experiment statistics.

Runs a trained policy for a batch of independent seeded episodes, reduces
each run's event log to totals, scores runs with the weighted task-efficiency
measure (+1 per positive point, -0.2 per negative point, -1 per catch), and
compares conditions with a one-way ANOVA and Cohen's d. `RunRecord`,
`ConditionSummary` and `StatsRow` are the rows of run_records.csv, summary.csv
and stats.csv: `net.write_rows` and `net.read_rows` take each file's columns
and value types from its dataclass. Occupancy heatmaps come from a
boundary-renormalized Gaussian kernel density over logged positions: each
sample deposits exactly unit mass inside the grid, so the grid integrates to
the sample count. The kernel's cell integrals take erf only
where it is not saturated: scipy's erf is exactly +-1.0 from |z| = 5.9216 on,
so every |z| >= 6 takes its sign, which gives the same bits as erf itself. A
boundary reflection whose z is saturated at every cell edge of a sample, as for
most samples far from that boundary, adds exactly 1 or 0 to the sample's whole
row, so only the other samples evaluate it.

scipy is needed only by the KDE's erf and the ANOVA's betainc. `erf` and
`betainc` here import `scipy.special` on their first call and pass their
arguments to it unchanged, so only `heatmap` and `stats` load scipy. Loading it
cost every fresh process about 0.25 s and 17-23 MiB peak (2-core x86-64 host),
three to five times the work of a paper-scale `replay-export`, and `train`,
`eval` and `replay-export` never call it. The two stay module-level names, so a
test can still replace `stats.erf`.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, NumericsError, StructuralError
from .net import DenseNet, atomic_open, load_checkpoint
from .ppo import sample_actions
from .seeding import derive_seed
from .trajectory import TrajectoryWriter
from .world import WorldConfig, observation_matrix, observe_all, prey_action_space, reset, step

TASK_WEIGHT_POSITIVE = 1.0
TASK_WEIGHT_NEGATIVE = -0.2
TASK_WEIGHT_CAUGHT = -1.0

_TAG_EVAL_WORLD = 11
_TAG_EVAL_ACTIONS = 12
_DRAW_TICKS = 64  # ticks of uniforms a run draws at once; 50 runs x 64 ticks x 6 prey hold 150 KB


def erf(*args, **kwargs):
    """scipy.special.erf, with scipy imported on the first call."""
    from scipy import special

    return special.erf(*args, **kwargs)


def betainc(*args, **kwargs):
    """scipy.special.betainc, with scipy imported on the first call."""
    from scipy import special

    return special.betainc(*args, **kwargs)


@dataclass
class RunRecord:
    """One row of run_records.csv; task_efficiency is derived from the totals."""

    run_id: int
    pos_total: float
    neg_total: float
    caught_total: float
    duration_steps: int
    task_efficiency: float = field(init=False)

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v >= 0 for v in (self.pos_total, self.neg_total, self.caught_total)):
            raise InputError("run totals must be finite and non-negative")
        self.task_efficiency = task_efficiency(self)


def task_efficiency(rec: RunRecord) -> float:
    """Weighted run score: positives minus a fifth of negatives minus catches."""
    return (
        rec.pos_total * TASK_WEIGHT_POSITIVE
        + rec.neg_total * TASK_WEIGHT_NEGATIVE
        + rec.caught_total * TASK_WEIGHT_CAUGHT
    )


# ---------------------------------------------------------------------------
# evaluation runs


def evaluate_condition(
    checkpoint,
    world_cfg: WorldConfig,
    n_runs: int = 50,
    duration: int = 5000,
    greedy: bool = False,
    seed: int = 0,
    trajectory_path=None,
    log_points: bool = False,
) -> tuple[list[RunRecord], Path | None]:
    """Run the policy n_runs times for `duration` ticks each; one record per run.

    `checkpoint` is a file path or an already-loaded DenseNet. Actions are
    sampled from the policy by default; greedy switches to argmax. The world
    config decides predator presence at test time, independent of how the
    policy was trained.

    The runs execute in lockstep as the worlds of one batched state: each tick
    is one policy forward over (n_runs, n_prey, obs_dim) and one world step.
    Each run keeps its own world seed and its own action generator, so every
    run's outcome is the one it would have alone. A run's generator draws the
    uniforms of _DRAW_TICKS ticks at a time, which is the stream of one draw a
    tick. When trajectory_path is set, a TrajectoryWriter records every run's
    prey and predator rows there, and its point rows with log_points, run-major
    and written atomically: the file appears only when every run has finished.
    """
    if isinstance(checkpoint, DenseNet):
        net = checkpoint
    else:
        net, _, _, _ = load_checkpoint(checkpoint)
    n_actions = prey_action_space().n_joint
    if net.input_dim != world_cfg.obs_dim or net.policy_dim != n_actions:
        raise StructuralError(
            f"checkpoint net ({net.input_dim} -> {net.policy_dim}) does not match "
            f"world ({world_cfg.obs_dim} -> {n_actions})"
        )

    state = reset(world_cfg, [derive_seed(seed, _TAG_EVAL_WORLD, run) for run in range(n_runs)])
    rngs = [np.random.default_rng(derive_seed(seed, _TAG_EVAL_ACTIONS, run)) for run in range(n_runs)]
    obs = observe_all(state)
    counts = np.zeros((n_runs, 3), dtype=np.int64)  # a run's totals; an event's kind is its column
    writer = None if trajectory_path is None else TrajectoryWriter(trajectory_path, n_runs, log_points)
    with writer or nullcontext():
        for tick in range(duration):
            if not greedy and tick % _DRAW_TICKS == 0:
                ticks = min(_DRAW_TICKS, duration - tick)
                draws = np.stack([rng.random((ticks, world_cfg.n_prey)) for rng in rngs], axis=1)
            u = None if greedy else draws[tick % _DRAW_TICKS]
            actions, _, _ = sample_actions(net, observation_matrix(*obs), u)
            _, _, obs, events = step(state, actions)
            np.add.at(counts, (events.world, events.kind), 1)
            if writer is not None:
                writer.record(tick, state, events)
    records = [
        RunRecord(run_id=run, pos_total=pos, neg_total=neg, caught_total=caught, duration_steps=duration)
        for run, (pos, neg, caught) in enumerate(counts.tolist())
    ]
    return records, None if writer is None else writer.path


# ---------------------------------------------------------------------------
# condition summaries


@dataclass
class ConditionSummary:
    condition_id: str
    n_runs: int
    pos_mean: float
    pos_std: float
    neg_mean: float
    neg_std: float
    caught_mean: float
    caught_std: float
    task_efficiency_mean: float
    task_efficiency_std: float


def summarize_condition(condition_id: str, records: list[RunRecord]) -> ConditionSummary:
    """Mean and sample (n-1) standard deviation of every run variable."""
    if len(records) < 2:
        raise InputError("need at least two runs to summarize a condition")
    pos = np.array([r.pos_total for r in records])
    neg = np.array([r.neg_total for r in records])
    caught = np.array([r.caught_total for r in records])
    eff = np.array([r.task_efficiency for r in records])
    return ConditionSummary(
        condition_id=condition_id,
        n_runs=len(records),
        pos_mean=float(pos.mean()),
        pos_std=float(pos.std(ddof=1)),
        neg_mean=float(neg.mean()),
        neg_std=float(neg.std(ddof=1)),
        caught_mean=float(caught.mean()),
        caught_std=float(caught.std(ddof=1)),
        task_efficiency_mean=float(eff.mean()),
        task_efficiency_std=float(eff.std(ddof=1)),
    )


# ---------------------------------------------------------------------------
# ANOVA and effect size


@dataclass
class AnovaResult:
    f_score: float
    p_value: float
    df_between: int
    df_within: int


def one_way_anova(groups: list[np.ndarray]) -> AnovaResult:
    """Between/within sum-of-squares decomposition with an F-distribution p-value.

    Zero within-group variance yields F = 0 when the means agree and an
    infinite-F result (p = 0) when they differ. The p-value comes from the
    regularized incomplete beta function and is reported as-is; with large
    samples it goes to zero and says little by itself.
    """
    if len(groups) < 2 or any(len(g) < 2 for g in groups):
        raise InputError("one-way ANOVA needs >= 2 groups with >= 2 samples each")
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    sizes = np.array([len(g) for g in groups])
    means = np.array([g.mean() for g in groups])
    n_total = int(sizes.sum())
    grand = float(np.concatenate(groups).mean())
    ss_between = float((sizes * (means - grand) ** 2).sum())
    ss_within = float(sum(((g - m) ** 2).sum() for g, m in zip(groups, means)))
    df_between = len(groups) - 1
    df_within = n_total - len(groups)
    if ss_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(0.0, 1.0, df_between, df_within)
        return AnovaResult(math.inf, 0.0, df_between, df_within)
    f = (ss_between / df_between) / (ss_within / df_within)
    p = float(betainc(df_within / 2.0, df_between / 2.0, df_within / (df_within + df_between * f)))
    return AnovaResult(f, p, df_between, df_within)


def cohens_d(g1: np.ndarray, g2: np.ndarray) -> float:
    """Standardized mean difference with a pooled sample standard deviation.

    Equal-sized groups pool as sqrt((s1^2 + s2^2) / 2); unequal sizes use the
    df-weighted pooled variance. Zero pooled spread returns NaN (undefined).
    """
    g1 = np.asarray(g1, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    if len(g1) < 2 or len(g2) < 2:
        raise InputError("cohens_d needs >= 2 samples per group")
    v1, v2 = g1.var(ddof=1), g2.var(ddof=1)
    n1, n2 = len(g1), len(g2)
    if n1 == n2:
        pooled = math.sqrt((v1 + v2) / 2.0)
    else:
        pooled = math.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    if pooled == 0.0:
        return math.nan
    return float((g1.mean() - g2.mean()) / pooled)


@dataclass
class StatsRow:
    """One row of stats.csv: one variable compared between two conditions."""

    pairing: str
    mean_1: float
    mean_2: float
    f_score: float
    p_value: float
    cohens_d: float


def compare(label: str, g1: np.ndarray, g2: np.ndarray) -> StatsRow:
    """The means, one-way ANOVA and Cohen's d of two groups."""
    res = one_way_anova([g1, g2])
    return StatsRow(label, float(np.mean(g1)), float(np.mean(g2)), res.f_score, res.p_value, cohens_d(g1, g2))


# ---------------------------------------------------------------------------
# occupancy heatmaps


@dataclass(eq=False)
class KdeGrid:
    grid: np.ndarray  # (W, H) densities, x index first
    bandwidth: float
    entity_kind: str
    extent: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    n_samples: int

    @property
    def cell_area(self) -> float:
        xmin, xmax, ymin, ymax = self.extent
        w, h = self.grid.shape
        return ((xmax - xmin) / w) * ((ymax - ymin) / h)


# scipy's erf returns exactly +-1.0 for every |z| >= 5.9216 (measured on a dense grid of
# |z| in [6, 40] and at +-inf); from this bound on, _half_cdf writes 0.5 * (1.0 +- 1.0) instead.
_ERF_SATURATED = 6.0


def _half_cdf(z: np.ndarray) -> np.ndarray:
    """0.5 * (1.0 + erf(z)) in place in z, with scipy's erf evaluated only where it is not saturated at +-1."""
    live = np.abs(z) < _ERF_SATURATED
    values = z[live]
    np.greater(z, 0.0, out=z)  # 0.5 * (1.0 + sign(z)) where saturated
    erf(values, out=values)  # not erf(z, where=live): scipy 1.17.1 corrupts the heap with where=
    values += 1.0
    values *= 0.5
    z[live] = values
    return z


def scott_bandwidth(positions: np.ndarray) -> float:
    """Scott's rule for 2D data with a pooled per-axis sample spread."""
    n = len(positions)
    spread = math.sqrt((positions[:, 0].var(ddof=1) + positions[:, 1].var(ddof=1)) / 2.0)
    return spread * n ** (-1.0 / 6.0)


def check_kde_args(
    grid_dims: tuple[int, int],
    bandwidth: float | None = None,
    extent: tuple[float, float, float, float] | None = None,
) -> None:
    """Refuse a grid narrower or lower than one cell, a bandwidth that is not positive and finite,
    and a degenerate or non-finite extent. A bandwidth or extent of None passes: it is derived later."""
    if min(grid_dims) < 1:
        raise InputError(f"grid needs W and H of at least 1, got {grid_dims[0]} {grid_dims[1]}")
    if bandwidth is not None and not (bandwidth > 0 and math.isfinite(bandwidth)):
        raise InputError(f"bandwidth must be positive and finite, got {bandwidth}")
    if extent is not None:
        xmin, xmax, ymin, ymax = extent
        if not (np.isfinite(extent).all() and xmax > xmin and ymax > ymin):
            raise InputError(f"degenerate or non-finite extent {tuple(extent)}")


def kde_occupancy(
    positions,
    entity_kind: str,
    bandwidth: float | None = None,
    grid_dims: tuple[int, int] = (64, 64),
    extent: tuple[float, float, float, float] | None = None,
) -> KdeGrid:
    """Gaussian-kernel occupancy density on a W x H grid.

    `positions` is an (n, 2) array of the entity kind's logged positions.
    Per-cell values are exact kernel integrals over the cell with reflection
    at the grid boundary (unbiased for flat density), renormalized per sample
    to the mass falling inside the grid, so sum(grid) * cell_area equals the
    number of samples. A bandwidth of None is derived by Scott's rule and an
    extent of None is the samples' bounding box; samples that cannot give one
    (a single sample or coincident ones for the bandwidth, samples on one
    horizontal or vertical line for the extent) are refused with InputError
    before anything is derived.
    """
    check_kde_args(grid_dims, bandwidth, extent)
    positions = np.asarray(positions, dtype=np.float64)
    if positions.size == 0:
        raise InputError(f"no trajectory samples for entity kind {entity_kind!r}")
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise StructuralError(f"positions must be (n, 2), got {positions.shape}")
    if not np.isfinite(positions).all():
        raise InputError(f"non-finite {entity_kind} position")
    n = len(positions)
    if bandwidth is None and n < 2:
        raise InputError(f"entity kind {entity_kind!r} has {n} sample, too few to derive a bandwidth; pass --bandwidth")
    if bandwidth is None or extent is None:
        # column by column: a min over axis 0 of an (n, 2) array took 14x as long (60,000 rows, one x86-64 core)
        (x0, x1), (y0, y1) = ((float(column.min()), float(column.max())) for column in positions.T)
        if bandwidth is None and x0 == x1 and y0 == y1:
            raise InputError(
                f"entity kind {entity_kind!r} has {n} samples, all at ({x0}, {y0}): "
                "no spread to derive a bandwidth from; pass --bandwidth"
            )
        if extent is None and (x0 == x1 or y0 == y1):
            raise InputError(
                f"entity kind {entity_kind!r} samples span x {x0} to {x1} and y {y0} to {y1}: "
                "no area to derive an extent from; pass --extent"
            )
    if bandwidth is None:
        bandwidth = scott_bandwidth(positions)
    if extent is None:
        extent = (x0, x1, y0, y1)
    check_kde_args(grid_dims, bandwidth, extent)  # the derived values too
    xmin, xmax, ymin, ymax = extent
    w, h = grid_dims
    x_edges = np.linspace(xmin, xmax, w + 1)
    y_edges = np.linspace(ymin, ymax, h + 1)

    scale = bandwidth * math.sqrt(2.0)

    def half_cdf(edges, coords):
        # 0.5 * (1.0 + erf((edges - coords) / scale)), each step in place in one array
        z = edges[None, :] - coords
        z /= scale
        return _half_cdf(z)

    def cell_masses(edges, coords, lo, hi):
        # kernel at the sample plus its two boundary reflections; z rises along the edges, so a
        # reflection saturated at a row's first edge adds exactly 1.0 to the whole row, one
        # saturated at its last edge adds exactly 0.0, and only the other rows evaluate it
        cdf = half_cdf(edges, coords)
        for mirror in (2.0 * lo - coords, 2.0 * hi - coords):
            first, last = (edges[0] - mirror[:, 0]) / scale, (edges[-1] - mirror[:, 0]) / scale
            np.add(cdf, 1.0, out=cdf, where=(first >= _ERF_SATURATED)[:, None])
            live = (first < _ERF_SATURATED) & (last > -_ERF_SATURATED)
            cdf[live] += half_cdf(edges, mirror[live])
        return np.diff(cdf, axis=1)

    mass = np.zeros((w, h))
    for start in range(0, len(positions), 1024):
        chunk = positions[start : start + 1024]
        px = cell_masses(x_edges, chunk[:, 0:1], xmin, xmax)  # (chunk, W)
        py = cell_masses(y_edges, chunk[:, 1:2], ymin, ymax)
        in_grid = px.sum(axis=1) * py.sum(axis=1)
        if np.any(in_grid <= 0.0):
            raise NumericsError("a sample carries no mass inside the grid extent")
        px /= in_grid[:, None]
        mass += px.T @ py

    cell_area = ((xmax - xmin) / w) * ((ymax - ymin) / h)
    return KdeGrid(
        grid=mass / cell_area,
        bandwidth=float(bandwidth),
        entity_kind=entity_kind,
        extent=extent,
        n_samples=len(positions),
    )


def write_grid_text(kde: KdeGrid, path) -> None:
    header = (
        f"entity_kind={kde.entity_kind} bandwidth={kde.bandwidth!r} "
        f"extent={kde.extent} n_samples={kde.n_samples} layout=rows-are-x"
    )
    with atomic_open(path, "w") as fh:
        np.savetxt(fh, kde.grid, header=header)


def write_grid_pgm(kde: KdeGrid, path) -> None:
    """8-bit ASCII PGM raster for a quick look; rows run from ymax down to ymin."""
    top = kde.grid.max()
    pixels = np.zeros_like(kde.grid, dtype=np.int64)
    if top > 0:
        pixels = np.rint(255.0 * kde.grid / top).astype(np.int64)
    raster = pixels.T[::-1]  # (H, W), y flipped for image orientation
    with atomic_open(path, "w") as fh:
        fh.write(f"P2\n{raster.shape[1]} {raster.shape[0]}\n255\n")
        for row in raster:
            fh.write(" ".join(str(v) for v in row) + "\n")
