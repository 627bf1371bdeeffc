"""Euler-Maruyama simulation of the controlled state equation and cost.

X_{n+1} = X_n + b(t_n, X_n, a_n) dt + sqrt(2 dt) xi_n with left-endpoint cost
quadrature.  Paths run in blocks of BLOCK_SIZE; block j draws from its own
stream, STREAM with spawn key (j,), and reduces its own mean and M2, so
results are bit-identical for a given SimConfig whatever the thread count.
The legs of a batch, (oracle, control) pairs under one seed, share that noise
(common random numbers): each worker thread advances its contiguous group of
blocks for every leg in one step loop, drawing noise step-major NOISE_CHUNK
steps at a time, scaled by sqrt(2 dt) once per chunk, so memory is bounded in
n_steps.

Coordinates wrap into the fundamental domain on the torus; on a box the paths
may leave and coefficients (and any value-function lookup) see the nearest
in-box point, with the off-box step fraction reported.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grids import TORUS


class SimulationError(ValueError):
    pass


BLOCK_SIZE = 4096  # paths per block, each with its own stream and moments
NOISE_CHUNK = 16  # steps of noise drawn per block at a time
# the noise of one block; a seed in [0, 2**64) names one stream per block
STREAM = "SFC64/SeedSequence(seed, spawn_key=(block,))"


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt_sim: float
    seed: int
    start_time: float = 0.0
    start_state: tuple = (0.0,)
    n_threads: int = 1

    def __post_init__(self):
        if self.n_paths < 1:
            raise SimulationError(f"path count must be >= 1, got {self.n_paths}")
        if not 0 <= self.seed < 2**64:
            raise SimulationError(f"seed must be in [0, 2**64), got {self.seed}")
        if not (self.dt_sim > 0):
            raise SimulationError(f"dt_sim must be positive, got {self.dt_sim}")
        if self.n_threads < 1:
            raise SimulationError(f"n_threads must be >= 1, got {self.n_threads}")
        state = np.atleast_1d(np.asarray(self.start_state, dtype=float))
        object.__setattr__(self, "start_state", tuple(float(v) for v in state))


@dataclass
class MCEstimate:
    mean: float
    se: float
    sim: SimConfig  # the paths, step and seed the estimate ran under
    off_box_fraction: float  # the share of path-steps a box clamped

    def within(self, target, atol=0.0):
        """The two-sided agreement rule: |mean - target| <= 3 SE + atol."""
        return abs(self.mean - target) <= 3.0 * self.se + atol

    def to_json(self, scenario="", control=""):
        """The estimate of ``control`` in ``scenario``."""
        return {"scenario": scenario, "control": control, "mean": self.mean, "se": self.se,
                "M": self.sim.n_paths, "dt_sim": self.sim.dt_sim, "seed": self.sim.seed}


# ---------------------------------------------------------------------------
# controls: objects whose values(t, X) gives the actions at points X (batch, dim)


class FeedbackRule:
    """Analytic feedback a = rule(t, X) with X of shape (batch, dim)."""

    def __init__(self, fn, name="feedback"):
        self.fn = fn
        self.name = name

    def values(self, t, X):
        return self.fn(t, X)


class GridPolicyControl:
    """Feedback from a grid Policy: nearest node in space, left time node.
    The actions are read from the policy once, at construction, into a
    (level, node) table that later changes to the policy do not reach."""

    def __init__(self, policy, name="grid_policy"):
        self.policy = policy
        self.name = name
        self._table = policy.action_set.values[policy.indices]

    def values(self, t, X):
        grid = self.policy.grid
        return self._table[grid.time_index_left(t)][grid.nearest_index(X)]


class OpenLoopControl:
    """Deterministic open-loop control a = rule(t), state independent."""

    def __init__(self, fn, name="open_loop"):
        self.fn = fn
        self.name = name

    def values(self, t, X):
        a = np.asarray(self.fn(t), dtype=float)
        return np.broadcast_to(a, X.shape[:1] + a.shape)


def constant_control(value):
    value = np.asarray(value, dtype=float)
    return OpenLoopControl(lambda t: value, f"const_{np.round(value, 6)}")


# ---------------------------------------------------------------------------
# value-function lookup


def value_at(u_field, t, X):
    """Linear-in-space interpolation of a value field at points X (batch, dim).

    t snaps to the nearest grid time (asserted close).  Off-box points clamp;
    torus points wrap with periodic interpolation.
    """
    grid = u_field.grid
    level = grid.level_index(t)
    if level is None or not 0 <= level <= grid.nt:
        raise SimulationError(f"lookup time {t} is not a grid time level in [0, T]")
    vals = u_field.values[level]
    torus = grid.domain_kind == TORUS
    X = np.atleast_2d(np.asarray(X, dtype=float))
    X = grid.wrap(X) if torus else grid.clamp(X)
    if grid.dim == 1:
        ax = grid.space_axis(0)
        return np.interp(X[:, 0], ax, vals, period=grid.periods[0] if torus else None)
    # bilinear in 2d
    n = np.asarray(grid.nx)
    pos = np.stack([(X[:, k] - ax[0]) / h for k, (ax, h) in
                    enumerate(zip(grid.space_axes(), grid.dx))], axis=-1)
    if not torus:
        pos = np.clip(pos, 0, n - 1 - 1e-12)
    i0 = np.floor(pos).astype(np.int64)
    fx, fy = (pos - i0).T
    (i0x, i0y), (i1x, i1y) = (np.mod(i0, n).T, np.mod(i0 + 1, n).T) if torus else (
        i0.T, np.minimum(i0 + 1, n - 1).T)
    return (
        vals[i0x, i0y] * (1 - fx) * (1 - fy)
        + vals[i1x, i0y] * fx * (1 - fy)
        + vals[i0x, i1y] * (1 - fx) * fy
        + vals[i1x, i1y] * fx * fy
    )


# ---------------------------------------------------------------------------
# path engine


def _block_totals(legs, sim, horizons, grid, u_field, blocks):
    """Advance every leg over every path of a group of (block index, paths)
    in one step loop.

    A leg is an (oracle, control) pair with its own X, cost and off-box
    count; all legs read one noise buffer, into whose columns each block
    draws the next NOISE_CHUNK steps of its own stream.  Drawn in turn, the
    chunks are one (n_steps, n_block, d) draw, and memory does not grow with
    n_steps.  ``horizons`` are sorted (t_end, steps) pairs of one step size;
    at each, every leg's cost (plus u_field at t_end, when given) is taken.
    Returns (paths, per-block means, per-block M2, off-box steps, n_steps),
    the middle three with one entry per (horizon, leg), horizon-major.
    """
    d = grid.dim
    s = sim.start_time
    n_steps = horizons[-1][1]
    dt = (horizons[-1][0] - s) / n_steps
    edges = np.cumsum([0] + [n_block for _, n_block in blocks])
    cols = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    rngs = [np.random.Generator(np.random.SFC64(np.random.SeedSequence(sim.seed, spawn_key=(bi,))))
            for bi, _ in blocks]
    n = int(edges[-1])
    noise = np.empty((min(NOISE_CHUNK, n_steps), n, d))
    X = [grid.wrap(np.tile(np.asarray(sim.start_state, dtype=float), (n, 1))) for _ in legs]
    cost = [np.zeros(n) for _ in legs]
    off_box = [0] * len(legs)
    means, m2s, offs = [], [], []
    torus = grid.domain_kind == TORUS
    # step buffers the loop owns: the clamped or wrapped points, f dt and b dt
    spare, f_dt, b_dt = np.empty((n, d)), np.empty(n), np.empty((n, d))
    for i in range(n_steps):
        j = i % NOISE_CHUNK
        if j == 0:
            c = min(NOISE_CHUNK, n_steps - i)
            for rng, col in zip(rngs, cols):
                noise[:c, col] = rng.standard_normal((c, col.stop - col.start, d))
            noise[:c] *= np.sqrt(2.0 * dt)
        t = s + i * dt
        for k, (oracle, control) in enumerate(legs):
            # torus paths are kept wrapped, so coefficients see X itself
            X_eval = X[k] if torus else grid.clamp(X[k], out=spare)
            if not torus:
                moved = X[k] != X_eval  # in 1d one flag per path: no reduction
                off_box[k] += int(np.count_nonzero(moved if d == 1 else moved.any(axis=-1)))
            a = control.values(t, X_eval)
            b, f = oracle.eval(t, X_eval, a)
            cost[k] += np.multiply(f, dt, out=f_dt)
            X[k] += np.multiply(b, dt, out=b_dt)
            X[k] += noise[j]
            if torus:  # wrap into the spare buffer, and X[k]'s buffer is the next spare
                X[k], spare = grid.wrap(X[k], out=spare), X[k]
        for t_end, _ in (h for h in horizons if h[1] == i + 1):
            for k in range(len(legs)):
                total = cost[k] if u_field is None else cost[k] + value_at(u_field, t_end, X[k])
                means.append([float(np.mean(total[col])) for col in cols])
                m2s.append([float(np.sum((total[col] - m) ** 2)) for col, m in zip(cols, means[-1])])
                offs.append(off_box[k])
    return n, means, m2s, offs, n_steps


def _run(legs, sim, grid, t_ends, u_field=None):
    """(mean, se, off-box fraction) of every leg at every horizon,
    horizon-major in the order given.  Horizons whose step sizes are the same
    double share one step loop; each other step size takes its own."""
    if len(sim.start_state) != grid.dim:
        raise SimulationError(f"start state has length {len(sim.start_state)}, "
                              f"the grid dimension {grid.dim}")
    M = sim.n_paths
    blocks = [(bi, min(BLOCK_SIZE, M - start)) for bi, start in enumerate(range(0, M, BLOCK_SIZE))]
    # one contiguous group of blocks per worker; per-block streams and
    # moments make the estimate independent of the grouping
    groups = np.array_split(np.arange(len(blocks)), min(sim.n_threads, len(blocks)))
    loops = {}
    for t_end in sorted(set(t_ends)):
        n_steps = max(1, int(round((t_end - sim.start_time) / sim.dt_sim)))
        loops.setdefault((t_end - sim.start_time) / n_steps, []).append((t_end, n_steps))
    out = {}
    with ThreadPoolExecutor(max_workers=len(groups)) as ex:
        for horizons in loops.values():
            results = list(ex.map(lambda g: _block_totals(
                legs, sim, horizons, grid, u_field, [blocks[i] for i in g]), groups))
            for o, ((t_end, n_steps), k) in enumerate(
                    (h, k) for h in horizons for k in range(len(legs))):
                # fixed block order; Chan-style pairwise moment combination
                # keeps the variance exact for constant integrands
                n_acc, mean, m2 = 0, 0.0, 0.0
                for (_, n_b), mean_b, m2_b in zip(blocks, [m for r in results for m in r[1][o]],
                                                  [v for r in results for v in r[2][o]]):
                    delta = mean_b - mean
                    n_new = n_acc + n_b
                    mean += delta * n_b / n_new
                    m2 += m2_b + delta * delta * n_acc * n_b / n_new
                    n_acc = n_new
                var = m2 / (M - 1) if M > 1 else 0.0
                out[t_end, k] = (mean, float(np.sqrt(var / M)),
                                 sum(r[3][o] for r in results) / (M * n_steps))
    return [out[t_end, k] for t_end in t_ends for k in range(len(legs))]


def simulate_costs(legs, sim, grid):
    """Monte Carlo estimates of the running cost over [start_time, T], one per
    (oracle, control) leg; the legs share the seed's noise and one step loop."""
    if not (sim.dt_sim <= grid.T - sim.start_time + 1e-12):
        raise SimulationError("dt_sim exceeds the remaining horizon")
    return [MCEstimate(mean=mean, se=se, sim=sim, off_box_fraction=off_frac)
            for mean, se, off_frac in _run(legs, sim, grid, [grid.T])]


def simulate_cost(oracle, feedback, sim, grid):
    """Monte Carlo estimate of the running cost over [start_time, T]."""
    return simulate_costs([(oracle, feedback)], sim, grid)[0]


def dpp_residuals(u_field, legs, t_mids, sim):
    """Estimate E[int_s^t f dr + u(t, X_t)] - u(s, x) for every t_mid and
    (oracle, control) leg: one list of leg estimates per t_mid.

    Under the exact-argmin feedback the identity residual is pure numerical
    error; under a suboptimal control it is strictly positive.  Horizons of
    one step size share a step loop (see _run).
    """
    grid = u_field.grid
    s = sim.start_time
    for t_mid in t_mids:
        if not (s < t_mid < grid.T):
            raise SimulationError(f"t_mid={t_mid} outside ({s}, {grid.T})")
    runs = iter(_run(legs, sim, grid, t_mids, u_field=u_field))
    u_start = float(value_at(u_field, s, np.asarray(sim.start_state)[None, :])[0])
    return [[MCEstimate(mean=mean - u_start, se=se, sim=sim, off_box_fraction=off_frac)
             for mean, se, off_frac in (next(runs) for _ in legs)] for _ in t_mids]


def dpp_residual(u_field, oracle, policy, t_mid, sim):
    """dpp_residuals of one control at one t_mid."""
    return dpp_residuals(u_field, [(oracle, policy)], [t_mid], sim)[0][0]
