"""Measurable coefficient data: evaluation oracles, action sets, grid sampling.

An oracle maps (t, x, a) to a drift vector and a running cost and carries a
dominating bound Phi with |b| + |f| <= Phi everywhere.  Oracles are pure
closures over immutable parameters; evaluation is deterministic and
vectorized over points and times.

Conventions at jump sets (documented tie rules): indicator-type entries are
closed on the left (x in [c, .) takes the upper value) and sign(0) = +1.
Grid sampling is point evaluation at nodes, never cell averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import TORUS, FieldError


class CoefficientError(ValueError):
    pass


def _promote_time(t):
    """A float, or an array of times that broadcasts against the points."""
    return np.asarray(t, dtype=float) if isinstance(t, np.ndarray) else float(t)


def _promote_points(x, dim):
    """Normalize points to shape (..., dim)."""
    x = np.asarray(x, dtype=float)
    if dim == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    return x


def _torus_dist2(X, domain):
    """Squared torus distance to the origin, per point: (x - L rint(x / L))^2
    summed over the axes, each axis formed in one buffer."""
    for k in range(X.shape[-1]):
        L = domain.extent[k][1] - domain.extent[k][0]
        d = np.divide(X[..., k], L, out=np.empty(X.shape[:-1]))
        np.rint(d, out=d)
        d *= L
        np.subtract(X[..., k], d, out=d)
        d *= d
        d2 = d if k == 0 else np.add(d2, d, out=d2)
    return d2


def _dist2(X, domain):
    if domain.domain_kind == TORUS:
        return _torus_dist2(X, domain)
    d2 = X[..., 0] ** 2  # per axis: a reduction over a short last axis costs more
    for k in range(1, X.shape[-1]):
        d2 += X[..., k] ** 2
    return d2


@dataclass(frozen=True)
class ActionSet:
    """Ordered finite list of actions (scalars or d-vectors)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", vals)
        if vals.shape[0] == 0:
            raise CoefficientError("action set must be nonempty")
        flat = vals.reshape(vals.shape[0], -1)
        if len({tuple(row) for row in flat}) != vals.shape[0]:
            raise CoefficientError("action set contains duplicate actions")

    def __len__(self):
        return int(self.values.shape[0])

    def action(self, index):
        return self.values[index]


@dataclass(frozen=True)
class ActionFamily:
    """Countable action family a_1, a_2, ... given by an enumeration rule.

    ``size`` bounds the number of distinct elements; prefixes absorb the
    whole family beyond it (matching truncation of an exhausted enumeration).
    """

    name: str
    enumerate_fn: object  # i (0-based) -> action value
    size: int = None

    def prefix(self, N):
        if N < 1:
            raise CoefficientError(f"prefix length must be >= 1, got {N}")
        if self.size is not None:
            N = min(N, self.size)
        vals = np.asarray([self.enumerate_fn(i) for i in range(N)], dtype=float)
        return ActionSet(vals)


class CoefficientOracle:
    """Evaluator (t, x, a) -> (drift, cost) with dominating bound Phi.

    ``eval_fn(t, X, a)`` receives points X of shape (..., dim), a time t and
    an action, each broadcastable over the leading shape: t is a float, or
    an array such as a column of time levels against the grid's nodes.  It
    returns (b, f), which broadcast to (..., dim) and (...) over t's and
    X's joint leading shape.  ``bound_fn(t, X)`` returns Phi values alike.
    """

    def __init__(self, name, dim, eval_fn, bound_fn):
        self.name = name
        self.dim = int(dim)
        self._eval_fn = eval_fn
        self._bound_fn = bound_fn
        self.exact_value = None  # closed-form value under action a=+1, if any; same t rule

    def eval(self, t, X, a):
        """Vectorized evaluation (hot path)."""
        return self._eval_fn(_promote_time(t), _promote_points(X, self.dim), a)

    def bound(self, t, X):
        return self._bound_fn(_promote_time(t), _promote_points(X, self.dim))

    def __repr__(self):
        return f"CoefficientOracle({self.name!r}, dim={self.dim})"


def _level_column(grid):
    """The grid's time levels as a column that broadcasts against its nodes."""
    return grid.times().reshape((-1,) + (1,) * grid.dim)


def sample_to_grid(oracle, grid, action):
    """Point-sample drift and cost at every (level, node) for one action, in
    one oracle call.

    Returns read-only arrays: drift (levels, space..., dim) and cost
    (levels, space...).  Non-finite samples raise FieldError.
    """
    b, f = oracle.eval(_level_column(grid), grid.points(), action)
    shape = (grid.n_levels,) + grid.space_shape
    b, f = np.broadcast_to(b, shape + (grid.dim,)), np.broadcast_to(f, shape)
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(f))):
        raise FieldError(f"{oracle.name} samples contain non-finite entries")
    return b, f


def sample_all(oracle, grid, action_set):
    """Stacked per-action samples: B (n_a, levels, ..., dim), F (n_a, levels, ...)."""
    B = np.empty((len(action_set), grid.n_levels) + grid.space_shape + (grid.dim,))
    F = np.empty((len(action_set), grid.n_levels) + grid.space_shape)
    for ia in range(len(action_set)):
        B[ia], F[ia] = sample_to_grid(oracle, grid, action_set.action(ia))
    return B, F


@dataclass
class BoundReport:
    """Outcome of the domination scan |b| + |f| <= Phi over nodes x actions."""

    passed: bool
    min_slack: float
    n_checked: int
    violations: list = field(default_factory=list)  # (t, x, action, excess)


def verify_bound(oracle, grid, action_set):
    """Scan every (node, action) pair for |b| + |f| <= Phi (+ 1e-12); the
    first 16 violations, by time level, then action, then node, are recorded."""
    B, F = sample_all(oracle, grid, action_set)
    X = grid.points()
    phi = oracle.bound(_level_column(grid), X)
    slack = (phi - (np.sqrt(np.sum(B**2, axis=-1)) + np.abs(F))).swapaxes(0, 1)
    times = grid.times()
    violations = [(float(times[loc[0]]), X[tuple(loc[2:])],
                   np.asarray(action_set.action(loc[1])).tolist(), float(-slack[tuple(loc)]))
                  for loc in np.argwhere(slack < -1e-12)[:16]]
    return BoundReport(passed=not violations, min_slack=float(np.min(slack)),
                       n_checked=slack.size, violations=violations)


# ---------------------------------------------------------------------------
# catalog


def _sign_closed_left(x):
    # sign(0) = +1 by convention
    return np.where(x >= 0.0, 1.0, -1.0)


def make_counterexample(domain):
    """Drift 0 exactly on the diagonal x = a, 1 elsewhere; quadratic cost.

    Actions are state-space points; choosing a = x switches the drift off on
    a null set, which mollification erases.
    """
    dim = domain.dim

    def eval_fn(t, X, a):
        a = np.broadcast_to(_promote_points(a, dim), X.shape)
        off = X[..., 0] != a[..., 0]
        for k in range(1, dim):
            off |= X[..., k] != a[..., k]
        b = np.zeros(X.shape)
        b[..., 0] = off  # unit drift along the first axis off the diagonal
        f = _dist2(X, domain)
        return b, f

    def bound_fn(t, X):
        return 1.0 + _dist2(X, domain)

    return CoefficientOracle("counterexample", dim, eval_fn, bound_fn)


def _multiplier_entry(name, domain, shape_fn, shape_sup):
    """Drift a * shape(t, x) along the first axis, quadratic cost; |a| <= 1."""
    dim = domain.dim

    def eval_fn(t, X, a):
        s = np.asarray(a, dtype=float) * shape_fn(t, X)  # shape_fn spans X's leading shape
        b = s[..., None] if dim == 1 else np.stack([s] + [np.zeros_like(s)] * (dim - 1), axis=-1)
        return b, _dist2(X, domain)

    def bound_fn(t, X):
        return shape_sup + _dist2(X, domain)

    return CoefficientOracle(name, dim, eval_fn, bound_fn)


def make_constant_drift(domain, c=1.0):
    """b(t, x, a) = a * c along the first axis, cost dist(x, 0)^2.

    On a box the frozen problem under a = +1 has the closed-form value
    ((x1 + c h)^3 - x1^3) / (3 c) + |x_rest|^2 h + d h^2 with h = T - t
    (the c = 0 limit is x1^2 h), attached as ``exact_value`` for scenarios
    with exact Dirichlet boundaries.
    """
    c = float(c)
    dim = domain.dim
    oracle = _multiplier_entry("constant_drift", domain,
                               lambda t, X: np.full(X.shape[:-1], c), abs(c))

    def exact_value(t, X, T):
        X = _promote_points(X, dim)
        h = T - t
        x1 = X[..., 0]
        rest = np.sum(X[..., 1:] ** 2, axis=-1)
        if c == 0.0:
            lead = x1**2 * h
        else:
            lead = ((x1 + c * h) ** 3 - x1**3) / (3.0 * c)
        return lead + rest * h + dim * h**2

    oracle.exact_value = exact_value
    return oracle


def make_step_drift(domain, c=1.0):
    """b(t, x, a) = a * c * sign(x_1) with sign(0) = +1; quadratic cost."""
    return _multiplier_entry("step_drift", domain,
                             lambda t, X: float(c) * _sign_closed_left(X[..., 0]), abs(float(c)))


def make_checkerboard(domain, kx=1, kt=0):
    """Sign pattern alternating 2*kx cells along x_1 (and 2*kt in time)."""
    kx = int(kx)
    kt = int(kt)
    if kx < 1:
        raise CoefficientError("checkerboard needs kx >= 1")
    lo, hi = domain.extent[0]
    L = hi - lo

    def shape_fn(t, X):
        cell = np.floor((X[..., 0] - lo) / (L / (2 * kx))).astype(np.int64)
        if kt >= 1:  # a time cell flips the sign
            cell = cell + np.floor(t / (domain.T / (2 * kt)) + 1e-12).astype(np.int64)
        return np.where(cell % 2 == 0, 1.0, -1.0)

    return _multiplier_entry("checkerboard", domain, shape_fn, 1.0)


def make_bang_bang(domain):
    """b(x, a) = a with A = {-1, +1}; cost dist(x, 0)^2."""
    return _multiplier_entry("bang_bang", domain,
                             lambda t, X: np.broadcast_to(1.0, X.shape[:-1]), 1.0)


def bang_bang_actions():
    return ActionSet(np.array([-1.0, 1.0]))


def bang_bang_family():
    """Enumeration (+1, -1); the first two elements exhaust the set."""
    return ActionFamily("bang_bang", lambda i: 1.0 if i % 2 == 0 else -1.0, size=2)


def bang_bang_dyadic_family():
    """Enumeration +-(1 - 2^-(i//2 + 1)): (1/2, -1/2, 3/4, -3/4, ...), whose
    sup, bang_bang's +-1, is not attained; in doubles its 106 distinct
    elements end at +-(1 - 2^-53)."""
    return ActionFamily("bang_bang_dyadic",
                        lambda i: (1.0 - 0.5 ** (i // 2 + 1)) * (1 if i % 2 == 0 else -1),
                        size=106)


def make_smooth_baseline(domain):
    """C-infinity drift and cost manufactured around a known solution.

    With the single action a = +1 the frozen linear problem has the exact
    solution u(s, x) = A (T - s) sin(2 pi x_1), with A = 0.25 and T the
    domain's horizon; used for convergence-order studies.  Requires an
    integer-period torus in the first axis.
    """
    dim = domain.dim
    T = domain.T
    A = 0.25
    two_pi = 2.0 * np.pi
    if domain.domain_kind == TORUS:
        L = domain.extent[0][1] - domain.extent[0][0]
        if abs(L - round(L)) > 1e-12:
            raise CoefficientError("smooth_baseline needs an integer torus period")

    def u_exact(t, X, T_=T):
        X = _promote_points(X, dim)
        return A * (T_ - t) * np.sin(two_pi * X[..., 0])

    def eval_fn(t, X, a):
        a = np.asarray(a, dtype=float)
        x1 = X[..., 0]
        s = np.sin(two_pi * x1)
        cshape = np.cos(two_pi * x1)
        b = np.zeros(X.shape)
        b[..., 0] = a * cshape
        # forcing chosen so that d_s u + Lap u + b(+1) grad u + f = 0
        f = A * (s + (two_pi**2) * (T - t) * s - cshape * two_pi * (T - t) * cshape)
        return b, f

    sup_f = A * (1.0 + two_pi**2 * T + two_pi * T)

    def bound_fn(t, X):
        return np.full(X.shape[:-1], 1.0 + sup_f + 1.0)

    oracle = CoefficientOracle("smooth_baseline", dim, eval_fn, bound_fn)
    oracle.exact_value = u_exact
    return oracle


def make_tabulated(grid, b_values, f_values, name="tabulated"):
    """Oracle backed by per-action sampled fields with nearest-node lookup.

    ``b_values`` has shape (n_actions, levels, ..., dim), ``f_values``
    (n_actions, levels, ...).  Actions are addressed by integer index.  Time
    lookup is constant from the left node, for a float t or an array of
    times broadcasting against the points; off-box points clamp to the
    nearest node (torus points wrap).  Phi is the max of |b| + |f| over actions.
    """
    b_values = np.asarray(b_values, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    phi_values = (np.sqrt(np.sum(b_values**2, axis=-1)) + np.abs(f_values)).max(axis=0)

    def lookup(t, X):
        pts = grid.wrap(X) if grid.domain_kind == TORUS else grid.clamp(X)
        return (grid.time_index_left(t),) + grid.nearest_index(pts)

    def eval_fn(t, X, a):
        ib = np.asarray(a).astype(np.int64)
        loc = lookup(t, X)
        return b_values[(ib,) + loc], f_values[(ib,) + loc]

    def bound_fn(t, X):
        return phi_values[lookup(t, X)]

    return CoefficientOracle(name, grid.dim, eval_fn, bound_fn)


CATALOG = {
    "counterexample": make_counterexample,
    "constant_drift": make_constant_drift,
    "step_drift": make_step_drift,
    "checkerboard": make_checkerboard,
    "bang_bang": make_bang_bang,
    "smooth_baseline": make_smooth_baseline,
}


def catalog_names():
    return sorted(CATALOG) + ["tabulated"]


def make_oracle(name, domain, **params):
    """Instantiate a catalog entry by name on the given domain geometry."""
    if name == "tabulated":
        raise CoefficientError("tabulated oracles are built from field files, see make_tabulated")
    if name not in CATALOG:
        raise CoefficientError(f"unknown catalog entry {name!r}; known: {catalog_names()}")
    return CATALOG[name](domain, **params)
