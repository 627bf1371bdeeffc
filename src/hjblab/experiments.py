"""Experiment layer: verification battery, DPP checks, mollification sweeps,
countable-action truncation studies, and the strict-gap counterexample report.

Limits are replaced by monotonicity-and-threshold checks along finite epsilon
ladders; each threshold is fixed by the grid and MC step and carried in the
report.  Interior metrics exclude the epsilon-wide time bands (and, on a box,
space bands) where the zero extension of the mollified coefficients bites;
full-cylinder metrics are reported alongside.  Each report's ``checks()``
states its verdict once, as (name, passed, detail) tuples, which the CLI's
manifest records and the selftest's criteria read.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .coefficients import (
    ActionSet,
    _level_column,
    make_constant_drift,
    make_counterexample,
    make_tabulated,
    sample_all,
)
from .grids import BOX, CENTRAL, UPWIND, SpaceTimeField, build_grid, lp_norm, write_csv
from .hjb import inner_sweeps_check, solve_hjb_tables
from .mollify import MollifierKernel, interior_mask, mollify_samples, strictly_decreasing
from .montecarlo import (
    FeedbackRule,
    GridPolicyControl,
    constant_control,
    dpp_residuals,
    simulate_costs,
    value_at,
)
from .parabolic import solve_frozen

# the counterexample's feedback a = x, which keeps every path on the diagonal
# where the drift is switched off
A_EQ_X = FeedbackRule(lambda t, X: X[:, 0], name="a_eq_x")


# ---------------------------------------------------------------------------
# verification theorem battery


@dataclass
class VerificationRow:
    control: str
    kind: str  # "candidate" or "argmin_feedback"
    j_mean: float
    j_se: float
    margin: float
    passed: bool


@dataclass
class VerificationReport:
    u_start: float
    tol_candidate: float
    tol_feedback: float
    rows: list
    passed: bool

    def checks(self):
        verdict = "passed" if self.passed else "FAILED"
        return [("verification", self.passed, f"verification battery {verdict}: "
                 f"u(s,x)={self.u_start:.6g}, {len(self.rows)} controls")]

    def to_json(self):
        return asdict(self)


def verification_check(u_field, oracle, sim, candidate_controls, argmin_control=None):
    """Check the two faces of the verification theorem by Monte Carlo.

    (i) every candidate control alpha satisfies J(alpha) >= u(s,x) - 3 SE -
    tol; (ii) the exact-argmin feedback satisfies |J - u(s,x)| <= 3 SE + tol
    + 5 dt_sim (the epsilon = 0 case of near-optimality).  ``candidate_controls``
    is a list of (name, control) pairs; ``argmin_control`` defaults to the
    policy attached to the value field by the direct solver.
    """
    grid = u_field.grid
    tol_pde = 5.0 * (max(grid.dx) ** 2 + grid.dt)
    tol_feedback = tol_pde + 5.0 * sim.dt_sim
    if argmin_control is None:
        if u_field.policy is None:
            raise ValueError("no argmin control given and none attached to the value field")
        argmin_control = GridPolicyControl(u_field.policy, name="argmin_feedback")
    *ests, est = simulate_costs([(oracle, control) for _, control in candidate_controls]
                                + [(oracle, argmin_control)], sim, grid)
    u_start = float(value_at(u_field, sim.start_time,
                             np.asarray(sim.start_state)[None, :])[0])
    rows = []
    for (name, _), cand in zip(candidate_controls, ests):
        margin = cand.mean - (u_start - 3.0 * cand.se - tol_pde)
        rows.append(VerificationRow(name, "candidate", cand.mean, cand.se,
                                    float(margin), bool(margin >= 0)))
    gap = abs(est.mean - u_start)
    allowance = 3.0 * est.se + tol_feedback
    rows.append(VerificationRow(argmin_control.name, "argmin_feedback", est.mean, est.se,
                                float(allowance - gap), bool(gap <= allowance)))

    return VerificationReport(
        u_start=u_start,
        tol_candidate=tol_pde,
        tol_feedback=tol_feedback,
        rows=rows,
        passed=all(r.passed for r in rows),
    )


# ---------------------------------------------------------------------------
# DPP battery


@dataclass
class DPPRow:
    t_mid: float
    control: str
    residual: float
    se: float
    allowance: float
    expect: str  # "zero" or "positive"
    passed: bool


@dataclass
class DPPReport:
    rows: list
    passed: bool

    def checks(self):
        return [("dpp", self.passed, f"{len(self.rows)} rows")]

    def to_json(self):
        """The rows; the report passes when every row does."""
        return [asdict(r) for r in self.rows]


def dpp_battery(u_field, oracle, argmin_control, sim, t_mids, suboptimal_controls=()):
    """Principle-of-optimality residuals at intermediate times.

    The exact-argmin feedback must give |residual| <= 3 SE + tol (the row's
    allowance); any deliberately suboptimal control must give residual > 3 SE
    (the one-sided inequality for arbitrary controls).
    """
    grid = u_field.grid
    tol_pde = 5.0 * (max(grid.dx) ** 2 + grid.dt + sim.dt_sim)
    controls = [(argmin_control.name, argmin_control), *suboptimal_controls]
    rows = []
    for t_mid, ests in zip(t_mids, dpp_residuals(
            u_field, [(oracle, control) for _, control in controls], t_mids, sim)):
        for k, ((name, _), est) in enumerate(zip(controls, ests)):
            # the argmin feedback (k = 0) must give zero, the others a positive residual
            allowance = 3.0 * est.se + (tol_pde if k == 0 else 0.0)
            rows.append(DPPRow(float(t_mid), name, est.mean, est.se, float(allowance),
                               "positive" if k else "zero",
                               bool(est.mean > allowance if k else abs(est.mean) <= allowance)))
    return DPPReport(rows=rows, passed=all(r.passed for r in rows))


# ---------------------------------------------------------------------------
# mollification value sweeps


@dataclass
class SweepRung:
    epsilon: float
    resolved: bool
    sup_gap_full: float = np.nan
    sup_gap_interior: float = np.nan
    min_gap_interior: float = np.nan
    lp_gap: float = np.nan
    frac_nonneg_interior: float = np.nan
    gap_field: object = None  # SpaceTimeField when the sweep stores fields


@dataclass
class SweepReport:
    scenario: str
    rungs: list
    liminf_tol: dict            # epsilon -> tolerance used
    countable_threshold: float
    liminf_pass: bool
    countable_pass: bool
    value_sup: float
    flagged_steps: int          # inner-sweep flagged steps over every march

    def resolved_rungs(self):
        return [r for r in self.rungs if r.resolved]

    def checks(self):
        return [inner_sweeps_check(self.flagged_steps),
                ("liminf", self.liminf_pass, ""),
                ("countable_convergence", self.countable_pass,
                 f"threshold {self.countable_threshold:.4f}")]

    def to_json(self):
        """Every field; a rung's stored gap field stays out, and is not
        copied as ``asdict`` would."""
        return vars(self) | {"rungs": [{k: v for k, v in vars(r).items() if k != "gap_field"}
                                       for r in self.rungs]}


def _gaps_shrink(sups, threshold=np.inf):
    """The interior sup gaps of an epsilon ladder decrease, and the smallest
    rung's is at most ``threshold``.  A rung with no interior node (NaN) is
    left out; with none left, there is nothing to pass."""
    sups = [s for s in sups if not np.isnan(s)]
    return (bool(sups) and sups[-1] <= threshold
            and all(b <= a + 1e-10 for a, b in zip(sups, sups[1:])))


def _eps_walk(B, F, grid, eps_list, scheme, flagged):
    """March the raw tables, then mollify and march them down an epsilon ladder.

    Returns V and an iterator of (eps, kernel, (B_eps, F_eps), gap, mask,
    order_sup) over the rungs the grid resolves (eps >= max dx and eps >=
    dt); the ladder must decrease strictly, so the unresolved rungs are its
    tail.  ``gap`` is V_eps - V, ``mask`` the rung's own interior band, and
    ``order_sup`` max |gap| over the one band the ladder's order is tested
    on: that of the largest eps with an interior node, which every smaller
    rung's band contains (NaN for a rung with none).  Every march adds its
    flagged inner steps to ``flagged``.
    """
    eps_list = [float(e) for e in eps_list]
    if not strictly_decreasing(eps_list):
        raise ValueError("eps ladder must be strictly decreasing")
    resolved = [eps for eps in eps_list if eps >= max(grid.dx) and eps >= grid.dt]
    masks = [interior_mask(grid, eps) for eps in resolved]
    band = next((mask for mask in masks if mask.any()), None)

    def march(tables):
        V = solve_hjb_tables(*tables, grid, scheme=scheme)
        flagged.extend(V.meta["inner_flagged_steps"])
        return V

    def rung(eps, mask):
        kernel = MollifierKernel(eps, dim=grid.dim)
        tables = mollify_samples(B, F, kernel, grid)
        gap = march(tables).values - V.values
        return (eps, kernel, tables, gap, mask,
                float(np.max(np.abs(gap[band]))) if mask.any() else np.nan)

    V = march((B, F))
    return V, (rung(eps, mask) for eps, mask in zip(resolved, masks))


def mollify_value_sweep(oracle, action_set, grid, eps_list, scheme=UPWIND,
                        scenario=None, store_fields=False):
    """Solve the regularized problems along an epsilon ladder and compare.

    Per rung: mollify the per-action coefficient tables, run the direct HJB
    solver, and tabulate V_eps - V.  The liminf check asserts, at the two
    smallest resolved epsilons, min over interior nodes of (V_eps - V) >=
    -(liminf_atol + coeff * eps); the epsilon coefficient
    2 * kernel_time_moment * sup Phi bounds the mass lost to the zero
    extension at the time boundary, and the atol covers scheme error.
    The countable-convergence check asserts the sup gap decreasing along
    the ladder over the ladder's one order band (see ``_eps_walk``), and the
    smallest rung's interior sup gap below ``countable_threshold`` (5 dx).
    Rungs with eps below the grid spacing are refused.
    """
    flagged = []
    B, F = sample_all(oracle, grid, action_set)
    V, walk = _eps_walk(B, F, grid, eps_list, scheme, flagged)

    phi_sup = max(0.0, float(np.max(oracle.bound(_level_column(grid), grid.points()))))

    liminf_atol = 10.0 * (max(grid.dx) ** 2 + grid.dt)
    countable_threshold = 5.0 * max(grid.dx)

    resolved = []
    liminf_tols = {}
    order_sups = []
    for eps, kernel, tables, gap, mask, order_sup in walk:
        del tables  # held here, it would outlive the making of the next rung
        interior = gap[mask]
        order_sups.append(order_sup)
        coeff = 2.0 * kernel.abs_time_moment * phi_sup
        liminf_tols[eps] = float(liminf_atol + coeff * eps)
        resolved.append(SweepRung(
            epsilon=eps,
            resolved=True,
            sup_gap_full=float(np.max(np.abs(gap))),
            sup_gap_interior=float(np.max(np.abs(interior))) if interior.size else np.nan,
            min_gap_interior=float(np.min(interior)) if interior.size else np.nan,
            lp_gap=lp_norm(gap, 2, grid),
            frac_nonneg_interior=float(np.mean(interior >= -1e-12)) if interior.size else np.nan,
            gap_field=SpaceTimeField(grid, gap) if store_fields else None,
        ))
    rungs = resolved + [SweepRung(epsilon=float(eps), resolved=False)
                        for eps in eps_list[len(resolved):]]

    # a rung with no interior node (NaN) checks nothing; with none left, nothing passes
    checked = [r for r in resolved[-2:] if not np.isnan(r.min_gap_interior)]
    liminf_pass = bool(checked) and all(r.min_gap_interior >= -liminf_tols[r.epsilon]
                                        for r in checked)
    # the order on the ladder's one band; the 5 dx gate on the smallest rung's own band
    countable_pass = _gaps_shrink(order_sups) and _gaps_shrink(
        [r.sup_gap_interior for r in resolved][-1:], countable_threshold)

    return SweepReport(
        scenario=scenario or oracle.name,
        rungs=rungs,
        liminf_tol=liminf_tols,
        countable_threshold=float(countable_threshold),
        liminf_pass=liminf_pass,
        countable_pass=countable_pass,
        value_sup=float(np.max(np.abs(V.values))),
        flagged_steps=len(flagged),
    )


# ---------------------------------------------------------------------------
# strict-gap counterexample


@dataclass
class CounterexampleRow:
    s: float
    x: float
    v_exact: float
    v_num: float
    v_lim_exact: float
    v_lim_num: float
    gap_num: float


@dataclass
class CounterexampleReport:
    rows: list
    gap_at_origin: float
    gap_pass: bool
    mc_rows: list           # (label, mean, se, target, within)
    mc_pass: bool
    contamination: float
    contamination_tol: float
    advice: str

    def to_csv(self, path_or_buf):
        write_csv(path_or_buf, [f.name for f in fields(CounterexampleRow)],
                  [astuple(r) for r in self.rows])

    def to_json(self):
        return asdict(self)

    def checks(self):
        # closed forms: V(0,0) and V_lim(0,0) each within 2% (1 and 4/3 at T = 1)
        row = _origin_row(self.rows)
        closed_forms = (False, "no row at x = 0") if row is None else (
            abs(row.v_num - row.v_exact) <= 0.02 * abs(row.v_exact)
            and abs(row.v_lim_num - row.v_lim_exact) <= 0.02 * abs(row.v_lim_exact),
            f"V(0,0)={row.v_num:.4f} of {row.v_exact:.4f}, "
            f"Vlim(0,0)={row.v_lim_num:.4f} of {row.v_lim_exact:.4f}")
        return [("strict_gap", self.gap_pass, f"gap(0,0)={self.gap_at_origin:.4f}"),
                ("closed_forms", *closed_forms),
                ("mc_crosscheck", self.mc_pass, ""),
                ("boundary_contamination", self.contamination <= self.contamination_tol,
                 self.advice or f"{self.contamination:.2e}")]


def _origin_row(rows):
    """The row at x = 0 (to within 1e-12), or None."""
    return next((r for r in rows if abs(r.x) < 1e-12), None)


def _solve_effective(c, grid):
    """Value field of the injected effective Hamiltonian H = c p + |x|^2 on a box.

    Realized as the single-action constant-drift entry (drift c, quadratic
    cost) with central advection and exact Dirichlet data from its closed form.
    """
    oracle = make_constant_drift(grid, c=c)
    bf, ff = sample_all(oracle, grid, ActionSet(np.array([1.0])))
    u = solve_frozen(bf[0], ff[0], grid, lambda t, X: oracle.exact_value(t, X, grid.T), CENTRAL)
    return u, oracle


def counterexample_report(T, x_samples, grid, sim=None, mc_enabled=True):
    """Numbers behind the strict mollification gap, on a 1d box.

    For each sample x at s = 0: the exact and numerical original value (drift
    switched off on the diagonal null set, effective Hamiltonian |x|^2) and
    the exact and numerical mollified-limit value (drift identically one).
    The closed forms hold on the line, which the box approximates.  The
    numerical gap at (0, 0) must reach 0.30 when T = 1.  Boundary
    contamination is estimated a posteriori by re-solving on the grid's nodes
    extended by whole cells to at least 4/3 of the box's width; above
    tolerance the report advises a larger box.
    """
    contamination_tol = 1e-3
    if grid.domain_kind != BOX or grid.dim != 1:
        raise ValueError(f"counterexample report needs a 1d box, got {grid.dim}d {grid.domain_kind}")
    if abs(grid.T - T) > 1e-12:
        raise ValueError("grid terminal time differs from requested T")

    u0, oracle0 = _solve_effective(0.0, grid)
    u1, oracle1 = _solve_effective(1.0, grid)
    X = np.array(x_samples, dtype=float).reshape(-1, 1)
    v_ex, vl_ex = (oracle.exact_value(0.0, X, T) for oracle in (oracle0, oracle1))
    v_num, vl_num = (value_at(u, 0.0, X) for u in (u0, u1))
    rows = [CounterexampleRow(0.0, *map(float, row))
            for row in zip(X[:, 0], v_ex, v_num, vl_ex, vl_num, vl_num - v_num)]

    origin = _origin_row(rows)
    gap_origin = np.nan if origin is None else origin.gap_num
    gap_pass = bool(gap_origin >= 0.30)

    # boundary contamination: the grid's nodes on a box at least 4/3 as wide,
    # each edge padded by m = ceil((nx - 1) / 6) whole cells
    ((lo, hi),), (nx,), (dx,) = grid.extent, grid.nx, grid.dx
    m = -(-(nx - 1) // 6)
    big = build_grid(BOX, 1, (lo - m * dx, hi + m * dx), nx + 2 * m, grid.T, grid.nt)
    ub0, ub1 = (_solve_effective(c, big)[0] for c in (0.0, 1.0))
    contamination = np.max(np.abs(np.concatenate(
        [value_at(ub0, 0.0, X) - v_num, value_at(ub1, 0.0, X) - vl_num])), initial=0.0)
    advice = ("" if contamination <= contamination_tol
              else f"boundary contamination {contamination:.2e} exceeds "
                   f"{contamination_tol:.1e}; enlarge the box extent")

    # Monte Carlo cross-check of both PDE numbers at the origin
    mc_rows = []
    if mc_enabled and sim is not None:
        start = np.asarray(sim.start_state)[None, :]
        ests = simulate_costs([(make_counterexample(grid), A_EQ_X),
                               (oracle1, constant_control(1.0))], sim, grid)
        for label, est, exact in zip(("feedback a=x", "drift 1"), ests, (oracle0, oracle1)):
            target = float(exact.exact_value(sim.start_time, start, T)[0])
            ok = bool(est.within(target, atol=5.0 * sim.dt_sim))
            mc_rows.append((label, est.mean, est.se, target, ok))
    mc_pass = all(row[-1] for row in mc_rows)

    return CounterexampleReport(
        rows=rows,
        gap_at_origin=float(gap_origin),
        gap_pass=gap_pass,
        mc_rows=mc_rows,
        mc_pass=mc_pass,
        contamination=float(contamination),
        contamination_tol=float(contamination_tol),
        advice=advice,
    )


# ---------------------------------------------------------------------------
# countable truncation study


@dataclass
class TruncationReport:
    family: str
    N_list: list
    monotone_pass: bool
    value_table: dict        # N -> sup |V^N| and cross-N decrements
    eps_table: list          # rows (N, eps, sup interior gap)
    eps_pass: bool
    open_loop_rows: list     # (eps, |J_eps - J|, se)
    open_loop_pass: bool
    flagged_steps: int       # inner-sweep flagged steps over every march

    def checks(self):
        return [inner_sweeps_check(self.flagged_steps),
                ("value_monotone_in_N", self.monotone_pass, ""),
                ("eps_convergence_per_N", self.eps_pass, ""),
                ("open_loop_costs", self.open_loop_pass, "")]

    def to_json(self):
        return asdict(self)


def countable_truncation_study(oracle, family, N_list, grid, sim=None,
                               eps_list=(), scheme=UPWIND):
    """Double limit behind countable-action convergence, realized numerically.

    V^N from the truncated action prefix is pointwise nonincreasing in N; for
    each N the mollified values converge back along the epsilon ladder (the
    sup gaps over the ladder's one order band decrease, see ``_eps_walk``;
    ``eps_table`` records each rung's own interior sup gap); and
    for the fixed open-loop control a = a_1 the regularized costs J_eps
    approach J (checked by Monte Carlo with common random numbers when a sim
    config is given).
    """
    N_list = sorted(int(N) for N in N_list)
    values = {}
    flagged = []
    eps_rows = []
    eps_pass = True
    open_legs = []  # (eps, leg) of the first prefix's rungs
    for N in N_list:
        B, F = sample_all(oracle, grid, family.prefix(N))
        values[N], walk = _eps_walk(B, F, grid, eps_list, scheme, flagged)
        order_sups = []
        for eps, _, (B_eps, F_eps), gap, mask, order_sup in walk:
            interior = np.abs(gap[mask])
            eps_rows.append([N, eps, float(np.max(interior)) if interior.size else np.nan])
            order_sups.append(order_sup)
            if sim is not None and N == N_list[0]:
                # action 0 of every prefix is a_1: its mollified tables are
                # prefix 1's; copied, so that the full tables can go
                open_legs.append((eps, (make_tabulated(
                    grid, B_eps[:1].copy(), F_eps[:1].copy(), name=f"{oracle.name}_eps"),
                    constant_control(0))))
            # held here, they would outlive the making of the next rung
            del B_eps, F_eps
        eps_pass = eps_pass and _gaps_shrink(order_sups)
    open_rows = []
    if open_legs:
        raw = (oracle, constant_control(family.prefix(1).action(0)))
        j_raw, *j_eps = simulate_costs([raw] + [leg for _, leg in open_legs], sim, grid)
        open_rows = [[eps, abs(j.mean - j_raw.mean), j.se]
                     for (eps, _), j in zip(open_legs, j_eps)]

    value_table = {}
    for N0, N1 in zip(N_list, N_list[1:]):
        diff = values[N1].values - values[N0].values
        # max positive part certifies V^N nonincreasing; min records how much
        # the enlarged prefix strictly improves somewhere
        value_table[f"{N0}->{N1}"] = {
            "max_violation": float(np.max(diff)),
            "min_decrement": float(np.min(diff)),
        }
    monotone_pass = all(v["max_violation"] <= 1e-10 for v in value_table.values())

    # J_eps gaps decreasing within combined statistical noise
    open_pass = all(b[1] <= a[1] + 3.0 * (a[2] + b[2])
                    for a, b in zip(open_rows, open_rows[1:]))

    return TruncationReport(
        family=family.name,
        N_list=N_list,
        monotone_pass=monotone_pass,
        value_table=value_table,
        eps_table=eps_rows,
        eps_pass=eps_pass,
        open_loop_rows=open_rows,
        open_loop_pass=open_pass,
        flagged_steps=len(flagged),
    )
