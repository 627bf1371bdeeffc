import weakref
from dataclasses import astuple

import numpy as np
import pytest

from hjblab import experiments, hjb, montecarlo
from hjblab.coefficients import (
    ActionFamily,
    ActionSet,
    bang_bang_actions,
    bang_bang_dyadic_family,
    bang_bang_family,
    make_bang_bang,
    make_constant_drift,
)
from hjblab.experiments import (
    CounterexampleReport,
    CounterexampleRow,
    counterexample_report,
    countable_truncation_study,
    dpp_battery,
    mollify_value_sweep,
    verification_check,
)
from hjblab.grids import SpaceTimeField, build_grid
from hjblab.hjb import solve_hjb_direct
from hjblab.mollify import MollifierKernel, interior_mask
from hjblab.montecarlo import GridPolicyControl, SimConfig, constant_control, dpp_residual
from test_coefficients import _count_calls


def _verdicts(rep):
    """A report's checks as {name: passed}."""
    return {name: passed for name, passed, _ in rep.checks()}


@pytest.fixture(scope="module")
def bang():
    grid = build_grid("torus", 1, (-1.0, 1.0), 32, 1.0, 64)
    oracle = make_bang_bang(grid)
    aset = bang_bang_actions()
    scheme = "central"
    u = solve_hjb_direct(oracle, aset, grid, scheme=scheme)
    return grid, oracle, aset, scheme, u


def test_verification_single_action_coincides():
    grid = build_grid("torus", 1, (-1.0, 1.0), 32, 1.0, 64)
    oracle = make_constant_drift(grid, c=0.5)
    aset = ActionSet(np.array([1.0]))
    u = solve_hjb_direct(oracle, aset, grid)
    sim = SimConfig(n_paths=8000, dt_sim=2e-3, seed=101, start_state=(0.25,))
    rep = verification_check(u, oracle, sim,
                             [("const_only", constant_control(1.0))])
    assert rep.passed
    # with a single action the candidate and argmin rows estimate the same J
    j_vals = [r.j_mean for r in rep.rows]
    assert abs(j_vals[0] - j_vals[1]) < 1e-12


def test_verification_bang_bang(bang):
    grid, oracle, aset, scheme, u = bang
    sim = SimConfig(n_paths=10000, dt_sim=2e-3, seed=103, start_state=(0.5,))
    rep = verification_check(
        u, oracle, sim,
        [("const_minus", constant_control(-1.0)),
         ("const_plus", constant_control(1.0))],
    )
    assert rep.passed
    # constant a = +1 started at x0 > 0 is strictly suboptimal beyond 3 SE
    row_plus = next(r for r in rep.rows if r.control == "const_plus")
    assert row_plus.j_mean - rep.u_start > 3.0 * row_plus.j_se


def test_dpp_battery_two_sided(bang):
    grid, oracle, aset, scheme, u = bang
    sim = SimConfig(n_paths=10000, dt_sim=2e-3, seed=107, start_state=(0.5,))
    rep = dpp_battery(u, oracle, GridPolicyControl(u.policy, name="argmin"), sim,
                      [0.25, 0.5, 0.75],
                      suboptimal_controls=[("const_plus", constant_control(1.0))])
    assert rep.passed
    pos = [r for r in rep.rows if r.expect == "positive"]
    assert all(r.residual > 3.0 * r.se for r in pos)


def test_counterexample_formulas_small_grid():
    grid = build_grid("box", 1, (-6.0, 6.0), 121, 1.0, 128)
    rep = counterexample_report(1.0, [0.0, 1.0], grid, mc_enabled=False)
    r0 = next(r for r in rep.rows if r.x == 0.0)
    r1 = next(r for r in rep.rows if r.x == 1.0)
    assert r0.v_exact == pytest.approx(1.0)
    assert r0.v_lim_exact == pytest.approx(4.0 / 3.0)
    assert r1.v_exact == pytest.approx(2.0)
    assert r1.v_lim_exact == pytest.approx(10.0 / 3.0)
    assert r1.v_lim_exact - r1.v_exact == pytest.approx(4.0 / 3.0)
    assert rep.gap_pass
    assert rep.contamination <= rep.contamination_tol
    assert _verdicts(rep)["closed_forms"]


def test_strict_gap_under_refinement():
    # the errors of V(0,0) = 1 and V_lim(0,0) = 4/3 are dt and about 2 dt, so
    # both converge at order 1, and one Richardson step, 2 V(dt/2) - V(dt),
    # leaves a gap of 1/3 within 1e-5: twice the 5.0e-6 that the finest pair
    # measures (7.8e-5 and 2.0e-5 on the coarser pairs, shrinking at order 2)
    V, V_lim = [], []
    for nx, nt in [(61, 64), (121, 128), (241, 256), (481, 512)]:
        grid = build_grid("box", 1, (-6.0, 6.0), nx, 1.0, nt)
        origin = counterexample_report(1.0, [0.0], grid, mc_enabled=False).rows[0]
        V.append(origin.v_num)
        V_lim.append(origin.v_lim_num)
    V, V_lim = np.array(V), np.array(V_lim)
    for err in (V - 1.0, V_lim - 4.0 / 3.0):
        assert np.all(np.abs(np.log2(err[:-1] / err[1:]) - 1.0) <= 0.05)
    gap = (2.0 * V_lim[-1] - V_lim[-2]) - (2.0 * V[-1] - V[-2])
    assert abs(gap - 1.0 / 3.0) <= 1e-5


@pytest.mark.parametrize("v, v_lim, passed", [
    (1.0199, 4.0 / 3.0, True), (1.0201, 4.0 / 3.0, False), (0.9801, 4.0 / 3.0, True),
    (1.0, 4.0 / 3.0 * 1.0199, True), (1.0, 4.0 / 3.0 * 0.9799, False)])
def test_counterexample_closed_forms_hold_each_value_within_2_percent(v, v_lim, passed):
    rows = [CounterexampleRow(0.0, 1.0, 2.0, 9.0, 10.0 / 3.0, 9.0, 0.0),  # x = 1 is not read
            CounterexampleRow(0.0, 0.0, 1.0, v, 4.0 / 3.0, v_lim, v_lim - v)]
    rep = CounterexampleReport(rows, v_lim - v, True, [], True, 0.0, 1e-3, "")
    assert _verdicts(rep)["closed_forms"] is passed


def test_counterexample_closed_forms_need_the_origin_row():
    grid = build_grid("box", 1, (-6.0, 6.0), 61, 1.0, 32)
    rep = counterexample_report(1.0, [0.5, 1.0], grid, mc_enabled=False)
    assert ("closed_forms", False, "no row at x = 0") in rep.checks()


@pytest.mark.parametrize("kind, dim", [("torus", 1), ("box", 2)])
def test_counterexample_report_needs_a_1d_box(kind, dim):
    # the closed forms hold on the line, which only a 1d box approximates
    grid = build_grid(kind, dim, (-6.0, 6.0), 25, 1.0, 8)
    with pytest.raises(ValueError, match="1d box"):
        counterexample_report(1.0, [0.0], grid, mc_enabled=False)


@pytest.mark.parametrize("nx, nt", [(121, 128), (241, 512), (61, 32)])
def test_counterexample_rows_equal_the_per_x_loop(nx, nt):
    # x on the nodes (0, 0.5, 1, -6) and off them (0.123, 2.71, -3.33)
    grid = build_grid("box", 1, (-6.0, 6.0), nx, 1.0, nt)
    xs = [0.0, 0.123, 0.5, 1.0, 2.71, -3.33, -6.0]
    rep = counterexample_report(1.0, xs, grid, mc_enabled=False)
    f = 4.0 / 3.0  # the enlargement of the contamination box
    big = build_grid("box", 1, (-6.0 * f, 6.0 * f), int(round((nx - 1) * f)) + 1, 1.0, nt)
    (u0, oracle0), (u1, oracle1) = (experiments._solve_effective(c, grid) for c in (0.0, 1.0))
    ub0, ub1 = (experiments._solve_effective(c, big)[0] for c in (0.0, 1.0))
    rows, contamination = [], 0.0
    for x in xs:  # one point at a time, as the report once did
        pt = np.array([[float(x)]])
        v_ex = float(oracle0.exact_value(0.0, pt, 1.0)[0])
        vl_ex = float(oracle1.exact_value(0.0, pt, 1.0)[0])
        v_num = float(montecarlo.value_at(u0, 0.0, pt)[0])
        vl_num = float(montecarlo.value_at(u1, 0.0, pt)[0])
        rows.append((0.0, float(x), v_ex, v_num, vl_ex, vl_num, vl_num - v_num))
        contamination = max(contamination,
                            abs(float(montecarlo.value_at(ub0, 0.0, pt)[0]) - v_num),
                            abs(float(montecarlo.value_at(ub1, 0.0, pt)[0]) - vl_num))
    hexed = lambda row: [float.hex(v) for v in row]
    assert [hexed(astuple(r)) for r in rep.rows] == [hexed(r) for r in rows]
    assert rep.contamination.hex() == contamination.hex()
    assert rep.gap_at_origin.hex() == rows[0][-1].hex()


@pytest.mark.parametrize("nx", [124, 100])
def test_counterexample_contamination_box_keeps_the_grid_nodes(nx):
    # nx - 1 is no multiple of 6: scaling the box by 4/3 would shift its nodes
    # off the grid's, and the contamination would read interpolation error
    grid = build_grid("box", 1, (-6.0, 6.0), nx, 1.0, 128)
    rep = counterexample_report(1.0, [0.0, 0.5, 1.0], grid, mc_enabled=False)
    assert rep.contamination <= rep.contamination_tol and rep.advice == ""
    assert _verdicts(rep)["closed_forms"] and rep.gap_pass


def test_counterexample_grid_time_mismatch():
    grid = build_grid("box", 1, (-6.0, 6.0), 61, 0.5, 32)
    with pytest.raises(ValueError):
        counterexample_report(1.0, [0.0], grid)


def test_sweep_refuses_underresolved_rung(bang):
    grid, oracle, aset, scheme, _ = bang
    sw = mollify_value_sweep(oracle, aset, grid, [0.2, 0.1, 0.01], scheme=scheme)
    flags = {r.epsilon: r.resolved for r in sw.rungs}
    assert flags[0.2] and flags[0.1] and not flags[0.01]


@pytest.mark.parametrize("sups, threshold, passed", [
    ([np.nan, 0.0099, 0.0055], 0.156, True),  # the widest rung has no interior node
    ([0.2, np.nan, 0.1], np.inf, True),
    ([0.1, 0.2], np.inf, False),
    ([0.2, 0.1], 0.05, False),
    ([np.nan, np.nan], np.inf, False),  # no rung has an interior node
])
def test_gap_ladder_leaves_out_rungs_without_interior_nodes(sups, threshold, passed):
    # the predicate of the sweep's countable-convergence check and of the
    # truncation study's per-N epsilon check
    assert experiments._gaps_shrink(sups, threshold) == passed


def _hand_made_ladder(monkeypatch, inside, outside):
    """A box grid whose marches return hand-made fields: V = 0, then per rung
    of the ladder 0.4, 0.2, 0.1 ``inside`` on the band of eps 0.4 and
    ``outside`` off it; every rung's band choice is left to ``_eps_walk``."""
    grid = build_grid("box", 1, (-1.0, 1.0), 41, 1.0, 40)
    band = interior_mask(grid, 0.4)
    fields = iter([np.zeros(band.shape)] + [np.where(band, a, b) for a, b in zip(inside, outside)])
    monkeypatch.setattr(experiments, "mollify_samples", lambda B, F, kernel, grid: (B, F))
    monkeypatch.setattr(experiments, "solve_hjb_tables", lambda *args, **kwargs: SpaceTimeField(
        grid, next(fields), meta={"inner_flagged_steps": []}))
    return grid


@pytest.mark.parametrize("inside, outside, passed", [
    # own bands widen onto larger gaps: their sups rise, the one band's fall
    ([3e-3, 2e-3, 1e-3], [0.0, 5e-3, 6e-3], True),
    ([1e-3, 2e-3, 1.5e-3], [0.0, 0.0, 0.0], False),  # the one band's sups rise
    ([3e-3, 2e-3, 1e-3], [0.0, 0.0, 0.3], False),  # the smallest rung's own band above 5 dx
])
def test_sweep_order_is_tested_on_one_band(monkeypatch, inside, outside, passed):
    grid = _hand_made_ladder(monkeypatch, inside, outside)
    sw = mollify_value_sweep(make_bang_bang(grid), bang_bang_actions(), grid, [0.4, 0.2, 0.1])
    assert sw.countable_threshold == pytest.approx(0.25)
    assert sw.countable_pass == passed


@pytest.mark.parametrize("inside, outside, passed", [
    ([3e-3, 2e-3, 1e-3], [0.0, 5e-3, 6e-3], True),
    ([1e-3, 2e-3, 1.5e-3], [0.0, 0.0, 0.0], False),
    ([3e-3, 2e-3, 1e-3], [0.0, 0.0, 0.3], True),  # the study has no 5 dx gate
])
def test_truncation_order_is_tested_on_one_band(monkeypatch, inside, outside, passed):
    # the study reads the sweep's one band; its eps_table keeps each rung's own
    grid = _hand_made_ladder(monkeypatch, inside, outside)
    rep = countable_truncation_study(make_bang_bang(grid), bang_bang_family(), [1], grid,
                                     eps_list=[0.4, 0.2, 0.1])
    assert rep.eps_pass == passed
    assert [sup for _, _, sup in rep.eps_table] == [max(a, b) for a, b in zip(inside, outside)]


def test_sweep_passes_and_reports(bang):
    grid, oracle, aset, scheme, _ = bang
    sw = mollify_value_sweep(oracle, aset, grid, [0.3, 0.15], scheme=scheme)
    assert sw.liminf_pass and sw.countable_pass
    assert sw.countable_threshold == pytest.approx(5 * grid.dx[0])
    rungs = sw.resolved_rungs()
    assert rungs[-1].sup_gap_interior <= sw.countable_threshold
    assert all(np.isfinite(r.lp_gap) for r in rungs)
    # epsilon column strictly decreasing
    eps = [r.epsilon for r in sw.rungs]
    assert all(b < a for a, b in zip(eps, eps[1:]))


def test_sweep_bound_at_largest_rung(bang):
    # V_eps stays bounded by sup(Phi) * T at every rung
    grid, oracle, aset, scheme, _ = bang
    sw = mollify_value_sweep(oracle, aset, grid, [0.3, 0.15], scheme=scheme)
    phi_sup = 1.0 + 1.0  # |b| <= 1, dist^2 <= 1 on the period-2 torus
    assert sw.value_sup <= phi_sup * grid.T + 1e-12
    assert sw.resolved_rungs()[0].sup_gap_full <= 2 * phi_sup * grid.T


def test_truncation_bang_family(bang):
    grid, oracle, aset, scheme, _ = bang
    rep = countable_truncation_study(oracle, bang_bang_family(), [1, 2], grid,
                                     eps_list=[0.2, 0.1], scheme=scheme)
    assert rep.monotone_pass and rep.eps_pass
    change = rep.value_table["1->2"]
    assert change["max_violation"] <= 1e-10
    assert change["min_decrement"] < -1e-3  # the second action strictly helps


# sup(V^N - V_{+-1}) of the dyadic family's prefixes on the bang fixture's
# grid, measured: 3.57e-2, 1.76e-2, 4.35e-3, 2.71e-4 and 1.06e-6
DYADIC_N = (2, 4, 8, 16, 32)
DYADIC_SUP_AT_32 = 1.5e-6


def test_dyadic_family_converges_to_its_unattained_sup(bang):
    # prefixes of +-(1 - 2^-k) never contain +-1, so V^N stays above the
    # +-1 value, and the gap does not rise as N doubles
    grid, oracle, _, scheme, u = bang
    gaps = []
    for N in DYADIC_N:
        V = solve_hjb_direct(oracle, bang_bang_dyadic_family().prefix(N), grid, scheme=scheme)
        assert V.meta["inner_flagged_steps"] == []
        diff = V.values - u.values
        assert diff.min() >= 0.0
        gaps.append(float(diff.max()))
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] > 1e-2 and gaps[-1] < DYADIC_SUP_AT_32


def test_truncation_dyadic_family(bang):
    grid, oracle, _, scheme, _ = bang
    rep = countable_truncation_study(oracle, bang_bang_dyadic_family(), [1, 2, 4, 8], grid,
                                     eps_list=[0.2, 0.1], scheme=scheme)
    assert all(_verdicts(rep).values())
    # the family never runs out: every doubling of N strictly helps
    assert all(change["min_decrement"] < 0.0 for change in rep.value_table.values())


def test_truncation_first_action_already_optimal():
    grid = build_grid("torus", 1, (-1.0, 1.0), 32, 1.0, 64)
    oracle = make_constant_drift(grid, c=0.0)  # b = a * 0: every action identical
    fam = ActionFamily("degenerate", lambda i: float(i), size=3)
    rep = countable_truncation_study(oracle, fam, [1, 2, 3], grid)
    for change in rep.value_table.values():
        assert abs(change["max_violation"]) <= 1e-12
        assert abs(change["min_decrement"]) <= 1e-12


def test_truncation_open_loop_mc(bang):
    grid, oracle, aset, scheme, _ = bang
    sim = SimConfig(n_paths=5000, dt_sim=2e-3, seed=109, start_state=(0.5,))
    rep = countable_truncation_study(oracle, bang_bang_family(), [1, 2], grid,
                                     sim=sim, eps_list=[0.2, 0.1], scheme=scheme)
    assert rep.open_loop_pass
    assert len(rep.open_loop_rows) == 2
    gaps = [row[1] for row in rep.open_loop_rows]
    assert gaps[1] <= gaps[0] + 3.0 * (rep.open_loop_rows[0][2] + rep.open_loop_rows[1][2])


def test_truncation_rejects_a_ladder_that_is_not_decreasing(bang):
    grid, oracle, _, scheme, _ = bang
    with pytest.raises(ValueError, match="strictly decreasing"):
        countable_truncation_study(oracle, bang_bang_family(), [1, 2], grid,
                                   eps_list=[0.1, 0.2], scheme=scheme)


def test_each_table_sampled_and_mollified_once(bang, monkeypatch):
    # one sample per prefix (and per sweep); one mollification per prefix and
    # rung, the open-loop rows reusing the first prefix's tables
    grid, oracle, aset, scheme, _ = bang
    calls = {"sample_all": 0, "mollify_samples": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((experiments, "sample_all"), (hjb, "sample_all"),
                         (experiments, "mollify_samples")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    sim = SimConfig(n_paths=500, dt_sim=5e-3, seed=113, start_state=(0.5,))
    rep = countable_truncation_study(oracle, bang_bang_family(), [1, 2], grid,
                                     sim=sim, eps_list=[0.2, 0.1], scheme=scheme)
    assert len(rep.open_loop_rows) == 2
    assert calls == {"sample_all": 2, "mollify_samples": 4}
    calls["sample_all"] = 0
    mollify_value_sweep(oracle, aset, grid, [0.2, 0.1], scheme=scheme)
    assert calls["sample_all"] == 1


def test_sweep_takes_one_bound_call(bang, monkeypatch):
    # the sup of Phi over the cylinder is one call on every level at once
    grid, oracle, aset, scheme, _ = bang
    calls = _count_calls(monkeypatch, oracle)
    mollify_value_sweep(oracle, aset, grid, [0.2, 0.1], scheme=scheme)
    assert calls == {"eval": len(aset), "bound": 1}


@pytest.mark.parametrize("report", ["sweep", "truncation"])
def test_each_rung_released_before_the_next_is_made(bang, monkeypatch, report):
    # no earlier rung's mollified tables are alive when the next rung is made
    grid, oracle, aset, scheme, _ = bang
    made, alive = [], []
    real = experiments.mollify_samples

    def probe(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        tables = real(*args, **kwargs)
        made.extend(weakref.ref(table) for table in tables)
        return tables

    monkeypatch.setattr(experiments, "mollify_samples", probe)
    if report == "sweep":
        mollify_value_sweep(oracle, aset, grid, [0.3, 0.15, 0.1], scheme=scheme,
                            store_fields=True)
    else:
        sim = SimConfig(n_paths=200, dt_sim=5e-3, seed=113, start_state=(0.5,))
        countable_truncation_study(oracle, bang_bang_family(), [1, 2], grid,
                                   sim=sim, eps_list=[0.2, 0.1], scheme=scheme)
    assert alive == [0] * (3 if report == "sweep" else 4)


def test_truncation_fails_on_flagged_inner_steps(bang, monkeypatch):
    grid, oracle, _, scheme, _ = bang
    monkeypatch.setattr(hjb, "MAX_SWEEPS", 1)
    rep = countable_truncation_study(oracle, bang_bang_family(), [1, 2], grid,
                                     eps_list=[0.2, 0.1], scheme=scheme)
    assert rep.flagged_steps > 0 and not all(_verdicts(rep).values())
    assert rep.checks()[0] == ("inner_sweeps_converged", False, f"{rep.flagged_steps} flagged steps")


@pytest.mark.parametrize("dt_sim, t_mids, loops", [
    # one step size: one loop of 375 steps, snapshots at 125 and 250
    (2e-3, [0.25, 0.5, 0.75], [[125, 250, 375]]),
    (2e-3, [0.75, 0.25, 0.5], [[125, 250, 375]]),  # unsorted t_mids keep their row order
    # 83, 167 and 250 steps of three sizes: one loop each
    (3e-3, [0.25, 0.5, 0.75], [[83], [167], [250]]),
])
def test_dpp_battery_rows_equal_separate_residuals(bang, monkeypatch, dt_sim, t_mids, loops):
    grid, oracle, _, _, u = bang
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 256)
    sim = SimConfig(n_paths=600, dt_sim=dt_sim, seed=127, start_state=(0.5,))
    argmin = GridPolicyControl(u.policy, name="argmin")
    plus = constant_control(1.0)
    calls = []
    real = montecarlo._block_totals

    def counted(legs, sim, horizons, *args):
        calls.append([steps for _, steps in horizons])
        return real(legs, sim, horizons, *args)

    monkeypatch.setattr(montecarlo, "_block_totals", counted)
    rep = dpp_battery(u, oracle, argmin, sim, t_mids, suboptimal_controls=[("const_plus", plus)])
    assert calls == loops
    monkeypatch.setattr(montecarlo, "_block_totals", real)
    expect = []
    for t_mid in t_mids:
        for name, control in (("argmin", argmin), ("const_plus", plus)):
            est = dpp_residual(u, oracle, control, t_mid, sim)
            expect.append((t_mid, name, est.mean, est.se))
    assert [(r.t_mid, r.control, r.residual, r.se) for r in rep.rows] == expect
