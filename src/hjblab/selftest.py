"""Acceptance battery: every shipped claim, one pass/fail line each.

The battery loads its scenarios from the configs shipped in hjblab/configs
(the files the CLI runs), runs all nine acceptance checks at their stated
tolerances, writes the numeric artifacts into an output directory, and
records every config's echo and one check per criterion in a
``RunManifest``, written as ``selftest_summary.json``.  Artifact bytes are
deterministic for its seed set, MASTER_SEED + k: rerunning the battery
reproduces them bit for bit.
"""

from __future__ import annotations

import os
import time
from importlib import resources

import numpy as np

from .coefficients import (
    ActionSet,
    _level_column,
    make_counterexample,
    make_constant_drift,
    make_smooth_baseline,
    make_step_drift,
    sample_all,
    verify_bound,
)
from .config import RunManifest, echo_hash, load_config
from .experiments import (
    A_EQ_X,
    _gaps_shrink,
    _solve_effective,
    counterexample_report,
    countable_truncation_study,
    dpp_battery,
    mollify_value_sweep,
    verification_check,
)
from .grids import CENTRAL, UPWIND, build_grid, write_csv
from .hamiltonian import Policy, argmin_level
from .hjb import inner_sweeps_check, policy_iteration, policy_iteration_checks, solve_hjb_direct
from .mollify import coefficient_ladder, kernel_normalization_error
from .montecarlo import (
    STREAM,
    FeedbackRule,
    GridPolicyControl,
    SimConfig,
    constant_control,
    simulate_cost,
    simulate_costs,
)
from .parabolic import convergence_order, solve_frozen

MASTER_SEED = 20260810
SUMMARY = "selftest_summary.json"


# ---------------------------------------------------------------------------
# shipped scenarios

# every config in hjblab/configs, each the one definition of its scenario;
# criteria 3, 4 and 7 and the bound scan run the multi-action ones
CONFIGS = resources.files(__package__) / "configs"
MULTI_ACTION = ("bang_bang", "step_drift", "checkerboard", "smooth_baseline")


def shipped(name):
    """The shipped scenario config ``hjblab/configs/<name>.cfg``, loaded."""
    with resources.as_file(CONFIGS / f"{name}.cfg") as path:
        return load_config(path)


def multi_action_scenarios():
    return {name: shipped(name) for name in MULTI_ACTION}


# ---------------------------------------------------------------------------
# criteria


def _all_pass(*reports):
    """Every check of every report passes."""
    return all(passed for rep in reports for _, passed, _ in rep.checks())


def _crit1_counterexample(record):
    t0 = time.perf_counter()
    cfg = shipped("counterexample")
    rep = counterexample_report(cfg.grid.T, cfg.experiment["x_samples"], cfg.grid,
                                mc_enabled=False)
    rt = time.perf_counter() - t0
    ok = _all_pass(rep) and rt < 10.0
    record.write_json("counterexample.json", rep.to_json())
    rep.to_csv(record.path("counterexample_rows.csv"))
    detail = "; ".join(f"{name}: {detail}" for name, _, detail in rep.checks() if detail)
    record.add_check("counterexample gap (closed forms)", ok, detail, criterion=1, runtime=rt)
    return rep


def _crit2_mc_crosscheck(record, threads):
    t0 = time.perf_counter()
    cfg = shipped("counterexample")
    est0, est1 = simulate_costs(
        [(cfg.build_oracle(), A_EQ_X),
         (make_constant_drift(cfg.grid, c=1.0), constant_control(1.0))],
        cfg.build_sim(seed_override=MASTER_SEED, n_threads=threads), cfg.grid)
    rt = time.perf_counter() - t0
    ok = est0.within(1.0) and est1.within(4.0 / 3.0) and rt < 60.0
    record.write_json("mc_crosscheck.json", [
        est0.to_json(scenario="counterexample", control=A_EQ_X.name),
        est1.to_json(scenario="counterexample_mollified_limit", control="const_1"),
    ])
    detail = (f"a=x: {est0.mean:.5f}+-{est0.se:.5f} (1.0); "
              f"drift1: {est1.mean:.5f}+-{est1.se:.5f} ({4/3:.5f})")
    record.add_check("Monte Carlo cross-check", ok, detail, criterion=2, runtime=rt)


def _crit3_crit4_agreement(record):
    """Criteria 3 and 4; returns per scenario the (config, oracle, action set,
    direct solution) that criteria 5 and 6 reuse, and the direct marches'
    flagged steps."""
    t0 = time.perf_counter()
    rows = {}
    ok3 = True
    ok4 = True
    solved = {}
    for name, cfg in multi_action_scenarios().items():
        oracle, aset = cfg.build_oracle(), cfg.build_action_set()
        u_pi, _, trace = policy_iteration(oracle, aset, cfg.grid, scheme=cfg.scheme, tol=cfg.tol)
        u_dir = solve_hjb_direct(oracle, aset, cfg.grid, scheme=cfg.scheme)
        sup, descent, checks = policy_iteration_checks(u_pi, u_dir, trace, cfg.tol)
        passed = {check: ok for check, ok, _ in checks}
        flagged = len(u_dir.meta["inner_flagged_steps"])
        rows[name] = {
            "sup_diff": sup,
            "iterations": trace.iterations,
            "converged": trace.converged,
            "descent_violation": descent,
            "residual": trace.residuals[-1],
            "flagged_steps": flagged,
        }
        solved[name] = (cfg, oracle, aset, u_dir)
        # beyond the command's checks: at most 50 iterations, no flagged step
        ok3 = (ok3 and passed["converged"] and passed["oracle_agreement"]
               and trace.iterations <= 50 and not flagged)
        ok4 = ok4 and passed["monotone_descent"]
    rt = time.perf_counter() - t0
    record.write_json("oracle_agreement.json", rows)
    sups = ", ".join(f"{k}={v['sup_diff']:.1e}" for k, v in rows.items())
    iters = ", ".join(f"{k}:{v['iterations']}" for k, v in rows.items())
    record.add_check("policy iteration vs direct solve", ok3, sups, criterion=3, runtime=rt)
    record.add_check("policy iteration monotonicity", ok4, iters, criterion=4, runtime=0.0)
    return solved, sum(row["flagged_steps"] for row in rows.values())


def _bang_bang_candidates(grid, oracle, aset, u_dir, seed):
    """Five fixed candidate controls for the verification battery."""
    B, F = sample_all(oracle, grid, aset)
    _, H = argmin_level(B, F, u_dir.values, grid, CENTRAL)  # (n_a, levels, space)
    worst = Policy(grid, np.argmax(H, axis=0), aset)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    random_policy = Policy(grid, rng.integers(0, len(aset), size=(grid.n_levels,) + grid.space_shape), aset)
    return [
        ("const_minus", constant_control(-1.0)),
        ("const_plus", constant_control(1.0)),
        ("away_from_origin", FeedbackRule(lambda t, X: np.where(X[:, 0] >= 0, 1.0, -1.0),
                                          name="away_from_origin")),
        ("anti_argmin", GridPolicyControl(worst, name="anti_argmin")),
        ("random_policy", GridPolicyControl(random_policy, name="random_policy")),
    ]


def _counterexample_sim(seed, threads):
    """The counterexample's Monte Carlo runs: 20k paths at dt_sim 2e-3 from (0, 0)."""
    return SimConfig(n_paths=20000, dt_sim=2e-3, seed=seed, n_threads=threads)


def _crit5_verification(record, bang_bang, u0, threads):
    t0 = time.perf_counter()

    # scenario 1: bang_bang, argmin feedback from the direct solver's policy
    cfg, oracle, aset, u_dir = bang_bang
    sim = cfg.build_sim(seed_override=MASTER_SEED + 1, n_threads=threads)
    candidates = _bang_bang_candidates(cfg.grid, oracle, aset, u_dir, MASTER_SEED + 2)
    rep1 = verification_check(u_dir, oracle, sim, candidates)
    record.write_json("verification_bang_bang.json", rep1.to_json())

    # scenario 2: counterexample against the injected effective Hamiltonian
    ce = make_counterexample(u0.grid)
    simc = _counterexample_sim(MASTER_SEED + 3, threads)
    cand_c = [
        ("const_0", constant_control(0.0)),
        ("const_half", constant_control(0.5)),
        ("const_minus_half", constant_control(-0.5)),
        ("shifted_diag", FeedbackRule(lambda t, X: X[:, 0] + 1.0, name="shifted_diag")),
        ("double_diag", FeedbackRule(lambda t, X: 2.0 * X[:, 0], name="double_diag")),
    ]
    rep2 = verification_check(u0, ce, simc, cand_c, argmin_control=A_EQ_X)
    record.write_json("verification_counterexample.json", rep2.to_json())

    rt = time.perf_counter() - t0
    record.add_check("verification theorem battery", _all_pass(rep1, rep2),
                     f"bang_bang u={rep1.u_start:.4f}; counterexample u={rep2.u_start:.4f}",
                     criterion=5, runtime=rt)


def _crit6_dpp(record, bang_bang, u0, threads):
    t0 = time.perf_counter()
    cfg, oracle, _, u_dir = bang_bang
    sim = cfg.build_sim(seed_override=MASTER_SEED + 4, n_threads=threads)
    t_mids = [frac * cfg.grid.T for frac in cfg.experiment["t_mid"]]
    rep1 = dpp_battery(u_dir, oracle, GridPolicyControl(u_dir.policy, name="argmin"),
                       sim, t_mids,
                       suboptimal_controls=[("const_plus", constant_control(1.0))])

    ce = make_counterexample(u0.grid)
    simc = _counterexample_sim(MASTER_SEED + 5, threads)
    rep2 = dpp_battery(u0, ce, A_EQ_X, simc, t_mids,
                       suboptimal_controls=[("const_0", constant_control(0.0))])
    rt = time.perf_counter() - t0
    ok = _all_pass(rep1, rep2)
    record.write_json("dpp.json", rep1.to_json() + rep2.to_json())
    worst = max(abs(r.residual) for r in rep1.rows + rep2.rows if r.expect == "zero")
    record.add_check("DPP residuals", ok, f"max |residual| at argmin feedback {worst:.4f}",
                     criterion=6, runtime=rt)


def _crit7_sweeps(record, gap_report):
    """Criterion 7's sweeps; returns their marches' flagged steps."""
    t0 = time.perf_counter()
    ok = True
    details = []
    flagged = 0
    for name, cfg in multi_action_scenarios().items():
        sweep = mollify_value_sweep(cfg.build_oracle(), cfg.build_action_set(), cfg.grid,
                                    cfg.eps_list, scheme=cfg.scheme, scenario=name)
        flagged += sweep.flagged_steps
        record.write_json(f"sweep_{name}.json", sweep.to_json())
        write_csv(record.path(f"sweep_{name}.csv"),
                  ["epsilon", "resolved", "sup_gap_full", "sup_gap_interior",
                   "min_gap_interior", "lp_gap"],
                  [(r.epsilon, int(r.resolved), r.sup_gap_full, r.sup_gap_interior,
                    r.min_gap_interior, r.lp_gap) for r in sweep.rungs])
        failed = ", ".join(f"{check} ({detail})" if detail else check
                           for check, passed, detail in sweep.checks() if not passed)
        ok = ok and not failed
        last = sweep.resolved_rungs()[-1]
        details.append(f"{name}: sup={last.sup_gap_interior:.4f}<=5dx={sweep.countable_threshold:.4f}"
                       + (f", failed {failed}" if failed else ""))
    # the counterexample regime must NOT converge: strict gap stays
    ok = ok and next(passed for check, passed, _ in gap_report.checks() if check == "strict_gap")
    details.append(f"counterexample gap {gap_report.gap_at_origin:.3f}>=0.30")

    # coefficient ladders (external-interface CSV) for two contrasting entries
    gridl = build_grid("torus", 1, (-1.0, 1.0), 64, 1.0, 64)
    for entry, oracle in (("step_drift", make_step_drift(gridl, c=1.0)),
                          ("smooth_baseline", make_smooth_baseline(gridl))):
        ladder = coefficient_ladder(oracle, 1.0, gridl, [0.4, 0.2, 0.1])
        ladder.to_csv(record.path(f"ladder_{entry}.csv"))
        if not _gaps_shrink(ladder.distances()):
            ok = False
            details.append(f"{entry}: ladder not decreasing")
    rt = time.perf_counter() - t0
    record.add_check("mollification sweeps (two regimes)", ok, "; ".join(details), criterion=7,
                     runtime=rt)
    return flagged


def _smooth_problem(grid):
    oracle = make_smooth_baseline(grid)
    B, F = sample_all(oracle, grid, ActionSet(np.array([1.0])))
    return B[0], F[0], oracle.exact_value(_level_column(grid), grid.points(), grid.T)


def _crit8_solver_validation(record):
    t0 = time.perf_counter()

    # orders: coupled ladders dt ~ dx^2 (central) and dt ~ dx (upwind); the
    # central ladder's error ~ dx^2 ~ dt, so its slopes are 2 in dx and 1 in dt
    grids_c = [build_grid("torus", 1, 1.0, nx, 1.0, nx * nx // 8) for nx in (16, 24, 32, 48)]
    orders_c = convergence_order(_smooth_problem, grids_c, CENTRAL)
    grids_u = [build_grid("torus", 1, 1.0, nx, 1.0, nx) for nx in (32, 48, 64, 96)]
    orders_u = convergence_order(_smooth_problem, grids_u, UPWIND)
    payload = {f"orders_{name}": {"space": o.space, "time": o.time, "errors": o.errors}
               for name, o in (("central", orders_c), ("upwind", orders_u))}
    ok = all(abs(o.space - space) <= 0.25 and abs(o.time - 1.0) <= 0.25
             for o, space in ((orders_c, 2.0), (orders_u, 1.0)))

    # comparison-principle fuzz: 100 ordered pairs, zero violations beyond 1e-12
    rng = np.random.Generator(np.random.Philox(key=np.uint64(MASTER_SEED + 6)))
    worst = 0.0
    for trial in range(100):
        if trial < 80:
            grid = build_grid("torus", 1, 1.0, 32, 0.5, 16)
        else:
            grid = build_grid("torus", 2, 1.0, 8, 0.25, 8)
        shape = (grid.n_levels,) + grid.space_shape
        b = rng.uniform(-2.0, 2.0, size=shape + (grid.dim,))
        f1 = rng.uniform(-1.0, 1.0, size=shape)
        f2 = f1 + rng.uniform(0.0, 1.0, size=shape)
        u1 = solve_frozen(b, f1, grid)
        u2 = solve_frozen(b, f2, grid)
        worst = max(worst, float(np.max(u1.values - u2.values)))
    payload["comparison_fuzz_worst"] = worst
    ok = ok and worst <= 1e-12

    # kernel normalization at every shipped epsilon, and at 0.2 in 2d
    norm_errors = {str(eps): kernel_normalization_error(eps, 1) for eps in (0.4, 0.2, 0.1, 0.05)}
    norm_errors["0.2_d2"] = kernel_normalization_error(0.2, 2)
    payload["kernel_normalization"] = norm_errors
    ok = ok and all(err <= 1e-8 for err in norm_errors.values())

    rt = time.perf_counter() - t0
    record.write_json("solver_validation.json", payload)
    detail = (f"orders central=({orders_c.space:.2f},{orders_c.time:.2f}) "
              f"upwind=({orders_u.space:.2f},{orders_u.time:.2f}) fuzz={worst:.1e}")
    record.add_check("solver validation", ok, detail, criterion=8, runtime=rt)


def _crit_truncation(record, threads):
    """Countable-action truncation study (supports criterion 7's regime split);
    returns its marches' flagged steps."""
    t0 = time.perf_counter()
    cfg = shipped("truncation")
    sim = cfg.build_sim(seed_override=MASTER_SEED + 7, n_threads=threads)
    rep = countable_truncation_study(cfg.build_oracle(), cfg.family(), cfg.experiment["N_list"],
                                     cfg.grid, sim=sim, eps_list=cfg.eps_list, scheme=cfg.scheme)
    record.write_json("truncation.json", rep.to_json())
    rt = time.perf_counter() - t0
    record.add_check("countable truncation study", _all_pass(rep),
                     f"{rep.family} over N={rep.N_list}, {rep.flagged_steps} flagged steps",
                     criterion=7, runtime=rt)
    return rep.flagged_steps


def _crit9_reproducibility(record, threads):
    """Spot reproducibility inside one battery run: regenerate representative
    numeric artifacts and require byte equality.  (The test suite additionally
    reruns the full battery and compares all artifact files.)"""
    t0 = time.perf_counter()
    grid = shipped("counterexample").grid
    cd1 = make_constant_drift(grid, c=1.0)
    sim = _counterexample_sim(MASTER_SEED + 8, threads)
    small = build_grid("box", 1, (-6.0, 6.0), 61, 1.0, 64)
    # compared as text: value equality would take -0.0 for 0.0 and NaN for unequal
    text = RunManifest.json_text
    a, b = (text(simulate_cost(cd1, constant_control(1.0), sim, grid).to_json("repro", "const_1"))
            for _ in range(2))
    ra, rb = (text(counterexample_report(1.0, [0.0], small, mc_enabled=False).to_json())
              for _ in range(2))
    ok = (a == b) and (ra == rb)
    rt = time.perf_counter() - t0
    record.write_json("reproducibility.json", {"mc_identical": a == b, "report_identical": ra == rb})
    record.add_check("bit-identical regeneration", ok, f"mc={a == b} report={ra == rb}",
                     criterion=9, runtime=rt)


def _bound_checks(record):
    """Domination scan for every shipped catalog entry on its default grid."""
    rows = {}
    scans = {name: (cfg.grid, cfg.build_oracle(), cfg.build_action_set())
             for name, cfg in multi_action_scenarios().items()}
    coarse = build_grid("box", 1, (-6.0, 6.0), 61, 1.0, 16)
    scans["counterexample"] = (coarse, make_counterexample(coarse),
                               ActionSet(np.array([-1.0, 0.0, 1.0])))
    for name, (grid, oracle, aset) in scans.items():
        check_grid = grid if grid.nt <= 64 else build_grid(
            grid.domain_kind, grid.dim, list(grid.extent), grid.nx, grid.T, 16)
        rep = verify_bound(oracle, check_grid, aset)
        rows[name] = {"passed": rep.passed, "min_slack": rep.min_slack}
    record.write_json("bound_checks.json", rows)
    record.add_check("catalog domination bounds", all(row["passed"] for row in rows.values()), "",
                     criterion=0, runtime=0.0)


def run_selftest(out_dir, threads=1):
    """Run the acceptance battery, write its artifacts and its record
    (``selftest_summary.json``), and return the record."""
    os.makedirs(out_dir, exist_ok=True)
    names = [p.name[:-4] for p in CONFIGS.iterdir() if p.name.endswith(".cfg")]
    echo = {name: shipped(name).echo for name in names}
    record = RunManifest(out_dir, echo_hash(echo), echo,
                         seeds={"master": MASTER_SEED, "stream": STREAM})
    t_start = time.perf_counter()

    gap_report = _crit1_counterexample(record)
    _crit2_mc_crosscheck(record, threads)
    solved, flagged = _crit3_crit4_agreement(record)
    # the counterexample's effective value u0, which criteria 5 and 6 both test
    ce = shipped("counterexample")
    u0, _ = _solve_effective(0.0, ce.grid)
    _crit5_verification(record, solved["bang_bang"], u0, threads)
    _crit6_dpp(record, solved["bang_bang"], u0, threads)
    flagged += _crit7_sweeps(record, gap_report)
    flagged += _crit_truncation(record, threads)
    _crit8_solver_validation(record)
    _crit9_reproducibility(record, threads)
    _bound_checks(record)
    # criteria 3 and 7 already fail on a flagged step; this names the total
    record.add_check(*inner_sweeps_check(flagged), criterion=0, runtime=0.0)

    total = time.perf_counter() - t_start
    if total >= 300.0:
        record.add_check("selftest runtime < 5 min", False, f"{total:.0f}s", criterion=9,
                         runtime=total)
    record.write(SUMMARY)
    return record
