"""Command-line surface: scenario runs, experiments, and the selftest battery.

Every run reads one scenario config, writes its artifacts (CSV fields, JSON
summaries) plus a replayable manifest into the output directory, and exits
nonzero when any declared scientific check fails, so the suite doubles as CI.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

import numpy as np

from . import __version__
from .coefficients import CATALOG, sample_all
from .config import ConfigError, RunManifest, load_config
from .grids import BOX, field_to_csv
from .experiments import (
    A_EQ_X,
    counterexample_report,
    countable_truncation_study,
    dpp_battery,
    mollify_value_sweep,
    verification_check,
)
from .hjb import (
    hjb_residual,
    inner_sweeps_check,
    policy_iteration,
    policy_iteration_checks,
    solve_hjb_direct,
)
from .mollify import coefficient_ladder
from .montecarlo import STREAM, GridPolicyControl, constant_control, simulate_cost
from .selftest import SUMMARY, run_selftest


def _build(cfg, args):
    oracle = cfg.build_oracle()
    aset = cfg.build_action_set()
    sim = cfg.build_sim(seed_override=args.seed_override, n_threads=args.threads)
    return oracle, aset, sim


# what a subcommand needs of a config that the schema allows: path -> (test, wording)
_NONEMPTY = (bool, "a nonempty value")
NEEDS = {"mollify-sweep": {"mollify.eps": _NONEMPTY},
         "truncation-study": {"mollify.eps": _NONEMPTY, "actions.family": _NONEMPTY},
         "counterexample": {"domain.dim": (lambda dim: dim == 1, "1 (its a = x feedback is 1d)"),
                            "domain.kind": (lambda kind: kind == BOX, "a box (V is not periodic)")}}


def _report(header, violations):
    print("\n  - ".join([header, *violations]), file=sys.stderr)
    return 2


def _solve_direct(cfg, oracle, aset, manifest):
    """Direct HJB march, with its inner-sweep convergence recorded as a check."""
    u = solve_hjb_direct(oracle, aset, cfg.grid, scheme=cfg.scheme)
    manifest.add_check(*inner_sweeps_check(len(u.meta["inner_flagged_steps"])))
    return u


def cmd_solve_hjb(cfg, args, manifest):
    oracle, aset, _ = _build(cfg, args)
    u = _solve_direct(cfg, oracle, aset, manifest)
    res, _ = hjb_residual(u.values, *sample_all(oracle, cfg.grid, aset), cfg.grid, cfg.scheme)
    field_to_csv(u, manifest.path("value.csv"))
    manifest.add_check("hjb_residual", res <= 1e-9 * max(1.0, float(np.max(np.abs(u.values)))) + 1e-9,
                       f"residual {res:.3e}")
    if u.policy is not None:
        u.policy.to_csv(manifest.path("policy.csv"))


def cmd_policy_iter(cfg, args, manifest):
    oracle, aset, _ = _build(cfg, args)
    u, policy, trace = policy_iteration(oracle, aset, cfg.grid, scheme=cfg.scheme, tol=cfg.tol)
    u_dir = _solve_direct(cfg, oracle, aset, manifest)
    field_to_csv(u, manifest.path("value.csv"))
    trace.to_csv(manifest.path("trace.csv"))
    policy.to_csv(manifest.path("policy.csv"))
    for check in policy_iteration_checks(u, u_dir, trace, cfg.tol)[2]:
        manifest.add_check(*check)


def cmd_verify(cfg, args, manifest):
    oracle, aset, sim = _build(cfg, args)
    u = _solve_direct(cfg, oracle, aset, manifest)
    candidates = [(f"const_{i}", constant_control(aset.action(i)))
                  for i in range(min(len(aset), 5))]
    rep = verification_check(u, oracle, sim, candidates)
    manifest.write_json("verification.json", _replayable(cfg, sim, rep))
    for check in rep.checks():
        manifest.add_check(*check)


def cmd_dpp_check(cfg, args, manifest):
    oracle, aset, sim = _build(cfg, args)
    u = _solve_direct(cfg, oracle, aset, manifest)
    t_mids = [frac * cfg.grid.T for frac in cfg.experiment["t_mid"]]
    subopt = []
    sub_idx = cfg.experiment["suboptimal_action"]
    if sub_idx is not None:
        subopt.append((f"const_{sub_idx}", constant_control(aset.action(sub_idx))))
    rep = dpp_battery(u, oracle, GridPolicyControl(u.policy, name="argmin"), sim,
                      t_mids, suboptimal_controls=subopt)
    manifest.write_json("dpp.json", rep.to_json())
    for check in rep.checks():
        manifest.add_check(*check)


def _replayable(cfg, sim, report):
    """A report's document with the full config echo and the seed the run
    used, so the artifact replays itself."""
    return {"config": cfg.echo, "seeds": {"mc": sim.seed}, "report": report.to_json()}


def cmd_mollify_sweep(cfg, args, manifest):
    oracle, aset, sim = _build(cfg, args)
    sweep = mollify_value_sweep(oracle, aset, cfg.grid, cfg.eps_list,
                                scheme=cfg.scheme, scenario=cfg.label,
                                store_fields=True)
    manifest.write_json("sweep.json", _replayable(cfg, sim, sweep))
    for rung in sweep.resolved_rungs():
        field_to_csv(rung.gap_field, manifest.path(f"gap_eps_{rung.epsilon:g}.csv"))
    ladder = coefficient_ladder(oracle, aset.action(0), cfg.grid, cfg.eps_list)
    ladder.to_csv(manifest.path("ladder.csv"))
    for check in sweep.checks():
        manifest.add_check(*check)


def cmd_truncation_study(cfg, args, manifest):
    oracle, _, sim = _build(cfg, args)
    rep = countable_truncation_study(oracle, cfg.family(), cfg.experiment["N_list"],
                                     cfg.grid, sim=sim, eps_list=cfg.eps_list,
                                     scheme=cfg.scheme)
    manifest.write_json("truncation.json", _replayable(cfg, sim, rep))
    for check in rep.checks():
        manifest.add_check(*check)


def cmd_simulate(cfg, args, manifest):
    oracle, aset, sim = _build(cfg, args)
    spec = cfg.experiment["control"]
    if spec["type"] == "constant":
        control = constant_control(spec.get("value", aset.action(0)))
    elif spec["type"] == "diagonal":
        control = A_EQ_X
    else:
        u = _solve_direct(cfg, oracle, aset, manifest)
        control = GridPolicyControl(u.policy, name="argmin_feedback")
    est = simulate_cost(oracle, control, sim, cfg.grid)
    manifest.write_json("estimate.json", est.to_json(scenario=cfg.label, control=control.name))
    manifest.add_check("finite_estimate", np.isfinite(est.mean) and np.isfinite(est.se),
                       f"{est.mean:.6g} +- {est.se:.2g}")


def cmd_counterexample(cfg, args, manifest):
    sim = cfg.build_sim(seed_override=args.seed_override, n_threads=args.threads)
    rep = counterexample_report(cfg.grid.T, cfg.experiment["x_samples"], cfg.grid,
                                sim=sim, mc_enabled=True)
    manifest.write_json("counterexample.json", _replayable(cfg, sim, rep))
    rep.to_csv(manifest.path("counterexample_rows.csv"))
    for check in rep.checks():
        manifest.add_check(*check)


def cmd_catalog():
    """Each catalog entry with its constructor's summary line and parameters."""
    for name, make in sorted(CATALOG.items()):
        params = list(inspect.signature(make).parameters)[1:]  # after domain
        summary = inspect.getdoc(make).splitlines()[0]
        print(f"{name}: {summary}" + (f" (params: {', '.join(params)})" if params else ""))
    print("tabulated: fields loaded from CSV files (see coefficients.tabulated)")
    return 0


def cmd_selftest(args, out_dir):
    record = run_selftest(out_dir, threads=args.threads)
    print(record.report(os.path.join(out_dir, SUMMARY)))
    return 0 if record.all_passed else 1


# the subcommands that run a scenario config, each (cfg, args, manifest)
HANDLERS = {
    "solve-hjb": cmd_solve_hjb,
    "policy-iter": cmd_policy_iter,
    "verify": cmd_verify,
    "dpp-check": cmd_dpp_check,
    "mollify-sweep": cmd_mollify_sweep,
    "truncation-study": cmd_truncation_study,
    "simulate": cmd_simulate,
    "counterexample": cmd_counterexample,
}
SUBCOMMANDS = (*HANDLERS, "catalog", "selftest")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hjblab",
        description="HJB laboratory for controlled diffusions with measurable drift",
    )
    parser.add_argument("--version", action="version", version=f"hjblab {__version__}")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", nargs="?", default=None, help="scenario config path")
    parser.add_argument("--out", default=None,
                        help="output directory (default $HJBLAB_OUT or cwd)")
    parser.add_argument("--seed-override", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")

    out_dir = args.out or os.environ.get("HJBLAB_OUT", ".")
    if args.subcommand == "catalog":
        return cmd_catalog()
    if args.subcommand == "selftest":
        return cmd_selftest(args, out_dir)

    if not args.config:
        parser.error(f"{args.subcommand} needs a scenario config path")
    if args.seed_override is not None and not 0 <= args.seed_override < 2**64:
        return _report("config invalid:", ["--seed-override: must be in [0, 2**64)"])
    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        return _report("config invalid:", e.violations)
    unmet = [f"{path}: {args.subcommand} needs {what}" for path, (ok, what)
             in NEEDS.get(args.subcommand, {}).items() if not ok(cfg.values[path])]
    if unmet:
        return _report("config invalid for this subcommand:", unmet)

    os.makedirs(out_dir, exist_ok=True)  # made only for a run that writes, as the selftest's is
    manifest = RunManifest(out_dir, cfg.config_hash(), cfg.echo,
                           {"mc": cfg.mc["seed"], "override": args.seed_override,
                            "stream": STREAM})
    HANDLERS[args.subcommand](cfg, args, manifest)
    print(manifest.report(manifest.write("manifest.json")))
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
