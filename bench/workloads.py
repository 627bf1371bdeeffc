"""The hjblab benchmark workloads: the ops of one pass and their output checks.

Each op reaches hjblab through a public entry point, ``hjblab.cli.main`` on a
scenario config or a library call, runs at one thread, and returns
``(problems, digest, figures)``: the failed output checks, a digest of its
outputs (passes of one run must agree bit for bit), and the figures the
end-to-end metrics are computed from.  The op brackets exactly its call into
hjblab with ``timed()``; the checks run outside the timed region.  CLI ops
write into their own temporary directory, which is measured and removed.
Why each workload exists is recorded in NOTES.md beside this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import tempfile
from contextlib import redirect_stdout
from dataclasses import astuple, dataclass
from pathlib import Path

# Calls go through the module objects so that the tracer's wrappers, which
# replace module attributes, see them.
from hjblab import cli, experiments
from hjblab.config import load_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@dataclass
class Context:
    seed: int | None   # MC seed override; None keeps each config's shipped seed
    tmp: Path           # parent of the ops' temporary output directories
    configs: dict       # config stem -> loaded ScenarioConfig


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple      # config paths relative to the repo root, loaded at set-up
    ops: tuple          # (op name, op function)

    def load_configs(self):
        return {Path(p).stem: load_config(ROOT / p) for p in self.configs}


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _n_steps(cfg, t_end):
    """Euler steps per path, as the MC engine rounds them."""
    return max(1, int(round((t_end - cfg.mc["start_time"]) / cfg.mc["dt_sim"])))


def cli_op(subcommand, config, mc=False, check=None):
    """``hjblab <subcommand> <config>``; fails on a nonzero exit code or a
    failed manifest check, and on whatever ``check(ctx, out, figures)`` finds."""

    def op(ctx, timed):
        out = Path(tempfile.mkdtemp(prefix=f"{subcommand}-", dir=ctx.tmp))
        argv = [subcommand, str(ROOT / config), "--out", str(out), "--threads", "1"]
        if mc and ctx.seed is not None:
            argv += ["--seed-override", str(ctx.seed)]
        try:
            with redirect_stdout(io.StringIO()), timed():
                code = cli.main(argv)
            problems = [] if code == 0 else [f"exit code {code}"]
            manifest = json.loads((out / "manifest.json").read_text())
            problems += [f"manifest check {c['name']} failed: {c['detail']}"
                         for c in manifest["checks"] if not c["passed"]]
            figures = {}
            if check is not None and not problems:
                problems += check(ctx, out, figures)
            files = sorted(p for p in out.rglob("*") if p.is_file())
            figures["bytes_written"] = sum(p.stat().st_size for p in files)
            figures["files_written"] = len(files)
            # the manifest holds timestamps and the temporary path
            digest = _digest(x for p in files if p.name != "manifest.json"
                             for x in (p.name, p.read_bytes()))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return problems, digest, figures

    return op


def _check_a_eq_x(ctx, out, figures):
    """The a = x estimate must be within 3 SE + 5 dt_sim of V(0,0) = 1."""
    cfg = ctx.configs["counterexample_small"]
    est = json.loads((out / "estimate.json").read_text())
    figures["path_steps"] = est["M"] * _n_steps(cfg, cfg.grid.T)
    figures["se"] = est["se"]
    problems = []
    if ctx.seed is not None and est["seed"] != ctx.seed:
        problems.append(f"estimate used seed {est['seed']}, not {ctx.seed}")
    tol = 3.0 * est["se"] + 5.0 * est["dt_sim"]
    if not abs(est["mean"] - 1.0) <= tol:
        problems.append(f"a = x estimate {est['mean']:.6f} not within {tol:.2e} of 1")
    return problems


def _count_dpp_paths(ctx, out, figures):
    cfg = ctx.configs["bang_bang_small"]
    rows = json.loads((out / "dpp.json").read_text())
    figures["path_steps"] = sum(cfg.mc["M"] * _n_steps(cfg, r["t_mid"]) for r in rows)
    return []


def counterexample_op(ctx, timed):
    """c1: closed-form rows of the strict gap, MC off (a pure 1d PDE op)."""
    cfg = ctx.configs["counterexample_small"]
    with timed():
        rep = experiments.counterexample_report(cfg.grid.T, cfg.experiment["x_samples"],
                                                cfg.grid, mc_enabled=False)
    problems = []
    if not rep.gap_pass:
        problems.append(f"gap(0,0) = {rep.gap_at_origin:.4f} below threshold")
    if rep.advice:
        problems.append(rep.advice)
    origin = [r for r in rep.rows if r.x == 0.0]
    if not origin:
        problems.append("no row at x = 0")
    else:
        if not abs(origin[0].v_num - 1.0) <= 0.02:
            problems.append(f"V(0,0) = {origin[0].v_num:.5f} not within 2% of 1")
        if not abs(origin[0].v_lim_num - 4.0 / 3.0) <= 0.02 * 4.0 / 3.0:
            problems.append(f"V_lim(0,0) = {origin[0].v_lim_num:.5f} not within 2% of 4/3")
    ref_err = max(max(abs(r.v_num - r.v_exact), abs(r.v_lim_num - r.v_lim_exact))
                  for r in rep.rows)
    digest = _digest([astuple(r) for r in rep.rows] + [rep.contamination])
    return problems, digest, {"ref_err": ref_err}


def sweep_2d_op(ctx, timed):
    """2d mollification sweep through the library, fields kept in memory."""
    cfg = ctx.configs["step_drift_2d"]
    with timed():
        rep = experiments.mollify_value_sweep(cfg.build_oracle(), cfg.build_action_set(),
                                              cfg.grid, cfg.eps_list, scheme=cfg.scheme,
                                              scenario=cfg.label, store_fields=True)
    problems = []
    if not rep.liminf_pass:
        problems.append("liminf check failed")
    if not rep.countable_pass:
        problems.append("countable convergence check failed")
    digest = _digest([rep.to_json()] + [r.gap_field.values.tobytes()
                                        for r in rep.resolved_rungs()])
    return problems, digest, {}


WORKLOADS = {
    w.name: w for w in (
        Workload("mc_box", ("bench/inputs/counterexample_small.cfg",), (
            ("simulate", cli_op("simulate", "bench/inputs/counterexample_small.cfg", mc=True,
                                check=_check_a_eq_x)),
        )),
        Workload("mc_torus", ("bench/inputs/bang_bang_small.cfg",), (
            ("dpp-check", cli_op("dpp-check", "bench/inputs/bang_bang_small.cfg", mc=True,
                                 check=_count_dpp_paths)),
        )),
        Workload("pde_1d", ("bench/inputs/counterexample_small.cfg",
                            "bench/inputs/bang_bang_half.cfg", "configs/checkerboard.cfg",
                            "bench/inputs/step_drift_nt64.cfg"), (
            ("counterexample_report", counterexample_op),
            ("policy-iter", cli_op("policy-iter", "bench/inputs/bang_bang_half.cfg")),
            ("solve-hjb", cli_op("solve-hjb", "configs/checkerboard.cfg")),
            ("mollify-sweep", cli_op("mollify-sweep", "bench/inputs/step_drift_nt64.cfg")),
        )),
        Workload("pde_2d", ("bench/inputs/step_drift_2d.cfg",
                            "bench/inputs/bang_bang_2d.cfg"), (
            ("mollify_value_sweep_2d", sweep_2d_op),
            ("policy-iter_2d", cli_op("policy-iter", "bench/inputs/bang_bang_2d.cfg")),
        )),
    )
}
