import contextlib
import copy
import functools
import glob
import io
import json
import os

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hjblab import experiments, hjb
from hjblab.cli import main
from hjblab.coefficients import ActionSet, make_step_drift, sample_to_grid
from hjblab.config import (
    ABSENT,
    PATHS,
    REQUIRED,
    SCHEMA,
    SECTIONS,
    ConfigError,
    RunManifest,
    load_config,
    resolve,
    validate_config,
)
from hjblab.grids import SpaceTimeField, build_grid, field_from_csv, field_to_csv
from hjblab.montecarlo import STREAM
from hjblab.parabolic import MIN_NODES

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")
HALF = os.path.join(ROOT, "bench", "inputs", "bang_bang_half.cfg")
EVERY_CONFIG = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))
                      + glob.glob(os.path.join(ROOT, "bench", "inputs", "*.cfg")))


def shipped(name):
    return os.path.join(CONFIG_DIR, name)


def test_load_shipped_counterexample():
    cfg = load_config(shipped("counterexample.cfg"))
    assert cfg.grid.domain_kind == "box"
    assert cfg.grid.extent == ((-6.0, 6.0),)
    assert cfg.grid.T == 1.0 and cfg.grid.nt == 512
    assert cfg.scheme == "central"
    assert cfg.mc["M"] == 100000


@pytest.mark.parametrize("name", [
    "counterexample.cfg", "bang_bang.cfg", "step_drift.cfg",
    "checkerboard.cfg", "smooth_baseline.cfg", "truncation.cfg",
])
def test_all_shipped_configs_load(name):
    cfg = load_config(shipped(name))
    oracle = cfg.build_oracle()
    aset = cfg.build_action_set()
    assert len(aset) >= 1
    assert oracle.dim == cfg.grid.dim


def test_every_shipped_and_bench_config_is_known():
    # every section, key and catalog parameter they set is one the code reads
    assert len(EVERY_CONFIG) == 12
    for path in EVERY_CONFIG:
        cfg = load_config(path)
        assert cfg.build_oracle().dim == cfg.grid.dim


BASE = {
    "domain": {"kind": "torus", "dim": 1, "extent": [-1.0, 1.0], "nx": 8},
    "time": {"T": 1.0, "nt": 4},
    "coefficients": {"catalog": "step_drift", "params": {"c": 1.0}},
}


@pytest.mark.parametrize("section, body, path", [
    ("solver", {"tol": 1.0e-3, "sweep_tol": 5}, "solver.sweep_tol"),
    ("solver", {"tolerance": 1.0e-3}, "solver.tolerance"),
    ("solver", {"slack_delta": 0.01}, "solver.slack_delta"),
    ("mollify", {"eps": [0.2], "kernel": "bump"}, "mollify.kernel"),
    ("domain", dict(BASE["domain"], periodic=True), "domain.periodic"),
    ("mc", {"M": 10, "paths": 10}, "mc.paths"),
    ("solvers", {"tol": 1.0e-3}, "solvers: unknown section"),
])
def test_unknown_keys_rejected(section, body, path):
    with pytest.raises(ConfigError) as err:
        validate_config(dict(BASE, **{section: body}))
    assert any(v.startswith(path) for v in err.value.violations), err.value.violations


@pytest.mark.parametrize("catalog, params, path", [
    ("step_drift", {"c": 1.0, "amplitude": 3}, "coefficients.params.amplitude"),
    ("bang_bang", {"c": 1.0}, "coefficients.params.c"),
    ("smooth_baseline", {"amplitude": 0.5}, "coefficients.params.amplitude"),
    ("checkerboard", [2, 1], "coefficients.params"),
    ("checkerboard", {"kx": 0}, "coefficients.params: checkerboard needs kx >= 1"),
])
def test_catalog_params_checked_against_constructor(catalog, params, path):
    raw = dict(BASE, coefficients={"catalog": catalog, "params": params})
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert any(v.startswith(path) for v in err.value.violations), err.value.violations


@pytest.mark.parametrize("N_list", [[0, 1], [], [1, 2.5], 2])
def test_bad_truncation_lengths_rejected(N_list):
    with pytest.raises(ConfigError) as err:
        validate_config(dict(BASE, experiment={"N_list": N_list}))
    assert err.value.violations == [
        "experiment.N_list: expected a nonempty list of integers >= 1"]


def test_section_that_is_not_a_mapping_rejected():
    with pytest.raises(ConfigError) as err:
        validate_config(dict(BASE, solver=3))
    assert err.value.violations == ["solver: expected a mapping"]


@pytest.mark.parametrize("line, path", [
    ("solver: {slack_delta: 0.01}", "solver.slack_delta"),
    ("solver: {time_stepping: crank_nicolson}", "solver.time_stepping: unknown key"),
    # the policy-iteration cap is hjb.MAX_ITERS, not a knob
    ("solver: {max_iters: 5}", "solver.max_iters: unknown key"),
    ("coefficients: {catalog: step_drift, params: {amplitude: 3}}",
     "coefficients.params.amplitude"),
    ("coefficients: {catalog: checkerboard, params: {kx: 0}}",
     "coefficients.params: checkerboard needs kx >= 1"),
    # smooth_baseline's horizon is the grid's, and its amplitude a constant
    ("coefficients: {catalog: smooth_baseline, params: {T: 1.0}}",
     "coefficients.params.T: not a parameter of smooth_baseline"),
    ("coefficients: {catalog: smooth_baseline, params: {amplitude: 0.25}}",
     "coefficients.params.amplitude: not a parameter of smooth_baseline"),
])
def test_cli_bad_key_exits_2_naming_the_field(tmp_path, capsys, line, path):
    lines = ["domain: {kind: torus, dim: 1, extent: [-1.0, 1.0], nx: 8}",
             "time: {T: 1.0, nt: 4}", line]
    if not line.startswith("coefficients"):
        lines.append("coefficients: {catalog: bang_bang}")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["policy-iter", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


def test_catalog_value_refused_on_the_grid_exits_2(tmp_path, capsys):
    # smooth_baseline needs an integer torus period; a period of 1.5 is a
    # config violation, not a traceback from the solver
    raw = dict(BASE, domain=dict(BASE["domain"], extent=[0.0, 1.5]),
               coefficients={"catalog": "smooth_baseline"})
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    path = "coefficients.params: smooth_baseline needs an integer torus period"
    assert err.value.violations == [path]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(json.dumps(raw) + "\n")  # JSON is YAML
    assert main(["solve-hjb", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


def test_invalid_nt_field_path(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(
        "domain: {kind: torus, dim: 1, extent: 1.0, nx: 8}\n"
        "time: {T: 1.0, nt: 0}\n"
        "coefficients: {catalog: bang_bang}\n"
    )
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert any("time.nt" in v for v in err.value.violations)


def test_missing_tabulated_file(tmp_path):
    path = tmp_path / "tab.cfg"
    path.write_text(
        "domain: {kind: torus, dim: 1, extent: 1.0, nx: 8}\n"
        "time: {T: 1.0, nt: 4}\n"
        "coefficients:\n"
        "  tabulated:\n"
        "    b: [missing_b.csv]\n"
        "    f: [missing_f.csv]\n"
    )
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert any("missing_b.csv" in v for v in err.value.violations)


def test_all_violations_collected():
    raw = {
        "domain": {"kind": "cube", "dim": 1, "extent": 1.0, "nx": 8},
        "time": {"T": -1.0, "nt": 0},
        "coefficients": {"catalog": "nope"},
        "mollify": {"eps": [0.1, 0.2]},
    }
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    text = "; ".join(err.value.violations)
    for frag in ("domain.kind", "time.T", "time.nt", "coefficients.catalog", "mollify.eps"):
        assert frag in text
    assert len(err.value.violations) >= 5


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("domain: {kind: torus\n  dim: 1\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    # the unclosed flow mapping is found at the ':' of "dim: 1"
    assert err.value.violations[0].startswith("parse error at line 2, column 6: ")


def test_tabulated_roundtrip(tmp_path):
    grid = build_grid("torus", 1, (-1.0, 1.0), 16, 1.0, 8)
    src = make_step_drift(grid, c=1.0)
    aset = ActionSet(np.array([-1.0, 1.0]))
    for ia, a in enumerate(aset.values):
        bf, ff = sample_to_grid(src, grid, a)
        field_to_csv(SpaceTimeField(grid, bf[..., 0]), str(tmp_path / f"b{ia}.csv"))
        field_to_csv(SpaceTimeField(grid, ff), str(tmp_path / f"f{ia}.csv"))
    path = tmp_path / "tab.cfg"
    path.write_text(
        "scenario: tabulated_step\n"
        "domain: {kind: torus, dim: 1, extent: [-1.0, 1.0], nx: 16}\n"
        "time: {T: 1.0, nt: 8}\n"
        "coefficients:\n"
        "  tabulated:\n"
        "    b: [b0.csv, b1.csv]\n"
        "    f: [f0.csv, f1.csv]\n"
    )
    cfg = load_config(str(path))
    tab = cfg.build_oracle()
    X = grid.points()
    for ia, a in enumerate(aset.values):
        b_src, f_src = src.eval(0.0, X, a)
        b_tab, f_tab = tab.eval(0.0, X, ia)
        assert np.array_equal(b_src, b_tab)
        assert np.array_equal(f_src, f_tab)


def test_echo_carries_defaults():
    cfg = load_config(shipped("step_drift.cfg"))
    # solver defaults appear explicitly even though the file omits them
    assert cfg.echo["solver"]["tol"] == 1e-8
    assert cfg.echo["mc"]["dt_sim"] == 0.002
    assert cfg.config_hash() == cfg.config_hash()


def test_manifest_write_atomic(tmp_path):
    m = RunManifest(str(tmp_path), config_hash="abc", config_echo={"a": 1}, seeds={"mc": 7})
    m.add_check("demo", True, "ok")
    m.path("out.csv")
    path = tmp_path / "manifest.json"
    assert m.write("manifest.json") == str(path)
    data = json.loads(path.read_text())
    assert data["config_hash"] == "abc"
    assert data["checks"][0]["passed"]
    assert data["artifacts"] == [str(tmp_path / "out.csv")]
    assert not os.path.exists(str(path) + ".tmp")


# ------------------------------ CLI ------------------------------------------


def _small_cfg(tmp_path, **overrides):
    sections = {
        "scenario": "small_bang",
        "domain": "{kind: torus, dim: 1, extent: [-1.0, 1.0], nx: 32}",
        "time": "{T: 1.0, nt: 32}",
        "coefficients": "{catalog: bang_bang}",
        "actions": "{list: [-1.0, 1.0]}",
        "solver": "{advection: central, tol: 1.0e-8}",
        "mollify": "{eps: [0.3, 0.15]}",
        "mc": "{M: 2000, dt_sim: 0.005, seed: 99, start_state: [0.5]}",
        "experiment": "{t_mid: [0.5], suboptimal_action: 1}",
        **overrides,
    }
    path = tmp_path / "small.cfg"
    path.write_text("".join(f"{key}: {body}\n" for key, body in sections.items()))
    return str(path)


def test_cli_policy_iter_and_replay(tmp_path):
    cfg = _small_cfg(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["policy-iter", cfg, "--out", str(out1)]) == 0
    assert main(["policy-iter", cfg, "--out", str(out2)]) == 0
    for name in ("value.csv", "trace.csv", "policy.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert all(c["passed"] for c in manifest["checks"])
    assert manifest["config"]["solver"]["tol"] == 1e-8


def test_cli_solve_hjb(tmp_path):
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "solve"
    assert main(["solve-hjb", cfg, "--out", str(out)]) == 0
    assert (out / "value.csv").exists()
    assert (out / "policy.csv").exists()


def test_cli_simulate_and_seed_override(tmp_path):
    cfg = _small_cfg(tmp_path)
    out1 = tmp_path / "sim1"
    out2 = tmp_path / "sim2"
    assert main(["simulate", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", cfg, "--out", str(out2), "--seed-override", "123"]) == 0
    e1 = json.loads((out1 / "estimate.json").read_text())
    e2 = json.loads((out2 / "estimate.json").read_text())
    assert e1["seed"] == 99 and e2["seed"] == 123
    assert e1["mean"] != e2["mean"]


def test_cli_seeds_in_range_at_both_ends(tmp_path, capsys):
    for seed in (0, 2**64 - 1):
        cfg = _small_cfg(tmp_path, mc=f"{{M: 40, dt_sim: 0.05, seed: {seed}, start_state: [0.5]}}")
        other = 2**64 - 1 - seed  # the other end, as an override
        for flags, used in (([], seed), (["--seed-override", str(other)], other)):
            out = tmp_path / f"sim_{seed}_{used}"
            assert main(["simulate", cfg, "--out", str(out)] + flags) == 0
            assert json.loads((out / "estimate.json").read_text())["seed"] == used
    capsys.readouterr()
    for seed in (-1, 2**64):
        cfg = _small_cfg(tmp_path, mc=f"{{M: 40, dt_sim: 0.05, seed: {seed}}}")
        assert main(["simulate", cfg, "--out", str(tmp_path / "bad")]) == 2
        assert "mc.seed: must be in [0, 2**64)" in capsys.readouterr().err
        assert main(["simulate", _small_cfg(tmp_path), "--out", str(tmp_path / "bad"),
                     "--seed-override", str(seed)]) == 2
        assert "--seed-override: must be in [0, 2**64)" in capsys.readouterr().err


def test_manifest_names_the_noise_stream(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", _small_cfg(tmp_path), "--out", str(out), "--seed-override", "7"]) == 0
    seeds = json.loads((out / "manifest.json").read_text())["seeds"]
    assert seeds == {"mc": 99, "override": 7, "stream": STREAM}
    assert "stream" not in json.loads((out / "estimate.json").read_text())


def test_cli_report_records_the_seed_the_run_used(tmp_path):
    cfg = _small_cfg(tmp_path)
    for flags, seed in (([], 99), (["--seed-override", "5"], 5)):
        out = tmp_path / f"verify_{seed}"
        assert main(["verify", cfg, "--out", str(out)] + flags) == 0
        assert json.loads((out / "verification.json").read_text())["seeds"] == {"mc": seed}


def test_cli_mollify_sweep(tmp_path):
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "sweep"
    assert main(["mollify-sweep", cfg, "--out", str(out)]) == 0
    assert (out / "sweep.json").exists()
    ladder = (out / "ladder.csv").read_text().splitlines()
    assert ladder[0] == "epsilon,lp_distance,sup_norm"
    # eps = 0.4 on a horizon of 0.5 leaves its rung no interior node (a null
    # sup gap), which the countable-convergence check leaves out
    assert main(["mollify-sweep", HALF, "--out", str(tmp_path / "half")]) == 0
    rungs = json.loads((tmp_path / "half" / "sweep.json").read_text())["report"]["rungs"]
    assert rungs[0]["sup_gap_interior"] is None and rungs[0]["epsilon"] == 0.4


@pytest.fixture(scope="module")
def sweep_without_interior(tmp_path_factory):
    """mollify-sweep on bench/inputs/bang_bang_half.cfg, cut down, with eps
    0.4 and 0.3: both exceed half its 0.5 horizon, so no rung has an
    interior node.  Returns the exit code and the output directory."""
    tmp = tmp_path_factory.mktemp("no_interior")
    with open(HALF) as fh:
        raw = yaml.safe_load(fh)
    raw["domain"]["nx"], raw["time"]["nt"], raw["mollify"]["eps"] = 8, 8, [0.4, 0.3]
    cfg = tmp / "half.cfg"
    cfg.write_text(yaml.dump(raw, Dumper=DUMPER))
    code, _ = _run(["mollify-sweep", str(cfg), "--out", str(tmp / "out")])
    return code, tmp / "out"


def test_liminf_fails_without_an_interior_node(sweep_without_interior):
    code, out = sweep_without_interior
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    assert code == 1
    assert {"name": "liminf", "passed": False, "detail": ""} in checks


def _refuse(token):
    raise ValueError(f"bare {token} in a report")


def test_report_json_writes_nan_as_null(sweep_without_interior):
    _, out = sweep_without_interior
    report = json.loads((out / "sweep.json").read_text(), parse_constant=_refuse)["report"]
    for rung in report["rungs"]:
        assert rung["resolved"] and rung["sup_gap_full"] is not None
        assert rung["sup_gap_interior"] is rung["min_gap_interior"] is None
        assert rung["frac_nonneg_interior"] is None


# per report: the subcommand and cut-down shipped config that write it, and
# the thresholds it applied, which the report must record
THRESHOLDS = {
    "verification.json": ("verify", "smooth_baseline.cfg", ("tol_candidate", "tol_feedback")),
    "sweep.json": ("mollify-sweep", "bang_bang.cfg", ("liminf_tol",)),
    "counterexample.json": ("counterexample", "counterexample.cfg", ("contamination_tol",)),
    "truncation.json": ("truncation-study", "truncation.cfg", ("value_table",)),
}


@pytest.mark.parametrize("artifact", list(THRESHOLDS))
def test_report_json_records_the_thresholds_it_applied(tmp_path, artifact):
    subcommand, name, keys = THRESHOLDS[artifact]
    cfg = _variant(tmp_path, name, FUZZ_BASE[name])
    code, err = _run([subcommand, cfg, "--out", str(tmp_path / "out")])
    assert code in (0, 1), err
    report = _strict_json(tmp_path / "out" / artifact)["report"]
    for key in keys:
        assert report.get(key) not in (None, {}), (key, report)


def test_cli_verify_and_dpp(tmp_path):
    cfg = _small_cfg(tmp_path)
    out = tmp_path / "verify"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    out2 = tmp_path / "dpp"
    assert main(["dpp-check", cfg, "--out", str(out2)]) == 0


# direct marches per run: one for a solve; a sweep adds one per resolved rung
# (two), and the truncation study marches that for each of its two prefixes
MARCHES = {"verify": 1, "dpp-check": 1, "simulate": 1, "mollify-sweep": 3,
           "truncation-study": 6}


@pytest.mark.parametrize("subcommand", list(MARCHES))
def test_cli_records_inner_sweep_convergence(tmp_path, monkeypatch, subcommand):
    # every handler that marches directly records the marcher's convergence;
    # one sweep per step can never see the argmin repeat, so all steps flag
    family = {"actions": "{family: bang_bang, N: 2}"} if subcommand == "truncation-study" else {}
    cfg = _small_cfg(tmp_path, **family)
    assert main([subcommand, cfg, "--out", str(tmp_path / "ok")]) == 0
    checks = json.loads((tmp_path / "ok" / "manifest.json").read_text())["checks"]
    assert {"name": "inner_sweeps_converged", "passed": True,
            "detail": "0 flagged steps"} in checks
    monkeypatch.setattr(hjb, "MAX_SWEEPS", 1)
    assert main([subcommand, cfg, "--out", str(tmp_path / "capped")]) == 1
    checks = json.loads((tmp_path / "capped" / "manifest.json").read_text())["checks"]
    failed = [c for c in checks if not c["passed"]]
    assert failed[0] == {"name": "inner_sweeps_converged", "passed": False,
                         "detail": f"{32 * MARCHES[subcommand]} flagged steps"}


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    text = capsys.readouterr().out
    for name in ("counterexample", "bang_bang", "tabulated"):
        assert name in text
    # each entry's parameters, read from its constructor's signature
    assert "checkerboard: Sign pattern" in text and "(params: kx, kt)" in text


@pytest.mark.parametrize("argv, code, message", [
    (["catalog"], 0, ""),
    (["solve-hjb", "{tmp}/nope.cfg"], 2, "cannot read config"),
    (["solve-hjb", "{tmp}/list.cfg"], 2, "config must be a mapping of sections"),
    (["solve-hjb", "{tmp}/bad.cfg"], 2, "time.nt: must be >= 1"),
    (["mollify-sweep", "{tmp}/small.cfg"], 2, "mollify.eps: mollify-sweep needs"),
    (["simulate", "{tmp}/small.cfg", "--seed-override", "-1"], 2, "--seed-override"),
])
def test_cli_makes_no_output_directory_for_a_run_that_writes_nothing(tmp_path, capsys,
                                                                      argv, code, message):
    (tmp_path / "list.cfg").write_text("- domain\n- time\n")
    (tmp_path / "bad.cfg").write_text("time: {T: 1.0, nt: 0}\n")
    _small_cfg(tmp_path, mollify="{eps: []}")
    out = tmp_path / "out"
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("time: {T: 1.0, nt: 0}\n")
    assert main(["solve-hjb", str(path)]) == 2
    assert "time.nt: must be >= 1" in capsys.readouterr().err


def test_cli_truncation_study_bad_N_list_exits_2(tmp_path, capsys):
    cfg = _small_cfg(tmp_path, actions="{family: bang_bang, N: 2}",
                     experiment="{N_list: [0, 1]}")
    assert main(["truncation-study", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "experiment.N_list" in err and "Traceback" not in err


def _ce_small(tmp_path):
    lines = [
        "scenario: ce_small",
        "domain: {kind: box, dim: 1, extent: [-6.0, 6.0], nx: 121}",
        "time: {T: 1.0, nt: 128}",
        "coefficients: {catalog: counterexample}",
        "solver: {advection: central}",
        "mc: {M: 4000, dt_sim: 0.002, seed: 5, start_state: [0.0]}",
        "experiment: {x_samples: [0.0, 1.0]}",
    ]
    cfg = tmp_path / "ce.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return str(cfg)


def test_cli_counterexample_small(tmp_path):
    out = tmp_path / "ce_out"
    assert main(["counterexample", _ce_small(tmp_path), "--out", str(out)]) == 0
    rows = (out / "counterexample_rows.csv").read_text().splitlines()
    assert rows[0] == "s,x,v_exact,v_num,v_lim_exact,v_lim_num,gap_num"
    assert len(rows) == 3


@pytest.mark.parametrize("drift, passed", [(1.0, True), (1.03, False)])
def test_cli_counterexample_holds_the_closed_forms(tmp_path, monkeypatch, drift, passed):
    # values 3% off 1 and 4/3 keep the gap above 0.30 and the MC cross-check,
    # which compares against the closed forms; only closed_forms catches them
    value_at = experiments.value_at
    monkeypatch.setattr(experiments, "value_at", lambda *args: drift * value_at(*args))
    out = tmp_path / "ce_out"
    assert main(["counterexample", _ce_small(tmp_path), "--out", str(out)]) == (0 if passed else 1)
    checks = {c["name"]: c for c in json.loads((out / "manifest.json").read_text())["checks"]}
    assert checks["closed_forms"]["passed"] is passed
    assert all(c["passed"] for name, c in checks.items() if name != "closed_forms")
    assert checks["closed_forms"]["detail"].startswith(f"V(0,0)={drift:.2f}")


@pytest.mark.parametrize("config, message", [
    # the a = x feedback of the MC cross-check is one action per path
    pytest.param("bench/inputs/bang_bang_2d.cfg", "domain.dim: counterexample needs 1",
                 id="bang_bang_2d.cfg"),
    pytest.param("bench/inputs/step_drift_2d.cfg", "domain.dim: counterexample needs 1",
                 id="step_drift_2d.cfg"),
    # the closed forms V and V_lim it checks against are not periodic
    pytest.param("configs/bang_bang.cfg", "domain.kind: counterexample needs a box",
                 id="bang_bang.cfg"),
])
def test_cli_counterexample_on_a_2d_config_exits_2(tmp_path, config, message):
    code, err = _run(["counterexample", os.path.join(ROOT, config), "--out", str(tmp_path)])
    assert code == 2 and message in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["torus", "box"])
def test_grid_size_floor_is_the_solvers(tmp_path, kind):
    # the config refuses exactly the node counts the line solves refuse
    domain = "{kind: %s, dim: 1, extent: [-1.0, 1.0], nx: %d}"
    load_config(_small_cfg(tmp_path, domain=domain % (kind, MIN_NODES[kind])))
    with pytest.raises(ConfigError) as exc:
        load_config(_small_cfg(tmp_path, domain=domain % (kind, MIN_NODES[kind] - 1)))
    assert [v for v in exc.value.violations if v.startswith("domain.nx")]


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_rejects_nonpositive_threads(tmp_path, threads):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", shipped("counterexample.cfg"), "--out", str(tmp_path),
              "--threads", threads])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


# ------------------------------ schema ---------------------------------------


def test_every_default_satisfies_its_own_predicate():
    # a config that sets only the required keys resolves every other row to
    # its default, in the context of the grid and action set it builds
    raw = {"domain": BASE["domain"], "time": BASE["time"],
           "coefficients": {"catalog": "bang_bang"}}
    got = resolve(raw)
    for key in SCHEMA:
        default = key.default(got) if callable(key.default) else key.default
        if key.build or default is REQUIRED or default is ABSENT or key.path in raw:
            continue
        assert got[key.path] == default, key.path
        assert key.violations(default, got) == [], key.path


DELETE = object()


# libyaml's loader and dumper where present: the fuzz writes hundreds of variants
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@functools.lru_cache(maxsize=None)
def _parsed(name):
    with open(shipped(name)) as fh:
        return yaml.load(fh, Loader=LOADER)


def _variant(tmp_path, name, edits):
    """A shipped config with {dotted path: value} edits; DELETE drops a key."""
    raw = copy.deepcopy(_parsed(name))
    for path, value in edits.items():
        *parents, key = path.split(".")
        node = raw
        for part in parents:
            node = node.setdefault(part, {})
        if value is DELETE:
            node.pop(key, None)
        else:
            node[key] = value
    out = tmp_path / "variant.cfg"
    out.write_text(yaml.dump(raw, Dumper=DUMPER))
    return str(out)


def _strict_json(path):
    """The one JSON document in ``path``; a NaN or Infinity token, or a
    second document, fails the test that reads it."""

    def refuse(token):
        raise ValueError(f"{path.name}: non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def _run(argv):
    """main(argv) in-process: (exit code, stderr); an exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


SMALL_BANG = {"mc.M": 200, "time.nt": 32}

# inputs that once ended in a traceback from inside a subcommand
PROBES = [
    ("bang_bang.cfg", {"experiment.t_mid": [2.0]}, "dpp-check", "experiment.t_mid"),
    ("bang_bang.cfg", {"experiment.t_mid": 0.5}, "dpp-check", "experiment.t_mid"),
    *[("bang_bang.cfg", {"mc.start_state": [0.5, 0.1, 3]}, sub, "mc.start_state")
      for sub in ("verify", "dpp-check", "simulate")],
    *[("bang_bang.cfg", {"mc.start_state": "abc"}, sub, "mc.start_state")
      for sub in ("solve-hjb", "policy-iter", "simulate")],
    ("bang_bang.cfg", {"experiment.suboptimal_action": 7}, "dpp-check",
     "experiment.suboptimal_action"),
    *[("bang_bang.cfg", {"mc.start_time": 5.0}, sub, "mc.start_time")
      for sub in ("verify", "simulate", "dpp-check")],
    ("bang_bang.cfg", {"actions.list": ["a", "b"]}, "solve-hjb", "actions.list"),
    ("bang_bang.cfg", {"actions.list": []}, "policy-iter", "actions.list"),
    ("bang_bang.cfg", {"actions.N": "x"}, "solve-hjb", "actions.N"),
    ("counterexample.cfg", {"experiment.control": {"type": "constant", "value": "abc"}},
     "simulate", "experiment.control.value"),
    ("counterexample.cfg", {"experiment.x_samples": "foo"}, "counterexample",
     "experiment.x_samples"),
    ("bang_bang.cfg", {"domain.dim": True}, "solve-hjb", "domain.dim"),
    ("bang_bang.cfg", {"mc.M": True}, "simulate", "mc.M"),
]


@pytest.mark.parametrize("name, edits, subcommand, path", PROBES)
def test_traceback_probes_exit_2_naming_the_key(tmp_path, name, edits, subcommand, path):
    if name == "bang_bang.cfg":
        edits = SMALL_BANG | edits
    cfg = _variant(tmp_path, name, edits)
    code, err = _run([subcommand, cfg, "--out", str(tmp_path / "out")])
    assert code == 2 and path in err, err


@pytest.mark.parametrize("b", [["b.csv"], [["b.csv", "b.csv"]]])
def test_tabulated_files_that_do_not_fit_exit_2(tmp_path, b):
    # files written on a 16-node grid, read on 32 nodes; or two drift files in 1d
    small = build_grid("torus", 1, (-1.0, 1.0), 16, 1.0, 8)
    bf, ff = sample_to_grid(make_step_drift(small, c=1.0), small, 1.0)
    field_to_csv(SpaceTimeField(small, ff), str(tmp_path / "f.csv"))
    field_to_csv(SpaceTimeField(small, bf[..., 0]), str(tmp_path / "b.csv"))
    cfg = tmp_path / "tab.cfg"
    cfg.write_text(yaml.dump({
        "domain": {"kind": "torus", "dim": 1, "extent": [-1.0, 1.0],
                   "nx": 32 if b == ["b.csv"] else 16},
        "time": {"T": 1.0, "nt": 8},
        "coefficients": {"tabulated": {"b": b, "f": ["f.csv"]}}}))
    code, err = _run(["solve-hjb", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2 and "Traceback" not in err, err
    if b == ["b.csv"]:
        for name in ("b.csv", "f.csv"):
            assert f"coefficients.tabulated: file '{name}' does not load on the grid" in err
        assert "CSV holds 144 samples, grid wants 288" in err
    else:
        assert "coefficients.tabulated: needs" in err


@pytest.mark.parametrize("edits, subcommand, message", [
    ({"mollify.eps": []}, "truncation-study", "mollify.eps: truncation-study needs"),
    ({"mollify.eps": []}, "mollify-sweep", "mollify.eps: mollify-sweep needs"),
    ({"actions.family": DELETE}, "truncation-study", "actions.family: truncation-study needs"),
])
def test_subcommand_needs_a_ladder_and_a_family(tmp_path, edits, subcommand, message):
    cfg = _variant(tmp_path, "truncation.cfg", edits)
    code, err = _run([subcommand, cfg, "--out", str(tmp_path / "out")])
    assert code == 2 and message in err, err


# ------------------------------ fuzz -----------------------------------------

# the shipped configs cut to a few nodes and paths, so that a run is cheap
FUZZ_BASE = {
    "bang_bang.cfg": {"domain.nx": 8, "time.nt": 8, "mc.M": 20},
    "step_drift.cfg": {"domain.nx": 8, "time.nt": 8, "mc.M": 20},
    "checkerboard.cfg": {"domain.nx": 8, "time.nt": 8, "mc.M": 20},
    "smooth_baseline.cfg": {"domain.nx": 8, "time.nt": 8, "mc.M": 20},
    "truncation.cfg": {"domain.nx": 8, "time.nt": 8, "mc.M": 20},
    "counterexample.cfg": {"domain.nx": 25, "time.nt": 16, "mc.M": 20},
}
# the subcommands each shipped config serves, every subcommand on at least
# one config, and which of them read a section or key
SERVES = {
    "truncation.cfg": ("truncation-study",),
    "bang_bang.cfg": ("policy-iter", "dpp-check", "mollify-sweep"),
    "step_drift.cfg": ("mollify-sweep", "dpp-check"),
    "checkerboard.cfg": ("solve-hjb", "mollify-sweep", "dpp-check"),
    "smooth_baseline.cfg": ("verify", "mollify-sweep", "simulate"),
    "counterexample.cfg": ("counterexample", "simulate"),
}
READERS = {
    "coefficients": ("solve-hjb", "policy-iter", "verify", "dpp-check", "mollify-sweep",
                     "simulate", "truncation-study"),
    "actions": ("solve-hjb", "policy-iter", "verify", "dpp-check", "mollify-sweep",
                "simulate", "truncation-study"),
    "solver": ("solve-hjb", "policy-iter", "verify", "dpp-check", "mollify-sweep",
               "truncation-study", "simulate"),  # simulate solves for its argmin control
    "mollify": ("mollify-sweep", "truncation-study"),
    "mc": ("verify", "dpp-check", "simulate", "truncation-study", "counterexample"),
    "experiment.t_mid": ("dpp-check",),
    "experiment.suboptimal_action": ("dpp-check",),
    "experiment.x_samples": ("counterexample",),
    "experiment.N_list": ("truncation-study",),
    "experiment.control": ("simulate",),
}


def _rows_set(node, prefix=""):
    """(path, value) of every schema row a parsed config sets, sections excluded."""
    for key, value in node.items():
        path = prefix + key
        if path in SECTIONS and isinstance(value, dict):
            yield from _rows_set(value, path + ".")
        elif path in PATHS:
            yield path, value


# each distinct (key, value) the shipped configs set, with the first config
# that sets it; keys that take any value of their type (the label, the seed)
# count once.  A key that holds its default is not unset, which would change
# nothing; nor is mc.M, whose 20000-path default is valid and costs seconds.
DEFAULT_OF = {key.path: key.default for key in SCHEMA}
FUZZ_CASES = {}
for _name in SERVES:
    for _path, _value in _rows_set(_parsed(_name)):
        _seen = (_path, "" if _path in ("scenario", "mc.seed") else repr(_value))
        _unset = _path != "mc.M" and _value != DEFAULT_OF[_path]
        FUZZ_CASES.setdefault(_seen, (_name, _path, _value, _unset))
FUZZ_CASES = list(FUZZ_CASES.values())


def _breaks(value):
    """Strategies for replacing a value: by one of another type, below or
    above its range, or of the wrong length."""
    low = st.one_of(st.integers(-3, 0), st.floats(-3.0, 0.0), st.just(float("nan")))
    high = st.one_of(st.integers(2, 3), st.floats(1.0, 1.5), st.just(float("inf")))
    text = st.text(min_size=1, max_size=4)
    if isinstance(value, list):
        return [st.one_of(text, st.booleans(), low), st.lists(low, min_size=1, max_size=3),
                st.lists(high, min_size=1, max_size=3),
                st.sampled_from([value[:-1], value + value[-1:]])]
    if isinstance(value, str):
        return [st.one_of(st.integers(), st.booleans()), text, st.just([value])]
    if isinstance(value, dict):
        return [st.one_of(st.integers(), text),
                st.dictionaries(text, st.one_of(low, high, text), min_size=1, max_size=2),
                st.just([value])]
    return [st.one_of(text, st.booleans(), st.just({"a": 1})), low, high, st.just([value, value])]


def _readers(name, path):
    """The subcommands of a config that read a key: those of the longest
    READERS prefix of its path, or every subcommand the config serves."""
    prefixes = [path.rsplit(".", i)[0] for i in range(path.count(".") + 1)]
    readers = next((READERS[p] for p in prefixes if p in READERS), SERVES[name])
    return [sub for sub in SERVES[name] if sub in readers]


@pytest.mark.parametrize("name, path, value, may_unset", FUZZ_CASES,
                         ids=[f"{case[0]}:{case[1]}" for case in FUZZ_CASES])
@settings(derandomize=True, database=None, max_examples=1, deadline=None)
@given(data=st.data())
def test_mutated_shipped_configs_never_end_in_a_traceback(tmp_path_factory, data, name, path,
                                                          value, may_unset):
    # one key of a shipped config broken each way: every subcommand that
    # reads it runs (0), fails a check (1) or rejects the config naming the key (2)
    readers = _readers(name, path)
    assert readers, f"no subcommand of {name} reads {path}"
    tmp = tmp_path_factory.mktemp("fuzz")
    for broken in _breaks(value) + [st.just(DELETE)] * may_unset:
        cfg = _variant(tmp, name, FUZZ_BASE[name] | {path: data.draw(broken)})
        for subcommand in readers:
            code, err = _run([subcommand, cfg, "--out", str(tmp / "out")])
            # a catalog constructor that refuses the grid speaks for itself,
            # under coefficients.params
            named = path in err or (path.startswith(("domain.", "time."))
                                    and "coefficients.params: " in err)
            assert code in (0, 1) or (code == 2 and named), (subcommand, code, err)
            if err.startswith("config invalid:"):
                break  # a config that does not load fails alike for every subcommand


# every value of the keys that take one of a few, as the schema lists them
CHOICES = {"solver.advection": ("upwind", "central"),
           "experiment.control.type": ("argmin", "constant", "diagonal")}


@pytest.mark.parametrize("path", list(CHOICES))
def test_every_valid_choice_runs_or_fails_a_check(tmp_path, path):
    # a valid value never ends in a traceback: on every shipped config, each
    # subcommand that reads the key runs (0) or fails a check of its manifest
    # (1), and every JSON artifact it writes is one strict JSON document
    message = {key.path: key.message for key in SCHEMA}[path]
    assert message == "must be one of " + ", ".join(map(repr, CHOICES[path]))
    for value in CHOICES[path]:
        for name in SERVES:
            cfg = _variant(tmp_path, name, FUZZ_BASE[name] | {path: value})
            for subcommand in _readers(name, path):
                out = tmp_path / f"{name}-{subcommand}-{value}"
                code, err = _run([subcommand, cfg, "--out", str(out)])
                assert code in (0, 1), (name, subcommand, value, code, err)
                artifacts = {p.name: _strict_json(p) for p in out.glob("*.json")}
                assert artifacts["manifest.json"]["all_passed"] == (code == 0), \
                    (name, subcommand, value)


# ------------------------------ single rules ---------------------------------


def test_smooth_baseline_takes_its_horizon_from_the_grid(tmp_path):
    # time.T 2 and no params: the solve meets the closed form of horizon 2
    # (an entry whose horizon was 1 on this grid put the solve 0.27 off it);
    # 128 nodes keep the central scheme's space error at 4e-4, where the
    # shipped 64 give 1.7e-3
    cfg = _variant(tmp_path, "smooth_baseline.cfg", {
        "time.T": 2.0, "domain.nx": 128, "coefficients.params": DELETE})
    code, err = _run(["solve-hjb", cfg, "--out", str(tmp_path / "out")])
    assert code == 0, err
    scenario = load_config(cfg)
    grid = scenario.grid
    u = field_from_csv(grid, str(tmp_path / "out" / "value.csv")).values
    exact = scenario.build_oracle().exact_value(grid.times()[:, None], grid.points())
    assert np.max(np.abs(u - exact)) <= 1e-3


def test_mollify_sweep_tests_a_box_ladder_on_one_band(tmp_path):
    # on a box each rung's own interior band is wider than the one before it:
    # there the sups read 1.82e-3, 2.25e-3 and 1.68e-3, while over the band of
    # eps 0.4 they fall, 1.82e-3, 8.5e-4 and 5.2e-4
    cfg = _variant(tmp_path, "bang_bang.cfg", {"domain.kind": "box", "mc.M": 20})
    code, err = _run(["mollify-sweep", cfg, "--out", str(tmp_path / "out")])
    checks = _strict_json(tmp_path / "out" / "manifest.json")["checks"]
    assert code == 0, err
    assert {check["name"]: check["passed"] for check in checks}["countable_convergence"]


def test_mollify_sweep_runs_on_a_box(tmp_path):
    # the sweep's box branch, which insets its interior eps from every edge
    cfg = _variant(tmp_path, "bang_bang.cfg",
                   FUZZ_BASE["bang_bang.cfg"] | {"domain.kind": "box"})
    code, err = _run(["mollify-sweep", cfg, "--out", str(tmp_path / "out")])
    assert code in (0, 1) and "Traceback" not in err, err
    manifest = _strict_json(tmp_path / "out" / "manifest.json")
    assert "countable_convergence" in {check["name"] for check in manifest["checks"]}
    rungs = _strict_json(tmp_path / "out" / "sweep.json")["report"]["rungs"]
    assert any(r["resolved"] and r["sup_gap_interior"] is not None for r in rungs)


def test_truncation_study_tests_a_box_ladder_on_one_band(tmp_path):
    # the fuzz's 8 nodes resolve only eps 0.4; on 32 nodes and 64 levels each
    # prefix's own-band sups rise (N = 1: 2.20e-3, 2.52e-3, 1.27e-3), while
    # over the band of eps 0.4 they fall
    cfg = _variant(tmp_path, "truncation.cfg", {
        "domain.kind": "box", "mollify.eps": [0.4, 0.2, 0.1],
        "domain.nx": 32, "time.nt": 64, "mc.M": 20})
    code, err = _run(["truncation-study", cfg, "--out", str(tmp_path / "out")])
    checks = _strict_json(tmp_path / "out" / "manifest.json")["checks"]
    assert code == 0, (err, checks)
    assert {check["name"]: check["passed"] for check in checks}["eps_convergence_per_N"]


def _report_of(subcommand, cfg):
    """The report a subcommand writes, built from the config as its handler does."""
    sim = cfg.build_sim()
    if subcommand == "counterexample":
        return experiments.counterexample_report(cfg.grid.T, cfg.experiment["x_samples"],
                                                 cfg.grid, sim=sim)
    if subcommand == "mollify-sweep":
        return experiments.mollify_value_sweep(cfg.build_oracle(), cfg.build_action_set(),
                                               cfg.grid, cfg.eps_list, scheme=cfg.scheme)
    return experiments.countable_truncation_study(
        cfg.build_oracle(), cfg.family(), cfg.experiment["N_list"], cfg.grid, sim=sim,
        eps_list=cfg.eps_list, scheme=cfg.scheme)


@pytest.mark.parametrize("subcommand, name, edits", [
    ("counterexample", "counterexample.cfg", {}),
    ("counterexample", "counterexample.cfg", {"domain.nx": 61, "time.nt": 32}),
    ("mollify-sweep", "bang_bang.cfg", {}),
    ("mollify-sweep", "bang_bang.cfg", {"domain.nx": 32, "time.nt": 32}),
    ("truncation-study", "truncation.cfg", {"domain.nx": 32, "time.nt": 32}),
    ("truncation-study", "truncation.cfg", {"domain.nx": 32, "time.nt": 64, "domain.kind": "box",
                                            "mollify.eps": [0.4, 0.2, 0.1]}),
])
def test_cli_records_the_checks_its_report_states(tmp_path, subcommand, name, edits):
    # the manifest holds the report's checks() and nothing else: names,
    # order, verdicts and details
    cfg = _variant(tmp_path, name, FUZZ_BASE[name] | edits)
    code, err = _run([subcommand, cfg, "--out", str(tmp_path / "out")])
    checks = _strict_json(tmp_path / "out" / "manifest.json")["checks"]
    assert code == (0 if all(c["passed"] for c in checks) else 1), err
    assert checks == [{"name": check, "passed": bool(passed), "detail": detail}
                      for check, passed, detail in _report_of(subcommand, load_config(cfg)).checks()]
