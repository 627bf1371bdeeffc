"""Acceptance battery: every criterion at its stated tolerance.

Runs the shipped selftest once per session, asserts each criterion, and
reruns the full battery to confirm bit-identical numeric artifacts.  One
pass/fail line per criterion is printed (visible with pytest -s; the CLI
`hjblab selftest` prints the same lines unconditionally).
"""

import filecmp
import json
import os
import re
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from hjblab import hjb, selftest
from hjblab.cli import main
from hjblab.config import RunManifest, echo_hash, load_config
from hjblab.montecarlo import STREAM
from hjblab.selftest import (
    SUMMARY,
    _crit3_crit4_agreement,
    _crit7_sweeps,
    multi_action_scenarios,
    run_selftest,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    out = tmp_path_factory.mktemp("selftest")
    result = run_selftest(str(out), threads=2)
    print(result.report(os.path.join(out, SUMMARY)))
    return out, result


def _outcome(result, criterion, fragment=""):
    matches = [c for c in result.checks
               if c["criterion"] == criterion and fragment in c["name"]]
    assert matches, f"no outcome recorded for criterion {criterion} {fragment!r}"
    return matches[0]


def test_criterion_1_counterexample_gap(battery):
    _, result = battery
    o = _outcome(result, 1)
    assert o["passed"], o
    assert o["runtime"] < 10.0


def test_criterion_2_mc_crosscheck(battery):
    _, result = battery
    o = _outcome(result, 2)
    assert o["passed"], o
    assert o["runtime"] < 60.0


def test_criterion_3_oracle_agreement(battery):
    _, result = battery
    o = _outcome(result, 3)
    assert o["passed"], o


def test_criterion_4_monotonicity(battery):
    _, result = battery
    o = _outcome(result, 4)
    assert o["passed"], o


def test_criterion_5_verification(battery):
    _, result = battery
    o = _outcome(result, 5)
    assert o["passed"], o


def test_criterion_6_dpp(battery):
    _, result = battery
    o = _outcome(result, 6)
    assert o["passed"], o


def test_criterion_7_sweeps(battery):
    _, result = battery
    o = _outcome(result, 7, fragment="sweeps")
    assert o["passed"], o


def test_criterion_7_truncation(battery):
    _, result = battery
    o = _outcome(result, 7, fragment="truncation")
    assert o["passed"], o


def test_criterion_8_solver_validation(battery):
    _, result = battery
    o = _outcome(result, 8)
    assert o["passed"], o


def test_criterion_9_reproducibility_spot(battery):
    _, result = battery
    o = _outcome(result, 9)
    assert o["passed"], o


def test_catalog_bounds(battery):
    _, result = battery
    o = _outcome(result, 0)
    assert o["passed"], o


def test_every_json_artifact_is_one_strict_document(battery):
    out, _ = battery
    paths = sorted(Path(out).glob("*.json"))
    assert SUMMARY in {p.name for p in paths}

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    for path in paths:
        try:
            json.loads(path.read_text(), parse_constant=refuse)
        except ValueError as exc:
            pytest.fail(f"{path.name}: {exc}")


def test_summary_is_a_run_record_like_the_manifest(battery, tmp_path):
    out, _ = battery
    summary = json.loads((out / SUMMARY).read_text())
    cli = {"name", "passed", "detail"}
    assert all(set(c) == cli | {"criterion", "runtime"} for c in summary["checks"])
    assert {"name": "inner_sweeps_converged", "passed": True, "detail": "0 flagged steps",
            "criterion": 0, "runtime": 0.0} in summary["checks"]
    assert main(["solve-hjb", os.path.join(ROOT, "configs", "smooth_baseline.cfg"),
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(summary) == set(manifest)
    assert all(set(c) == cli for c in manifest["checks"])


def test_summary_names_the_noise_stream(battery):
    out, _ = battery
    seeds = json.loads((out / SUMMARY).read_text())["seeds"]
    assert seeds == {"master": selftest.MASTER_SEED, "stream": STREAM}


def test_every_scenario_is_a_shipped_config(battery, monkeypatch):
    # one definition per scenario: the battery loads each from the configs
    # shipped as package data, and its record echoes every one of them
    package = resources.files("hjblab") / "configs"
    names = {p.name for p in package.iterdir() if p.name.endswith(".cfg")}
    loaded = []

    def spy(path):
        loaded.append(Path(path))
        return load_config(path)

    monkeypatch.setattr(selftest, "load_config", spy)
    assert set(selftest.multi_action_scenarios()) == set(selftest.MULTI_ACTION)
    assert loaded and all(p.name in names and p.parent.resolve() == Path(str(package)).resolve()
                          for p in loaded)
    out, _ = battery
    summary = json.loads((out / SUMMARY).read_text())
    assert {f"{stem}.cfg" for stem in summary["config"]} == names
    for stem, echo in summary["config"].items():
        assert echo == load_config(package / f"{stem}.cfg").echo
    assert summary["config_hash"] == echo_hash(summary["config"])


def test_root_configs_is_a_link_to_the_package_data():
    link = Path(ROOT) / "configs"
    assert link.is_symlink() and not os.path.isabs(os.readlink(link))
    assert link.resolve() == Path(str(resources.files("hjblab") / "configs")).resolve()
    text = (Path(ROOT) / "pyproject.toml").read_text()
    section = text.split("[tool.setuptools.package-data]\n", 1)[1].split("\n[", 1)[0]
    assert 'hjblab = ["configs/*.cfg"]' in section.splitlines()


def test_criterion_9_full_rerun_bit_identical(battery, tmp_path):
    """Second selftest run reproduces every numeric artifact byte for byte."""
    out1, result = battery
    assert result.total_runtime < 300.0
    out2 = tmp_path / "again"
    result2 = run_selftest(str(out2), threads=2)
    assert result2.all_passed
    names = sorted(os.listdir(out1))
    names2 = sorted(os.listdir(out2))
    assert names == names2
    skip = {"selftest_summary.json"}  # carries wall-clock runtime
    for name in names:
        if name in skip:
            continue
        assert filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name),
                           shallow=False), f"artifact {name} differs between runs"


def test_criterion_7_sweeps_fail_on_flagged_inner_steps(tmp_path, monkeypatch):
    # one sweep per step can never see the argmin repeat, so every march flags
    monkeypatch.setattr(hjb, "MAX_SWEEPS", 1)
    record = RunManifest(str(tmp_path))
    gap_report = SimpleNamespace(gap_at_origin=1.0 / 3.0,
                                 checks=lambda: [("strict_gap", True, "gap(0,0)=0.3333")])
    _crit7_sweeps(record, gap_report)
    o = record.checks[0]
    assert not o["passed"]
    flagged = [int(n) for n in
               re.findall(r"inner_sweeps_converged \((\d+) flagged steps\)", o["detail"])]
    assert len(flagged) == len(multi_action_scenarios()) and min(flagged) > 0, o["detail"]


def test_criterion_3_fails_on_flagged_inner_steps(tmp_path, monkeypatch):
    # on step_drift the capped direct march still matches policy iteration,
    # so only its flagged steps can fail the criterion
    step_drift = multi_action_scenarios()["step_drift"]
    monkeypatch.setattr(selftest, "multi_action_scenarios", lambda: {"step_drift": step_drift})
    monkeypatch.setattr(hjb, "MAX_SWEEPS", 1)
    record = RunManifest(str(tmp_path))
    _crit3_crit4_agreement(record)
    row = json.loads((tmp_path / "oracle_agreement.json").read_text())["step_drift"]
    assert row["sup_diff"] <= 1e-7 and row["converged"] and row["flagged_steps"] > 0, row
    assert not record.checks[0]["passed"]
