"""Scenario configuration files, validation, and run manifests.

Config files are YAML documents (shipped with a .cfg extension): key/value
pairs in nested sections.  Loading validates every constraint the downstream
modules impose and reports all violations at once with field-pathed
messages, not just the first; unknown keys and catalog parameters are
violations too.  The fully resolved config, defaults included, is echoed
into the run manifest so no default stays silent.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .coefficients import (
    CATALOG,
    ActionSet,
    bang_bang_actions,
    bang_bang_family,
    make_oracle,
    make_tabulated,
)
from .grids import BOX, TORUS, build_grid, field_from_csv
from .montecarlo import SimConfig
from .parabolic import ParabolicScheme


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


DEFAULTS = {
    "solver": {
        "time_stepping": "implicit_euler",
        "advection": "upwind",
        "tol": 1e-8,
        "max_iters": 200,
    },
    "mollify": {"eps": []},
    "mc": {
        "M": 20000,
        "dt_sim": 2e-3,
        "seed": 20260810,
        "start_time": 0.0,
        "start_state": None,  # origin by default
    },
    "experiment": {
        "t_mid": [0.25, 0.5, 0.75],
        "x_samples": [0.0, 0.5, 1.0],
        "N_list": [1, 2],
        "suboptimal_action": None,
        "control": {"type": "argmin"},
    },
}

# every key a section may hold; sections with defaults take exactly those
KNOWN_KEYS = {
    "scenario": None,
    "domain": ("kind", "dim", "extent", "nx"),
    "time": ("T", "nt"),
    "coefficients": ("catalog", "params", "tabulated"),
    "actions": ("list", "family", "N"),
    **{section: tuple(keys) for section, keys in DEFAULTS.items()},
}


@dataclass
class ScenarioConfig:
    """Validated scenario: grid, actions, coefficients, solver and run knobs."""

    label: str
    grid: object
    action_values: list
    action_family: str
    family_N: int
    coefficients: dict
    scheme: ParabolicScheme
    tol: float
    max_iters: int
    eps_list: list
    mc: dict
    experiment: dict
    echo: dict = field(default_factory=dict)
    base_dir: str = "."

    def build_oracle(self):
        spec = self.coefficients
        if spec.get("tabulated"):
            tab = spec["tabulated"]
            n_actions = len(tab["f"])
            F = []
            Bv = []
            for ia in range(n_actions):
                f_field = field_from_csv(self.grid, os.path.join(self.base_dir, tab["f"][ia]))
                F.append(f_field.values)
                b_paths = tab["b"][ia]
                if isinstance(b_paths, str):
                    b_paths = [b_paths]
                comps = [field_from_csv(self.grid, os.path.join(self.base_dir, p)).values
                         for p in b_paths]
                Bv.append(np.stack(comps, axis=-1))
            return make_tabulated(self.grid, np.stack(Bv), np.stack(F))
        return make_oracle(spec["catalog"], self.grid, **spec.get("params", {}))

    def build_action_set(self):
        if self.action_family:
            return self.family().prefix(self.family_N)
        if self.action_values is not None:
            return ActionSet(np.asarray(self.action_values, dtype=float))
        if self.coefficients.get("catalog") == "bang_bang":
            return bang_bang_actions()
        return ActionSet(np.array([1.0]))

    def family(self):
        families = {"bang_bang": bang_bang_family()}
        if self.action_family not in families:
            raise ConfigError([f"actions.family: unknown family {self.action_family!r}"])
        return families[self.action_family]

    def build_sim(self, seed_override=None, n_threads=1):
        start_state = self.mc["start_state"]
        if start_state is None:
            start_state = [0.0] * self.grid.dim
        return SimConfig(
            n_paths=int(self.mc["M"]),
            dt_sim=float(self.mc["dt_sim"]),
            seed=int(seed_override if seed_override is not None else self.mc["seed"]),
            start_time=float(self.mc["start_time"]),
            start_state=tuple(start_state),
            n_threads=int(n_threads),
        )

    def config_hash(self):
        return hashlib.sha256(
            json.dumps(self.echo, sort_keys=True).encode()
        ).hexdigest()


def _merge_defaults(section, defaults):
    out = dict(defaults)
    out.update(section or {})
    return out


def load_config(path):
    """Parse and validate a scenario config; collect every violation."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.MarkedYAMLError as e:
        mark = e.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError([f"parse error{where}: {e.problem}"]) from e
    except OSError as e:
        raise ConfigError([f"cannot read config: {e}"]) from e
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a mapping of sections"])
    return validate_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def _unknown_keys(raw):
    """Violations for sections and keys that no code reads; raises at once on
    a section that is not a mapping."""
    out = []
    for section, body in raw.items():
        if section not in KNOWN_KEYS:
            out.append(f"{section}: unknown section")
        elif KNOWN_KEYS[section] is None or body is None:
            continue
        elif not isinstance(body, dict):
            raise ConfigError(out + [f"{section}: expected a mapping"])
        else:
            out.extend(f"{section}.{key}: unknown key"
                       for key in body if key not in KNOWN_KEYS[section])
    return out


def _param_violations(name, params):
    """Catalog parameters that the entry's constructor would not accept."""
    if not isinstance(params, dict):
        return ["coefficients.params: expected a mapping"]
    sig = list(inspect.signature(CATALOG[name]).parameters.values())[1:]  # after domain
    takes = ", ".join(p.name for p in sig) or "none"
    out = [f"coefficients.params.{key}: not a parameter of {name} (takes {takes})"
           for key in params if key not in {p.name for p in sig}]
    out += [f"coefficients.params.{p.name}: missing, required by {name}"
            for p in sig if p.default is inspect.Parameter.empty and p.name not in params]
    return out


def validate_config(raw, base_dir="."):
    violations = _unknown_keys(raw)

    def need(section, key, typ, pred=None, msg=""):
        sec = raw.get(section)
        if not isinstance(sec, dict) or key not in sec:
            violations.append(f"{section}.{key}: missing")
            return None
        val = sec[key]
        if typ is float and isinstance(val, int):
            val = float(val)
        if not isinstance(val, typ):
            violations.append(f"{section}.{key}: expected {getattr(typ, '__name__', typ)}")
            return None
        if pred and not pred(val):
            violations.append(f"{section}.{key}: {msg}")
            return None
        return val

    kind = need("domain", "kind", str, lambda v: v in (TORUS, BOX), "must be torus or box")
    dim = need("domain", "dim", int, lambda v: v in (1, 2), "must be 1 or 2")
    extent = (raw.get("domain") or {}).get("extent")
    nx = need("domain", "nx", (int, list), lambda v: True, "")
    T = need("time", "T", (int, float), lambda v: v > 0, "must be positive")
    nt = need("time", "nt", int, lambda v: v >= 1, "must be >= 1")
    if extent is None:
        violations.append("domain.extent: missing")

    grid = None
    if not violations:
        try:
            grid = build_grid(kind, dim, extent, nx, float(T), nt)
        except Exception as e:
            violations.append(f"domain/time: {e}")

    coeffs = raw.get("coefficients")
    coeff_spec = {}
    if not isinstance(coeffs, dict):
        violations.append("coefficients: missing section")
    else:
        if "catalog" in coeffs:
            coeff_spec = {"catalog": coeffs["catalog"], "params": coeffs.get("params", {}) or {}}
            if coeffs["catalog"] not in CATALOG:
                violations.append(f"coefficients.catalog: unknown entry {coeffs['catalog']!r}")
            else:
                bad = _param_violations(coeffs["catalog"], coeff_spec["params"])
                violations.extend(bad)
                if grid is not None and not bad:
                    try:  # values the constructor refuses on this grid
                        make_oracle(coeffs["catalog"], grid, **coeff_spec["params"])
                    except (TypeError, ValueError) as e:
                        violations.append(f"coefficients.params: {e}")
        elif "tabulated" in coeffs:
            tab = coeffs["tabulated"]
            if not isinstance(tab, dict) or "b" not in tab or "f" not in tab:
                violations.append("coefficients.tabulated: needs 'b' and 'f' file lists")
            else:
                paths = []
                for entry in tab["b"]:
                    paths.extend([entry] if isinstance(entry, str) else list(entry))
                paths.extend(tab["f"])
                for p in paths:
                    if not os.path.exists(os.path.join(base_dir, p)):
                        violations.append(f"coefficients.tabulated: missing file {p!r}")
                coeff_spec = {"tabulated": tab}
        else:
            violations.append("coefficients: needs 'catalog' or 'tabulated'")

    actions = raw.get("actions", {}) or {}
    action_values = actions.get("list")
    action_family = actions.get("family", "")
    family_N = int(actions.get("N", 0) or 0)
    if action_values is not None and not isinstance(action_values, list):
        violations.append("actions.list: expected a list of actions")
    if action_family and family_N < 1:
        violations.append("actions.N: a family needs a truncation length N >= 1")

    solver = _merge_defaults(raw.get("solver"), DEFAULTS["solver"])
    scheme = None
    try:
        scheme = ParabolicScheme(time_stepping=solver["time_stepping"],
                                 advection=solver["advection"])
    except Exception as e:
        violations.append(f"solver: {e}")
    if not (isinstance(solver["tol"], (int, float)) and solver["tol"] > 0):
        violations.append("solver.tol: must be positive")
    if not (isinstance(solver["max_iters"], int) and solver["max_iters"] >= 1):
        violations.append("solver.max_iters: must be >= 1")

    mol = _merge_defaults(raw.get("mollify"), DEFAULTS["mollify"])
    eps_list = list(mol["eps"] or [])
    if any(not isinstance(e, (int, float)) or e <= 0 for e in eps_list):
        violations.append("mollify.eps: entries must be positive numbers")
    elif any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        violations.append("mollify.eps: ladder must be strictly decreasing")

    mc = _merge_defaults(raw.get("mc"), DEFAULTS["mc"])
    if not (isinstance(mc["M"], int) and mc["M"] >= 1):
        violations.append("mc.M: must be >= 1")
    if not (isinstance(mc["dt_sim"], (int, float)) and mc["dt_sim"] > 0):
        violations.append("mc.dt_sim: must be positive")
    if not isinstance(mc["seed"], int):
        violations.append("mc.seed: must be an integer")

    exp = _merge_defaults(raw.get("experiment"), DEFAULTS["experiment"])
    if not (isinstance(exp["N_list"], list) and exp["N_list"]
            and all(isinstance(N, int) and N >= 1 for N in exp["N_list"])):
        violations.append("experiment.N_list: expected a nonempty list of integers >= 1")

    if violations:
        raise ConfigError(violations)

    echo = {
        "label": raw.get("scenario", coeff_spec.get("catalog", "scenario")),
        "domain": {"kind": kind, "dim": dim, "extent": extent, "nx": nx},
        "time": {"T": float(T), "nt": nt},
        "actions": {"list": action_values, "family": action_family, "N": family_N},
        "coefficients": coeff_spec,
        "solver": solver,
        "mollify": {"eps": eps_list},
        "mc": mc,
        "experiment": exp,
    }
    return ScenarioConfig(
        label=echo["label"],
        grid=grid,
        action_values=action_values,
        action_family=action_family,
        family_N=family_N,
        coefficients=coeff_spec,
        scheme=scheme,
        tol=float(solver["tol"]),
        max_iters=int(solver["max_iters"]),
        eps_list=eps_list,
        mc=mc,
        experiment=exp,
        echo=echo,
        base_dir=base_dir,
    )


@dataclass
class RunManifest:
    """Replayable record of one run: config echo, seeds, artifacts, checks."""

    config_hash: str
    config_echo: dict
    seeds: dict
    tool_version: str = __version__
    started: str = ""
    finished: str = ""
    artifacts: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # {"name", "passed", "detail"}

    def add_artifact(self, path):
        self.artifacts.append(str(path))

    def add_check(self, name, passed, detail=""):
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_passed(self):
        return all(c["passed"] for c in self.checks)

    def write(self, path):
        """Atomic write (tmp file + rename) at run end."""
        payload = {
            "config_hash": self.config_hash,
            "config": self.config_echo,
            "seeds": self.seeds,
            "tool_version": self.tool_version,
            "started": self.started,
            "finished": self.finished,
            "artifacts": self.artifacts,
            "checks": self.checks,
        }
        tmp = str(path) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
