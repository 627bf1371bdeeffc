"""Scenario configuration files, validation, and run manifests.

Config files are YAML documents (shipped with a .cfg extension) of nested
sections.  SCHEMA describes every key once: path, type, default, predicate
and message.  Loading walks it, reports every violation at once, and echoes
the resolved config, defaults included, into the run manifest.
"""

from __future__ import annotations

import datetime
import hashlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .coefficients import (
    CATALOG,
    ActionSet,
    bang_bang_actions,
    bang_bang_dyadic_family,
    bang_bang_family,
    make_oracle,
    make_tabulated,
)
from .grids import BOX, CENTRAL, TORUS, UPWIND, build_grid, field_from_csv
from .mollify import strictly_decreasing
from .montecarlo import SimConfig
from .parabolic import MIN_NODES


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


REQUIRED = object()  # default of a key the config must set
ABSENT = object()    # default of an optional key the echo leaves out when unset

FAMILIES = {"bang_bang": bang_bang_family, "bang_bang_dyadic": bang_bang_dyadic_family}


@dataclass(frozen=True)
class Key:
    """One row of SCHEMA.  ``type`` is int (not bool), float (an int too,
    finite), str, dict or None (any); null counts as unset.  ``default`` and
    ``check(value, got)`` may read the values resolved so far (``got``, by
    path) once those in ``needs`` have; a check returns a bool, reported with
    ``message``, or its own violations.  A ``build`` row reads no key."""

    path: str
    type: object = None
    default: object = REQUIRED
    check: object = None
    message: str = ""
    needs: tuple = ()
    build: object = None

    def violations(self, value, got):
        result = self.check(value, got) if self.check else True
        if isinstance(result, list):
            return result
        return [] if result else [f"{self.path}: {self.message}"]


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and bool(np.isfinite(v))


def _numbers(v):
    """v is a nonempty list of numbers."""
    return isinstance(v, list) and len(v) > 0 and all(map(_number, v))


def _interval(v):
    return _numbers(v) and len(v) == 2 and v[0] < v[1]


def _choice(*options):
    """Check and message of a key that takes one of a few values."""
    return lambda v, g: v in options, "must be one of " + ", ".join(map(repr, options))


def _extent_ok(v, got):
    per_axis = isinstance(v, list) and len(v) == got["domain.dim"] and all(map(_interval, v))
    return (_number(v) and v > 0) or _interval(v) or per_axis


def _counts_ok(v, got):
    least = MIN_NODES[got["domain.kind"]]
    counts = v if isinstance(v, list) and len(v) == got["domain.dim"] else [v]
    return all(_integer(n) and n >= least for n in counts)


def _param_violations(params, got):
    """Catalog parameters that the entry's constructor would not accept."""
    name = got["coefficients.catalog"]
    if name is ABSENT:
        return ["coefficients.params: only a catalog entry takes params"]
    sig = list(inspect.signature(CATALOG[name]).parameters.values())[1:]  # after domain
    takes = ", ".join(p.name for p in sig) or "none"
    out = [f"coefficients.params.{key}: not a parameter of {name} (takes {takes})"
           for key in params if key not in {p.name for p in sig}]
    out += [f"coefficients.params.{p.name}: missing, required by {name}"
            for p in sig if p.default is inspect.Parameter.empty and p.name not in params]
    if not out and "grid" in got:  # values the constructor refuses on this grid
        try:
            make_oracle(name, got["grid"], **params)
        except (TypeError, ValueError) as e:
            out.append(f"coefficients.params: {e}")
    return out


def _files(entry):
    return [entry] if isinstance(entry, str) else entry


def _tabulated_ok(tab, got):
    """'b' and 'f' list one entry per action, a 'b' entry one file per axis."""
    b, f = tab.get("b"), tab.get("f")
    return (isinstance(b, list) and isinstance(f, list) and 0 < len(b) == len(f)
            and all(isinstance(e, (str, list)) and len(_files(e)) == got["domain.dim"] for e in b)
            and all(isinstance(p, str) for p in sum(map(_files, b), f)))


def _tabulated_tables(got):
    """The (B, F) tables of coefficients.tabulated, each file loaded once on
    the built grid, or a violation per file that is missing or does not fit."""
    tab = got["coefficients.tabulated"]
    if tab is ABSENT:
        return ABSENT
    fields, bad = {}, []
    for p in sorted(set(sum(map(_files, tab["b"]), tab["f"]))):
        path = os.path.join(got["base_dir"], p)
        if not os.path.exists(path):
            bad.append(f"coefficients.tabulated: missing file {p!r}")
            continue
        try:
            fields[p] = field_from_csv(got["grid"], path).values
        except (OSError, ValueError) as e:
            bad.append(f"coefficients.tabulated: file {p!r} does not load on the grid: {e}")
    return bad or (np.stack([np.stack([fields[p] for p in _files(b)], axis=-1) for b in tab["b"]]),
                   np.stack([fields[p] for p in tab["f"]]))


def _action_set(values, family, N, catalog):
    if family:
        return FAMILIES[family]().prefix(N)
    if values is not None:
        return ActionSet(np.asarray(values, dtype=float))
    return bang_bang_actions() if catalog == "bang_bang" else ActionSet(np.array([1.0]))


def _t_mid_ok(v, got):
    grid, s = got["grid"], got["mc.start_time"]
    return _numbers(v) and all(s < f * grid.T < grid.T and grid.level_index(f * grid.T) is not None
                               for f in v)


GRID_KEYS = ("domain.kind", "domain.dim", "domain.extent", "domain.nx", "time.T", "time.nt")
ACTION_KEYS = ("actions.list", "actions.family", "actions.N", "coefficients.catalog")

SCHEMA = (
    Key("scenario", str, ABSENT),
    Key("domain", dict, {}),
    Key("domain.kind", str, REQUIRED, *_choice(TORUS, BOX)),
    Key("domain.dim", int, REQUIRED, *_choice(1, 2)),
    Key("domain.extent", None, REQUIRED, _extent_ok, "expected a length L > 0, an interval "
        "[lo, hi] with lo < hi, or one interval per axis", ("domain.dim",)),
    Key("domain.nx", None, REQUIRED, _counts_ok, "expected one integer per axis, >= 3 on a "
        "torus and >= 4 on a box", ("domain.kind", "domain.dim")),
    Key("time", dict, {}),
    Key("time.T", float, REQUIRED, lambda v, g: v > 0, "must be positive"),
    Key("time.nt", int, REQUIRED, lambda v, g: v >= 1, "must be >= 1"),
    Key("grid", needs=GRID_KEYS, build=lambda g: build_grid(*(g[k] for k in GRID_KEYS))),
    Key("coefficients", dict, REQUIRED,
        lambda v, g: (v.get("catalog") is None) != (v.get("tabulated") is None),
        "needs exactly one of coefficients.catalog and coefficients.tabulated"),
    Key("coefficients.catalog", str, ABSENT, *_choice(*sorted(CATALOG))),
    Key("coefficients.params", dict,
        lambda g: ABSENT if g["coefficients.catalog"] is ABSENT else {},
        _param_violations, needs=("coefficients.catalog",)),
    Key("coefficients.tabulated", dict, ABSENT, _tabulated_ok, "needs 'b' and 'f' file lists, "
        "one entry per action, one 'b' file per axis", ("domain.dim",)),
    Key("tabulated tables", needs=("grid", "coefficients.tabulated"), build=_tabulated_tables,
        check=lambda v, g: v if isinstance(v, list) else True),
    Key("actions", dict, {}),
    Key("actions.list", None, None, lambda v, g: v is None or (
        _numbers(v) and len(set(v)) == len(v)), "expected a nonempty list of distinct numbers"),
    Key("actions.family", str, "", *_choice("", *FAMILIES)),
    Key("actions.N", int, 0, lambda v, g: v >= 1 or not g["actions.family"],
        "a family needs a truncation length N >= 1", ("actions.family",)),
    Key("action set", needs=ACTION_KEYS, build=lambda g: _action_set(*(g[k] for k in ACTION_KEYS))),
    Key("solver", dict, {}),
    Key("solver.advection", str, UPWIND, *_choice(UPWIND, CENTRAL)),
    Key("solver.tol", float, 1e-8, lambda v, g: v > 0, "must be positive"),
    Key("mollify", dict, {}),
    Key("mollify.eps", None, [], lambda v, g: v == [] or (
        _numbers(v) and v[-1] > 0 and strictly_decreasing(v)),
        "expected a strictly decreasing list of positive numbers"),
    Key("mc", dict, {}),
    Key("mc.M", int, 20000, lambda v, g: v >= 1, "must be >= 1"),
    Key("mc.seed", int, 20260810, lambda v, g: 0 <= v < 2**64, "must be in [0, 2**64)"),
    Key("mc.start_time", float, 0.0,
        lambda v, g: 0 <= v < g["grid"].T and g["grid"].level_index(v) is not None,
        "must be a multiple of time.T / time.nt in [0, time.T)", ("grid",)),
    Key("mc.dt_sim", float, 2e-3, lambda v, g: 0 < v <= g["time.T"] - g["mc.start_time"] + 1e-12,
        "must be positive and at most time.T - mc.start_time", ("time.T", "mc.start_time")),
    Key("mc.start_state", None, None, lambda v, g: v is None or (
        _numbers(v) and len(v) == g["domain.dim"]), "expected domain.dim numbers", ("domain.dim",)),
    Key("experiment", dict, {}),
    Key("experiment.t_mid", None, [0.25, 0.5, 0.75], _t_mid_ok, "expected a nonempty list of "
        "fractions f of time.T, each f * time.T a multiple of time.T / time.nt in "
        "(mc.start_time, time.T)", ("grid", "mc.start_time")),
    Key("experiment.x_samples", None, [0.0, 0.5, 1.0], lambda v, g: _numbers(v),
        "expected a nonempty list of numbers"),
    Key("experiment.N_list", None, [1, 2], lambda v, g: isinstance(v, list) and len(v) > 0 and all(
        _integer(N) and N >= 1 for N in v), "expected a nonempty list of integers >= 1"),
    Key("experiment.suboptimal_action", int, None,
        lambda v, g: v is None or 0 <= v < len(g["action set"]),
        "must index the action set (from actions.list, or actions.family and actions.N)",
        ("action set",)),
    Key("experiment.control", dict, {}),
    Key("experiment.control.type", str, "argmin", *_choice("argmin", "constant", "diagonal")),
    Key("experiment.control.value", float, ABSENT),
)

PATHS = {key.path for key in SCHEMA if key.build is None}
SECTIONS = {path.rpartition(".")[0] for path in PATHS} - {""}
TYPES = {int: (_integer, "an integer"), float: (_number, "a finite number"),
         str: (lambda v: isinstance(v, str), "a string"),
         dict: (lambda v: isinstance(v, dict), "a mapping")}


@dataclass
class ScenarioConfig:
    """Validated scenario: run knobs, the echo, and the resolved values by path."""

    label: str
    grid: object
    scheme: str  # the advection stencil, UPWIND or CENTRAL
    tol: float
    eps_list: list
    mc: dict
    experiment: dict
    echo: dict
    values: dict

    def build_oracle(self):
        spec = self.echo["coefficients"]
        if "catalog" in spec:
            return make_oracle(spec["catalog"], self.grid, **spec["params"])
        return make_tabulated(self.grid, *self.values["tabulated tables"])

    def build_action_set(self):
        return self.values["action set"]

    def family(self):
        return FAMILIES[self.values["actions.family"]]()

    def build_sim(self, seed_override=None, n_threads=1):
        mc = self.mc
        return SimConfig(n_paths=mc["M"], dt_sim=mc["dt_sim"],
                         seed=mc["seed"] if seed_override is None else seed_override,
                         start_time=mc["start_time"],
                         start_state=tuple(mc["start_state"] or [0.0] * self.grid.dim),
                         n_threads=n_threads)

    def config_hash(self):
        return echo_hash(self.echo)


def echo_hash(echo):
    """SHA-256 of a config echo (or a mapping of echoes), keys sorted."""
    return hashlib.sha256(json.dumps(echo, sort_keys=True).encode()).hexdigest()


def load_config(path):
    """Parse and validate a scenario config; collect every violation."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.MarkedYAMLError as e:
        mark = e.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError([f"parse error{where}: {e.problem}"]) from e
    except OSError as e:
        raise ConfigError([f"cannot read config: {e}"]) from e
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a mapping of sections"])
    return validate_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def resolve(raw, base_dir="."):
    """Walk SCHEMA once over a parsed config: the resolved values by path,
    the grid and action set included, or a ConfigError with every violation."""
    violations = [f"{key}: unknown section" for key in raw if key not in PATHS]
    got = {"": raw, "base_dir": base_dir}
    for key in SCHEMA:
        parent, _, name = key.path.rpartition(".")
        if parent not in got or not all(n in got for n in key.needs):
            continue  # an input is invalid, and its own row says so
        value = key.build(got) if key.build else got[parent].get(name)
        if value is None:
            value = key.default(got) if callable(key.default) else key.default
            if value is REQUIRED:
                violations.append(f"{key.path}: missing")
                continue
        elif key.type:
            is_type, type_name = TYPES[key.type]
            if not is_type(value):
                violations.append(f"{key.path}: expected {type_name}")
                continue
            value = float(value) if key.type is float else value
        if value is not ABSENT:
            bad = key.violations(value, got)
            if key.path in SECTIONS:
                bad += [f"{key.path}.{k}: unknown key" for k in value
                        if f"{key.path}.{k}" not in PATHS]
            if bad:
                violations += bad
                continue
        got[key.path] = value
    if violations:
        raise ConfigError(violations)
    return got


def validate_config(raw, base_dir="."):
    got = resolve(raw, base_dir)
    echo = {}
    for key in SCHEMA:  # every set or defaulted key but the sections
        if key.path in PATHS and key.path not in SECTIONS and got[key.path] is not ABSENT:
            *sections, name = key.path.split(".")
            node = echo
            for section in sections:
                node = node.setdefault(section, {})
            node[name] = got[key.path]
    echo["label"] = echo.pop("scenario", echo["coefficients"].get("catalog", "scenario"))
    return ScenarioConfig(
        label=echo["label"], grid=got["grid"],
        scheme=got["solver.advection"],
        tol=got["solver.tol"], eps_list=got["mollify.eps"],
        mc=echo["mc"], experiment=echo["experiment"], echo=echo, values=got)


def _finite(value):
    """``value`` with every NaN or infinite float replaced by None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


@dataclass
class RunManifest:
    """The one record of a run, a CLI command or the selftest: its output
    directory, config echo and seeds, every artifact it names, and its
    checks.  A check is {"name", "passed", "detail"}; a selftest check also
    carries its "criterion" and "runtime" (s).  ``write`` stamps the end
    time and total runtime and writes the record as JSON, atomically;
    ``write_json`` writes every other JSON artifact the same way."""

    out_dir: str
    config_hash: str | None = None
    config_echo: dict | None = None
    seeds: dict = field(default_factory=dict)
    started: str = field(default_factory=_now)
    finished: str = ""
    total_runtime: float = 0.0
    artifacts: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    _clock: float = field(default_factory=time.perf_counter, repr=False)

    def path(self, name):
        """Path of one output file, recorded as an artifact."""
        path = os.path.join(self.out_dir, name)
        self.artifacts.append(path)
        return path

    def add_check(self, name, passed, detail="", **extra):
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail, **extra})

    @property
    def all_passed(self):
        return all(c["passed"] for c in self.checks)

    def write(self, name):
        """Write the record as ``name`` in the output directory; return its
        path.  Every JSON file goes through a tmp file and a rename."""
        self.finished = _now()
        self.total_runtime = round(time.perf_counter() - self._clock, 3)
        payload = {
            "config_hash": self.config_hash,
            "config": self.config_echo,
            "seeds": self.seeds,
            "tool_version": __version__,
            "started": self.started,
            "finished": self.finished,
            "total_runtime": self.total_runtime,
            "all_passed": self.all_passed,
            "artifacts": self.artifacts,
            "checks": self.checks,
        }
        return self._write(os.path.join(self.out_dir, name), payload)

    def write_json(self, name, value):
        """Write ``value`` as the JSON artifact ``name``; return its path."""
        return self._write(self.path(name), value)

    @staticmethod
    def json_text(value):
        """The text of every JSON document a run writes: keys sorted, indent
        2, a trailing newline, and a NaN or infinite float written as null,
        which every JSON parser reads."""
        return json.dumps(_finite(value), allow_nan=False, indent=2, sort_keys=True) + "\n"

    def _write(self, path, value):
        with open(path + ".tmp", "w") as fh:
            fh.write(self.json_text(value))
        os.replace(path + ".tmp", path)
        return path

    def report(self, path):
        """The verdict and the record's path, then one PASS/FAIL line per check."""
        verdict = "OK" if self.all_passed else "FAILED"
        lines = [f"{verdict} -> {path} ({self.total_runtime:.1f}s)"]
        for c in self.checks:
            criterion = f"criterion {c['criterion']}: " if "criterion" in c else ""
            runtime = f" ({c['runtime']:.1f}s)" if "runtime" in c else ""
            lines.append(f"  [{'PASS' if c['passed'] else 'FAIL'}] {criterion}{c['name']}{runtime}"
                         f" {c['detail']}")
        return "\n".join(lines)
