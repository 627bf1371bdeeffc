"""The package's exported names, pinned so that a removal or a new export
is a deliberate edit of this list."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

import hjblab
from hjblab import config
from hjblab.montecarlo import SimConfig

EXPORTS = {
    # grids
    "Grid", "SpaceTimeField", "build_grid", "field_from_csv", "field_to_csv", "lp_norm",
    "spatial_gradient",
    # coefficients
    "ActionFamily", "ActionSet", "CoefficientOracle", "bang_bang_actions",
    "bang_bang_family", "catalog_names", "make_oracle", "make_tabulated",
    "sample_to_grid", "verify_bound",
    # mollify
    "MollifierKernel", "coefficient_ladder", "kernel_normalization_error", "kernel_value",
    "mollify_field",
    # parabolic
    "convergence_order", "pde_residual", "solve_frozen",
    # hamiltonian
    "Policy", "constant_policy",
    # hjb
    "IterationTrace", "hjb_residual", "policy_iteration", "solve_hjb_direct",
    "solve_hjb_tables", "solve_policy_value",
    # montecarlo
    "FeedbackRule", "GridPolicyControl", "MCEstimate", "OpenLoopControl", "SimConfig",
    "constant_control", "dpp_residual", "simulate_cost", "value_at",
    # experiments
    "counterexample_report", "countable_truncation_study", "dpp_battery",
    "mollify_value_sweep", "verification_check",
}


# every config key path the schema accepts, pinned the same way
CONFIG_KEYS = {
    "scenario",
    "domain", "domain.kind", "domain.dim", "domain.extent", "domain.nx",
    "time", "time.T", "time.nt",
    "coefficients", "coefficients.catalog", "coefficients.params", "coefficients.tabulated",
    "actions", "actions.list", "actions.family", "actions.N",
    "solver", "solver.advection", "solver.tol",
    "mollify", "mollify.eps",
    "mc", "mc.M", "mc.seed", "mc.start_time", "mc.dt_sim", "mc.start_state",
    "experiment", "experiment.t_mid", "experiment.x_samples", "experiment.N_list",
    "experiment.suboptimal_action", "experiment.control", "experiment.control.type",
    "experiment.control.value",
}

# every value a Monte Carlo run sets, pinned the same way
SIM_FIELDS = {"n_paths", "dt_sim", "seed", "start_time", "start_state", "n_threads"}


def test_config_keys():
    assert config.PATHS == CONFIG_KEYS


def test_sim_fields():
    assert {f.name for f in fields(SimConfig)} == SIM_FIELDS


def test_exported_names():
    exported = {name for name, value in vars(hjblab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTS
    assert hjblab.__version__ == "0.1.0"


def _fresh(code, *args):
    """The stdout lines of ``code`` run with ``args`` in a fresh interpreter
    that imports this hjblab."""
    src = os.path.dirname(os.path.dirname(hjblab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout.splitlines()


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    # nor the scipy.linalg package, which would load 74 more modules: LAPACK
    # is bound on the first line solve, from scipy's extension module alone
    cfg = yaml.safe_load((ROOT / "configs" / "checkerboard.cfg").read_text())
    cfg["domain"]["nx"], cfg["time"]["nt"] = 8, 8
    path = tmp_path / "small.cfg"
    path.write_text(yaml.safe_dump(cfg))
    code = ("import sys, hjblab.cli\n"
            "names = {'scipy.integrate', 'scipy.linalg', 'scipy.linalg._flapack'}\n"
            "print(sorted(names & set(sys.modules)))\n"
            "assert hjblab.cli.main(['solve-hjb', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(sorted(names & set(sys.modules)))\n")
    out = _fresh(code, str(path), str(tmp_path / "out"))
    assert out[0] == "[]"
    assert out[-1] == "['scipy.linalg._flapack']"


@pytest.mark.parametrize("package_first", [False, True])
def test_lapack_bindings_are_scipys(package_first):
    # the routines bound from the extension are the objects scipy.linalg.lapack
    # exports, whether the package is imported before the first solve or after
    code = ("import sys\n"
            + ("import scipy.linalg.lapack\n" if package_first else "")
            + "import numpy as np\n"
            "from hjblab import tridiag\n"
            "bands = np.array([-np.ones(4), 3.0 * np.ones(4), -np.ones(4)])\n"
            "tridiag.solve_lines(bands, np.ones(4))\n"
            "names = ('dgtsv', 'dgttrf', 'dgttrs')\n"
            "bound = [getattr(tridiag._flapack(), n) for n in names]\n"
            "print('scipy.linalg' in sys.modules)\n"
            "import scipy.linalg.lapack as lapack\n"
            "print([b is getattr(lapack, n) for b, n in zip(bound, names)])\n")
    assert _fresh(code) == [str(package_first), "[True, True, True]"]


ROOT = Path(__file__).resolve().parent.parent

# names defined in src/hjblab that no program code refers to, kept on purpose
ALLOWED_UNUSED = {
    "grad_l1": "documents the mollifier gradient bound |grad g_eps| <= grad_l1 / eps sup|g|",
}


def _defined_names(tree):
    """Module-level functions and classes, and the non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"))


def _referenced_names(tree):
    """Every Name and Attribute, and the parts of "module:qualname" strings
    (the benchmark tracer's targets)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = re.fullmatch(r"\w+:([\w.]+)", node.value)
            if match:
                yield from match.group(1).split(".")


def test_no_test_only_helpers():
    modules = sorted((ROOT / "src" / "hjblab").glob("*.py"))
    defined = {name for path in modules for name in _defined_names(ast.parse(path.read_text()))}
    callers = ([path for path in modules if path.name != "__init__.py"]
               + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")))
    referenced = {name for path in callers for name in _referenced_names(ast.parse(path.read_text()))}
    assert set(ALLOWED_UNUSED) <= defined
    assert defined - referenced - set(ALLOWED_UNUSED) == set()


def _json_dump_scopes(tree):
    """The enclosing class and function names of every json.dump(s) call."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr in ("dump", "dumps")
                    and isinstance(func.value, ast.Name) and func.value.id == "json"):
                yield ".".join(scope)
            yield from visit(child, scope)

    return visit(tree, ())


def test_json_is_written_only_by_the_run_record():
    # one JSON writer: every artifact goes through RunManifest's strict text
    # (NaN as null, keys sorted); echo_hash dumps an echo only to hash it
    scopes = []
    for path in sorted((ROOT / "src" / "hjblab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "json", f"{path.name}: from json import"
            if isinstance(node, ast.Import):
                assert all(a.name != "json" or a.asname is None for a in node.names), path.name
        scopes += [f"{path.name}:{scope}" for scope in _json_dump_scopes(tree)]
    assert sorted(scopes) == ["config.py:RunManifest.json_text", "config.py:echo_hash"]


def test_every_tracer_target_resolves(monkeypatch):
    # a renamed entry point would leave its benchmark layer silently absent
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclass looks itself up
    spec.loader.exec_module(tracer)
    unresolved = []
    for target in tracer.TARGETS:
        module, qualname = target.where.split(":")
        obj = importlib.import_module(f"hjblab.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            unresolved.append(target.where)
    assert tracer.TARGETS and unresolved == []


def _scopes(tree, match):
    """The enclosing class, function and lambda names of every node that
    ``match`` accepts, one entry per node."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                yield ".".join(scope)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                yield from visit(child, scope + (getattr(child, "name", "<lambda>"),))
            else:
                yield from visit(child, scope)

    return visit(tree, ())


def _imports_scipy(node):
    """An import of scipy or of a scipy submodule, by statement or by call."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    elif (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
          and getattr(node.func, "attr", getattr(node.func, "id", None))
          in ("import_module", "__import__")):
        names = [str(node.args[0].value)]
    else:
        return False
    return any(name == "scipy" or name.startswith("scipy.") for name in names)


def test_scipy_is_imported_only_by_the_lapack_loader():
    # one loader reaches scipy, for its LAPACK extension alone: an import of
    # scipy.linalg anywhere would bring back its 74 modules (+25 MB)
    found = set()
    for path in sorted((ROOT / "src" / "hjblab").glob("*.py")):
        found |= {f"{path.name}:{scope}" for scope in _scopes(ast.parse(path.read_text()),
                                                               _imports_scipy)}
    assert found == {"tridiag.py:_flapack"}


def _names_getattr(node):
    """A definition of, or an assignment to, the name ``__getattr__``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name == "__getattr__"
    targets = node.targets if isinstance(node, ast.Assign) else []
    return any(getattr(t, "id", None) == "__getattr__" for t in targets)


def test_lapack_is_bound_through_one_cached_loader():
    # the routines are looked up on the cached extension: no module hook
    # resolves names, and nothing writes into a module's namespace
    found = set()
    for path in sorted((ROOT / "src" / "hjblab").glob("*.py")):
        tree = ast.parse(path.read_text())
        found |= {f"{path.name}:__getattr__" for node in tree.body if _names_getattr(node)}
        found |= {f"{path.name}:globals()" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "globals"}
    assert found == set()
    # a frozen solve and a march, box and torus, run the loader's body once
    code = ("import numpy as np\n"
            "from hjblab import hjb, parabolic, tridiag\n"
            "from hjblab.grids import build_grid\n"
            "for kind in ('box', 'torus'):\n"
            "    grid = build_grid(kind, 2, (-1.0, 1.0), 9, 1.0, 4)\n"
            "    rng = np.random.default_rng(7)\n"
            "    B = rng.uniform(-1.0, 1.0, size=(2, grid.n_levels) + grid.space_shape + (2,))\n"
            "    F = rng.normal(size=(2, grid.n_levels) + grid.space_shape)\n"
            "    parabolic.solve_frozen(B[0], F[0], grid)\n"
            "    hjb.solve_hjb_tables(B, F, grid)\n"
            "info = tridiag._flapack.cache_info()\n"
            "print(info.misses, info.hits > 0)\n")
    assert _fresh(code) == ["1 True"]


def _is_level_tolerance(node):
    """1e-9 * max(1, <grid>.T), the tolerance of "t lies on a time level"."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Constant) and node.left.value == 1e-9
            and isinstance(node.right, ast.Call) and getattr(node.right.func, "id", None) == "max"
            and any(isinstance(a, ast.Attribute) and a.attr == "T" for a in node.right.args))


def _is_ladder_order(node):
    """A comprehension over zip(v, v[1:]) that compares each pair as it
    stands, with no tolerance: the order of an epsilon ladder."""
    if not isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        return False
    it, elt = node.generators[0].iter, node.elt
    return (isinstance(it, ast.Call) and getattr(it.func, "id", None) == "zip"
            and len(it.args) == 2 and isinstance(it.args[1], ast.Subscript)
            and isinstance(elt, ast.Compare) and isinstance(elt.left, ast.Name)
            and all(isinstance(c, ast.Name) for c in elt.comparators))


def _is_band_slack(node):
    """A comparison against <...eps...> -/+ 1e-12: an edge of the interior
    band that an eps-wide zero-extension layer misses."""
    return isinstance(node, ast.Compare) and any(
        isinstance(c, ast.BinOp) and isinstance(c.right, ast.Constant) and c.right.value == 1e-12
        and any(isinstance(n, ast.Name) and n.id.startswith("eps") for n in ast.walk(c.left))
        for c in node.comparators)


def test_each_rule_is_written_once():
    # the time-level test, the epsilon ladder's order and the interior band
    # each have one definition, which every other module calls
    found = {"level": set(), "ladder": set(), "band": set()}
    for path in sorted((ROOT / "src" / "hjblab").glob("*.py")):
        tree = ast.parse(path.read_text())
        for rule, match in (("level", _is_level_tolerance), ("ladder", _is_ladder_order),
                            ("band", _is_band_slack)):
            found[rule] |= {f"{path.name}:{scope}" for scope in _scopes(tree, match)}
    assert found == {"level": {"grids.py:Grid.level_index"},
                     "ladder": {"mollify.py:strictly_decreasing"},
                     "band": {"mollify.py:interior_mask"}}


# the report fields that hold a check's verdict
VERDICT_FIELDS = {"gap_pass", "mc_pass", "liminf_pass", "countable_pass", "monotone_pass",
                  "eps_pass", "open_loop_pass"}


def test_each_verdict_is_read_once():
    # a report's checks() is the one reader of its verdict fields: the CLI
    # and the selftest read checks(), never the fields
    readers = set()
    for path in sorted((ROOT / "src" / "hjblab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in VERDICT_FIELDS):
                readers.add(path.name)
    assert readers == {"experiments.py"}


ARRAY_BUILDERS = {"array", "asarray", "asanyarray", "ascontiguousarray", "fromiter"}


def _builds_array_from_dx(node):
    """An np.array-like call on an expression that reads ``.dx``: the per-axis
    spacing made an array, which a kernel then broadcasts along a length-dim
    axis, one short inner loop per node."""
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
            and func.attr in ARRAY_BUILDERS and isinstance(func.value, ast.Name)
            and func.value.id == "np" and any(
                isinstance(n, ast.Attribute) and n.attr == "dx"
                for arg in node.args for n in ast.walk(arg)))


def test_no_array_is_built_from_the_spacing():
    # kernels take dx[k] one axis at a time, a scalar
    assert all(_builds_array_from_dx(ast.parse(code).body[0].value)
               for code in ("np.array(grid.dx)", "np.asarray(g.dx)", "np.array(list(grid.dx))"))
    found = set()
    for path in sorted((ROOT / "src" / "hjblab").glob("*.py")):
        found |= {f"{path.name}:{scope}" for scope in _scopes(ast.parse(path.read_text()),
                                                               _builds_array_from_dx)}
    assert found == set()
