"""The package's exported names, pinned so that a removal or a new export
is a deliberate edit of this list."""

import os
import subprocess
import sys
import types

import hjblab

EXPORTS = {
    # grids
    "BoundaryCondition", "Grid", "SpaceTimeField", "build_grid", "constant_field",
    "default_boundary", "dirichlet_boundary", "field_from_csv", "field_from_function",
    "field_to_csv", "lp_norm", "periodic_boundary", "spatial_gradient",
    # coefficients
    "ActionFamily", "ActionSet", "CoefficientOracle", "bang_bang_actions",
    "bang_bang_family", "catalog_names", "eval_coeff", "make_oracle", "make_tabulated",
    "sample_to_grid", "verify_bound",
    # mollify
    "MollifierKernel", "coefficient_ladder", "kernel_normalization_error", "kernel_value",
    "mollify_field",
    # parabolic
    "ParabolicScheme", "convergence_order", "default_scheme", "pde_residual", "solve_frozen",
    # hamiltonian
    "Policy", "SlackSchedule", "constant_policy",
    # hjb
    "IterationTrace", "hjb_residual", "policy_iteration", "solve_hjb_direct",
    "solve_hjb_tables", "solve_policy_value",
    # montecarlo
    "FeedbackRule", "GridPolicyControl", "MCEstimate", "OpenLoopControl", "SimConfig",
    "constant_control", "cost_bound_check", "dpp_residual", "simulate_cost", "value_at",
    # experiments
    "counterexample_report", "countable_truncation_study", "dpp_battery",
    "mollify_value_sweep", "verification_check",
}


def test_exported_names():
    exported = {name for name, value in vars(hjblab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTS
    assert hjblab.__version__ == "0.1.0"


def test_cli_import_leaves_out_scipy_integrate():
    src = os.path.dirname(os.path.dirname(hjblab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, hjblab.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
