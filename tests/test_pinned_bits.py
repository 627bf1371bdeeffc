"""Bit-for-bit pins of the solvers: float.hex values of a few nodes and one
residual entry, taken from earlier versions of the solvers (the per-level
solvers that preceded the hoisted assembly; for frozen torus-1d central and
torus-2d upwind, the hoisted solver), and of policy iteration's value and
trace.  The frozen box solves carry Dirichlet data and are pinned at the
lifted solver, within 2 ulps per value entry of the edge-row solver before
it; the direct march takes no data, and its box pins are zero-data values of
the edge-row solver.  Restructuring the backward march must leave every
floating-point operation of every node as it was."""

from pathlib import Path

import numpy as np
import pytest

from hjblab.coefficients import bang_bang_actions, make_bang_bang
from hjblab.config import load_config
from hjblab.grids import build_grid
from hjblab.hjb import policy_iteration, solve_hjb_tables
from hjblab.parabolic import pde_residual, solve_frozen

# (solver, kind, dim, advection): U[0, N//2 + 1], U[0, 1], U[3, N - 2],
# U[5, N//3] and the residual at [2, N//2 + 1], N nodes per level
PINNED = {
    ("frozen", "torus", 1, "upwind"):
        ["0x1.f46da8175486bp-3", "0x1.e9bda6d0ba07dp-3", "0x1.c3f92ee1acb61p-4",
         "0x1.9815c39908e5ep-5", "0x1.e000000000000p-50"],
    ("frozen", "torus", 1, "central"):
        ["0x1.f690a29f0b588p-3", "0x1.e99ea0375101ep-3", "0x1.c19b643485ce8p-4",
         "0x1.9db5b2d66eda9p-5", "0x1.8000000000000p-52"],
    ("frozen", "box", 1, "central"):
        ["0x1.939319cf4e7e6p-1", "0x1.f00737d988d58p-1", "0x1.ce56747eaa044p-1",
         "0x1.f5850d1cb246bp-3", "0x1.e000000000000p-48"],
    ("frozen", "box", 1, "upwind"):
        ["0x1.a7b143cfa027fp-1", "0x1.f35c7682649e5p-1", "0x1.d5afcadb6c5b3p-1",
         "0x1.0462d812b0e7dp-2", "-0x1.2000000000000p-47"],
    ("frozen", "torus", 2, "central"):
        ["0x1.f855dd27232b4p-3", "0x1.fd05fd5bd762ap-3", "0x1.0870907b99441p-3",
         "0x1.5226da79171bdp-5", "-0x1.6800000000000p-48"],
    ("frozen", "torus", 2, "upwind"):
        ["0x1.f8d2e091ee32ap-3", "0x1.fd1602f29a8ddp-3", "0x1.0765223932486p-3",
         "0x1.5429cc45ea621p-5", "0x1.8000000000000p-49"],
    ("frozen", "box", 2, "upwind"):
        ["0x1.17186d0ac1c3fp+0", "0x1.71c71c71c71c8p+0", "0x1.91c71c71c71c6p+0",
         "0x1.9d1781215f8d9p-2", "-0x1.5000000000000p-46"],
    ("frozen", "box", 2, "central"):
        ["0x1.123750b2536a8p+0", "0x1.71c71c71c71c8p+0", "0x1.91c71c71c71c6p+0",
         "0x1.6adbf6978bbd4p-2", "-0x1.e000000000000p-48"],
    ("march", "torus", 1, "upwind"):
        ["0x1.19a2f805d3d1ep-3", "0x1.f675021ce99bep-4", "0x1.bd0f01b66b338p-5",
         "0x1.0c5fa540644f3p-5", "0x1.24584a5d156d4p-4"],
    ("march", "box", 1, "central"):
        ["0x1.81051a81229d5p-4", "0x1.ae4ccdd83d05cp-6", "0x1.85bdc1a9b48e4p-7",
         "0x1.05cd11590a6edp-5", "0x1.c1b02ee6964d0p-4"],
    ("march", "torus", 2, "central"):
        ["0x1.cf3f3c626c17cp-4", "0x1.d3ccfb1580ad8p-4", "0x1.0191c7810b068p-4",
         "0x1.a6e9fe7d1c899p-7", "0x1.d91e79d1203bcp-5"],
    ("march", "box", 2, "upwind"):
        ["0x1.68bf59f1ead7bp-5", "0x0.0p+0", "0x0.0p+0",
         "0x1.f645a5295bf3dp-8", "0x1.4c678e0a8191cp-5"],
}


def _dirichlet(t, X):
    return 0.5 * t + np.sum(X * X, axis=-1)


# the same nodes on a 2d grid whose axes differ, extent [-1, 1] x [-2, 2] at
# 12 x 9 nodes, taken from the solvers that built every axis's bands and dot
# products with the spacing an array broadcast along the last axis
UNEQUAL_AXES = {
    ("frozen", "box", 2, "central"):
        ["0x1.885b715f8c64dp+1", "0x1.a000000000000p+1", "0x1.b000000000000p+1",
         "0x1.1217fa5bae316p+2", "-0x1.2000000000000p-45"],
    ("frozen", "torus", 2, "upwind"):
        ["0x1.d470f2bdd8ccap-3", "0x1.e4d0495e85de0p-3", "0x1.e91b731bc7185p-4",
         "0x1.0fee74836769cp-5", "-0x1.8000000000000p-49"],
    ("march", "torus", 2, "central"):
        ["0x1.d83f656a4e46fp-4", "0x1.d98bfdfda08aep-4", "0x1.0ff7311b678e9p-4",
         "0x1.f8e7e8779f3fap-7", "0x1.7ba82e16ddabep-1"],
    ("march", "box", 2, "upwind"):
        ["0x1.4b145df4c3717p-5", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x1.cb6b67e781ef1p+0"],
}


def _pinned_nodes(case, grid):
    """float.hex of the pinned nodes of ``case``'s solve on ``grid``."""
    solver, kind, dim, advection = case
    rng = np.random.default_rng(2024)
    B = rng.uniform(-2.0, 2.0, size=(3, grid.n_levels) + grid.space_shape + (dim,))
    F = rng.uniform(0.0, 1.0, size=(3, grid.n_levels) + grid.space_shape)
    if solver == "frozen":
        g = _dirichlet if kind == "box" else None
        U = solve_frozen(B[0], F[0], grid, g, advection).values
        res = pde_residual(U, B[0], F[0], grid, advection)
    else:
        U = solve_hjb_tables(B, F, grid, scheme=advection).values
        res = pde_residual(U, B[1], F[1], grid, advection)
    N = int(np.prod(grid.space_shape))
    U, res = U.reshape(grid.n_levels, N), res.reshape(grid.nt, N)
    got = [U[0, N // 2 + 1], U[0, 1], U[3, N - 2], U[5, N // 3], res[2, N // 2 + 1]]
    return [float(v).hex() for v in got]


@pytest.mark.parametrize("case", list(PINNED), ids=["-".join(map(str, c)) for c in PINNED])
def test_solvers_are_bit_identical_to_the_pinned_values(case):
    kind, dim = case[1:3]
    grid = build_grid(kind, dim, (-1.0, 1.0), 11 if dim == 1 else 7, 0.5, 6)
    assert _pinned_nodes(case, grid) == PINNED[case]


@pytest.mark.parametrize("case", list(UNEQUAL_AXES),
                         ids=["-".join(map(str, c)) for c in UNEQUAL_AXES])
def test_solvers_on_unequal_axes_are_bit_identical_to_the_pinned_values(case):
    grid = build_grid(case[1], 2, [[-1.0, 1.0], [-2.0, 2.0]], [12, 9], 0.5, 6)
    assert _pinned_nodes(case, grid) == UNEQUAL_AXES[case]


# policy iteration: the value at (level, flat node) pairs, and the whole trace,
# taken from the iteration that solved every policy it froze, the repeated
# last one included, and took each solution's residual
PI_PINNED = {
    "bang_bang_2d": {
        "nodes": [(0, 0), (0, 289), (0, 573), (24, 192)],
        "values": ["0x1.5d0ffafce8fbcp-1", "0x1.32a0b86f7ba2ap-1", "0x1.575bf954aff44p-1",
                   "0x1.4819c00a78879p-2"],
        "policy_changes": [28224, 13920, 2064, 0],
        "sup_changes": ["0x1.80c794c4521afp-1", "0x1.4f40ea24ac7c8p-4", "0x1.75383770fe800p-9",
                        "0x0.0p+0"],
        "max_pos_diffs": ["0x1.80c794c4521afp-1", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
        "residuals": ["0x1.d8bb4a8635760p-3", "0x1.b36eccbb8eb00p-5", "0x1.a400000000000p-41",
                      "0x1.a400000000000p-41"],
    },
    "box_1d": {
        "nodes": [(0, 1), (0, 7), (0, 15), (10, 4)],
        "values": ["0x1.41700901f7ecfp-6", "0x1.89ef8b0383d07p-5", "0x1.8f8011b6e8be5p-5",
                   "0x1.22fa561fb683bp-5"],
        "policy_changes": [441, 201, 27, 11, 1, 0],
        "sup_changes": ["0x1.d54e1ddf57ff7p-5", "0x1.4264e95aafec4p-7", "0x1.593f01dc3fc00p-13",
                        "0x1.8000000000000p-56", "0x1.0000000000000p-56", "0x0.0p+0"],
        "max_pos_diffs": ["0x1.d54e1ddf57ff7p-5", "0x0.0p+0", "0x1.0000000000000p-59",
                          "0x1.8000000000000p-56", "0x1.0000000000000p-58", "0x0.0p+0"],
        "residuals": ["0x1.b20393a6fa7e4p-2", "0x1.ce7985febc7a0p-7", "0x1.9000000000000p-49",
                      "0x1.9000000000000p-49", "0x1.9000000000000p-49", "0x1.9000000000000p-49"],
    },
}


def _pi_run(name):
    """Policy iteration on the pde_2d benchmark's 2d torus config, or on the
    bang-bang drift of a 1d box at 21 nodes x 20 steps, upwind."""
    if name == "bang_bang_2d":
        cfg = load_config(Path(__file__).resolve().parent.parent / "bench" / "inputs"
                          / "bang_bang_2d.cfg")
        return policy_iteration(cfg.build_oracle(), cfg.build_action_set(), cfg.grid,
                                scheme=cfg.scheme, tol=cfg.tol)
    grid = build_grid("box", 1, (-1.0, 1.0), 21, 0.5, 20)
    return policy_iteration(make_bang_bang(grid), bang_bang_actions(), grid, scheme="upwind")


@pytest.mark.parametrize("name", list(PI_PINNED))
def test_policy_iteration_is_bit_identical_to_the_pinned_values(name):
    pin = PI_PINNED[name]
    u, _, trace = _pi_run(name)
    values = u.values.reshape(u.grid.n_levels, -1)
    assert [float(values[n, m]).hex() for n, m in pin["nodes"]] == pin["values"]
    assert trace.converged and trace.iterations == len(pin["policy_changes"])
    assert trace.policy_changes == pin["policy_changes"]
    for key in ("sup_changes", "max_pos_diffs", "residuals"):
        assert [v.hex() for v in getattr(trace, key)] == pin[key]
