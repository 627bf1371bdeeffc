import numpy as np
import pytest

from hjblab import mollify
from hjblab.coefficients import (
    make_constant_drift,
    make_counterexample,
    make_smooth_baseline,
    make_step_drift,
    sample_to_grid,
)
from hjblab.grids import build_grid, spatial_gradient
from hjblab.mollify import (
    MollifierKernel,
    MollifyError,
    _kernel_constants,
    _stencil,
    coefficient_ladder,
    interior_mask,
    kernel_normalization_error,
    kernel_value,
    mollify_field,
)


def _const(g, value):
    return np.full((g.n_levels,) + g.space_shape, float(value))


def _sample(g, fn):
    """fn(t, X) at every node, stacked over the time levels."""
    return np.stack([np.asarray(fn(t, g.points()), dtype=float) for t in g.times()])


# (Z, G / Z, M / Z) from adaptive quadrature (scipy.integrate.quad, limit=200)
QUAD_CONSTANTS = {
    1: (0.4665123931783276, 2.9899478159838386, 0.30096296595550287),
    2: (0.4410888872765992, 4.230552223237379, 0.2763726731469139),
}


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_constants_match_adaptive_quadrature(dim):
    for value, reference in zip(_kernel_constants(dim), QUAD_CONSTANTS[dim]):
        assert value == pytest.approx(reference, rel=1e-13, abs=0.0)


def test_kernel_support_and_positivity():
    k = MollifierKernel(0.25, dim=1)
    assert kernel_value(k, 0.25, 0.0) == 0.0
    assert kernel_value(k, 0.0, [0.25]) == 0.0
    assert kernel_value(k, 0.3, [0.3]) == 0.0
    assert kernel_value(k, 0.0, [0.0]) > 0.0
    assert kernel_value(k, 0.1, [-0.1]) > 0.0


@pytest.mark.parametrize("eps", [1.0, 0.4, 0.1, 0.01])
def test_kernel_normalization(eps):
    assert kernel_normalization_error(MollifierKernel(eps, dim=1)) <= 1e-8


def test_kernel_normalization_2d():
    assert kernel_normalization_error(MollifierKernel(0.2, dim=2)) <= 1e-8


def test_kernel_scaling_identity():
    z0 = kernel_value(MollifierKernel(1.0, dim=1), 0.0, [0.0])
    for eps in (0.5, 0.2):
        k = MollifierKernel(eps, dim=1)
        assert kernel_value(k, 0.0, [0.0]) == pytest.approx(eps ** -2 * z0, rel=1e-12)


def test_kernel_rejects_bad_eps():
    with pytest.raises(MollifyError):
        MollifierKernel(0.0, dim=1)
    with pytest.raises(MollifyError):
        MollifierKernel(0.1, dim=3)


def test_mollify_constant_interior_exact():
    g = build_grid("torus", 1, 1.0, 32, 1.0, 64)
    c = 2.5
    out = mollify_field(_const(g, c), MollifierKernel(0.1, dim=1), g)
    tt = g.times()
    band = (tt >= 0.1) & (tt <= 0.9)
    # renormalized weights reproduce constants exactly away from the time ends
    assert np.max(np.abs(out[band] - c)) < 1e-12


def test_mollify_step_half_at_jump():
    # the deviation from 1/2 scales like the dx-wide jump column mass ~ dx/eps
    g = build_grid("box", 1, (-1.0, 1.0), 513, 1.0, 64)  # node exactly at 0
    step = _sample(g, lambda t, X: (X[..., 0] > 0).astype(float))
    out = mollify_field(step, MollifierKernel(0.1, dim=1), g)
    i0 = 256
    assert g.space_axis(0)[i0] == 0.0
    assert out[32, i0] == pytest.approx(0.5, abs=0.03)


def test_mollify_washes_out_counterexample_diagonal():
    g = build_grid("torus", 1, (-0.5, 0.5), 512, 1.0, 64)
    ce = make_counterexample(g)
    a = g.space_axis(0)[256]  # an actual node: b(., a) vanishes exactly there
    bf, _ = sample_to_grid(ce, g, a)
    raw = bf[..., 0]
    assert raw[0, 256] == 0.0
    out = mollify_field(bf, MollifierKernel(0.1, dim=1), g)
    # the null set {x = a} is washed out up to its dx-wide discrete column
    assert out[32, 256, 0] == pytest.approx(1.0, abs=0.03)


def test_mollify_warns_underresolved():
    g = build_grid("torus", 1, 1.0, 8, 1.0, 8)
    with pytest.warns(UserWarning):
        mollify_field(_const(g, 1.0), MollifierKernel(0.05, dim=1), g)


def test_domination_transfer():
    g = build_grid("torus", 1, (-1.0, 1.0), 64, 1.0, 64)
    oracle = make_step_drift(g, c=1.0)
    bf, ff = sample_to_grid(oracle, g, 1.0)
    phi = _sample(g, lambda t, X: oracle.bound(t, X))
    kernel = MollifierKernel(0.15, dim=1)
    f_eps = mollify_field(ff, kernel, g)
    phi_eps = mollify_field(phi, kernel, g)
    assert np.max(np.abs(f_eps)) <= np.max(np.abs(ff)) + 1e-12
    tt = g.times()
    band = (tt >= 0.15) & (tt <= 1.0 - 0.15)
    # |f_eps| <= (zeta_eps * Phi) pointwise on the time interior
    b_eps = mollify_field(bf, kernel, g)
    mag = np.abs(b_eps[band][..., 0]) + np.abs(f_eps[band])
    assert np.all(mag <= phi_eps[band] + 1e-10)


def test_mass_preserved_on_interior_band():
    g = build_grid("torus", 1, (-1.0, 1.0), 64, 1.0, 64)
    # time-constant field: torus shifts preserve the space integral exactly
    f = _sample(g, lambda t, X: np.sign(X[..., 0]) + 0.3)
    kernel = MollifierKernel(0.2, dim=1)
    out = mollify_field(f, kernel, g)
    tt = g.times()
    band = (tt >= 0.2) & (tt <= 0.8)
    w = g.space_weights()
    raw_int = np.sum(f[band] * w)
    out_int = np.sum(out[band] * w)
    assert out_int == pytest.approx(raw_int, abs=1e-10)


def test_gradient_bound_proxy():
    g = build_grid("torus", 1, (-1.0, 1.0), 128, 1.0, 64)
    oracle = make_step_drift(g, c=1.0)
    bf, _ = sample_to_grid(oracle, g, 1.0)
    kernel = MollifierKernel(0.1, dim=1)
    out = mollify_field(bf, kernel, g)
    grad = spatial_gradient(out[..., 0], g)
    bound = kernel.grad_l1 / kernel.epsilon * np.max(np.abs(bf))
    assert np.max(np.abs(grad)) <= bound + 1e-10


def test_ladder_rates_and_monotonicity():
    g = build_grid("torus", 1, (-1.0, 1.0), 64, 1.0, 64)
    smooth = make_smooth_baseline(g)
    lad = coefficient_ladder(smooth, 1.0, g, [0.4, 0.2, 0.1])
    d = lad.distances()
    assert all(b <= a + 1e-10 for a, b in zip(d, d[1:]))
    # smooth data: O(eps^2) decay, ratio near 4 per halving
    assert d[0] / d[1] > 2.5
    assert d[1] / d[2] > 2.5

    step = make_step_drift(g, c=1.0)
    lad2 = coefficient_ladder(step, 1.0, g, [0.4, 0.2, 0.1])
    d2 = lad2.distances()
    assert all(b < a for a, b in zip(d2, d2[1:]))


def test_ladder_constant_drift_component():
    g = build_grid("torus", 1, (-1.0, 1.0), 32, 1.0, 32)
    oracle = make_constant_drift(g, c=1.0)
    lad = coefficient_ladder(oracle, 1.0, g, [0.3, 0.15])
    for rung in lad.rungs:
        assert rung.lp_distance_b <= 1e-8  # constants are reproduced exactly


def test_ladder_requires_decreasing():
    g = build_grid("torus", 1, 1.0, 16, 1.0, 16)
    oracle = make_constant_drift(g, c=1.0)
    with pytest.raises(MollifyError):
        coefficient_ladder(oracle, 1.0, g, [0.1, 0.2])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("eps", [0.25, 0.3])
def test_interior_mask_drops_the_eps_layers_of_a_box(dim, eps):
    # a node is dropped when it lies within eps of t = 0, of t = T or of a
    # box edge; one exactly eps away (0.25 is a whole number of steps) stays
    g = build_grid("box", dim, (-1.0, 1.0), 9, 1.0, 8)
    X = g.points()
    expect = np.zeros((g.n_levels,) + g.space_shape, dtype=bool)
    time_only = np.zeros_like(expect)
    for n, t in enumerate(g.times()):
        for node in np.ndindex(g.space_shape):
            in_time = min(t, g.T - t) >= eps - 1e-12
            in_space = all(min(X[node][k] - lo, hi - X[node][k]) >= eps - 1e-12
                           for k, (lo, hi) in enumerate(g.extent))
            expect[(n,) + node] = in_time and in_space
            time_only[(n,) + node] = in_time
    assert np.array_equal(interior_mask(g, eps), expect)
    assert expect.any() and not expect.all()
    # the coefficient ladder's band, and a torus, inset time alone
    assert np.array_equal(interior_mask(g, eps, space=False), time_only)
    torus = build_grid("torus", dim, (-1.0, 1.0), 9, 1.0, 8)
    assert np.array_equal(interior_mask(torus, eps), time_only)


def test_mollify_2d_constant_interior():
    g = build_grid("torus", 2, 1.0, 16, 1.0, 16)
    out = mollify_field(_const(g, 3.0), MollifierKernel(0.2, dim=2), g)
    tt = g.times()
    band = (tt >= 0.2) & (tt <= 0.8)
    assert np.max(np.abs(out[band] - 3.0)) < 1e-12


def test_mollify_2d_step_plane():
    g = build_grid("box", 2, (-1.0, 1.0), 65, 1.0, 16)
    step = _sample(g, lambda t, X: (X[..., 0] > 0).astype(float))
    out = mollify_field(step, MollifierKernel(0.2, dim=2), g)
    # jump-plane value is 1/2 up to the dx-wide column mass ~ dx / eps
    assert out[8, 32, 32] == pytest.approx(0.5, abs=0.1)


def test_ladder_csv_format(tmp_path):
    g = build_grid("torus", 1, (-1.0, 1.0), 32, 1.0, 32)
    lad = coefficient_ladder(make_step_drift(g, c=1.0), 1.0, g, [0.3, 0.15])
    path = tmp_path / "ladder.csv"
    lad.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "epsilon,lp_distance,sup_norm"
    assert len(lines) == 3


def _mollify_by_loops(values, kernel, grid):
    """zeta_eps * values by a loop over nodes and stencil offsets: zero
    outside [0, T] in time, wrapped on torus axes, zero off a box."""
    weights, radii = _stencil(kernel, grid)
    out = np.zeros_like(values)
    for node in np.ndindex(values.shape[:1 + grid.dim]):
        for loc in np.ndindex(weights.shape):
            src = [i - (k - r) for i, k, r in zip(node, loc, radii)]
            if not 0 <= src[0] < grid.n_levels:
                continue
            if grid.domain_kind == "torus":
                src[1:] = [j % n for j, n in zip(src[1:], grid.nx)]
            elif not all(0 <= j < n for j, n in zip(src[1:], grid.nx)):
                continue
            out[node] += weights[loc] * values[tuple(src)]
    return out


@pytest.mark.parametrize("kind,dim,eps,components", [
    ("box", 1, 0.3, None),   # the zero-extension layer reaches 3 nodes into the box
    ("box", 2, 0.6, 2),      # a vector field, zero-extended off both space axes
    ("torus", 1, 0.6, None),  # radius 4 on 8 nodes: the stencil wraps past itself
    ("torus", 2, 0.3, 2),    # a vector field, wrapped on both axes
])
def test_mollify_matches_direct_loops(kind, dim, eps, components):
    g = build_grid(kind, dim, (-1.0, 1.0) if kind == "box" else 1.0,
                   21 if (kind, dim) == ("box", 1) else 8, 1.0, 16 if dim == 1 else 8)
    rng = np.random.default_rng(5)
    values = rng.normal(size=(g.n_levels,) + g.space_shape + ((components,) if components else ()))
    kernel = MollifierKernel(eps, dim=dim)
    out = mollify_field(values, kernel, g)
    assert np.max(np.abs(out - _mollify_by_loops(values, kernel, g))) < 1e-14


@pytest.mark.parametrize("kind,dim", [("box", 1), ("torus", 2)])
def test_mollify_samples_one_field_call_matches_per_action(kind, dim, monkeypatch):
    # B and F of every action go through one mollify_field call (one kernel
    # transform), and each table equals its own mollify_field
    g = build_grid(kind, dim, (-1.0, 1.0), 16 if dim == 1 else 8, 1.0, 16)
    rng = np.random.default_rng(11)
    B = rng.normal(size=(3, g.n_levels) + g.space_shape + (dim,))
    F = rng.normal(size=(3, g.n_levels) + g.space_shape)
    kernel = MollifierKernel(0.3, dim=dim)
    expected = [(mollify_field(B[i], kernel, g), mollify_field(F[i], kernel, g)) for i in range(3)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return mollify_field(*args, **kwargs)

    monkeypatch.setattr(mollify, "mollify_field", counted)
    B_eps, F_eps = mollify.mollify_samples(B, F, kernel, g)
    assert len(calls) == 1
    assert B_eps.shape == B.shape and F_eps.shape == F.shape
    for i, (b, f) in enumerate(expected):
        assert np.max(np.abs(B_eps[i] - b)) < 1e-14
        assert np.max(np.abs(F_eps[i] - f)) < 1e-14
