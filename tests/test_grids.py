import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjblab.grids import (
    FieldError,
    GridError,
    SpaceTimeField,
    build_grid,
    field_from_csv,
    field_to_csv,
    gradient_pair,
    lp_norm,
    spatial_gradient,
    write_csv,
)
from hjblab.parabolic import solve_frozen


def _const(g, value):
    return np.full((g.n_levels,) + g.space_shape, float(value))


def _sample(g, fn):
    """fn(t, X) at every node, stacked over the time levels."""
    return np.stack([np.asarray(fn(t, g.points()), dtype=float) for t in g.times()])


def test_build_grid_torus_spacing():
    g = build_grid("torus", 1, 1.0, 8, 1.0, 4)
    assert g.dx == (0.125,)
    assert g.dt == 0.25
    assert g.n_levels == 5


def test_build_grid_box_spacing():
    g = build_grid("box", 1, (-6.0, 6.0), 241, 1.0, 512)
    assert g.dx[0] == pytest.approx(0.05, abs=1e-15)
    assert g.dt == pytest.approx(1.0 / 512, abs=1e-18)
    ax = g.space_axis(0)
    assert ax[0] == -6.0 and ax[-1] == 6.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(domain_kind="torus", dim=1, extent=1.0, nx=0, T=1.0, nt=4),
        dict(domain_kind="torus", dim=1, extent=1.0, nx=8, T=1.0, nt=0),
        dict(domain_kind="box", dim=1, extent=(0.0, 1.0), nx=8, T=-1.0, nt=4),
        dict(domain_kind="box", dim=1, extent=(1.0, 1.0), nx=8, T=1.0, nt=4),
        dict(domain_kind="cylinder", dim=1, extent=1.0, nx=8, T=1.0, nt=4),
        dict(domain_kind="torus", dim=3, extent=1.0, nx=8, T=1.0, nt=4),
    ],
)
def test_build_grid_rejects(kwargs):
    with pytest.raises(GridError):
        build_grid(**kwargs)


def test_lp_norm_constant_unit_measure():
    g = build_grid("torus", 1, 1.0, 16, 1.0, 8)
    f = _const(g, 1.0)
    for p in (1, 2, 3.7, np.inf):
        assert lp_norm(f, p, g) == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_quadrature_consistency():
    # constant c over a cylinder of measure m gives c * m^(1/p)
    g = build_grid("box", 2, [(0.0, 2.0), (0.0, 3.0)], [21, 31], 0.5, 4)
    c = 1.7
    f = _const(g, c)
    m = 2.0 * 3.0 * 0.5
    for p in (1, 2, 5):
        assert lp_norm(f, p, g) == pytest.approx(c * m ** (1 / p), rel=1e-12)


def test_lp_norm_linear_profile():
    g = build_grid("box", 1, (0.0, 1.0), 101, 1.0, 10)
    f = _sample(g, lambda t, X: X[..., 0])
    assert lp_norm(f, 2, g) == pytest.approx(3 ** -0.5, abs=2 * g.dx[0] ** 2)
    assert lp_norm(f, np.inf, g) == 1.0


def test_lp_norm_rejects_small_p():
    g = build_grid("torus", 1, 1.0, 8, 1.0, 2)
    with pytest.raises(FieldError):
        lp_norm(_const(g, 1.0), 0.5, g)


def test_norm_monotonicity():
    g = build_grid("torus", 1, 1.0, 32, 1.0, 8)
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = rng.normal(size=(g.n_levels,) + g.space_shape)
        growth = 1.0 + rng.uniform(0.0, 1.0, size=f.shape)
        gbig = f * growth
        for p in (1, 2, np.inf):
            assert lp_norm(f, p, g) <= lp_norm(gbig, p, g) + 1e-14


def test_gradient_constant_is_zero():
    g = build_grid("torus", 1, 1.0, 16, 1.0, 4)
    grad = spatial_gradient(_const(g, 3.0), g)
    assert np.all(grad == 0.0)


def test_gradient_affine_exact_on_box_interior():
    g = build_grid("box", 1, (0.0, 1.0), 33, 1.0, 2)
    f = _sample(g, lambda t, X: 2.0 * X[..., 0] + 1.0)
    grad = spatial_gradient(f, g)[..., 0]
    assert np.max(np.abs(grad[:, 1:-1] - 2.0)) < 1e-12
    # one-sided edges are exact for affine data too
    assert np.max(np.abs(grad - 2.0)) < 1e-12


def test_gradient_richardson_ratio():
    errs = []
    for nx in (64, 128):
        g = build_grid("torus", 1, 1.0, nx, 1.0, 2)
        f = _sample(g, lambda t, X: np.sin(2 * np.pi * X[..., 0]))
        grad = spatial_gradient(f, g)[0, :, 0]
        exact = 2 * np.pi * np.cos(2 * np.pi * g.space_axis(0))
        errs.append(np.max(np.abs(grad - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_gradient_pair_on_linear_field():
    g = build_grid("torus", 1, 1.0, 16, 1.0, 2)
    vals = np.tile(np.arange(16, dtype=float), (g.n_levels, 1))
    gp, gm = gradient_pair(vals, g)
    # interior forward and backward differences of an index ramp
    assert gp[0, 0, 0] == pytest.approx(1.0 / g.dx[0])
    assert gm[0, 1, 0] == pytest.approx(1.0 / g.dx[0])


def test_torus_translation_equivariance_bitwise():
    g = build_grid("torus", 1, 1.0, 32, 1.0, 4)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(g.n_levels,) + g.space_shape)
    f = vals
    rolled = np.roll(vals, 5, axis=1)
    # shifting by a full period is the identity: norms and gradients bit-equal
    full = np.roll(vals, g.nx[0], axis=1)
    assert np.array_equal(full, vals)
    for p in (1, 2, np.inf):
        assert lp_norm(f, p, g) == lp_norm(full, p, g)
    assert np.array_equal(spatial_gradient(f, g), spatial_gradient(full, g))
    # partial shifts commute with the stencil exactly and with norms to roundoff
    for p in (1, 2, np.inf):
        assert lp_norm(f, p, g) == pytest.approx(lp_norm(rolled, p, g), rel=1e-14)
    g1 = spatial_gradient(f, g)
    g2 = spatial_gradient(rolled, g)
    assert np.array_equal(np.roll(g1, 5, axis=1), g2)


def test_field_validation():
    g = build_grid("torus", 1, 1.0, 8, 1.0, 2)
    with pytest.raises(FieldError):
        SpaceTimeField(g, np.zeros((2, 8)))
    bad = np.zeros((3, 8))
    bad[0, 0] = np.nan
    with pytest.raises(FieldError):
        SpaceTimeField(g, bad)


def test_boundary_domain_compatibility():
    # Dirichlet data belongs to a box; a torus is periodic and takes none
    gt = build_grid("torus", 1, 1.0, 8, 1.0, 2)
    data = lambda t, X: np.zeros(X.shape[:-1])
    B = np.zeros((gt.n_levels,) + gt.space_shape + (1,))
    F = _const(gt, 1.0)
    with pytest.raises(GridError):
        solve_frozen(B, F, gt, data)


def test_csv_roundtrip(tmp_path):
    g = build_grid("box", 1, (0.0, 1.0), 9, 0.5, 3)
    f = SpaceTimeField(g, _sample(g, lambda t, X: t + X[..., 0] ** 2))
    path = tmp_path / "field.csv"
    field_to_csv(f, str(path))
    back = field_from_csv(g, str(path))
    assert np.array_equal(back.values, f.values)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,value"


def test_csv_header_2d():
    g = build_grid("torus", 2, 1.0, 4, 0.5, 2)
    f = SpaceTimeField(g, _const(g, 2.0))
    buf = io.StringIO()
    field_to_csv(f, buf)
    assert buf.getvalue().splitlines()[0] == "t,x,y,value"


def test_csv_golden_bytes():
    g1 = build_grid("box", 1, (0.0, 1.0), 2, 1.0, 1)
    buf = io.StringIO()
    field_to_csv(SpaceTimeField(g1, np.array([[0.1, 1e-05], [1e16, -0.0]])), buf)
    assert buf.getvalue() == (
        "t,x,value\n"
        "0.0,0.0,0.1\n"
        "0.0,1.0,1e-05\n"
        "1.0,0.0,1e+16\n"
        "1.0,1.0,-0.0\n"
    )
    g2 = build_grid("torus", 2, 1.0, 2, 0.5, 1)
    values = np.array([[[0.1, 1e-05], [1e16, -0.0]], [[-2.5, 3.0], [1e-300, 123456789.0]]])
    buf = io.StringIO()
    field_to_csv(SpaceTimeField(g2, values), buf)
    assert buf.getvalue() == (
        "t,x,y,value\n"
        "0.0,0.25,0.25,0.1\n"
        "0.0,0.25,0.75,1e-05\n"
        "0.0,0.75,0.25,1e+16\n"
        "0.0,0.75,0.75,-0.0\n"
        "0.5,0.25,0.25,-2.5\n"
        "0.5,0.25,0.75,3.0\n"
        "0.5,0.75,0.25,1e-300\n"
        "0.5,0.75,0.75,123456789.0\n"
    )
    buf = io.StringIO()
    write_csv(buf, ["k", "value"], [(1, 0.1), (2, -0.0), (3, 1e16)])
    assert buf.getvalue() == "k,value\n1,0.1\n2,-0.0\n3,1e+16\n"


@pytest.mark.parametrize("extent", [(-1.0, 1.0), (0.1, 0.7), (-0.3, 2.9), (0.0, 2 * np.pi)])
def test_wrap_stays_in_fundamental_domain(extent):
    lo, hi = extent
    L = hi - lo
    grid = build_grid("torus", 2, extent, 8, 1.0, 2)
    edge = np.array([hi, lo - 1e-300, -0.0, np.nextafter(hi, -np.inf), np.nextafter(lo, -np.inf),
                     lo + 1e6 * L, lo - 1e6 * L, hi + 3e15 * L, 1e300, -1e300])
    rng = np.random.default_rng(7)
    inner = rng.uniform(lo - L, hi + L, 20000)
    for x in (edge, inner):
        w = grid.wrap(np.stack([x, x[::-1]], axis=-1))
        assert np.all((w >= lo) & (w < hi))
    assert np.all(np.abs(grid.wrap(np.array([[hi, hi]])) - lo) <= np.spacing(L))
    # near the domain it agrees with lo + mod(x - lo, L) to 1 ulp of L, up to
    # the identification of lo with hi
    w = grid.wrap(np.stack([inner, inner], axis=-1))
    diff = np.abs(w - (lo + np.mod(inner - lo, L))[:, None])
    assert np.max(np.minimum(diff, L - diff)) <= np.spacing(L)


def _wrap_reference(grid, x):
    """The wrap formula with its fix-up run on every point (the reference)."""
    out = np.empty_like(x)
    for k, (lo, hi) in enumerate(grid.extent):
        r = np.floor((x[..., k] - lo) / (hi - lo)) * (lo - hi) + x[..., k]
        out[..., k] = np.where((r >= hi) | (r < lo), lo, r)
    return out


WRAP_EXTENTS = [(-1.0, 1.0), (0.1, 0.7), (-0.3, 2.9), (0.0, 2 * np.pi), (0.0, 1.0)]


@st.composite
def _torus_points(draw):
    """A torus and points on its edges, at -0.0, at large multiples of the
    period and anywhere in between, as (n, dim)."""
    dim = draw(st.sampled_from([1, 2]))
    lo, hi = draw(st.sampled_from(WRAP_EXTENTS))
    L = hi - lo
    special = st.sampled_from([hi, lo, -0.0, 0.0, np.nextafter(hi, -np.inf),
                               np.nextafter(lo, -np.inf), lo - 1e-300, hi + 1e-15])
    multiple = st.builds(lambda m, x: x + m * L, st.integers(-10**15, 10**15),
                         st.sampled_from([lo, hi, 0.5 * (lo + hi)]))
    value = st.one_of(special, multiple, st.floats(lo - 3 * L, hi + 3 * L),
                      st.floats(-1e300, 1e300))
    n = draw(st.integers(1, 12))
    x = np.array(draw(st.lists(value, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    return build_grid("torus", dim, (lo, hi), 8, 1.0, 2), x


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=_torus_points())
def test_wrap_into_a_buffer_equals_the_reference_bit_for_bit(case):
    grid, x = case
    expect = _wrap_reference(grid, x).tobytes()
    assert grid.wrap(x).tobytes() == expect
    buf = np.full_like(x, np.nan)
    assert grid.wrap(x, out=buf) is buf and buf.tobytes() == expect


def test_wrap_fixes_up_points_that_round_out():
    # -1e-300 lies one period down, and x + L rounds onto hi: the fix-up maps it to lo
    grid = build_grid("torus", 1, (0.0, 1.0), 8, 1.0, 2)
    x = np.array([[-1e-300], [0.5]])
    assert np.floor(x[0, 0]) * -1.0 + x[0, 0] == 1.0
    assert grid.wrap(x).tolist() == [[0.0], [0.5]]


@pytest.mark.parametrize("T, nt", [(1.0, 4), (0.5, 12), (2.0, 128), (3.7, 7), (1e-3, 10)])
def test_level_index_is_the_rounding_rule(T, nt):
    # the one test of "t lies on a time level", against its formula written
    # out: the nearest level, when t is within 1e-9 max(1, T) of it
    g = build_grid("torus", 1, 1.0, 8, T, nt)

    def reference(t):
        level = round(t / g.dt)
        return level if abs(level * g.dt - t) <= 1e-9 * max(1.0, T) else None

    on_levels = [0.0, T] + [n * g.dt for n in range(nt + 1)] + list(g.times())
    for t in on_levels:
        for shift in (0.0, 1e-10, -1e-10, 1e-8, -1e-8):
            assert g.level_index(t + shift * T) == reference(t + shift * T), (t, shift)
    assert g.level_index(0.0) == 0 and g.level_index(T) == nt
    assert g.level_index(T * (1 + 1e-10)) == nt
    assert g.level_index(1.5 * g.dt) is None
    # 1e-8 T off is off a level, unless it is below the 1e-9 floor (T < 0.1)
    assert (g.level_index(T * (1 + 1e-8)) is None) == (T > 0.1)
