import numpy as np
import pytest

from rdcertify.mesh import Grid, as_field, integrate, sup_norm


def laplacian(f, grid):
    """Reference three-point Laplacian with reflected ghost nodes
    (ghost[-1] = f[1], ghost[n] = f[n-2]), the stencil the diffusion
    solve's matrix mirrors."""
    ghosted = np.concatenate(([f[1]], f, [f[-2]]))
    return (ghosted[:-2] - 2.0 * f + ghosted[2:]) / grid.spacing ** 2


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(2, 1.0)
    with pytest.raises(ValueError):
        Grid(5, 0.0)
    g = Grid(5, 1.0)
    assert g.spacing == 0.25
    assert np.allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_as_field_size_mismatch():
    g = Grid(5, 1.0)
    with pytest.raises(ValueError):
        as_field(np.zeros(4), g)


def test_laplacian_constant_is_zero():
    g = Grid(11, 2.0)
    lap = laplacian(np.full(11, 3.7), g)
    assert np.array_equal(lap, np.zeros(11))


def test_laplacian_linear_ramp():
    # interior of a ramp vanishes; reflected endpoints see +-2/h
    g = Grid(5, 1.0)
    lap = laplacian(g.nodes(), g)
    h = g.spacing
    assert np.allclose(lap[1:-1], 0.0, atol=1e-12)
    assert lap[0] == pytest.approx(2.0 / h)
    assert lap[-1] == pytest.approx(-2.0 / h)


def test_laplacian_cosine_second_derivative():
    # analytic second derivative of cos(pi x) as the oracle
    g = Grid(101, 1.0)
    x = g.nodes()
    f = np.cos(np.pi * x)
    err = np.max(np.abs(laplacian(f, g) + np.pi ** 2 * f))
    # second-order stencil: error ~ pi^4 h^2 / 12 ~ 8.2e-4
    assert err < 1e-3
    g2 = Grid(201, 1.0)
    f2 = np.cos(np.pi * g2.nodes())
    err2 = np.max(np.abs(laplacian(f2, g2) + np.pi ** 2 * f2))
    assert err2 < err / 3.5


def test_sup_norm():
    assert sup_norm(np.zeros(4)) == 0.0
    assert sup_norm(np.array([-3.0, 1.0, 2.0])) == 3.0
    assert sup_norm(np.array([0.5, 0.5])) == 0.5


@pytest.mark.parametrize("values", [
    [np.inf, 1.0], [1.0, -np.inf], [np.nan, 1.0], [1.0, np.nan, np.inf],
    [-0.0], [-0.0, 0.0], [0.0, -0.0], [[1.0, -5.0], [2.0, np.nan]],
    [5e-324, -1e308], 2.5])
def test_sup_norm_matches_np_max(values):
    # the ufunc reduction gives the bits of np.max(np.abs(.)): max is
    # exact, nan propagates and -0.0 comes back as 0.0
    want = float(np.max(np.abs(np.asarray(values, dtype=float))))
    got = sup_norm(values)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    with pytest.raises(ValueError):
        sup_norm(np.array([]))


def test_integrate_constant_and_linear():
    g = Grid(17, 1.0)
    assert integrate(np.ones(17), g) == pytest.approx(1.0, abs=1e-15)
    # trapezoid is exact on linears
    for n in (3, 7, 64):
        gn = Grid(n, 1.0)
        assert integrate(gn.nodes(), gn) == pytest.approx(0.5, abs=1e-14)


def test_integrate_cosine():
    g = Grid(101, 1.0)
    val = integrate(np.cos(np.pi * g.nodes()), g)
    assert abs(val) < 1e-4


def test_trapezoid_weights():
    # the integral of the j-th unit vector is the j-th quadrature weight
    g = Grid(5, 1.0)
    w = np.array([integrate(e, g) for e in np.eye(5)])
    assert np.array_equal(w, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert w.sum() == pytest.approx(g.length)


def test_discrete_flux_balance():
    # trapezoid-weighted sum of any Laplacian vanishes to round-off
    rng = np.random.default_rng(42)
    for n, length in ((11, 1.0), (64, 2.5), (201, 0.3)):
        g = Grid(n, length)
        f = rng.normal(size=n)
        lap = laplacian(f, g)
        tol = 1e-9 * max(1.0, sup_norm(lap))
        assert abs(integrate(lap, g)) < tol


def test_laplacian_linearity():
    rng = np.random.default_rng(7)
    g = Grid(33, 1.7)
    f1 = rng.normal(size=33)
    f2 = rng.normal(size=33)
    a, b = 2.5, -1.25
    lhs = laplacian(a * f1 + b * f2, g)
    rhs = a * laplacian(f1, g) + b * laplacian(f2, g)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-9)


def test_integrate_monotone():
    rng = np.random.default_rng(11)
    g = Grid(41, 1.0)
    f = rng.normal(size=41)
    gfield = f + rng.uniform(0.0, 1.0, size=41)
    assert integrate(f, g) <= integrate(gfield, g)
