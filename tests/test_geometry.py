import itertools
import math

import numpy as np
import pytest

from resonance_atlas.algebra import ReducedCoords
from resonance_atlas.errors import DomainError
from resonance_atlas.geometry import (
    F_critical,
    G_full,
    G_sphere,
    P_POINTS,
    RootTriple,
    SpherePoint,
    UNIT_NORM_TOL,
    check_unit_rows,
    f_surface,
    grad_F,
    hessian_F,
    normal_form_residual,
    param_phi,
    param_phi_array,
    phi_coeffs,
    psi,
    unit_point,
)
from resonance_atlas.linalg import PolyCoeffs

import oracles

TWO_PI = 2.0 * math.pi
SQRT_HALF = math.sqrt(0.5)


class TestSpherePoint:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            SpherePoint(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_unit_rows_follow_the_same_rule(self):
        good = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0]])
        check_unit_rows(good)
        for bad in ([1.0 + 2e-12, 0.0, 0.0, 0.0], [np.nan, 0.0, 1.0, 0.0]):
            with pytest.raises(ValueError):
                SpherePoint(np.array(bad))
            with pytest.raises(ValueError):
                check_unit_rows(np.vstack([good, bad]))

    def test_unit_rows_take_sphere_point_norms(self):
        """At the edge of the tolerance check_unit_rows accepts a row exactly
        when SpherePoint does: its norms are SpherePoint's, row for row, and
        the rows may be C-ordered, Fortran-ordered or sliced from wider rows."""

        def accepts(check, row):
            try:
                check(row)
            except ValueError:
                return False
            return True

        rng = np.random.default_rng(5)
        u = rng.standard_normal((2000, 4))
        # norms up to 4 units in the last place either side of 1 + tol
        scale = 1.0 + UNIT_NORM_TOL + rng.integers(-4, 5, (2000, 1)) * 2.0**-52
        rows = u / np.linalg.norm(u, axis=1)[:, None] * scale
        one = [accepts(SpherePoint, row) for row in rows]
        assert 0 < sum(one) < len(one)

        def layouts(rows):
            wide = np.zeros((len(rows), 7))
            wide[:, 2:6] = rows
            return rows, np.asfortranarray(rows), wide[:, 2:6]

        # row by row, and the rows SpherePoint accepts as one batch
        for layout, kept in zip(layouts(rows), layouts(rows[np.array(one)])):
            assert [accepts(check_unit_rows, layout[i : i + 1]) for i in range(len(rows))] == one
            assert accepts(check_unit_rows, kept)

    def test_disc_derived_from_nu3(self):
        assert SpherePoint(np.array([0.0, 0.0, 1.0, 0.0])).disc == 1
        assert SpherePoint(np.array([0.0, 0.0, -1.0, 0.0])).disc == -1
        assert SpherePoint(np.array([1.0, 0.0, 0.0, 0.0])).disc == 1

    def test_explicit_disc_kept_on_equator(self):
        p = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]), disc=-1)
        assert p.disc == -1

    def test_unit_point_normalizes(self):
        p = unit_point([3.0, 0.0, 4.0, 0.0])
        assert np.allclose(p.nu4, [0.6, 0.0, 0.8, 0.0])
        with pytest.raises(ValueError):
            unit_point([0.0, 0.0, 0.0, 0.0])


# -- the two surface polynomials ------------------------------------------


def test_psi_frozen_coefficients(rng):
    for _ in range(50):
        a, b, g = rng.uniform(-2.0, 2.0, size=3)
        p = psi(RootTriple(a, b, g))
        want = (
            1.0,
            -2.0 * a,
            a * a + b * b + g * g,
            -2.0 * a * g * g,
            (a * a + b * b) * g * g,
        )
        assert np.max(np.abs(np.array(p.a) - np.array(want))) <= 1e-14 * (
            1.0 + max(abs(w) for w in want)
        )


def test_psi_matches_root_products(rng):
    a, b, g = rng.uniform(-1.5, 1.5, size=3)
    got = np.array(psi(RootTriple(a, b, g)).a)
    want = oracles.coeffs_from_roots(
        [complex(a, b), complex(a, -b), complex(0, g), complex(0, -g)]
    ).real
    assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


def test_f_vanishes_on_psi_image(rng):
    """f was built to cut out exactly the psi-shaped spectra."""
    for _ in range(500):
        a, b, g = rng.uniform(-3.0, 3.0, size=3)
        val = f_surface(psi(RootTriple(a, b, g)))
        scale = 1.0 + max(abs(a), abs(b), abs(g)) ** 6
        assert abs(val) <= 1e-12 * scale


def test_f_weighted_homogeneity(rng):
    """Scaling all roots by t multiplies f by t^6."""
    coeffs = rng.uniform(-2.0, 2.0, size=5)
    coeffs[0] = 1.0
    p = PolyCoeffs(tuple(coeffs))
    for t in (0.5, 2.0, 3.0):
        weights = np.array([1.0, t, t ** 2, t ** 3, t ** 4])
        scaled = PolyCoeffs(tuple(coeffs * weights))
        assert f_surface(scaled) == pytest.approx(t ** 6 * f_surface(p), rel=1e-12)


def test_determinant_identity(rng):
    """f(char poly of the family) collapses to -64 (nu1^2 + nu5^2) F."""
    for _ in range(300):
        v = rng.uniform(-2.0, 2.0, size=5)
        nu = ReducedCoords(v)
        lhs = f_surface(phi_coeffs(nu))
        rhs = G_full(nu)
        scale = 1.0 + float(np.linalg.norm(v)) ** 6
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_F_homogeneity_and_broadcast(rng):
    v = rng.uniform(-1.0, 1.0, size=4)
    for t in (0.5, 2.0, 3.0):
        assert F_critical(t * v) == pytest.approx(t ** 4 * F_critical(v), rel=1e-12)
    batch = rng.uniform(-1.0, 1.0, size=(7, 4))
    out = F_critical(batch)
    assert out.shape == (7,)
    assert out[3] == pytest.approx(F_critical(batch[3]), rel=1e-15)
    assert isinstance(F_critical(v), float)


def test_G_full_homogeneity(rng):
    v = rng.uniform(-1.0, 1.0, size=5)
    base = G_full(ReducedCoords(v))
    for t in (0.5, 2.0, 3.0):
        assert G_full(ReducedCoords(t * v)) == pytest.approx(t ** 6 * base, rel=1e-12)


def test_G_sphere_equals_F_on_sphere(rng):
    """Substituting the unit-norm relation turns F into G exactly."""
    for _ in range(100):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        assert abs(F_critical(v) - G_sphere(v)) <= 1e-14


# -- derivatives --------------------------------------------------------------


def test_grad_F_matches_finite_differences(rng):
    for _ in range(50):
        v = rng.uniform(-1.5, 1.5, size=4)
        got = grad_F(v)
        want = oracles.grad_fd(F_critical, v, h=1e-6)
        assert np.max(np.abs(got - want)) <= 1e-7 * (1.0 + np.max(np.abs(got)))


def test_grad_F_broadcasts_over_rows():
    """grad_F on an (n, 4) array is its (4,) call on each row, bit for bit,
    and keeps further leading axes."""
    from resonance_atlas.stratification import sphere_samples

    pts = sphere_samples(1000, 0)
    got = grad_F(pts)
    assert got.shape == pts.shape
    assert np.array_equal(got, np.array([grad_F(row) for row in pts]))
    assert np.array_equal(grad_F(pts.reshape(10, 100, 4)), got.reshape(10, 100, 4))


def test_grad_F_euler_identity(rng):
    v = rng.uniform(-2.0, 2.0, size=4)
    assert float(np.dot(grad_F(v), v)) == pytest.approx(4.0 * F_critical(v), rel=1e-12)


def test_hessian_F_matches_finite_differences(rng):
    for _ in range(25):
        v = rng.uniform(-1.5, 1.5, size=4)
        got = hessian_F(v)
        want = oracles.hessian_fd(F_critical, v, h=1e-4)
        assert np.max(np.abs(got - want)) <= 1e-5 * (1.0 + np.max(np.abs(got)))


def test_hessian_F_displayed_diagonals(rng):
    s, t = rng.uniform(0.3, 1.2, size=2)
    H = hessian_F(np.array([0.0, 0.0, s, t]))
    assert np.allclose(H, np.diag([2.0 * (s * s + t * t), -2.0 * t * t, 0.0, 0.0]))
    H = hessian_F(np.array([0.0, s, t, 0.0]))
    assert np.allclose(H, np.diag([2.0 * (t * t - s * s), 0.0, 0.0, -2.0 * s * s]))


def test_hessian_F_symmetric(rng):
    v = rng.uniform(-1.0, 1.0, size=4)
    H = hessian_F(v)
    assert np.array_equal(H, H.T)


# -- the ruled-surface chart --------------------------------------------------


def test_param_phi_lands_on_surface(rng):
    for _ in range(200):
        s = float(rng.uniform(-1.0, 1.0))
        t = float(rng.uniform(0.0, TWO_PI))
        disc = 1 if rng.random() < 0.5 else -1
        p = param_phi(disc, s, t)  # SpherePoint enforces unit norm itself
        assert abs(F_critical(p.nu4)) <= 1e-14
        assert p.disc == disc


def test_param_phi_hits_distinguished_points():
    assert np.max(np.abs(param_phi(+1, 0.0, 0.0).nu4 - P_POINTS["P1"])) <= 1e-15
    assert np.max(np.abs(param_phi(+1, 0.0, math.pi).nu4 - P_POINTS["P2"])) <= 1e-15
    assert np.max(np.abs(param_phi(+1, 0.0, math.pi / 2.0).nu4 - P_POINTS["P5"])) <= 1e-9
    assert np.max(np.abs(param_phi(-1, 0.0, math.pi / 2.0).nu4 - P_POINTS["P6"])) <= 1e-9


def test_param_phi_two_to_one_folds(rng):
    for _ in range(25):
        s = float(rng.uniform(-1.0, 1.0))
        a = param_phi(+1, s, math.pi / 2.0)
        b = param_phi(+1, -s, 3.0 * math.pi / 2.0)
        assert np.max(np.abs(a.nu4 - b.nu4)) <= 1e-14
        t = float(rng.uniform(0.0, TWO_PI))
        c = param_phi(+1, 0.0, t)
        d = param_phi(+1, 0.0, TWO_PI - t)
        assert np.max(np.abs(c.nu4 - d.nu4)) <= 1e-14
    seam_a = param_phi(+1, 0.4, 0.0)
    seam_b = param_phi(+1, 0.4, TWO_PI)
    assert np.max(np.abs(seam_a.nu4 - seam_b.nu4)) <= 1e-14


def test_param_phi_domain_errors():
    with pytest.raises(DomainError):
        param_phi(+1, 1.2, 0.5)
    with pytest.raises(DomainError):
        param_phi(+1, 0.0, -0.5)
    with pytest.raises(DomainError):
        param_phi(+1, 0.0, TWO_PI + 0.1)
    with pytest.raises(ValueError):
        param_phi(0, 0.0, 0.5)
    t = np.linspace(0.0, TWO_PI, 5)
    assert param_phi_array(-1, 0.5, t).shape == (5, 4)
    with pytest.raises(DomainError, match="s = 1.2"):
        param_phi_array(+1, np.array([0.0, 1.2, -3.0]), 0.5)
    with pytest.raises(DomainError, match="t = -0.5"):
        param_phi_array(+1, 0.0, np.append(t, -0.5))
    with pytest.raises(DomainError):
        param_phi_array(+1, np.nan, 0.5)


# -- local normal forms -------------------------------------------------------


def test_normal_form_self_tangency():
    for name in ("P5", "P6"):
        center = SpherePoint(np.array(P_POINTS[name]))
        rep = normal_form_residual("self-tangency", center, 0.05)
        assert rep.center == name
        assert rep.n_samples > 0
        assert rep.max_residual <= 1e-10


def test_normal_form_umbrella():
    for name in ("P1", "P2", "P3", "P4"):
        center = SpherePoint(np.array(P_POINTS[name]))
        rep = normal_form_residual("umbrella", center, 0.05)
        assert rep.center == name
        assert rep.n_samples > 0
        assert rep.max_residual <= 1e-10


def test_normal_form_domain_errors():
    p5 = SpherePoint(np.array(P_POINTS["P5"]))
    p1 = SpherePoint(np.array(P_POINTS["P1"]))
    with pytest.raises(DomainError):
        normal_form_residual("self-tangency", p1, 0.05)
    with pytest.raises(DomainError):
        normal_form_residual("umbrella", p5, 0.05)
    with pytest.raises(DomainError):
        normal_form_residual("self-tangency", p5, 0.5)
    with pytest.raises(DomainError):
        normal_form_residual("self-tangency", p5, 0.0)
    with pytest.raises(DomainError):
        normal_form_residual("spiral", p5, 0.05)
    off_center = unit_point([0.1, 0.1, 0.9, 0.1])
    with pytest.raises(DomainError):
        normal_form_residual("self-tangency", off_center, 0.05)


def _F_literal(v):
    """F as the plain (..., 4) expression, one numpy operation at a time."""
    v = np.asarray(v, dtype=float)
    n1, n2, n3, n4 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    return (n1 * n1 - n2 * n2) * (n1 * n1 + n4 * n4) + n1 * n1 * n3 * n3


def test_F_critical_matches_literal_expression_bit_for_bit():
    """Every shape F_critical is given reads the same bits as the literal
    expression: one point (as a Python float), rows, a stack of rows and
    the transposed coordinate rows of the chord evaluations."""
    rng = np.random.default_rng(7)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1.0, -1.0]
    pts = np.concatenate([
        rng.normal(size=(2000, 4)),
        rng.choice([-1.0, 1.0], size=(2000, 4)) * 10.0 ** rng.uniform(-170.0, 70.0, size=(2000, 4)),
        np.array(list(itertools.product(specials[:4], repeat=4))),
        rng.choice(specials, size=(500, 4)),
    ])
    for row in pts:
        got = F_critical(row)
        assert type(got) is float
        assert np.float64(got).tobytes() == _F_literal(row).tobytes()
    assert F_critical(pts).tobytes() == _F_literal(pts).tobytes()
    stack = pts[:6].reshape(2, 3, 4)
    assert F_critical(stack).shape == (2, 3)
    assert F_critical(stack).tobytes() == _F_literal(stack).tobytes()
    for m in (1, 4, 5, 257):
        rows = np.ascontiguousarray(pts[:m].T)  # (4, m), each coordinate contiguous
        view = ((1.0 - 0.25) * rows + 0.25 * rows[:, ::-1]).T
        assert F_critical(view).tobytes() == _F_literal(view).tobytes()
