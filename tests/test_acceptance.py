"""Acceptance suite: the thirteen end-to-end checks, one line per outcome.

Each test prints a single PASS line when its criterion holds at the stated
tolerance; a failed assertion is the FAIL line.  Run with -s to see the
lines, or rely on the per-test verdicts of -v.
"""

import math

import numpy as np

import oracles
from expected_values import (
    ADJOINT_ORBITS,
    COMMUTATORS,
    INCIDENCE_EDGES,
    REGION_SHEETS,
    STRATUM_CONFIGS,
)
from resonance_atlas.algebra import (
    CentralizerCoords,
    ReducedCoords,
    ROTATING_INDICES,
    adjoint_action,
    basis,
    centralizer_coefficients,
    centralizer_unfolding,
    commutator_table,
    embed,
    reduce_to_canonical,
)
from resonance_atlas.geometry import (
    F_critical,
    G_full,
    G_sphere,
    P_POINTS,
    RootTriple,
    SpherePoint,
    TWO_PI,
    f_surface,
    hessian_F,
    normal_form_residual,
    param_phi,
    phi_coeffs,
    psi,
)
from resonance_atlas.linalg import (
    Mat4,
    PolyCoeffs,
    char_poly,
    commutator,
    exp_generator,
    frobenius_inner,
    numeric_rank,
)
from resonance_atlas.stratification import (
    build_incidence,
    classify_point,
    configuration_at,
    evaluation_matrix,
    interior_scale,
    representatives,
    sphere_samples,
    stability_report,
)


def _p_point(name: str) -> SpherePoint:
    return SpherePoint(np.array(P_POINTS[name]))


def test_criterion_01_factored_determinant_identity():
    """f of the characteristic coefficients equals -64 (nu1^2+nu5^2) F."""
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        nu = rng.uniform(-2.0, 2.0, size=5)
        lhs = f_surface(phi_coeffs(ReducedCoords(nu)))
        rhs = -64.0 * (nu[0] ** 2 + nu[4] ** 2) * float(F_critical(nu[:4]))
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + np.linalg.norm(nu) ** 6)
    print("PASS criterion 1: determinant identity on 10^4 random points")


def test_criterion_02_f_annihilates_double_pair_coefficients():
    """f vanishes identically on the image of psi."""
    rng = np.random.default_rng(102)
    for _ in range(10_000):
        a, b, g = rng.uniform(-2.0, 2.0, size=3)
        val = f_surface(psi(RootTriple(a, b, g)))
        assert abs(val) <= 1e-10 * (1.0 + max(abs(a), abs(b), abs(g)) ** 6)
    print("PASS criterion 2: f vanishes on psi coefficients, 10^4 triples")


def test_criterion_03_homogeneity_laws():
    """F is degree 4, G degree 6, f weighted-homogeneous of degree 6."""
    rng = np.random.default_rng(103)
    for t in (0.5, 2.0, 3.0):
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0, size=4)
            want = t ** 4 * float(F_critical(x))
            assert abs(float(F_critical(t * x)) - want) <= 1e-10 * (1.0 + abs(want))

            v = rng.uniform(-2.0, 2.0, size=5)
            want = t ** 6 * G_full(ReducedCoords(v))
            got = G_full(ReducedCoords(t * v))
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

            a = rng.uniform(-2.0, 2.0, size=5)
            weights = np.array([1.0, t, t ** 2, t ** 3, t ** 4])
            want = t ** 6 * f_surface(PolyCoeffs(tuple(a)))
            got = f_surface(PolyCoeffs(tuple(a * weights)))
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
    print("PASS criterion 3: homogeneity of F, G and f at t in {0.5, 2, 3}")


def test_criterion_04_basis_integrity():
    """Gram nonsingular, centralizer exact, complement orthogonal, table exact."""
    b = basis()
    mats = [b.M[i] for i in range(1, 9)] + [b.P[i] for i in range(1, 9)]
    gram = np.array([[frobenius_inner(A, B) for B in mats] for A in mats])
    assert abs(np.linalg.det(gram)) > 1e9  # exactly 4^16

    for i in range(1, 9):
        assert np.all(commutator(b.L, b.M[i]).entries == 0.0)
    for i in range(1, 9):
        for j in range(1, 9):
            assert frobenius_inner(b.M[i], b.P[j]) == 0.0

    table = commutator_table()
    assert len(table) == 36
    for i in ROTATING_INDICES:
        for j in ROTATING_INDICES:
            if i == j:
                want = (0.0, 0)
            elif i < j:
                want = COMMUTATORS[(i, j)]
            else:
                c, k = COMMUTATORS[(j, i)]
                want = (-c, k) if c != 0.0 else (0.0, 0)
            assert table[(i, j)] == want
    print("PASS criterion 4: basis integrity and all 36 bracket entries exact")


def test_criterion_05_adjoint_orbit_formulas():
    """Numeric decomposition of the conjugated generators matches the orbits."""
    t = 0.37
    fac = {"1": 1.0, "c": math.cos(2.0 * t), "s": math.sin(2.0 * t)}
    fac["-s"] = -fac["s"]
    b = basis()
    for k, row in ADJOINT_ORBITS.items():
        left = exp_generator(k, -t).entries
        right = exp_generator(k, t).entries
        for j, terms in row.items():
            coeffs, resid = centralizer_coefficients(
                Mat4(left @ b.M[j].entries @ right)
            )
            want = np.zeros(8)
            for idx, factor in terms:
                want[idx - 1] = fac[factor]
            assert resid <= 1e-12
            assert np.max(np.abs(coeffs - want)) <= 1e-12
    print("PASS criterion 5: all 18 adjoint orbit decompositions at t = 0.37")


def test_criterion_06_representative_configurations():
    """Every stratum representative classifies home with the listed code."""
    for name, (point, _) in representatives().items():
        assert classify_point(point, 1.0, tol=1e-9).name == name
        cfg = configuration_at(point, 1.0, tol=1e-9)
        assert cfg.code == STRATUM_CONFIGS[name]
    print("PASS criterion 6: all 20 representatives yield their configurations")


def test_criterion_07_semisimple_rank_tests():
    """Annihilator ranks separate the defective strata from the semisimple."""
    b = basis()
    eye = np.eye(4)
    assert numeric_rank(Mat4(b.L.entries @ b.L.entries + eye), 1e-8) == 0

    t0 = interior_scale(1.0)
    for name in ("P5", "P6"):
        A = evaluation_matrix(_p_point(name), 1.0).entries
        prod = (A @ A + (1.0 - t0) ** 2 * eye) @ (A @ A + (1.0 + t0) ** 2 * eye)
        assert numeric_rank(Mat4(prod), 1e-8) == 0

    for name in ("P1", "P2", "P3", "P4"):
        A = evaluation_matrix(_p_point(name), 1.0).entries
        assert numeric_rank(Mat4(A @ A + eye), 1e-8) == 2
    print("PASS criterion 7: rank 2 at the four umbrellas, rank 0 elsewhere")


def test_criterion_08_hessian_formulas():
    """Closed-form Hessian matches the displayed diagonals and differences."""
    for s, t in ((1.0, 1.0), (0.3, 0.7)):
        got = hessian_F(np.array([0.0, 0.0, s, t]))
        want = np.diag([2.0 * s * s + 2.0 * t * t, -2.0 * t * t, 0.0, 0.0])
        assert np.array_equal(got, want)
        got = hessian_F(np.array([0.0, s, t, 0.0]))
        want = np.diag([2.0 * t * t - 2.0 * s * s, 0.0, 0.0, -2.0 * s * s])
        assert np.array_equal(got, want)

    rng = np.random.default_rng(108)
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=4)
        diff = hessian_F(x) - oracles.hessian_fd(F_critical, x, h=1e-4)
        assert np.max(np.abs(diff)) <= 1e-5
    print("PASS criterion 8: Hessian diagonals exact, finite differences to 1e-5")


def test_criterion_09_parameterization():
    """Both chart maps land on the surface and fold two-to-one as stated."""
    s_grid = np.linspace(-1.0, 1.0, 100)
    t_grid = np.linspace(0.0, TWO_PI, 100)
    for disc in (+1, -1):
        for s in s_grid:
            for t in t_grid:
                p = param_phi(disc, float(s), float(t))
                assert abs(float(G_sphere(p.nu4))) <= 1e-12

    for disc in (+1, -1):
        for s in np.linspace(-1.0, 1.0, 50):
            a = param_phi(disc, float(s), math.pi / 2.0)
            b = param_phi(disc, float(-s), 3.0 * math.pi / 2.0)
            assert np.max(np.abs(a.nu4 - b.nu4)) <= 1e-14
        for t in np.linspace(0.0, TWO_PI, 50):
            c = param_phi(disc, 0.0, float(t))
            d = param_phi(disc, 0.0, float(TWO_PI - t))
            assert np.max(np.abs(c.nu4 - d.nu4)) <= 1e-14
    print("PASS criterion 9: charts on-surface at 1e-12, folds at 1e-14")


def test_criterion_10_normal_forms():
    """Local models hold on zero-set samples within radius 0.05."""
    for name in ("P5", "P6"):
        report = normal_form_residual("self-tangency", _p_point(name), 0.05)
        assert report.max_residual <= 1e-10
    for name in ("P1", "P2", "P3", "P4"):
        report = normal_form_residual("umbrella", _p_point(name), 0.05)
        assert report.max_residual <= 1e-10
    print("PASS criterion 10: normal forms at all six pinch points to 1e-10")


def test_criterion_11_reduction():
    """Canonicalization preserves spectra, fixes signs, round-trips."""
    rng = np.random.default_rng(111)
    for _ in range(1_000):
        mu = CentralizerCoords(rng.uniform(-1.0, 1.0, size=8))
        nu, _ = reduce_to_canonical(mu, 1e-9)

        assert nu.nu[1] >= 0.0 and nu.nu[2] >= 0.0
        nx = float(np.linalg.norm(mu.x))
        ny2 = float(np.dot(mu.y, mu.y))
        assert abs(nu.nu[1] - nx) <= 1e-10 * (1.0 + nx)
        assert abs(nu.nu[2] ** 2 + nu.nu[3] ** 2 - ny2) <= 1e-10 * (1.0 + ny2)

        a = np.array(char_poly(centralizer_unfolding(mu)).a)
        c = np.array(char_poly(centralizer_unfolding(embed(nu))).a)
        assert np.max(np.abs(a - c)) <= 1e-9 * (1.0 + np.max(np.abs(a)))

        scrambled = adjoint_action(7, 0.3, adjoint_action(8, 1.1, embed(nu)))
        again, _ = reduce_to_canonical(scrambled, 1e-9)
        gap = np.max(np.abs(again.nu - nu.nu))
        assert gap <= 1e-9 * (1.0 + np.linalg.norm(nu.nu))
    print("PASS criterion 11: 10^3 reductions preserve, sign and round-trip")


def test_criterion_12_stability_domain():
    """Strictly stable and strictly unstable samples each form one region."""
    samples = sphere_samples(10_000, 42)
    report = stability_report(samples, nu5=1.0)

    assert report.stable_component_count == 1
    assert report.unstable_component_count == 1
    assert report.mixed_component_count == 2
    assert report.stable_strata == frozenset({"V3"})
    assert report.stable_boundary_strata == frozenset({"S2", "S3"})

    for rec in report.records:
        re_parts = oracles.eigvals_lapack(
            evaluation_matrix(rec.point, 1.0).entries
        ).real
        if np.all(re_parts < -1e-9):
            assert rec.stable and rec.stratum == "V3"
        elif np.all(re_parts > 1e-9):
            assert not rec.stable and rec.stratum == "V1"
    print("PASS criterion 12: one stable, one unstable, two mixed components")


def test_criterion_13_incidence_graph():
    """The adjacency of strata is grid-independent and contains the arcs."""
    g128 = build_incidence(128)
    g256 = build_incidence(256)
    assert g128.edges == g256.edges == INCIDENCE_EDGES

    for edge in (
        ("P5", "L5"), ("P5", "L6"), ("P6", "L5"), ("P6", "L6"),
        ("L5", "S2"), ("L6", "S2"),
    ):
        assert edge in g128.edges
    for region, sheets in REGION_SHEETS.items():
        for sheet in sheets:
            assert (sheet, region) in g128.edges
    print("PASS criterion 13: incidence identical at grids 128 and 256")
