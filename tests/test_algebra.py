import itertools
import math

import numpy as np
import pytest

from resonance_atlas.algebra import (
    CentralizerCoords,
    ReducedCoords,
    adjoint_action,
    basis,
    centralizer_coefficients,
    centralizer_unfolding,
    commutator_table,
    embed,
    homogeneous_reduced,
    homogeneous_unfolding,
    reduce_to_canonical,
    reduced_unfolding,
)
from resonance_atlas.linalg import Mat4, char_poly, commutator, frobenius_inner
from resonance_atlas.stratification import evaluation_matrix, interior_scale, representatives

import oracles
from expected_values import ADJOINT_ORBITS, COMMUTATORS


ROTATING = (2, 3, 4, 6, 7, 8)


def test_basis_block_identities():
    b = basis()
    assert np.array_equal(b.M[1].entries, np.eye(4))
    assert np.array_equal(b.M[5].entries, b.L.entries)
    # the 2x2 building blocks multiply the way the brackets need
    R, T, J = b.R, b.T, b.J
    assert np.array_equal(R @ J, T)
    assert np.array_equal(J @ R, -T)
    assert np.array_equal(R @ T, J)
    assert np.array_equal(T @ R, -J)
    for block in (b.I2, R, T, J):
        with pytest.raises(ValueError):
            block[0, 0] = 2.0


def test_basis_orthogonality_exact():
    """All sixteen generators are mutually orthogonal with norm^2 = 4."""
    b = basis()
    mats = [b.M[i] for i in range(1, 9)] + [b.P[i] for i in range(1, 9)]
    for i, A in enumerate(mats):
        for j, B in enumerate(mats):
            want = 4.0 if i == j else 0.0
            assert frobenius_inner(A, B) == want  # entries are 0/+-1


def test_everything_commutes_with_L():
    b = basis()
    for i in range(1, 9):
        assert np.array_equal(commutator(b.L, b.M[i]).entries, np.zeros((4, 4)))


def test_complement_anticommutes_with_L():
    b = basis()
    for i in range(1, 9):
        anti = b.L.entries @ b.P[i].entries + b.P[i].entries @ b.L.entries
        assert np.array_equal(anti, np.zeros((4, 4)))


def test_commutator_table_matches_frozen():
    table = commutator_table()
    for (i, j), (coef, k) in COMMUTATORS.items():
        assert table[(i, j)] == (coef, k)
        # antisymmetry
        assert table[(j, i)] == (-coef, k) if coef else table[(j, i)] == (0.0, 0)
    for i in ROTATING:
        assert table[(i, i)] == (0.0, 0)
    assert len(table) == 36


def test_commutator_table_against_matrices():
    """Frozen structure constants versus raw matrix brackets."""
    b = basis()
    for (i, j), (coef, k) in COMMUTATORS.items():
        got = commutator(b.M[i], b.M[j]).entries
        want = coef * b.M[k].entries if k else np.zeros((4, 4))
        assert np.array_equal(got, want), (i, j)


def test_unfoldings_are_linear_in_mu(rng):
    mu = CentralizerCoords(rng.uniform(-1.0, 1.0, size=8))
    b = basis()
    acc = sum(mu.mu[i - 1] * b.M[i].entries for i in range(1, 9))
    assert np.allclose(homogeneous_unfolding(mu).entries, acc, atol=1e-15)
    assert np.array_equal(
        centralizer_unfolding(mu).entries, b.L.entries + homogeneous_unfolding(mu).entries
    )


def test_centralizer_coefficients_round_trip(rng):
    mu = rng.uniform(-2.0, 2.0, size=8)
    H = homogeneous_unfolding(CentralizerCoords(mu))
    coeffs, residual = centralizer_coefficients(H)
    assert np.max(np.abs(coeffs - mu)) <= 1e-14
    assert residual <= 1e-14


def test_centralizer_coefficients_sees_off_span_part(rng):
    b = basis()
    H = Mat4(b.M[3].entries + 0.25 * b.P[2].entries)
    coeffs, residual = centralizer_coefficients(H)
    assert coeffs[2] == pytest.approx(1.0)
    assert residual >= 0.2  # the P-component is not representable


def test_embed_slots():
    nu = ReducedCoords(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    mu = embed(nu).mu
    assert list(mu) == [1.0, 0.0, 0.0, 2.0, 5.0, 3.0, 0.0, 4.0]
    H = homogeneous_reduced(nu)
    assert np.array_equal(H.entries, homogeneous_unfolding(embed(nu)).entries)
    assert np.array_equal(
        reduced_unfolding(nu).entries, centralizer_unfolding(embed(nu)).entries
    )


def test_coords_validation():
    with pytest.raises(ValueError):
        CentralizerCoords(np.zeros(7))
    with pytest.raises(ValueError):
        ReducedCoords(np.array([1.0, 2.0, 3.0, 4.0, np.inf]))


# -- adjoint action ----------------------------------------------------------


def _orbit_coeffs(entries, t):
    c, s = math.cos(2.0 * t), math.sin(2.0 * t)
    fac = {"1": 1.0, "c": c, "s": s, "-s": -s}
    out = np.zeros(8)
    for idx, f in entries:
        out[idx - 1] = fac[f]
    return out


def test_adjoint_action_matches_frozen_orbits():
    t = 0.37
    for k, orbits in ADJOINT_ORBITS.items():
        for j, entries in orbits.items():
            alpha = np.zeros(8)
            alpha[j - 1] = 1.0
            got = adjoint_action(k, t, CentralizerCoords(alpha)).mu
            assert np.max(np.abs(got - _orbit_coeffs(entries, t))) <= 1e-15, (k, j)


def test_adjoint_action_matches_conjugation(rng):
    """Coordinate rotations against a literal exp-conjugate-decompose oracle."""
    b = basis()
    for k in (6, 7, 8):
        for _ in range(10):
            t = float(rng.uniform(-2.0, 2.0))
            alpha = CentralizerCoords(rng.uniform(-1.0, 1.0, size=8))
            H = homogeneous_unfolding(alpha)
            g = oracles.matrix_exp(t * b.M[k].entries)
            ginv = oracles.matrix_exp(-t * b.M[k].entries)
            conj = Mat4(ginv @ H.entries @ g)
            want, residual = centralizer_coefficients(conj)
            assert residual <= 1e-12
            got = adjoint_action(k, t, alpha).mu
            assert np.max(np.abs(got - want)) <= 1e-12


def test_adjoint_action_fixes_center(rng):
    alpha = CentralizerCoords(rng.uniform(-1.0, 1.0, size=8))
    out = adjoint_action(6, 0.9, alpha)
    assert out.mu[0] == alpha.mu[0]
    assert out.mu[4] == alpha.mu[4]


def test_adjoint_action_rejects_non_rotating_index():
    with pytest.raises(ValueError):
        adjoint_action(5, 0.1, CentralizerCoords(np.zeros(8)))


# -- reduction to canonical form ---------------------------------------------


def test_reduce_to_canonical_properties(rng):
    """Random-unfolding loop: conventions, invariants, conjugation."""
    for _ in range(300):
        mu = rng.uniform(-1.0, 1.0, size=8)
        coords = CentralizerCoords(mu)
        nu, g = reduce_to_canonical(coords, 1e-9)
        v = nu.nu

        # sign conventions and norm identities
        x = mu[1:4]
        y = mu[5:8]
        assert v[1] >= 0.0 and v[2] >= 0.0
        assert abs(v[1] - np.linalg.norm(x)) <= 1e-10
        assert abs(math.hypot(v[2], v[3]) - np.linalg.norm(y)) <= 1e-10

        # central coordinates ride along
        assert v[0] == mu[0]
        assert v[4] == mu[4]

        # g is a rotation and actually conjugates H into canonical form
        assert np.max(np.abs(g.entries.T @ g.entries - np.eye(4))) <= 1e-14
        H = homogeneous_unfolding(coords)
        Hr = homogeneous_reduced(nu)
        back = g.T @ H @ g
        assert np.max(np.abs(back.entries - Hr.entries)) <= 1e-13

        # similarity preserves the characteristic polynomial
        pa = np.array(char_poly(H).a)
        pb = np.array(char_poly(Hr).a)
        assert np.max(np.abs(pa - pb)) <= 1e-12 * (1.0 + np.max(np.abs(pa)))


def test_reduce_to_canonical_degenerate_blocks():
    # x = 0: only the y rotation fires
    mu = np.array([0.3, 0.0, 0.0, 0.0, -0.7, 0.2, -0.4, 0.1])
    nu, g = reduce_to_canonical(CentralizerCoords(mu), 1e-9)
    assert nu.nu[1] == 0.0
    assert abs(math.hypot(nu.nu[2], nu.nu[3]) - np.linalg.norm(mu[5:8])) <= 1e-12
    # y = 0: only the x rotations fire
    mu = np.array([0.0, 0.5, -0.2, 0.3, 1.1, 0.0, 0.0, 0.0])
    nu, g = reduce_to_canonical(CentralizerCoords(mu), 1e-9)
    assert abs(nu.nu[1] - np.linalg.norm(mu[1:4])) <= 1e-12
    assert nu.nu[2] == 0.0 and nu.nu[3] == 0.0
    # zero input reduces to zero with g = id contribution only
    nu, g = reduce_to_canonical(CentralizerCoords(np.zeros(8)), 1e-9)
    assert np.array_equal(nu.nu, np.zeros(5))


def test_reduced_family_spectrum_closed_form(rng):
    """The canonical family's eigenvalues follow the branch formula."""
    for _ in range(100):
        v = rng.uniform(-1.5, 1.5, size=5)
        H = homogeneous_reduced(ReducedCoords(v))
        want = oracles.reduced_eigenvalues(v)
        got = oracles.eigvals_lapack(H.entries)
        assert oracles.multiset_gap(got, want) <= 1e-7  # double roots cost sqrt(eps)


def test_reduced_family_axis_char_poly(rng):
    for _ in range(20):
        n1, n5 = rng.uniform(-2.0, 2.0, size=2)
        H = homogeneous_reduced(ReducedCoords(np.array([n1, 0.0, 0.0, 0.0, n5])))
        got = np.array(char_poly(H).a)
        want = np.array(oracles.axis_char_coeffs(n1, n5))
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def _unfolding_bytes(nu: ReducedCoords) -> bytes:
    return homogeneous_unfolding(embed(nu)).entries.tobytes()


def test_homogeneous_reduced_matches_generator_sum_bit_for_bit():
    """The direct build equals the sum over the eight generators in every
    bit, signed zeros included, over the whole double range."""
    rng = np.random.default_rng(20261018)
    mags = 10.0 ** rng.uniform(-300.0, 300.0, size=(10_000, 5))
    signs = rng.choice([-1.0, 1.0], size=(10_000, 5))
    for row in mags * signs:
        nu = ReducedCoords(row)
        assert homogeneous_reduced(nu).entries.tobytes() == _unfolding_bytes(nu)
    for pattern in itertools.product((0.0, -0.0), repeat=5):
        nu = ReducedCoords(np.array(pattern))
        assert homogeneous_reduced(nu).entries.tobytes() == _unfolding_bytes(nu), pattern


def test_evaluation_matrices_match_generator_sum_bit_for_bit():
    """The representatives' evaluation matrices at every nu5 the point
    queries use are those of the generator sum."""
    for point, _ in representatives().values():
        for nu5 in (-2.0, -1.0, -0.5, 0.5, 1.0, 3.0):
            nu = ReducedCoords(np.append(interior_scale(nu5) * point.nu4, nu5))
            assert evaluation_matrix(point, nu5).entries.tobytes() == _unfolding_bytes(nu)
