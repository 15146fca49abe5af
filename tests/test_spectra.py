import numpy as np
import pytest

from resonance_atlas.errors import RankAnomalous, UnresolvedConfiguration
from resonance_atlas.linalg import Mat4
from resonance_atlas.algebra import ReducedCoords, basis, homogeneous_reduced
from resonance_atlas.geometry import SpherePoint
from resonance_atlas.spectra import (
    classify_configuration,
    is_semisimple_double_pair,
    spectrum,
)
from resonance_atlas.stratification import evaluation_matrix

import oracles


def _rot(a, b):
    return np.array([[a, -b], [b, a]])


def _two_pairs(a, b, c, d) -> Mat4:
    """Block matrix with spectrum {a +- ib, c +- id}."""
    m = np.zeros((4, 4))
    m[:2, :2] = _rot(a, b)
    m[2:, 2:] = _rot(c, d)
    return Mat4(m)


def _coincident(a, b, nilpotent: bool) -> Mat4:
    """Both pairs at a +- ib; optionally with a rank-two nilpotent part."""
    m = np.zeros((4, 4))
    m[:2, :2] = _rot(a, b)
    m[2:, 2:] = _rot(a, b)
    if nilpotent:
        m[:2, 2:] = np.eye(2)
    return Mat4(m)


def test_spectrum_matches_lapack(rng):
    for _ in range(100):
        a = rng.standard_normal((4, 4))
        sp = spectrum(Mat4(a), 1e-9)
        gap = oracles.multiset_gap(sp.eigenvalues, oracles.eigvals_lapack(a))
        assert gap <= 1e-6 * (1.0 + max(abs(z) for z in sp.eigenvalues))
        assert sp.max_real_part == pytest.approx(
            max(z.real for z in sp.eigenvalues), abs=0.0
        )


def test_spectrum_clusters():
    sp = spectrum(_two_pairs(0.1, 1.0, -0.2, 2.0), 1e-9)
    assert len(sp.clusters) == 4
    assert sp.semisimple_double_pair is None
    sp = spectrum(_coincident(0.0, 1.0, False), 1e-9)
    assert len(sp.clusters) == 2
    assert all(len(c) == 2 for c in sp.clusters)


def test_spectrum_flag_semisimple_rotation():
    # the resonant generator itself: double +-i pair, no nilpotent part
    sp = spectrum(basis().L, 1e-9)
    assert sp.semisimple_double_pair is True


def test_spectrum_flag_nilpotent():
    sp = spectrum(_coincident(0.0, 1.0, True), 1e-9)
    assert sp.semisimple_double_pair is False


def test_spectrum_flag_none_off_axis():
    sp = spectrum(_coincident(0.4, 1.0, False), 1e-9)
    assert sp.semisimple_double_pair is None  # coincident but not imaginary


def test_spectrum_coincident_pair_is_exact():
    """A coincident pair is read from (x^2 + u x + v)^2, so even a
    nilpotent one, which the quartic resolves to sqrt(eps) only, comes out
    to rounding."""
    for nilpotent in (False, True):
        sp = spectrum(_coincident(0.4, 1.0, nilpotent), 1e-9)
        assert sp.double_pair == pytest.approx((-0.8, 1.16), abs=1e-15)
        want = [0.4 - 1j, 0.4 - 1j, 0.4 + 1j, 0.4 + 1j]
        assert max(abs(z - w) for z, w in zip(sp.eigenvalues, want)) <= 1e-15
        assert sp.max_real_part == sp.eigenvalues[-1].real
    assert spectrum(_two_pairs(0.1, 1.0, -0.2, 2.0), 1e-9).double_pair is None


def test_spectrum_next_to_coincident_pairs_matches_lapack():
    """Points 1e-8 to 1e-2 off the axis, where the two pairs nearly meet:
    the resolvent split of the quartic stays finite and accurate."""
    rng = np.random.default_rng(5)
    for _ in range(2000):
        d = rng.standard_normal(4)
        v = np.array([rng.choice([-1.0, 1.0]), 0.0, 0.0, 0.0])
        v = v + 10.0 ** rng.uniform(-8.0, -2.0) * d / np.linalg.norm(d)
        A = evaluation_matrix(SpherePoint(v / np.linalg.norm(v)), 1.0)
        sp = spectrum(A, 1e-9)
        lam = oracles.eigvals_lapack(A.entries)
        bound = 1e-6 * (1.0 + np.abs(lam).max())
        assert abs(sp.max_real_part - lam.real.max()) <= bound
        assert oracles.multiset_gap(sp.eigenvalues, lam) <= bound


def test_is_semisimple_double_pair():
    assert is_semisimple_double_pair(basis().L, 1.0, 1e-9) is True
    assert is_semisimple_double_pair(_coincident(0.0, 1.5, True), 1.5, 1e-9) is False


# one construction per configuration code
CODE_CASES = [
    ("g-1g-2", 4, _two_pairs(-0.3, 1.0, -0.7, 2.0)),
    ("g+1g+2", 0, _two_pairs(0.3, 1.0, 0.7, 2.0)),
    ("g-g+", 2, _two_pairs(-0.3, 1.0, 0.7, 2.0)),
    ("bg-", 2, _two_pairs(0.0, 1.0, -0.7, 2.0)),
    ("bg+", 0, _two_pairs(0.0, 1.0, 0.7, 2.0)),
    ("b1b2", 0, _two_pairs(0.0, 1.0, 0.0, 2.0)),
    ("bb", 0, _coincident(0.0, 1.0, False)),
    ("b^2", 0, _coincident(0.0, 1.0, True)),
    ("g-g-", 4, _coincident(-0.4, 1.0, False)),
    ("g-^2", 4, _coincident(-0.4, 1.0, True)),
    ("g+g+", 0, _coincident(0.4, 1.0, False)),
    ("g+^2", 0, _coincident(0.4, 1.0, True)),
]


def test_classify_configuration_all_codes():
    """Every configuration code is reachable and counts stability right."""
    for want_code, want_stable, A in CODE_CASES:
        cfg = classify_configuration(A, 1e-9)
        assert cfg.code == want_code, want_code
        assert cfg.stable_count == want_stable, want_code


def test_classify_relative_zero_threshold():
    # a real part far below tol*(1+|lambda|) reads as zero
    cfg = classify_configuration(_two_pairs(-1e-12, 1.0, -0.5, 2.0), 1e-9)
    assert cfg.code == "bg-"


def test_classify_rejects_real_spectrum():
    m = np.diag([1.0, 2.0, -1.0, -2.0])
    with pytest.raises(UnresolvedConfiguration):
        classify_configuration(Mat4(m), 1e-9)


def test_classify_rejects_zero_eigenvalue():
    m = np.zeros((4, 4))
    m[:2, :2] = _rot(0.0, 1.0)  # other block identically zero
    with pytest.raises(UnresolvedConfiguration):
        classify_configuration(Mat4(m), 1e-9)


def test_classify_gray_zone_raises():
    """Pairs clustered by cluster_tol but split beyond the rank tolerance
    are genuinely unresolvable at the requested precision."""
    A = _two_pairs(0.0, 1.0, 0.0, 1.0 + 1e-8)
    with pytest.raises(RankAnomalous):
        classify_configuration(A, 1e-9)


def test_classify_canonical_family_axis(rng):
    """On the nu2 = nu3 = nu4 = 0 axis both pairs coincide semisimply."""
    H = homogeneous_reduced(ReducedCoords(np.array([0.4, 0.0, 0.0, 0.0, 1.0])))
    assert classify_configuration(H, 1e-9).code == "g+g+"
    H = homogeneous_reduced(ReducedCoords(np.array([-0.4, 0.0, 0.0, 0.0, 1.0])))
    assert classify_configuration(H, 1e-9).code == "g-g-"
    H = homogeneous_reduced(ReducedCoords(np.array([0.0, 0.0, 0.0, 0.0, 1.0])))
    assert classify_configuration(H, 1e-9).code == "bb"
