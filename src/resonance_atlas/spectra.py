"""Eigenvalue extraction and pair-configuration classification.

A matrix in the commuting family has eigenvalues in conjugate pairs; the
classifier names the sign pattern of the two pairs (stable/unstable/
imaginary) and, for a coincident pair, separates the semisimple case from
the nilpotent one by the rank of the annihilator A^2 + u A + v id.  Each
configuration is read from one Spectrum, which computes the characteristic
polynomial once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankAnomalous, UnresolvedConfiguration
from .linalg import CLUSTER_TOL_DEFAULT, Mat4, char_poly, quartic_roots

__all__ = [
    "CONFIG_BETA_STABLE",
    "CONFIG_BETA_UNSTABLE",
    "CONFIG_COINCIDENT_STABLE",
    "CONFIG_COINCIDENT_STABLE_NILPOTENT",
    "CONFIG_COINCIDENT_UNSTABLE",
    "CONFIG_COINCIDENT_UNSTABLE_NILPOTENT",
    "CONFIG_DOUBLE_NILPOTENT",
    "CONFIG_DOUBLE_SEMISIMPLE",
    "CONFIG_MIXED",
    "CONFIG_STABLE_PAIRS",
    "CONFIG_TWO_IMAGINARY",
    "CONFIG_UNSTABLE_PAIRS",
    "EigConfig",
    "Spectrum",
    "ZERO_RE_TOL_ANALYTIC",
    "ZERO_RE_TOL_SAMPLED",
    "classify_configuration",
    "is_semisimple_double_pair",
    "spectrum",
]

# Configuration codes: 'g' for a complex pair off the imaginary axis with the
# sign of its real part, 'b' for an imaginary pair.  Distinct pairs carry
# indices; 'bb' is the semisimple coincident imaginary pair, 'b^2' the
# nilpotent one, and the g..g / g^2 variants cover coincident off-axis pairs.
CONFIG_STABLE_PAIRS = "g-1g-2"
CONFIG_UNSTABLE_PAIRS = "g+1g+2"
CONFIG_MIXED = "g-g+"
CONFIG_BETA_STABLE = "bg-"
CONFIG_BETA_UNSTABLE = "bg+"
CONFIG_TWO_IMAGINARY = "b1b2"
CONFIG_DOUBLE_SEMISIMPLE = "bb"
CONFIG_DOUBLE_NILPOTENT = "b^2"
CONFIG_COINCIDENT_STABLE = "g-g-"
CONFIG_COINCIDENT_UNSTABLE = "g+g+"
CONFIG_COINCIDENT_STABLE_NILPOTENT = "g-^2"
CONFIG_COINCIDENT_UNSTABLE_NILPOTENT = "g+^2"

# Configuration code of a pair of real-part signs (-1, 0 or +1 each, 0 when
# the real part reads as zero), indexed by 3 (s_low + 1) + (s_high + 1) with
# s_low <= s_high.
_SIGN_CODES = np.array(
    [
        CONFIG_STABLE_PAIRS, CONFIG_BETA_STABLE, CONFIG_MIXED,
        None, CONFIG_TWO_IMAGINARY, CONFIG_BETA_UNSTABLE,
        None, None, CONFIG_UNSTABLE_PAIRS,
    ],
    dtype=object,
)
# Configuration code of a coincident pair by (sign of its real part,
# whether the pair is semisimple).
_COINCIDENT_CODES = {
    (0, True): CONFIG_DOUBLE_SEMISIMPLE,
    (0, False): CONFIG_DOUBLE_NILPOTENT,
    (-1, True): CONFIG_COINCIDENT_STABLE,
    (-1, False): CONFIG_COINCIDENT_STABLE_NILPOTENT,
    (1, True): CONFIG_COINCIDENT_UNSTABLE,
    (1, False): CONFIG_COINCIDENT_UNSTABLE_NILPOTENT,
}

# Real-part zero thresholds (relative): analytic inputs vs sampled data.
ZERO_RE_TOL_ANALYTIC = 1e-9
ZERO_RE_TOL_SAMPLED = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """Four eigenvalues, their coincidence clusters, and summary fields.

    double_pair is (u, v) when the two eigenvalues above the real axis
    share a cluster: the characteristic polynomial is then (x^2 + u x + v)^2,
    and the eigenvalues are its roots, each double.  It stays None
    otherwise.  semisimple_double_pair is set only when that pair is
    imaginary, +-i beta (True: semisimple, False: nilpotent part present).
    """

    eigenvalues: tuple[complex, complex, complex, complex]
    clusters: tuple[tuple[int, ...], ...]
    max_real_part: float
    semisimple_double_pair: bool | None
    double_pair: tuple[float, float] | None


@dataclass(frozen=True)
class EigConfig:
    """A configuration code, its count of stable eigenvalues, and the
    spectrum both were read from."""

    code: str
    stable_count: int
    spectrum: Spectrum


def _cluster_indices(roots, cluster_tol):
    """Union-find clustering under the relative coincidence threshold."""
    n = len(roots)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(roots[i] - roots[j])
            if gap <= cluster_tol * (1.0 + max(abs(roots[i]), abs(roots[j]))):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0]))


def _re_is_zero(z: complex, tol: float) -> bool:
    return abs(z.real) <= tol * (1.0 + abs(z))


def _im_is_zero(z: complex, tol: float) -> bool:
    return abs(z.imag) <= tol * (1.0 + abs(z))


def _pair_is_semisimple(A: Mat4, u: float, v: float, tol: float) -> bool:
    """True iff A, whose spectrum is the roots of x^2 + u x + v, each
    double, has no nilpotent part.

    rank(A^2 + u A + v id) is 0 exactly for the semisimple case and 2 when
    a rank-two nilpotent rides on top; anything else means the premise
    did not hold, raised as RankAnomalous.  Singular values are measured
    against (1 + ||A||)^2, the natural size of a quadratic polynomial in A:
    a threshold relative to the annihilator itself would report full rank
    for the numerically zero matrix, whose largest singular value is
    roundoff.
    """
    E = A.entries
    svals = np.linalg.svd(E @ E + u * E + v * np.eye(4), compute_uv=False)
    scale = (1.0 + float(np.linalg.norm(E, 2))) ** 2
    r = int(np.sum(svals > max(tol, 1e-12) * scale))
    if r == 0:
        return True
    if r == 2:
        return False
    raise RankAnomalous(f"annihilator rank {r}, expected 0 or 2")


def is_semisimple_double_pair(A: Mat4, beta: float, tol: float) -> bool:
    """True iff A with spectrum {+-i beta (double)} has no nilpotent part."""
    return _pair_is_semisimple(A, 0.0, float(beta) ** 2, tol)


def spectrum(A: Mat4, tol: float, cluster_tol: float = CLUSTER_TOL_DEFAULT) -> Spectrum:
    """Eigenvalues of A via the quartic of char_poly, plus clustering.

    When the two eigenvalues above the real axis fall into one cluster,
    the pair is taken from the square root x^2 + u x + v of the
    characteristic polynomial instead: u and v come from its third- and
    second-order coefficients, which traces give accurately, while double
    roots of the quartic come out only to sqrt(eps).  For an imaginary
    coincident pair the semisimple/nilpotent flag is filled in.
    """
    poly = char_poly(A)
    roots = quartic_roots(poly, tol).roots
    clusters = _cluster_indices(roots, cluster_tol)
    upper = {i for i, z in enumerate(roots) if z.imag > 0.0}
    pair = flag = None
    if len(upper) == 2 and any(upper <= set(c) for c in clusters):
        u = poly.a[1] / 2.0
        v = (poly.a[2] - u * u) / 2.0
        w = complex(-u / 2.0, math.sqrt(max(v - u * u / 4.0, 0.0)))
        roots = (w.conjugate(), w.conjugate(), w, w)
        pair = (u, v)
        if _re_is_zero(w, tol) and not _im_is_zero(w, tol):
            flag = _pair_is_semisimple(A, u, v, tol)
    return Spectrum(tuple(roots), clusters, max(z.real for z in roots), flag, pair)


def classify_configuration(
    A: Mat4, tol: float, cluster_tol: float = CLUSTER_TOL_DEFAULT
) -> EigConfig:
    """Name the two-pair eigenvalue configuration of A.

    Cascade: reject real/zero eigenvalues (UnresolvedConfiguration), read
    the sign of each pair's real part against the relative threshold
    tol*(1+|lambda|), and for a coincident pair split semisimple from
    nilpotent by annihilator rank.  Everything is read from one spectrum.
    """
    sp = spectrum(A, tol, cluster_tol)
    roots = sp.eigenvalues
    if any(_im_is_zero(z, tol) for z in roots):
        raise UnresolvedConfiguration(
            f"real or zero eigenvalue in {roots}; no pair configuration applies"
        )
    upper = sorted((z for z in roots if z.imag > 0.0), key=lambda z: (z.real, z.imag))
    if len(upper) != 2:
        raise UnresolvedConfiguration(f"could not split {roots} into conjugate pairs")
    stable_count = 2 * sum(1 for w in upper if w.real < -tol * (1.0 + abs(w)))
    signs = [0 if _re_is_zero(w, tol) else (-1 if w.real < 0.0 else 1) for w in upper]

    if sp.double_pair is not None:
        # the imaginary pair's flag is already in the spectrum
        semisimple = (
            sp.semisimple_double_pair
            if signs[0] == 0
            else _pair_is_semisimple(A, *sp.double_pair, tol)
        )
        return EigConfig(_COINCIDENT_CODES[signs[0], semisimple], stable_count, sp)

    low, high = sorted(signs)
    return EigConfig(_SIGN_CODES[3 * (low + 1) + high + 1], stable_count, sp)
