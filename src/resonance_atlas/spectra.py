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
    "CONFIG_NAMES",
    "CONFIG_STABLE_PAIRS",
    "CONFIG_TWO_IMAGINARY",
    "CONFIG_UNSTABLE_PAIRS",
    "EigConfig",
    "Spectrum",
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

# Every configuration code; arrays of configurations hold int8 indices into it.
CONFIG_NAMES = (
    CONFIG_STABLE_PAIRS,
    CONFIG_UNSTABLE_PAIRS,
    CONFIG_MIXED,
    CONFIG_BETA_STABLE,
    CONFIG_BETA_UNSTABLE,
    CONFIG_TWO_IMAGINARY,
    CONFIG_DOUBLE_SEMISIMPLE,
    CONFIG_DOUBLE_NILPOTENT,
    CONFIG_COINCIDENT_STABLE,
    CONFIG_COINCIDENT_UNSTABLE,
    CONFIG_COINCIDENT_STABLE_NILPOTENT,
    CONFIG_COINCIDENT_UNSTABLE_NILPOTENT,
)

# Index into CONFIG_NAMES of the configuration of a pair of real-part signs
# (-1, 0 or +1 each, 0 when the real part reads as zero), indexed by
# 3 s_a + s_b + 4 with the two signs in either order.
_SIGN_CODES = np.array(
    [
        CONFIG_NAMES.index(code)
        for code in (
            CONFIG_STABLE_PAIRS, CONFIG_BETA_STABLE, CONFIG_MIXED,
            CONFIG_BETA_STABLE, CONFIG_TWO_IMAGINARY, CONFIG_BETA_UNSTABLE,
            CONFIG_MIXED, CONFIG_BETA_UNSTABLE, CONFIG_UNSTABLE_PAIRS,
        )
    ],
    dtype=np.int8,
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


def _pair_split(n2, n3, n4):
    """D = sqrt(n3^2 + n4^2 - n2^2 + 2 i n2 n4) on the principal branch, the
    half-gap of the family's eigenvalue pair over t0 (_upper_pair), and the
    factor of F = (n1^2 - Im D^2)(n1^2 + Re D^2).  Python floats of one row
    or (n,) columns."""
    return np.sqrt((n3 * n3 + n4 * n4 - n2 * n2) + 2j * (n2 * n4))


def _upper_pair(n1, n2, n3, n4, t0, nu5):
    """The two eigenvalues above the real axis of the canonical-family
    matrix at t0 times the unit point (n1, n2, n3, n4) with weight nu5.

    They are hi, lo = t0 n1 + i(nu5 +- t0 D), D = _pair_split(n2, n3, n4),
    returned with whether they coincide: a gap within CLUSTER_TOL_DEFAULT
    (1 + max |lambda|).  Built from arithmetic, abs, comparisons, np.sqrt
    and np.maximum only, so the arguments may be Python floats of one row
    or (n,) columns.
    """
    d = _pair_split(n2, n3, n4)
    hi = t0 * n1 + 1j * (nu5 + t0 * d)
    lo = t0 * n1 + 1j * (nu5 + t0 * -d)
    return hi, lo, abs(hi - lo) <= CLUSTER_TOL_DEFAULT * (1.0 + np.maximum(abs(hi), abs(lo)))


def _pair_labels(hi, lo, tol):
    """What the eigenvalue pair hi, lo (and conjugates) reads as, a real or
    imaginary part counting as zero within tol (1 + |lambda|).

    Returns whether an imaginary part reads as zero (no configuration
    applies), the sign of hi's real part (-1, 0 or +1), the config code of
    two distinct pairs (an index into CONFIG_NAMES), the count of stable
    eigenvalues and the max real part.  One row or (n,) columns, as
    _upper_pair.
    """
    tol_hi, tol_lo = tol * (1.0 + abs(hi)), tol * (1.0 + abs(lo))
    unresolved = (abs(hi.imag) <= tol_hi) | (abs(lo.imag) <= tol_lo)
    s_hi = (hi.real > tol_hi) * 1 - (hi.real < -tol_hi) * 1
    s_lo = (lo.real > tol_lo) * 1 - (lo.real < -tol_lo) * 1
    stable_count = (s_hi < 0) * 2 + (s_lo < 0) * 2
    max_re = np.maximum(hi.real, lo.real)
    return unresolved, s_hi, _SIGN_CODES[3 * s_hi + s_lo + 4], stable_count, max_re


# Relative real-part threshold of a sampled point's `stable` flag.
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


def _cluster_indices(roots):
    """Union-find clustering under the relative coincidence threshold
    CLUSTER_TOL_DEFAULT."""
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
            if gap <= CLUSTER_TOL_DEFAULT * (1.0 + max(abs(roots[i]), abs(roots[j]))):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0]))


def _re_is_zero(z: complex, tol: float) -> bool:
    return abs(z.real) <= tol * (1.0 + abs(z))


def _im_is_zero(z: complex, tol: float) -> bool:
    return abs(z.imag) <= tol * (1.0 + abs(z))


def _pair_is_semisimple(A: Mat4, u: float, v: float, tol: float) -> bool | None:
    """True iff A, whose spectrum is the roots of x^2 + u x + v, each
    double, has no nilpotent part.

    rank(A^2 + u A + v id) is 0 exactly for the semisimple case and 2 when
    a rank-two nilpotent rides on top; rank 4 off the imaginary axis
    (|u| / 2 > tol (1 + sqrt v)) gives None, two distinct pairs within the
    coincidence threshold.  Anything else means the premise did not hold,
    raised as RankAnomalous.  Singular values are measured against
    (1 + ||A||)^2, the natural size of a quadratic polynomial in A: a
    threshold relative to the annihilator itself would report full rank
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
    if r == 4 and abs(u) / 2.0 > tol * (1.0 + math.sqrt(max(v, 0.0))):
        return None
    raise RankAnomalous(f"annihilator rank {r}, expected 0 or 2")


def is_semisimple_double_pair(A: Mat4, beta: float, tol: float) -> bool:
    """True iff A with spectrum {+-i beta (double)} has no nilpotent part."""
    return _pair_is_semisimple(A, 0.0, float(beta) ** 2, tol)


def spectrum(A: Mat4, tol: float) -> Spectrum:
    """Eigenvalues of A via the quartic of char_poly, plus clustering: roots
    within CLUSTER_TOL_DEFAULT (1 + max |root|) share a cluster.

    When the two eigenvalues above the real axis fall into one cluster,
    the pair is taken from the square root x^2 + u x + v of the
    characteristic polynomial instead: u and v come from its third- and
    second-order coefficients, which traces give accurately, while double
    roots of the quartic come out only to sqrt(eps).  For an imaginary
    coincident pair the semisimple/nilpotent flag is filled in.
    """
    poly = char_poly(A)
    roots = quartic_roots(poly, tol).roots
    clusters = _cluster_indices(roots)
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


def classify_configuration(A: Mat4, tol: float) -> EigConfig:
    """Name the two-pair eigenvalue configuration of A.

    Cascade: reject real/zero eigenvalues (UnresolvedConfiguration), read
    the sign of each pair's real part against the relative threshold
    tol*(1+|lambda|), and for a pair coincident within CLUSTER_TOL_DEFAULT
    (spectrum) split semisimple from nilpotent by annihilator rank (rank 4
    off the imaginary axis: two distinct pairs, both of the double root's
    sign).  Everything is read from one spectrum.
    """
    sp = spectrum(A, tol)
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
        if semisimple is not None:
            return EigConfig(_COINCIDENT_CODES[signs[0], semisimple], stable_count, sp)

    return EigConfig(CONFIG_NAMES[_SIGN_CODES[3 * signs[0] + signs[1] + 4]], stable_count, sp)
