"""Eigenvalue extraction and pair-configuration classification.

A matrix in the commuting family has eigenvalues in conjugate pairs; the
classifier names the sign pattern of the two pairs (stable/unstable/
imaginary) and, for a coincident pair, separates the semisimple case from
the nilpotent one by the rank of the annihilator A^2 + u A + v id, one rule
(_rank_verdict) on two sources of singular values: the SVD for any matrix
(spectrum), the closed form on the canonical family (_upper_pair).  Each
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

# Verdicts of the annihilator-rank rule (_rank_verdict) on two pairs within
# the coincidence threshold: two distinct pairs after all, one semisimple
# double pair, one double pair with a nilpotent part, or no reading at all.
_DISTINCT, _SEMISIMPLE, _NILPOTENT, _ANOMALOUS = 0, 1, 2, -1

# Index into CONFIG_NAMES of the configuration of two pairs by the verdict
# (a row) and the signs of their real parts (-1, 0 or +1 each, 0 when the
# real part reads as zero) at 3 s_a + s_b + 4, the two signs in either
# order.  A double pair has s_a = s_b, so its rows are read at 0, 4 and 8
# only; their other entries repeat the distinct row.
_CONFIG_CODES = np.array(
    [
        [CONFIG_NAMES.index(code) for code in row]
        for row in (
            (
                CONFIG_STABLE_PAIRS, CONFIG_BETA_STABLE, CONFIG_MIXED,
                CONFIG_BETA_STABLE, CONFIG_TWO_IMAGINARY, CONFIG_BETA_UNSTABLE,
                CONFIG_MIXED, CONFIG_BETA_UNSTABLE, CONFIG_UNSTABLE_PAIRS,
            ),
            (
                CONFIG_COINCIDENT_STABLE, CONFIG_BETA_STABLE, CONFIG_MIXED,
                CONFIG_BETA_STABLE, CONFIG_DOUBLE_SEMISIMPLE, CONFIG_BETA_UNSTABLE,
                CONFIG_MIXED, CONFIG_BETA_UNSTABLE, CONFIG_COINCIDENT_UNSTABLE,
            ),
            (
                CONFIG_COINCIDENT_STABLE_NILPOTENT, CONFIG_BETA_STABLE, CONFIG_MIXED,
                CONFIG_BETA_STABLE, CONFIG_DOUBLE_NILPOTENT, CONFIG_BETA_UNSTABLE,
                CONFIG_MIXED, CONFIG_BETA_UNSTABLE, CONFIG_COINCIDENT_UNSTABLE_NILPOTENT,
            ),
        )
    ],
    dtype=np.int8,
)


# The verdict by annihilator rank 0..4, rank 4 on the imaginary axis read at 5.
_RANK_VERDICTS = np.array([_SEMISIMPLE, _ANOMALOUS, _NILPOTENT, _ANOMALOUS, _DISTINCT, _ANOMALOUS])


def _rank_verdict(svals, scale, tol, on_axis):
    """The annihilator-rank rule, the one home of the semisimple/nilpotent
    split.

    The rank of A^2 + u A + v id counts its singular values svals (all
    four, with multiplicity) above max(tol, 1e-12) scale.  Rank 0 is
    _SEMISIMPLE and rank 2 _NILPOTENT; rank 4 is _DISTINCT off the
    imaginary axis (two distinct pairs within the coincidence threshold)
    and _ANOMALOUS on it (on_axis), as is every odd rank: the premise of
    one double pair did not hold.  Python floats of one pair or (n,)
    columns.
    """
    threshold = max(tol, 1e-12) * scale
    rank = sum(s > threshold for s in svals)
    return _RANK_VERDICTS[rank + ((rank == 4) & on_axis)]


def _pair_split(n2, n3, n4):
    """D = sqrt(n3^2 + n4^2 - n2^2 + 2 i n2 n4) on the principal branch, the
    half-gap of the family's eigenvalue pair over t0 (_upper_pair), and the
    factor of F = (n1^2 - Im D^2)(n1^2 + Re D^2).  Python floats of one row
    or (n,) columns."""
    return np.sqrt((n3 * n3 + n4 * n4 - n2 * n2) + 2j * (n2 * n4))


_TINY = 2.0 ** -1022  # the smallest normal double, a Python float


def _family_annihilator(n1, n2, n3, n4, t0, nu5):
    """The two singular values, each twice, of the annihilator
    A^2 + u A + v id of w = t0 n1 + i nu5 (u = -2 Re w, v = |w|^2), and
    ||A||_2, for the canonical-family matrix A at t0 times the unit point
    (n1, n2, n3, n4) with weight nu5.

    A commutes with L, so on C^2, L acting as i, it is the 2x2 complex
    matrix w + t0 (0, i n4 - n2, i n3).sigma, sigma the Pauli matrices.
    Its annihilator is (A - w)(A - conj w) = -t0^2 D^2 + x.sigma with
    D^2 = r + i m = n3^2 + n4^2 - n2^2 + 2 i n2 n4 (_pair_split) and
    x = -2 nu5 t0 (0, n4 + i n2, n3).  A matrix c + x.sigma has the
    singular values s^2 = |c|^2 + |x|^2 +- |2 Re(conj(c) x) + i conj(x) * x|
    (* the cross product), each twice on R^4, and their product is
    |det| = |c^2 - x.x|.  So, with p = 2 |nu5| t0, q = t0^2 and
    W^2 = n2^2 + n3^2 + n4^2, the large one is the root of
    (q |D|^2)^2 + p^2 W^2 + 2 p sqrt((p n2 n3)^2 + (q n4 W^2)^2 + (q n3 r)^2),
    the small one q |D|^2 |q D^2 - 4 nu5^2| / large (0 on the axis, where
    both vanish), and ||A||_2^2 = |w|^2 + q W^2
    + 2 t0 sqrt((t0 n2 n3)^2 + (nu5 n4 - t0 n1 n2)^2 + (nu5 n3)^2).  No
    term cancels.  Built from arithmetic and powers only, so a row's
    Python floats stay Python floats; or (n,) columns.
    """
    p, q, v = 2.0 * abs(nu5) * t0, t0 * t0, nu5 * nu5
    s2, s3, s4 = n2 * n2, n3 * n3, n4 * n4
    w2, r, m2, t23 = s2 + s3 + s4, s3 + s4 - s2, 4.0 * s2 * s4, s2 * s3
    d4, e = r * r + m2, q * r - 4.0 * v  # |D|^4 = r^2 + m^2, q D^2 - 4 nu5^2 = e + i q m
    cross = (p * p * t23 + q * q * (s4 * w2 * w2 + s3 * r * r)) ** 0.5
    large = (q * q * d4 + p * p * w2 + 2.0 * p * cross) ** 0.5
    small = q * (d4 * (e * e + q * q * m2)) ** 0.5 / (large + _TINY)
    a1 = t0 * n1
    cross = (q * t23 + (nu5 * n4 - a1 * n2) ** 2 + v * s3) ** 0.5
    return large, small, (a1 * a1 + v + q * w2 + 2.0 * t0 * cross) ** 0.5


def _family_verdict(n1, n2, n3, n4, t0, nu5, tol):
    """_rank_verdict on the two pairs of the family matrix taken as one
    double pair at w = t0 n1 + i nu5: the closed-form singular values of
    _family_annihilator at the scale (1 + ||A||_2)^2, on the imaginary axis
    where |t0 n1| <= tol (1 + |w|).  Arguments as _family_annihilator."""
    large, small, norm = _family_annihilator(n1, n2, n3, n4, t0, nu5)
    a1 = t0 * n1
    on_axis = abs(a1) <= tol * (1.0 + (a1 * a1 + nu5 * nu5) ** 0.5)
    return _rank_verdict((large, large, small, small), (1.0 + norm) ** 2, tol, on_axis)


def _upper_pair(n1, n2, n3, n4, t0, nu5, tol):
    """The two eigenvalues above the real axis of the canonical-family
    matrix at t0 times the unit point (n1, n2, n3, n4) with weight nu5,
    and the verdict on them.

    They are hi, lo = t0 n1 + i(nu5 +- t0 D), D = _pair_split(n2, n3, n4).
    Where they coincide, a gap within CLUSTER_TOL_DEFAULT
    (1 + max |lambda|), the verdict is _family_verdict's, and a double pair
    (_SEMISIMPLE or _NILPOTENT) takes D = 0: hi = lo = the double root
    t0 n1 + i nu5.  Elsewhere the verdict is _DISTINCT.  Built from
    arithmetic, powers, abs, comparisons, np.sqrt, np.maximum and table
    lookups only, so the arguments may be Python floats of one row or (n,)
    columns; on columns _family_verdict runs on the coincident rows only.
    """
    d = _pair_split(n2, n3, n4)
    hi = t0 * n1 + 1j * (nu5 + t0 * d)
    lo = t0 * n1 + 1j * (nu5 + t0 * -d)
    coincident = abs(hi - lo) <= CLUSTER_TOL_DEFAULT * (1.0 + np.maximum(abs(hi), abs(lo)))
    if isinstance(n1, np.ndarray):
        rows = np.flatnonzero(coincident)
        verdict = np.zeros(len(n1), dtype=np.int8)  # one byte a row, as the config codes
        if len(rows):
            verdict[rows] = _family_verdict(n1[rows], n2[rows], n3[rows], n4[rows], t0, nu5, tol)
    else:
        verdict = coincident * _family_verdict(n1, n2, n3, n4, t0, nu5, tol)
    d = d * (verdict == _DISTINCT)
    hi = t0 * n1 + 1j * (nu5 + t0 * d)
    lo = t0 * n1 + 1j * (nu5 + t0 * -d)
    return hi, lo, verdict


def _pair_labels(hi, lo, verdict, tol):
    """What the eigenvalue pair hi, lo (and conjugates) with its verdict
    reads as, a real or imaginary part counting as zero within
    tol (1 + |lambda|).

    Returns whether an imaginary part reads as zero (no configuration
    applies), the config code (an index into CONFIG_NAMES, from
    _CONFIG_CODES), the count of stable eigenvalues and the max real part.
    One row or (n,) columns, as _upper_pair.
    """
    tol_hi, tol_lo = tol * (1.0 + abs(hi)), tol * (1.0 + abs(lo))
    unresolved = (abs(hi.imag) <= tol_hi) | (abs(lo.imag) <= tol_lo)
    s_hi = (hi.real > tol_hi) * 1 - (hi.real < -tol_hi) * 1
    s_lo = (lo.real > tol_lo) * 1 - (lo.real < -tol_lo) * 1
    stable_count = (s_hi < 0) * 2 + (s_lo < 0) * 2
    max_re = np.maximum(hi.real, lo.real)
    return unresolved, _CONFIG_CODES[verdict, 3 * s_hi + s_lo + 4], stable_count, max_re


# Relative real-part threshold of a sampled point's `stable` flag.
ZERO_RE_TOL_SAMPLED = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """Four eigenvalues, their coincidence clusters, and summary fields.

    double_pair is (u, v) when the two eigenvalues above the real axis
    share a cluster and read as one double pair: the characteristic
    polynomial is then (x^2 + u x + v)^2, and the eigenvalues are its
    roots, each double.  semisimple_double_pair is the annihilator-rank
    verdict on that pair (True: semisimple, False: nilpotent part
    present), None on a real double root, which reads no configuration.
    Both stay None otherwise, two distinct pairs within the coincidence
    threshold included.
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


_RANK_ANOMALOUS = "annihilator rank neither 0 nor 2, nor 4 off the imaginary axis"


def _pair_is_semisimple(A: Mat4, u: float, v: float, tol: float) -> bool | None:
    """True iff A, whose spectrum is the roots of x^2 + u x + v, each
    double, has no nilpotent part.

    _rank_verdict on the singular values of A^2 + u A + v id: True for
    rank 0, False for rank 2 (a rank-two nilpotent rides on top), None for
    rank 4 off the imaginary axis (|u| / 2 > tol (1 + sqrt v)), two
    distinct pairs within the coincidence threshold.  Anything else means
    the premise did not hold, raised as RankAnomalous.  Singular values
    are measured against (1 + ||A||)^2, the natural size of a quadratic
    polynomial in A: a threshold relative to the annihilator itself would
    report full rank for the numerically zero matrix, whose largest
    singular value is roundoff.
    """
    E = A.entries
    svals = np.linalg.svd(E @ E + u * E + v * np.eye(4), compute_uv=False)
    scale = (1.0 + float(np.linalg.norm(E, 2))) ** 2
    on_axis = abs(u) / 2.0 <= tol * (1.0 + math.sqrt(max(v, 0.0)))
    verdict = _rank_verdict(svals.tolist(), scale, tol, on_axis)
    if verdict == _ANOMALOUS:
        raise RankAnomalous(_RANK_ANOMALOUS)
    return {_SEMISIMPLE: True, _NILPOTENT: False, _DISTINCT: None}[verdict]


def is_semisimple_double_pair(A: Mat4, beta: float, tol: float) -> bool:
    """True iff A with spectrum {+-i beta (double)} has no nilpotent part."""
    return _pair_is_semisimple(A, 0.0, float(beta) ** 2, tol)


def spectrum(A: Mat4, tol: float) -> Spectrum:
    """Eigenvalues of A via the quartic of char_poly, plus clustering: roots
    within CLUSTER_TOL_DEFAULT (1 + max |root|) share a cluster.

    When the two eigenvalues above the real axis fall into one cluster,
    one annihilator-rank test (_pair_is_semisimple) decides whether they
    are one double pair.  If so, the pair is taken from the square root
    x^2 + u x + v of the characteristic polynomial: u and v come from its
    third- and second-order coefficients, which traces give accurately,
    while double roots of the quartic come out only to sqrt(eps).  Two
    distinct pairs keep the quartic's roots.  A real double root skips the
    test and keeps the square root's roots: no configuration applies.
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
        real = _im_is_zero(w, tol)
        flag = None if real else _pair_is_semisimple(A, u, v, tol)
        if real or flag is not None:
            roots = (w.conjugate(), w.conjugate(), w, w)
            pair = (u, v)
    return Spectrum(tuple(roots), clusters, max(z.real for z in roots), flag, pair)


def classify_configuration(A: Mat4, tol: float) -> EigConfig:
    """Name the two-pair eigenvalue configuration of A.

    Cascade: reject real/zero eigenvalues (UnresolvedConfiguration), read
    the sign of each pair's real part against the relative threshold
    tol*(1+|lambda|), and look the code up in _CONFIG_CODES by those signs
    and the spectrum's verdict on a coincident pair (semisimple, nilpotent,
    or two distinct pairs).  Everything is read from one spectrum.
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
    s_a, s_b = (0 if _re_is_zero(w, tol) else (-1 if w.real < 0.0 else 1) for w in upper)
    if sp.double_pair is None:
        verdict = _DISTINCT
    else:
        verdict = _SEMISIMPLE if sp.semisimple_double_pair else _NILPOTENT
    return EigConfig(CONFIG_NAMES[_CONFIG_CODES[verdict, 3 * s_a + s_b + 4]], stable_count, sp)
