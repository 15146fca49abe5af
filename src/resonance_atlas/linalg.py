"""Small dense linear-algebra kernel.

Everything downstream works with real 4x4 matrices: characteristic
polynomials come from the exact trace-power recurrence (no eigensolver),
quartic roots from a resolvent-cubic factorization polished by Newton
steps, and ranks from singular values.  The eight one-parameter generator
exponentials have closed forms because every generator squares to +id,
-id or is the identity itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePolynomial

__all__ = [
    "CLUSTER_TOL_DEFAULT",
    "Mat4",
    "PolyCoeffs",
    "RootSet",
    "char_poly",
    "commutator",
    "exp_generator",
    "frobenius_inner",
    "numeric_rank",
    "poly_eval",
    "quartic_roots",
]

# Relative coincidence threshold shared across the package, a constant and
# not a run setting: roots closer than CLUSTER_TOL_DEFAULT * (1 + max |root|)
# count as one cluster.  Configurations are read at the ray-interior scale,
# where every imaginary part lies in [|nu5|/2, 3 |nu5|/2], so one relative
# threshold fits every point and weight.
CLUSTER_TOL_DEFAULT = 1e-6


def _frozen_array(entries, shape, ctx):
    arr = np.array(entries, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{ctx}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{ctx}: entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Mat4:
    """Real 4x4 matrix with finite entries (immutable)."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, (4, 4), "Mat4"))

    @classmethod
    def zero(cls) -> "Mat4":
        return cls(np.zeros((4, 4)))

    @classmethod
    def identity(cls) -> "Mat4":
        return cls(np.eye(4))

    @property
    def T(self) -> "Mat4":
        return Mat4(self.entries.T)

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def __add__(self, other: "Mat4") -> "Mat4":
        return Mat4(self.entries + other.entries)

    def __sub__(self, other: "Mat4") -> "Mat4":
        return Mat4(self.entries - other.entries)

    def __neg__(self) -> "Mat4":
        return Mat4(-self.entries)

    def __mul__(self, scalar: float) -> "Mat4":
        return Mat4(self.entries * float(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat4") -> "Mat4":
        return Mat4(self.entries @ other.entries)

    def __repr__(self):
        return f"Mat4({self.entries.tolist()!r})"


@dataclass(frozen=True)
class PolyCoeffs:
    """Degree-4 polynomial coefficients (a4, a3, a2, a1, a0), descending powers."""

    a: tuple[float, float, float, float, float]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.a)
        if len(vals) != 5:
            raise ValueError("PolyCoeffs: need exactly 5 coefficients")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("PolyCoeffs: coefficients must be finite")
        object.__setattr__(self, "a", vals)

    @classmethod
    def from_ascending(cls, asc) -> "PolyCoeffs":
        """Build from (a0, a1, a2, a3, a4)."""
        return cls(tuple(reversed(tuple(asc))))

    def ascending(self) -> tuple[float, float, float, float, float]:
        return tuple(reversed(self.a))


@dataclass(frozen=True)
class RootSet:
    """Quartic roots plus the absolute residual |p(root)| for each."""

    roots: tuple[complex, complex, complex, complex]
    residuals: tuple[float, float, float, float]


# -- basic operations --------------------------------------------------------


def commutator(A: Mat4, B: Mat4) -> Mat4:
    return Mat4(A.entries @ B.entries - B.entries @ A.entries)


def frobenius_inner(A: Mat4, B: Mat4) -> float:
    """trace(A^T B); the block basis is orthogonal with squared norm 4."""
    return float(np.sum(A.entries * B.entries))


def char_poly(A: Mat4) -> PolyCoeffs:
    """Monic characteristic polynomial via the Newton-identity trace recurrence.

    Power sums p_k = tr(A^k) determine the elementary symmetric functions
    e_k of the eigenvalues without any root finding:

        e1 = p1,  2 e2 = e1 p1 - p2,  3 e3 = e2 p1 - e1 p2 + p3,
        4 e4 = e3 p1 - e2 p2 + e1 p3 - p4

    and det(lambda*id - A) = lambda^4 - e1 lambda^3 + e2 lambda^2
    - e3 lambda + e4.
    """
    E = A.entries
    E2 = E @ E
    E3 = E2 @ E
    E4 = E3 @ E
    p1 = float(np.trace(E))
    p2 = float(np.trace(E2))
    p3 = float(np.trace(E3))
    p4 = float(np.trace(E4))
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0
    return PolyCoeffs((1.0, -e1, e2, -e3, e4))


def poly_eval(p: PolyCoeffs, z: complex) -> complex:
    """Horner evaluation of p at z."""
    acc = 0.0 + 0.0j
    for c in p.a:
        acc = acc * z + c
    return acc


def _poly_eval_pair(coeffs, z):
    """Value and derivative at z for monic descending coeffs (Horner)."""
    val = 0.0 + 0.0j
    der = 0.0 + 0.0j
    for c in coeffs:
        der = der * z + val
        val = val * z + c
    return val, der


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _resolvent_root(b, c, d):
    """The real root of z^3 + b z^2 + c z + d of largest modulus (Cardano /
    trig branch)."""
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        s = math.sqrt(disc)
        return _cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s) - b / 3.0
    if p == 0.0:
        return _cbrt(-q) - b / 3.0
    # three real roots: the k = 0 trig root is the largest, k = 2 the smallest
    r = math.sqrt(-p / 3.0)
    phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (2.0 * p * r))))
    hi = 2.0 * r * math.cos(phi / 3.0) - b / 3.0
    lo = 2.0 * r * math.cos((phi + 2.0 * math.pi) / 3.0) - b / 3.0
    return hi if abs(hi) >= abs(lo) else lo


def _solve_quadratic(b, c):
    """Roots of y^2 + b y + c with a cancellation-safe complex formula."""
    disc = cmath.sqrt(complex(b * b - 4.0 * c))
    # pick the sign that avoids subtracting nearly equal quantities
    if (b.real if isinstance(b, complex) else b) >= 0.0:
        qq = -(b + disc) / 2.0
    else:
        qq = -(b - disc) / 2.0
    if qq == 0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    return qq, c / qq


def quartic_roots(p: PolyCoeffs, tol: float) -> RootSet:
    """All four complex roots of p, residual-checked.

    Strategy: depress the quartic, split it into two quadratics through a
    real root of the resolvent cubic, take the stable quadratic formula,
    then polish every root with a few Newton steps on the original
    polynomial and restore exact conjugate symmetry by averaging matched
    pairs.  Raises DegeneratePolynomial when a4 == 0.  Root multiplicity is
    not decided here; callers cluster the returned roots themselves.
    """
    a4, a3, a2, a1, a0 = p.a
    if a4 == 0.0:
        raise DegeneratePolynomial("leading coefficient a4 is zero")
    b, c, d, e = a3 / a4, a2 / a4, a1 / a4, a0 / a4

    # depressed quartic y^4 + P y^2 + Q y + R, with lambda = y - b/4
    P = c - 3.0 * b * b / 8.0
    Q = d - b * c / 2.0 + b ** 3 / 8.0
    R = e - b * d / 4.0 + b * b * c / 16.0 - 3.0 * b ** 4 / 256.0

    scale = 1.0 + abs(P) + abs(R)
    if abs(Q) <= 1e-14 * scale:
        # biquadratic: solve for y^2 directly
        y2a, y2b = _solve_quadratic(P, R)
        ra, rb = cmath.sqrt(y2a), cmath.sqrt(y2b)
        ys = [ra, -ra, rb, -rb]
    else:
        # Split into (y^2 + alpha y + beta)(y^2 - alpha y + gamma) through a
        # root m = alpha^2 / 2 of the resolvent m^3 + P m^2 + (P^2/4 - R) m
        # - Q^2/8.  The real root of largest modulus keeps Q / (2 alpha)
        # small; a small positive root is ill-determined next to coincident
        # pairs, where two roots of the resolvent nearly meet.
        m = _resolvent_root(P, P * P / 4.0 - R, -Q * Q / 8.0)
        if m > 0.0:
            alpha = math.sqrt(2.0 * m)
            beta = P / 2.0 + m - Q / (2.0 * alpha)
            gamma = P / 2.0 + m + Q / (2.0 * alpha)
            ys = list(_solve_quadratic(alpha, beta)) + list(_solve_quadratic(-alpha, gamma))
        else:
            # alpha = i s: the two quadratics are conjugate, and y = i x
            # turns the first into x^2 + s x - beta
            s = math.sqrt(-2.0 * m)
            xs = _solve_quadratic(s, -complex(P / 2.0 + m, Q / (2.0 * s)))
            ys = [1j * x for x in xs] + [(1j * x).conjugate() for x in xs]

    shift = b / 4.0
    monic = (1.0, b, c, d, e)
    roots = []
    for y in ys:
        z = y - shift
        val, der = _poly_eval_pair(monic, z)
        for _ in range(3):
            if der == 0:
                break
            z2 = z - val / der
            v2, d2 = _poly_eval_pair(monic, z2)
            if abs(v2) >= abs(val):
                break
            z, val, der = z2, v2, d2
        roots.append(z)

    roots = _pair_conjugates(roots)
    residuals = tuple(abs(poly_eval(p, z)) for z in roots)
    return RootSet(tuple(roots), residuals)


def _pair_conjugates(roots):
    """Force the root multiset to be closed under conjugation.

    Real-coefficient quartics have conjugate-symmetric roots; floating
    error breaks the symmetry at machine level.  Split the imag-sorted
    roots into lower/upper halves, match the halves by conjugate
    proximity, and average each genuinely matched pair.
    """
    rs = sorted(roots, key=lambda z: (z.imag, z.real))
    lo, hi = rs[:2], rs[2:]

    def dist(i, j):
        return abs(hi[i] - lo[j].conjugate())

    if dist(0, 0) + dist(1, 1) <= dist(0, 1) + dist(1, 0):
        pairs = [(0, 0), (1, 1)]
    else:
        pairs = [(0, 1), (1, 0)]
    out = [None] * 4
    for i, j in pairs:
        near = 1e-6 * (1.0 + abs(hi[i]) + abs(lo[j]))
        if dist(i, j) <= near:
            w = (hi[i] + lo[j].conjugate()) / 2.0
            out[2 + i] = w
            out[j] = w.conjugate()
        else:
            out[2 + i] = hi[i]
            out[j] = lo[j]
    return sorted(out, key=lambda z: (z.imag, z.real))


def numeric_rank(A: Mat4, tol: float) -> int:
    """Number of singular values above tol * sigma_max."""
    if tol <= 0.0:
        raise ValueError("numeric_rank: tol must be positive")
    sv = np.linalg.svd(A.entries, compute_uv=False)
    smax = float(sv[0])
    if smax == 0.0:
        return 0
    return int(np.sum(sv > tol * smax))


# -- generator exponentials ---------------------------------------------------

_I2 = _frozen_array([[1.0, 0.0], [0.0, 1.0]], (2, 2), "I2")
_R2 = _frozen_array([[1.0, 0.0], [0.0, -1.0]], (2, 2), "R")
_T2 = _frozen_array([[0.0, 1.0], [1.0, 0.0]], (2, 2), "T")
_J2 = _frozen_array([[0.0, 1.0], [-1.0, 0.0]], (2, 2), "J")


def _blk(tl, tr, bl, br):
    return np.block([[tl, tr], [bl, br]])


_Z2 = np.zeros((2, 2))

# commuting family M1..M8 (index 0 unused)
_GENERATORS = {
    1: _blk(_I2, _Z2, _Z2, _I2),
    2: _blk(_R2, _Z2, _Z2, _R2),
    3: _blk(_T2, _Z2, _Z2, _T2),
    4: _blk(_Z2, _J2, -_J2, _Z2),
    5: _blk(_Z2, _I2, -_I2, _Z2),
    6: _blk(_Z2, _R2, -_R2, _Z2),
    7: _blk(_Z2, _T2, -_T2, _Z2),
    8: _blk(_J2, _Z2, _Z2, _J2),
}

# anti-commuting complement P1..P8
_COMPLEMENT = {
    1: _blk(_I2, _Z2, _Z2, -_I2),
    2: _blk(_R2, _Z2, _Z2, -_R2),
    3: _blk(_T2, _Z2, _Z2, -_T2),
    4: _blk(_Z2, _J2, _J2, _Z2),
    5: _blk(_Z2, _I2, _I2, _Z2),
    6: _blk(_Z2, _R2, _R2, _Z2),
    7: _blk(_Z2, _T2, _T2, _Z2),
    8: _blk(_J2, _Z2, _Z2, -_J2),
}


def exp_generator(i: int, t: float) -> Mat4:
    """exp(t * M_i) in closed form.

    M1 = id gives e^t id; M2, M3, M4 square to +id (cosh/sinh); M5..M8
    square to -id (cos/sin).
    """
    if i not in _GENERATORS:
        raise ValueError(f"exp_generator: index must be 1..8, got {i}")
    t = float(t)
    if i == 1:
        return Mat4(math.exp(t) * np.eye(4))
    if i in (2, 3, 4):
        ci, si = math.cosh(t), math.sinh(t)
    else:
        ci, si = math.cos(t), math.sin(t)
    return Mat4(ci * np.eye(4) + si * _GENERATORS[i])
