"""Critical set of the reduced unfolding and the ruled surface it cuts
out of the parameter 3-sphere.

The characteristic polynomial of the 5-parameter canonical family has an
eigenvalue on the imaginary axis exactly on the zero set of

    F(nu1..nu4) = (nu1^2 - nu2^2)(nu1^2 + nu4^2) + nu1^2 nu3^2,

a homogeneous quartic whose intersection with the unit 3-sphere is, on
each hemisphere nu3 >< 0, a Pluecker-conoid-style ruled surface.  This
module carries F, its sphere-restricted companion G, the discriminant
identity tying them to the quartic coefficients, the conoid
parameterization, analytic gradient/Hessian, and sampled residual checks
for the local normal forms (self-tangency and Whitney umbrella) at the
distinguished points of the surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ReducedCoords, homogeneous_reduced
from .errors import DomainError
from .linalg import Mat4, PolyCoeffs, char_poly

__all__ = [
    "F_critical",
    "G_full",
    "G_sphere",
    "NormalFormReport",
    "P_POINTS",
    "RootTriple",
    "SpherePoint",
    "check_unit_rows",
    "f_surface",
    "grad_F",
    "hessian_F",
    "normal_form_residual",
    "param_phi",
    "param_phi_array",
    "phi_coeffs",
    "psi",
    "unit_point",
]

TWO_PI = 2.0 * math.pi
SQRT_HALF = math.sqrt(0.5)
UNIT_NORM_TOL = 1e-12  # how far a SpherePoint's norm may sit from 1

# distinguished zero-dimensional points of the critical surface, exact
P_POINTS = {
    "P1": (0.0, SQRT_HALF, SQRT_HALF, 0.0),
    "P2": (0.0, -SQRT_HALF, SQRT_HALF, 0.0),
    "P3": (0.0, SQRT_HALF, -SQRT_HALF, 0.0),
    "P4": (0.0, -SQRT_HALF, -SQRT_HALF, 0.0),
    "P5": (0.0, 0.0, 1.0, 0.0),
    "P6": (0.0, 0.0, -1.0, 0.0),
}


def _normalize_disc(disc) -> int:
    if disc in (1, +1, "+", "plus"):
        return 1
    if disc in (-1, "-", "minus"):
        return -1
    raise ValueError(f"disc must be +1/-1 (or 'plus'/'minus'), got {disc!r}")


@dataclass(frozen=True, eq=False)
class SpherePoint:
    """Unit vector (nu1, nu2, nu3, nu4) tagged with its hemisphere.

    The tag says which hemisphere chart (sign of nu3) the point is worked
    in; points on the equator nu3 = 0 accept either tag.
    """

    nu4: np.ndarray
    disc: int = 0  # 0 means "derive from sign(nu3)"

    def __post_init__(self):
        arr = np.array(self.nu4, dtype=float)
        if arr.shape != (4,):
            raise ValueError(f"SpherePoint: expected 4 coordinates, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("SpherePoint: coordinates must be finite")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(
                f"SpherePoint: |norm - 1| = {abs(norm - 1.0):.3e} > {UNIT_NORM_TOL:g}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "nu4", arr)
        d = self.disc
        if d == 0:
            d = 1 if arr[2] >= 0.0 else -1
        object.__setattr__(self, "disc", _normalize_disc(d))


def unit_point(coords, disc=0) -> SpherePoint:
    """Normalize arbitrary nonzero coordinates onto the sphere."""
    arr = np.array(coords, dtype=float)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("unit_point: coordinates must be nonzero and finite")
    return SpherePoint(arr / norm, disc)


@dataclass(frozen=True)
class RootTriple:
    """Spectrum shape (alpha +- i beta, +- i gamma) fed to psi."""

    alpha: float
    beta: float
    gamma: float


def psi(r: RootTriple) -> PolyCoeffs:
    """Monic quartic with roots alpha +- i beta and +- i gamma.

    ((x - alpha)^2 + beta^2)(x^2 + gamma^2), returned in descending order.
    """
    a, b, g = float(r.alpha), float(r.beta), float(r.gamma)
    s = a * a + b * b
    g2 = g * g
    return PolyCoeffs((1.0, -2.0 * a, s + g2, -2.0 * a * g2, s * g2))


def f_surface(p: PolyCoeffs) -> float:
    """Resultant-style form that vanishes iff the quartic has a root pair
    summing to zero: f = a0 a3^2 + a4 a1^2 - a1 a2 a3."""
    a4, a3, a2, a1, a0 = p.a
    return a0 * a3 * a3 + a4 * a1 * a1 - a1 * a2 * a3


def phi_coeffs(nu: ReducedCoords) -> PolyCoeffs:
    """Characteristic coefficients of the homogeneous canonical family."""
    return char_poly(homogeneous_reduced(nu))


def F_critical(nu):
    """(nu1^2 - nu2^2)(nu1^2 + nu4^2) + nu1^2 nu3^2, broadcasting over
    leading axes of an (..., 4) array.  One (4,) vector is evaluated on
    Python floats and gives a float."""
    v = np.asarray(nu, dtype=float)
    if v.shape == (4,):
        n1, n2, n3, n4 = v.tolist()
    else:
        n1, n2, n3, n4 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    s = n1 * n1
    return (s - n2 * n2) * (s + n4 * n4) + s * n3 * n3


def G_full(nu: ReducedCoords) -> float:
    """f of the characteristic coefficients, in closed form:
    G = -64 (nu1^2 + nu5^2) F(nu1..nu4)."""
    v = nu.nu
    return -64.0 * (v[0] * v[0] + v[4] * v[4]) * F_critical(v[:4])


def G_sphere(nu):
    """Restriction companion of F on the unit sphere:
    nu1^2 - 2 nu1^2 nu2^2 - nu2^2 nu4^2 (same zero set given
    nu3^2 = 1 - nu1^2 - nu2^2 - nu4^2).  Broadcasts like F_critical."""
    v = np.asarray(nu, dtype=float)
    n1, n2, n4 = v[..., 0], v[..., 1], v[..., 3]
    out = n1 * n1 - 2.0 * n1 * n1 * n2 * n2 - n2 * n2 * n4 * n4
    return float(out) if out.ndim == 0 else out


def grad_F(nu) -> np.ndarray:
    """Analytic gradient of F_critical, broadcasting over leading axes of
    an (..., 4) array like F_critical; the result has the input's shape."""
    v = np.asarray(nu, dtype=float)
    n1, n2, n3, n4 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    return np.stack(
        [
            2.0 * n1 * (2.0 * n1 * n1 + n3 * n3 + n4 * n4 - n2 * n2),
            -2.0 * n2 * (n1 * n1 + n4 * n4),
            2.0 * n3 * n1 * n1,
            2.0 * n4 * (n1 * n1 - n2 * n2),
        ],
        axis=-1,
    )


def hessian_F(nu) -> np.ndarray:
    """Analytic Hessian of F_critical at a single point.

    At (0, 0, s, t) this is diag(2(s^2 + t^2), -2t^2, 0, 0); at
    (0, s, t, 0) it is diag(2(t^2 - s^2), 0, 0, -2s^2) — an indefinite
    form for t^2 > s^2, which is what makes those self-intersections
    transverse.
    """
    v = np.asarray(nu, dtype=float).reshape(4)
    n1, n2, n3, n4 = v
    H = np.zeros((4, 4))
    H[0, 0] = 12.0 * n1 * n1 - 2.0 * n2 * n2 + 2.0 * n3 * n3 + 2.0 * n4 * n4
    H[0, 1] = H[1, 0] = -4.0 * n1 * n2
    H[0, 2] = H[2, 0] = 4.0 * n1 * n3
    H[0, 3] = H[3, 0] = 4.0 * n1 * n4
    H[1, 1] = -2.0 * (n1 * n1 + n4 * n4)
    H[1, 3] = H[3, 1] = -4.0 * n2 * n4
    H[2, 2] = 2.0 * n1 * n1
    H[3, 3] = 2.0 * (n1 * n1 - n2 * n2)
    return H


def param_phi(disc, s: float, t: float) -> SpherePoint:
    """Ruled-surface chart phi(s, t) on the hemisphere picked by disc.

    (nu1, nu2, nu4) = (sqrt(1/2) s cos t, sqrt(1/2) cos t, s sin t) with
    nu3 completing the unit norm; the closed form
    nu3^2 = (1 - s^2)(2 - cos^2 t)/2 keeps the completion exact.  Domain
    is the closed rectangle s in [-1, 1], t in [0, 2 pi]; outside raises
    DomainError.  The map is two-to-one along t = pi/2 ~ 3 pi/2 (with s
    flipped) and along the s = 0 line (t ~ 2 pi - t).  A one-point call of
    param_phi_array.
    """
    d = _normalize_disc(disc)
    return SpherePoint(param_phi_array(d, float(s), float(t)), d)


def param_phi_array(disc, s, t) -> np.ndarray:
    """param_phi over broadcast arrays of s and t, as an (..., 4) array.

    Same domain checks (DomainError naming the first value outside) and
    the same arithmetic as the one-point chart, so each row equals
    param_phi(disc, s, t).nu4 bit for bit.  Rows are not validated as
    SpherePoints; callers that need that check them with check_unit_rows.
    """
    d = _normalize_disc(disc)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    bad = ~((s >= -1.0) & (s <= 1.0))
    if bad.any():
        raise DomainError(f"param_phi: s = {float(s[bad].flat[0])} outside [-1, 1]")
    bad = ~((t >= 0.0) & (t <= TWO_PI + 1e-12))
    if bad.any():
        raise DomainError(f"param_phi: t = {float(t[bad].flat[0])} outside [0, 2*pi]")
    s, t = np.broadcast_arrays(s, t)
    ct, st = np.cos(t), np.sin(t)
    n3_sq = np.maximum(0.0, (1.0 - s * s) * (2.0 - ct * ct) / 2.0)
    return np.stack([SQRT_HALF * s * ct, SQRT_HALF * ct, d * np.sqrt(n3_sq), s * st], axis=-1)


def check_unit_rows(v: np.ndarray) -> None:
    """SpherePoint's rule on every row of an (n, 4) array: finite, with
    |norm - 1| <= UNIT_NORM_TOL, the norm of each row as SpherePoint takes
    it bit for bit (np.linalg.norm(v, axis=1) differs in the last place on
    some rows).  Raises ValueError for the first row that breaks it."""
    if not np.isfinite(v).all():
        row = np.argmin(np.isfinite(v).all(axis=1))
        raise ValueError(f"SpherePoint: coordinates must be finite (row {row})")
    dev = np.abs(np.sqrt(np.vecdot(v, v)) - 1.0)
    if not v.flags.c_contiguous:
        # np.vecdot sums in another order on rows that are not C-contiguous,
        # which moves a norm by an ulp or two: rows near the bound take
        # their norm from a C copy
        near = np.flatnonzero(np.abs(dev - UNIT_NORM_TOL) < 1e-14)
        if len(near):
            rows = np.ascontiguousarray(v[near])
            dev[near] = np.abs(np.sqrt(np.vecdot(rows, rows)) - 1.0)
    bad = np.flatnonzero(dev > UNIT_NORM_TOL)
    if len(bad):
        raise ValueError(
            f"SpherePoint: |norm - 1| = {dev[bad[0]]:.3e} > {UNIT_NORM_TOL:g} (row {bad[0]})"
        )


# -- local normal forms -------------------------------------------------------


@dataclass(frozen=True)
class NormalFormReport:
    kind: str
    center: str
    radius: float
    n_samples: int
    max_residual: float
    residuals: tuple[float, ...]


def _bisect(fn, lo, hi, tol=1e-14):
    """Plain bisection for a sign change of fn on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _match_p_point(center: SpherePoint) -> str:
    for name, coords in P_POINTS.items():
        if np.max(np.abs(center.nu4 - np.array(coords))) <= 1e-9:
            return name
    raise DomainError("normal_form_residual: center is not one of the P points")


def normal_form_residual(kind: str, center: SpherePoint, radius: float) -> NormalFormReport:
    """Sampled residual of the local normal form at a distinguished point.

    kind 'self-tangency' (centers P5/P6): in the chart (x, y, z) =
    (nu1, nu2, nu4), G = x^2 (1 - 2 y^2) - y^2 z^2 becomes xi^2 - eta^2
    zeta^2 under xi = x sqrt(1 - 2 y^2), eta = y, zeta = z.

    kind 'umbrella' (centers P1..P4): with nu2 = sgn(nu2_c) (sqrt(1/2) - y),
    G becomes xi^2 eta - zeta^2 under xi = 2 x sqrt(1 - sqrt(1/2) y),
    eta = sqrt(1/2) y, zeta = z sqrt(1/2 - sqrt(2) y + y^2).

    The zero set is sampled by bisection of G along chart lines (to 1e-14)
    inside the given radius and the normal-form expression is evaluated at
    every sample; the report carries all residuals and their max.  Raises
    DomainError for radius > 0.1 (the changes are only certified
    nonsingular near the center) or for a center/kind mismatch.
    """
    if radius <= 0.0 or radius > 0.1:
        raise DomainError("normal_form_residual: radius must lie in (0, 0.1]")
    name = _match_p_point(center)
    residuals: list[float] = []

    if kind == "self-tangency":
        if name not in ("P5", "P6"):
            raise DomainError(f"self-tangency form lives at P5/P6, not {name}")
        # chart centered at (0, 0, +-1, 0); x = nu1, y = nu2, z = nu4
        n_dir, n_rad = 16, 5
        for k in range(n_dir):
            ang = TWO_PI * (k + 0.5) / n_dir
            for q in range(1, n_rad + 1):
                rho = 0.7 * radius * q / n_rad
                y, z = rho * math.cos(ang), rho * math.sin(ang)

                def g(x, y=y, z=z):
                    return x * x * (1.0 - 2.0 * y * y) - y * y * z * z

                x = _bisect(lambda u: g(u), 0.0, radius)
                if x is None:
                    continue
                for xs in (x, -x):
                    xi = xs * math.sqrt(1.0 - 2.0 * y * y)
                    residuals.append(abs(xi * xi - y * y * z * z))
    elif kind == "umbrella":
        if name not in ("P1", "P2", "P3", "P4"):
            raise DomainError(f"umbrella form lives at P1..P4, not {name}")
        sgn = 1.0 if center.nu4[1] > 0 else -1.0
        n_grid = 7
        offsets = [radius * (q + 1) / (n_grid + 1) for q in range(n_grid)]
        for x in [o * 0.6 for o in offsets] + [-o * 0.6 for o in offsets]:
            for y in [o * 0.6 for o in offsets]:
                nu2 = sgn * (SQRT_HALF - y)

                def g(z, x=x, nu2=nu2):
                    return x * x * (1.0 - 2.0 * nu2 * nu2) - nu2 * nu2 * z * z

                z = _bisect(lambda u: g(u), 0.0, radius)
                if z is None:
                    continue
                xi = 2.0 * x * math.sqrt(1.0 - SQRT_HALF * y)
                eta = SQRT_HALF * y
                zeta = z * math.sqrt(0.5 - math.sqrt(2.0) * y + y * y)
                residuals.append(abs(xi * xi * eta - zeta * zeta))
        # the handle side (y < 0) is the zero-set line x = z = 0
        for y in offsets:
            xi, eta, zeta = 0.0, SQRT_HALF * (-y), 0.0
            residuals.append(abs(xi * xi * eta - zeta * zeta))
    else:
        raise DomainError(f"unknown normal form kind {kind!r}")

    if not residuals:
        raise DomainError("normal_form_residual: no zero-set samples inside radius")
    return NormalFormReport(
        kind=kind,
        center=name,
        radius=float(radius),
        n_samples=len(residuals),
        max_residual=float(max(residuals)),
        residuals=tuple(residuals),
    )
