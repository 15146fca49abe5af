"""The commuting family around the resonant generator and its unfoldings.

L = [[0, id], [-id, 0]] has a semisimple double pair of eigenvalues +-i.
Its centralizer in gl(4, R) is spanned by eight block matrices M1..M8
(with M1 = id and M5 = L); the Frobenius-orthogonal complement is spanned
by eight more, P1..P8.  Conjugation by the one-parameter groups of M6,
M7, M8 acts on centralizer coordinates by plane rotations, which is what
reduce_to_canonical exploits to push any unfolding into the 5-parameter
canonical form with coefficients (nu1..nu5) on (M1, M4, M6, M8, M5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DecompositionFailure
from .linalg import Mat4, exp_generator, frobenius_inner
from .linalg import _COMPLEMENT, _GENERATORS, _I2, _J2, _R2, _T2

__all__ = [
    "BasisSet",
    "CentralizerCoords",
    "ReducedCoords",
    "adjoint_action",
    "basis",
    "centralizer_coefficients",
    "centralizer_unfolding",
    "commutator_table",
    "embed",
    "homogeneous_reduced",
    "homogeneous_unfolding",
    "reduce_to_canonical",
    "reduced_unfolding",
]

# centralizer indices that still move under conjugation (M1, M5 are central)
ROTATING_INDICES = (2, 3, 4, 6, 7, 8)


@dataclass(frozen=True)
class BasisSet:
    """The sixteen block matrices, keyed 1..8, plus the read-only 2x2
    building blocks."""

    M: Mapping[int, Mat4]
    P: Mapping[int, Mat4]
    L: Mat4
    I2: np.ndarray
    R: np.ndarray
    T: np.ndarray
    J: np.ndarray


@dataclass(frozen=True, eq=False)
class CentralizerCoords:
    """Coordinates mu = (mu1..mu8) of sum mu_i M_i."""

    mu: np.ndarray

    def __post_init__(self):
        arr = np.array(self.mu, dtype=float)
        if arr.shape != (8,):
            raise ValueError(f"CentralizerCoords: expected 8 values, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("CentralizerCoords: values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "mu", arr)

    @property
    def x(self) -> np.ndarray:
        """The (mu2, mu3, mu4) block."""
        return self.mu[1:4]

    @property
    def y(self) -> np.ndarray:
        """The (mu6, mu7, mu8) block."""
        return self.mu[5:8]


@dataclass(frozen=True, eq=False)
class ReducedCoords:
    """Canonical coordinates nu = (nu1..nu5) on (M1, M4, M6, M8, M5)."""

    nu: np.ndarray

    def __post_init__(self):
        arr = np.array(self.nu, dtype=float)
        if arr.shape != (5,):
            raise ValueError(f"ReducedCoords: expected 5 values, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("ReducedCoords: values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "nu", arr)


@lru_cache(maxsize=1)
def basis() -> BasisSet:
    M = MappingProxyType({i: Mat4(_GENERATORS[i]) for i in range(1, 9)})
    P = MappingProxyType({i: Mat4(_COMPLEMENT[i]) for i in range(1, 9)})
    return BasisSet(M=M, P=P, L=M[5], I2=_I2, R=_R2, T=_T2, J=_J2)


def homogeneous_unfolding(mu: CentralizerCoords) -> Mat4:
    """sum_i mu_i M_i (the linear part only)."""
    B = basis()
    acc = np.zeros((4, 4))
    for i in range(1, 9):
        acc = acc + mu.mu[i - 1] * B.M[i].entries
    return Mat4(acc)


def centralizer_unfolding(mu: CentralizerCoords) -> Mat4:
    """L + sum_i mu_i M_i."""
    return Mat4(basis().L.entries + homogeneous_unfolding(mu).entries)


def embed(nu: ReducedCoords) -> CentralizerCoords:
    """Place (nu1..nu5) on the (M1, M4, M6, M8, M5) slots of mu."""
    mu = np.zeros(8)
    mu[0] = nu.nu[0]
    mu[3] = nu.nu[1]
    mu[5] = nu.nu[2]
    mu[7] = nu.nu[3]
    mu[4] = nu.nu[4]
    return CentralizerCoords(mu)


def homogeneous_reduced(nu: ReducedCoords) -> Mat4:
    return homogeneous_unfolding(embed(nu))


def reduced_unfolding(nu: ReducedCoords) -> Mat4:
    return centralizer_unfolding(embed(nu))


def centralizer_coefficients(A: Mat4) -> tuple[np.ndarray, float]:
    """Coefficients of A in the M basis plus the off-span residual.

    The M_i are mutually Frobenius-orthogonal with <M_i, M_i> = 4, so the
    coefficient on M_i is <M_i, A>/4.  The residual is the sup-norm of
    what remains after subtracting the projection.
    """
    B = basis()
    coeffs = np.array([frobenius_inner(B.M[i], A) / 4.0 for i in range(1, 9)])
    recon = np.zeros((4, 4))
    for i in range(1, 9):
        recon = recon + coeffs[i - 1] * B.M[i].entries
    residual = float(np.max(np.abs(A.entries - recon)))
    return coeffs, residual


def commutator_table() -> dict[tuple[int, int], tuple[float, int]]:
    """All brackets [M_i, M_j] for i, j in {2,3,4,6,7,8}, decomposed.

    Each bracket is either zero or +-2 M_k for a single k; the entry is
    (coefficient, k), with (0.0, 0) for vanishing brackets.  Raises
    DecompositionFailure if a bracket fails to land back in the span (it
    never does; the check guards the basis construction).
    """
    B = basis()
    table: dict[tuple[int, int], tuple[float, int]] = {}
    for i in ROTATING_INDICES:
        for j in ROTATING_INDICES:
            A = Mat4(B.M[i].entries @ B.M[j].entries - B.M[j].entries @ B.M[i].entries)
            coeffs, residual = centralizer_coefficients(A)
            if residual > 1e-9:
                raise DecompositionFailure(
                    f"[M{i}, M{j}] leaves the centralizer span (residual {residual:g})"
                )
            nonzero = np.nonzero(np.abs(coeffs) > 1e-9)[0]
            if len(nonzero) == 0:
                table[(i, j)] = (0.0, 0)
            elif len(nonzero) == 1:
                k = int(nonzero[0]) + 1
                table[(i, j)] = (float(coeffs[k - 1]), k)
            else:
                raise DecompositionFailure(
                    f"[M{i}, M{j}] spreads over several basis elements"
                )
    return table


def _rotate(v: np.ndarray, axis: int, theta: float) -> np.ndarray:
    """Rotate a 3-vector about coordinate axis 0, 1 or 2."""
    c, s = math.cos(theta), math.sin(theta)
    out = v.copy()
    if axis == 0:
        out[1] = c * v[1] - s * v[2]
        out[2] = s * v[1] + c * v[2]
    elif axis == 1:
        out[0] = c * v[0] + s * v[2]
        out[2] = -s * v[0] + c * v[2]
    else:
        out[0] = c * v[0] - s * v[1]
        out[1] = s * v[0] + c * v[1]
    return out


def adjoint_action(k: int, t: float, alpha: CentralizerCoords) -> CentralizerCoords:
    """Coordinates of exp(-t M_k) (sum alpha_i M_i) exp(t M_k), k in {6,7,8}.

    Conjugation acts by plane rotations on x = (mu2, mu3, mu4) and
    y = (mu6, mu7, mu8): k=6 rotates about the first axis (angle -2t on x,
    +2t on y), k=7 about the second axis (same angle split), k=8 about the
    third axis (+2t on both).  mu1 and mu5 never move.
    """
    if k not in (6, 7, 8):
        raise ValueError(f"adjoint_action: k must be 6, 7 or 8, got {k}")
    x = np.array(alpha.x)
    y = np.array(alpha.y)
    if k == 6:
        x = _rotate(x, 0, -2.0 * t)
        y = _rotate(y, 0, 2.0 * t)
    elif k == 7:
        x = _rotate(x, 1, -2.0 * t)
        y = _rotate(y, 1, 2.0 * t)
    else:
        x = _rotate(x, 2, 2.0 * t)
        y = _rotate(y, 2, 2.0 * t)
    mu = np.array(alpha.mu)
    mu[1:4] = x
    mu[5:8] = y
    return CentralizerCoords(mu)


def reduce_to_canonical(mu: CentralizerCoords, tol: float) -> tuple[ReducedCoords, Mat4]:
    """Rotate an unfolding into canonical (nu1..nu5) form.

    Returns (nu, g) with g = exp(t6 M6) exp(t7 M7) exp(t8 M8) such that
    conjugating the homogeneous part of mu by g gives the canonical form:
    x = (mu2, mu3, mu4) is aligned to ||x|| times the M4 direction
    (nu2 >= 0), then y = (mu6, mu7, mu8) is rotated about the third axis
    into the (M6, M8) plane with nu3 >= 0; nu1 = mu1 and nu5 = mu5 ride
    along untouched.  Rotation angles come from atan2, so the degenerate
    inputs (x = 0, or y = 0) reduce with g built from fewer factors.
    """
    work = mu
    angles = []

    x = work.x
    if float(np.linalg.norm(x)) <= tol:
        # nothing to align; rotate only y below
        t6 = 0.0
        t7 = 0.0
    else:
        t6 = -0.5 * math.atan2(x[1], x[2])
        work = adjoint_action(6, t6, work)
        x = work.x
        t7 = 0.5 * math.atan2(x[0], x[2])
        work = adjoint_action(7, t7, work)
    angles.append((6, t6))
    angles.append((7, t7))

    y = work.y
    if float(np.linalg.norm(y)) <= tol:
        t8 = 0.0
    else:
        t8 = -0.5 * math.atan2(y[1], y[0])
        work = adjoint_action(8, t8, work)
    angles.append((8, t8))

    g = np.eye(4)
    for k, t in angles:
        g = g @ exp_generator(k, t).entries

    m = work.mu
    nu = ReducedCoords(np.array([m[0], m[3], m[5], m[7], m[4]]))
    return nu, Mat4(g)
