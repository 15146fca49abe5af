"""Independent reference implementations the tests check the package against.

Everything here is deliberately different from the package internals:
eigenvalues come from LAPACK instead of the resolvent cubic, polynomial
coefficients from root products instead of trace recurrences, exponentials
from scaling-and-squaring Taylor summation instead of closed forms, and
derivatives from central differences instead of hand-written formulas.
Slow is fine; different is the point.
"""

from __future__ import annotations

import itertools

import numpy as np


def matrix_exp(a: np.ndarray, order: int = 18) -> np.ndarray:
    """Scaling-and-squaring Taylor series for exp(a)."""
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a, np.inf))
    squarings = 0
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    b = a / (2.0 ** squarings)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, order + 1):
        term = term @ b / float(k)
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def eigvals_lapack(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(np.asarray(a, dtype=float))


def char_coeffs_lapack(a: np.ndarray) -> np.ndarray:
    """Monic descending characteristic coefficients via LAPACK roots."""
    return np.poly(eigvals_lapack(a)).real


def roots_np(coeffs) -> np.ndarray:
    return np.roots(np.asarray(coeffs, dtype=complex))


def coeffs_from_roots(roots) -> np.ndarray:
    return np.poly(np.asarray(roots, dtype=complex))


def multiset_gap(za, zb) -> float:
    """Smallest max-distance over all pairings of two 4-element multisets."""
    za = list(za)
    zb = list(zb)
    assert len(za) == len(zb) <= 6
    best = np.inf
    for perm in itertools.permutations(range(len(zb))):
        worst = max(abs(za[i] - zb[p]) for i, p in enumerate(perm))
        best = min(best, worst)
    return float(best)


def grad_fd(func, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (func(x + e) - func(x - e)) / (2.0 * h)
    return out


def hessian_fd(func, x, h: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian."""
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros((n, n))
    f0 = func(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (func(x + ei) - 2.0 * f0 + func(x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (
                func(x + ei + ej)
                - func(x + ei - ej)
                - func(x - ei + ej)
                + func(x - ei - ej)
            ) / (4.0 * h * h)
            out[i, j] = out[j, i] = mixed
    return out


def rank_svd(a: np.ndarray, rel_tol: float) -> int:
    sv = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def reduced_eigenvalues(nu) -> list[complex]:
    """Closed-form spectrum of the canonical five-parameter family.

    nu1 + i(nu5 +- D) and conjugates, with
    D = sqrt(nu3^2 + nu4^2 - nu2^2 + 2 i nu2 nu4) on the principal branch.
    """
    n1, n2, n3, n4, n5 = (float(v) for v in nu)
    d = np.sqrt(complex(n3 * n3 + n4 * n4 - n2 * n2, 2.0 * n2 * n4))
    lam_a = complex(n1, n5) + 1j * d
    lam_b = complex(n1, n5) - 1j * d
    return [lam_a, lam_b, lam_a.conjugate(), lam_b.conjugate()]


def axis_char_coeffs(nu1: float, nu5: float) -> tuple[float, ...]:
    """((x - nu1)^2 + nu5^2)^2 expanded, for the doubly-degenerate axis."""
    return (
        1.0,
        -4.0 * nu1,
        6.0 * nu1 * nu1 + 2.0 * nu5 * nu5,
        -4.0 * nu1 ** 3 - 4.0 * nu1 * nu5 * nu5,
        (nu1 * nu1 + nu5 * nu5) ** 2,
    )


def F_quartic(v) -> np.ndarray:
    """(nu1^2 - nu2^2)(nu1^2 + nu4^2) + nu1^2 nu3^2 over the last axis."""
    v = np.asarray(v, dtype=float)
    n1, n2, n3, n4 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    return (n1 * n1 - n2 * n2) * (n1 * n1 + n4 * n4) + n1 * n1 * n3 * n3


_CHORD_NODES = np.linspace(0.0, 1.0, 5)
_CHORD_VAND_INV = np.linalg.inv(np.vander(_CHORD_NODES, 5))


def chord_sign_constant(a, b, sign: float) -> bool:
    """One chord at a time: True when F keeps the strict sign on the arc a -> b.

    Five samples pin the chord quartic; its value at the nodes and at every
    stationary point inside (0, 1) decides the sign on the whole arc.
    """
    vals = np.array([float(F_quartic((1.0 - t) * a + t * b)) for t in _CHORD_NODES])
    if np.any(sign * vals <= 0.0):
        return False
    coeffs = _CHORD_VAND_INV @ vals
    for r in np.roots(np.polyder(coeffs)):
        tr = float(r.real)
        if 0.0 < tr < 1.0:
            if sign * float(F_quartic((1.0 - tr) * a + tr * b)) <= 0.0:
                return False
    return True


def flood_component_counts(points, kinds, tree_k=12, rescue_k=48) -> dict[str, int]:
    """Component count per stability kind from a union-find flood fill.

    kinds holds 'stable', 'unstable', 'mixed' or 'critical' per point.
    Same-kind kNN neighbors (not critical, same nonzero sign of F) are
    joined one at a time when chord_sign_constant holds; members of
    components smaller than max(3, n // 200) then try their rescue_k
    nearest neighbors.
    """
    from scipy.spatial import cKDTree

    points = np.asarray(points, dtype=float)
    n = len(points)
    signs = np.sign(F_quartic(points))
    tree = cKDTree(points)
    nbrs = tree.query(points, k=min(tree_k + 1, n))[1]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def try_link(i, j):
        if kinds[i] != kinds[j] or kinds[i] == "critical":
            return
        if signs[i] == 0.0 or signs[i] != signs[j]:
            return
        ri, rj = find(i), find(j)
        if ri != rj and chord_sign_constant(points[i], points[j], signs[i]):
            parent[ri] = rj

    for i in range(n):
        for j in nbrs[i][1:]:
            try_link(i, int(j))
    sizes: dict[int, int] = {}
    for i in range(n):
        sizes[find(i)] = sizes.get(find(i), 0) + 1
    for i in [i for i in range(n) if sizes[find(i)] < max(3, n // 200)]:
        for j in tree.query(points[i], k=min(rescue_k + 1, n))[1][1:]:
            try_link(i, int(j))
    counts = {"stable": 0, "unstable": 0, "mixed": 0}
    for root in {find(i) for i in range(n)}:
        if kinds[root] in counts:
            counts[kinds[root]] += 1
    return counts


def mesh_surface_reference(disc: int, resolution: int, nu5: float = 1.0, tol: float = 1e-9):
    """The welded chart mesh built one cell at a time, for comparison with
    the whole-array mesher.

    A closure maps each grid corner to its canonical (i, j) through the
    seam, fold and mirror welds in that order, and a dict numbers the
    vertices by first appearance as the cells are visited.  The chart is
    evaluated one point at a time with math.cos/sin/sqrt, and every vertex
    is labelled by the scalar classify_point on SpherePoint(row, disc).
    Returns (vertices, params, triangles, strata).
    """
    import math

    from resonance_atlas.geometry import SpherePoint
    from resonance_atlas.stratification import classify_point

    res = int(resolution)
    s_vals = np.linspace(-1.0, 1.0, res + 1)
    t_vals = np.linspace(0.0, 2.0 * math.pi, res + 1)
    quarter = res // 4 if res % 4 == 0 else None
    half = res // 2 if res % 2 == 0 else None
    h = math.sqrt(0.5)

    def canon(i, j):
        if j == res:
            j = 0
        if quarter is not None and j == 3 * quarter:
            i, j = res - i, quarter
        if half is not None and i == half and j != 0:
            j = min(j, res - j)
        return i, j

    vert_id = {}
    coords = []
    params = []

    def vid(i, j):
        key = canon(i, j)
        if key not in vert_id:
            s, t = float(s_vals[key[0]]), float(t_vals[key[1]])
            ct, st = math.cos(t), math.sin(t)
            n3 = disc * math.sqrt(max(0.0, (1.0 - s * s) * (2.0 - ct * ct) / 2.0))
            vert_id[key] = len(coords)
            coords.append((h * s * ct, h * ct, n3, s * st))
            params.append((s, t))
        return vert_id[key]

    triangles = []
    seen = set()
    for i in range(res):
        for j in range(res):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            for tri in ((v00, v10, v11), (v00, v11, v01)):
                key = tuple(sorted(tri))
                if len(set(tri)) == 3 and key not in seen:
                    seen.add(key)
                    triangles.append(tri)
    vertices = np.array(coords)
    strata = tuple(classify_point(SpherePoint(row, disc), nu5, tol).name for row in vertices)
    return vertices, np.array(params), np.array(triangles, dtype=np.int64), strata
