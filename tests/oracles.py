"""Independent reference implementations the tests check the package against.

Everything here is deliberately different from the package internals:
eigenvalues come from LAPACK instead of the resolvent cubic, polynomial
coefficients from root products instead of trace recurrences, exponentials
from scaling-and-squaring Taylor summation instead of closed forms, and
derivatives from central differences instead of hand-written formulas.
Slow is fine; different is the point.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

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
# the quartic Bernstein basis at the nodes (node k, coefficient j), and its
# inverse: node values -> Bernstein coefficients
CHORD_BASIS = np.array(
    [[math.comb(4, j) * t**j * (1.0 - t) ** (4 - j) for j in range(5)] for t in _CHORD_NODES]
)
_CHORD_BERNSTEIN_INV = np.linalg.inv(CHORD_BASIS)


def chord_values_reference(a, b) -> np.ndarray:
    """F at the five nodes t = 0, 1/4, 1/2, 3/4, 1 of each chord a -> b, (m, 5)."""
    nodes = np.broadcast_to(_CHORD_NODES, (len(a), 5))
    return F_quartic(chord_points_reference(np.asarray(a), np.asarray(b), nodes))


def chord_bernstein_reference(a, b) -> np.ndarray:
    """The Bernstein coefficients (m, 5) of F on each chord a -> b, from its
    values at the five nodes through the inverse of the basis there: the
    route the package took before it read them off the polar form of F."""
    return chord_values_reference(a, b) @ _CHORD_BERNSTEIN_INV.T


def chord_certified_reference(a, b, sign, margin=1e-12, depth=20) -> np.ndarray:
    """The arc test on the node-value coefficients, as the package ran it
    before the closed form: a chord needs sign * F > 0 at every node, a
    piece whose coefficients all clear margin of the chord's largest keeps
    the sign, and a piece with an end value <= 0, or still open after depth
    halvings at t = 1/2, rejects the chord."""
    vals = np.asarray(sign)[:, None] * chord_values_reference(a, b)
    ok = np.all(vals > 0.0, axis=1)
    bern = vals @ _CHORD_BERNSTEIN_INV.T
    floor = margin * np.abs(bern).max(axis=1, keepdims=True)
    rows, pieces = np.arange(len(bern)), bern
    for level in range(depth + 1):
        ok[rows[np.minimum(pieces[:, 0], pieces[:, 4]) <= 0.0]] = False
        still = ok[rows] & ~np.all(pieces > floor[rows], axis=1)
        rows, pieces = rows[still], pieces[still]
        if not len(rows) or level == depth:
            break
        left, right = np.empty_like(pieces), np.empty_like(pieces)
        tri = pieces
        for k in range(5):  # de Casteljau at t = 1/2
            left[:, k], right[:, 4 - k] = tri[:, 0], tri[:, -1]
            tri = 0.5 * (tri[:, :-1] + tri[:, 1:])
        rows = np.repeat(rows, 2)
        pieces = np.stack([left, right], axis=1).reshape(-1, 5)
    ok[rows] = False
    return ok


def chord_sign_constant(a, b, sign: float) -> bool:
    """One chord at a time: True when F keeps the strict sign on the arc a -> b.

    Five samples pin the chord quartic; its value at the nodes and at every
    stationary point inside (0, 1) decides the sign on the whole arc.

    Known defect: it accepts a chord on which F touches zero, such as
    (-0.1, 0, 1, 0) -> (0.2, 0, 1, 0) (normalized), where F = nu1^2 (nu1^2 +
    nu3^2) has a double root.  np.roots finds that double stationary point
    only to about 1e-8, and F there evaluates to a small positive number.
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


def near_p_points_reference(v, p_points, tol: float) -> np.ndarray:
    """(n, 6) bool: row k lies within tol of P point m in every coordinate,
    compared one column at a time over all rows."""
    hits = np.abs(v[:, :1] - p_points[:, 0]) <= tol
    for c in range(1, 4):
        hits &= np.abs(v[:, c : c + 1] - p_points[:, c]) <= tol
    return hits


def stratum_reference(v, tol: float):
    """The stratum rules on one row as a hand-written if chain: the stratum
    name, or AmbiguousStratum where the label is undetermined at this tol.
    Off the critical set the open region comes from the factorisation
    F = (nu1^2 - Im D^2)(nu1^2 + Re D^2), D^2 = nu3^2 + nu4^2 - nu2^2 +
    2i nu2 nu4, without F: V3 = {nu1 < -|Im D|}, V1 = {nu1 > |Im D|}, and
    V2 / V4 between them by the sign of nu2."""
    import cmath
    import math

    from resonance_atlas.errors import AmbiguousStratum
    from resonance_atlas.geometry import P_POINTS, F_critical

    n1, n2, n3, n4 = (float(c) for c in v)

    p_array = np.array(list(P_POINTS.values()))
    hits = np.nonzero(np.abs(v - p_array).max(axis=1) <= tol)[0]
    if len(hits):
        return list(P_POINTS)[hits[0]]

    on_circle_12 = abs(n1) <= tol and abs(n2) <= tol  # nu1 = nu2 = 0
    on_circle_14 = abs(n1) <= tol and abs(n4) <= tol  # nu1 = nu4 = 0
    if on_circle_12 and on_circle_14:
        raise AmbiguousStratum("point sits within tol of both self-intersection loci")
    if on_circle_12:
        return "L5" if n4 > 0.0 else "L6"
    if on_circle_14:
        margin = n2 * n2 - n3 * n3
        if abs(margin) <= 4.0 * tol:
            raise AmbiguousStratum(
                "point sits within tol of a pinch point without matching it"
            )
        if margin < 0.0:
            if n3 > 0.0:
                return "L1" if n2 > 0.0 else "L2"
            return "L3" if n2 > 0.0 else "L4"
        # past the pinch points the circle carries the mixed configuration
        return "V2" if n2 > 0.0 else "V4"

    F = float(F_critical(v))
    if abs(F) <= tol and abs(n2) * math.sqrt(2.0) <= 1.0 + tol:
        if abs(n1) <= tol or abs(n2) <= tol:
            raise AmbiguousStratum(
                "on the critical surface but the sign quadrant is not resolved"
            )
        if n1 > 0.0:
            return "S1" if n2 > 0.0 else "S4"
        return "S3" if n2 > 0.0 else "S2"

    im_d = abs(cmath.sqrt(complex(n3 * n3 + n4 * n4 - n2 * n2, 2.0 * n2 * n4)).imag)
    if n1 < -im_d:
        return "V3"
    if n1 > im_d:
        return "V1"
    return "V2" if n2 > 0.0 else "V4"


def chord_points_reference(a, b, t) -> np.ndarray:
    """(1 - t) a + t b for rows a, b of shape (m, 4) and t of shape (m, k),
    as an (m, k, 4) array."""
    return (1.0 - t)[..., None] * a[:, None, :] + t[..., None] * b[:, None, :]


def flood_components_all_edges(points, kinds, signs, tree_k=12, rescue_k=48):
    """The flood fill that chord-tests every candidate arc, for comparison
    with the package's lazy one.  Returns each point's component label (its
    smallest member) and the kNN table.

    Every deduplicated kNN pair of the same kind (not critical) and the same
    nonzero sign of F is tested with the package's _chord_sign_constant,
    and the components of the accepted arcs are labelled; members of
    components smaller than max(3, n // 200) then test every such pair
    among their rescue_k nearest neighbours, and the components of all
    accepted arcs are labelled again.
    """
    from scipy.spatial import cKDTree

    from resonance_atlas.stratification import KINDS, _chord_sign_constant

    critical = KINDS.index("critical")

    def linked_arcs(i, j):
        n = len(points)
        key = np.minimum(i, j) * n + np.maximum(i, j)
        key = np.unique(key[i != j])
        i, j = key // n, key % n
        keep = (
            (kinds[i] != critical)
            & (kinds[i] == kinds[j])
            & (signs[i] != 0.0)
            & (signs[i] == signs[j])
        )
        i, j = i[keep], j[keep]
        ok = _chord_sign_constant(points[i], points[j], signs[i])
        return i[ok], j[ok]

    n = len(points)
    tree = cKDTree(points)
    nbrs = tree.query(points, k=min(tree_k + 1, n))[1].reshape(n, -1)
    i, j = linked_arcs(np.repeat(np.arange(n), nbrs.shape[1] - 1), nbrs[:, 1:].ravel())
    labels = components(n, i, j)
    sizes = np.bincount(labels, minlength=n)
    strays = np.nonzero(sizes[labels] < max(3, n // 200))[0]
    if len(strays):
        wide = tree.query(points[strays], k=min(rescue_k + 1, n))[1].reshape(len(strays), -1)
        ri, rj = linked_arcs(np.repeat(strays, wide.shape[1] - 1), wide[:, 1:].ravel())
        labels = components(n, np.concatenate([i, ri]), np.concatenate([j, rj]))
    return labels, nbrs


def components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Label each of n nodes by the smallest node of its component under
    the edges (i[k], j[k]).

    Every root hooks onto the smallest root it shares an edge with, then
    pointer jumping (root <- root[root]) runs until each node points at
    its root; pointers only ever decrease, so the forest stays acyclic.
    Repeats until no edge joins two roots.
    """
    root = np.arange(n)
    while True:
        ri, rj = root[i], root[j]
        split = ri != rj
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(ri, rj)[split], np.minimum(ri, rj)[split])
        nxt = root[root]
        while not np.array_equal(nxt, root):
            root, nxt = nxt, nxt[nxt]


# Neighbours the lazy kNN flood queries: every row its NEAR_K nearest, the
# wide rows their TREE_K nearest, the strays their RESCUE_K nearest.
NEAR_K, TREE_K, RESCUE_K = 2, 12, 48
# After the first round a row is wide when its component holds fewer than
# n // WIDE_SHARE rows or one of its NEAR_K neighbours is in another.
WIDE_SHARE = 20


def candidate_arcs(kinds, signs, src, nbrs):
    """The pairs (src[r], nbrs[r, c]) that the flood may join -- same kind,
    not critical, the same nonzero sign of F -- once each, as (min, max).
    nbrs holds neighbour columns without the point's own column."""
    from resonance_atlas.stratification import KINDS

    critical = KINDS.index("critical")
    n = len(kinds)
    i, j = src[:, None], nbrs
    key = np.minimum(i, j) * n + np.maximum(i, j)
    key = np.unique(key[i != j])
    i, j = np.divmod(key, n)
    keep = (
        (kinds[i] != critical)
        & (kinds[i] == kinds[j])
        & (signs[i] != 0.0)
        & (signs[i] == signs[j])
    )
    return i[keep], j[keep]


def join_arcs(points, signs, labels, i, j):
    """labels after joining every candidate pair (i[k], j[k]) whose arc keeps
    the sign of F (the package's arc test, in its blocks).  Only pairs whose
    labels differ are tested; an arc inside one component cannot change the
    components."""
    from resonance_atlas import stratification

    split = labels[i] != labels[j]
    i, j = i[split], j[split]
    ok = stratification._certified(points[i], points[j], signs[i])
    # the roots of labels are the smallest members of their components, so
    # joining roots and relabelling through them is exact
    return components(len(labels), labels[i[ok]], labels[j[ok]])[labels]


def flood_components(points, kinds, signs):
    """The lazy kNN flood fill the package counted regions with before the
    anchor arcs: each point's component label (its smallest member) and
    the directed neighbour pairs (i, j) it queried.

    The candidate arcs go in rounds, one slice of neighbour columns each
    (ranks 1 to NEAR_K, 3 to 5, 6 to TREE_K), and a round tests only the
    arcs whose ends are still in different components.  Every row queries
    its NEAR_K nearest for the first round; after it, a row is wide when
    its component holds fewer than n // WIDE_SHARE rows or one of those
    neighbours lies in another component, and only the wide rows query
    ranks up to TREE_K.  A last pass widens the search to RESCUE_K for
    members of very small components.  It labels as
    flood_components_all_edges does, but it can split a thin mixed wedge
    that no kNN arc crosses (8 of 36 seeds at n = 100k).
    """
    from scipy.spatial import cKDTree

    n = len(points)
    rows = np.arange(n)
    tree = cKDTree(points)

    def neighbours(x, k):
        """The min(k, n) samples nearest each row of x, nearest first."""
        k = min(k, n)
        return tree.query(x, k=k)[1].reshape(len(x), k)

    def join(labels, src, nbrs):
        return join_arcs(points, signs, labels, *candidate_arcs(kinds, signs, src, nbrs))

    near = neighbours(points, NEAR_K + 1)
    labels = join(rows, rows, near[:, 1:])

    sizes = np.bincount(labels, minlength=n)
    wide = sizes[labels] < n // WIDE_SHARE
    for col in near.T:
        wide |= labels[col] != labels
    wide = np.flatnonzero(wide)
    table = neighbours(points[wide], TREE_K + 1)
    labels = join(labels, wide, table[:, NEAR_K + 1 : 6])
    labels = join(labels, wide, table[:, 6:])

    sizes = np.bincount(labels, minlength=n)
    strays = np.nonzero(sizes[labels] < max(3, n // 200))[0]
    if len(strays):
        labels = join(labels, strays, neighbours(points[strays], RESCUE_K + 1)[:, 1:])

    later = table[:, NEAR_K + 1 :]
    src = np.concatenate([np.repeat(rows, near.shape[1] - 1), np.repeat(wide, later.shape[1])])
    dst = np.concatenate([near[:, 1:].ravel(), later.ravel()])
    return labels, (src, dst)


def chord_stationary_reference(vals: np.ndarray) -> np.ndarray:
    """The real parts (m, 3) of the roots of the derivative of the chord
    quartic through the node values vals (m, 5), computed as np.roots does
    (companion-matrix eigenvalues), nan where the derivative has fewer roots.
    """
    m = len(vals)
    der = (vals @ _CHORD_VAND_INV.T)[:, :4] * np.array([4.0, 3.0, 2.0, 1.0])
    stat = np.full((m, 3), np.nan)
    regular = (der[:, 0] != 0.0) & (der[:, 3] != 0.0)
    comp = np.zeros((int(regular.sum()), 3, 3))
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    comp[:, 0, :] = -der[regular, 1:] / der[regular, :1]
    stat[regular] = np.linalg.eigvals(comp).real
    for k in np.nonzero(~regular)[0]:
        r = np.roots(der[k]).real
        stat[k, : len(r)] = r
    return stat


def _bisect_first_crossing(a, b, lo, hi, flo) -> np.ndarray:
    """Bisect each arc a[k] -> b[k] on the bracket [lo[k], hi[k]], with F at
    lo given as flo, for a fixed 80 steps on (m, k, 4) chord points; return
    the unit crossing points."""
    live = np.ones(len(a), dtype=bool)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = F_quartic(chord_points_reference(a, b, mid[:, None]))[:, 0]
        left = flo * fm < 0.0
        hi = np.where(live & left, mid, hi)
        right = live & ~left & (fm != 0.0)
        lo, flo = np.where(right, mid, lo), np.where(right, fm, flo)
        live &= fm != 0.0
    q = chord_points_reference(a, b, 0.5 * (lo + hi)[:, None])[:, 0]
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def surface_crossings_stationary_reference(a, b) -> np.ndarray:
    """The first crossing of F = 0 on each arc a[k] -> b[k], found between
    the stationary points of the chord quartic (chord_stationary_reference):
    they cut (0, 1) into pieces on which it is monotone, so the first piece
    whose far end has left the sign of F(a) holds exactly the first
    crossing, bisected for a fixed 80 steps.  Arcs with F(a) = 0 or the
    same sign of F at both ends are dropped."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nodes = np.broadcast_to(_CHORD_NODES, (len(a), 5))
    stat = chord_stationary_reference(F_quartic(chord_points_reference(a, b, nodes)))
    stops = np.sort(np.where((stat > 0.0) & (stat < 1.0), stat, 1.0), axis=1)
    ends = np.ones((len(a), 1))
    scan = np.concatenate([np.zeros_like(ends), stops, ends], axis=1)
    fs = F_quartic(chord_points_reference(a, b, scan))
    keep = (fs[:, 0] != 0.0) & ~(fs[:, 0] * fs[:, -1] > 0.0)
    a, b, scan, fs = a[keep], b[keep], scan[keep], fs[keep]
    first = np.argmax(fs[:, :1] * fs <= 0.0, axis=1)
    rows = np.arange(len(a))
    lo, hi, flo = scan[rows, first - 1], scan[rows, first], fs[rows, first - 1]
    return _bisect_first_crossing(a, b, lo, hi, flo)


def probe_classify(point, nu5: float, tol: float):
    """classify_point's stratum name at point / |point|, one point at a
    time, or None where the label is ambiguous at this tol."""
    from resonance_atlas.errors import AmbiguousStratum
    from resonance_atlas.geometry import SpherePoint
    from resonance_atlas.stratification import classify_point

    try:
        return classify_point(SpherePoint(point / np.linalg.norm(point)), nu5, tol).name
    except AmbiguousStratum:
        return None


def pair_verdict_reference(v, nu5: float, tol: float):
    """The verdict of the SVD route on the two pairs of the unit row v (4,),
    taken as one double pair at w = t0 nu1 + i nu5: the annihilator-rank
    test spectra._pair_is_semisimple on the evaluation matrix, with
    u = -2 Re w and v = |w|^2.  True (semisimple), False (nilpotent), None
    (two distinct pairs), or RankAnomalous raised."""
    from resonance_atlas.geometry import SpherePoint
    from resonance_atlas.spectra import _pair_is_semisimple
    from resonance_atlas.stratification import evaluation_matrix, interior_scale

    w = complex(interior_scale(nu5) * v[0] + 1j * nu5)
    A = evaluation_matrix(SpherePoint(v), nu5)
    return _pair_is_semisimple(A, -2.0 * w.real, abs(w) ** 2, tol)


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


def chart_topology_reference(res: int) -> tuple[np.ndarray, np.ndarray]:
    """The welded (s, t) grid of the chart with the duplicate search run on
    every triangle, for comparison with the mesher's search on the weld
    triangles only: each vertex's (s, t) in id order (V, 2) and the
    triangles (T, 3), the same on both discs.

    Welds are exact index identifications: the seam t = 0 ~ 2 pi always; the
    fold (s, pi/2) ~ (-s, 3 pi/2) when res is divisible by 4, and the mirror
    (0, t) ~ (0, 2 pi - t) when it is even, i.e. whenever the grid hits
    those lines.  Vertices are numbered by first appearance over the cells
    (i-major, corners (i, j), (i+1, j), (i, j+1), (i+1, j+1)).  Triangles
    collapsed by a weld are dropped, and so is the second copy of a triangle
    that the fold and mirror welds map onto an earlier one next to
    (s, t) = (0, pi/2).
    """
    # canonical (i, j) of the corners of every cell, welded in the order
    # seam, fold, mirror
    i, j = np.meshgrid(np.arange(res), np.arange(res), indexing="ij")
    ci = np.stack([i, i + 1, i, i + 1], axis=-1).ravel()
    cj = np.stack([j, j, j + 1, j + 1], axis=-1).ravel()
    cj[cj == res] = 0
    if res % 4 == 0:
        fold = cj == 3 * (res // 4)
        ci[fold] = res - ci[fold]
        cj[fold] = res // 4
    if res % 2 == 0:
        mirror = (ci == res // 2) & (cj != 0)
        cj[mirror] = np.minimum(cj[mirror], res - cj[mirror])

    # vertex ids by first appearance, read off a dense table of grid keys
    keys = ci * (res + 1) + cj
    first = np.full((res + 1) ** 2, len(keys))
    np.minimum.at(first, keys, np.arange(len(keys)))
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[first[first < len(keys)]] = True
    grid_keys = keys[is_first]  # one per vertex, in id order
    rank = np.empty_like(first)
    rank[grid_keys] = np.arange(len(grid_keys))

    # corners v00, v10, v01, v11 -> triangles (v00, v10, v11), (v00, v11, v01),
    # as columns a, b, c in cell order
    v00, v10, v01, v11 = rank[keys].reshape(-1, 4).T
    a = np.repeat(v00, 2)
    b = np.stack([v10, v11], axis=1).ravel()
    c = np.stack([v11, v01], axis=1).ravel()
    keep = (a != b) & (b != c) & (a != c)
    # drop all but the first copy of each vertex set: a stable sort of the
    # row-sorted columns puts the copies of one set next to each other, in
    # their original order
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    mid = a + b + c - lo - hi
    order = np.lexsort((mid, hi, lo))
    lo, mid, hi = lo[order], mid[order], hi[order]
    keep[order[1:][(lo[1:] == lo[:-1]) & (mid[1:] == mid[:-1]) & (hi[1:] == hi[:-1])]] = False
    k = np.flatnonzero(keep)

    s_vals = np.linspace(-1.0, 1.0, res + 1)
    t_vals = np.linspace(0.0, 2.0 * math.pi, res + 1)
    params = np.column_stack([s_vals[grid_keys // (res + 1)], t_vals[grid_keys % (res + 1)]])
    return params, np.column_stack([a[k], b[k], c[k]])


SAMPLE_HEADER = ["nu1", "nu2", "nu3", "nu4", "stratum", "config", "max_real_part", "stable"]


def sample_csv_reference(records) -> str:
    """The sample CSV written row by row through csv.writer, one '%.17g'
    per float, from SampleRecords."""

    def fmt(x):
        return "%.17g" % float(x)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SAMPLE_HEADER)
    writer.writerows(
        (
            fmt(r.point.nu4[0]),
            fmt(r.point.nu4[1]),
            fmt(r.point.nu4[2]),
            fmt(r.point.nu4[3]),
            r.stratum,
            r.config,
            fmt(r.max_real_part),
            "true" if r.stable else "false",
        )
        for r in records
    )
    return buf.getvalue()


def sample_summary_reference(records) -> dict:
    """stratum_counts, config_counts and stable_fraction of the sample
    summary, counted one record at a time."""
    strata_counts: dict[str, int] = {}
    config_counts: dict[str, int] = {}
    for r in records:
        strata_counts[r.stratum] = strata_counts.get(r.stratum, 0) + 1
        config_counts[r.config] = config_counts.get(r.config, 0) + 1
    return {
        "stratum_counts": dict(sorted(strata_counts.items())),
        "config_counts": dict(sorted(config_counts.items())),
        "stable_fraction": sum(1 for r in records if r.stable) / float(len(records)),
    }


def classify_json_reference(point, nu5, label, config, F) -> str:
    """`classify --json`'s text (without the newline) from the SpherePoint,
    nu5, StratumLabel, EigConfig and F it reports: the payload as a dict,
    through json.dumps(indent=2, sort_keys=True)."""
    spec = config.spectrum
    payload = {
        "schema_version": 1,
        "point": [float(c) for c in point.nu4],
        "disc": point.disc,
        "nu5": float(nu5),
        "stratum": label.name,
        "dimension": label.dimension,
        "config": config.code,
        "stable_count": config.stable_count,
        "F": F,
        "max_real_part": spec.max_real_part,
        "eigenvalues": [{"re": z.real, "im": z.imag} for z in spec.eigenvalues],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def sphere_samples_reference(n: int, seed: int) -> np.ndarray:
    """The package's sphere_samples as it was written on (n, 3) and (n, 4)
    rows, with the shift from numpy.random and np.linalg.norm's row norms."""
    rng = np.random.default_rng(seed)
    shift = rng.random(3)
    alphas = np.array([2.0 ** 0.25 - 1.0, 2.0 ** 0.5 - 1.0, 2.0 ** 0.75 - 1.0])
    k = np.arange(1, n + 1)[:, None]
    uvw = (k * alphas[None, :] + shift[None, :]) % 1.0
    u, v, w = uvw[:, 0], uvw[:, 1], uvw[:, 2]
    r1, r2 = np.sqrt(1.0 - u), np.sqrt(u)
    pts = np.column_stack(
        [
            r1 * np.sin(2.0 * math.pi * v),
            r1 * np.cos(2.0 * math.pi * v),
            r2 * np.sin(2.0 * math.pi * w),
            r2 * np.cos(2.0 * math.pi * w),
        ]
    )
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts
