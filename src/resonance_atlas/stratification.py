"""Stratification of the parameter 3-sphere by eigenvalue configuration.

Twenty strata: four open regions V1..V4 (components of the complement of
the critical surface), four ruled sheets S1..S4, six curve strata L1..L6
(arcs of the surface's self-intersection circles), and six distinguished
points P1..P6 (four pinch points and the two self-tangency points).  V3
is the only stratum of stable systems.

Configurations are evaluated at a ray-interior scale: for a unit sphere
point and weight nu5 the matrix is built at t0 = |nu5| / (2 sqrt(2))
times the point, which keeps every eigenvalue imaginary part inside
[|nu5|/2, 3 |nu5|/2].  The configuration is constant along the ray up to
its first degeneracy; unit scale sits past that degeneracy on the great
circle nu1 = nu2 = 0, so evaluating inside the ray is the only reading
that labels the whole circle consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import ReducedCoords, homogeneous_reduced
from ._pcg64 import uniform_doubles
from .errors import AmbiguousStratum, RankAnomalous, UnresolvedConfiguration
from .geometry import (
    F_critical,
    P_POINTS,
    SQRT_HALF,
    SpherePoint,
    TWO_PI,
    _normalize_disc,
    check_unit_rows,
    grad_F,
    param_phi_array,
)
from .linalg import Mat4
from .spectra import (
    CONFIG_BETA_STABLE,
    CONFIG_BETA_UNSTABLE,
    CONFIG_DOUBLE_NILPOTENT,
    CONFIG_MIXED,
    CONFIG_NAMES,
    CONFIG_STABLE_PAIRS,
    CONFIG_TWO_IMAGINARY,
    CONFIG_UNSTABLE_PAIRS,
    ZERO_RE_TOL_SAMPLED,
    EigConfig,
    _ANOMALOUS,
    _RANK_ANOMALOUS,
    _pair_labels,
    _pair_split,
    _upper_pair,
    classify_configuration,
)

__all__ = [
    "IncidenceGraph",
    "KINDS",
    "PointClasses",
    "STRATA",
    "STRATUM_NAMES",
    "SampleRecord",
    "StabilityReport",
    "StratumLabel",
    "SurfaceMesh",
    "build_incidence",
    "classify_point",
    "classify_points",
    "configuration_at",
    "evaluation_matrix",
    "interior_scale",
    "mesh_surface",
    "mesh_surfaces",
    "representatives",
    "sphere_samples",
    "stability_report",
]


@dataclass(frozen=True)
class StratumLabel:
    name: str
    dimension: int
    expected_config: str


STRATA: dict[str, StratumLabel] = {
    "V1": StratumLabel("V1", 3, CONFIG_UNSTABLE_PAIRS),
    "V2": StratumLabel("V2", 3, CONFIG_MIXED),
    "V3": StratumLabel("V3", 3, CONFIG_STABLE_PAIRS),
    "V4": StratumLabel("V4", 3, CONFIG_MIXED),
    "S1": StratumLabel("S1", 2, CONFIG_BETA_UNSTABLE),
    "S2": StratumLabel("S2", 2, CONFIG_BETA_STABLE),
    "S3": StratumLabel("S3", 2, CONFIG_BETA_STABLE),
    "S4": StratumLabel("S4", 2, CONFIG_BETA_UNSTABLE),
    "L1": StratumLabel("L1", 1, CONFIG_TWO_IMAGINARY),
    "L2": StratumLabel("L2", 1, CONFIG_TWO_IMAGINARY),
    "L3": StratumLabel("L3", 1, CONFIG_TWO_IMAGINARY),
    "L4": StratumLabel("L4", 1, CONFIG_TWO_IMAGINARY),
    "L5": StratumLabel("L5", 1, CONFIG_TWO_IMAGINARY),
    "L6": StratumLabel("L6", 1, CONFIG_TWO_IMAGINARY),
    "P1": StratumLabel("P1", 0, CONFIG_DOUBLE_NILPOTENT),
    "P2": StratumLabel("P2", 0, CONFIG_DOUBLE_NILPOTENT),
    "P3": StratumLabel("P3", 0, CONFIG_DOUBLE_NILPOTENT),
    "P4": StratumLabel("P4", 0, CONFIG_DOUBLE_NILPOTENT),
    "P5": StratumLabel("P5", 0, CONFIG_TWO_IMAGINARY),
    "P6": StratumLabel("P6", 0, CONFIG_TWO_IMAGINARY),
}
# Every stratum name, in the order of STRATA; arrays of strata hold int8
# indices into it.
STRATUM_NAMES = tuple(STRATA)

# The |nu5| range the sampled entry points accept.  Configurations do not
# depend on the scale of nu5, but outside this range the fixed tolerances no
# longer fit the spectrum's scale and some points read a wrong stratum; far
# outside it the characteristic polynomial overflows.
_NU5_MIN, _NU5_MAX = 1e-3, 1e3


def _check_nu5(nu5: float, caller: str) -> None:
    """ValueError unless _NU5_MIN <= |nu5| <= _NU5_MAX (NaN included)."""
    if not (_NU5_MIN <= abs(nu5) <= _NU5_MAX):
        raise ValueError(
            f"{caller}: nu5 must satisfy {_NU5_MIN:g} <= |nu5| <= {_NU5_MAX:g}, got {nu5!r}"
        )


def interior_scale(nu5: float) -> float:
    """Ray-interior evaluation scale t0 = |nu5| / (2 sqrt(2))."""
    return abs(float(nu5)) / (2.0 * math.sqrt(2.0))


def evaluation_matrix(p: SpherePoint, nu5: float) -> Mat4:
    """The canonical-family matrix at the ray-interior scale."""
    if nu5 == 0.0:
        raise ValueError("evaluation_matrix: nu5 must be nonzero")
    t0 = interior_scale(nu5)
    return homogeneous_reduced(ReducedCoords(np.append(t0 * p.nu4, float(nu5))))


def configuration_at(p: SpherePoint, nu5: float, tol: float) -> EigConfig:
    """Eigenvalue configuration at a sphere point, read inside the ray.

    Pairs coincide within the fixed linalg.CLUSTER_TOL_DEFAULT
    (1 + |lambda|): at t0 every imaginary part lies in
    [|nu5|/2, 3 |nu5|/2], so one relative threshold serves every point and
    weight."""
    return classify_configuration(evaluation_matrix(p, nu5), tol)


_SQ3_HALF = math.sqrt(3.0) / 2.0
_REP_COORDS: dict[str, tuple[tuple[float, float, float, float], int]] = {
    "P1": (P_POINTS["P1"], +1),
    "P2": (P_POINTS["P2"], +1),
    "P3": (P_POINTS["P3"], -1),
    "P4": (P_POINTS["P4"], -1),
    "P5": (P_POINTS["P5"], +1),
    "P6": (P_POINTS["P6"], -1),
    "L1": ((0.0, 0.5, _SQ3_HALF, 0.0), +1),
    "L2": ((0.0, -0.5, _SQ3_HALF, 0.0), +1),
    "L3": ((0.0, 0.5, -_SQ3_HALF, 0.0), -1),
    "L4": ((0.0, -0.5, -_SQ3_HALF, 0.0), -1),
    "L5": ((0.0, 0.0, SQRT_HALF, SQRT_HALF), +1),
    "L6": ((0.0, 0.0, SQRT_HALF, -SQRT_HALF), +1),
    "S1": ((0.25, 0.5, 0.75, SQRT_HALF / 2.0), +1),
    "S2": ((-0.25, -0.5, 0.75, SQRT_HALF / 2.0), +1),
    "S3": ((-0.25, 0.5, 0.75, -SQRT_HALF / 2.0), +1),
    "S4": ((0.25, -0.5, 0.75, -SQRT_HALF / 2.0), +1),
    # V1/V3 avoid the axis nu2 = nu3 = nu4 = 0, where the two pairs
    # coincide and the configuration degenerates to g+g+ / g-g-.
    "V1": ((SQRT_HALF, 0.0, SQRT_HALF, 0.0), +1),
    "V2": ((0.0, SQRT_HALF, 0.0, SQRT_HALF), +1),
    "V3": ((-SQRT_HALF, 0.0, SQRT_HALF, 0.0), +1),
    "V4": ((0.0, -SQRT_HALF, 0.0, SQRT_HALF), +1),
}


def representatives() -> dict[str, tuple[SpherePoint, float]]:
    """One exact representative point per stratum, all at nu5 = 1."""
    return {
        name: (SpherePoint(np.array(coords), disc), 1.0)
        for name, (coords, disc) in _REP_COORDS.items()
    }


_P_NAMES = tuple(P_POINTS)
_P_ARRAY = np.array([P_POINTS[name] for name in _P_NAMES])


def classify_point(p: SpherePoint, nu5: float, tol: float = 1e-9) -> StratumLabel:
    """Assign a sphere point to its stratum: _row_label on its row.

    The first rule of _cascade that holds gives the stratum: the P/L/S
    strata, then the open region from the sign of F (and of nu1 or nu2).
    Matches that leave the label undetermined at this tol raise
    AmbiguousStratum, and a row whose closed-form spectrum reads no
    configuration raises as _row_spectrum does (UnresolvedConfiguration,
    or RankAnomalous where the annihilator rank of a coincident pair reads
    no verdict); no matrix is built.  ValueError unless
    1e-3 <= |nu5| <= 1e3.
    """
    if tol <= 0.0:
        raise ValueError("classify_point: tol must be positive")
    code = _row_label(p.nu4, nu5, tol)[0]
    return STRATA[STRATUM_NAMES[code]]


_CODE = {name: k for k, name in enumerate(STRATUM_NAMES)}
_P_CODES = np.array([_CODE[name] for name in _P_NAMES])
_NO_RULE = -1  # no rule holds (no P point is near; a non-finite row)
_AMBIGUOUS = -2  # the label is undetermined at this tol
# Sheet code by 2 (nu1 > 0) + (nu2 > 0).
_SHEET_CODES = np.array([_CODE[name] for name in ("S2", "S3", "S4", "S1")])


def _cascade(n1, n2, n3, n4, F, p_code, tol):
    """The rules of all twenty strata as ordered (test, code) pairs; the
    first test that holds on a row gives its code.

    Exact P points first (p_code: the code of the first P point within tol
    in every coordinate, else _NO_RULE); then the two self-intersection
    loci -- the great circle nu1 = nu2 = 0 split by sign nu4 into L5/L6,
    and the circle nu1 = nu4 = 0 with nu2^2 < nu3^2 split into L1..L4 by
    the signs of nu2 and nu3 (its nu2^2 > nu3^2 remainder carries the
    mixed configuration and is grouped with V2/V4); then the sheets via
    |F| <= tol, labelled by the (nu1, nu2) sign quadrant; last the open
    regions by the sign of F = (nu1^2 - Im D^2)(nu1^2 + Re D^2): V3 where
    F > 0 and nu1 < 0, V1 where F > 0, else V2 or V4 by the sign of nu2.
    No row reaches that last rule with nu2 near 0: where |nu2| <= tol,
    F >= -nu2^2 (nu1^2 + nu4^2) >= -tol^2, so a sheet rule (|F| <= tol) or
    F > 0 takes it.  A match that leaves the label undetermined at this
    tol gives _AMBIGUOUS.  Tests and codes use only abs, &, |, comparisons,
    int arithmetic on the order of STRATUM_NAMES and a table lookup, so the
    arguments may be Python floats of one row or (n,) columns.
    """
    near_n1 = abs(n1) <= tol
    on_circle_12 = near_n1 & (abs(n2) <= tol)  # nu1 = nu2 = 0
    on_circle_14 = near_n1 & (abs(n4) <= tol)  # nu1 = nu4 = 0
    margin = n2 * n2 - n3 * n3
    on_sheet = (abs(F) <= tol) & (abs(n2) * math.sqrt(2.0) <= 1.0 + tol)
    up = n2 > 0.0
    return (
        (p_code >= 0, p_code),
        (on_circle_12 & on_circle_14, _AMBIGUOUS),
        (on_circle_12, _CODE["L6"] - (n4 > 0.0)),
        (on_circle_14 & (abs(margin) <= 4.0 * tol), _AMBIGUOUS),
        (on_circle_14 & (margin < 0.0), _CODE["L4"] - up - 2 * (n3 > 0.0)),
        (on_circle_14, _CODE["V4"] - 2 * up),
        (on_sheet & (near_n1 | (abs(n2) <= tol)), _AMBIGUOUS),
        (on_sheet, _SHEET_CODES[2 * (n1 > 0.0) + up]),
        ((F > 0.0) & (n1 < 0.0), _CODE["V3"]),
        (F > 0.0, _CODE["V1"]),
        (F <= 0.0, _CODE["V4"] - 2 * up),
    )


# Why each _AMBIGUOUS rule, by its position in the table, leaves the label open.
_CASCADE_WHY = {
    1: "point sits within tol of both self-intersection loci",
    3: "point sits within tol of a pinch point without matching it",
    6: "on the critical surface but the sign quadrant is not resolved",
}


def _row_code(rules, why: dict[int, str]) -> int:
    """The one-row evaluator of a rule table: the code of the first test
    that holds, _NO_RULE if none; a hit on rule k with code _AMBIGUOUS
    raises AmbiguousStratum(why[k])."""
    for k, (test, code) in enumerate(rules):
        if test:
            if code == _AMBIGUOUS:
                raise AmbiguousStratum(why[k])
            return code
    return _NO_RULE


def _column_codes(rules) -> np.ndarray:
    """The column evaluator of a rule table: np.select over its pairs,
    _NO_RULE where no test holds."""
    tests, codes = zip(*rules)
    return np.select(tests, codes, _NO_RULE)


def _row_stratum(v: np.ndarray, tol: float) -> int:
    """_cascade on one row (4,), on Python floats: the P test compares
    them as _near_p_points does, and an ambiguous row raises."""
    n1, n2, n3, n4 = v.tolist()
    p_code = _NO_RULE
    if abs(n1) <= tol and abs(n4) <= tol:  # every P point has nu1 = nu4 = 0
        for name, (_, a, b, _) in P_POINTS.items():
            if abs(n2 - a) <= tol and abs(n3 - b) <= tol:
                p_code = _CODE[name]
                break
    return _row_code(_cascade(n1, n2, n3, n4, F_critical(v), p_code, tol), _CASCADE_WHY)


def _near_p_points(v: np.ndarray, tol: float) -> np.ndarray:
    """(n, 6) bool: row k lies within tol of P point m in every coordinate,
    |v[k] - P_m|.max() <= tol compared one column at a time.  Every P point
    has nu1 = nu4 = 0, so only rows with |nu1| <= tol and |nu4| <= tol are
    compared in nu2 and nu3."""
    hits = np.zeros((len(v), len(_P_ARRAY)), dtype=bool)
    rows = np.flatnonzero((np.abs(v[:, 0]) <= tol) & (np.abs(v[:, 3]) <= tol))
    w = v[rows]
    hits[rows] = (np.abs(w[:, 1:2] - _P_ARRAY[:, 1]) <= tol) & (
        np.abs(w[:, 2:3] - _P_ARRAY[:, 2]) <= tol
    )
    return hits


def _column_strata(v: np.ndarray, tol: float) -> np.ndarray:
    """_cascade on every row of an (n, 4) array: one int code per row, an
    index into STRATUM_NAMES or _AMBIGUOUS (_NO_RULE on a non-finite row)."""
    hits = _near_p_points(v, tol)
    near = np.flatnonzero(hits) // len(_P_NAMES)  # a row once per P point it is near
    p_code = np.full(len(v), _NO_RULE)
    p_code[near] = _P_CODES[hits[near].argmax(axis=1)]
    return _column_codes(_cascade(*v.T, F_critical(v), p_code, tol))


_UNRESOLVED = "real or zero eigenvalue in row %d; no pair configuration applies"


def _family_spectra(v: np.ndarray, nu5: float, tol: float):
    """The closed-form spectrum of the evaluation matrix on unit rows v (n, 4).

    The column evaluator of the pair kernel (spectra._upper_pair and
    _pair_labels): returns the two eigenvalues above the real axis, hi and
    lo (n,), the config codes into CONFIG_NAMES, the stable counts and the
    max real parts.  A coincident row (on the axis and the curves nu4 = 0,
    nu2^2 = nu3^2 through P1..P4) gets its verdict from the closed-form
    annihilator rank, with no matrix: a double pair reads the exact double
    root w = t0 nu1 + i nu5, two distinct pairs keep their own eigenvalues.
    Raises RankAnomalous where the rank reads no verdict and
    UnresolvedConfiguration where an imaginary part reads as zero, as
    classify_configuration does.
    """
    hi, lo, verdict = _upper_pair(*v.T, interior_scale(nu5), nu5, tol)
    unresolved, config, stable_count, max_re = _pair_labels(hi, lo, verdict, tol)
    anomalous = verdict == _ANOMALOUS
    if anomalous.any():
        raise RankAnomalous(f"{_RANK_ANOMALOUS} in row {anomalous.argmax()}")
    if unresolved.any():
        raise UnresolvedConfiguration(_UNRESOLVED % unresolved.argmax())
    return hi, lo, config, stable_count, max_re


def _row_spectrum(v: np.ndarray, nu5: float, tol: float):
    """_family_spectra on one row v (4,), on Python floats, with the same
    closed-form verdict and raises: hi and lo as complex, the config code,
    the stable count and the max real part."""
    n1, n2, n3, n4 = v.tolist()
    hi, lo, verdict = _upper_pair(n1, n2, n3, n4, interior_scale(nu5), nu5, tol)
    hi, lo = complex(hi), complex(lo)  # Python complex: no numpy scalar arithmetic
    unresolved, config, stable_count, max_re = _pair_labels(hi, lo, verdict, tol)
    if verdict == _ANOMALOUS:
        raise RankAnomalous(f"{_RANK_ANOMALOUS} in row 0")
    if unresolved:
        raise UnresolvedConfiguration(_UNRESOLVED % 0)
    return hi, lo, int(config), stable_count, float(max_re)


def _row_label(v: np.ndarray, nu5: float, tol: float):
    """The one-row labeller, the row path of classify_point and classify.

    On a unit row v (4,): the stratum code into STRATUM_NAMES from the rule
    table (raising on an ambiguous row), then _row_spectrum's hi, lo,
    config code, stable count and max real part.  ValueError unless
    1e-3 <= |nu5| <= 1e3.
    """
    _check_nu5(nu5, "_row_label")
    return (_row_stratum(v, tol), *_row_spectrum(v, nu5, tol))


# -- incidence -----------------------------------------------------------------


@dataclass(frozen=True)
class IncidenceGraph:
    """Strata adjacency; edges join consecutive dimensions only."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        for a, b in self.edges:
            if STRATA[b].dimension != STRATA[a].dimension + 1:
                raise ValueError(f"non-consecutive edge ({a}, {b})")

    def neighbors(self, name: str) -> frozenset[str]:
        out = {b for a, b in self.edges if a == name}
        out |= {a for a, b in self.edges if b == name}
        return frozenset(out)


def _present_strata(codes: np.ndarray) -> frozenset[str]:
    """The names of the codes into STRATUM_NAMES that occur in codes (presence
    by np.bincount: np.unique would import numpy.ma)."""
    k = np.bincount(codes, minlength=len(STRATUM_NAMES))
    return frozenset(STRATUM_NAMES[c] for c in np.flatnonzero(k).tolist())


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row divided by its norm, bit for bit as row / np.linalg.norm(row)
    (np.linalg.norm(rows, axis=1) differs in the last place on some rows),
    as the (n, 4) view of contiguous (4, n) columns.  np.vecdot sums in
    another order on rows that are not C-contiguous, so it gets a C copy."""
    rows = np.ascontiguousarray(rows)
    return np.divide(rows.T, np.sqrt(np.vecdot(rows, rows)), order="C").T


def _probe_strata(points: np.ndarray, tol: float) -> frozenset[str]:
    """The stratum names classify_point gives the rows of points, each
    divided by its norm, without the ambiguous ones: the rule table on
    whole arrays."""
    unit = _unit_rows(points)
    check_unit_rows(unit)
    codes = _column_strata(unit, tol)
    return _present_strata(codes[codes >= 0])


def build_incidence(grid_n: int, nu5: float = 1.0, tol: float = 1e-9) -> IncidenceGraph:
    """Adjacency graph of the 20 strata, read off the welded mesh.

    Incidence is the frontier relation, which the welded chart grid of
    mesh_surfaces([+1, -1], grid_n, tol) realises: a triangle edge
    whose ends' dimension goes up by one is a P-L or L-S edge.  For S-V
    edges every sheet vertex q is pushed to q +- h g (g the unit tangent
    gradient of F, h = 2 pi / grid_n) and labelled by classify_points.  A
    push counts only when _chord_sign_constant certifies the sign +-1 of F
    from q +- (h / 64) g to it: near the fold |grad F| is about 0.006 and
    the step crosses the other sheet.  grid_n must be >= 64 and a multiple
    of 4, which the fold and mirror welds need; otherwise ValueError.
    """
    if grid_n < 64 or grid_n % 4:
        raise ValueError("build_incidence: grid_n must be a multiple of 4 and >= 64")
    h = TWO_PI / float(grid_n)
    dims = np.array([STRATA[name].dimension for name in STRATUM_NAMES])
    n = len(STRATUM_NAMES)
    keys = []  # lo * n + hi per edge, both codes into STRATUM_NAMES
    for mesh in mesh_surfaces([+1, -1], grid_n, tol):
        codes = mesh.strata.astype(np.intp)
        ends = codes[mesh.triangles]
        a, b = ends.ravel(), np.roll(ends, 1, axis=1).ravel()
        lo, hi = np.concatenate([a, b]), np.concatenate([b, a])
        up = dims[hi] == dims[lo] + 1
        keys.append(lo[up] * n + hi[up])

        on_sheet = dims[codes] == 2
        q, sheet = mesh.vertices[on_sheet], codes[on_sheet]
        g = grad_F(q)
        g = _unit_rows(g - np.vecdot(g, q)[:, None] * q)
        for sgn in (+1.0, -1.0):
            p = q + sgn * h * g
            kept = _chord_sign_constant(q + sgn * (h / 64.0) * g, p, np.full(len(q), sgn))
            labels = classify_points(_unit_rows(p[kept]), nu5, tol).stratum
            into = dims[labels] == 3
            keys.append(sheet[kept][into] * n + labels[into])

    edges = frozenset(
        (STRATUM_NAMES[k // n], STRATUM_NAMES[k % n])
        for k in np.flatnonzero(np.bincount(np.concatenate(keys), minlength=n * n)).tolist()
    )
    return IncidenceGraph(tuple(sorted(STRATA)), edges)


# -- sampling and the stability domain -----------------------------------------

_ALPHAS = (2.0 ** 0.25 - 1.0, 2.0 ** 0.5 - 1.0, 2.0 ** 0.75 - 1.0)


def sphere_samples(n: int, seed: int) -> np.ndarray:
    """n quasi-uniform points on the unit 3-sphere, deterministic per seed.

    An additive-recurrence sequence (fractional powers of 2, badly
    approximable) with a seeded Cranley-Patterson shift is pushed through
    the measure-preserving torus chart
    (u, v, w) -> (sqrt(1-u) sin 2 pi v, sqrt(1-u) cos 2 pi v,
                  sqrt(u) sin 2 pi w,  sqrt(u) cos 2 pi w).
    The shift is numpy.random.default_rng(seed).random(3), drawn without
    importing numpy.random; seed must be a non-negative integer.
    """
    if n <= 0:
        raise ValueError("sphere_samples: n must be positive")
    k = np.arange(1.0, n + 1.0)
    u, v, w = (k * a + s for a, s in zip(_ALPHAS, uniform_doubles(seed, 3)))
    for x in (u, v, w):
        x -= np.floor(x)  # x % 1.0 bit for bit for x >= 0, at a third of the cost
    cols = np.empty((4, n))
    for at, r, x in ((0, np.sqrt(1.0 - u), v), (2, np.sqrt(u), w)):
        x *= TWO_PI
        np.multiply(r, np.sin(x), out=cols[at])
        np.multiply(r, np.cos(x), out=cols[at + 1])
    # renormalize so every row honors the SpherePoint unit-norm invariant;
    # ((c0^2 + c1^2) + c2^2) + c3^2 is np.linalg.norm(rows, axis=1)'s sum
    # bit for bit
    norm = cols[0] * cols[0]
    for c in cols[1:]:
        norm += c * c
    pts = np.empty((n, 4))
    np.divide(cols, np.sqrt(norm, out=norm), out=pts.T)
    return pts


@dataclass(frozen=True)
class SampleRecord:
    point: SpherePoint
    stratum: str
    config: str
    max_real_part: float
    stable: bool


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Per-sample columns, one row per sample, plus the region audit."""

    points: np.ndarray  # (n, 4) unit rows, a view of contiguous (4, n) columns
    stratum: np.ndarray  # (n,) int8 codes into STRATUM_NAMES
    config: np.ndarray  # (n,) int8 codes into CONFIG_NAMES
    max_real_part: np.ndarray  # (n,) float
    stable: np.ndarray  # (n,) bool
    stable_component_count: int
    unstable_component_count: int
    mixed_component_count: int
    stable_boundary_strata: frozenset[str]

    @property
    def stable_strata(self) -> frozenset[str]:
        return _present_strata(self.stratum[self.stable])

    @property
    def records(self) -> tuple[SampleRecord, ...]:
        """One SampleRecord per row, built on demand, with the names of its codes."""
        return tuple(
            SampleRecord(SpherePoint(u), STRATUM_NAMES[s], CONFIG_NAMES[c], m, k)
            for u, s, c, m, k in zip(
                self.points,
                self.stratum.tolist(),
                self.config.tolist(),
                self.max_real_part.tolist(),
                self.stable.tolist(),
            )
        )


# Stability kind of a sample, stored as an int8 code into KINDS.
KINDS = ("stable", "unstable", "mixed", "critical")
_STABLE, _UNSTABLE, _MIXED, _CRITICAL = range(len(KINDS))
# The kind of each stratum by its code, read off its configuration: only the
# open strata carry stable, unstable or mixed pairs; the rest are critical.
_OPEN_KINDS = {CONFIG_STABLE_PAIRS: _STABLE, CONFIG_UNSTABLE_PAIRS: _UNSTABLE, CONFIG_MIXED: _MIXED}
_STRATUM_KINDS = np.array(
    [_OPEN_KINDS.get(label.expected_config, _CRITICAL) for label in STRATA.values()], dtype=np.int8
)


class PointClasses(NamedTuple):
    """Per-row output of classify_points."""

    stratum: np.ndarray  # (n,) int8 codes into STRATUM_NAMES
    config: np.ndarray  # (n,) int8 codes into CONFIG_NAMES
    max_real_part: np.ndarray  # (n,) float
    kind: np.ndarray  # (n,) int8 codes into KINDS
    stable: np.ndarray  # (n,) bool


def classify_points(pts, nu5: float, tol: float = 1e-9) -> PointClasses:
    """Stratum, configuration, max real part, stability kind and stable
    flag of unit rows.

    Each row gets classify_point's label, on whole arrays: the stratum from
    the rule table (_cascade, the open regions by the sign of F), its kind
    from the stratum (_STRATUM_KINDS), and the configuration and max real
    part from the closed-form spectrum (_family_spectra).  A row is stable
    when every real part lies below -ZERO_RE_TOL_SAMPLED (1 + max |lambda|),
    so a V3 row within that threshold of zero is not.  Raises where classify_point would
    raise on some row.  Strata and configurations come as int8 codes into
    STRATUM_NAMES and CONFIG_NAMES.  ValueError unless 1e-3 <= |nu5| <= 1e3.
    """
    _check_nu5(nu5, "classify_points")
    if tol <= 0.0:
        raise ValueError("classify_points: tol must be positive")
    v = np.asarray(pts, dtype=float).reshape(-1, 4)
    check_unit_rows(v)
    stratum = _column_strata(v, tol)
    raises = stratum == _AMBIGUOUS
    if raises.any():
        _row_label(v[np.argmax(raises)], nu5, tol)  # raises its error
    hi, lo, config, _, max_re = _family_spectra(v, nu5, tol)
    stable = max_re < -ZERO_RE_TOL_SAMPLED * (1.0 + np.maximum(np.abs(hi), np.abs(lo)))
    return PointClasses(stratum.astype(np.int8), config, max_re, _STRATUM_KINDS[stratum], stable)


# share of a chord's largest Bernstein coefficient that a coefficient must
# clear to count as signed, far above the rounding of the map and halvings
_BERNSTEIN_MARGIN = 1e-12
_SUBDIVISION_DEPTH = 20  # halvings before a piece still undecided is given up
# Chords per block of the arc test; bounds its (5, m) coefficients and the
# temporaries that build them to a few hundred kB.
_EDGE_BLOCK = 4096


def _chord_bernstein(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Bernstein coefficients (5, m) of F on the chords a -> b (m, 4).

    F = x1^4 + x1^2 (x3^2 + x4^2 - x2^2) - x2^2 x4^2 is a quartic form, so
    on the chord (1 - t) a + t b the k-th coefficient is its polar form at
    4 - k copies of a and k copies of b.  With p, q, c = a1^2, b1^2, a1 b1,
    A, B, C the form x3 y3 + x4 y4 - x2 y2 at (a, a), (b, b), (a, b) and
    u, v, w = a2 a4, b2 b4, a2 b4 + b2 a4, that is
        p^2 + p A - u^2,  c p + (c A + p C) / 2 - u w / 2,
        p q + (q A + p B + 4 c C) / 6 - (2 u v + w^2) / 6,
        c q + (c B + q C) / 2 - v w / 2,  q^2 + q B - v^2.
    Rows a and b that are views of contiguous (4, m) columns read fastest.
    """
    a1, a2, a3, a4 = a.T
    b1, b2, b3, b4 = b.T
    p, q, c = a1 * a1, b1 * b1, a1 * b1
    A = a3 * a3 + a4 * a4 - a2 * a2
    B = b3 * b3 + b4 * b4 - b2 * b2
    C = a3 * b3 + a4 * b4 - a2 * b2
    u, v, w = a2 * a4, b2 * b4, a2 * b4 + b2 * a4
    return np.array(
        [
            p * p + p * A - u * u,
            c * p + (c * A + p * C) / 2.0 - u * w / 2.0,
            p * q + (q * A + p * B + 4.0 * c * C) / 6.0 - (2.0 * u * v + w * w) / 6.0,
            c * q + (c * B + q * C) / 2.0 - v * w / 2.0,
            q * q + q * B - v * v,
        ]
    )


def _halves(bern: np.ndarray) -> np.ndarray:
    """de Casteljau at t = 1/2: each row's left and then right half, (2m, 5)."""
    halves = np.empty((len(bern), 2, 5))
    for k in range(5):
        halves[:, 0, k], halves[:, 1, 4 - k] = bern[:, 0], bern[:, -1]
        bern = 0.5 * (bern[:, :-1] + bern[:, 1:])
    return halves.reshape(-1, 5)


def _chord_sign_constant(a: np.ndarray, b: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """For each row, True when F keeps the strict sign along the arc a -> b.

    The sign on the arc is that of the chord quartic, which lies in the
    convex hull of its Bernstein coefficients (_chord_bernstein).  A piece
    whose coefficients of sign * F all clear _BERNSTEIN_MARGIN of the whole
    chord's largest keeps the sign; a piece with an end value <= 0, or still
    open after _SUBDIVISION_DEPTH halvings, rejects the chord.  Most chords
    are decided on their own coefficients; only the rest are halved.  An
    accepted arc never meets F = 0, a tangent one included.
    """
    bern = sign * _chord_bernstein(a, b)
    floor = _BERNSTEIN_MARGIN * np.abs(bern).max(axis=0)
    ok = np.minimum(bern[0], bern[4]) > 0.0
    rows = np.flatnonzero(ok & ~(bern > floor).all(axis=0))
    pieces = bern[:, rows].T
    for _ in range(_SUBDIVISION_DEPTH):
        if not len(rows):
            break
        rows, pieces = np.repeat(rows, 2), _halves(pieces)
        ok[rows[np.minimum(pieces[:, 0], pieces[:, 4]) <= 0.0]] = False
        open_ = ok[rows] & ~np.all(pieces > floor[rows, None], axis=1)
        rows, pieces = rows[open_], pieces[open_]
    ok[rows] = False
    return ok


def _certified(a: np.ndarray, b: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """_chord_sign_constant on rows a, b and sign, in blocks of _EDGE_BLOCK."""
    ok = np.zeros(len(a), dtype=bool)
    for start in range(0, len(a), _EDGE_BLOCK):
        block = slice(start, start + _EDGE_BLOCK)
        ok[block] = _chord_sign_constant(a[block], b[block], sign[block])
    return ok


# The six anchors the regions are reached through: the pole -e1 of the stable
# region V3, the pole +e1 of the unstable region V1, and the mixed anchors
# A(s, sigma) = (0, s, 0, sigma) / sqrt(2) at index _mixed_anchor(s, sigma).
_ANCHORS = np.array(
    [[-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
    + [[0.0, s * SQRT_HALF, 0.0, sigma * SQRT_HALF] for s in (1, -1) for sigma in (1, -1)]
)
_ANCHOR_KINDS = np.array([_STABLE, _UNSTABLE] + [_MIXED] * 4)
# The bridge point (0.1 s, s, 0, 0) between A(s, +) and A(s, -), per s = +-1.
_BRIDGES = np.array([[0.1, 1.0, 0.0, 0.0], [-0.1, -1.0, 0.0, 0.0]])


def _mixed_anchor(n2, n4):
    """Index into _ANCHORS of A(sign nu2, sign nu4), a zero sign counting as +1."""
    return 2 + 2 * (n2 < 0.0) + (n4 < 0.0)


def _anchor_classes() -> np.ndarray:
    """The class of each anchor, an index into _ANCHORS: A(s, -) joins A(s, +)
    when the arcs from both to the bridge point of s keep F < 0."""
    ends = _ANCHORS[2:]  # A(+, +), A(+, -), A(-, +), A(-, -)
    bridged = _chord_sign_constant(ends, np.repeat(_BRIDGES, 2, axis=0), np.full(4, -1.0))
    classes = np.arange(len(_ANCHORS))
    classes[[3, 5]] = np.where(bridged.reshape(2, 2).all(axis=1), [2, 4], [3, 5])
    return classes


def _anchor_components(points: np.ndarray, kinds: np.ndarray) -> np.ndarray:
    """Component count per kind (len(KINDS),), the critical entry 0.

    F = (nu1^2 - Im D^2)(nu1^2 + Re D^2), so V3 = {nu1 < -|Im D|} is
    star-shaped toward -e1 and V1 toward +e1, and no mixed point has
    nu2 = 0.  A stable sample is joined to -e1 and an unstable one to +e1
    by one arc; a mixed one to A(sign nu2, sigma) through the waypoint
    (0, nu2, nu3, sigma max(|nu4|, |nu2| / 4)), normalised, sigma the sign
    of nu4 (+1 at 0).  An arc counts when _chord_sign_constant certifies
    the sign of F of the sample's kind along it: F < 0 for mixed samples,
    F > 0 for the others.  A kind's count is the number of anchor classes
    (_anchor_classes) its certified samples reach, plus one per sample
    with a failed arc: a wrong kind raises a count and never hides.
    """
    cols = points.T
    anchor = np.select(
        [kinds == _STABLE, kinds == _UNSTABLE], [0, 1], _mixed_anchor(cols[1], cols[3])
    )
    mixed = np.flatnonzero(kinds == _MIXED)
    n2, n3, n4 = cols[1:].take(mixed, axis=1)
    sigma = np.where(n4 < 0.0, -1.0, 1.0)
    waypoint = _unit_rows(
        np.column_stack([np.zeros(len(mixed)), n2, n3, sigma * np.maximum(abs(n4), abs(n2) / 4.0)])
    )
    # the far end of each arc as (4, n) columns, like points
    ends = _ANCHORS.T.take(anchor, axis=1)
    ends[:, mixed] = waypoint.T
    signs = np.where(kinds == _MIXED, -1.0, 1.0)
    ok = _certified(points, ends.T, signs)
    ok[mixed] &= _certified(waypoint, _ANCHORS.T.take(anchor[mixed], axis=1).T, signs[mixed])

    live = kinds != _CRITICAL
    failed = np.bincount(kinds[live & ~ok], minlength=len(KINDS))
    reached = np.flatnonzero(
        np.bincount(_anchor_classes()[anchor[live & ok]], minlength=len(_ANCHORS))
    )
    return failed + np.bincount(_ANCHOR_KINDS[reached], minlength=len(KINDS))


def _stable_boundary(stable: np.ndarray) -> np.ndarray:
    """Where the meridian from -e1 through each stable row (nu1, w) leaves
    V3 = {nu1 < -|Im D|}: b(w) = (-|Im D(w)|, w) / norm, on F = 0.  |Im D|
    is homogeneous of degree 1 in w, so that is the meridian's one exit.
    The pole -e1 itself (w = 0) lies on every meridian and gives no row."""
    n2, n3, n4 = stable[(stable[:, 1:] != 0.0).any(axis=1), 1:].T
    return _unit_rows(np.column_stack([-abs(_pair_split(n2, n3, n4).imag), n2, n3, n4]))


def stability_report(samples, nu5: float = 1.0, tol: float = 1e-9) -> StabilityReport:
    """Classify samples, connect each region to its anchors, audit stability.

    samples is an (n, 4) array, or a list of 4-sequences, of unit vectors.
    Each sample's stratum comes from the rule table, its open region from
    the sign of F, and its kind from the stratum; the samples on the
    critical set are excluded from the component counts.  The other
    samples reach their region's anchors by arcs the sound arc test
    accepts, never one that meets F = 0 (_anchor_components).  A sample
    is stable when every real part lies below -ZERO_RE_TOL_SAMPLED
    (1 + max |lambda|) (classify_points).
    Boundary strata of the stable region are read where each stable
    sample's meridian from -e1 leaves V3, in closed form
    (_stable_boundary).  The report keeps one row per sample in arrays,
    strata and configurations as int8 codes; no samples, non-finite rows,
    and nu5 outside 1e-3 <= |nu5| <= 1e3 raise ValueError.
    """
    _check_nu5(nu5, "stability_report")
    rows = np.asarray(samples, dtype=float).reshape(-1, 4)
    if not len(rows):
        raise ValueError("stability_report: samples must not be empty")
    unit = _unit_rows(rows)  # a view of (4, n) columns, read one coordinate at a time
    cls = classify_points(unit, nu5, tol)
    counts = _anchor_components(unit, cls.kind)
    boundary = _stable_boundary(unit[cls.kind == _STABLE])

    return StabilityReport(
        points=unit,
        stratum=cls.stratum,
        config=cls.config,
        max_real_part=cls.max_real_part,
        stable=cls.stable,
        stable_component_count=int(counts[_STABLE]),
        unstable_component_count=int(counts[_UNSTABLE]),
        mixed_component_count=int(counts[_MIXED]),
        stable_boundary_strata=_probe_strata(boundary, tol),
    )


# -- surface meshes ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Welded triangle mesh of one hemisphere's ruled surface.

    From mesh_surfaces, vertices are the chart rows times (1, 1, disc, 1),
    bit for bit, with the chart's nu3 >= 0 and +0.0 on the equator, so
    disc -1 has the sign bit of nu3 set on every row.  The OBJ writer checks
    this and then formats the chart once for every disc; vertices that
    break it are written value by value."""

    disc: int
    vertices: np.ndarray  # (V, 4) sphere coordinates
    params: np.ndarray  # (V, 2) chart (s, t) per vertex
    triangles: np.ndarray  # (T, 3) vertex indices
    strata: np.ndarray  # (V,) int8 codes into STRATUM_NAMES

    def euler_characteristic(self) -> int:
        """V - E + T; an edge (a, b) with a < b counts once, by its key a V + b."""
        n = len(self.vertices)
        x, y, z = self.triangles.astype(np.int64, copy=False).T
        pairs = ((x, y), (y, z), (x, z))
        keys = np.concatenate([np.minimum(p, q) * n + np.maximum(p, q) for p, q in pairs])
        keys.sort()
        edges = int(np.count_nonzero(keys[1:] != keys[:-1])) + 1 if len(keys) else 0
        return n - edges + len(self.triangles)


def _chart_topology(res: int) -> tuple[np.ndarray, np.ndarray]:
    """The welded (s, t) grid of the chart: each vertex's (s, t) in id order
    (V, 2) and the triangles (T, 3), the same on both discs.

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
    moved = np.zeros(len(ci), dtype=bool)  # corners the fold or mirror weld reaches
    if res % 4 == 0:
        fold = cj == 3 * (res // 4)
        ci[fold] = res - ci[fold]
        cj[fold] = res // 4
        moved |= fold
    if res % 2 == 0:
        mirror = (ci == res // 2) & (cj != 0)
        cj[mirror] = np.minimum(cj[mirror], res - cj[mirror])
        moved |= mirror

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
    # drop all but the first copy of each vertex set.  Only the fold and
    # mirror welds make copies: the seam-welded grid alone is a cylinder
    # whose triangles are all distinct, so a copy touches a vertex one of
    # those welds joined.  A stable sort of the row-sorted columns of
    # those triangles puts the copies of one set next to each other, in
    # their original order.
    welded = np.zeros(len(grid_keys), dtype=bool)
    welded[rank[keys[moved]]] = True
    near = np.flatnonzero(keep & (welded[a] | welded[b] | welded[c]))
    x, y, z = a[near], b[near], c[near]
    lo = np.minimum(np.minimum(x, y), z)
    hi = np.maximum(np.maximum(x, y), z)
    mid = x + y + z - lo - hi
    order = np.lexsort((mid, hi, lo))
    lo, mid, hi = lo[order], mid[order], hi[order]
    copy = (lo[1:] == lo[:-1]) & (mid[1:] == mid[:-1]) & (hi[1:] == hi[:-1])
    keep[near[order[1:][copy]]] = False
    k = np.flatnonzero(keep)

    s_vals = np.linspace(-1.0, 1.0, res + 1)
    t_vals = np.linspace(0.0, TWO_PI, res + 1)
    params = np.column_stack([s_vals[grid_keys // (res + 1)], t_vals[grid_keys % (res + 1)]])
    return params, np.column_stack([a[k], b[k], c[k]])


def mesh_surfaces(discs, resolution: int, tol: float = 1e-9) -> tuple[SurfaceMesh, ...]:
    """Triangulate the chart rectangle of each disc and weld the two-to-one loci.

    The chart of the two discs differs only in the sign of nu3, so the
    welded grid and its triangles (_chart_topology) are built once; every
    mesh shares one read-only params array and one read-only triangles
    array.  The chart is evaluated and checked once, on the whole grid of
    disc +1, where nu3 >= 0 with +0.0 on the equator; a disc's vertices are
    those rows times (1, 1, disc, 1), which is param_phi_array(disc, ...)
    bit for bit, and which the OBJ writer checks.  Per disc the vertices are
    labelled, as int8 codes into STRATUM_NAMES, by the rule table on
    the whole array, with no spectrum; the first row it leaves ambiguous
    raises AmbiguousStratum as classify_point would for that point.
    No spectrum is read, so no weight nu5 is taken.  Output is
    deterministic for a given input.  ValueError unless tol > 0 and
    resolution >= 8.
    """
    if tol <= 0.0:
        raise ValueError("mesh_surfaces: tol must be positive")
    if resolution < 8:
        raise ValueError("mesh_surfaces: resolution must be >= 8")
    discs = [_normalize_disc(disc) for disc in discs]
    params, tris = _chart_topology(int(resolution))
    params.setflags(write=False)
    tris.setflags(write=False)
    chart = param_phi_array(+1, params[:, 0], params[:, 1])
    check_unit_rows(chart)
    meshes = []
    for d in discs:
        vertices = chart * [1.0, 1.0, d, 1.0]
        codes = _column_strata(vertices, tol)
        raises = codes == _AMBIGUOUS
        if raises.any():
            _row_stratum(vertices[np.argmax(raises)], tol)  # raises its error
        meshes.append(SurfaceMesh(d, vertices, params, tris, codes.astype(np.int8)))
    return tuple(meshes)


def mesh_surface(disc, resolution: int, tol: float = 1e-9) -> SurfaceMesh:
    """The welded mesh of one disc: mesh_surfaces on [disc]."""
    return mesh_surfaces([disc], resolution, tol)[0]
