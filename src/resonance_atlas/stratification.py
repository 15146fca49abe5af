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
from .errors import AmbiguousStratum
from .geometry import (
    F_critical,
    P_POINTS,
    SQRT_HALF,
    SpherePoint,
    TWO_PI,
    _normalize_disc,
    check_unit_rows,
    grad_F,
    param_phi,
    param_phi_array,
)
from .linalg import CLUSTER_TOL_DEFAULT, Mat4
from .spectra import (
    CONFIG_BETA_STABLE,
    CONFIG_BETA_UNSTABLE,
    CONFIG_DOUBLE_NILPOTENT,
    CONFIG_MIXED,
    CONFIG_STABLE_PAIRS,
    CONFIG_TWO_IMAGINARY,
    CONFIG_UNSTABLE_PAIRS,
    ZERO_RE_TOL_SAMPLED,
    _SIGN_CODES,
    EigConfig,
    classify_configuration,
)

__all__ = [
    "IncidenceGraph",
    "KINDS",
    "PointClasses",
    "STRATA",
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


def interior_scale(nu5: float) -> float:
    """Ray-interior evaluation scale t0 = |nu5| / (2 sqrt(2))."""
    return abs(float(nu5)) / (2.0 * math.sqrt(2.0))


def evaluation_matrix(p: SpherePoint, nu5: float) -> Mat4:
    """The canonical-family matrix at the ray-interior scale."""
    if nu5 == 0.0:
        raise ValueError("evaluation_matrix: nu5 must be nonzero")
    t0 = interior_scale(nu5)
    return homogeneous_reduced(ReducedCoords(np.append(t0 * p.nu4, float(nu5))))


def configuration_at(
    p: SpherePoint,
    nu5: float,
    tol: float,
    cluster_tol: float = CLUSTER_TOL_DEFAULT,
) -> EigConfig:
    """Eigenvalue configuration at a sphere point, read inside the ray."""
    return classify_configuration(evaluation_matrix(p, nu5), tol, cluster_tol)


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
    """Assign a sphere point to its stratum.

    Cascade: exact P points first; then the two self-intersection loci --
    the great circle nu1 = nu2 = 0 split by sign nu4 into L5/L6, and the
    circle nu1 = nu4 = 0 with nu2^2 < nu3^2 split into L1..L4 by the
    signs of nu2 and nu3 (its nu2^2 > nu3^2 remainder carries the mixed
    configuration and is grouped with V2/V4); then the sheets via
    |F| <= tol, labelled by the (nu1, nu2) sign quadrant; otherwise an
    open region via the count of stable eigenvalues.  Matches that leave
    the label undetermined at this tol raise AmbiguousStratum.
    """
    if nu5 == 0.0:
        raise ValueError("classify_point: nu5 must be nonzero")
    if tol <= 0.0:
        raise ValueError("classify_point: tol must be positive")
    label = _critical_stratum(p.nu4, tol)
    if label is None:
        label = _open_region(p.nu4, configuration_at(p, nu5, tol), tol)
    return label


def _critical_stratum(v: np.ndarray, tol: float) -> StratumLabel | None:
    """The P/L/S part of classify_point's cascade; None off the critical set."""
    n1, n2, n3, n4 = (float(c) for c in v)

    hits = np.nonzero(np.abs(v - _P_ARRAY).max(axis=1) <= tol)[0]
    if len(hits):
        return STRATA[_P_NAMES[hits[0]]]

    on_circle_a = abs(n1) <= tol and abs(n2) <= tol  # nu1 = nu2 = 0
    on_circle_b = abs(n1) <= tol and abs(n4) <= tol  # nu1 = nu4 = 0
    if on_circle_a and on_circle_b:
        raise AmbiguousStratum("point sits within tol of both self-intersection loci")
    if on_circle_a:
        return STRATA["L5"] if n4 > 0.0 else STRATA["L6"]
    if on_circle_b:
        margin = n2 * n2 - n3 * n3
        if abs(margin) <= 4.0 * tol:
            raise AmbiguousStratum(
                "point sits within tol of a pinch point without matching it"
            )
        if margin < 0.0:
            if n3 > 0.0:
                return STRATA["L1"] if n2 > 0.0 else STRATA["L2"]
            return STRATA["L3"] if n2 > 0.0 else STRATA["L4"]
        # past the pinch points the circle carries the mixed configuration
        return STRATA["V2"] if n2 > 0.0 else STRATA["V4"]

    F = float(F_critical(v))
    if abs(F) <= tol and abs(n2) * math.sqrt(2.0) <= 1.0 + tol:
        if abs(n1) <= tol or abs(n2) <= tol:
            raise AmbiguousStratum(
                "on the critical surface but the sign quadrant is not resolved"
            )
        if n1 > 0.0:
            return STRATA["S1"] if n2 > 0.0 else STRATA["S4"]
        return STRATA["S3"] if n2 > 0.0 else STRATA["S2"]
    return None


def _near_p_points(v: np.ndarray, tol: float) -> np.ndarray:
    """(n, 6) bool: row k lies within tol of P point m in every coordinate,
    |v[k] - P_m|.max() <= tol compared one column at a time."""
    hits = np.abs(v[:, :1] - _P_ARRAY[:, 0]) <= tol
    for c in range(1, 4):
        hits &= np.abs(v[:, c : c + 1] - _P_ARRAY[:, c]) <= tol
    return hits


_STRATUM_NAMES = tuple(STRATA)
_CODE = {name: k for k, name in enumerate(_STRATUM_NAMES)}
_P_CODES = np.array([_CODE[name] for name in _P_NAMES])
_OFF_CRITICAL = -1  # _critical_stratum returns None
_AMBIGUOUS = -2  # _critical_stratum raises AmbiguousStratum


def _critical_strata(v: np.ndarray, tol: float) -> np.ndarray:
    """_critical_stratum on every row of an (n, 4) array.

    One int code per row: an index into _STRATUM_NAMES, _OFF_CRITICAL off
    the critical set, or _AMBIGUOUS where the scalar cascade raises.  The
    tests apply in the scalar cascade's order, so each row's code is the
    first that matches there.
    """
    n1, n2, n3, n4 = v.T
    p_hits = _near_p_points(v, tol)
    near_n1 = np.abs(n1) <= tol
    on_circle_a = near_n1 & (np.abs(n2) <= tol)
    on_circle_b = near_n1 & (np.abs(n4) <= tol)
    margin = n2 * n2 - n3 * n3
    on_sheet = (np.abs(F_critical(v)) <= tol) & (np.abs(n2) * math.sqrt(2.0) <= 1.0 + tol)
    up = n2 > 0.0

    def pick(name_up, name_down):
        return np.where(up, _CODE[name_up], _CODE[name_down])

    return np.select(
        [
            p_hits.any(axis=1),
            on_circle_a & on_circle_b,
            on_circle_a,
            on_circle_b & (np.abs(margin) <= 4.0 * tol),
            on_circle_b & (margin < 0.0),
            on_circle_b,
            on_sheet & (near_n1 | (np.abs(n2) <= tol)),
            on_sheet,
        ],
        [
            _P_CODES[p_hits.argmax(axis=1)],
            _AMBIGUOUS,
            np.where(n4 > 0.0, _CODE["L5"], _CODE["L6"]),
            _AMBIGUOUS,
            np.where(n3 > 0.0, pick("L1", "L2"), pick("L3", "L4")),
            pick("V2", "V4"),
            _AMBIGUOUS,
            np.where(n1 > 0.0, pick("S1", "S4"), pick("S3", "S2")),
        ],
        _OFF_CRITICAL,
    )


def _open_region(v: np.ndarray, cfg: EigConfig, tol: float) -> StratumLabel:
    """The open region of a point off the critical set, from its configuration."""
    if cfg.stable_count == 4:
        return STRATA["V3"]
    if cfg.stable_count == 0:
        return STRATA["V1"]
    if abs(v[1]) <= tol:
        raise AmbiguousStratum("mixed configuration with unresolved sign of nu2")
    return STRATA["V2"] if v[1] > 0.0 else STRATA["V4"]


def _label_and_config(
    p: SpherePoint, nu5: float, tol: float, cluster_tol: float = CLUSTER_TOL_DEFAULT
) -> tuple[StratumLabel, EigConfig]:
    """classify_point's label and the configuration at p, from one spectrum.

    The P/L/S cascade runs first and raises as classify_point does; an
    open-region label is then read from the configuration.
    """
    label = _critical_stratum(p.nu4, tol)
    cfg = configuration_at(p, nu5, tol, cluster_tol)
    return (_open_region(p.nu4, cfg, tol) if label is None else label), cfg


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


def _probe_classify(point: np.ndarray, nu5: float, tol: float) -> str | None:
    try:
        return classify_point(SpherePoint(point / np.linalg.norm(point)), nu5, tol).name
    except AmbiguousStratum:
        return None


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row divided by its norm, bit for bit as row / np.linalg.norm(row)
    (np.linalg.norm(rows, axis=1) differs in the last place on some rows)."""
    return rows / np.sqrt(np.vecdot(rows, rows))[:, None]


def _probe_strata(points: np.ndarray, nu5: float, tol: float) -> frozenset[str]:
    """{_probe_classify(q) for q in points} without None, on whole arrays.

    The P/L/S cascade labels the critical rows and marks the ambiguous ones,
    which are dropped; only rows off the critical set take classify_point.
    """
    unit = _unit_rows(points)
    check_unit_rows(unit)
    codes = _critical_strata(unit, tol)
    found = {_STRATUM_NAMES[k] for k in np.unique(codes[codes >= 0]).tolist()}
    for k in np.flatnonzero(codes == _OFF_CRITICAL):
        try:
            found.add(classify_point(SpherePoint(unit[k]), nu5, tol).name)
        except AmbiguousStratum:
            pass
    return frozenset(found)


def build_incidence(grid_n: int, nu5: float = 1.0, tol: float = 1e-9) -> IncidenceGraph:
    """Adjacency graph of the 20 strata from mesh-scale probing.

    Probes sit one mesh step h = 2 pi / grid_n away from each lower
    stratum: along the two self-intersection circles on either side of
    each P point (P-L edges), at chart neighbors of anchor points on each
    L locus (L-S edges), and off-sheet along the gradient of F from
    interior sheet points (S-V edges).  Anchors and offsets are fixed, so
    refining the grid reproduces the same edge set.
    """
    if grid_n < 64:
        raise ValueError("build_incidence: grid_n must be >= 64")
    h = TWO_PI / float(grid_n)
    edges: set[tuple[str, str]] = set()

    def circle_a(theta: float) -> np.ndarray:  # nu1 = nu2 = 0
        return np.array([0.0, 0.0, math.cos(theta), math.sin(theta)])

    def circle_b(theta: float) -> np.ndarray:  # nu1 = nu4 = 0
        return np.array([0.0, math.cos(theta), math.sin(theta), 0.0])

    p_angles = {
        "P1": [(circle_b, math.pi / 4.0)],
        "P2": [(circle_b, 3.0 * math.pi / 4.0)],
        "P3": [(circle_b, -math.pi / 4.0)],
        "P4": [(circle_b, 5.0 * math.pi / 4.0)],
        "P5": [(circle_a, 0.0), (circle_b, math.pi / 2.0)],
        "P6": [(circle_a, math.pi), (circle_b, 3.0 * math.pi / 2.0)],
    }
    for pname, specs in p_angles.items():
        for circ, theta in specs:
            for sgn in (+1.0, -1.0):
                label = _probe_classify(circ(theta + sgn * h), nu5, tol)
                if label is not None and STRATA[label].dimension == 1:
                    edges.add((pname, label))

    # L-S edges from chart neighbors: L5/L6 cross the fold columns
    # t = pi/2 and 3 pi/2, L1..L4 cross the mirror column s = 0.
    l_anchors = {
        "L5": [(+1, 0.55, math.pi / 2.0), (+1, -0.55, 3.0 * math.pi / 2.0),
               (-1, 0.55, math.pi / 2.0), (-1, -0.55, 3.0 * math.pi / 2.0)],
        "L6": [(+1, -0.55, math.pi / 2.0), (+1, 0.55, 3.0 * math.pi / 2.0),
               (-1, -0.55, math.pi / 2.0), (-1, 0.55, 3.0 * math.pi / 2.0)],
        "L1": [(+1, 0.0, 0.6), (+1, 0.0, TWO_PI - 0.6)],
        "L2": [(+1, 0.0, math.pi - 0.6), (+1, 0.0, math.pi + 0.6)],
        "L3": [(-1, 0.0, 0.6), (-1, 0.0, TWO_PI - 0.6)],
        "L4": [(-1, 0.0, math.pi - 0.6), (-1, 0.0, math.pi + 0.6)],
    }
    for lname, spots in l_anchors.items():
        for disc, s0, t0 in spots:
            anchor = param_phi(disc, s0, t0)
            if classify_point(anchor, nu5, tol).name != lname:
                raise AmbiguousStratum(f"anchor for {lname} drifted off its locus")
            deltas = [(h, 0.0), (-h, 0.0)] if s0 == 0.0 else [(0.0, h), (0.0, -h)]
            for ds, dt in deltas:
                q = param_phi(disc, s0 + ds, (t0 + dt) % TWO_PI)
                label = _probe_classify(q.nu4, nu5, tol)
                if label is not None and STRATA[label].dimension == 2:
                    edges.add((lname, label))

    # S-V edges: push off the sheet along the gradient of F (tangent to
    # the sphere automatically: F is homogeneous and vanishes there).
    s_anchors = {
        "S1": [(+1, 0.5, math.pi / 4.0), (-1, 0.5, math.pi / 4.0)],
        "S2": [(+1, 0.5, 3.0 * math.pi / 4.0), (-1, 0.5, 3.0 * math.pi / 4.0)],
        "S3": [(+1, -0.5, math.pi / 4.0), (-1, -0.5, math.pi / 4.0)],
        "S4": [(+1, -0.5, 3.0 * math.pi / 4.0), (-1, -0.5, 3.0 * math.pi / 4.0)],
    }
    for sname, spots in s_anchors.items():
        for disc, s0, t0 in spots:
            q = param_phi(disc, s0, t0)
            if classify_point(q, nu5, tol).name != sname:
                raise AmbiguousStratum(f"anchor for {sname} drifted off its sheet")
            g = grad_F(q.nu4)
            g = g - float(np.dot(g, q.nu4)) * q.nu4
            gn = float(np.linalg.norm(g))
            if gn == 0.0:
                continue
            g = g / gn
            for sgn in (+1.0, -1.0):
                label = _probe_classify(q.nu4 + sgn * h * g, nu5, tol)
                if label is not None and STRATA[label].dimension == 3:
                    edges.add((sname, label))

    return IncidenceGraph(tuple(sorted(STRATA)), frozenset(edges))


# -- sampling and the stability domain -----------------------------------------


def sphere_samples(n: int, seed: int) -> np.ndarray:
    """n quasi-uniform points on the unit 3-sphere, deterministic per seed.

    An additive-recurrence sequence (fractional powers of 2, badly
    approximable) with a seeded Cranley-Patterson shift is pushed through
    the measure-preserving torus chart
    (u, v, w) -> (sqrt(1-u) sin 2 pi v, sqrt(1-u) cos 2 pi v,
                  sqrt(u) sin 2 pi w,  sqrt(u) cos 2 pi w).
    """
    if n <= 0:
        raise ValueError("sphere_samples: n must be positive")
    rng = np.random.default_rng(seed)
    shift = rng.random(3)
    alphas = np.array([2.0 ** 0.25 - 1.0, 2.0 ** 0.5 - 1.0, 2.0 ** 0.75 - 1.0])
    k = np.arange(1, n + 1)[:, None]
    uvw = (k * alphas[None, :] + shift[None, :]) % 1.0
    u, v, w = uvw[:, 0], uvw[:, 1], uvw[:, 2]
    r1, r2 = np.sqrt(1.0 - u), np.sqrt(u)
    pts = np.column_stack(
        [
            r1 * np.sin(TWO_PI * v),
            r1 * np.cos(TWO_PI * v),
            r2 * np.sin(TWO_PI * w),
            r2 * np.cos(TWO_PI * w),
        ]
    )
    # renormalize so every row honors the SpherePoint unit-norm invariant
    pts /= np.linalg.norm(pts, axis=1)[:, None]
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

    points: np.ndarray  # (n, 4) unit rows
    stratum: np.ndarray  # (n,) stratum names
    config: np.ndarray  # (n,) configuration codes
    max_real_part: np.ndarray  # (n,) float
    stable: np.ndarray  # (n,) bool
    stable_component_count: int
    unstable_component_count: int
    mixed_component_count: int
    stable_boundary_strata: frozenset[str]

    @property
    def stable_strata(self) -> frozenset[str]:
        return frozenset(self.stratum[self.stable].tolist())

    @property
    def records(self) -> tuple[SampleRecord, ...]:
        """One SampleRecord per row, built on demand."""
        return tuple(
            SampleRecord(SpherePoint(u), s, c, m, k)
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


class PointClasses(NamedTuple):
    """Per-row output of classify_points."""

    stratum: np.ndarray  # (n,) stratum names
    config: np.ndarray  # (n,) configuration codes
    max_real_part: np.ndarray  # (n,) float
    kind: np.ndarray  # (n,) int8 codes into KINDS


# A row leaves the closed-form path when a quantity that classify_point
# compares with tol lies within _MARGIN * tol of it, when a real part lies
# within a factor 2 of its zero threshold, or when the two eigenvalue pairs
# lie closer than _PAIR_GAP relative to the spectrum's scale.  The quartic
# path agrees with the closed form to 1e-13 beyond that gap.
_MARGIN = 100.0
_PAIR_GAP = 3e-2


def _sample_record(p: SpherePoint, nu5: float, tol: float, zero_re_tol: float):
    """The scalar path for one point: stratum, config, max real part, kind."""
    label, cfg = _label_and_config(p, nu5, tol)
    spec = cfg.spectrum
    thresh = zero_re_tol * (1.0 + max(abs(z) for z in spec.eigenvalues))
    res = [z.real for z in spec.eigenvalues]
    if all(r < -thresh for r in res):
        kind = _STABLE
    elif all(r > thresh for r in res):
        kind = _UNSTABLE
    elif any(abs(r) <= thresh for r in res):
        kind = _CRITICAL
    else:
        kind = _MIXED
    return label.name, cfg.code, spec.max_real_part, kind


def classify_points(
    pts,
    nu5: float,
    tol: float = 1e-9,
    zero_re_tol: float = ZERO_RE_TOL_SAMPLED,
) -> PointClasses:
    """Stratum, configuration, max real part and stability kind of unit rows.

    The evaluation matrix of the canonical family has the closed-form
    spectrum t0 nu1 + i(nu5 +- t0 D) and conjugates, with
    D = sqrt(nu3^2 + nu4^2 - nu2^2 + 2 i nu2 nu4).  Rows whose every
    decision clears its threshold with room to spare are labelled from it
    as whole arrays.  The others -- near a P point or a self-intersection
    circle, near the critical surface or nu2 = 0, with nearly coincident
    pairs, or with a real part near the label (tol) or stability
    (zero_re_tol) threshold -- take the scalar classify_point path, so
    every label is the one classify_point gives.  A sample is stable when
    every real part lies below -zero_re_tol (1 + max |lambda|), critical
    when one lies within that threshold of zero.
    """
    if nu5 == 0.0:
        raise ValueError("classify_points: nu5 must be nonzero")
    if tol <= 0.0:
        raise ValueError("classify_points: tol must be positive")
    v = np.asarray(pts, dtype=float).reshape(-1, 4)
    check_unit_rows(v)
    n1, n2, n3, n4 = v.T
    t0 = interior_scale(nu5)
    d = np.sqrt((n3 * n3 + n4 * n4 - n2 * n2) + 2j * (n2 * n4))
    lam = (t0 * n1)[:, None] + 1j * (nu5 + t0 * np.stack([d, -d], axis=1))
    re, mod = lam.real, np.abs(lam)
    scale = 1.0 + mod.max(axis=1)

    label_tol = tol * (1.0 + mod)
    stable_tol = zero_re_tol * scale
    signs = np.where(np.abs(re) <= label_tol, 0, np.sign(re)).astype(int)
    stable_count = 2 * np.sum(re < -label_tol, axis=1)
    config = _SIGN_CODES[3 * (signs.min(axis=1) + 1) + signs.max(axis=1) + 1]
    stratum = np.where(
        stable_count == 4, "V3",
        np.where(stable_count == 0, "V1", np.where(n2 > 0.0, "V2", "V4")),
    ).astype(object)
    kind = np.full(len(v), _MIXED, dtype=np.int8)
    kind[np.any(np.abs(re) <= stable_tol[:, None], axis=1)] = _CRITICAL
    kind[np.all(re > stable_tol[:, None], axis=1)] = _UNSTABLE
    kind[np.all(re < -stable_tol[:, None], axis=1)] = _STABLE
    max_re = re.max(axis=1)

    near = _MARGIN * tol
    ratio_label = np.abs(re) / label_tol
    ratio_stable = np.abs(re) / stable_tol[:, None]
    scalar = (
        _near_p_points(v, near).any(axis=1)
        | ((np.abs(n1) <= near) & ((np.abs(n2) <= near) | (np.abs(n4) <= near)))
        | (np.abs(F_critical(v)) <= near)
        | (np.abs(n2) <= near)
        | (2.0 * t0 * np.abs(d) <= _PAIR_GAP * scale)
        | (np.abs(lam.imag) <= near * (1.0 + mod)).any(axis=1)
        | ((ratio_label >= 0.5) & (ratio_label <= 2.0)).any(axis=1)
        | ((ratio_stable >= 0.5) & (ratio_stable <= 2.0)).any(axis=1)
    )
    for i in np.nonzero(scalar)[0]:
        stratum[i], config[i], max_re[i], kind[i] = _sample_record(
            SpherePoint(v[i]), nu5, tol, zero_re_tol
        )
    return PointClasses(stratum, config, max_re, kind)


_CHORD_NODES = np.linspace(0.0, 1.0, 5)
# node values -> power coefficients, highest degree first
_CHORD_VAND_INV = np.linalg.inv(np.vander(_CHORD_NODES, 5))
# node values -> Bernstein coefficients: with power coefficients a_j
# (lowest degree first), b_k = sum_{j <= k} C(k, j) / C(4, j) a_j
_CHORD_BERNSTEIN = np.array(
    [[math.comb(k, j) / math.comb(4, j) for j in range(5)] for k in range(5)]
) @ _CHORD_VAND_INV[::-1]
# share of the largest Bernstein coefficient that every coefficient must
# clear, far above the rounding of the 5 x 5 map
_BERNSTEIN_MARGIN = 1e-12
# Chords per block of the arc test; bounds the temporaries to a few MB.
_EDGE_BLOCK = 4096


def _chord_points(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(1 - t) a + t b for rows a, b of shape (m, 4) and t of shape (m, k)."""
    return (1.0 - t)[..., None] * a[:, None, :] + t[..., None] * b[:, None, :]


def _chord_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F at the five chord nodes (m, 5).

    F is a quartic form, so on the chord from a to b it is a quartic in
    the line parameter, pinned exactly by these five values.
    """
    return F_critical(_chord_points(a, b, np.broadcast_to(_CHORD_NODES, (len(a), 5))))


def _chord_stationary(vals: np.ndarray) -> np.ndarray:
    """The real parts (m, 3) of the roots of the derivative of the chord
    quartic through the node values vals, computed as np.roots does
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


def _bernstein_certified(vals: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """True where every Bernstein coefficient of sign * F on the chord through
    the node values vals (m, 5) clears _BERNSTEIN_MARGIN of the largest;
    sign is (m, 1).  The quartic lies in the convex hull of its Bernstein
    coefficients on [0, 1], so such a chord keeps the sign throughout."""
    bern = sign * (vals @ _CHORD_BERNSTEIN.T)
    return np.all(bern > _BERNSTEIN_MARGIN * np.abs(bern).max(axis=1, keepdims=True), axis=1)


def _chord_sign_constant(a: np.ndarray, b: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """For each row, True when F keeps the strict sign along the arc a -> b.

    Normalizing onto the sphere rescales F positively, so the sign on the
    arc is the sign of the chord quartic.  Chords that _bernstein_certified
    passes keep it; the others are decided exactly: the sign at the nodes
    and at every stationary point inside (0, 1) fixes the sign on the
    whole arc, not just at sampled points.
    """
    vals = _chord_values(a, b)
    sign = sign[:, None]
    ok = np.all(sign * vals > 0.0, axis=1)
    rest = np.flatnonzero(ok & ~_bernstein_certified(vals, sign))
    if len(rest):
        a, b, sign = a[rest], b[rest], sign[rest]
        stat = _chord_stationary(vals[rest])
        inner = (stat > 0.0) & (stat < 1.0)
        at_stat = F_critical(_chord_points(a, b, np.where(inner, stat, 0.0)))
        ok[rest] = ~np.any(inner & (sign * at_stat <= 0.0), axis=1)
    return ok


def _neighbor_pairs(src: np.ndarray, table: np.ndarray):
    """Flat pairs (src[r], table[r, c]) for c >= 1; column 0 is the point itself."""
    return np.repeat(src, table.shape[1] - 1), table[:, 1:].ravel()


def _linked_arcs(points, kinds, signs, i, j):
    """The candidate pairs (i[k], j[k]), deduplicated, that the flood may join:
    same kind, not critical, the same nonzero sign of F and an arc on
    which F keeps that sign.  Arcs are tested in blocks of _EDGE_BLOCK."""
    n = len(points)
    key = np.minimum(i, j) * n
    key += np.maximum(i, j)
    key = np.sort(key[i != j])
    key = key[np.diff(key, prepend=-1) != 0]
    i, j = key // n, key % n
    keep = (
        (kinds[i] != _CRITICAL)
        & (kinds[i] == kinds[j])
        & (signs[i] != 0.0)
        & (signs[i] == signs[j])
    )
    i, j = i[keep], j[keep]
    ok = np.zeros(len(i), dtype=bool)
    for start in range(0, len(i), _EDGE_BLOCK):
        bi, bj = i[start : start + _EDGE_BLOCK], j[start : start + _EDGE_BLOCK]
        ok[start : start + _EDGE_BLOCK] = _chord_sign_constant(
            points[bi], points[bj], signs[bi]
        )
    return i[ok], j[ok]


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
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


def _flood_components(points, kinds, signs, tree_k=12, rescue_k=48):
    """Join same-kind neighbors whose connecting arc stays on one side of
    the critical surface; return each point's component label (its
    smallest member) and the kNN table.

    A second pass widens the neighbor search for members of very small
    components: near the self-intersection circles the mixed regions
    narrow into wedges a few degrees across, and a sample caught there
    may see no valid arc among its first dozen neighbors even though the
    wedge widens a step further out.  The arc test itself is exact, so
    extra candidates can only connect what is genuinely connected.
    """
    from scipy.spatial import cKDTree

    n = len(points)
    tree = cKDTree(points)
    nbrs = tree.query(points, k=min(tree_k + 1, n))[1].reshape(n, -1)
    i, j = _linked_arcs(points, kinds, signs, *_neighbor_pairs(np.arange(n), nbrs))
    labels = _components(n, i, j)

    sizes = np.bincount(labels, minlength=n)
    strays = np.nonzero(sizes[labels] < max(3, n // 200))[0]
    if len(strays):
        wide = tree.query(points[strays], k=min(rescue_k + 1, n))[1]
        pairs = _neighbor_pairs(strays, wide.reshape(len(strays), -1))
        ri, rj = _linked_arcs(points, kinds, signs, *pairs)
        labels = _components(n, np.concatenate([i, ri]), np.concatenate([j, rj]))
    return labels, nbrs


def _surface_crossings(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first point where each arc from a[k] to b[k] crosses F = 0.

    Arcs with F(a) = 0 or with the same sign of F at both ends are
    dropped.  The stationary points of the chord quartic cut (0, 1) into
    pieces on which it is monotone, so the first piece whose far end has
    left the sign of F(a) holds exactly one crossing, the first one; it
    is bisected to machine precision.
    """
    stat = _chord_stationary(_chord_values(a, b))
    stops = np.sort(np.where((stat > 0.0) & (stat < 1.0), stat, 1.0), axis=1)
    ends = np.ones((len(a), 1))
    scan = np.concatenate([np.zeros_like(ends), stops, ends], axis=1)
    fs = F_critical(_chord_points(a, b, scan))
    keep = (fs[:, 0] != 0.0) & ~(fs[:, 0] * fs[:, -1] > 0.0)
    a, b, scan, fs = a[keep], b[keep], scan[keep], fs[keep]
    first = np.argmax(fs[:, :1] * fs <= 0.0, axis=1)
    rows = np.arange(len(a))
    lo, hi, flo = scan[rows, first - 1], scan[rows, first], fs[rows, first - 1]
    live = np.ones(len(a), dtype=bool)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = F_critical(_chord_points(a, b, mid[:, None]))[:, 0]
        left = flo * fm < 0.0
        hi = np.where(live & left, mid, hi)
        right = live & ~left & (fm != 0.0)
        lo, flo = np.where(right, mid, lo), np.where(right, fm, flo)
        live &= fm != 0.0
    q = _chord_points(a, b, 0.5 * (lo + hi)[:, None])[:, 0]
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def stability_report(
    samples,
    nu5: float = 1.0,
    tol: float = 1e-9,
    zero_re_tol: float = ZERO_RE_TOL_SAMPLED,
) -> StabilityReport:
    """Classify samples, flood-fill the sign regions, audit stability.

    samples is an (n, 4) array of unit vectors or a list of SpherePoint.
    A sample is stable when every eigenvalue real part sits below the
    relative threshold at the ray-interior evaluation; samples straddling
    the threshold are tagged critical and excluded from the component
    counts.  Boundary strata of the stable region are read at the first
    crossing of F = 0 on each sample arc from stable into mixed territory.
    The report keeps one row per sample in arrays; non-finite rows raise
    ValueError.
    """
    if isinstance(samples, np.ndarray):
        rows = np.asarray(samples, dtype=float)
    else:
        rows = np.array(
            [s.nu4 if isinstance(s, SpherePoint) else s for s in samples], dtype=float
        )
    unit = _unit_rows(rows)
    cls = classify_points(unit, nu5, tol, zero_re_tol)
    kinds = cls.kind

    labels, nbrs = _flood_components(rows, kinds, np.sign(F_critical(rows)))
    roots = labels == np.arange(len(rows))
    counts = np.bincount(kinds[roots], minlength=len(KINDS))

    i, j = _neighbor_pairs(np.arange(len(rows)), nbrs)
    sel = (kinds[i] == _STABLE) & (kinds[j] == _MIXED)
    crossings = _surface_crossings(rows[i[sel]], rows[j[sel]])

    return StabilityReport(
        points=unit,
        stratum=cls.stratum,
        config=cls.config,
        max_real_part=cls.max_real_part,
        stable=kinds == _STABLE,
        stable_component_count=int(counts[_STABLE]),
        unstable_component_count=int(counts[_UNSTABLE]),
        mixed_component_count=int(counts[_MIXED]),
        stable_boundary_strata=_probe_strata(crossings, nu5, tol),
    )


# -- surface meshes ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Welded triangle mesh of one hemisphere's ruled surface."""

    disc: int
    vertices: np.ndarray  # (V, 4) sphere coordinates
    params: np.ndarray  # (V, 2) chart (s, t) per vertex
    triangles: np.ndarray  # (T, 3) vertex indices
    strata: tuple[str, ...]  # per-vertex stratum name

    def euler_characteristic(self) -> int:
        """V - E + T; an edge (a, b) with a < b counts once, by its key a V + b."""
        n = len(self.vertices)
        x, y, z = self.triangles.astype(np.int64).T
        pairs = ((x, y), (y, z), (x, z))
        keys = np.concatenate([np.minimum(p, q) * n + np.maximum(p, q) for p, q in pairs])
        keys.sort()
        edges = int(np.count_nonzero(np.diff(keys))) + 1 if len(keys) else 0
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
    t_vals = np.linspace(0.0, TWO_PI, res + 1)
    params = np.column_stack([s_vals[grid_keys // (res + 1)], t_vals[grid_keys % (res + 1)]])
    return params, np.column_stack([a[k], b[k], c[k]])


def mesh_surfaces(
    discs, resolution: int, nu5: float = 1.0, tol: float = 1e-9
) -> tuple[SurfaceMesh, ...]:
    """Triangulate the chart rectangle of each disc and weld the two-to-one loci.

    The chart of the two discs differs only in the sign of nu3, so the
    welded grid and its triangles (_chart_topology) are built once; every
    mesh shares one read-only params array and one read-only triangles
    array.  Per disc the chart is evaluated on the whole grid, and vertices
    are labelled by the P/L/S cascade on the whole array; rows it leaves off
    the critical set or ambiguous go through classify_point, which raises as
    it would for that point.  Output is deterministic for a given input.
    """
    if resolution < 8:
        raise ValueError("mesh_surfaces: resolution must be >= 8")
    discs = [_normalize_disc(disc) for disc in discs]
    params, tris = _chart_topology(int(resolution))
    params.setflags(write=False)
    tris.setflags(write=False)
    meshes = []
    for d in discs:
        vertices = param_phi_array(d, params[:, 0], params[:, 1])
        check_unit_rows(vertices)
        codes = _critical_strata(vertices, tol)
        strata = [_STRATUM_NAMES[k] if k >= 0 else "" for k in codes.tolist()]
        for k in np.flatnonzero(codes < 0):
            strata[k] = classify_point(SpherePoint(vertices[k], d), nu5, tol).name
        meshes.append(SurfaceMesh(d, vertices, params, tris, tuple(strata)))
    return tuple(meshes)


def mesh_surface(
    disc, resolution: int, nu5: float = 1.0, tol: float = 1e-9
) -> SurfaceMesh:
    """The welded mesh of one disc: mesh_surfaces on [disc]."""
    return mesh_surfaces([disc], resolution, nu5, tol)[0]
