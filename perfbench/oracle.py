"""Output checks for the benchmark, built apart from the package.

Nothing here imports resonance_atlas.  The canonical family

    nu1 M1 + nu2 M4 + nu3 M6 + nu4 M8 + nu5 M5

is assembled from the paper's 2x2 block forms at the ray-interior scale
t0 = |nu5| / (2 sqrt 2), and its eigenvalues come from LAPACK through
numpy.linalg.eigvals -- not from the package's characteristic polynomial,
its quartic solver or any closed form.  Every check returns a list of
problems (empty when the output is right) so the self-test can show that
each one rejects a corrupted output.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(float).eps)
SQRT_EPS = math.sqrt(EPS)

# The program's zero threshold for real parts when it names a stratum or a
# configuration, and its documented threshold for `stable` on sampled data;
# both are relative, tol * (1 + |lambda|).
LABEL_TOL = 1e-9
STABLE_TOL = 1e-6
# Rows whose real parts sit within this relative half-width of a threshold
# (or whose |F| is this small) are counted and exempt: the two sides of a
# threshold are not decidable there from a second, independent computation.
# It is 100 times the label threshold, and still 3 times the worst
# coincident-pair error measured between the program and LAPACK.
BAND = 1e-7
# The program guarantees these for every sphere point it writes.
UNIT_TOL = 1e-12
SURFACE_TOL = 1e-12

_I = np.eye(2)
_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_R = np.array([[1.0, 0.0], [0.0, -1.0]])
_Z = np.zeros((2, 2))
M1 = np.block([[_I, _Z], [_Z, _I]])
M4 = np.block([[_Z, _J], [-_J, _Z]])
M5 = np.block([[_Z, _I], [-_I, _Z]])
M6 = np.block([[_Z, _R], [-_R, _Z]])
M8 = np.block([[_J, _Z], [_Z, _J]])

# The paper's eigenvalue configuration on each of the twenty strata.
PAPER_CONFIG = {
    "V1": "g+1g+2", "V2": "g-g+", "V3": "g-1g-2", "V4": "g-g+",
    "S1": "bg+", "S2": "bg-", "S3": "bg-", "S4": "bg+",
    **{f"L{i}": "b1b2" for i in range(1, 7)},
    "P1": "b^2", "P2": "b^2", "P3": "b^2", "P4": "b^2",
    "P5": "b1b2", "P6": "b1b2",
}
DIMENSION = {"V": 3, "S": 2, "L": 1, "P": 0}
# Strata met by each hemisphere disc of the critical surface.
DISC_STRATA = {
    1: {"P1", "P2", "P5", "L1", "L2", "L5", "L6", "S1", "S2", "S3", "S4"},
    -1: {"P3", "P4", "P6", "L3", "L4", "L5", "L6", "S1", "S2", "S3", "S4"},
}
P_POINTS = {
    "P1": (0.0, math.sqrt(0.5), math.sqrt(0.5), 0.0),
    "P2": (0.0, -math.sqrt(0.5), math.sqrt(0.5), 0.0),
    "P3": (0.0, math.sqrt(0.5), -math.sqrt(0.5), 0.0),
    "P4": (0.0, -math.sqrt(0.5), -math.sqrt(0.5), 0.0),
    "P5": (0.0, 0.0, 1.0, 0.0),
    "P6": (0.0, 0.0, -1.0, 0.0),
}
SAMPLE_HEADER = ["nu1", "nu2", "nu3", "nu4", "stratum", "config", "max_real_part", "stable"]
# How many problems one check keeps; the count of all of them is kept too.
MAX_PROBLEMS = 20


@dataclass
class Findings:
    """Problems found in one output, and the rows exempt near a threshold."""

    problems: list[str] = field(default_factory=list)
    problem_count: int = 0
    exempt: int = 0
    notes: dict = field(default_factory=dict)

    def fail(self, msg: str) -> None:
        self.problem_count += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(msg)

    def expect(self, ok, msg: str) -> None:
        if not ok:
            self.fail(msg)

    def merge(self, other: "Findings") -> None:
        self.problem_count += other.problem_count
        self.problems.extend(other.problems[: MAX_PROBLEMS - len(self.problems)])
        self.exempt += other.exempt
        for key, value in other.notes.items():
            self.notes[key] = self.notes.get(key, 0) + value


def F(points: np.ndarray) -> np.ndarray:
    """The critical quartic (nu1^2 - nu2^2)(nu1^2 + nu4^2) + nu1^2 nu3^2."""
    n1, n2, n3, n4 = (points[..., i] for i in range(4))
    return (n1 * n1 - n2 * n2) * (n1 * n1 + n4 * n4) + n1 * n1 * n3 * n3


def family_matrices(points: np.ndarray, nu5) -> np.ndarray:
    """(n, 4, 4) family matrices at the ray-interior scale of each row."""
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    nu5 = np.broadcast_to(np.asarray(nu5, dtype=float), (len(pts),))
    c = (np.abs(nu5) / (2.0 * math.sqrt(2.0)))[:, None] * pts
    return (
        np.einsum("n,ij->nij", c[:, 0], M1)
        + np.einsum("n,ij->nij", c[:, 1], M4)
        + np.einsum("n,ij->nij", c[:, 2], M6)
        + np.einsum("n,ij->nij", c[:, 3], M8)
        + np.einsum("n,ij->nij", nu5, M5)
    )


@dataclass
class Reference:
    """What the oracle knows about each row of a batch of points."""

    eig: np.ndarray  # (n, 4) LAPACK eigenvalues
    max_re: np.ndarray
    err: np.ndarray  # allowed eigenvalue error, absolute
    stratum: np.ndarray  # V-rule stratum from the signs of the real parts
    config: np.ndarray
    stable_count: np.ndarray
    stable: np.ndarray
    exempt_label: np.ndarray
    exempt_stable: np.ndarray


def reference(points: np.ndarray, nu5) -> Reference:
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    eig = np.linalg.eigvals(family_matrices(pts, nu5))
    re = eig.real
    mod = np.abs(eig)
    scale = 1.0 + mod.max(axis=1)
    max_re = re.max(axis=1)
    # Eigenvalue error grows like eps / gap as the two pairs approach each
    # other, up to sqrt(eps) on coincident pairs.
    upper = np.sort_complex(np.where(eig.imag > 0.0, eig, np.nan))[:, :2]
    gap = np.abs(upper[:, 0] - upper[:, 1]) / scale
    gap = np.where(np.isfinite(gap), gap, 0.0)
    with np.errstate(divide="ignore"):
        rel = np.clip(16.0 * EPS / gap, 1e-12, SQRT_EPS)
    err = rel * scale

    thresh = LABEL_TOL * (1.0 + mod)
    neg = re < -thresh
    pos = re > thresh
    all_neg, all_pos = neg.all(axis=1), pos.all(axis=1)
    v2_or_v4 = np.where(pts[:, 1] > 0.0, "V2", "V4")
    stratum = np.where(all_neg, "V3", np.where(all_pos, "V1", v2_or_v4))
    config = np.where(all_neg, "g-1g-2", np.where(all_pos, "g+1g+2", "g-g+"))
    stable = max_re < -STABLE_TOL * scale
    near_zero = (np.abs(re) <= BAND * (1.0 + mod)).any(axis=1)
    exempt_label = near_zero | (np.abs(F(pts)) <= BAND)
    exempt_stable = np.abs(max_re + STABLE_TOL * scale) <= BAND * scale
    return Reference(
        eig=eig,
        max_re=max_re,
        err=err,
        stratum=stratum,
        config=config,
        stable_count=neg.sum(axis=1),
        stable=stable,
        exempt_label=exempt_label,
        exempt_stable=exempt_stable,
    )


def multiset_gap(za, zb) -> float:
    """Smallest max-distance over all pairings of two 4-element multisets."""
    return min(
        max(abs(za[i] - zb[p]) for i, p in enumerate(perm))
        for perm in itertools.permutations(range(4))
    )


def _unit_norm_problems(pts: np.ndarray, out: Findings, what: str) -> None:
    bad = np.nonzero(np.abs(np.linalg.norm(pts, axis=1) - 1.0) > UNIT_TOL)[0]
    for i in bad:
        out.fail(f"{what} {i}: not a unit vector")


def sheet_label(point) -> str:
    """S label of a generic critical-surface point from its (nu1, nu2) quadrant."""
    n1, n2 = point[0], point[1]
    if n1 > 0.0:
        return "S1" if n2 > 0.0 else "S4"
    return "S3" if n2 > 0.0 else "S2"


def surface_label(point, tol: float = LABEL_TOL) -> str:
    """Stratum of a point on the critical surface, from the paper's geometry:
    the six distinguished points, the circle nu1 = nu2 = 0 (L5/L6), the
    circle nu1 = nu4 = 0 inside the pinch points (L1..L4), else a sheet."""
    n1, n2, n3, n4 = (float(c) for c in point)
    for name, coords in P_POINTS.items():
        if max(abs(a - b) for a, b in zip(point, coords)) <= tol:
            return name
    if abs(n1) <= tol and abs(n2) <= tol:
        return "L5" if n4 > 0.0 else "L6"
    if abs(n1) <= tol and abs(n4) <= tol and n2 * n2 < n3 * n3:
        if n3 > 0.0:
            return "L1" if n2 > 0.0 else "L2"
        return "L3" if n2 > 0.0 else "L4"
    return sheet_label(point)


# -- atlas-sample --------------------------------------------------------------


def check_sample(csv_text: str, summary: dict, n: int, nu5: float, seed: int) -> Findings:
    """Rows against the oracle, the summary against the rows and the paper."""
    out = Findings()
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SAMPLE_HEADER:
        out.fail("sample: CSV header differs")
        return out
    rows = rows[1:]
    out.expect(len(rows) == n, f"sample: {len(rows)} rows, expected {n}")
    try:
        pts = np.array([[float(c) for c in r[:4]] for r in rows])
        max_re = np.array([float(r[6]) for r in rows])
    except (ValueError, IndexError) as exc:
        out.fail(f"sample: unreadable row ({exc})")
        return out
    strata = [r[4] for r in rows]
    configs = [r[5] for r in rows]
    stable = [r[7] for r in rows]
    _unit_norm_problems(pts, out, "sample row")
    ref = reference(pts, nu5)

    for i in np.nonzero(np.abs(max_re - ref.max_re) > ref.err)[0]:
        out.fail(f"sample row {i}: max_real_part {max_re[i]!r} vs oracle {ref.max_re[i]!r}")
    for i in range(len(rows)):
        if stable[i] not in ("true", "false"):
            out.fail(f"sample row {i}: stable is {stable[i]!r}")
        if ref.exempt_label[i] or ref.exempt_stable[i]:
            out.exempt += 1
        if not ref.exempt_label[i]:
            if strata[i] != ref.stratum[i] or configs[i] != ref.config[i]:
                out.fail(
                    f"sample row {i}: {strata[i]}/{configs[i]}, oracle "
                    f"{ref.stratum[i]}/{ref.config[i]}"
                )
        if not ref.exempt_stable[i] and (stable[i] == "true") != bool(ref.stable[i]):
            out.fail(f"sample row {i}: stable={stable[i]}, oracle {bool(ref.stable[i])}")

    out.expect(summary.get("n") == n, "sample summary: n differs")
    out.expect(summary.get("nu5") == nu5, "sample summary: nu5 differs")
    out.expect(summary.get("seed") == seed, "sample summary: seed differs")
    s_counts = summary.get("stratum_counts", {})
    c_counts = summary.get("config_counts", {})
    out.expect(sum(s_counts.values()) == n, "sample summary: stratum counts do not add to n")
    out.expect(sum(c_counts.values()) == n, "sample summary: config counts do not add to n")
    out.expect(dict(Counter(strata)) == s_counts, "sample summary: stratum counts differ from rows")
    out.expect(dict(Counter(configs)) == c_counts, "sample summary: config counts differ from rows")
    out.expect(
        summary.get("stable_fraction") == stable.count("true") / float(n),
        "sample summary: stable_fraction differs from rows",
    )
    # The paper has one stable region, one unstable region and two mixed
    # ones, with stable boundary {S2, S3}.  On some sample sets the program
    # splits a mixed region or finds a third sheet on the boundary (faults
    # of its flood fill and boundary search, see the benchmark README);
    # those excesses are counted in the notes, and what holds on every
    # input is checked.
    comps = tuple(
        summary.get(f"{k}_component_count") for k in ("stable", "unstable", "mixed")
    )
    out.expect(
        comps[:2] == (1, 1) and isinstance(comps[2], int) and comps[2] >= 2,
        f"sample summary: components {comps}, paper (1, 1, 2)",
    )
    boundary = set(summary.get("stable_boundary_strata", []))
    out.expect({"S2", "S3"} <= boundary, f"sample summary: boundary {sorted(boundary)} misses S2/S3")
    out.expect(
        boundary <= {"S1", "S2", "S3", "S4"},
        f"sample summary: boundary {sorted(boundary)} holds a non-sheet stratum",
    )
    if isinstance(comps[2], int):
        out.notes["extra_mixed_components"] = max(comps[2] - 2, 0)
    out.notes["extra_boundary_strata"] = len(boundary - {"S2", "S3"})
    return out


# -- surface-mesh --------------------------------------------------------------


def welded_vertex_count(resolution: int) -> int:
    r = resolution
    return r * (r + 1) - (r + 1) - (r // 2 - 2)


def parse_obj(text: str) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Groups of a Wavefront OBJ: (name, vertices, 1-based face indices)."""
    groups: list[tuple[str, list, list]] = []
    for line in text.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "g":
            groups.append((rest, [], []))
        elif tag == "v":
            groups[-1][1].append([float(c) for c in rest.split()])
        elif tag == "f":
            groups[-1][2].append([int(c) for c in rest.split()])
        elif line.strip():
            raise ValueError(f"unexpected OBJ line {line[:40]!r}")
    return [
        (name, np.array(v, dtype=float).reshape(-1, 4), np.array(f, dtype=np.int64).reshape(-1, 3))
        for name, v, f in groups
    ]


def check_mesh(obj_text: str, summary: dict, resolution: int, nu5: float) -> Findings:
    """Geometry and topology of each disc's mesh, checked vertex by vertex."""
    out = Findings()
    try:
        groups = parse_obj(obj_text)
    except (ValueError, IndexError) as exc:
        out.fail(f"mesh: unreadable OBJ ({exc})")
        return out
    out.expect([g[0] for g in groups] == ["plus", "minus"], "mesh: groups are not plus, minus")
    out.expect(summary.get("resolution") == resolution, "mesh summary: resolution differs")
    meshes = summary.get("meshes", [])
    out.expect([m.get("disc") for m in meshes] == [1, -1], "mesh summary: discs are not +1, -1")
    offset = 0
    for (name, verts, faces), meta in zip(groups, meshes):
        disc = meta.get("disc")
        nv, nf = len(verts), len(faces)
        out.expect(meta.get("vertices") == nv, f"mesh {name}: summary vertices != OBJ v lines")
        out.expect(meta.get("triangles") == nf, f"mesh {name}: summary triangles != OBJ f lines")
        out.expect(
            nv == welded_vertex_count(resolution),
            f"mesh {name}: {nv} vertices, welded grid has {welded_vertex_count(resolution)}",
        )
        local = faces - 1 - offset
        bad = np.nonzero(((local < 0) | (local >= nv)).any(axis=1))[0]
        for i in bad:
            out.fail(f"mesh {name}: face {i} indexes outside its group")
        dup = (local[:, 0] == local[:, 1]) | (local[:, 1] == local[:, 2]) | (local[:, 0] == local[:, 2])
        for i in np.nonzero(dup)[0]:
            out.fail(f"mesh {name}: face {i} repeats a vertex")
        offset += nv
        if nv == 0:
            continue
        _unit_norm_problems(verts, out, f"mesh {name} vertex")
        for i in np.nonzero(np.abs(F(verts)) > SURFACE_TOL)[0]:
            out.fail(f"mesh {name} vertex {i}: |F| above {SURFACE_TOL}")
        for i in np.nonzero(disc * verts[:, 2] < 0.0)[0]:
            out.fail(f"mesh {name} vertex {i}: off the disc's hemisphere")
        ref = reference(verts, nu5)
        imaginary_pair = np.abs(ref.eig.real).min(axis=1) <= ref.err
        for i in np.nonzero(~imaginary_pair)[0]:
            out.fail(f"mesh {name} vertex {i}: oracle spectrum has no imaginary pair")
        labels = {surface_label(v) for v in verts}
        reported = set(meta.get("strata", []))
        out.expect(labels <= DISC_STRATA.get(disc, set()), f"mesh {name}: vertex off its disc's strata")
        out.expect(
            reported == labels,
            f"mesh {name}: summary strata {sorted(reported)} vs vertices {sorted(labels)}",
        )
    return out


# -- point-queries -------------------------------------------------------------


def check_classify(raw, nu5: float, kind: str, text: str) -> Findings:
    """One `classify --json` answer against the oracle and its point kind.

    kind is 'random', 'sheet', 'axis' or 'rep:<stratum>'.
    """
    out = Findings()
    try:
        got = json.loads(text)
        point = np.array(got["point"], dtype=float)
        eig = [complex(e["re"], e["im"]) for e in got["eigenvalues"]]
        name, config = got["stratum"], got["config"]
        max_re, Fv = float(got["max_real_part"]), float(got["F"])
        disc, dim, nu5_out = got["disc"], got["dimension"], got["nu5"]
        stable_count = got["stable_count"]
    except (ValueError, KeyError, TypeError) as exc:
        out.fail(f"classify: unreadable JSON ({exc})")
        return out
    raw = np.asarray(raw, dtype=float)
    want_point = raw / np.linalg.norm(raw)
    out.expect(point.shape == (4,) and len(eig) == 4, "classify: wrong shape")
    if out.problem_count:
        return out
    out.expect(np.max(np.abs(point - want_point)) <= 4.0 * EPS, "classify: point is not the normalized input")
    out.expect(nu5_out == nu5, "classify: nu5 differs")
    out.expect(disc == (1 if point[2] >= 0.0 else -1), "classify: disc differs from sign of nu3")
    out.expect(abs(Fv - float(F(point))) <= 4.0 * EPS, "classify: F differs")
    out.expect(name[:1] in DIMENSION and dim == DIMENSION[name[:1]], "classify: dimension differs")

    ref = reference(point, nu5)
    err = float(ref.err[0])
    out.expect(multiset_gap(eig, list(ref.eig[0])) <= err, "classify: eigenvalues differ from oracle")
    out.expect(abs(max_re - float(ref.max_re[0])) <= err, "classify: max_real_part differs from oracle")
    exempt = bool(ref.exempt_label[0])
    out.exempt += int(exempt and kind == "random")

    if kind.startswith("rep:"):
        want = kind[4:]
        want_config = PAPER_CONFIG[want]
    elif kind == "sheet":
        want = sheet_label(point)
        want_config = PAPER_CONFIG[want]
    elif kind == "axis":
        want = "V1" if point[0] > 0.0 else "V3"
        want_config = "g+g+" if point[0] > 0.0 else "g-g-"
    elif exempt:
        return out
    else:
        want, want_config = str(ref.stratum[0]), str(ref.config[0])
    if not exempt:
        out.expect(stable_count == int(ref.stable_count[0]), "classify: stable_count differs")
    out.expect(name == want, f"classify {kind}: stratum {name}, expected {want}")
    out.expect(config == want_config, f"classify {kind}: config {config}, expected {want_config}")
    return out
