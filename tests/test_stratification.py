import math

import numpy as np
import pytest

from resonance_atlas import linalg, spectra, stratification
from resonance_atlas.errors import AmbiguousStratum
from resonance_atlas.geometry import (
    P_POINTS,
    F_critical,
    SpherePoint,
    param_phi,
    param_phi_array,
    unit_point,
)
from resonance_atlas.spectra import ZERO_RE_TOL_SAMPLED, spectrum
from resonance_atlas.stratification import (
    KINDS,
    STRATA,
    IncidenceGraph,
    SurfaceMesh,
    _chord_sign_constant,
    _critical_stratum,
    _critical_strata,
    build_incidence,
    classify_point,
    classify_points,
    configuration_at,
    evaluation_matrix,
    interior_scale,
    mesh_surface,
    mesh_surfaces,
    representatives,
    sphere_samples,
    stability_report,
)

import oracles
from expected_values import (
    INCIDENCE_EDGES,
    REGION_SHEETS,
    REPRESENTATIVES,
    STRATUM_CONFIGS,
    STRATUM_DIMENSIONS,
)


def test_strata_table_matches_frozen():
    assert set(STRATA) == set(STRATUM_CONFIGS)
    for name, label in STRATA.items():
        assert label.name == name
        assert label.dimension == STRATUM_DIMENSIONS[name]
        assert label.expected_config == STRATUM_CONFIGS[name]


def test_interior_scale():
    assert interior_scale(1.0) == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    assert interior_scale(-3.0) == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)))


def test_evaluation_matrix_keeps_frequencies_inside_band(rng):
    """Ray-interior evaluation pins every |Im| into [|nu5|/2, 3|nu5|/2]."""
    for _ in range(50):
        v = rng.standard_normal(4)
        p = SpherePoint(v / np.linalg.norm(v))
        nu5 = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
        eigs = oracles.eigvals_lapack(evaluation_matrix(p, nu5).entries)
        for z in eigs:
            assert abs(nu5) / 2.0 - 1e-9 <= abs(z.imag) <= 1.5 * abs(nu5) + 1e-9


def test_evaluation_matrix_rejects_zero_nu5():
    p = unit_point([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        evaluation_matrix(p, 0.0)


# -- representatives and point classification ---------------------------------


def test_representatives_match_frozen():
    reps = representatives()
    assert set(reps) == set(REPRESENTATIVES)
    for name, (coords, disc) in REPRESENTATIVES.items():
        point, nu5 = reps[name]
        assert nu5 == 1.0
        assert np.max(np.abs(point.nu4 - np.array(coords))) == 0.0, name
        assert point.disc == disc, name


def test_representatives_classify_to_themselves():
    for name, (point, nu5) in representatives().items():
        assert classify_point(point, nu5).name == name


def test_representatives_carry_expected_configs():
    """Each stratum shows its configuration at the ray-interior scale."""
    for name, (point, nu5) in representatives().items():
        cfg = configuration_at(point, nu5, 1e-9)
        assert cfg.code == STRATUM_CONFIGS[name], name


def test_classify_point_validation():
    p = unit_point([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        classify_point(p, 0.0)
    with pytest.raises(ValueError):
        classify_point(p, 1.0, tol=0.0)


def test_classify_circle_arcs():
    # nu1 = nu2 = 0 splits by sign of nu4
    assert classify_point(unit_point([0.0, 0.0, 0.8, 0.6]), 1.0).name == "L5"
    assert classify_point(unit_point([0.0, 0.0, 0.8, -0.6]), 1.0).name == "L6"
    assert classify_point(unit_point([0.0, 0.0, -0.8, 0.6]), 1.0).name == "L5"
    # nu1 = nu4 = 0 with nu2^2 < nu3^2 splits by quadrant
    assert classify_point(unit_point([0.0, 0.3, 0.954, 0.0]), 1.0).name == "L1"
    assert classify_point(unit_point([0.0, -0.3, 0.954, 0.0]), 1.0).name == "L2"
    assert classify_point(unit_point([0.0, 0.3, -0.954, 0.0]), 1.0).name == "L3"
    assert classify_point(unit_point([0.0, -0.3, -0.954, 0.0]), 1.0).name == "L4"


def test_classify_whisker_joins_mixed_regions():
    """The nu2^2 > nu3^2 remainder of the second circle carries the mixed
    configuration and belongs to V2/V4."""
    assert classify_point(unit_point([0.0, 0.954, 0.3, 0.0]), 1.0).name == "V2"
    assert classify_point(unit_point([0.0, -0.954, 0.3, 0.0]), 1.0).name == "V4"
    cfg = configuration_at(unit_point([0.0, 0.954, 0.3, 0.0]), 1.0, 1e-9)
    assert cfg.code == "g-g+"


def test_classify_open_regions():
    assert classify_point(unit_point([0.9, 0.1, 0.4, 0.1]), 1.0).name == "V1"
    assert classify_point(unit_point([-0.9, 0.1, 0.4, 0.1]), 1.0).name == "V3"
    assert classify_point(unit_point([0.05, 0.9, 0.4, 0.1]), 1.0).name == "V2"
    assert classify_point(unit_point([0.05, -0.9, 0.4, 0.1]), 1.0).name == "V4"


def test_classify_ambiguous_near_pinch():
    # on the second circle a hair away from P1: the margin nu2^2 - nu3^2
    # cannot be signed at this tolerance
    theta = math.pi / 4.0 + 1.8e-9
    p = unit_point([0.0, math.cos(theta), math.sin(theta), 0.0])
    with pytest.raises(AmbiguousStratum):
        classify_point(p, 1.0)


def test_classify_ambiguous_on_sheet_with_tiny_nu1():
    # F = 0 to tolerance but the (nu1, nu2) quadrant is unreadable
    p = unit_point([0.0, 1e-5, math.sqrt(1.0 - 2e-10), 1e-5])
    with pytest.raises(AmbiguousStratum):
        classify_point(p, 1.0)


# -- sampling ------------------------------------------------------------------


def test_sphere_samples_deterministic():
    a = sphere_samples(256, 7)
    b = sphere_samples(256, 7)
    assert np.array_equal(a, b)
    c = sphere_samples(256, 8)
    assert not np.array_equal(a, c)


def test_sphere_samples_unit_and_balanced():
    pts = sphere_samples(4096, 3)
    assert pts.shape == (4096, 4)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12
    # quasi-uniform: coordinate means vanish quickly
    assert np.max(np.abs(pts.mean(axis=0))) <= 0.02


def test_sphere_samples_rejects_bad_n():
    with pytest.raises(ValueError):
        sphere_samples(0, 1)


def test_stability_report_small_run():
    """600 samples resolve the component structure already."""
    pts = sphere_samples(600, 42)
    rep = stability_report(pts, nu5=1.0)
    assert rep.stable_component_count == 1
    assert rep.unstable_component_count == 1
    assert rep.mixed_component_count == 2
    assert rep.stable_strata == frozenset({"V3"})
    assert rep.stable_boundary_strata == frozenset({"S2", "S3"})
    assert len(rep.records) == 600
    for r in rep.records:
        assert r.stratum in STRATA
        assert r.config == STRATUM_CONFIGS[r.stratum]
        assert r.stable == (r.stratum == "V3")


def _scalar_path(points, nu5, tol=1e-9, zero_re_tol=ZERO_RE_TOL_SAMPLED):
    """Per-point stratum, config, max real part and kind, one point at a
    time through classify_point, configuration_at and spectrum."""
    out = []
    for v in points:
        p = SpherePoint(v)
        spec = spectrum(evaluation_matrix(p, nu5), tol)
        thresh = zero_re_tol * (1.0 + max(abs(z) for z in spec.eigenvalues))
        re = [z.real for z in spec.eigenvalues]
        if all(r < -thresh for r in re):
            kind = "stable"
        elif all(r > thresh for r in re):
            kind = "unstable"
        elif any(abs(r) <= thresh for r in re):
            kind = "critical"
        else:
            kind = "mixed"
        out.append(
            (
                classify_point(p, nu5, tol).name,
                configuration_at(p, nu5, tol).code,
                spec.max_real_part,
                kind,
            )
        )
    return out


def _near_sheet_points(rng, count, tol=1e-9):
    """Chart points of both discs pushed a few tol off the surface."""
    out = []
    for _ in range(count):
        s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.85))
        quarter = float(rng.integers(0, 4)) * math.pi / 2.0
        t = quarter + float(rng.uniform(0.15, math.pi / 2.0 - 0.15))
        q = param_phi(int(rng.choice([-1, 1])), s, t).nu4
        d = rng.standard_normal(4)
        for k in (0.0, 0.5, 1.0, 2.0, 5.0, 50.0, 200.0):
            v = q + k * tol * d / np.linalg.norm(d)
            out.append(v / np.linalg.norm(v))
    return np.array(out)


@pytest.mark.parametrize("nu5", [1.0, -1.0, 0.3, 7.0])
def test_classify_points_matches_scalar_path(nu5):
    reps = np.array([p.nu4 for p, _ in representatives().values()])
    axis = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    sheets = _near_sheet_points(np.random.default_rng(11), 40)
    pts = np.vstack([sphere_samples(10_000, 42), reps, axis, sheets])
    got = classify_points(pts, nu5)
    want = _scalar_path(pts, nu5)
    assert list(got.stratum) == [w[0] for w in want]
    assert list(got.config) == [w[1] for w in want]
    assert [KINDS[k] for k in got.kind] == [w[3] for w in want]
    assert np.max(np.abs(got.max_real_part - [w[2] for w in want])) <= 1e-13


def test_classify_points_one_spectrum_per_scalar_row(count_calls):
    """A row that leaves the closed form costs one spectrum and one
    characteristic polynomial, shared by its stratum, config and kind."""
    rows = count_calls(stratification._sample_record)
    spectra_calls = count_calls(spectra.spectrum)
    poly_calls = count_calls(linalg.char_poly)
    reps = np.array([p.nu4 for p, _ in representatives().values()])
    axis = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    classify_points(np.vstack([sphere_samples(500, 3), reps, axis]), 1.0)
    assert rows[0] > len(axis)
    assert spectra_calls[0] == poly_calls[0] == rows[0]


def test_classify_points_validation():
    with pytest.raises(ValueError):
        classify_points(np.eye(4), 0.0)
    with pytest.raises(ValueError):
        classify_points(np.eye(4), 1.0, tol=0.0)
    with pytest.raises(ValueError):
        classify_points(2.0 * np.eye(4), 1.0)


@pytest.mark.parametrize(
    "bad", [[np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0], [0.0, 0.0, -np.inf, 1.0]]
)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_rows_are_rejected(bad):
    """A NaN or infinite row fails the unit-row check, which names it,
    before any label or flood fill is computed."""
    pts = np.vstack([sphere_samples(50, 0), bad])
    with pytest.raises(ValueError, match=r"finite \(row 50\)"):
        classify_points(pts, 1.0)
    with pytest.raises(ValueError, match=r"finite \(row 50\)"):
        stability_report(pts, 1.0)


@pytest.mark.parametrize("seed", [0, 42, 3658652565])
def test_unit_rows_match_per_row_norm(seed):
    """The array normalisation equals row / np.linalg.norm(row) bit for bit,
    on sphere samples and on rows far from unit length."""
    rows = np.vstack(
        [sphere_samples(10_000, seed), np.random.default_rng(seed).standard_normal((10_000, 4))]
    )
    want = np.array([row / np.linalg.norm(row) for row in rows])
    got = stratification._unit_rows(rows)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed", [0, 1])
def test_chord_test_matches_scalar_oracle(seed):
    """The batched arc test decides every kNN chord as the scalar one does."""
    from scipy.spatial import cKDTree

    pts = sphere_samples(1500, seed)
    nbrs = cKDTree(pts).query(pts, k=13)[1]
    i, j = np.repeat(np.arange(len(pts)), 12), nbrs[:, 1:].ravel()
    signs = np.sign(F_critical(pts))
    same = (signs[i] != 0.0) & (signs[i] == signs[j])
    a, b, sign = pts[i[same]], pts[j[same]], signs[i[same]]
    got = _chord_sign_constant(a, b, sign)
    want = [oracles.chord_sign_constant(x, y, s) for x, y, s in zip(a, b, sign)]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("seed", [0, 1])
def test_bernstein_certificate_is_sound(seed):
    """Every kNN chord the Bernstein pre-certificate passes is one the exact
    scalar test accepts, and it passes nearly all of those."""
    from scipy.spatial import cKDTree

    pts = sphere_samples(1500, seed)
    nbrs = cKDTree(pts).query(pts, k=13)[1]
    i, j = np.repeat(np.arange(len(pts)), 12), nbrs[:, 1:].ravel()
    signs = np.sign(F_critical(pts))
    same = (signs[i] != 0.0) & (signs[i] == signs[j])
    a, b, sign = pts[i[same]], pts[j[same]], signs[i[same]]
    certified = stratification._bernstein_certified(
        stratification._chord_values(a, b), sign[:, None]
    )
    exact = np.array([oracles.chord_sign_constant(x, y, s) for x, y, s in zip(a, b, sign)])
    assert not np.any(certified & ~exact)
    assert certified.sum() >= 0.95 * exact.sum()


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# F = nu1^2 (nu1^2 + nu3^2) >= 0 on the first chord, zero where nu1 changes
# sign near t = 1/3; on the second F < 0 while |nu1| < |nu2|, for t in about
# (0.30, 0.37), between the nodes 0.25 and 0.5, and F > 0 at every node.
_TOUCHING_CHORD = (_unit([-0.1, 0.0, 1.0, 0.0]), _unit([0.2, 0.0, 1.0, 0.0]))
_DIPPING_CHORD = (_unit([-0.1, 0.01, 0.0, 1.0]), _unit([0.2, 0.01, 0.0, 1.0]))


@pytest.mark.parametrize("chord", [_TOUCHING_CHORD, _DIPPING_CHORD], ids=["touch", "dip"])
def test_bernstein_certificate_rejects_chords_reaching_zero(chord):
    a, b = (row[None, :] for row in chord)
    vals = stratification._chord_values(a, b)
    assert np.all(vals > 0.0)
    assert not stratification._bernstein_certified(vals, np.ones((1, 1)))[0]


def test_chord_test_rejects_dip_between_nodes():
    a, b = (row[None, :] for row in _DIPPING_CHORD)
    assert not _chord_sign_constant(a, b, np.ones(1))[0]
    assert not oracles.chord_sign_constant(a[0], b[0], 1.0)


@pytest.mark.parametrize(
    "n, seed, nu5", [(600, 0, 1.0), (600, 2, 1.0), (600, 5, -1.0), (2000, 1, 0.3)]
)
def test_stability_report_matches_reference(n, seed, nu5):
    """The whole-array report equals the one-point-at-a-time reference:
    records from the scalar path, component counts from a union-find flood
    fill with the scalar arc test (the first three sets exercise the
    rescue pass)."""
    pts = sphere_samples(n, seed)
    rep = stability_report(pts, nu5=nu5)
    want = _scalar_path(pts, nu5)
    assert [(r.stratum, r.config, r.stable) for r in rep.records] == [
        (w[0], w[1], w[3] == "stable") for w in want
    ]
    assert max(abs(r.max_real_part - w[2]) for r, w in zip(rep.records, want)) <= 1e-13
    counts = oracles.flood_component_counts(pts, [w[3] for w in want])
    assert (
        rep.stable_component_count,
        rep.unstable_component_count,
        rep.mixed_component_count,
    ) == (counts["stable"], counts["unstable"], counts["mixed"])


@pytest.mark.parametrize("seed", [3658652565, 815100843, 2503583820])
def test_stable_boundary_takes_first_crossing(seed):
    """On these sample sets a stable-to-mixed arc crosses the surface
    three times; only its first crossing bounds the stable region."""
    rep = stability_report(sphere_samples(10_000, seed), nu5=1.0)
    assert rep.stable_boundary_strata == frozenset({"S2", "S3"})


@pytest.mark.parametrize("seed", [3658652565, 815100843, 2503583820])
def test_boundary_probes_match_scalar_probes(seed):
    """The array probes give the strata that _probe_classify gives one
    crossing at a time, and those are the report's boundary strata."""
    from scipy.spatial import cKDTree

    pts = sphere_samples(10_000, seed)
    kinds = classify_points(stratification._unit_rows(pts), 1.0).kind
    nbrs = cKDTree(pts).query(pts, k=13)[1]
    i, j = np.repeat(np.arange(len(pts)), 12), nbrs[:, 1:].ravel()
    sel = (kinds[i] == KINDS.index("stable")) & (kinds[j] == KINDS.index("mixed"))
    crossings = stratification._surface_crossings(pts[i[sel]], pts[j[sel]])
    want = {stratification._probe_classify(q, 1.0, 1e-9) for q in crossings} - {None}
    assert stratification._probe_strata(crossings, 1.0, 1e-9) == want
    assert stability_report(pts, nu5=1.0).stable_boundary_strata == want


def test_boundary_probes_drop_ambiguous_rows(count_calls):
    """Ambiguous rows are dropped as _probe_classify drops them; only the
    row off the critical set goes through classify_point.  (At this tol a
    unit row within tol of both self-intersection circles is within tol of
    P5 or P6, so the ambiguous rows here are a pinch margin and an
    unresolved sheet quadrant.)"""
    theta = math.pi / 4.0 + 1.8e-9
    pinch = [0.0, math.cos(theta), math.sin(theta), 0.0]
    quadrant = _unit([5e-10, 0.3, math.sqrt(0.91), 5e-5])
    reps = representatives()
    rows = np.array([pinch, quadrant, reps["V3"][0].nu4, reps["S2"][0].nu4])
    assert stratification._critical_strata(rows, 1e-9).tolist()[:3] == [
        stratification._AMBIGUOUS, stratification._AMBIGUOUS, stratification._OFF_CRITICAL
    ]
    calls = count_calls(stratification.classify_point)
    got = stratification._probe_strata(rows, 1.0, 1e-9)
    assert calls[0] == 1
    assert got == {"V3", "S2"}
    assert got == {stratification._probe_classify(q, 1.0, 1e-9) for q in rows} - {None}


def test_stability_report_builds_no_records_or_scalar_labels(count_calls):
    """The report is columns: no classify_point call and no SampleRecord
    until records is read."""
    labels = count_calls(stratification.classify_point)
    records = count_calls(stratification.SampleRecord)
    rep = stability_report(sphere_samples(10_000, 42), 1.0)
    assert labels[0] == 0 and records[0] == 0
    assert len(rep.records) == records[0] == 10_000


@pytest.mark.parametrize("nu5", [1.0, -1.0, 0.3, 7.0])
@pytest.mark.parametrize("n", [2000, 5000])
@pytest.mark.parametrize("seed", range(6))
def test_stability_invariants_across_samplings(seed, n, nu5):
    """One stable, one unstable and two mixed regions, with the stable
    region bounded by S2 and S3, whatever the sample set and nu5."""
    rep = stability_report(sphere_samples(n, seed), nu5=nu5)
    assert (
        rep.stable_component_count,
        rep.unstable_component_count,
        rep.mixed_component_count,
    ) == (1, 1, 2)
    assert rep.stable_boundary_strata == frozenset({"S2", "S3"})


@pytest.mark.xfail(
    strict=True,
    reason="an isolated V4 sample near P6 finds no valid arc and stays a third "
    "mixed component",
)
def test_mixed_regions_not_split_near_p6():
    rep = stability_report(sphere_samples(10_000, 1559737105), nu5=1.0)
    assert rep.mixed_component_count == 2


# -- surface meshes -------------------------------------------------------------


def test_mesh_surface_validation():
    with pytest.raises(ValueError):
        mesh_surface(+1, 4)


def test_mesh_surface_basic_integrity():
    mesh = mesh_surface(+1, 16)
    assert mesh.disc == 1
    V = len(mesh.vertices)
    assert np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(F_critical(mesh.vertices))) <= 1e-14
    assert mesh.triangles.min() >= 0 and mesh.triangles.max() < V
    for tri in mesh.triangles:
        assert len(set(int(i) for i in tri)) == 3
    assert len(mesh.strata) == V
    assert set(mesh.strata) <= set(STRATA)
    assert len(mesh.params) == V


def test_mesh_surface_welds():
    mesh = mesh_surface(+1, 16)
    ts = mesh.params[:, 1]
    ss = mesh.params[:, 0]
    # seam: no vertex keeps t = 2 pi
    assert not np.any(ts == 2.0 * math.pi)
    # fold: the t = 3 pi / 2 column is identified away
    assert not np.any(np.isclose(ts, 3.0 * math.pi / 2.0))
    # mirror: on the s = 0 column only t <= pi survives
    on_mirror = ss == 0.0
    assert np.all(ts[on_mirror] <= math.pi + 1e-15)


def test_mesh_surface_contains_distinguished_points():
    plus = mesh_surface(+1, 16)
    minus = mesh_surface(-1, 16)
    assert {"P1", "P2", "P5", "L5", "L6"} <= set(plus.strata)
    assert {"P3", "P4", "P6", "L5", "L6"} <= set(minus.strata)
    assert {"S1", "S2", "S3", "S4"} <= set(plus.strata)


@pytest.mark.parametrize("res", [8, 16, 128])
def test_mesh_has_no_repeated_triangles(res):
    """The welds leave no two triangles on one vertex set, and the welded
    chart of each disc is a disc: chi = 1."""
    for disc in (+1, -1):
        mesh = mesh_surface(disc, res)
        keys = {tuple(sorted(int(v) for v in tri)) for tri in mesh.triangles}
        assert len(keys) == len(mesh.triangles)
        assert mesh.euler_characteristic() == 1


@pytest.mark.parametrize("res", [8, 9, 10, 12, 16, 17, 30, 64, 128])
def test_mesh_matches_reference_mesher(res):
    """Vertices and params bit for bit, triangles and strata exactly, against
    the cell-by-cell mesher whose strata are the scalar classify_point on
    SpherePoint(row, disc) of each of its vertices."""
    both = mesh_surfaces([+1, -1], res)
    for disc, joint in zip((+1, -1), both):
        vertices, params, triangles, strata = oracles.mesh_surface_reference(disc, res)
        for mesh in (mesh_surface(disc, res), joint):
            assert mesh.disc == disc
            assert np.array_equal(mesh.vertices.view(np.int64), vertices.view(np.int64))
            assert np.array_equal(mesh.params.view(np.int64), params.view(np.int64))
            assert np.array_equal(mesh.triangles, triangles)
            assert mesh.strata == strata


def test_mesh_surfaces_share_read_only_topology():
    """Both discs carry the one chart topology; writing into it raises."""
    plus, minus = mesh_surfaces([+1, -1], 16)
    assert plus.params is minus.params and plus.triangles is minus.triangles
    with pytest.raises(ValueError, match="read-only"):
        plus.triangles[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        minus.params[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        mesh_surface(+1, 8).triangles[:] = 0


@pytest.mark.parametrize("res, tol", [(16, 1e-17), (17, 1e-17), (16, 0.05), (17, 0.01)])
def test_mesh_fallback_rows_match_reference_mesher(res, tol):
    """At these tolerances some vertices are off the critical set or
    ambiguous for the array cascade; they take the scalar path, so the mesh
    labels them, or raises, as the reference mesher does."""
    def outcome(build):
        try:
            return build()
        except AmbiguousStratum as exc:
            return str(exc)

    want = outcome(lambda: oracles.mesh_surface_reference(+1, res, 1.0, tol)[3])
    got = outcome(lambda: mesh_surface(+1, res, 1.0, tol).strata)
    assert got == want


def test_mesh_labels_without_scalar_calls(count_calls):
    """At R = 128 every vertex is labelled by the array cascade: no
    one-point chart and no scalar classification."""
    classify_calls = count_calls(stratification.classify_point)
    chart_calls = count_calls(param_phi)
    for disc in (+1, -1):
        assert len(mesh_surface(disc, 128).strata) > 0
    assert (classify_calls[0], chart_calls[0]) == (0, 0)


def _scalar_codes(rows, tol):
    codes = []
    for row in rows:
        try:
            label = _critical_stratum(row, tol)
        except AmbiguousStratum:
            codes.append(stratification._AMBIGUOUS)
            continue
        codes.append(
            stratification._OFF_CRITICAL if label is None else list(STRATA).index(label.name)
        )
    return np.array(codes)


def _cascade_probe_rows(rng, tol):
    """Rows at {0.5, 1, 2, 4, 100} tol from each P point, from both
    self-intersection circles (pinch margin near 4 tol included) and from
    sheet points with nu1 or nu2 near 0, plus random sphere rows."""
    scales = np.array([0.5, 1.0, 2.0, 4.0, 100.0]) * tol
    rows = []
    dirs = np.vstack([np.eye(4), -np.eye(4), rng.normal(size=(8, 4))])
    dirs /= np.abs(dirs).max(axis=1)[:, None]
    for p in P_POINTS.values():
        rows += [np.array(p) + c * u for c in scales for u in dirs]
    theta = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 25), rng.uniform(0, 7, 25)])
    pinch = 0.5 * np.arccos(np.outer([-1.0, 1.0], [0.5, 1.0, 3.9, 4.0, 4.1, 8.0]).ravel() * tol)
    theta_b = np.concatenate([theta, (pinch[:, None] + np.arange(4) * math.pi / 2.0).ravel()])
    circle_a = np.column_stack([0 * theta, 0 * theta, np.cos(theta), np.sin(theta)])
    circle_b = np.column_stack([0 * theta_b, np.cos(theta_b), np.sin(theta_b), 0 * theta_b])
    for base, free in ((circle_a, (0, 1)), (circle_b, (0, 3))):
        for c in np.concatenate([[0.0], scales, -scales]):
            for k in free:
                shifted = base.copy()
                shifted[:, k] += c
                rows += list(shifted)
            both = base.copy()
            both[:, free[0]] += c
            both[:, free[1]] -= c
            rows += list(both)
    s = rng.uniform(-1.0, 1.0, 40)
    t = rng.uniform(0.0, 2.0 * math.pi, 40)
    for disc in (+1, -1):
        for c in np.concatenate([[0.0], scales, -scales]):
            rows += list(param_phi_array(disc, np.clip(c * math.sqrt(2.0), -1, 1), t))
            rows += list(param_phi_array(disc, s, math.pi / 2.0 + c * math.sqrt(2.0)))
            rows += list(param_phi_array(disc, s, 3.0 * math.pi / 2.0 + c * math.sqrt(2.0)))
    random_rows = rng.normal(size=(2000, 4))
    rows += list(random_rows / np.linalg.norm(random_rows, axis=1)[:, None])
    return np.array(rows)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_critical_strata_matches_scalar_cascade(rng, tol):
    """Row by row the array cascade gives the scalar cascade's stratum, its
    None, and 'ambiguous' exactly where the scalar cascade raises."""
    rows = _cascade_probe_rows(rng, tol)
    want = _scalar_codes(rows, tol)
    got = _critical_strata(rows, tol)
    assert np.array_equal(got, want)
    # every branch of the cascade is exercised
    names = {list(STRATA)[k][0] for k in want[want >= 0]}
    assert names == {"P", "L", "S", "V"}
    assert (want == stratification._AMBIGUOUS).sum() > 50
    assert (want == stratification._OFF_CRITICAL).sum() > 1000


def test_mesh_euler_characteristic_is_resolution_invariant():
    """The weld pattern closes up the same way at every 4-divisible size."""
    chis = {
        res: mesh_surface(+1, res).euler_characteristic() for res in (16, 32, 64)
    }
    assert len(set(chis.values())) == 1, chis
    assert (
        mesh_surface(-1, 32).euler_characteristic()
        == mesh_surface(+1, 32).euler_characteristic()
    )


def test_mesh_without_fold_column_still_welds_seam():
    mesh = mesh_surface(+1, 10)  # not divisible by 4: no fold weld
    ts = mesh.params[:, 1]
    assert not np.any(ts == 2.0 * math.pi)
    ss = mesh.params[:, 0]
    on_mirror = ss == 0.0
    assert np.all(ts[on_mirror] <= math.pi + 1e-15)


def test_euler_characteristic_of_hand_mesh():
    # two triangles sharing one edge: V=4, E=5, F=2
    mesh = SurfaceMesh(
        disc=1,
        vertices=np.eye(4),
        params=np.zeros((4, 2)),
        triangles=np.array([[0, 1, 2], [0, 2, 3]]),
        strata=("V1", "V1", "V1", "V1"),
    )
    assert mesh.euler_characteristic() == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_euler_characteristic_matches_edge_set(seed):
    """V - E + T against a set of edges, on triangle soups over few vertices
    so that many edges are shared, and on a mesh with no triangles."""
    rng = np.random.default_rng(seed)
    n = 12
    tris = np.array([rng.choice(n, 3, replace=False) for _ in range(40)])
    edges = {frozenset((int(x), int(y))) for a, b, c in tris for x, y in ((a, b), (b, c), (a, c))}
    soup = SurfaceMesh(1, np.zeros((n, 4)), np.zeros((n, 2)), tris, ("V1",) * n)
    assert soup.euler_characteristic() == n - len(edges) + len(tris)
    bare = SurfaceMesh(1, np.zeros((n, 4)), np.zeros((n, 2)), np.zeros((0, 3), int), ("V1",) * n)
    assert bare.euler_characteristic() == n


# -- incidence ------------------------------------------------------------------


def test_incidence_graph_rejects_dimension_jumps():
    with pytest.raises(ValueError):
        IncidenceGraph(tuple(sorted(STRATA)), frozenset({("P1", "S1")}))


def test_build_incidence_validation():
    with pytest.raises(ValueError):
        build_incidence(32)


def test_build_incidence_matches_frozen_edge_set():
    graph = build_incidence(128)
    assert set(graph.nodes) == set(STRATA)
    assert graph.edges == INCIDENCE_EDGES


def test_incidence_region_enclosures():
    graph = build_incidence(128)
    for region, sheets in REGION_SHEETS.items():
        got = {n for n in graph.neighbors(region) if n.startswith("S")}
        assert got == sheets, region
    # the stable region is fenced by exactly the two stable-side sheets
    assert {n for n in graph.neighbors("V3")} == {"S2", "S3"}
