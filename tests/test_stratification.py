import itertools
import math
from decimal import Decimal

import numpy as np
import pytest

from resonance_atlas import linalg, spectra, stratification
from resonance_atlas._pcg64 import uniform_doubles
from resonance_atlas.errors import AmbiguousStratum, RankAnomalous, ResonanceAtlasError
from resonance_atlas.geometry import (
    P_POINTS,
    F_critical,
    SpherePoint,
    UNIT_NORM_TOL,
    param_phi,
    param_phi_array,
    unit_point,
)
from resonance_atlas.spectra import (
    CONFIG_NAMES,
    ZERO_RE_TOL_SAMPLED,
    classify_configuration,
    spectrum,
)
from resonance_atlas.stratification import (
    KINDS,
    STRATA,
    STRATUM_NAMES,
    IncidenceGraph,
    SurfaceMesh,
    _chord_sign_constant,
    _column_strata,
    _row_label,
    _row_stratum,
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
    MAX_REAL_PART_SEED42,
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


def test_classify_points_raises_where_classify_point_does():
    """A batch holding one ambiguous row raises classify_point's error on it."""
    theta = math.pi / 4.0 + 1.8e-9
    for coords in (
        [0.0, math.cos(theta), math.sin(theta), 0.0],
        [0.0, 1e-5, math.sqrt(1.0 - 2e-10), 1e-5],
    ):
        p = unit_point(coords)
        with pytest.raises(AmbiguousStratum) as want:
            classify_point(p, 1.0)
        with pytest.raises(AmbiguousStratum) as got:
            classify_points(np.vstack([sphere_samples(100, 0), p.nu4]), 1.0)
        assert str(got.value) == str(want.value)


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


@pytest.mark.parametrize("seed", [0, 42, 12345, 3658652565, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4097, 10_000, 100_000])
def test_sphere_samples_match_reference(n, seed):
    """The build on (4, n) columns, with its own shift and row sums, gives
    the C-ordered (n, 4) rows of the row build with numpy.random's shift
    and np.linalg.norm, byte for byte."""
    got = sphere_samples(n, seed)
    assert got.flags.c_contiguous
    assert got.tobytes() == oracles.sphere_samples_reference(n, seed).tobytes()


def test_sphere_samples_shift_matches_numpy_random():
    """The shift is numpy.random.default_rng(seed).random(3) bit for bit,
    on small seeds and on seeds of one to four 32-bit words."""
    big = [2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64, 2**100 + 12345, 3658652565, 1559737105]
    for seed in [*range(3000), *big]:
        assert uniform_doubles(seed, 3) == np.random.default_rng(seed).random(3).tolist(), seed


@pytest.mark.parametrize(
    "seed, error",
    [(-1, ValueError), (-(2**70), ValueError), (1.5, TypeError), ("3", TypeError),
     (np.float64(2.0), TypeError)],
)
def test_sphere_samples_rejects_bad_seed(seed, error):
    """A negative or non-integer seed raises as numpy.random.default_rng does."""
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        sphere_samples(4, seed)


@pytest.mark.parametrize("samples", [np.zeros((0, 4)), []])
def test_stability_report_rejects_empty_samples(samples):
    with pytest.raises(ValueError, match="stability_report: samples must not be empty"):
        stability_report(samples)


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


def test_stratum_kinds():
    """The kind of each stratum: V3 stable, V1 unstable, V2 and V4 mixed,
    every sheet, curve and point critical."""
    kinds = {name: KINDS[k] for name, k in zip(STRATUM_NAMES, stratification._STRATUM_KINDS)}
    open_kinds = {name: kind for name, kind in kinds.items() if kind != "critical"}
    assert open_kinds == {"V1": "unstable", "V2": "mixed", "V3": "stable", "V4": "mixed"}
    assert len(kinds) == len(STRATA)


def _scalar_path(points, nu5, tol=1e-9, zero_re_tol=ZERO_RE_TOL_SAMPLED):
    """Per-point stratum, config, max real part, kind and stable flag, one
    point at a time through classify_point, configuration_at and spectrum;
    the kind is that of the stratum, and a point is stable when every real
    part lies below -zero_re_tol (1 + max |lambda|)."""
    out = []
    for v in points:
        p = SpherePoint(v)
        name = classify_point(p, nu5, tol).name
        spec = spectrum(evaluation_matrix(p, nu5), tol)
        thresh = zero_re_tol * (1.0 + max(abs(z) for z in spec.eigenvalues))
        out.append(
            (
                name,
                configuration_at(p, nu5, tol).code,
                spec.max_real_part,
                KINDS[stratification._STRATUM_KINDS[STRATUM_NAMES.index(name)]],
                all(z.real < -thresh for z in spec.eigenvalues),
            )
        )
    return out


def _near_sheet_points(rng, count, tol=1e-9, scales=(0.0, 0.5, 1.0, 2.0, 5.0, 50.0, 200.0)):
    """Chart points of both discs pushed each of scales times tol off the
    surface, in one random direction per chart point."""
    out = []
    for _ in range(count):
        s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.85))
        quarter = float(rng.integers(0, 4)) * math.pi / 2.0
        t = quarter + float(rng.uniform(0.15, math.pi / 2.0 - 0.15))
        q = param_phi(int(rng.choice([-1, 1])), s, t).nu4
        d = rng.standard_normal(4)
        for k in scales:
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
    assert got.stratum.dtype == got.config.dtype == np.int8
    assert [STRATUM_NAMES[k] for k in got.stratum] == [w[0] for w in want]
    assert [CONFIG_NAMES[k] for k in got.config] == [w[1] for w in want]
    assert [KINDS[k] for k in got.kind] == [w[3] for w in want]
    assert got.stable.tolist() == [w[4] for w in want]
    assert np.max(np.abs(got.max_real_part - [w[2] for w in want])) <= 1e-13


@pytest.mark.parametrize("nu5", [1.0, -1.0, 0.3, 7.0])
def test_classify_points_rows_equal_one_row_calls(nu5):
    """Every classify_points row is, bit for bit, the one-row _row_label
    call on it: stratum, config and max real part; classify_point gives
    the same stratum."""
    reps = np.array([p.nu4 for p, _ in representatives().values()])
    axis = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    sheets = _near_sheet_points(np.random.default_rng(11), 40)
    pts = np.vstack([sphere_samples(10_000, 42), reps, axis, sheets])
    got = classify_points(pts, nu5)
    want = [_row_label(v, nu5, 1e-9) for v in pts]
    names = [STRATUM_NAMES[k] for k in got.stratum]
    assert names == [STRATUM_NAMES[w[0]] for w in want]
    assert got.config.tolist() == [w[3] for w in want]
    want_max = np.array([w[5] for w in want])
    assert np.array_equal(got.max_real_part.view(np.int64), want_max.view(np.int64))
    assert [classify_point(SpherePoint(v), nu5).name for v in pts] == names


def _stress_points():
    """20k samples, the representatives, the axis, 3000 Gaussian rows, rows
    (+-1, e, e, e) next to the axis and rows 1e-10..1e-4 off the P points."""
    rng = np.random.default_rng(5)
    near_axis = [[s, e, e, e] for e in 10.0 ** -np.arange(1, 13) for s in (1.0, -1.0)]
    near_p = [
        np.array(p) + 10.0**-k * d / np.linalg.norm(d)
        for p in P_POINTS.values()
        for k in range(4, 11)
        for d in rng.standard_normal((3, 4))
    ]
    rows = np.vstack(
        [
            sphere_samples(20_000, 42),
            [p.nu4 for p, _ in representatives().values()],
            [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]],
            rng.standard_normal((3000, 4)),
            near_axis,
            near_p,
        ]
    )
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("nu5", [1.0, -1.0, 0.3, 7.0, -2.0])
def test_closed_form_configuration_matches_general_path(nu5):
    """The closed-form spectrum gives the configuration and stable count of
    the general path (char_poly, quartic_roots, clustering) on the
    evaluation matrix, and neither raises.  Next to the axis, at
    (+-1, e, e, e), the two pairs lie within the coincidence threshold but
    the annihilator has rank 4: both paths read two distinct pairs there,
    g+1g+2 where nu1 > 0 and g-1g-2 where nu1 < 0."""
    pts = _stress_points()
    distinct = []
    real_rank_test = spectra._pair_is_semisimple

    def rank_test(*args):
        out = real_rank_test(*args)
        distinct.append(out is None)
        return out

    want = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_pair_is_semisimple", rank_test)
        for v in pts:
            cfg = classify_configuration(evaluation_matrix(SpherePoint(v), nu5), 1e-9)
            want.append((cfg.code, cfg.stable_count))
    assert 0 < sum(distinct) < 20
    _, _, config, stable, _ = stratification._family_spectra(pts, nu5, 1e-9)
    assert [(CONFIG_NAMES[c], s) for c, s in zip(config.tolist(), stable.tolist())] == want


# The weights the closed-form verdicts are checked at: QUERY_NU5 of the
# benchmark, the stress weights and the ends of the nu5 range.
_VERDICT_NU5 = (1.0, -1.0, 0.3, 7.0, -2.0, -0.5, 0.5, 3.0, 1e-3, 1e3)
_VERDICT_NAMES = {
    spectra._SEMISIMPLE: True,
    spectra._NILPOTENT: False,
    spectra._DISTINCT: None,
    spectra._ANOMALOUS: RankAnomalous,
}


def _verdicts(rows, nu5, tol):
    """The closed-form verdict (spectra._family_verdict, on whole columns)
    and the SVD route's (oracles.pair_verdict_reference, row by row) on
    every row, each True, False, None or RankAnomalous."""
    closed = spectra._family_verdict(*rows.T, interior_scale(nu5), nu5, tol)
    want = []
    for v in rows:
        try:
            want.append(oracles.pair_verdict_reference(v, nu5, tol))
        except RankAnomalous:
            want.append(RankAnomalous)
    return [_VERDICT_NAMES[k] for k in closed.tolist()], want


@pytest.mark.parametrize("nu5", _VERDICT_NU5)
def test_closed_form_verdicts_match_svd_on_stress_rows(nu5):
    """On the stress rows whose pairs can coincide at some nu5 in the range
    (|D| <= 2e-3: the axis, the rows next to it and next to P1..P6, P1..P4)
    and on the six L representatives (rank 4 on the imaginary axis), the
    closed-form verdict is the SVD route's: True, False, None or the raise."""
    pts = _stress_points()
    near = pts[np.abs(spectra._pair_split(*pts[:, 1:].T)) <= 2e-3]
    rows = np.vstack([near, [representatives()[f"L{k}"][0].nu4 for k in range(1, 7)]])
    got, want = _verdicts(rows, nu5, 1e-9)
    assert len(rows) >= 90
    assert got == want
    assert {True, False, RankAnomalous} <= set(want)


def _rows_near_coincidence(rng, count):
    """count random unit rows, half next to the axis (+-1, e g) and half
    next to the curves D = 0, nu4 = 0 and nu2^2 = nu3^2 (a quarter of
    those on the imaginary axis, nu1 = 0), e log-uniform in 1e-10..1e-2."""
    e = 10.0 ** rng.uniform(-10.0, -2.0, size=(count, 1))
    g = rng.standard_normal((count, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    half = count // 2
    axis = np.zeros((half, 4))
    axis[:, 0] = rng.choice([-1.0, 1.0], size=half)
    a = rng.uniform(0.05, 1.0, size=count - half) * rng.choice([-1.0, 1.0], size=count - half)
    n1 = rng.uniform(-1.0, 1.0, size=count - half)
    curve = np.column_stack([n1, a, a * rng.choice([-1.0, 1.0], size=count - half), 0.0 * a])
    on_axis = np.arange(count - half) % 4 == 0
    curve[on_axis, 0] = 0.0
    g[half:][on_axis, 0] = 0.0
    return stratification._unit_rows(np.vstack([axis, stratification._unit_rows(curve)]) + e * g)


def test_closed_form_verdicts_match_svd_near_the_coincident_set():
    """30,000 random rows next to the axis and the D = 0 curves, spread over
    every weight of _VERDICT_NU5 and tol in {1e-12, 1e-9, 1e-6}: the
    closed-form verdict is the SVD route's on every row, and all four
    outcomes occur."""
    rows = _rows_near_coincidence(np.random.default_rng(29), 30_000)
    seen = set()
    for k, (nu5, tol) in enumerate(itertools.product(_VERDICT_NU5, (1e-12, 1e-9, 1e-6))):
        got, want = _verdicts(rows[k::30], nu5, tol)
        assert got == want, (nu5, tol)
        seen.update(want)
    assert seen == {True, False, None, RankAnomalous}


def _placed_rows(base, directions, nu5, tol, pick):
    """Rows base + e g, g in directions, with e set so that the singular
    value pick(svals) of the annihilator is 0.5, 0.9, 1.1 and 2 times the
    threshold max(tol, 1e-12) (1 + ||A||_2)^2, from its slope at e = 1e-7;
    only rows with e <= 1e-2 are kept, as (row, ratio) pairs."""
    t0 = interior_scale(nu5)

    def measure(v):
        w = complex(t0 * v[0] + 1j * nu5)
        E = evaluation_matrix(SpherePoint(v), nu5).entries
        svals = np.linalg.svd(E @ E - 2.0 * w.real * E + abs(w) ** 2 * np.eye(4), compute_uv=False)
        return pick(svals) / (max(tol, 1e-12) * (1.0 + np.linalg.norm(E, 2)) ** 2)

    out = []
    for g in directions:
        slope = measure(_unit(base + 1e-7 * g)) / 1e-7
        for k in (0.5, 0.9, 1.1, 2.0):
            if k / slope <= 1e-2:
                v = _unit(base + k / slope * g)
                out.append((v, measure(v) / k))
    return out


def test_closed_form_verdicts_match_svd_at_the_rank_thresholds():
    """Rows placed at 0.5, 0.9, 1.1 and 2 times the threshold of the large
    singular value (next to the axis: rank 0 or 2) and of the small one
    (next to P1's curve, nu1 = 0.5 and nu1 = 0: rank 2 or 4, None or the
    raise), at every weight of _VERDICT_NU5 and tol in {1e-12, 1e-9,
    1e-6}: the closed-form verdict is the SVD route's on every row."""
    rng = np.random.default_rng(2029)
    g = rng.standard_normal((4, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g0 = g * [0.0, 1.0, 1.0, 1.0]
    c = math.sqrt(0.5)
    count = 0
    for nu5 in _VERDICT_NU5:
        for tol in (1e-12, 1e-9, 1e-6):
            placed = (
                _placed_rows(np.array([1.0, 0.0, 0.0, 0.0]), g, nu5, tol, lambda s: s[0])
                + _placed_rows(np.array([-1.0, 0.0, 0.0, 0.0]), g, nu5, tol, lambda s: s[0])
                + _placed_rows(np.array([0.5, c, c, 0.0]) / math.hypot(0.5, 1.0), g, nu5, tol,
                               lambda s: s[3])
                + _placed_rows(np.array([0.0, c, c, 0.0]), g0, nu5, tol, lambda s: s[3])
            )
            if not placed:  # no row on the sphere reaches 0.5 thresholds
                continue
            # the slope placed every row within a few percent of its ratio
            assert all(abs(ratio - 1.0) <= 0.05 for _, ratio in placed)
            got, want = _verdicts(np.array([v for v, _ in placed]), nu5, tol)
            assert got == want, (nu5, tol)
            count += len(placed)
    assert count >= 1000


@pytest.mark.parametrize(
    "row, nu5, margin",
    [((1.0, 0.0, 8.4e-4, 1.12e-3), 1e-3, 5e-6), ((-1.0, 1e-6, 1e-6, 1e-6), 1.0, 2e-8)],
)
@pytest.mark.parametrize("which", [0, 3])  # the large and the small singular value
def test_closed_form_verdicts_are_exact_in_d(row, nu5, margin, which):
    """The two pairs of these rows coincide, yet D is not 0, and forms exact
    only at D = 0 are off: the singular values 2 t0 |nu5|
    sqrt((|nu2| +- |nu3|)^2 + nu4^2) by 2.4e-4 on the first row, the scale
    from ||A||_2 at D = 0 by 1.2e-7 on the second.  With tol set so that
    the SVD's singular value lies margin below and above the threshold, the
    closed-form verdict is the SVD route's on both sides, and the two sides
    differ."""
    v = _unit(row)
    t0 = interior_scale(nu5)
    hi, lo, _ = spectra._upper_pair(*v, t0, nu5, 1e-9)
    assert abs(hi - lo) <= linalg.CLUSTER_TOL_DEFAULT * (1.0 + max(abs(hi), abs(lo)))
    w = complex(t0 * v[0] + 1j * nu5)
    E = evaluation_matrix(SpherePoint(v), nu5).entries
    svals = np.linalg.svd(E @ E - 2.0 * w.real * E + abs(w) ** 2 * np.eye(4), compute_uv=False)
    sides = []
    for ratio in (1.0 - margin, 1.0 + margin):
        tol = svals[which] / (ratio * (1.0 + np.linalg.norm(E, 2)) ** 2)
        got, want = _verdicts(v[None], nu5, tol)
        assert got == want
        sides.append(want[0])
    assert sides[0] != sides[1]


@pytest.mark.parametrize("nu5", [1.0, -1.0, -2.0, 0.3, 7.0, 1e3])
@pytest.mark.parametrize("e", [1e-6, 1e-7])
@pytest.mark.parametrize("nu1", [1.0, -1.0])
def test_general_path_keeps_two_distinct_pairs(nu1, e, nu5):
    """At (+-1, e, e, e) the two pairs lie within the coincidence threshold
    but the annihilator has rank 4.  configuration_at then keeps the
    quartic's two distinct pairs, as _row_label (classify) does, instead of
    four copies of the double root, which lies |hi - lo| / 2 >= 1.2e-8
    (1 + |lambda|) from each.  The quartic resolves pairs that close to
    about 2e-9 (1 + |lambda|)."""
    v = np.array([nu1, e, e, e]) / math.sqrt(1.0 + 3.0 * e * e)
    general = configuration_at(SpherePoint(v), nu5, 1e-9)
    _, hi, lo, config, stable_count, max_re = _row_label(v, nu5, 1e-9)
    assert (general.code, general.stable_count) == (CONFIG_NAMES[config], stable_count)
    assert general.code == ("g+1g+2" if nu1 > 0.0 else "g-1g-2")
    assert general.spectrum.double_pair is None
    scale = 1.0 + max(abs(hi), abs(lo))
    assert abs(hi - lo) / 2.0 >= 1.2e-8 * scale
    closed = [hi, lo, hi.conjugate(), lo.conjugate()]
    gap = oracles.multiset_gap(general.spectrum.eigenvalues, closed)
    assert gap <= 2e-9 * scale
    assert abs(general.spectrum.max_real_part - max_re) <= 2e-9 * scale


@pytest.mark.parametrize("nu5", [1.0, -1.0, 0.3, 7.0, -2.0])
def test_row_spectrum_equals_column_spectrum(nu5):
    """The one-row evaluator of the pair kernel equals the column evaluator
    bit for bit: both eigenvalues above the real axis, config, stable count
    and max real part, on every stress row; neither raises, on the rank-4
    rows next to the axis included."""
    pts = _stress_points()

    def as_bits(hi, lo, config, stable, max_re):
        floats = np.array([hi.real, hi.imag, lo.real, lo.imag, max_re], dtype=float)
        return floats.view(np.int64).tolist(), int(config), int(stable)

    want = [stratification._row_spectrum(v, nu5, 1e-9) for v in pts]
    cols = stratification._family_spectra(pts, nu5, 1e-9)
    assert [as_bits(*r) for r in zip(*cols)] == [as_bits(*w) for w in want]


@pytest.mark.parametrize("nu5", [1.0, -2.0])
def test_column_verdict_runs_on_coincident_rows_only(nu5, monkeypatch):
    """The column evaluator hands _family_verdict exactly the rows whose two
    eigenvalues above the real axis lie within CLUSTER_TOL_DEFAULT
    (1 + max |lambda|) of each other, in one call, and does not call it on
    a sample draw with no such row."""
    seen = []
    verdict = spectra._family_verdict

    def recorded(*args):
        seen.append(np.column_stack(args[:4]))
        return verdict(*args)

    monkeypatch.setattr(spectra, "_family_verdict", recorded)
    pts = _stress_points()
    t0 = interior_scale(nu5)
    d = spectra._pair_split(*pts[:, 1:].T)
    hi, lo = t0 * pts[:, 0] + 1j * (nu5 + t0 * d), t0 * pts[:, 0] + 1j * (nu5 - t0 * d)
    coincident = np.abs(hi - lo) <= linalg.CLUSTER_TOL_DEFAULT * (
        1.0 + np.maximum(np.abs(hi), np.abs(lo)))
    assert 0 < coincident.sum() < 200
    stratification._family_spectra(pts, nu5, 1e-9)
    assert len(seen) == 1 and np.array_equal(seen[0], pts[coincident])
    seen.clear()
    stratification._family_spectra(sphere_samples(10_000, 42), nu5, 1e-9)
    assert seen == []


@pytest.mark.parametrize("nu5", [1.0, -1.0, 0.3, 7.0, -2.0])
def test_classify_point_equals_one_row_batch(nu5):
    """On every stress row classify_point and classify_points on that one
    row give the same stratum, or raise the same exception class."""

    def outcome(call):
        try:
            return call()
        except ResonanceAtlasError as exc:
            return type(exc)

    for v in _stress_points():
        got = outcome(lambda: classify_point(SpherePoint(v), nu5).name)
        want = outcome(lambda: STRATUM_NAMES[classify_points(v[None], nu5).stratum[0]])
        assert got == want, v


def test_max_real_part_against_fifty_digit_closed_form():
    """On the rows of sphere_samples(100000, 42) whose max real part once
    came from the quartic, the closed form is within 2.3e-16 of its value in
    50-digit arithmetic."""
    got = classify_points(stratification._unit_rows(sphere_samples(100_000, 42)), 1.0)
    for row, want in MAX_REAL_PART_SEED42.items():
        err = abs(Decimal(float(got.max_real_part[row])) - Decimal(want))
        assert err <= Decimal("2.3e-16"), (row, err)


def test_classify_points_build_no_matrix(count_calls, monkeypatch):
    """Every row is read from the closed-form spectrum: no general spectrum,
    no characteristic polynomial, no evaluation matrix, no annihilator-rank
    test on a matrix and no SVD, on the rows whose two pairs coincide (P1..P4
    and the two axis points) too."""
    calls = [
        count_calls(f)
        for f in (
            spectra.spectrum,
            linalg.char_poly,
            evaluation_matrix,
            spectra._pair_is_semisimple,
        )
    ]
    svd_calls = [0]
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svd_calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    reps = np.array([p.nu4 for p, _ in representatives().values()])
    axis = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    got = classify_points(np.vstack([sphere_samples(500, 3), reps, axis]), 1.0)
    assert [c[0] for c in calls] + svd_calls == [0] * 5
    coincident = np.r_[got.config[500:504], got.config[-2:]]  # P1..P4, +e1, -e1
    assert [CONFIG_NAMES[k] for k in coincident] == ["b^2"] * 4 + ["g+g+", "g-g-"]


def test_classify_points_validation():
    with pytest.raises(ValueError):
        classify_points(np.eye(4), 0.0)
    with pytest.raises(ValueError):
        classify_points(np.eye(4), 1.0, tol=0.0)
    with pytest.raises(ValueError):
        classify_points(2.0 * np.eye(4), 1.0)


@pytest.mark.parametrize("nu5", [1e-7, -1e-7, 1e-6, 1e4, -1e4, 1e6, np.nan, np.inf, 0.0])
def test_sampled_entry_points_reject_nu5_outside_its_range(nu5):
    """Outside 1e-3 <= |nu5| <= 1e3 the fixed tolerances give wrong labels,
    so classify_points, stability_report and the one-point classify_point
    and _row_label refuse such a nu5.  mesh_surfaces reads no spectrum and
    takes no nu5."""
    pts = sphere_samples(200, 0)
    p = SpherePoint(pts[0])
    calls = [
        lambda: classify_points(pts, nu5),
        lambda: stability_report(pts, nu5),
        lambda: classify_point(p, nu5),
        lambda: _row_label(p.nu4, nu5, 1e-9),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"nu5 must satisfy 0.001 <= \|nu5\| <= 1000"):
            call()


@pytest.mark.parametrize("nu5", [1e-3, -1e-3, 1e3, -1e3])
def test_sampled_entry_points_accept_the_ends_of_the_nu5_range(nu5):
    pts = sphere_samples(200, 0)
    got = classify_points(pts, nu5)
    assert got.stratum.tolist() == classify_points(pts, 1.0).stratum.tolist()
    assert len(stability_report(pts, nu5).records) == 200


def test_p_point_screen_matches_column_by_column_test():
    """Screening on nu1 and nu4 first gives the (n, 6) hits of comparing
    every coordinate, bit for bit, next to the P points and off them."""
    moved = []
    for p in stratification._P_ARRAY:
        for tol in (1e-9, 1e-7):
            for step in (0.5 * tol, 2.0 * tol):
                for sign in (+1.0, -1.0):
                    for c in range(4):
                        moved.append(p + sign * step * np.eye(4)[c])
                    moved.append(p + sign * step)
    rows = np.vstack([sphere_samples(5000, 0), stratification._P_ARRAY, moved])
    for tol in (1e-9, 1e-7):
        got = stratification._near_p_points(rows, tol)
        want = oracles.near_p_points_reference(rows, stratification._P_ARRAY, tol)
        assert got.shape == want.shape == (len(rows), 6)
        assert np.array_equal(got, want)
        assert 6 < want.sum() < len(moved)


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


def test_unit_rows_ignore_memory_layout():
    """C-ordered, Fortran-ordered and column-sliced rows give the bits of
    row / np.linalg.norm(row), as a view of contiguous (4, n) columns
    (np.vecdot alone sums the last two in another order)."""
    rows = np.random.default_rng(5).standard_normal((5000, 4))
    want = np.array([row / np.linalg.norm(row) for row in rows])
    wide = np.zeros((5000, 7))
    wide[:, 2:6] = rows
    for layout in (rows, np.asfortranarray(rows), wide[:, 2:6]):
        got = stratification._unit_rows(layout)
        assert got.T.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_classify_points_ignore_memory_layout():
    """Fortran-ordered rows and rows sliced from wider ones give the classes
    of the C-ordered call bit for bit, rows at the edge of the unit-norm
    tolerance included, which SpherePoint accepts."""
    rng = np.random.default_rng(5)
    u = rng.standard_normal((2000, 4))
    scale = 1.0 + UNIT_NORM_TOL + rng.integers(-4, 5, (2000, 1)) * 2.0**-52
    rows = u / np.linalg.norm(u, axis=1)[:, None] * scale
    rows = rows[np.sqrt(np.vecdot(rows, rows)) - 1.0 <= UNIT_NORM_TOL]  # SpherePoint's rule
    want = classify_points(rows, 1.0)
    wide = np.zeros((len(rows), 7))
    wide[:, 2:6] = rows
    for layout in (np.asfortranarray(rows), wide[:, 2:6]):
        assert not layout.flags.c_contiguous
        got = classify_points(layout, 1.0)
        for name in want._fields:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_stability_report_ignores_memory_layout():
    """Fortran-ordered samples give the report of C-ordered ones bit for
    bit, its points a view of contiguous (4, n) columns."""
    pts = sphere_samples(10_000, 42)
    want = stability_report(pts)
    got = stability_report(np.asfortranarray(pts))
    assert got.points.T.flags.c_contiguous
    for name in ("points", "stratum", "config", "max_real_part", "stable"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (
        got.stable_component_count,
        got.unstable_component_count,
        got.mixed_component_count,
        got.stable_boundary_strata,
    ) == (1, 1, 2, frozenset({"S2", "S3"}))


def _knn_chords(seed):
    """The chords from each of 1500 samples to its 12 nearest neighbours
    whose ends share a nonzero sign of F, with that sign."""
    from scipy.spatial import cKDTree

    pts = sphere_samples(1500, seed)
    nbrs = cKDTree(pts).query(pts, k=13)[1]
    i, j = np.repeat(np.arange(len(pts)), 12), nbrs[:, 1:].ravel()
    signs = np.sign(F_critical(pts))
    same = (signs[i] != 0.0) & (signs[i] == signs[j])
    return pts[i[same]], pts[j[same]], signs[i[same]]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_chord_test_matches_scalar_oracle(seed):
    """The batched arc test decides every kNN chord as the scalar one does."""
    a, b, sign = _knn_chords(seed)
    got = _chord_sign_constant(a, b, sign)
    want = [oracles.chord_sign_constant(x, y, s) for x, y, s in zip(a, b, sign)]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("seed", [0, 1])
def test_bernstein_certificate_is_sound(seed, monkeypatch):
    """Every kNN chord the Bernstein bound passes without a halving (the
    arc test at depth 0) is one the exact scalar test accepts, and it
    passes nearly all of those."""
    monkeypatch.setattr(stratification, "_SUBDIVISION_DEPTH", 0)
    a, b, sign = _knn_chords(seed)
    certified = _chord_sign_constant(a, b, sign)
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
def test_bernstein_certificate_rejects_chords_reaching_zero(chord, monkeypatch):
    monkeypatch.setattr(stratification, "_SUBDIVISION_DEPTH", 0)
    a, b = (row[None, :] for row in chord)
    vals = oracles.chord_values_reference(a, b)
    assert np.all(vals > 0.0)
    assert not _chord_sign_constant(a, b, np.ones(1))[0]


@pytest.mark.parametrize("chord", [_TOUCHING_CHORD, _DIPPING_CHORD], ids=["touch", "dip"])
def test_chord_test_rejects_chords_reaching_zero_at_every_depth(chord, monkeypatch):
    """F is positive at every node of both chords, but it touches zero on
    the first and dips below it on the second: the arc test rejects both at
    the default depth and whatever the depth cap.  (The scalar oracle
    accepts the touching chord; see oracles.chord_sign_constant.)"""
    a, b = (row[None, :] for row in chord)
    assert not _chord_sign_constant(a, b, np.ones(1))[0]
    for depth in range(31):
        monkeypatch.setattr(stratification, "_SUBDIVISION_DEPTH", depth)
        assert not _chord_sign_constant(a, b, np.ones(1))[0], depth


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
        (w[0], w[1], w[4]) for w in want
    ]
    assert max(abs(r.max_real_part - w[2]) for r, w in zip(rep.records, want)) <= 1e-13
    counts = oracles.flood_component_counts(pts, [w[3] for w in want])
    assert (
        rep.stable_component_count,
        rep.unstable_component_count,
        rep.mixed_component_count,
    ) == (counts["stable"], counts["unstable"], counts["mixed"])


def _flood_inputs(n, seed, nu5):
    pts = sphere_samples(n, seed)
    kinds = classify_points(stratification._unit_rows(pts), nu5).kind
    return pts, kinds, np.sign(F_critical(pts))


@pytest.mark.parametrize(
    "n, seed, nu5",
    [(10_000, 42, 1.0), (10_000, 1559737105, 1.0), (10_000, 3658652565, 1.0)]
    + [(2000, seed, nu5) for seed in (0, 3) for nu5 in (-1.0, 0.3, 7.0)]
    + [(10_000, seed, 1.0) for seed in range(6)],
)
def test_lazy_flood_matches_all_edges_flood(n, seed, nu5):
    """Testing only the arcs that still join two components, with the wide
    neighbours of the wide rows alone, gives the labels of testing every
    candidate arc of the kNN table (1559737105 takes the rescue pass).  The
    pairs returned are pairs of that table, once each: ranks 1 to 2 of
    every row, and all 12 ranks of a wide row."""
    pts, kinds, signs = _flood_inputs(n, seed, nu5)
    labels, (i, j) = oracles.flood_components(pts, kinds, signs)
    want_labels, table = oracles.flood_components_all_edges(pts, kinds, signs)
    assert np.array_equal(labels, want_labels)
    rows = np.arange(n)
    got = i * n + j
    assert len(np.unique(got)) == len(got)
    assert np.isin(got, np.repeat(rows, 12) * n + table[:, 1:].ravel()).all()
    assert np.isin(np.repeat(rows, 2) * n + table[:, 1:3].ravel(), got).all()
    per_row = np.bincount(i, minlength=n)
    assert set(per_row.tolist()) == {2, 12}
    # a row next to another class (kind or sign of F) at rank 1 or 2 is wide
    near = table[:, 1:3]
    other = (kinds[near] != kinds[:, None]) | (signs[near] != signs[:, None])
    assert np.all(per_row[other.any(axis=1)] == 12)


def test_few_rows_take_the_wide_query(monkeypatch):
    """At n = 10k fewer than a quarter of the rows query 13 neighbours;
    every row queries 3."""
    import scipy.spatial

    queried = {}

    class CountingTree(scipy.spatial.cKDTree):
        def query(self, x, k=1, **kwargs):
            queried[k] = queried.get(k, 0) + len(x)
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    pts, kinds, signs = _flood_inputs(10_000, 42, 1.0)
    oracles.flood_components(pts, kinds, signs)
    assert queried[3] == 10_000
    assert 0 < queried[13] < 2_500


def test_lazy_flood_reaches_the_last_rank_round():
    """Points in tight groups of six see only their own group up to rank 5,
    so the groups join through arcs of rank 6 to 12 alone (groups of six
    are not small enough for the rescue pass)."""
    rng = np.random.default_rng(7)
    centers = np.repeat(sphere_samples(200, 5), 6, axis=0)
    pts = stratification._unit_rows(centers + 1e-4 * rng.standard_normal(centers.shape))
    kinds = classify_points(pts, 1.0).kind
    signs = np.sign(F_critical(pts))
    labels, _ = oracles.flood_components(pts, kinds, signs)
    want, _ = oracles.flood_components_all_edges(pts, kinds, signs)
    assert np.array_equal(labels, want)
    assert len(np.unique(want)) < 100


@pytest.mark.parametrize("seed", [0, 1])
def test_candidate_arcs_match_pair_dict(seed):
    """Each unordered kNN pair appears once, as (min, max), when the flood
    may join it; the table exercises every rank."""
    from scipy.spatial import cKDTree

    pts = sphere_samples(1500, seed)
    kinds = classify_points(pts, 1.0).kind
    signs = np.sign(F_critical(pts))
    table = cKDTree(pts).query(pts, k=13)[1]
    want = {}
    for r, row in enumerate(table.tolist()):
        for c, q in enumerate(row[1:], start=1):
            key = (min(r, q), max(r, q))
            if r != q and c < want.get(key, 99):
                want[key] = c
    critical = KINDS.index("critical")
    want = {
        (a, b): c
        for (a, b), c in want.items()
        if kinds[a] != critical and kinds[a] == kinds[b] and signs[a] != 0 and signs[a] == signs[b]
    }
    i, j = oracles.candidate_arcs(kinds, signs, np.arange(len(pts)), table[:, 1:])
    got = set(zip(i.tolist(), j.tolist()))
    assert len(got) == len(i)
    assert got == set(want)
    assert set(want.values()) == set(range(1, 13))


def _count_chords(monkeypatch):
    """A one-element list that counts the chords sent through the arc test."""
    rows = [0]
    chord_test = stratification._chord_sign_constant

    def counted(a, b, sign):
        rows[0] += len(a)
        return chord_test(a, b, sign)

    monkeypatch.setattr(stratification, "_chord_sign_constant", counted)
    return rows


def test_flood_tests_few_chords(monkeypatch):
    """The lazy kNN flood of the oracle sends at most 13,000 chords through
    the arc test at n = 10k (12,456 today); testing every candidate arc
    sends 56,929."""
    rows = _count_chords(monkeypatch)
    pts, kinds, signs = _flood_inputs(10_000, 42, 1.0)
    labels, _ = oracles.flood_components(pts, kinds, signs)
    assert len(np.unique(labels[kinds == KINDS.index("mixed")])) == 2
    assert 0 < rows[0] <= 13_000


@pytest.mark.parametrize("seed", [42, 3658652565, 815100843])
def test_chord_values_match_chord_points(seed):
    """The chord quartic of the closed-form coefficients takes, at the five
    nodes, the values of F at the (m, 5, 4) chord points of the reference,
    to 1e-13 of its largest coefficient, on each sample's arc to its mixed
    anchor; the coefficients are the same bits on C-ordered rows as on
    views of contiguous (4, m) columns."""
    a = sphere_samples(10_000, seed)
    b = stratification._ANCHORS[stratification._mixed_anchor(a[:, 1], a[:, 3])]
    bern = stratification._chord_bernstein(a, b)
    vals = (oracles.CHORD_BASIS @ bern).T
    want = oracles.chord_values_reference(a, b)
    assert np.all(np.abs(vals - want) <= 1e-13 * np.abs(bern).max(axis=0)[:, None])
    cols = stratification._chord_bernstein(*(np.ascontiguousarray(x.T).T for x in (a, b)))
    assert np.array_equal(cols.view(np.int64), bern.view(np.int64))


def _assert_closed_form_matches_node_values(a, b, sign, certified):
    """The closed-form coefficients of each chord lie within 1e-13 of its
    largest coefficient of the node-value route, and the arc test decides
    every chord as it does on those coefficients."""
    got = stratification._chord_bernstein(a, b).T
    want = oracles.chord_bernstein_reference(a, b)
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * np.abs(want).max(axis=1))
    assert np.array_equal(certified(a, b, sign), oracles.chord_certified_reference(a, b, sign))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_closed_form_chords_match_node_values_on_knn_chords(seed):
    a, b, sign = _knn_chords(seed)
    _assert_closed_form_matches_node_values(a, b, sign, stratification._certified)


def test_closed_form_chords_match_node_values_on_anchor_arcs(monkeypatch):
    """On every anchor and waypoint arc of sphere_samples(10000, s), s in
    0..35, with the region counts (1, 1, 2) and the boundary {S2, S3}."""
    certified = stratification._certified
    arcs = []

    def recorded(a, b, sign):
        arcs.append((a, b, sign))
        return certified(a, b, sign)

    monkeypatch.setattr(stratification, "_certified", recorded)
    for seed in range(36):
        rep = stability_report(sphere_samples(10_000, seed))
        assert (
            rep.stable_component_count,
            rep.unstable_component_count,
            rep.mixed_component_count,
            rep.stable_boundary_strata,
        ) == (1, 1, 2, frozenset({"S2", "S3"})), seed
        assert len(arcs) == 2, seed  # the arcs to anchors and waypoints, the waypoint arcs
        for a, b, sign in arcs:
            _assert_closed_form_matches_node_values(a, b, sign, certified)
        arcs.clear()


@pytest.mark.parametrize("seed", [42, 3658652565, 815100843, 2503583820, 7])
def test_stable_boundary_matches_stationary_crossings(seed):
    """The closed-form boundary point of each stable sample v = (nu1, w) at
    n = 100k is the crossing of F = 0 that the stationary-point reference
    finds on the arc v -> (0, w) / |w|.  That arc runs along the meridian
    from -e1, and by F = (nu1^2 - Im D^2)(nu1^2 + Re D^2) it crosses F = 0
    once.  The crossing is ill-conditioned as |Im D| -> 0, so the points
    must agree where |Im D| >= 1e-3 (about 99 % of the rows), and F must
    vanish to 1e-15 on every row."""
    pts = sphere_samples(100_000, seed)
    stable = pts[classify_points(pts, 1.0).kind == KINDS.index("stable")]
    got = stratification._stable_boundary(stable)
    ends = stable * [0.0, 1.0, 1.0, 1.0]
    ends /= np.linalg.norm(ends, axis=1, keepdims=True)
    want = oracles.surface_crossings_stationary_reference(stable, ends)
    assert got.shape == want.shape == stable.shape
    n2, n3, n4 = stable[:, 1:].T
    im_d = np.abs(np.sqrt(n3 * n3 + n4 * n4 - n2 * n2 + 2j * n2 * n4).imag)
    conditioned = im_d >= 1e-3
    assert conditioned.mean() > 0.95
    assert np.abs(got - want)[conditioned].max() <= 1e-14
    assert np.abs(F_critical(got)).max() <= 1e-15


def test_stable_boundary_skips_the_pole():
    """The pole -e1 lies on every meridian and gives no boundary point; a
    report with it among the samples still reads S2 and S3."""
    pole = np.array([[-1.0, 0.0, 0.0, 0.0]])
    assert stratification._stable_boundary(pole).shape == (0, 4)
    rep = stability_report(np.vstack([pole, sphere_samples(2000, 0)]), nu5=1.0)
    assert rep.stable[0]
    assert rep.stable_boundary_strata == frozenset({"S2", "S3"})


def test_stability_report_without_eigensolver_roots(monkeypatch):
    """The arc test runs on Bernstein coefficients alone and the stable
    boundary comes in closed form: no companion-matrix eigenvalues and no
    np.roots."""
    calls = {"eigvals": 0, "roots": 0}

    def counting(module, name):
        func = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(np.linalg, "eigvals")
    counting(np, "roots")
    rep = stability_report(sphere_samples(10_000, 42), nu5=1.0)
    assert rep.stable_boundary_strata == frozenset({"S2", "S3"})
    assert calls == {"eigvals": 0, "roots": 0}


@pytest.mark.parametrize("seed", [3658652565, 815100843, 2503583820])
def test_stable_boundary_takes_first_crossing(seed):
    """On these sample sets some arc from a stable sample to a mixed one
    crosses the surface three times.  The boundary is read where each
    stable sample's meridian from -e1 leaves V3, its one crossing of F = 0
    that bounds the stable region, and it is S2 and S3."""
    rep = stability_report(sphere_samples(10_000, seed), nu5=1.0)
    assert rep.stable_boundary_strata == frozenset({"S2", "S3"})


@pytest.mark.parametrize("seed", [3658652565, 815100843, 2503583820])
def test_boundary_probes_match_scalar_probes(seed):
    """The array probes give the strata that oracles.probe_classify gives
    the closed-form boundary points one at a time, and those are the
    report's boundary strata."""
    pts = sphere_samples(10_000, seed)
    kinds = classify_points(stratification._unit_rows(pts), 1.0).kind
    boundary = stratification._stable_boundary(pts[kinds == KINDS.index("stable")])
    want = {oracles.probe_classify(q, 1.0, 1e-9) for q in boundary} - {None}
    assert want == {"S2", "S3"}
    assert stratification._probe_strata(boundary, 1e-9) == want
    assert stability_report(pts, nu5=1.0).stable_boundary_strata == want


def test_boundary_probes_drop_ambiguous_rows(count_calls):
    """Ambiguous rows are dropped as oracles.probe_classify drops them,
    and no row goes through classify_point.  (At
    this tol a unit row within tol of both self-intersection circles is
    within tol of P5 or P6, so the ambiguous rows here are a pinch margin
    and an unresolved sheet quadrant.)"""
    theta = math.pi / 4.0 + 1.8e-9
    pinch = [0.0, math.cos(theta), math.sin(theta), 0.0]
    quadrant = _unit([5e-10, 0.3, math.sqrt(0.91), 5e-5])
    reps = representatives()
    rows = np.array([pinch, quadrant, reps["V3"][0].nu4, reps["S2"][0].nu4])
    assert _column_strata(rows, 1e-9).tolist()[:3] == [
        stratification._AMBIGUOUS, stratification._AMBIGUOUS, STRATUM_NAMES.index("V3")
    ]
    calls = count_calls(stratification.classify_point)
    got = stratification._probe_strata(rows, 1e-9)
    assert calls[0] == 0
    assert got == {"V3", "S2"}
    assert got == {oracles.probe_classify(q, 1.0, 1e-9) for q in rows} - {None}


def test_stability_report_builds_no_records_or_scalar_labels(count_calls):
    """The report is columns: no classify_point call and no SampleRecord
    until records is read."""
    labels = count_calls(stratification.classify_point)
    records = count_calls(stratification.SampleRecord)
    rep = stability_report(sphere_samples(10_000, 42), 1.0)
    assert labels[0] == 0 and records[0] == 0
    assert len(rep.records) == records[0] == 10_000


def _assert_stable_in_v3(rep):
    """Every stable row lies in V3 and has a negative max real part."""
    assert np.all(rep.stratum[rep.stable] == STRATUM_NAMES.index("V3"))
    assert np.all(rep.max_real_part[rep.stable] < 0.0)


@pytest.mark.parametrize("nu5", [1.0, -1.0, 0.3, 7.0])
@pytest.mark.parametrize("n", [2000, 5000])
@pytest.mark.parametrize("seed", range(6))
def test_stability_invariants_across_samplings(seed, n, nu5):
    """One stable, one unstable and two mixed regions, with the stable
    region bounded by S2 and S3, whatever the sample set and nu5; a sample
    is stable only in V3."""
    rep = stability_report(sphere_samples(n, seed), nu5=nu5)
    assert (
        rep.stable_component_count,
        rep.unstable_component_count,
        rep.mixed_component_count,
    ) == (1, 1, 2)
    assert rep.stable_boundary_strata == frozenset({"S2", "S3"})
    _assert_stable_in_v3(rep)


def test_mixed_regions_not_split_near_p6():
    """A V4 sample in a thin wedge near P6, which no kNN arc joins to its
    region, reaches its anchor."""
    rep = stability_report(sphere_samples(10_000, 1559737105), nu5=1.0)
    assert rep.mixed_component_count == 2


# The seeds of the sweep in ROADMAP.md: 0-29 and six more.
_SWEEP_SEEDS = [*range(30), 42, 12345, 1559737105, 3658652565, 815100843, 2503583820]


@pytest.mark.parametrize(
    "n, seed",
    [pytest.param(100_000, s, id=str(s)) for s in (4, 9, 12, 16, 18, 25, 42, 12345)]
    + [pytest.param(10_000, s, id=f"10k-{s}") for s in _SWEEP_SEEDS],
)
def test_stability_invariants_where_the_knn_flood_splits(n, seed):
    """At n = 100k the kNN flood splits a mixed region on the first eight
    seeds; the anchor arcs give the paper's counts and boundary there, and
    on every seed of the sweep at n = 10k.  A sample is stable only in
    V3."""
    rep = stability_report(sphere_samples(n, seed), nu5=1.0)
    assert (
        rep.stable_component_count,
        rep.unstable_component_count,
        rep.mixed_component_count,
    ) == (1, 1, 2)
    assert rep.stable_boundary_strata == frozenset({"S2", "S3"})
    _assert_stable_in_v3(rep)


def test_near_sheet_rows_take_their_kind_from_the_sign_of_f():
    """Chart points pushed 0 to 1e4 tol off the sheets, 1800 rows added to
    10k samples, keep one stable, one unstable and two mixed regions with
    boundary {S2, S3}, and every row off the critical set has the kind of
    its sign of F: stable or unstable where F > 0, mixed where F < 0.  The
    stratum is read from F, so a row a few tol off a sheet whose real part
    reads as zero still lands in the region its arcs reach (kinds taken
    from strata read off the count of stable eigenvalues give (1, 14, 13)
    here).  A row is stable only in V3."""
    scales = (0.0, 0.5, 1.0, 2.0, 5.0, 50.0, 200.0, 1e3, 1e4)
    near = _near_sheet_points(np.random.default_rng(11), 200, scales=scales)
    rep = stability_report(np.vstack([sphere_samples(10_000, 42), near]), nu5=1.0)
    assert (
        rep.stable_component_count,
        rep.unstable_component_count,
        rep.mixed_component_count,
    ) == (1, 1, 2)
    assert rep.stable_boundary_strata == frozenset({"S2", "S3"})
    kinds = classify_points(rep.points, 1.0).kind
    live = kinds != KINDS.index("critical")
    want = np.where(kinds[live] == KINDS.index("mixed"), -1.0, 1.0)
    assert np.array_equal(np.sign(F_critical(rep.points[live])), want)
    _assert_stable_in_v3(rep)


def test_anchors_lie_in_their_regions():
    """F > 0 at the poles -e1 (stable) and +e1 (unstable) and F < 0 at the
    four mixed anchors A(+-1, +-1); each anchor is classified as its kind."""
    anchors = stratification._ANCHORS
    assert np.allclose(np.linalg.norm(anchors, axis=1), 1.0)
    assert np.allclose(F_critical(anchors), [1.0, 1.0] + [-0.25] * 4, rtol=1e-15, atol=0.0)
    kinds = stratification._ANCHOR_KINDS
    assert [KINDS[k] for k in kinds] == ["stable", "unstable"] + ["mixed"] * 4
    assert np.array_equal(classify_points(anchors, 1.0).kind, kinds)
    for s, sigma in itertools.product((1.0, -1.0), repeat=2):
        k = stratification._mixed_anchor(s, sigma)
        assert np.allclose(anchors[k] * math.sqrt(2.0), [0.0, s, 0.0, sigma])


def test_bridges_are_certified():
    """Both arcs A(s, +) -> (0.1 s, s, 0, 0) -> A(s, -) keep F < 0 for
    s = +-1, so the four mixed anchors fall into two classes."""
    anchors = stratification._ANCHORS
    for s, plus, minus in ((1.0, 2, 3), (-1.0, 4, 5)):
        via = np.array([[0.1 * s, s, 0.0, 0.0]] * 2)
        assert _chord_sign_constant(anchors[[plus, minus]], via, -np.ones(2)).all()
    assert stratification._anchor_classes().tolist() == [0, 1, 2, 2, 4, 4]


def test_wrong_kinds_raise_the_counts():
    """Five stable samples relabelled unstable and five mixed ones relabelled
    stable fail their arcs, so each counts as a component of its own."""
    pts, kinds, _ = _flood_inputs(10_000, 42, 1.0)
    stable, unstable, mixed = (KINDS.index(k) for k in ("stable", "unstable", "mixed"))
    counts = stratification._anchor_components(pts, kinds)
    assert counts.tolist() == [1, 1, 2, 0]
    wrong = kinds.copy()
    wrong[np.flatnonzero(kinds == stable)[:5]] = unstable
    wrong[np.flatnonzero(kinds == mixed)[:5]] = stable
    assert stratification._anchor_components(pts, wrong).tolist() == [6, 6, 2, 0]


def test_anchor_arcs_per_sample(monkeypatch):
    """The anchor arcs are a fixed set: one chord per stable or unstable
    sample, two per mixed one and four for the bridges, with no neighbour
    search."""
    rows = _count_chords(monkeypatch)
    pts, kinds, _ = _flood_inputs(10_000, 42, 1.0)
    stratification._anchor_components(pts, kinds)
    assert rows[0] == len(pts) + np.count_nonzero(kinds == KINDS.index("mixed")) + 4


# -- surface meshes -------------------------------------------------------------


def test_mesh_surface_validation():
    with pytest.raises(ValueError):
        mesh_surface(+1, 4)
    with pytest.raises(ValueError):
        mesh_surface(+1, 16, tol=0.0)


def test_mesh_surface_basic_integrity():
    mesh = mesh_surface(+1, 16)
    assert mesh.disc == 1
    V = len(mesh.vertices)
    assert np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(F_critical(mesh.vertices))) <= 1e-14
    assert mesh.triangles.min() >= 0 and mesh.triangles.max() < V
    for tri in mesh.triangles:
        assert len(set(int(i) for i in tri)) == 3
    assert mesh.strata.dtype == np.int8 and len(mesh.strata) == V
    assert set(mesh.strata.tolist()) <= set(range(len(STRATUM_NAMES)))
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


def _names(strata):
    """The stratum names of a mesh's int8 codes."""
    return tuple(STRATUM_NAMES[k] for k in strata.tolist())


def test_mesh_surface_contains_distinguished_points():
    plus = _names(mesh_surface(+1, 16).strata)
    minus = _names(mesh_surface(-1, 16).strata)
    assert {"P1", "P2", "P5", "L5", "L6"} <= set(plus)
    assert {"P3", "P4", "P6", "L5", "L6"} <= set(minus)
    assert {"S1", "S2", "S3", "S4"} <= set(plus)


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
            assert _names(mesh.strata) == strata


def test_chart_topology_matches_full_duplicate_search():
    """The duplicate search on the weld triangles only numbers the vertices
    and keeps the triangles as the search over every triangle does, for
    every resolution from 8 to 130."""
    for res in range(8, 131):
        params, triangles = stratification._chart_topology(res)
        want_params, want_triangles = oracles.chart_topology_reference(res)
        assert params.tobytes() == want_params.tobytes(), res
        assert triangles.tobytes() == want_triangles.tobytes(), res


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
    got = outcome(lambda: _names(mesh_surface(+1, res, tol).strata))
    assert got == want


def test_mesh_labels_without_scalar_calls(count_calls):
    """At R = 128 every vertex is labelled by the array cascade: no
    one-point chart and no scalar classification."""
    classify_calls = count_calls(stratification.classify_point)
    chart_calls = count_calls(param_phi)
    for disc in (+1, -1):
        assert len(mesh_surface(disc, 128).strata) > 0
    assert (classify_calls[0], chart_calls[0]) == (0, 0)


def _outcomes(label, rows, tol):
    """(code, message) per row of label(row, tol), which returns a code into
    STRATUM_NAMES or a stratum name: the code with no message; or
    _AMBIGUOUS and the AmbiguousStratum message."""
    out = []
    for row in rows:
        try:
            got = label(row, tol)
        except AmbiguousStratum as exc:
            out.append((stratification._AMBIGUOUS, str(exc)))
            continue
        if isinstance(got, str):
            got = STRATUM_NAMES.index(got)
        out.append((int(got), None))
    return out


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
    """Row by row both evaluators of the rule table give the hand-written
    if chain's stratum, and 'ambiguous' exactly where it raises; the
    one-row evaluator raises with the same message.  The if chain reads the
    open regions from the closed form V3 = {nu1 < -|Im D|},
    V1 = {nu1 > |Im D|}, the table from the sign of F."""
    rows = _cascade_probe_rows(rng, tol)
    want = _outcomes(oracles.stratum_reference, rows, tol)
    assert _outcomes(_row_stratum, rows, tol) == want
    codes = np.array([code for code, _ in want])
    assert np.array_equal(_column_strata(rows, tol), codes)
    # every rule of the table is exercised, every ambiguous rule included
    names = {STRATUM_NAMES[k] for k in codes[codes >= 0]}
    assert {"V1", "V2", "V3", "V4"} <= names
    assert {name[0] for name in names} == {"P", "L", "S", "V"}
    assert len({why for _, why in want} - {None}) == 3
    assert (codes == stratification._AMBIGUOUS).sum() > 50
    assert np.isin(codes, [STRATUM_NAMES.index(f"V{k}") for k in range(1, 5)]).sum() > 1000
    # F >= -tol^2 where |nu2| <= tol, so no such row reaches the V2 / V4 rule
    near_nu2_zero = codes[np.abs(rows[:, 1]) <= tol]
    assert len(near_nu2_zero) > 100
    assert not np.isin(near_nu2_zero, [STRATUM_NAMES.index("V2"), STRATUM_NAMES.index("V4")]).any()


def test_open_rules_row_and_column_evaluators_agree():
    """Off the critical surface and the self-intersection loci the last
    rules of _cascade give V3 where F > 0 and nu1 < 0, V1 where F > 0,
    else V2 or V4 by the sign of nu2, in the one-row and the column
    evaluator alike, at 2 tol from each sign change."""
    tol = 1e-9
    F, n1, n2 = np.meshgrid(
        [-0.3, -2.0 * tol, 2.0 * tol, 0.3],
        [-0.5, -2.0 * tol, 2.0 * tol, 0.5],
        [-0.4, -2.0 * tol, 2.0 * tol, 0.4],
    )
    F, n1, n2 = F.ravel(), n1.ravel(), n2.ravel()
    n3, n4 = np.full_like(F, 0.5), np.full_like(F, 0.5)
    want = []
    for f, a, b in zip(F.tolist(), n1.tolist(), n2.tolist()):
        if f > 0.0:
            want.append(STRATUM_NAMES.index("V3" if a < 0.0 else "V1"))
        else:
            want.append(STRATUM_NAMES.index("V2" if b > 0.0 else "V4"))
    no_p = stratification._NO_RULE
    one_row = [
        stratification._row_code(
            stratification._cascade(a, b, c, d, f, no_p, tol), stratification._CASCADE_WHY
        )
        for a, b, c, d, f in zip(n1.tolist(), n2.tolist(), n3.tolist(), n4.tolist(), F.tolist())
    ]
    assert one_row == want
    p_code = np.full(len(F), no_p)
    got = stratification._column_codes(stratification._cascade(n1, n2, n3, n4, F, p_code, tol))
    assert got.tolist() == want
    assert {STRATUM_NAMES[k] for k in want} == {"V1", "V2", "V3", "V4"}


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


@pytest.mark.parametrize("grid_n", [32, 66, 130])
def test_build_incidence_validation(grid_n):
    """Below 64, or off a multiple of 4 (where the fold weld is missing),
    the grid is refused."""
    with pytest.raises(ValueError):
        build_incidence(grid_n)


@pytest.mark.parametrize("nu5", [1.0, -1.0, 0.3, 7.0])
@pytest.mark.parametrize("grid_n", [64, 100, 128, 256])
def test_build_incidence_matches_frozen_edge_set(grid_n, nu5):
    graph = build_incidence(grid_n, nu5)
    assert set(graph.nodes) == set(STRATA)
    assert graph.edges == INCIDENCE_EDGES


def test_build_incidence_certifies_off_sheet_pushes(monkeypatch):
    """With every push accepted, the pushes from near the fold cross the
    other sheet and add four false sheet-region edges; the chord
    certificate is what keeps them out."""
    monkeypatch.setattr(
        stratification, "_chord_sign_constant", lambda a, b, sign: np.ones(len(a), dtype=bool)
    )
    graph = build_incidence(128)
    assert graph.edges - INCIDENCE_EDGES == {
        ("S1", "V3"), ("S4", "V3"), ("S2", "V1"), ("S3", "V1"),
    }
    assert INCIDENCE_EDGES <= graph.edges


def test_incidence_region_enclosures():
    graph = build_incidence(128)
    for region, sheets in REGION_SHEETS.items():
        got = {n for n in graph.neighbors(region) if n.startswith("S")}
        assert got == sheets, region
    # the stable region is fenced by exactly the two stable-side sheets
    assert {n for n in graph.neighbors("V3")} == {"S2", "S3"}
