import csv
import io
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import resonance_atlas
from resonance_atlas import algebra, cli, linalg, spectra, stratification
from resonance_atlas.cli import _build_parser, _json_float, main
from resonance_atlas.geometry import F_critical, P_POINTS, SpherePoint, param_phi
from resonance_atlas.spectra import CONFIG_NAMES
from resonance_atlas.stratification import (
    STRATA,
    STRATUM_NAMES,
    mesh_surface,
    sphere_samples,
    stability_report,
)

import oracles


def test_verify_basis_suite(capsys):
    assert main(["verify", "--suite", "basis"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "OK 3 checks"
    assert "residual=" in lines[0] and "tol=" in lines[0]


def test_verify_strata_suite(capsys):
    """The strata suite checks the representatives and the closed-form
    annihilator the coincident pairs are decided by."""
    assert main(["verify", "--suite", "strata"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "OK 2 checks"
    assert lines[0].startswith("PASS strata.representatives ")
    assert lines[1].startswith("PASS strata.annihilator_closed_form ")
    assert float(lines[1].split("residual=")[1].split()[0]) <= 1e-14


def test_verify_surface_suite_states_the_anchor_facts(capsys):
    """The surface suite checks the factorisation of F, the closed-form
    chart of the stable boundary and the sign of F on nu2 = 0, which the
    anchor arcs and the boundary strata of stability_report rest on."""
    assert main(["verify", "--suite", "surface"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "OK 6 checks"
    assert any(line.startswith("PASS surface.factorisation ") for line in lines)
    assert any(line.startswith("PASS surface.stable_boundary_chart ") for line in lines)
    assert any(line.startswith("PASS surface.nu2_zero_nonnegative ") for line in lines)


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


def test_classify_text_output(capsys):
    assert main(["classify", "0", "0", "1", "0"]) == 0
    out = capsys.readouterr().out
    assert "stratum  P5 (dimension 0)" in out
    assert "config   b1b2" in out


def test_classify_json_output(capsys):
    assert main(["classify", "0.25", "0.5", "0.75", "0.35355339059327373", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["stratum"] == "S1"
    assert payload["dimension"] == 2
    assert payload["config"] == "bg+"
    assert payload["disc"] == 1
    assert len(payload["eigenvalues"]) == 4
    assert abs(np.linalg.norm(payload["point"]) - 1.0) <= 1e-12


def test_classify_normalizes_input(capsys):
    # same ray, different magnitude: identical stratum
    assert main(["classify", "9", "1", "4", "1", "--json"]) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(["classify", "0.9", "0.1", "0.4", "0.1", "--json"]) == 0
    b = json.loads(capsys.readouterr().out)
    assert a["stratum"] == b["stratum"] == "V1"


def test_classify_rejects_zero_point(capsys):
    assert main(["classify", "0", "0", "0", "0"]) == 2
    assert main(["classify", "1", "0", "0", "0", "0.0"]) == 2


def test_classify_ambiguous_point_is_numerical_failure(capsys):
    theta = math.pi / 4.0 + 1.8e-9
    args = ["classify", "0", repr(math.cos(theta)), repr(math.sin(theta)), "0"]
    assert main(args) == 1
    assert "resonance-atlas:" in capsys.readouterr().err


def _classify_json_cases():
    """(coordinate strings, nu5) for the byte-identity test of classify --json."""
    rng = np.random.default_rng(20261018)
    cases = [
        ([repr(c) for c in point.nu4.tolist()], nu5)
        for point, nu5 in stratification.representatives().values()
    ]
    cases += [([repr(sgn), "0.0", "0.0", "0.0"], nu5) for sgn in (1.0, -1.0) for nu5 in (1.0, -2.0)]
    for disc in (+1, -1):
        for _ in range(16):
            s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.85))
            t = float(rng.integers(0, 4) * (math.pi / 2.0) + rng.uniform(0.15, math.pi / 2.0 - 0.15))
            cases.append(([repr(c) for c in param_phi(disc, s, t).nu4.tolist()], 1.0))
    for row in rng.normal(size=(300, 4)):
        for nu5 in (-2.0, -1.0, -0.5, 0.5, 1.0, 3.0):
            cases.append(([repr(c) for c in row.tolist()], nu5))
    cases += [
        (["-0", "0.6", "-0.0", "0.8"], 1.0),
        (["0.3", "-0", "0.5", "-0.0"], -0.5),
        (["-0.0", "-0", "1", "-0"], 3.0),
    ]
    for row in rng.normal(size=(4, 4)):
        for scale in (1e300, 1e-300):
            cases.append(([repr(c) for c in (row * scale).tolist()], 1.0))
    return cases


def test_classify_json_matches_json_dumps(monkeypatch, capsys):
    """classify --json prints json.dumps(payload, indent=2, sort_keys=True)
    of the values it classified, byte for byte; nu5 comes in through the
    positional and the --nu5 flag in turn."""
    seen = []

    def recording(v, nu5, tol):
        out = row_label(v, nu5, tol)
        seen.append((v, nu5) + out)
        return out

    row_label = cli._row_label
    monkeypatch.setattr(cli, "_row_label", recording)
    for k, (coords, nu5) in enumerate(_classify_json_cases()):
        if k % 2:
            argv = [f"--nu5={nu5!r}", "classify", "--json", "--", *coords]
        else:
            argv = ["classify", "--json", "--", *coords, repr(nu5)]
        assert main(argv) == 0, argv
        v, used_nu5, code, hi, lo, config, stable_count, max_re = seen.pop()
        point, label = SpherePoint(v), STRATA[STRATUM_NAMES[code]]
        roots = sorted([hi, lo, hi.conjugate(), lo.conjugate()], key=lambda z: (z.imag, z.real))
        spec = SimpleNamespace(eigenvalues=roots, max_real_part=max_re)
        config = SimpleNamespace(
            code=CONFIG_NAMES[config], stable_count=stable_count, spectrum=spec
        )
        assert used_nu5 == nu5
        want = oracles.classify_json_reference(
            point, used_nu5, label, config, F_critical(point.nu4)
        )
        assert capsys.readouterr().out == want + "\n", argv


def test_json_float_matches_json_dumps():
    """Floats in classify --json are spelled as json spells them."""
    rng = np.random.default_rng(11)
    values = [
        math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
        5e-324, -5e-324, 2.2250738585072009e-308, -2.225073858507201e-308, 1e-310,
        1.7976931348623157e308, 0.1, 1e16, 1e-5, 123456789.0,
    ]
    values += rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64).tolist()
    for x in values:
        assert _json_float(x) == json.dumps(x), x
    for x in np.array(values[:16]):  # numpy scalars, as spectra may hand in
        assert _json_float(x) == json.dumps(x), x


def test_classify_json_skips_generator_sum_and_python_encoder(count_calls, monkeypatch, capsys):
    """One classify --json call builds its matrix without the eight-generator
    sum and writes without json's pure-Python indenting encoder."""
    unfold_calls = count_calls(algebra.homogeneous_unfolding)
    encode_calls = [0]
    iterencode = json.JSONEncoder.iterencode

    def counted(self, o, _one_shot=False):
        encode_calls[0] += 1
        return iterencode(self, o, _one_shot)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", counted)
    assert main(["classify", "--json", "0.3", "0.2", "0.5", "0.1"]) == 0
    assert (unfold_calls[0], encode_calls[0]) == (0, 0)
    assert json.loads(capsys.readouterr().out)["stratum"] == "V1"


def test_sample_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "samples.csv"
    assert main(["sample", "--n", "60", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "nu1", "nu2", "nu3", "nu4", "stratum", "config", "max_real_part", "stable",
    ]
    assert len(rows) == 61
    for row in rows[1:]:
        point = np.array([float(c) for c in row[:4]])
        assert abs(np.linalg.norm(point) - 1.0) <= 1e-12
        assert row[7] in ("true", "false")

    summary = json.loads((tmp_path / "samples.csv.summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["n"] == 60
    assert summary["seed"] == 42
    assert 0.0 <= summary["stable_fraction"] <= 1.0
    assert sum(summary["stratum_counts"].values()) == 60
    assert summary["stable_component_count"] == 1


@pytest.mark.parametrize(
    "n, seed",
    [pytest.param(500, 42, id="500"), pytest.param(2000, 42, id="2000"),
     pytest.param(10_000, 1559737105, id="10000-1559737105")],
)
def test_sample_writer_matches_csv_writer_reference(tmp_path, n, seed):
    """The block writer gives the bytes csv.writer gives from the records,
    and the summary's counts equal a per-record count."""
    out = tmp_path / "samples.csv"
    assert main(["--seed", str(seed), "sample", "--n", str(n), "--out", str(out)]) == 0
    records = stability_report(sphere_samples(n, seed), 1.0).records
    assert out.read_bytes() == oracles.sample_csv_reference(records).encode()
    summary = json.loads((tmp_path / "samples.csv.summary.json").read_text())
    want = oracles.sample_summary_reference(records)
    assert {key: summary[key] for key in want} == want


def test_sample_rejects_bad_n(tmp_path, capsys):
    """sample --n 0 exits 2 from sphere_samples' check, before any file is
    opened."""
    assert main(["sample", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert "n must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sample_unwritable_path_is_io_error(tmp_path):
    out = tmp_path / "missing" / "deep" / "samples.csv"
    assert main(["sample", "--n", "10", "--out", str(out)]) == 3


@pytest.mark.parametrize("fmt", ["obj", "csv"])
@pytest.mark.parametrize("target", ["directory", "missing directory"])
def test_mesh_unwritable_path_is_io_error(tmp_path, capsys, fmt, target):
    out = tmp_path if target == "directory" else tmp_path / "missing" / f"x.{fmt}"
    assert main(["mesh", "--resolution", "8", "--format", fmt, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "I/O error" in err and "Traceback" not in err


def test_mesh_obj_output(tmp_path):
    out = tmp_path / "surface.obj"
    assert main(["mesh", "--disc", "both", "--resolution", "16",
                 "--format", "obj", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("g plus") == 1 and text.count("g minus") == 1
    v_lines = [l for l in text.splitlines() if l.startswith("v ")]
    f_lines = [l for l in text.splitlines() if l.startswith("f ")]
    assert all(len(l.split()) == 5 for l in v_lines)  # four coordinates
    indices = [int(tok) for l in f_lines for tok in l.split()[1:]]
    assert min(indices) >= 1 and max(indices) <= len(v_lines)

    summary = json.loads((tmp_path / "surface.obj.summary.json").read_text())
    assert summary["resolution"] == 16
    assert len(summary["meshes"]) == 2
    for entry in summary["meshes"]:
        assert entry["vertices"] > 0 and entry["triangles"] > 0
        assert "euler_characteristic" in entry
        assert entry["strata"]


def test_mesh_csv_output(tmp_path):
    out = tmp_path / "surface.csv"
    assert main(["mesh", "--disc", "plus", "--resolution", "8",
                 "--format", "csv", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["type", "disc", "i0", "i1", "i2"]
    kinds = {row[0] for row in rows[1:]}
    assert kinds == {"vertex", "face"}
    vertex_rows = [r for r in rows[1:] if r[0] == "vertex"]
    face_rows = [r for r in rows[1:] if r[0] == "face"]
    for r in vertex_rows:
        assert r[11] != ""  # stratum column filled
    for r in face_rows:
        assert all(int(r[i]) < len(vertex_rows) for i in (2, 3, 4))


def _reference_obj(meshes) -> str:
    lines, offset = [], 0
    for mesh in meshes:
        lines.append("g plus" if mesh.disc > 0 else "g minus")
        lines += ["v " + " ".join("%.17g" % float(c) for c in row) for row in mesh.vertices]
        lines += ["f %d %d %d" % tuple(int(v) + 1 + offset for v in tri) for tri in mesh.triangles]
        offset += len(mesh.vertices)
    return "\n".join(lines) + "\n"


def _reference_csv(meshes) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["type", "disc", "i0", "i1", "i2", "nu1", "nu2", "nu3", "nu4", "s", "t", "stratum"]
    )
    for mesh in meshes:
        for idx, row in enumerate(mesh.vertices):
            values = list(row) + list(mesh.params[idx])
            writer.writerow(["vertex", mesh.disc, idx, "", ""]
                            + ["%.17g" % float(x) for x in values]
                            + [STRATUM_NAMES[mesh.strata[idx]]])
        for tri in mesh.triangles:
            writer.writerow(["face", mesh.disc] + [int(v) for v in tri] + [""] * 6)
    return buf.getvalue()


@pytest.mark.parametrize(
    "fmt, res, reference",
    [("obj", 16, _reference_obj), ("obj", 128, _reference_obj), ("csv", 8, _reference_csv),
     ("csv", 128, _reference_csv)],
)
def test_mesh_writer_matches_per_value_reference(tmp_path, fmt, res, reference):
    """The block writers give the bytes of one '%.17g' per value."""
    out = tmp_path / f"surface.{fmt}"
    assert main(["mesh", "--disc", "both", "--resolution", str(res),
                 "--format", fmt, "--out", str(out)]) == 0
    meshes = [mesh_surface(+1, res), mesh_surface(-1, res)]
    assert out.read_bytes() == reference(meshes).encode()
    if res == 128:
        # values below the digit kernel's range, which '%.17g' itself writes
        coords = np.abs(np.concatenate([mesh.vertices for mesh in meshes]))
        assert np.any((coords > 0.0) & (coords < 1e-6))


def test_mesh_builds_chart_topology_once(tmp_path, count_calls, monkeypatch):
    """Both discs are meshed from one welded chart topology, one chart
    evaluation and one unit-row check, and the summary takes one Euler
    characteristic.  The OBJ writer formats the chart's vertex rows once
    for both discs, 4 V values for 8 V written, and its face indices come
    from one table of the 2 V + 1 indices 0 .. 2 V."""
    calls = count_calls(stratification._chart_topology)
    chart_calls = count_calls(stratification.param_phi_array)
    check_calls = count_calls(stratification.check_unit_rows)
    euler_calls = [0]
    euler = stratification.SurfaceMesh.euler_characteristic

    def counted_euler(mesh):
        euler_calls[0] += 1
        return euler(mesh)

    monkeypatch.setattr(stratification.SurfaceMesh, "euler_characteristic", counted_euler)
    formatted = [0, 0]
    float_slots, int_slots = cli._float_slots, cli._int_slots

    def counted_floats(x):
        formatted[0] += len(x)
        return float_slots(x)

    def counted_ints(i, size):
        formatted[1] += len(i)
        return int_slots(i, size)

    monkeypatch.setattr(cli, "_float_slots", counted_floats)
    monkeypatch.setattr(cli, "_int_slots", counted_ints)
    out = tmp_path / "m.obj"
    assert main(["mesh", "--disc", "both", "--resolution", "16", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "m.obj.summary.json").read_text())
    V = summary["meshes"][0]["vertices"]
    assert [m["euler_characteristic"] for m in summary["meshes"]] == [1, 1]
    assert (calls[0], chart_calls[0], check_calls[0], euler_calls[0]) == (1, 1, 1, 1)
    assert formatted == [4 * V, 2 * V + 1]


@pytest.mark.parametrize("res", [8, 9, 16, 130])
@pytest.mark.parametrize("discs", [[-1, +1], [-1], [+1]])
@pytest.mark.parametrize("write, reference", [(cli._write_obj, _reference_obj),
                                              (cli._write_mesh_csv, _reference_csv)])
def test_mesh_writers_match_reference_in_any_disc_order(write, reference, discs, res):
    """The chart text and the index table give the per-value bytes whatever
    disc comes first, for both discs or one."""
    meshes = stratification.mesh_surfaces(discs, res)
    buf = io.BytesIO()
    write(buf, meshes)
    assert buf.getvalue() == reference(meshes).encode()


def test_face_indices_past_the_table_take_write_rows(monkeypatch):
    """An OBJ call whose largest face index reaches the index table's limit
    writes its faces with write_rows, in the same bytes; one below the
    limit takes the table."""
    meshes = stratification.mesh_surfaces([+1, -1], 8)
    top = len(meshes[0].vertices) + 1 + int(meshes[1].triangles.max())  # numbered from 1
    tables = [0]
    index_rows = cli._index_rows

    def counted(*args):
        tables[0] += 1
        return index_rows(*args)

    monkeypatch.setattr(cli, "_index_rows", counted)
    for limit, used in ((top + 1, True), (top, False)):
        tables[0] = 0
        monkeypatch.setattr(cli, "_INDEX_LIMIT", limit)
        buf = io.BytesIO()
        cli._write_obj(buf, meshes)
        assert buf.getvalue() == _reference_obj(meshes).encode()
        assert (tables[0] > 0) == used


@pytest.mark.parametrize("write, reference", [(cli._write_obj, _reference_obj),
                                              (cli._write_mesh_csv, _reference_csv)])
def test_mesh_writers_share_only_bit_equal_columns(write, reference):
    """Two meshes whose nu3 columns are equal as values but differ in the
    sign of zero: each nu3 keeps its own text (0 and -0), which one text
    shared by value would not.  A -0.0 in the first mesh's nu3 sends the
    OBJ vertex rows to write_rows."""
    params = np.array([[0.0, 0.0], [0.5, 1.0], [-0.5, 2.0]])
    plus = np.array([[0.25, 0.5, 0.0, -0.0], [0.0, -0.5, 0.75, 1e-9], [-0.0, 0.5, -0.0, 0.1]])
    minus = plus.copy()
    minus[:, 2] = [-0.0, 0.75, 0.0]
    triangles = np.array([[0, 1, 2]])
    strata = np.array([0, 1, 2], dtype=np.int8)
    meshes = [stratification.SurfaceMesh(d, v, params, triangles, strata)
              for d, v in ((+1, plus), (-1, minus))]
    assert cli._chart_text(meshes) is None
    buf = io.BytesIO()
    write(buf, meshes)
    assert buf.getvalue() == reference(meshes).encode()


def _off_contract_meshes():
    """Meshes that break what the table paths rest on, each by one value."""
    plus, minus = stratification.mesh_surfaces([+1, -1], 8)

    def edited(mesh, row, col, value, triangles=None):
        v = mesh.vertices.copy()
        v[row, col] = value
        tris = mesh.triangles if triangles is None else triangles
        return stratification.SurfaceMesh(mesh.disc, v, mesh.params, tris, mesh.strata)

    negative = plus.triangles.copy()
    negative[0, 0] = -1
    return {
        "nu1 off the chart": [plus, edited(minus, 5, 0, np.nextafter(minus.vertices[5, 0], 1.0))],
        "nu3 = -0.0": [edited(plus, 0, 2, -0.0)],
        "nu3 = nan": [edited(minus, 3, 2, np.nan)],
        "negative index": [edited(plus, 0, 0, plus.vertices[0, 0], negative), minus],
    }


@pytest.mark.parametrize("case", list(_off_contract_meshes()))
@pytest.mark.parametrize("write, reference", [(cli._write_obj, _reference_obj),
                                              (cli._write_mesh_csv, _reference_csv)])
def test_mesh_writers_take_write_rows_off_the_chart_contract(write, reference, case):
    """Vertices that are not the chart times (1, 1, disc, 1) bit for bit, a
    chart nu3 whose text is not the sign-free one, and a negative triangle
    index are written value by value, in the reference's bytes."""
    meshes = _off_contract_meshes()[case]
    if case != "negative index":
        assert cli._chart_text(meshes) is None
    buf = io.BytesIO()
    write(buf, meshes)
    assert buf.getvalue() == reference(meshes).encode()


def test_module_entry_point_runs_the_cli(tmp_path):
    """python -m resonance_atlas runs the CLI from a checkout."""
    src = os.path.dirname(os.path.dirname(resonance_atlas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "m.obj"
    run = subprocess.run(
        [sys.executable, "-m", "resonance_atlas", "mesh", "--disc", "plus",
         "--resolution", "8", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert out.read_text().startswith("g plus\n")


def test_mesh_rejects_small_resolution(tmp_path, capsys):
    """mesh --resolution 4 exits 2 from mesh_surfaces' check, before any
    file is opened."""
    assert main(["mesh", "--resolution", "4", "--out", str(tmp_path / "m.obj")]) == 2
    assert "resolution must be >= 8" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_option_surface(tmp_path, capsys):
    """The coincidence threshold and a second mesh resolution are not
    settings: their flags are unknown options (argparse exits 2), their
    config keys are unknown keys (exit 2 naming the key), and nothing is
    written.  mesh reads resolution 128 when given none."""
    out = tmp_path / "m.obj"
    cfg = tmp_path / "atlas.cfg"
    for key, value, command in [
        ("cluster_tol", "1e-3", ["classify", "0", "0", "1", "0"]),
        ("grid", "64", ["mesh", "--disc", "plus", "--out", str(out)]),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["--" + key.replace("_", "-"), value, *command])
        assert exc.value.code == 2
        assert "resonance-atlas: error:" in capsys.readouterr().err
        cfg.write_text(f"{key} = {value}\n")
        assert main(["--config", str(cfg), *command]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()
    assert main(["mesh", "--disc", "plus", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "m.obj.summary.json").read_text())
    assert summary["resolution"] == 128


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "atlas.cfg"
    cfg.write_text("# run settings\nseed = 7\ntol = 1e-8\n")
    out = tmp_path / "s.csv"
    assert main(["--config", str(cfg), "sample", "--n", "20", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "s.csv.summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["tol"] == 1e-8
    # explicit flag beats the file
    assert main(["--config", str(cfg), "--seed", "9",
                 "sample", "--n", "20", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "s.csv.summary.json").read_text())
    assert summary["seed"] == 9
    assert summary["tol"] == 1e-8


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    assert main(["--config", str(bad), "verify", "--suite", "basis"]) == 2
    assert main(["--config", str(tmp_path / "absent.cfg"),
                 "verify", "--suite", "basis"]) == 3
    broken = tmp_path / "broken.cfg"
    broken.write_text("seed\n")
    assert main(["--config", str(broken), "verify", "--suite", "basis"]) == 2


def test_config_value_validation(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("nu5 = 0.0\n")
    assert main(["--config", str(cfg), "verify", "--suite", "basis"]) == 2


@pytest.mark.parametrize(
    "key, argv, config",
    [
        ("nu5", ["--nu5", "nan", "sample", "--n", "200", "--out", "{out}"], None),
        ("nu5", ["--nu5", "inf", "sample", "--n", "200", "--out", "{out}"], None),
        ("nu5", ["--nu5", "nan", "mesh", "--out", "{out}"], None),
        ("nu5", ["--nu5=-inf", "classify", "0.3", "0.2", "0.5", "0.1"], None),
        ("nu5", ["classify", "0.3", "0.2", "0.5", "0.1", "nan"], None),
        ("tol", ["--tol", "inf", "classify", "0.3", "0.2", "0.5", "0.1"], None),
        ("tol", ["--tol", "nan", "verify", "--suite", "basis"], None),
        ("tol", ["--tol=-inf", "mesh", "--out", "{out}"], None),
        ("nu5", ["sample", "--n", "200", "--out", "{out}"], "nu5 = nan"),
        ("tol", ["mesh", "--out", "{out}"], "tol = inf"),
    ],
)
def test_non_finite_settings_are_usage_errors(tmp_path, capsys, key, argv, config):
    """A NaN or infinite nu5 or tol, from a flag, the config
    file or classify's positional nu5, exits 2 naming the key, and writes
    nothing."""
    out = tmp_path / "out"
    argv = [arg.format(out=out) for arg in argv]
    if config is not None:
        cfg = tmp_path / "atlas.cfg"
        cfg.write_text(config + "\n")
        argv = ["--config", str(cfg)] + argv
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"{key} must be finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("config", [None, "seed = -1"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, config):
    """A negative seed, from the flag or the config file, exits 2 naming
    the key, and writes nothing."""
    out = tmp_path / "out.csv"
    argv = ["sample", "--n", "200", "--out", str(out)]
    if config is None:
        argv = ["--seed", "-1"] + argv
    else:
        cfg = tmp_path / "atlas.cfg"
        cfg.write_text(config + "\n")
        argv = ["--config", str(cfg)] + argv
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "seed must be non-negative" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_global_nu5_reaches_classify(capsys):
    """--nu5 is read by classify; its positional nu5 still wins over it."""
    point = ["0.3", "0.2", "0.5", "0.1"]
    assert main(["--nu5", "3", "classify", *point, "--json"]) == 0
    flag = json.loads(capsys.readouterr().out)
    assert main(["classify", *point, "3", "--json"]) == 0
    positional = json.loads(capsys.readouterr().out)
    assert flag == positional
    assert flag["nu5"] == 3.0
    assert main(["--nu5", "5", "classify", *point, "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == positional


def _classify_labels(capsys, nu5):
    """(stratum, config) that classify --json reports for each row of
    sphere_samples(200, 0) at this nu5."""
    out = []
    for row in sphere_samples(200, 0):
        assert main(["classify", "--json", "--", *map(repr, row.tolist()), repr(nu5)]) == 0
        got = json.loads(capsys.readouterr().out)
        out.append((got["stratum"], got["config"]))
    return out


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_classify_labels_hold_over_the_nu5_range(capsys, sign):
    """At both ends of the accepted |nu5| range every point reads the
    stratum and configuration it reads at |nu5| = 1."""
    want = _classify_labels(capsys, sign)
    assert _classify_labels(capsys, sign * 1e-3) == want
    assert _classify_labels(capsys, sign * 1e3) == want


@pytest.mark.parametrize("nu5", ["1e-5", "1e14", "1e80", "1e-70"])
def test_nu5_outside_its_range_is_a_usage_error(capsys, nu5):
    """Far from 1, nu5 would give wrong labels or overflow; classify exits
    2 naming the range, and prints nothing."""
    assert main(["classify", "0.3", "0.2", "0.5", "0.1", nu5]) == 2
    captured = capsys.readouterr()
    assert "nu5 must satisfy 0.001 <= |nu5| <= 1000" in captured.err
    assert captured.out == ""


def test_mesh_checks_nu5_through_the_run_config(tmp_path, capsys):
    """mesh_surfaces takes no nu5, but mesh still refuses one outside the
    range, from RunConfig.validate, before writing anything; inside it the
    summary records the weight."""
    out = tmp_path / "m.obj"
    assert main(["--nu5", "1e6", "mesh", "--resolution", "8", "--out", str(out)]) == 2
    assert "nu5 must satisfy 0.001 <= |nu5| <= 1000" in capsys.readouterr().err
    assert not out.exists()
    assert main(["--nu5", "-2", "mesh", "--resolution", "8", "--out", str(out)]) == 0
    assert json.loads((tmp_path / "m.obj.summary.json").read_text())["nu5"] == -2.0


def test_classify_takes_negative_exponent_coordinates(capsys):
    """A coordinate like -1e-3 is a number, not an option, without "--"."""
    assert main(["classify", "0.5", "-1e-3", "0.5", "0.5", "--json"]) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(["classify", "--json", "--", "0.5", "-1e-3", "0.5", "0.5"]) == 0
    b = json.loads(capsys.readouterr().out)
    assert a == b
    assert a["point"][1] < 0.0
    assert main(["classify", "-.5", "-2E-1", "0.5", "0.5", "-1.5"]) == 0
    assert "stratum" in capsys.readouterr().out


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


_THETA = repr(math.pi / 4.0 + 1.8e-9)  # an ambiguous point: exit 1
# (argv, whether cli._read_classify reads it) for the reader-vs-argparse tests
_CLASSIFY_ARGVS = [
    # the benchmark's form, 4 and 5 positionals
    (["classify", "--json", "--", "-0.1", "0.2", "0.3", "0.4", "-2.0"], True),
    (["classify", "--json", "--", "-0.1", "0.2", "0.3", "0.4"], True),
    (["classify", "--json", "--", "0.0", "0.7071067811865476", "0.7071067811865476", "0.0",
      "1.0"], True),
    (["classify", "--json", "--", "1.0", "0.0", "0.0", "0.0", "-2.0"], True),
    # the README's forms
    (["classify", "0.25", "0.5", "0.75", "0.353553", "--json"], True),
    (["classify", "0", "0", "1", "0"], True),
    (["classify", "--json", "0.25", "0.5", "0.75", "0.353553", "--json"], True),
    (["classify", "--", "0.25", "0.5", "0.75", "0.353553"], True),
    # negative numbers without --
    (["classify", "0.5", "-1e-3", "0.5", "0.5"], True),
    (["classify", "-.5", "-2E-1", "0.5", "0.5", "-1.5", "--json"], True),
    # tokens _NEGATIVE_NUMBER does not match before --, and after it
    (["classify", "-inf", "0", "0", "1"], False),
    (["classify", "--", "-inf", "0", "0", "1"], True),
    (["classify", "-nan", "0", "0", "1"], False),
    (["classify", "--", "-nan", "0", "0", "1"], True),
    (["classify", "-1 ", "0", "0", "1"], False),
    (["classify", "--", "-1 ", "0", "0", "1"], True),
    (["classify", "-1\n", "0", "0", "1"], True),
    (["classify", "--", "-1\n", "0", "0", "1"], True),
    # non-finite coordinates: exit 2, "coordinates must be finite"
    (["classify", "nan", "0", "0", "1"], True),
    (["classify", "0", "inf", "0", "1", "--json"], True),
    # other exits of _cmd_classify and the run config
    (["classify", "0", "0", "0", "0"], True),
    (["classify", "0", "0", "1", "0", "1e6"], True),
    (["classify", "0", "0", "1", "0", "0"], True),
    (["classify", "0", _THETA, _THETA, "0"], True),
    # what float() alone takes
    (["classify", " 1", "+0.5", "1_0", "1e400"], True),
    # the wrong number of positionals
    (["classify", "1", "2", "3"], False),
    (["classify", "1", "2", "3", "4", "5", "6"], False),
    (["classify", "--json", "--"], False),
    (["classify"], False),
    ([], False),
    # options and tokens only argparse reads
    (["classify", "--js", "1", "2", "3", "4"], False),
    (["classify", "1", "2", "3", "4", "--js"], False),
    (["classify", "1", "2", "--json", "3", "4"], False),
    (["classify", "1", "2", "3", "4", "--json", "--json"], False),
    (["classify", "--json", "--", "1", "2", "3", "4", "--json"], False),
    (["classify", "1", "2", "3", "4", "--"], False),
    (["classify", "1", "2", "x", "4"], False),
    (["classify", "-", "2", "3", "4"], False),
    (["classify", "-h"], False),
    (["classify", "--help"], False),
    (["--tol", "1e-6", "classify", "0", "0", "1", "0"], False),
    (["--nu5", "-2", "classify", "--json", "--", "1", "0", "0", "0"], False),
    (["verify", "--suite", "basis"], False),
]


def _same_namespace(a, b):
    """vars() equal, NaN included, and the same types and zero signs."""
    return repr(sorted(vars(a).items())) == repr(sorted(vars(b).items()))


@pytest.mark.parametrize("argv, read", _CLASSIFY_ARGVS)
def test_classify_reader_matches_argparse(argv, read):
    """cli._read_classify reads exactly the positional classify form and
    gives the namespace parse_args gives; every other argv it leaves to
    argparse (None)."""
    args = cli._read_classify(argv)
    assert (args is not None) == read
    if args is not None:
        assert _same_namespace(args, _build_parser().parse_args(argv))


def _outcome(call, capsys):
    try:
        code = call()
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, read", _CLASSIFY_ARGVS)
def test_main_matches_the_argparse_path(argv, read, capsys):
    """main(argv) gives the exit code, stdout and stderr that the argparse
    path alone gives, whether the reader or argparse reads argv."""
    got = _outcome(lambda: main(argv), capsys)
    want = _outcome(lambda: cli._run(_build_parser().parse_args(argv)), capsys)
    assert got == want


def test_main_reads_sys_argv(monkeypatch, capsys):
    """main(None) reads sys.argv[1:], through the reader and through
    argparse alike."""
    for argv, read in [(["classify", "--json", "--", "-0.1", "0.2", "0.3", "0.4", "-2.0"], True),
                       (["--tol", "1e-9", "classify", "0", "0", "1", "0"], False)]:
        monkeypatch.setattr(sys, "argv", ["resonance-atlas", *argv])
        assert (cli._read_classify(None) is not None) == read
        got = _outcome(lambda: main(None), capsys)
        want = _outcome(lambda: cli._run(_build_parser().parse_args(argv)), capsys)
        assert got == want and got[0] == 0 and got[1]


def test_classify_reader_builds_no_parser(count_calls, capsys):
    """main reads the positional classify form without building the
    argparse parser and sends any other command line to it."""
    builds = count_calls(cli._build_parser)
    assert main(["classify", "--json", "--", "1.0", "0.0", "0.0", "0.0"]) == 0
    assert builds == [0]
    assert main(["--tol", "1e-9", "classify", "1", "0", "0", "0"]) == 0
    assert builds == [1]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    """No command uses scipy: importing the CLI does not load it, and
    neither does a sample run, which does not load numpy.ma or
    numpy.random either."""
    src = os.path.dirname(os.path.dirname(resonance_atlas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = str(tmp_path / "s.csv")
    for code in (
        "import sys, resonance_atlas.cli",
        "import sys; from resonance_atlas.cli import main; "
        f"main(['--seed', '42', 'sample', '--n', '2000', '--out', {out!r}])",
    ):
        run = subprocess.run(
            [sys.executable, "-c",
             code + "; print(*(m in sys.modules for m in ('scipy', 'numpy.ma', 'numpy.random')))"],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip().splitlines()[-1] == "False False False"


def _classify_json(capsys, coords):
    assert main(["classify", "--json", "--"] + [repr(float(c)) for c in coords]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "coords",
    [
        (-math.sqrt(0.5), 0.0, math.sqrt(0.5), 0.0),  # V3
        (0.25, 0.5, 0.75, 0.35355339059327373),  # S1
        (1.0, 0.0, 0.0, 0.0),  # the axis, a coincident pair
        P_POINTS["P1"],
    ],
)
def test_classify_computes_one_spectrum(coords, count_calls, capsys):
    """Label, config, max real part and eigenvalues all come from the one
    closed-form spectrum: no general spectrum, no characteristic polynomial,
    no evaluation matrix and no annihilator-rank test on a matrix, where the
    two pairs coincide (nu4 = 0 and nu2^2 = nu3^2: the axis, P1) too."""
    calls = [
        count_calls(f)
        for f in (
            spectra.spectrum,
            linalg.char_poly,
            stratification.evaluation_matrix,
            spectra._pair_is_semisimple,
        )
    ]
    assert _classify_json(capsys, coords)["eigenvalues"]
    assert [c[0] for c in calls] == [0, 0, 0, 0]


def test_classify_runs_the_row_evaluator_once(count_calls, capsys):
    """A one-point classify reads its spectrum from the one-row evaluator of
    the pair kernel, never from a one-row batch of the column evaluator."""
    column_calls = count_calls(stratification._family_spectra)
    row_calls = count_calls(stratification._row_spectrum)
    assert _classify_json(capsys, (0.3, 0.2, 0.5, 0.1))["stratum"] == "V1"
    assert (column_calls[0], row_calls[0]) == (0, 1)


def test_classify_coincident_pairs_are_exact(capsys):
    """Two double roots come from the square root of the characteristic
    polynomial, not from the quartic's sqrt(eps)-accurate roots."""
    axis = _classify_json(capsys, (1.0, 0.0, 0.0, 0.0))
    assert axis["config"] == "g+g+"
    assert abs(axis["max_real_part"] - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-15
    for name in ("P1", "P2", "P3", "P4"):
        payload = _classify_json(capsys, P_POINTS[name])
        assert payload["stratum"] == name
        assert abs(payload["max_real_part"]) <= 1e-15


def test_classify_next_to_the_axis(capsys):
    """Pairs 1e-5 apart off the axis: the quartic stays finite."""
    payload = _classify_json(capsys, (1.0, 1e-5, 1e-5, 1e-5))
    assert payload["stratum"] == "V1"
    assert max(abs(complex(e["re"], e["im"])) for e in payload["eigenvalues"]) < 2.0


@pytest.mark.parametrize("e", [1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("nu1", [1.0, -1.0])
def test_classify_next_to_the_axis_reads_two_distinct_pairs(capsys, nu1, e):
    """At (+-1, e, e, e) the two pairs lie within the coincidence threshold,
    but the annihilator has rank 4: they are two distinct pairs, each
    keeping its own eigenvalue.  classify exits 0 with V1 g+1g+2 or V3
    g-1g-2, and classify_points and the general path (configuration_at)
    agree."""
    payload = _classify_json(capsys, (nu1, e, e, e))
    want = ("V1", "g+1g+2") if nu1 > 0.0 else ("V3", "g-1g-2")
    assert (payload["stratum"], payload["config"]) == want
    assert len({(z["re"], z["im"]) for z in payload["eigenvalues"]}) == 4
    got = stratification.classify_points(np.array([payload["point"]]), 1.0)
    assert (STRATUM_NAMES[got.stratum[0]], CONFIG_NAMES[got.config[0]]) == want
    assert got.max_real_part[0] == payload["max_real_part"]
    general = stratification.configuration_at(SpherePoint(payload["point"]), 1.0, 1e-9)
    assert (general.code, general.stable_count) == (want[1], 0 if nu1 > 0.0 else 4)


@pytest.mark.parametrize(
    "coords, same_ray",
    [
        ((1e308, 1e308, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)),
        ((1e-320, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
        ((-3e-310, 0.0, 5e-310, 1e-310), (-3.0, 0.0, 5.0, 1.0)),
    ],
)
def test_classify_takes_finite_directions_of_any_magnitude(capsys, coords, same_ray):
    """Coordinates near the largest or the smallest double name the same
    direction as their ordinary-sized multiples."""
    huge_or_tiny = _classify_json(capsys, coords)
    ordinary = _classify_json(capsys, same_ray)
    assert huge_or_tiny["stratum"] == ordinary["stratum"]
    assert huge_or_tiny["config"] == ordinary["config"]
    assert max(abs(x - y) for x, y in zip(huge_or_tiny["point"], ordinary["point"])) <= 1e-15
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("coords", [("inf", "0", "0", "1"), ("0", "nan", "0", "0")])
def test_classify_rejects_non_finite_coordinates(capsys, coords):
    assert main(["classify", *coords]) == 2
    captured = capsys.readouterr()
    assert captured.err == "classify: coordinates must be finite\n"
    assert captured.out == ""
