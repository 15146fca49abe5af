import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import resonance_atlas
from resonance_atlas import linalg, spectra, stratification
from resonance_atlas.cli import _build_parser, main
from resonance_atlas.geometry import P_POINTS
from resonance_atlas.stratification import mesh_surface, sphere_samples, stability_report

import oracles


def test_verify_basis_suite(capsys):
    assert main(["verify", "--suite", "basis"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "OK 3 checks"
    assert "residual=" in lines[0] and "tol=" in lines[0]


def test_verify_strata_suite(capsys):
    assert main(["verify", "--suite", "strata"]) == 0
    out = capsys.readouterr().out
    assert "PASS strata.representatives" in out


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


@pytest.mark.parametrize("n", [500, 2000])
def test_sample_writer_matches_csv_writer_reference(tmp_path, n):
    """The block writer gives the bytes csv.writer gives from the records,
    and the summary's counts equal a per-record count."""
    out = tmp_path / "samples.csv"
    assert main(["sample", "--n", str(n), "--out", str(out)]) == 0
    records = stability_report(sphere_samples(n, 42), 1.0).records
    assert out.read_bytes() == oracles.sample_csv_reference(records).encode()
    summary = json.loads((tmp_path / "samples.csv.summary.json").read_text())
    want = oracles.sample_summary_reference(records)
    assert {key: summary[key] for key in want} == want


def test_sample_rejects_bad_n(tmp_path):
    assert main(["sample", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2


def test_sample_unwritable_path_is_io_error(tmp_path):
    out = tmp_path / "missing" / "deep" / "samples.csv"
    assert main(["sample", "--n", "10", "--out", str(out)]) == 3


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
                            + ["%.17g" % float(x) for x in values] + [mesh.strata[idx]])
        for tri in mesh.triangles:
            writer.writerow(["face", mesh.disc] + [int(v) for v in tri] + [""] * 6)
    return buf.getvalue()


@pytest.mark.parametrize(
    "fmt, res, reference",
    [("obj", 16, _reference_obj), ("obj", 128, _reference_obj), ("csv", 8, _reference_csv)],
)
def test_mesh_writer_matches_per_value_reference(tmp_path, fmt, res, reference):
    """The block writers give the bytes of one '%.17g' per value."""
    out = tmp_path / f"surface.{fmt}"
    assert main(["mesh", "--disc", "both", "--resolution", str(res),
                 "--format", fmt, "--out", str(out)]) == 0
    meshes = [mesh_surface(+1, res), mesh_surface(-1, res)]
    assert out.read_bytes() == reference(meshes).encode()


def test_mesh_builds_chart_topology_once(tmp_path, count_calls):
    """Both discs are meshed from one welded chart topology."""
    calls = count_calls(stratification._chart_topology)
    assert main(["mesh", "--disc", "both", "--resolution", "16",
                 "--out", str(tmp_path / "m.obj")]) == 0
    assert calls[0] == 1


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


def test_mesh_rejects_small_resolution(tmp_path):
    assert main(["mesh", "--resolution", "4", "--out", str(tmp_path / "m.obj")]) == 2


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
        ("cluster_tol", ["--cluster-tol", "inf", "classify", "0.3", "0.2", "0.5", "0.1"], None),
        ("nu5", ["sample", "--n", "200", "--out", "{out}"], "nu5 = nan"),
        ("tol", ["mesh", "--out", "{out}"], "tol = inf"),
        ("cluster_tol", ["classify", "0.3", "0.2", "0.5", "0.1"], "cluster_tol = -inf"),
    ],
)
def test_non_finite_settings_are_usage_errors(tmp_path, capsys, key, argv, config):
    """A NaN or infinite nu5, tol or cluster_tol, from a flag, the config
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


def test_cli_import_leaves_scipy_unloaded():
    """classify, mesh and verify never use scipy, so importing the CLI
    must not pay for it; sample loads it on demand."""
    code = "import sys, resonance_atlas.cli; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(resonance_atlas.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


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
    """Label, config, max real part and eigenvalues all come from one
    spectrum and one characteristic polynomial."""
    spectra_calls = count_calls(spectra.spectrum)
    poly_calls = count_calls(linalg.char_poly)
    assert _classify_json(capsys, coords)["eigenvalues"]
    assert (spectra_calls[0], poly_calls[0]) == (1, 1)


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
