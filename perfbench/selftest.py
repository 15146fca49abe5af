"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload once at a toy size, in this process, and requires the
oracle to accept every output.  Then it corrupts copies of those outputs
-- a flipped stratum, a flipped `stable`, a moved vertex, a perturbed
eigenvalue and more -- and requires each corrupted copy to be rejected by
the check named for it.  It also requires every per-layer metric of
BENCHMARK.json to have a rule in run.py.  Exit code 0 when all hold.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import round_ops  # noqa: E402

TOY_N = 2000
TOY_RESOLUTION = 16
failures = 0


def report(ok: bool, what: str) -> None:
    global failures
    failures += not ok
    print(("PASS " if ok else "FAIL ") + what)


def cli(argv) -> str:
    from resonance_atlas.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return buf.getvalue()


def rejects(found: oracle.Findings, what: str, needle: str) -> None:
    hit = any(needle in p for p in found.problems)
    report(hit, f"rejects {what}" + ("" if hit else f" (problems: {found.problems[:3]})"))


def sample_checks(tmp: Path) -> None:
    out = tmp / "toy.csv"
    cli(["sample", "--n", str(TOY_N), "--out", str(out)])
    text = out.read_text()
    summary = json.loads(Path(str(out) + ".summary.json").read_text())
    args = (TOY_N, 1.0, summary["seed"])
    found = oracle.check_sample(text, summary, *args)
    report(found.problem_count == 0, f"atlas-sample at n={TOY_N} passes: {found.problems[:3]}")

    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ref = oracle.reference(np.array([[float(c) for c in r[:4]] for r in rows]), 1.0)
    i = next(k for k, r in enumerate(rows) if r[4] == "V3" and not ref.exempt_label[k])

    def with_row(row):
        """The rows with row i replaced, and a summary recounted from them,
        so that only the comparison with the oracle can catch the change."""
        bad_rows = [list(r) for r in rows]
        bad_rows[i] = row
        bad = copy.deepcopy(summary)
        bad["stratum_counts"] = dict(Counter(r[4] for r in bad_rows))
        bad["config_counts"] = dict(Counter(r[5] for r in bad_rows))
        bad["stable_fraction"] = sum(r[7] == "true" for r in bad_rows) / float(TOY_N)
        return "\n".join([lines[0]] + [",".join(r) for r in bad_rows]) + "\n", bad

    row = list(rows[i])
    row[4] = "V1"
    rejects(oracle.check_sample(*with_row(row), *args), "a flipped stratum in a sample row", "oracle")
    row = list(rows[i])
    row[7] = "false" if row[7] == "true" else "true"
    rejects(oracle.check_sample(*with_row(row), *args), "a flipped stable in a sample row", "oracle")
    row = list(rows[i])
    row[6] = repr(float(row[6]) + 1e-9)
    rejects(oracle.check_sample(*with_row(row), *args), "a perturbed max_real_part", "max_real_part")

    bad = copy.deepcopy(summary)
    bad["mixed_component_count"] = 1
    rejects(oracle.check_sample(text, bad, *args), "a lost mixed region", "components")
    bad = copy.deepcopy(summary)
    bad["stable_boundary_strata"] = ["S2"]
    rejects(oracle.check_sample(text, bad, *args), "a stable boundary without S3", "boundary")
    bad = copy.deepcopy(summary)
    bad["stratum_counts"]["V3"] -= 1
    bad["stratum_counts"]["V2"] += 1
    rejects(oracle.check_sample(text, bad, *args), "summary counts unlike the rows", "stratum counts")


def mesh_checks(tmp: Path) -> None:
    out = tmp / "toy.obj"
    cli(["mesh", "--disc", "both", "--resolution", str(TOY_RESOLUTION), "--format", "obj",
         "--out", str(out)])
    text = out.read_text()
    summary = json.loads(Path(str(out) + ".summary.json").read_text())
    args = (TOY_RESOLUTION, 1.0)
    found = oracle.check_mesh(text, summary, *args)
    report(found.problem_count == 0, f"surface-mesh at R={TOY_RESOLUTION} passes: {found.problems[:3]}")

    lines = text.splitlines()
    v_idx = [k for k, line in enumerate(lines) if line.startswith("v ")]
    f_idx = [k for k, line in enumerate(lines) if line.startswith("f ")]

    def edit(k, new):
        bad = list(lines)
        bad[k] = new
        return "\n".join(bad) + "\n"

    k = v_idx[len(v_idx) // 3]
    v = np.array([float(c) for c in lines[k].split()[1:]])
    moved = v + np.array([1e-4, -1e-4, 0.0, 1e-4])
    moved /= np.linalg.norm(moved)
    new = "v " + " ".join("%.17g" % c for c in moved)
    rejects(oracle.check_mesh(edit(k, new), summary, *args), "a moved vertex", "|F|")
    rejects(oracle.check_mesh(edit(k, new), summary, *args), "a moved vertex (spectrum)", "imaginary pair")

    a, b, c = lines[f_idx[0]].split()[1:]
    rejects(oracle.check_mesh(edit(f_idx[0], f"f {a} {a} {c}"), summary, *args),
            "a face with a repeated vertex", "repeats")
    rejects(oracle.check_mesh(edit(f_idx[0], f"f {a} {b} 999999"), summary, *args),
            "a face indexing outside its group", "outside")
    bad = copy.deepcopy(summary)
    bad["meshes"][0]["strata"] = sorted(bad["meshes"][0]["strata"] + ["P3"])
    rejects(oracle.check_mesh(text, bad, *args), "a label off the disc's strata", "strata")
    bad = copy.deepcopy(summary)
    bad["meshes"][1]["vertices"] += 1
    rejects(oracle.check_mesh(text, bad, *args), "a vertex count unlike the OBJ", "v lines")


def classify_checks(tmp: Path) -> None:
    ops = round_ops("point-queries", 0, 0, str(tmp))
    outputs = [(op, cli(op.argv)) for op in ops]
    total = oracle.Findings()
    for op, text in outputs:
        total.merge(oracle.check_classify(op.meta["raw"], op.meta["nu5"], op.meta["kind"], text))
    report(total.problem_count == 0, f"point-queries round of {len(ops)} passes: {total.problems[:3]}")

    def corrupt(kind, change, what, needle):
        op, text = next((o, t) for o, t in outputs if o.meta["kind"] == kind)
        got = json.loads(text)
        change(got)
        rejects(oracle.check_classify(op.meta["raw"], op.meta["nu5"], kind, json.dumps(got)), what, needle)

    def bump_eig(got):
        got["eigenvalues"][0]["re"] += 1e-7

    def set_key(key, value):
        return lambda got: got.__setitem__(key, value)

    corrupt("random", bump_eig, "a perturbed eigenvalue", "eigenvalues")
    corrupt("rep:V3", set_key("stratum", "V1"), "a flipped stratum on a representative", "stratum")
    corrupt("rep:P1", set_key("config", "bb"), "a wrong config on a representative", "config")
    corrupt("sheet", lambda g: g.__setitem__("stratum", {"S1": "S4", "S4": "S1", "S2": "S3", "S3": "S2"}[g["stratum"]]),
            "a sheet label from the wrong quadrant", "stratum")
    corrupt("axis", set_key("config", "bb"), "a wrong config on the axis", "config")
    corrupt("random", lambda g: g.__setitem__("stratum", "V3" if g["stratum"] != "V3" else "V1"),
            "a flipped stratum on a random point", "stratum")
    corrupt("random", lambda g: g.__setitem__("max_real_part", g["max_real_part"] + 1e-7),
            "a perturbed max_real_part", "max_real_part")
    corrupt("random", lambda g: g["point"].__setitem__(0, g["point"][0] + 1e-9),
            "a point that is not the normalized input", "point")


def oracle_checks() -> None:
    # the axis point (1, 0, 0, 0) at nu5 = 1 has the double pair t0 +- i
    t0 = 1.0 / (2.0 * np.sqrt(2.0))
    eig = oracle.reference(np.array([1.0, 0.0, 0.0, 0.0]), 1.0).eig[0]
    gap = oracle.multiset_gap(list(eig), [complex(t0, 1), complex(t0, -1)] * 2)
    report(gap <= 1e-12, f"oracle spectrum on the axis is t0 +- i (gap {gap:.1e})")
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    res = {"traced": {"op_seconds": [1.0], "items": 1, "bytes_written": 1}, "untraced": {"op_seconds": [1.0]},
           "calls": {}, "self_s": {}}
    imports = {"numpy": 0.1, "scipy": 0.1, "resonance_atlas": 0.1}
    missing = []
    for m in spec["per_layer"]:
        try:
            run.per_layer(m["name"], res, imports)
        except (ValueError, KeyError):
            missing.append(m["name"])
    report(not missing, f"every per-layer metric has a rule {missing}")
    sample = ("import time: self [us] | cumulative | imported package\n"
              "import time:       100 |        100 |     numpy.core\n"
              "import time:        50 |        150 |   numpy\n"
              "import time:        20 |        400 |   scipy.spatial\n"
              "import time:        30 |        580 | resonance_atlas\n")
    got = run.parse_importtime(sample)
    report(abs(got["numpy"] - 150e-6) < 1e-12 and abs(got["scipy"] - 400e-6) < 1e-12
           and abs(got["resonance_atlas"] - 30e-6) < 1e-12, f"import-time parsing {got}")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        oracle_checks()
        classify_checks(Path(tmp))
        mesh_checks(Path(tmp))
        sample_checks(Path(tmp))
    print("self-test: " + ("all checks hold" if not failures else f"{failures} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
