"""Command-line interface.

Four subcommands: ``verify`` (self-audit suites with one PASS/FAIL line
per check), ``classify`` (stratum and eigenvalue configuration of one
parameter point), ``sample`` (quasi-uniform sphere sampling to CSV plus a
JSON summary), and ``mesh`` (welded critical-surface triangulations).

Exit codes: 0 success, 1 numerical failure, 2 usage error, 3 I/O error.
Floats are written with '%.17g' so round-tripping is exact.  Defaults may
be overridden by a flat key=value config file (``--config``); explicit
flags win over the file, the file wins over built-ins.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    basis,
    CentralizerCoords,
    commutator_table,
    homogeneous_reduced,
    homogeneous_unfolding,
    reduce_to_canonical,
    ReducedCoords,
)
from .errors import ResonanceAtlasError
from .geometry import (
    F_critical,
    G_sphere,
    P_POINTS,
    SpherePoint,
    TWO_PI,
    f_surface,
    param_phi,
    phi_coeffs,
    normal_form_residual,
)
from .linalg import char_poly, commutator, frobenius_inner
from .stratification import (
    STRATA,
    _label_and_config,
    classify_point,
    configuration_at,
    mesh_surfaces,
    representatives,
    sphere_samples,
    stability_report,
)

SCHEMA_VERSION = 1

__all__ = ["RunConfig", "main"]


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


@dataclass(frozen=True)
class RunConfig:
    """Run-wide defaults shared by the subcommands."""

    tol: float = 1e-9
    cluster_tol: float = 1e-6
    nu5: float = 1.0
    seed: int = 42
    grid: int = 128

    def validate(self) -> None:
        for key in ("tol", "cluster_tol", "nu5"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if not (self.cluster_tol > 0.0):
            raise ValueError("cluster_tol must be positive")
        if self.nu5 == 0.0:
            raise ValueError("nu5 must be nonzero")
        if self.grid < 8:
            raise ValueError("grid must be >= 8")


_CONFIG_KEYS = {"tol": float, "cluster_tol": float, "nu5": float, "seed": int, "grid": int}


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **_read_config_file(args.config))
    overrides = {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            overrides[key] = flag
    # classify's optional positional nu5 wins over the --nu5 flag
    if getattr(args, "point_nu5", None) is not None:
        overrides["nu5"] = args.point_nu5
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


# -- verify --------------------------------------------------------------------


def _check_basis(rng, tol):
    b = basis()
    gens = [b.M[i] for i in range(1, 9)] + [b.P[i] for i in range(1, 9)]
    worst = 0.0
    for i, A in enumerate(gens):
        for j, B in enumerate(gens):
            expect = 4.0 if i == j else 0.0
            worst = max(worst, abs(frobenius_inner(A, B) - expect))
    yield "basis.orthogonality", worst
    worst = max(
        float(np.max(np.abs(commutator(b.L, b.M[i]).entries))) for i in range(1, 9)
    )
    yield "basis.centralizer", worst
    worst = 0.0
    for (i, j), (coef, k) in commutator_table().items():
        got = commutator(b.M[i], b.M[j])
        want = coef * b.M[k] if k else got.zero()
        worst = max(worst, float(np.max(np.abs((got - want).entries))))
    yield "basis.closure", worst


def _check_surface(rng, tol):
    worst = 0.0
    for _ in range(200):
        nu = ReducedCoords(rng.uniform(-2.0, 2.0, size=5))
        lhs = f_surface(phi_coeffs(nu))
        v = nu.nu
        rhs = -64.0 * (v[0] ** 2 + v[4] ** 2) * float(F_critical(v[:4]))
        scale = 1.0 + float(np.linalg.norm(v)) ** 6
        worst = max(worst, abs(lhs - rhs) / scale)
    yield "surface.determinant_identity", worst
    worst = 0.0
    for disc in (+1, -1):
        for s in np.linspace(-1.0, 1.0, 25):
            for t in np.linspace(0.0, TWO_PI, 25):
                q = param_phi(disc, float(s), float(t))
                worst = max(worst, abs(float(G_sphere(q.nu4))))
    yield "surface.on_sphere_zero", worst
    worst = 0.0
    for s in np.linspace(-1.0, 1.0, 17):
        a = param_phi(+1, float(s), math.pi / 2.0)
        b = param_phi(+1, float(-s), 3.0 * math.pi / 2.0)
        worst = max(worst, float(np.max(np.abs(a.nu4 - b.nu4))))
    for t in np.linspace(0.0, TWO_PI, 17):
        a = param_phi(+1, 0.0, float(t))
        b = param_phi(+1, 0.0, float(TWO_PI - t))
        worst = max(worst, float(np.max(np.abs(a.nu4 - b.nu4))))
    yield "surface.two_to_one", worst


def _check_normal_forms(rng, tol):
    for name in ("P5", "P6"):
        rep = normal_form_residual("self-tangency", SpherePoint(np.array(P_POINTS[name])), 0.05)
        yield f"normal_forms.tangency_{name}", rep.max_residual
    for name in ("P1", "P2", "P3", "P4"):
        rep = normal_form_residual("umbrella", SpherePoint(np.array(P_POINTS[name])), 0.05)
        yield f"normal_forms.pinch_{name}", rep.max_residual


def _check_reduction(rng, tol):
    worst_poly = worst_sign = worst_norm = worst_conj = 0.0
    for _ in range(200):
        mu = rng.uniform(-1.0, 1.0, size=8)
        coords = CentralizerCoords(mu)
        nu, g = reduce_to_canonical(coords, tol)
        H = homogeneous_unfolding(coords)
        Hr = homogeneous_reduced(nu)
        pa = np.array(char_poly(H).a)
        pb = np.array(char_poly(Hr).a)
        worst_poly = max(
            worst_poly, float(np.max(np.abs(pa - pb))) / (1.0 + float(np.max(np.abs(pa))))
        )
        v = nu.nu
        worst_sign = max(worst_sign, -min(v[1], v[2], 0.0))
        x = np.array([mu[1], mu[2], mu[3]])
        y = np.array([mu[5], mu[6], mu[7]])
        worst_norm = max(worst_norm, abs(v[1] - np.linalg.norm(x)))
        worst_norm = max(
            worst_norm, abs(math.hypot(v[2], v[3]) - np.linalg.norm(y))
        )
        back = g.T @ H @ g
        worst_conj = max(worst_conj, float(np.max(np.abs((back - Hr).entries))))
    yield "reduction.char_poly", worst_poly
    yield "reduction.sign_convention", worst_sign
    yield "reduction.norms", worst_norm
    yield "reduction.conjugation", worst_conj


def _check_strata(rng, tol):
    mismatches = 0
    for name, (point, nu5) in representatives().items():
        if classify_point(point, nu5, tol).name != name:
            mismatches += 1
        if configuration_at(point, nu5, tol).code != STRATA[name].expected_config:
            mismatches += 1
    yield "strata.representatives", float(mismatches)


_SUITES = {
    "basis": _check_basis,
    "surface": _check_surface,
    "normal-forms": _check_normal_forms,
    "reduction": _check_reduction,
    "strata": _check_strata,
}


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    rng = np.random.default_rng(cfg.seed)
    failures = 0
    total = 0
    for suite in suites:
        for name, residual in _SUITES[suite](rng, cfg.tol):
            total += 1
            ok = residual <= cfg.tol
            failures += 0 if ok else 1
            status = "PASS" if ok else "FAIL"
            print(f"{status} {name} residual={_fmt(residual)} tol={_fmt(cfg.tol)}")
    if failures:
        print(f"FAILED {failures} of {total} checks")
        return 1
    print(f"OK {total} checks")
    return 0


# -- classify ------------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace, cfg: RunConfig) -> int:
    raw = np.array([args.nu1, args.nu2, args.nu3, args.nu4], dtype=float)
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        print("classify: the first four coordinates must not all be zero", file=sys.stderr)
        return 2
    point = SpherePoint(raw / norm)
    label, config = _label_and_config(point, cfg.nu5, cfg.tol, cfg.cluster_tol)
    spec = config.spectrum
    F = float(F_critical(point.nu4))
    if args.json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "point": [float(c) for c in point.nu4],
            "disc": point.disc,
            "nu5": float(cfg.nu5),
            "stratum": label.name,
            "dimension": label.dimension,
            "config": config.code,
            "stable_count": config.stable_count,
            "F": F,
            "max_real_part": spec.max_real_part,
            "eigenvalues": [
                {"re": z.real, "im": z.imag} for z in spec.eigenvalues
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        coords = " ".join(_fmt(c) for c in point.nu4)
        print(f"point    {coords}")
        print(f"stratum  {label.name} (dimension {label.dimension})")
        print(f"config   {config.code}")
        print(f"F        {_fmt(F)}")
        print(f"max Re   {_fmt(spec.max_real_part)}")
    return 0


# -- sample --------------------------------------------------------------------


_BLOCK_ROWS = 4096  # rows formatted per % call; bounds the text held at once


def _write_blocks(fh, template: str, n: int, values) -> None:
    """Write n rows of template, formatting a block of rows per % call;
    values(lo, hi) gives the flat values of rows lo..hi-1 in order."""
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        fh.write((template * (hi - lo)) % tuple(values(lo, hi)))


def _cmd_sample(args: argparse.Namespace, cfg: RunConfig) -> int:
    n = args.n
    if n <= 0:
        print("sample: --n must be positive", file=sys.stderr)
        return 2
    pts = sphere_samples(n, cfg.seed)
    report = stability_report(pts, cfg.nu5, cfg.tol)

    # stratum and config codes never need CSV quoting
    points, stratum, config = report.points, report.stratum, report.config
    max_re, stable = report.max_real_part, np.where(report.stable, "true", "false")

    def values(lo, hi):
        table = np.empty((hi - lo, 8), dtype=object)
        table[:, :4] = points[lo:hi]
        table[:, 4], table[:, 5] = stratum[lo:hi], config[lo:hi]
        table[:, 6], table[:, 7] = max_re[lo:hi], stable[lo:hi]
        return table.ravel().tolist()

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("nu1,nu2,nu3,nu4,stratum,config,max_real_part,stable\n")
        _write_blocks(fh, "%.17g,%.17g,%.17g,%.17g,%s,%s,%.17g,%s\n", n, values)

    def counts(column):
        names, k = np.unique(column.astype(str), return_counts=True)
        return dict(zip(names.tolist(), k.tolist()))

    summary = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "seed": cfg.seed,
        "nu5": cfg.nu5,
        "tol": cfg.tol,
        "stratum_counts": counts(stratum),
        "config_counts": counts(config),
        "stable_fraction": int(report.stable.sum()) / float(n),
        "stable_component_count": report.stable_component_count,
        "unstable_component_count": report.unstable_component_count,
        "mixed_component_count": report.mixed_component_count,
        "stable_boundary_strata": sorted(report.stable_boundary_strata),
    }
    with open(args.out + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {n} samples to {args.out} (+ .summary.json)")
    return 0


# -- mesh ----------------------------------------------------------------------


def _write_obj(fh, meshes) -> None:
    offset = 0
    for mesh in meshes:
        name = "plus" if mesh.disc > 0 else "minus"
        fh.write(f"g {name}\n")
        verts, faces = mesh.vertices, mesh.triangles + (1 + offset)
        _write_blocks(fh, "v %.17g %.17g %.17g %.17g\n", len(verts),
                      lambda lo, hi: verts[lo:hi].ravel().tolist())
        _write_blocks(fh, "f %d %d %d\n", len(faces),
                      lambda lo, hi: faces[lo:hi].ravel().tolist())
        offset += len(mesh.vertices)


def _write_mesh_csv(fh, meshes) -> None:
    """One vertex row (index, coordinates, chart (s, t), stratum) and one
    face row (three indices) per element, the fields csv.writer would give."""
    fh.write("type,disc,i0,i1,i2,nu1,nu2,nu3,nu4,s,t,stratum\n")
    for mesh in meshes:
        table = np.column_stack([mesh.vertices, mesh.params])
        strata, faces = mesh.strata, mesh.triangles

        def vertex_values(lo, hi):
            rows = zip(range(lo, hi), table[lo:hi].tolist(), strata[lo:hi])
            return [x for idx, coords, name in rows for x in (idx, *coords, name)]

        _write_blocks(fh, f"vertex,{mesh.disc},%d,,," + "%.17g," * 6 + "%s\n",
                      len(table), vertex_values)
        _write_blocks(fh, f"face,{mesh.disc},%d,%d,%d,,,,,,\n", len(faces),
                      lambda lo, hi: faces[lo:hi].ravel().tolist())


def _cmd_mesh(args: argparse.Namespace, cfg: RunConfig) -> int:
    resolution = cfg.grid if args.resolution is None else args.resolution
    if resolution < 8:
        print("mesh: resolution must be >= 8", file=sys.stderr)
        return 2
    discs = {"plus": [+1], "minus": [-1], "both": [+1, -1]}[args.disc]
    meshes = mesh_surfaces(discs, resolution, cfg.nu5, cfg.tol)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        if args.format == "obj":
            _write_obj(fh, meshes)
        else:
            _write_mesh_csv(fh, meshes)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "resolution": resolution,
        "nu5": cfg.nu5,
        "meshes": [
            {
                "disc": mesh.disc,
                "vertices": int(len(mesh.vertices)),
                "triangles": int(len(mesh.triangles)),
                "euler_characteristic": mesh.euler_characteristic(),
                "strata": sorted(set(mesh.strata)),
            }
            for mesh in meshes
        ],
    }
    with open(args.out + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(meshes)} mesh(es) to {args.out} (+ .summary.json)")
    return 0


# -- wiring --------------------------------------------------------------------


# A leading minus followed by a number, exponent form included, is a
# negative coordinate; argparse alone reads "-1e-3" as an option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="resonance-atlas",
        description="Stability atlas for 4x4 linear systems near a 1:1 resonance.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--tol", type=float, help="residual tolerance (default 1e-9)")
    parser.add_argument("--cluster-tol", dest="cluster_tol", type=float,
                        help="eigenvalue clustering tolerance (default 1e-6)")
    parser.add_argument("--nu5", type=float, help="resonant frequency weight (default 1)")
    parser.add_argument("--seed", type=int, help="RNG seed (default 42)")
    parser.add_argument("--grid", type=int, help="default grid resolution (default 128)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run self-audit suites")
    p.add_argument("--suite", choices=["all"] + sorted(_SUITES), default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="classify one parameter point")
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("nu1", type=float)
    p.add_argument("nu2", type=float)
    p.add_argument("nu3", type=float)
    p.add_argument("nu4", type=float)
    p.add_argument("point_nu5", metavar="nu5", type=float, nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sample", help="sample the sphere and report stability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("mesh", help="triangulate the critical surface")
    p.add_argument("--disc", choices=["plus", "minus", "both"], default="both")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--format", choices=["obj", "csv"], default="obj")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mesh)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except OSError as exc:
        print(f"resonance-atlas: cannot read config: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"resonance-atlas: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except OSError as exc:
        print(f"resonance-atlas: I/O error: {exc}", file=sys.stderr)
        return 3
    except ResonanceAtlasError as exc:
        print(f"resonance-atlas: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"resonance-atlas: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
