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
    check_unit_rows,
    f_surface,
    param_phi_array,
    phi_coeffs,
    normal_form_residual,
)
from .linalg import char_poly, commutator, frobenius_inner
from .spectra import CONFIG_NAMES, _family_annihilator, _pair_split
from .stratification import (
    STRATA,
    STRATUM_NAMES,
    _check_nu5,
    _present_strata,
    _row_label,
    _stable_boundary,
    classify_point,
    configuration_at,
    evaluation_matrix,
    interior_scale,
    mesh_surfaces,
    representatives,
    sphere_samples,
    stability_report,
)

SCHEMA_VERSION = 1

__all__ = ["RunConfig", "main", "write_rows"]


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


@dataclass(frozen=True)
class RunConfig:
    """Run-wide defaults shared by the subcommands."""

    tol: float = 1e-9
    nu5: float = 1.0
    seed: int = 42

    def validate(self) -> None:
        for key in ("tol", "nu5"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        _check_nu5(self.nu5, "config")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


_CONFIG_KEYS = {"tol": float, "nu5": float, "seed": int}


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
    s, t = np.meshgrid(np.linspace(-1.0, 1.0, 25), np.linspace(0.0, TWO_PI, 25), indexing="ij")
    q = np.stack([param_phi_array(disc, s, t) for disc in (+1, -1)]).reshape(-1, 4)
    check_unit_rows(q)
    yield "surface.on_sphere_zero", float(np.max(np.abs(G_sphere(q))))
    s = np.linspace(-1.0, 1.0, 17)
    t = np.linspace(0.0, TWO_PI, 17)
    # phi(s, pi/2) = phi(-s, 3 pi/2) and phi(0, t) = phi(0, 2 pi - t)
    a = np.vstack([param_phi_array(+1, s, math.pi / 2.0), param_phi_array(+1, 0.0, t)])
    b = np.vstack([param_phi_array(+1, -s, 3.0 * math.pi / 2.0),
                   param_phi_array(+1, 0.0, TWO_PI - t)])
    check_unit_rows(np.vstack([a, b]))
    yield "surface.two_to_one", float(np.max(np.abs(a - b)))
    # the facts the anchor arcs and the stable boundary of stability_report
    # rest on, on random unit points: F = (nu1^2 - Im D^2)(nu1^2 + Re D^2),
    # D^2 = nu3^2 + nu4^2 - nu2^2 + 2 i nu2 nu4; F = 0 on the chart
    # b(w) = (-|Im D(w)|, w) / norm and F > 0 just past it toward -e1; and
    # F >= 0 where nu2 = 0
    v = rng.standard_normal((200, 4))
    v /= np.linalg.norm(v, axis=1)[:, None]
    n1, n2, n3, n4 = v.T
    d = _pair_split(n2, n3, n4)
    factored = (n1 * n1 - d.imag**2) * (n1 * n1 + d.real**2)
    yield "surface.factorisation", float(np.max(np.abs(F_critical(v) - factored)))
    b = _stable_boundary(v)
    past = F_critical(b - [1e-3, 0.0, 0.0, 0.0])  # F is homogeneous: no renormalising
    worst = max(float(np.max(np.abs(F_critical(b)))), float(np.sum(past <= 0.0)))
    yield "surface.stable_boundary_chart", worst
    v[:, 1] = 0.0
    v /= np.linalg.norm(v, axis=1)[:, None]
    yield "surface.nu2_zero_nonnegative", max(0.0, -float(F_critical(v).min()))


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
    # the closed form the family's coincident pairs are decided by: the
    # annihilator's two singular values and ||A||_2 (_family_annihilator)
    # against the SVD, on the axis, random points next to it and random
    # points of the curves D = 0 (nu4 = 0, nu2^2 = nu3^2) through P1..P4
    worst = 0.0
    for nu5 in (1.0, -1.0, -2.0, 0.3, 7.0, 1e-3, 1e3):
        n1, a, e = rng.uniform(-1.0, 1.0, size=(3, 40))
        g = rng.standard_normal((40, 4))
        near_axis = np.sign(g[:, :1]) * [1.0, 0.0, 0.0, 0.0] + 1e-7 * e[:, None] * g
        curves = np.column_stack([n1, a, np.sign(e) * a, 0.0 * a])
        rows = np.vstack([[[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]], near_axis, curves])
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        t0 = interior_scale(nu5)
        for v, large, small, norm in zip(rows, *_family_annihilator(*rows.T, t0, nu5)):
            E = evaluation_matrix(SpherePoint(v), nu5).entries
            w = complex(t0 * v[0], nu5)
            svals = np.linalg.svd(E @ E - 2.0 * w.real * E + abs(w) ** 2 * np.eye(4),
                                  compute_uv=False)
            norm_svd = float(np.linalg.norm(E, 2))
            gap = max(float(np.max(np.abs(svals - [large, large, small, small]))),
                      abs(norm - norm_svd))
            worst = max(worst, gap / (1.0 + norm_svd) ** 2)
    yield "strata.annihilator_closed_form", worst


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


# json.dumps(payload, indent=2, sort_keys=True) of classify's fixed schema,
# keys in sorted order: ints go in as %d, strings as json.dumps of the string,
# floats as _json_float
_EIG_JSON = '    {\n      "im": %s,\n      "re": %s\n    }'
_CLASSIFY_JSON = (
    '{\n  "F": %s,\n  "config": %s,\n  "dimension": %d,\n  "disc": %d,\n'
    '  "eigenvalues": [\n' + ",\n".join([_EIG_JSON] * 4) + "\n  ],\n"
    '  "max_real_part": %s,\n  "nu5": %s,\n'
    '  "point": [\n' + ",\n".join(["    %s"] * 4) + "\n  ],\n"
    '  "schema_version": %d,\n  "stable_count": %d,\n  "stratum": %s\n}'
)


def _json_float(x: float) -> str:
    """A float as json writes it: its repr, or NaN / Infinity / -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _cmd_classify(args: argparse.Namespace, cfg: RunConfig) -> int:
    coords = (args.nu1, args.nu2, args.nu3, args.nu4)
    if not all(map(math.isfinite, coords)):
        print("classify: coordinates must be finite", file=sys.stderr)
        return 2
    # scale by a power of two, which is exact, so that the norm neither
    # overflows nor underflows whatever the magnitude of the coordinates
    exp = math.frexp(max(map(abs, coords)))[1]
    raw = np.array([math.ldexp(c, -exp) for c in coords])
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        print("classify: the first four coordinates must not all be zero", file=sys.stderr)
        return 2
    point = SpherePoint(raw / norm)
    code, hi, lo, config, stable_count, max_re = _row_label(point.nu4, cfg.nu5, cfg.tol)
    label = STRATA[STRATUM_NAMES[code]]
    config = CONFIG_NAMES[config]
    F = float(F_critical(point.nu4))
    if args.json:
        roots = sorted([hi, lo, hi.conjugate(), lo.conjugate()], key=lambda z: (z.imag, z.real))
        print(_CLASSIFY_JSON % (
            _json_float(F), json.dumps(config), label.dimension, point.disc,
            *[_json_float(w) for z in roots for w in (z.imag, z.real)],
            _json_float(max_re), _json_float(cfg.nu5),
            *map(_json_float, point.nu4.tolist()),
            SCHEMA_VERSION, stable_count, json.dumps(label.name),
        ))
    else:
        coords = " ".join(_fmt(c) for c in point.nu4)
        print(f"point    {coords}")
        print(f"stratum  {label.name} (dimension {label.dimension})")
        print(f"config   {config}")
        print(f"F        {_fmt(F)}")
        print(f"max Re   {_fmt(max_re)}")
    return 0


# -- row writer ----------------------------------------------------------------
#
# A block of rows is one matrix of little-endian 4-byte words.  Every field
# has a fixed slot of whole words, NUL where it uses no byte, and dropping
# the NULs leaves the text.  A float's slot is built from its 17 significant
# digits, read off exactly; the digits go in four at a time from tables of
# the words of 0000..9999.
#
# The OBJ face rows take each index from one table per call of 8-byte
# words, b"%d" % i and its separator left-aligned, NUL after them: a face
# row is a few words gathered a block of rows at a time.  The OBJ vertex
# text, which the two discs share but for the sign of nu3, carries a marker
# byte, _MARK, where that sign goes, and each disc's copy replaces it with
# "-" or with nothing.

_BLOCK_ROWS = 2048  # rows formatted at once; bounds the bytes held at once
_FLOAT_WORDS = 7  # a float's slot, 28 bytes: room for any '%.17g'
_INT_WORDS = 5  # an integer's slot, 20 bytes: room for any int64 '%d'
# decimal exponents k of the floats formatted from digits: 10**(16 - k) must
# be an exact double; '%g' writes k >= -4 in fixed form, d.ddd...e-0K below
_K_MIN, _K_MAX = -6, 0
_VELTKAMP = 2.0**27 + 1.0
_INDEX_LIMIT = 10**7  # index words hold up to 7 digits and a separator
_MARK = b"\x01"  # stands for the sign of nu3 in the OBJ text of the two discs


def _split(a):
    """a == hi + lo with hi and lo of at most 26 significant bits."""
    t = _VELTKAMP * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(10.0 ** np.arange(23))  # 10**n == hi + lo


@functools.cache
def _digit_words():
    """Words of 0000..9999 as uint32 tables: full, then with trailing zeros
    as NUL (20000 words); full, then with leading zeros as NUL, the last
    digit always kept (20000 words)."""
    i = np.arange(10_000)[:, None]
    chars = (i // 10 ** np.arange(3, -1, -1) % 10 + 48).astype(np.uint8)
    trailing = np.where(i % 10 ** np.arange(4, 0, -1) == 0, 0, chars).astype(np.uint8)
    leading = np.where(i < [1000, 100, 10, 0], 0, chars).astype(np.uint8)

    def words(table):
        out = np.ascontiguousarray(table).view("<u4").ravel()
        out.setflags(write=False)  # cached: every caller gets this array
        return out

    return words(np.vstack([chars, trailing])), words(np.vstack([chars, leading]))


@functools.cache
def _float_heads() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words around a float's last 16 digits, w0, w1 and w6 of its
    slot, each by ((k - _K_MIN) * 10 + first digit) * 4
    + 2 * (later digits nonzero) + (sign bit)."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        for first in b"0123456789":
            for more in (False, True):
                for sign in (b"\0", b"-"):
                    if -4 <= k < 0:  # 0.000d: '0', '.', -k - 1 zeros, d
                        head = (b"0." + b"0" * (-k - 1)).ljust(5, b"\0") + bytes([first])
                    else:  # d., the point only when more digits follow
                        head = bytes([first]) + (b"." if more else b"\0")
                    tail = b"e-%02d" % -k if k < -4 else b""
                    rows.append(sign + head.ljust(7, b"\0") + tail.ljust(4, b"\0"))
    words = np.frombuffer(b"".join(rows), dtype="<u4").reshape(-1, 3)
    columns = tuple(np.ascontiguousarray(col) for col in words.T)
    for col in columns:
        col.setflags(write=False)  # cached: every caller gets these arrays
    return columns


def _divmod(a: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.divmod for a >= 0, without numpy's slower integer remainder."""
    q = a // d
    return q, a - q * d


def _float_slots(x: np.ndarray) -> np.ndarray:
    """The (m, _FLOAT_WORDS) slots of '%.17g' % v for the floats x (m,).

    The 17 digits are D = round-half-even(|v| 10**(16 - k)), k the decimal
    exponent; the product is exact as hi + lo (Dekker), hi an even integer
    >= 2**53, so D = hi + rint(lo).  Zeros, and nonzero values with
    _K_MIN <= k <= _K_MAX, are built from D; the rest (tiny, large,
    subnormal, non-finite) take '%.17g' itself."""
    a = np.abs(x)
    near = (a >= 1e-7) & (a < 10.0)
    a = np.where(near, a, 1.0)
    # floor(log10 a), which is >= -7 here; it may miss k by one next to a
    # power of ten, and hi + lo decides
    k = (np.log10(a) + 7.0).astype(np.int32) - 7
    np.maximum(k, _K_MIN, out=k)

    def product(a, k):
        p_hi, p_lo = _POW10_HI[16 - k], _POW10_LO[16 - k]
        hi = a * (p_hi + p_lo)
        a_hi, a_lo = _split(a)
        return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo

    hi, lo = product(a, k)
    step = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int32)
    step -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    k += step
    ok = near & (k >= _K_MIN) & (k <= _K_MAX)
    redo = np.flatnonzero(ok & (step != 0))
    if len(redo):
        hi[redo], lo[redo] = product(a[redo], k[redo])
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    zero = x == 0.0
    # a carry to 10**17 would raise k; no double in this range rounds so
    ok = (ok & (digits < 10**17)) | zero
    unused = ~ok | zero
    digits[unused] = 0
    k[unused] = 0

    top, bottom = _divmod(digits, 10**8)
    first, rest = _divmod(top.astype(np.int32), 10**8)
    bottom = bottom.astype(np.int32)
    g0, g1 = _divmod(rest, 10_000)
    g2, g3 = _divmod(bottom, 10_000)
    more = (rest != 0) | (bottom != 0)
    head = ((k - _K_MIN) * 10 + first) * 4 + more * 2 + np.signbit(x)
    w0, w1, w6 = _float_heads()
    stripped, _ = _digit_words()
    slots = np.empty((len(x), _FLOAT_WORDS), dtype="<u4")
    slots[:, 0] = w0.take(head)
    slots[:, 1] = w1.take(head)
    # a digit group drops its trailing zeros when every later group is zero
    slots[:, 2] = stripped[g0 + 10_000 * ((g1 == 0) & (bottom == 0))]
    slots[:, 3] = stripped[g1 + 10_000 * (bottom == 0)]
    slots[:, 4] = stripped[g2 + 10_000 * (g3 == 0)]
    slots[:, 5] = stripped[g3 + 10_000]
    slots[:, 6] = w6.take(head)
    _splice(slots, x, ok, b"%.17g")
    return slots


def _int_slots(i: np.ndarray, size: int = _INT_WORDS) -> np.ndarray:
    """The (m, size) slots of '%d' % v for the integers i (m,): values
    0 <= v < 10**8 from the digit tables, the rest from '%d' itself, which
    size words must hold."""
    i = i.astype(np.int64)
    ok = (i >= 0) & (i < 10**8)
    high, low = _divmod(np.where(ok, i, 0), 10_000)
    _, leading = _digit_words()
    slots = np.zeros((len(i), size), dtype="<u4")
    slots[:, 0] = leading[high + 10_000] * (high != 0)
    slots[:, 1] = leading[low + 10_000 * (high == 0)]
    _splice(slots, i, ok, b"%d")
    return slots


def _splice(slots: np.ndarray, values: np.ndarray, ok: np.ndarray, fmt: bytes) -> None:
    """Write fmt % v into the slot of every value v that ok leaves out."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        text = [fmt % v for v in values[bad].tolist()]
        width = 4 * slots.shape[1]
        slots[bad] = np.array(text, dtype=f"S{width}").view("<u4").reshape(len(bad), -1)


def write_rows(fh, fields) -> None:
    """Write one row per index of the columns in fields to the binary file fh.

    A row is the fields in order: a bytes field as it is, a float column
    as '%.17g' % v, an integer column as '%d' % v, a bytes ('S') column as
    its value; the text is that of those % formats byte for byte."""
    fields = [f if isinstance(f, bytes) else np.asarray(f) for f in fields]
    n = len(next(f for f in fields if not isinstance(f, bytes)))
    literals, floats, ints, texts = [], [], [], []
    # integers take two words when all of them have at most 8 digits
    int_words = 2
    if any(f.dtype.kind in "iu" and len(f) and (f.min() < 0 or f.max() >= 10**8)
           for f in fields if not isinstance(f, bytes)):
        int_words = _INT_WORDS
    width = 0
    for f in fields:
        if isinstance(f, bytes):
            words = np.frombuffer(f + b"\0" * (-len(f) % 4), dtype="<u4")
            literals.append((width, words))
            width += len(words)
        elif f.dtype.kind == "f":
            floats.append((width, f))
            width += _FLOAT_WORDS
        elif f.dtype.kind in "iu":
            ints.append((width, f))
            width += int_words
        elif f.dtype.kind == "S":
            size = -(-f.dtype.itemsize // 4)
            # a contiguous column whose item size is whole words is read in place
            words = np.ascontiguousarray(f, dtype=f"S{4 * size}").view("<u4")
            texts.append((width, words.reshape(len(f), size)))
            width += size
        else:
            raise TypeError(f"write_rows: cannot write a {f.dtype} column")

    block = np.zeros((min(n, _BLOCK_ROWS), width), dtype="<u4")
    for at, words in literals:
        block[:, at : at + len(words)] = words
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        rows = block[: hi - lo]
        for columns, slots, size in ((floats, _float_slots, _FLOAT_WORDS),
                                     (ints, lambda i: _int_slots(i, int_words), int_words)):
            if columns:
                flat = np.concatenate([col[lo:hi] for _, col in columns])
                out = slots(flat).reshape(len(columns), hi - lo, size)
                for (at, _), part in zip(columns, out):
                    rows[:, at : at + size] = part
        for at, words in texts:
            rows[:, at : at + words.shape[1]] = words[lo:hi]
        fh.write(rows.tobytes().translate(None, b"\0"))


def _joined(sep: bytes, columns) -> list:
    """The columns with sep between each two, as write_rows fields."""
    fields = []
    for col in columns:
        fields += [sep, col]
    return fields[1:]


def _index_words(i: np.ndarray, seps: bytes) -> list:
    """For each separator byte c in seps, the '<u8' words of b"%d" % v + c
    for the indices i, 0 <= v < _INDEX_LIMIT: the text left-aligned, NUL
    after it."""
    text = _int_slots(i, 2).view("<u8").ravel()  # '%d', right-aligned
    bits = 8 * (1 + np.searchsorted(10 ** np.arange(1, 7), i, side="right")).astype(np.uint64)
    text >>= 64 - bits
    return [text | (np.uint64(c) << bits) for c in seps]


class _Blocks(list):
    """A binary file for write_rows that keeps each block of text it writes
    as one item."""

    write = list.append


def _index_rows(fh, head: bytes, indices: np.ndarray, words) -> None:
    """Write one row per row of indices (m, k) to the binary file fh, a
    block of rows at a time: head, padded to whole words, then words[j] at
    index j for each column j.  The words are gathered per block; gathered
    for the whole call, as 'S8' columns for write_rows, they raised the
    peak RSS of the surface-mesh benchmark by 0.7 MB."""
    head = np.frombuffer(head + b"\0" * (-len(head) % 8), dtype="<u8")
    block = np.empty((min(len(indices), _BLOCK_ROWS), len(head) + len(words)), dtype="<u8")
    block[:, : len(head)] = head
    for lo in range(0, len(indices), _BLOCK_ROWS):
        rows = block[: min(len(indices) - lo, _BLOCK_ROWS)]
        for j, table in enumerate(words):
            rows[:, len(head) + j] = table.take(indices[lo : lo + len(rows), j])
        fh.write(rows.tobytes().translate(None, b"\0"))


# -- sample --------------------------------------------------------------------

# the CSV bytes of each stratum and configuration code; none needs quoting
_STRATUM_BYTES = np.array(STRATUM_NAMES, dtype="S")
_CONFIG_BYTES = np.array(CONFIG_NAMES, dtype="S")


def _cmd_sample(args: argparse.Namespace, cfg: RunConfig) -> int:
    n = args.n
    pts = sphere_samples(n, cfg.seed)
    report = stability_report(pts, cfg.nu5, cfg.tol)

    columns = [*report.points.T, _STRATUM_BYTES[report.stratum], _CONFIG_BYTES[report.config],
               report.max_real_part, np.where(report.stable, b"true", b"false")]
    with open(args.out, "wb") as fh:
        fh.write(b"nu1,nu2,nu3,nu4,stratum,config,max_real_part,stable\n")
        write_rows(fh, [*_joined(b",", columns), b"\n"])

    def counts(codes, names):
        k = np.bincount(codes, minlength=len(names))
        return {names[c]: int(k[c]) for c in np.flatnonzero(k).tolist()}

    summary = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "seed": cfg.seed,
        "nu5": cfg.nu5,
        "tol": cfg.tol,
        "stratum_counts": counts(report.stratum, STRATUM_NAMES),
        "config_counts": counts(report.config, CONFIG_NAMES),
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


def _shared_texts(per_mesh) -> list:
    """The float columns of each mesh, one list per mesh with the same
    fields, where a field whose column in a later mesh equals the first
    mesh's bit for bit gets one '%.17g' text for all those meshes: an 'S'
    column of the NUL-padded slots, which write_rows writes as the floats.
    Bits, not values, decide: 0.0 == -0.0, but '%.17g' writes 0 and -0.
    The other columns stay floats, formatted a block of rows at a time."""
    out = [list(columns) for columns in per_mesh]
    for f, col in enumerate(per_mesh[0]):
        bits = col.view(np.int64)
        same = [m for m in range(1, len(per_mesh))
                if np.array_equal(per_mesh[m][f].view(np.int64), bits)]
        if same:
            text = _float_slots(col).view(f"S{4 * _FLOAT_WORDS}").ravel()
            for m in (0, *same):
                out[m][f] = text
    return out


def _chart_text(meshes):
    """The OBJ vertex rows of the chart, the first mesh's vertices times
    (1, 1, disc, 1), as write_rows' blocks of text (_Blocks) with _MARK
    before nu3.  Each mesh's rows are this text with _MARK replaced by '-'
    (disc -1) or by nothing (disc +1): '%.17g' % -x == '-' + '%.17g' % x
    for every x of clear sign bit but NaN, +0.0 included.  None, for
    write_rows, unless every disc is +-1, every mesh's vertices are the
    chart times (1, 1, disc, 1) bit for bit, and the chart's nu3 has clear
    sign bits and no NaN."""
    if any(m.disc not in (1, -1) for m in meshes):
        return None
    chart = meshes[0].vertices * [1.0, 1.0, meshes[0].disc, 1.0]
    if chart[:, 2].view(np.uint64).max(initial=0) > 0x7FF0000000000000:  # +inf's bits
        return None
    for m in meshes:
        if not np.array_equal((chart * [1.0, 1.0, m.disc, 1.0]).view(np.uint64),
                              m.vertices.view(np.uint64)):
            return None
    blocks = _Blocks()
    write_rows(blocks, [b"v ", chart[:, 0], b" ", chart[:, 1], b" " + _MARK, chart[:, 2],
                        b" ", chart[:, 3], b"\n"])
    return blocks


def _write_obj(fh, meshes) -> None:
    """The meshes as OBJ groups, vertices numbered from 1 across them.  The
    discs' vertex rows come from one text of the chart (_chart_text) and
    their face rows from one table of index words (_index_words), unless a
    triangle index is negative or an index reaches _INDEX_LIMIT."""
    firsts = np.cumsum([1] + [len(m.vertices) for m in meshes])[:-1].tolist()
    top = max((int(m.triangles.max()) + first for m, first in zip(meshes, firsts)
               if m.triangles.size), default=0)
    words = None
    if top < _INDEX_LIMIT and all(m.triangles.min(initial=0) >= 0 for m in meshes):
        words = _index_words(np.arange(top + 1), b" \n")
    chart = _chart_text(meshes)
    for mesh, first in zip(meshes, firsts):
        fh.write(b"g %s\n" % (b"plus" if mesh.disc > 0 else b"minus"))
        if chart is None:
            write_rows(fh, [b"v ", *_joined(b" ", mesh.vertices.T), b"\n"])
        else:
            for text in chart:
                fh.write(text.replace(_MARK, b"-" if mesh.disc < 0 else b""))
        if words is None:
            write_rows(fh, [b"f ", *_joined(b" ", (mesh.triangles + first).T), b"\n"])
        else:
            space, newline = (table[first:] for table in words)
            _index_rows(fh, b"f ", mesh.triangles, [space, space, newline])


def _write_mesh_csv(fh, meshes) -> None:
    """One vertex row (index, coordinates, chart (s, t), stratum) and one
    face row (three indices) per element, the fields csv.writer would give;
    a float column the discs share is formatted once."""
    fh.write(b"type,disc,i0,i1,i2,nu1,nu2,nu3,nu4,s,t,stratum\n")
    shared = _shared_texts([[*mesh.vertices.T, *mesh.params.T] for mesh in meshes])
    for mesh, columns in zip(meshes, shared):
        columns = [*columns, _STRATUM_BYTES[mesh.strata]]
        write_rows(fh, [b"vertex,%d," % mesh.disc, np.arange(len(mesh.vertices)), b",,,",
                        *_joined(b",", columns), b"\n"])
        write_rows(fh, [b"face,%d," % mesh.disc, *_joined(b",", mesh.triangles.T),
                        b",,,,,,\n"])


def _cmd_mesh(args: argparse.Namespace, cfg: RunConfig) -> int:
    discs = {"plus": [+1], "minus": [-1], "both": [+1, -1]}[args.disc]
    meshes = mesh_surfaces(discs, args.resolution, cfg.tol)

    with open(args.out, "wb") as fh:
        if args.format == "obj":
            _write_obj(fh, meshes)
        else:
            _write_mesh_csv(fh, meshes)

    # the discs share one triangles array: one Euler characteristic per
    # distinct (triangles, vertex count)
    euler = {}
    for mesh in meshes:
        key = (id(mesh.triangles), len(mesh.vertices))
        if key not in euler:
            euler[key] = mesh.euler_characteristic()
    summary = {
        "schema_version": SCHEMA_VERSION,
        "resolution": args.resolution,
        "nu5": cfg.nu5,
        "meshes": [
            {
                "disc": mesh.disc,
                "vertices": int(len(mesh.vertices)),
                "triangles": int(len(mesh.triangles)),
                "euler_characteristic": euler[id(mesh.triangles), len(mesh.vertices)],
                "strata": sorted(_present_strata(mesh.strata)),
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
    parser.add_argument("--tol", type=float,
                        help="label tolerance of classify, sample and mesh and the pass "
                        "threshold of verify (default 1e-9); eigenvalue coincidence is "
                        "fixed at 1e-6 relative")
    parser.add_argument("--nu5", type=float, help="resonant frequency weight (default 1)")
    parser.add_argument("--seed", type=int, help="RNG seed (default 42)")
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
    p.add_argument("--resolution", type=int, default=128)
    p.add_argument("--format", choices=["obj", "csv"], default="obj")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mesh)
    return parser


def _read_classify(argv) -> argparse.Namespace | None:
    """The namespace _build_parser().parse_args(argv) gives for
    `classify [--json] [--] nu1 nu2 nu3 nu4 [nu5] [--json]` (the trailing
    --json only without --), read without building the parser; None for
    every other argv, argparse's to read.  Before --, a token starting with
    '-' is a coordinate only where _NEGATIVE_NUMBER matches it, as in the
    parser."""
    args = sys.argv[1:] if argv is None else list(argv)
    if args[:1] != ["classify"]:
        return None
    flag = args[1:2] == ["--json"]
    rest = args[1 + flag :]
    marked = rest[:1] == ["--"]
    if marked:
        rest = rest[1:]
    elif rest[-1:] == ["--json"]:
        flag, rest = True, rest[:-1]
    if len(rest) not in (4, 5) or not all(
        type(t) is str and (marked or t[:1] != "-" or _NEGATIVE_NUMBER.match(t)) for t in rest
    ):
        return None
    try:
        nu = [float(t) for t in rest]
    except ValueError:
        return None
    return argparse.Namespace(
        config=None, tol=None, nu5=None, seed=None, command="classify",
        nu1=nu[0], nu2=nu[1], nu3=nu[2], nu4=nu[3], point_nu5=nu[4] if len(nu) == 5 else None,
        json=flag, func=_cmd_classify,
    )


def main(argv=None) -> int:
    """Run one command line: the positional classify form through
    _read_classify, every other argv through argparse."""
    args = _read_classify(argv)
    return _run(_build_parser().parse_args(argv) if args is None else args)


def _run(args: argparse.Namespace) -> int:
    """Resolve the run config of the parsed args and run their command."""
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
