"""The three workloads: the CLI calls each one makes, generated from a seed.

An operation is one call of `resonance_atlas.cli.main(argv)`.  A round is
the list of operations a run repeats; runs always end on a whole round.
Everything here depends only on the workload, the benchmark seed and the
round index, so the same seed gives the same inputs in every run.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from oracle import welded_vertex_count

SAMPLE_N = 10_000  # criterion 12's sample size
SAMPLE_NU5 = 1.0
MESH_RESOLUTION = 128  # divisible by 4, so every chart seam is welded
MESH_NU5 = 1.0
# point-queries: one round is 20 representatives, 4 axis points, 16 sheet
# points and 60 random sphere points, 100 classify calls in all.
SHEET_POINTS = 16
RANDOM_POINTS = 60
QUERY_NU5 = (-2.0, -1.0, -0.5, 0.5, 1.0, 3.0)
AXIS_NU5 = (1.0, -2.0)

WORKLOADS = ("atlas-sample", "surface-mesh", "point-queries")

_H = math.sqrt(0.5)
_Q = math.sqrt(3.0) / 2.0
# One point inside each of the twenty strata, all at nu5 = 1: the program's
# representative set, which the paper's configurations are checked on.
REPRESENTATIVES = {
    "P1": (0.0, _H, _H, 0.0),
    "P2": (0.0, -_H, _H, 0.0),
    "P3": (0.0, _H, -_H, 0.0),
    "P4": (0.0, -_H, -_H, 0.0),
    "P5": (0.0, 0.0, 1.0, 0.0),
    "P6": (0.0, 0.0, -1.0, 0.0),
    "L1": (0.0, 0.5, _Q, 0.0),
    "L2": (0.0, -0.5, _Q, 0.0),
    "L3": (0.0, 0.5, -_Q, 0.0),
    "L4": (0.0, -0.5, -_Q, 0.0),
    "L5": (0.0, 0.0, _H, _H),
    "L6": (0.0, 0.0, _H, -_H),
    "S1": (0.25, 0.5, 0.75, _H / 2.0),
    "S2": (-0.25, -0.5, 0.75, _H / 2.0),
    "S3": (-0.25, 0.5, 0.75, -_H / 2.0),
    "S4": (0.25, -0.5, 0.75, -_H / 2.0),
    "V1": (_H, 0.0, _H, 0.0),
    "V2": (0.0, _H, 0.0, _H),
    "V3": (-_H, 0.0, _H, 0.0),
    "V4": (0.0, -_H, 0.0, _H),
}


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the work items it completes, and what the
    checker needs to know about its input."""

    argv: tuple[str, ...]
    items: int
    meta: dict


def stream_seed(seed: int, *tags) -> int:
    """A non-negative 64-bit seed derived from the benchmark seed."""
    text = ":".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def sample_seed(seed: int) -> int:
    """The `--seed` handed to `sample`: it picks the sphere samples."""
    return stream_seed(seed, "atlas-sample") % 2**32


def param_phi(disc: int, s: float, t: float) -> tuple[float, float, float, float]:
    """The paper's conoid chart of the critical surface on one hemisphere."""
    ct, st = math.cos(t), math.sin(t)
    n3 = disc * math.sqrt(max(0.0, (1.0 - s * s) * (2.0 - ct * ct) / 2.0))
    return (_H * s * ct, _H * ct, n3, s * st)


def _classify(coords, nu5: float, kind: str) -> Op:
    argv = ("classify", "--json", "--") + tuple(repr(float(c)) for c in coords) + (repr(float(nu5)),)
    return Op(argv, 1, {"raw": [float(c) for c in coords], "nu5": float(nu5), "kind": kind})


def _query_round(seed: int, k: int) -> list[Op]:
    rng = np.random.default_rng(stream_seed(seed, "point-queries", k))
    ops = [_classify(p, 1.0, f"rep:{name}") for name, p in REPRESENTATIVES.items()]
    ops += [_classify((sgn, 0.0, 0.0, 0.0), nu5, "axis") for sgn in (1.0, -1.0) for nu5 in AXIS_NU5]
    for _ in range(SHEET_POINTS):
        # generic chart points: clear of the seams s = 0, +-1 and of the
        # lines t = k pi / 2, where the sign quadrant is not resolved
        s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.85))
        t = float(rng.integers(0, 4) * (math.pi / 2.0) + rng.uniform(0.15, math.pi / 2.0 - 0.15))
        disc = int(rng.choice([-1, 1]))
        ops.append(_classify(param_phi(disc, s, t), float(rng.choice(QUERY_NU5)), "sheet"))
    for _ in range(RANDOM_POINTS):
        ops.append(_classify(rng.normal(size=4), float(rng.choice(QUERY_NU5)), "random"))
    return ops


def round_ops(workload: str, seed: int, k: int, workdir: str) -> list[Op]:
    """The operations of round k."""
    if workload == "atlas-sample":
        out = os.path.join(workdir, f"sample-{k}.csv")
        argv = ("--seed", str(sample_seed(seed)), "sample", "--n", str(SAMPLE_N), "--out", out)
        meta = {"out": out, "n": SAMPLE_N, "nu5": SAMPLE_NU5, "seed": sample_seed(seed)}
        return [Op(argv, SAMPLE_N, meta)]
    if workload == "surface-mesh":
        out = os.path.join(workdir, f"mesh-{k}.obj")
        argv = ("mesh", "--disc", "both", "--resolution", str(MESH_RESOLUTION),
                "--format", "obj", "--out", out)
        meta = {"out": out, "resolution": MESH_RESOLUTION, "nu5": MESH_NU5}
        return [Op(argv, 2 * welded_vertex_count(MESH_RESOLUTION), meta)]
    if workload == "point-queries":
        return _query_round(seed, k)
    raise ValueError(f"unknown workload {workload!r}")
