"""Benchmark of the resonance-atlas command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  The run times how long `import resonance_atlas.cli` takes in fresh
interpreters, starts the workload in a fresh process (worker.py), checks
every output of that process against the independent oracle in
oracle.py, writes a report to perfbench/results/, and prints one JSON
line last: correct, attempted, failed and the metrics.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 its
per-layer ones.  The self-test of the checks is selftest.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracle
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
# The whole run has 180 s; the worker gets what is left after set-up,
# minus room for the checks.
RUN_BUDGET_S = 170.0
CHECK_RESERVE_S = 25.0


def child_env() -> dict:
    """The caller's environment with the package on the path and none of
    its knobs set, so the runs measure the defaults users get.  Bytecode
    caching is on, as it is for an installed package."""
    env = dict(os.environ)
    env.pop("RESONANCE_ATLAS_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def python(args, env, timeout=60.0, **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True, check=True, **kw)


def measure_setup(env) -> list[float]:
    """Wall time from starting an interpreter until resonance_atlas.cli is
    imported, taken on the system-wide monotonic clock in both processes."""
    code = "import resonance_atlas.cli, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    python(["-c", code], env)  # warm the bytecode cache, as an installed package has it
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = python(["-c", code], env)
        samples.append(float(out.stdout.split()[-1]) - t0)
    return samples


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds spent importing numpy and scipy (cumulative, counted where
    another package first pulls them in) and in the package's own module
    bodies (self time of resonance_atlas.*), from `python -X importtime`."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].lstrip()
        depth = (len(parts[2]) - len(name)) // 2
        rows.append((depth, name.split(".")[0], int(parts[0]), int(parts[1])))
    parent: dict[int, int] = {}
    pending: list[int] = []
    for i, (depth, *_rest) in enumerate(rows):
        while pending and rows[pending[-1]][0] > depth:
            parent[pending.pop()] = i
        pending.append(i)
    out = {}
    for top in ("numpy", "scipy"):
        out[top] = 1e-6 * sum(
            cum for i, (_, pkg, _self, cum) in enumerate(rows)
            if pkg == top and (i not in parent or rows[parent[i]][1] != top)
        )
    out["resonance_atlas"] = 1e-6 * sum(s for _, pkg, s, _ in rows if pkg == "resonance_atlas")
    return out


def measure_import_times(env) -> dict[str, float]:
    runs = [parse_importtime(python(["-X", "importtime", "-c", "import resonance_atlas.cli"], env).stderr)
            for _ in range(IMPORTTIME_RUNS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
    }


def check_op(rec: dict, cache: dict) -> oracle.Findings:
    """Check one operation's output; identical outputs of identical calls
    are checked once, since every check depends on nothing else."""
    meta = rec["meta"]
    out = meta.get("out")
    if out is None:
        key = (tuple(rec["argv"]), rec["stdout"])
    else:
        text = Path(out).read_text(encoding="utf-8")
        summary_text = Path(out + ".summary.json").read_text(encoding="utf-8")
        digest = hashlib.sha256((text + "\0" + summary_text).encode()).hexdigest()
        key = (tuple(a for a in rec["argv"] if a != out), digest)
    if key in cache:
        return cache[key]
    if out is None:
        found = oracle.check_classify(meta["raw"], meta["nu5"], meta["kind"], rec["stdout"])
    elif "resolution" in meta:
        found = oracle.check_mesh(text, json.loads(summary_text), meta["resolution"], meta["nu5"])
    else:
        found = oracle.check_sample(text, json.loads(summary_text), meta["n"], meta["nu5"], meta["seed"])
    cache[key] = found
    return found


def per_layer(name: str, res: dict, imports: dict) -> float:
    """One per-layer metric; calls and self time are per operation."""
    traced = res["traced"]
    ops = len(traced["op_seconds"])
    if name == "cli.bytes_written":
        return traced["bytes_written"] / ops
    if name == "trace.overhead_s":
        return statistics.median(traced["op_seconds"]) - statistics.median(res["untraced"]["op_seconds"])
    if name.startswith("setup.import_") and name.endswith("_s"):
        return imports[name[len("setup.import_"):-2]]
    fn, _, kind = name.rpartition(".")
    if kind == "calls":
        return res["calls"].get(fn, 0) / ops
    if kind == "self_s":
        return res["self_s"].get(fn, 0.0) / ops
    if kind == "calls_per_item":
        return res["calls"].get(fn, 0) / traced["items"]
    raise ValueError(f"no rule for per-layer metric {name!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "resonance_atlas" / "cli.py").is_file():
        print(f"run.py: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    try:
        setup = measure_setup(env)
        imports = measure_import_times(env) if args.trace else {}
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: cannot import resonance_atlas.cli: {exc}\n{getattr(exc, 'stderr', '')}",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        budget = RUN_BUDGET_S - CHECK_RESERVE_S - (time.monotonic() - started)
        try:
            python([str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--workdir", str(workdir)], env, timeout=max(budget, 10.0))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: workload process failed: {exc}\n{getattr(exc, 'stderr', '')}",
                  file=sys.stderr)
            return 1
        res = json.loads((workdir / "result.json").read_text())
        if not Path(res["module"]).resolve().is_relative_to(ROOT / "src"):
            print(f"run.py: imported {res['module']}, not the checkout's package", file=sys.stderr)
            return 2
        cache: dict = {}
        found = oracle.Findings()
        attempted = failed = 0
        with open(workdir / "ops.jsonl", encoding="utf-8") as log:
            for line in log:
                rec = json.loads(line)
                attempted += 1
                if rec["rc"] != 0:
                    failed += 1
                    found.notes.setdefault("failures", []).append(
                        {"argv": rec["argv"], "rc": rec["rc"], "error": rec["error"]})
                    continue
                found.merge(check_op(rec, cache))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loop = res["untraced"]
    if args.trace:
        values = {m["name"]: per_layer(m["name"], res, imports) for m in metric_specs}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_s": statistics.median(loop["op_seconds"]),
            "items_per_s": loop["items"] / loop["wall_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    correct = found.problem_count == 0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "correct": correct, "attempted": attempted, "failed": failed,
        "problem_count": found.problem_count, "problems": found.problems,
        "exempt_rows": found.exempt, "notes": found.notes, "metrics": metrics,
        "setup_samples_s": setup, "import_s": imports,
        "rounds": loop["rounds"], "op_seconds": loop["op_seconds"] if len(loop["op_seconds"]) < 100 else None,
        "trace_calls": res.get("calls"), "trace_self_s": res.get("self_s"),
        "traced_functions": res.get("traced_functions"),
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for problem in found.problems:
        print(f"FAIL {problem}")
    print(f"{args.workload}: {attempted} operations, {failed} failed, {found.problem_count} problems, "
          f"{found.exempt} rows exempt near a threshold; report {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
