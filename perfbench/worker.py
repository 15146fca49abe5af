"""The workload process: a closed loop of CLI calls, one client.

Started by run.py in a fresh interpreter, so that its peak resident memory
is the workload's own.  It imports `resonance_atlas.cli`, calls
`main(argv)` for each operation of each round, one after another, and
stops after the first whole round that ends past --seconds.  Each
operation's exit code, wall time and output go to ops.jsonl in --workdir;
the timings, peak RSS and trace tallies go to result.json.

With --trace 1 the loop runs untraced for half of --seconds, then the
tracer is installed and the first TRACED_ROUNDS rounds are replayed, so
that the per-function counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from workloads import round_ops

# Rounds replayed under the tracer: a fixed number, so that the counts
# repeat exactly; point-queries needs 20 for a steady self time.
TRACED_ROUNDS = {"atlas-sample": 1, "surface-mesh": 1, "point-queries": 20}


def run_op(cli, op, log) -> tuple[float, int, int]:
    """Run one operation; return its wall time, exit code and bytes written."""
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc, error = -1, traceback.format_exc()
    dt = time.perf_counter() - t0
    text = buf.getvalue()
    written = len(text.encode())
    out = op.meta.get("out")
    if out:
        written += sum(os.path.getsize(p) for p in (out, out + ".summary.json") if os.path.exists(p))
    log.write(json.dumps({"argv": op.argv, "meta": op.meta, "rc": rc, "seconds": dt,
                          "stdout": text, "error": error}) + "\n")
    return dt, rc, written


def loop(cli, workload, seed, workdir, log, *, seconds=None, rounds=None):
    """Run whole rounds: exactly `rounds` of them, or until `seconds` passed."""
    times, items, failed, written = [], 0, 0, 0
    start = time.perf_counter()
    k = 0
    while True:
        for op in round_ops(workload, seed, k, workdir):
            dt, rc, nbytes = run_op(cli, op, log)
            times.append(dt)
            items += op.items
            failed += rc != 0
            written += nbytes
        k += 1
        if (k >= rounds) if rounds is not None else (time.perf_counter() - start >= seconds):
            break
    return {"op_seconds": times, "rounds": k, "items": items, "failed": failed,
            "bytes_written": written, "wall_s": time.perf_counter() - start}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import resonance_atlas.cli as cli

    result = {"module": cli.__file__}
    with open(os.path.join(args.workdir, "ops.jsonl"), "w", encoding="utf-8") as log:
        if not args.trace:
            result["untraced"] = loop(cli, args.workload, args.seed, args.workdir, log,
                                      seconds=args.seconds)
        else:
            from spans import Tracer

            untraced_dir = os.path.join(args.workdir, "untraced")
            traced_dir = os.path.join(args.workdir, "traced")
            os.makedirs(untraced_dir)
            os.makedirs(traced_dir)
            result["untraced"] = loop(cli, args.workload, args.seed, untraced_dir, log,
                                      seconds=args.seconds / 2.0)
            tracer = Tracer()
            result["traced_functions"] = tracer.install()
            try:
                result["traced"] = loop(cli, args.workload, args.seed, traced_dir, log,
                                        rounds=TRACED_ROUNDS[args.workload])
            finally:
                tracer.uninstall()
            calls, self_s = tracer.totals()
            result["calls"], result["self_s"] = dict(calls), dict(self_s)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
