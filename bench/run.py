"""Benchmark of the exact reduction, the Bethe verdict and the twisted periods.

Run from the root of a checkout:

    python3 bench/run.py --workload reduce --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Each workload runs in its own single-threaded worker process
(``bench/worker.py``).  Set-up is measured ``SETUPS`` times per run, as the
CPU seconds a fresh interpreter uses until its inputs and models are ready,
converted to reference seconds (``bench/hostspeed.py``), and reported as the
median; the last of those processes goes on to time rounds of the case
list.  All times are reference seconds.  With ``--trace 0`` the last line of output is
a JSON object with the end-to-end metrics; with ``--trace 1`` the layers are
wrapped and the last line carries the per-layer metrics instead.  Earlier
lines name the interpreter, the rational backend and the CPU count.

The program must be present as ``src/affopers`` next to this directory; the
benchmark exits with status 2 when it is not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
NAMES = ("reduce", "bethe", "periods")
SETUPS = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(args, role, deadline):
    """Start a worker; return (its "ready" message with the wall seconds
    from spawn to ready added as "wall_s", its final message)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{role} worker overran the run's deadline")
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with {proc.returncode}")
    msgs = [json.loads(line) for line in out.splitlines()
            if line.startswith("{")]
    ready = [m for m in msgs if "ready" in m]
    if not ready:
        raise BenchError(f"{role} worker never reported ready")
    ready[0]["wall_s"] = ready[0]["ready"] - t0
    return ready[0], msgs[-1].get("result")


def _environment():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from affopers import coeffs
    return {"python": sys.version.split()[0],
            "backend": coeffs._Q.__name__,
            "cpus": os.cpu_count()}


def run_workload(args):
    deadline = time.monotonic() + DEADLINE_S
    readies = [_spawn(args, "setup", deadline)[0] for _ in range(SETUPS - 1)]
    ready, res = _spawn(args, "measure", deadline)
    readies.append(ready)
    setups = [r["setup_cpu_s"] * r["scale"] for r in readies]
    correct = res["n_problems"] == 0
    for p in res["problems"]:
        print(f"CHECK FAILED {args.workload}: {p}")
    print(f"{args.workload}: {res['rounds']} rounds of {res['cases']} cases, "
          f"{res['attempted']} attempted, {res['failed']} failed, "
          f"peak RSS {res['peak_rss_mb']:.1f} MB")
    if args.trace:
        metrics = res["per_layer"]
        print(f"{args.workload}: traced round {res['traced_round_s']:.3f} s")
    else:
        metrics = {
            "cases_per_s": {"value": res["cases_per_s"], "unit": "1/s"},
            "case_s.p50": {"value": res["case_s.p50"], "unit": "s"},
            "case_s.p90": {"value": res["case_s.p90"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{args.workload}: round {res['round_s']:.3f} s wall, "
              f"{res['beyond_p90']} samples beyond p90, host scale "
              f"{res['scale']:.3f}, set-ups "
              + " ".join(f"{s:.3f}" for s in setups) + " reference s ("
              + " ".join(f"{r['wall_s']:.3f}" for r in readies)
              + " s wall)")
    for name, m in metrics.items():
        print(f"  {args.workload}/{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "affopers",
                                       "__init__.py")):
        print("bench: no src/affopers next to the benchmark; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    env = _environment()
    print(f"python {env['python']}, rational backend {env['backend']}, "
          f"{env['cpus']} CPUs, seed {args.seed}, {args.seconds:g} s per "
          f"workload, trace {args.trace}")
    try:
        if args.workload != "all":
            summary = run_workload(args)
        else:
            parts = {}
            for name in NAMES:
                parts[name] = run_workload(
                    argparse.Namespace(**{**vars(args), "workload": name}))
            summary = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {f"{n}/{k}": m for n, p in parts.items()
                            for k, m in p["metrics"].items()},
            }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
