"""One workload in one process: set up, then time rounds of the case list.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON line
``{"ready": ...}`` when set-up is done, with the CPU seconds the process has
used since it started and the ``hostspeed`` factor measured right after.
With ``--role setup`` it exits there; with ``--role measure`` it goes on and
prints one JSON line ``{"result": {...}}`` at the end.

Every round runs the whole case list, so every run holds the same mix of
cases.  Rounds continue until the timed work has lasted ``--seconds`` (the
round that would overrun by more than half its length is not started), and
at least until ``MIN_SAMPLES`` cases have been timed, so that ten samples
lie beyond the 90th percentile.  The first round's outputs go through the
workload's independent checks; later rounds must reproduce them exactly.

Each case is timed in CPU seconds of this process and converted to
reference seconds (``hostspeed``) with the reference samples taken before
the ``SCALE_HALF_WIDTH`` cases on either side of it, so that a change in
the host's speed during or between runs cancels out.  Wall times are kept
for the log line and for the run length.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402

MIN_SAMPLES = 100
SCALE_HALF_WIDTH = 25
SETUP_SAMPLES = 31
OUT_DIR = os.path.join(ROOT, "bench", "out")


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _time_round(wl, tracer, samples, reference):
    """Run every case once, each after one reference sample; return
    (outputs, failed count, problems).  ``samples`` gets one (reference
    sample, case CPU seconds or None if the case failed) pair per case.
    When ``reference`` holds an earlier round's outputs, each output is
    compared with it at once and dropped, so that a later round holds no
    more memory than the first and peak RSS does not depend on how many
    rounds fit in the run."""
    outputs = []
    failed = 0
    problems = []
    for case in wl.cases:
        ref = hostspeed.sample()
        if tracer is not None:
            tracer.case = case.index
            tracer.on = True
        c0 = time.process_time()
        try:
            out = wl.run(case)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        c1 = time.process_time()
        if tracer is not None:
            tracer.on = False
        if isinstance(out, Exception):
            failed += 1
            print(f"case {case.index} failed: {out!r}", file=sys.stderr)
            samples.append((ref, None))
        else:
            samples.append((ref, c1 - c0))
        if reference is None:
            outputs.append(out)
        elif not isinstance(out, Exception) and \
                not isinstance(reference[case.index], Exception) and \
                not wl.same(out, reference[case.index]):
            problems.append(f"case {case.index}: output changed between "
                            f"rounds")
    return outputs, failed, problems


def _check(wl, outputs):
    """Problems the workload's checks find in the first round's outputs."""
    problems = []
    for case, out in zip(wl.cases, outputs):
        if isinstance(out, Exception):
            continue
        try:
            wl.check(case, out)
        except workloads.CheckFailed as exc:
            problems.append(f"case {case.index}: {exc}")
    return problems


def measure(wl, seconds, trace):
    tracer = None
    if trace:
        tracer = Tracer(keep_spans=True)
        tracer.install()
    samples = []
    attempted = failed = rounds = 0
    timed = 0.0
    reference = None
    problems = []
    first_round = None
    while True:
        t0 = time.perf_counter()
        outputs, bad, changed = _time_round(wl, tracer, samples, reference)
        round_s = time.perf_counter() - t0
        timed += round_s
        rounds += 1
        attempted += len(wl.cases)
        failed += bad
        if tracer is not None and first_round is None:
            first_round = tracer.snapshot()
            tracer.keep_spans = False
        problems += changed
        if reference is None:
            problems += _check(wl, outputs)
            reference = outputs
        if attempted >= MIN_SAMPLES and timed + 0.5 * round_s >= seconds:
            break
    refs = [ref for ref, _ in samples]
    result = {
        "scale": hostspeed.scale(refs),
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "cases": len(wl.cases),
        "problems": problems[:20],
        "n_problems": len(problems),
    }
    if tracer is not None:
        tracer.uninstall()
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{wl.seed}.jsonl")
        tracer.write_spans(path)
        layers = per_layer_metrics(first_round, tracer.snapshot(), rounds)
        # span times are wall seconds; scale them like the case times
        result["per_layer"] = {
            k: {"value": v * result["scale"] if u in ("s", "us") else v,
                "unit": u}
            for k, (v, u) in layers.items()}
        result["traced_round_s"] = timed / rounds
    else:
        # the case times carry the cases that completed; a failed case
        # counts as attempted and adds no sample
        scales = hostspeed.local_scales(refs, SCALE_HALF_WIDTH)
        times = [cpu * k for (_, cpu), k in zip(samples, scales)
                 if cpu is not None]
        if len(times) < 2:
            raise SystemExit("fewer than two cases completed; no timing")
        deciles = statistics.quantiles(times, n=10)
        result["round_s"] = timed / rounds
        result["cases_per_s"] = len(times) / sum(times)
        result["case_s.p50"] = statistics.median(times)
        result["case_s.p90"] = deciles[8]
        result["beyond_p90"] = sum(t > deciles[8] for t in times)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_cpu_s = time.process_time()
    refs = [hostspeed.sample() for _ in range(SETUP_SAMPLES)]
    _emit({"ready": time.monotonic(), "setup_cpu_s": setup_cpu_s,
           "scale": hostspeed.scale(refs)})
    if args.role == "setup":
        return 0
    _emit({"result": measure(wl, args.seconds, args.trace)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
