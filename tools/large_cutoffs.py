"""Time the reduction at large cutoffs, where its coefficients grow widest.

Run from the root of a checkout:

    python3 tools/large_cutoffs.py
    python3 tools/large_cutoffs.py r1k40 r8k40

Each probe is ``regularity_check`` on three points 0, 1 and -1 of
levels 1, 2 and 1, whose point s = 1, 2, 3 has the weight
``lambda_dot_k = ((s (k+1)) mod 5 - 2)/(k+2)`` for k = 0 .. rank - 1 and
delta 0, and one off-shell Bethe root 1/3 of colour 1.  The probes are

* ``r1k40`` -- rank 1 at cutoff 40 (about a second);
* ``r8k40`` -- rank 8 at cutoff 40 (about 20 s);
* ``r1k80`` -- rank 1 at cutoff 80 (about 20 s).

With no arguments it runs all three; with names it runs only those, in
the order given; an unknown name exits 2.  For each probe it prints the
CPU seconds of the ``regularity_check`` call and the SHA-256 of its rows,
written as ``tools/output_hashes.py`` writes the ``bethe`` rows, so two
checkouts can be compared for speed and for identical output.  No
benchmark workload reaches these sizes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from affopers.affine_algebra import build_algebra  # noqa: E402
from affopers.miura import MiuraData, regularity_check  # noqa: E402

PROBES = {"r1k40": (1, 40), "r8k40": (8, 40), "r1k80": (1, 80)}


def probe_data(rank, cutoff):
    """The probe's Miura data at the given rank and cutoff."""
    model = build_algebra({"type": "A", "rank": rank, "cutoff": cutoff})
    points = [(z, [f"{(s * (k + 1)) % 5 - 2}/{k + 2}" for k in range(rank)],
               level, "0")
              for s, z, level in ((1, "0", "1"), (2, "1", "2"),
                                  (3, "-1", "1"))]
    return MiuraData.make(model, points, [("1/3", 1)])


def rows_json(rows):
    """The bytes a hash reads of ``regularity_check`` rows."""
    return json.dumps(rows, sort_keys=True,
                      default=lambda x: x.to_json()).encode()


def rows_hash(rows):
    return hashlib.sha256(rows_json(rows)).hexdigest()


def run_probe(name):
    """(CPU seconds, output hash) of one probe."""
    d = probe_data(*PROBES[name])
    t0 = time.process_time()
    rows = regularity_check(d)
    return time.process_time() - t0, rows_hash(rows)


def main(names):
    unknown = [n for n in names if n not in PROBES]
    if unknown:
        print(f"unknown probe {', '.join(unknown)}; choose from "
              f"{', '.join(PROBES)}", file=sys.stderr)
        return 2
    for name in names or PROBES:
        seconds, digest = run_probe(name)
        print(f"{name:6s} {seconds:8.3f} s  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
