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
CPU seconds of the ``regularity_check`` call, the SHA-256 of its rows,
written as ``tools/output_hashes.py`` writes the ``bethe`` rows, and
``ok`` when that hash is the pinned one or ``MOVED`` when it is not; it
exits 1 when any hash moved.  Two checkouts can so be compared for speed,
and a change that must not move any output keeps every line ``ok``.  No
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
# the SHA-256 of each probe's rows
PINNED = {
    "r1k40":
        "fb72ff9275c6f2ed4016d3adc1fa3a55be4a9dfff92807c320c348efec812d1f",
    "r8k40":
        "aab284a54859d630c06deb05861334987f4eebfb3ddaea85219132163e9821fb",
    "r1k80":
        "5ee5e09c2ed17f0ba8943315e0482968d1d997529b5f4aa5d7d45cfee6f3e0fc",
}


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
    moved = False
    for name in names or PROBES:
        seconds, digest = run_probe(name)
        ok = digest == PINNED[name]
        moved = moved or not ok
        print(f"{name:6s} {seconds:8.3f} s  {digest}  "
              f"{'ok' if ok else 'MOVED'}", flush=True)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
