"""Print the seven SHA-256 hashes that pin the package's outputs bit for bit.

Run from the root of a checkout:

    python3 tools/output_hashes.py
    python3 tools/output_hashes.py reduce gauge bethe

With no arguments it prints all seven hashes; with names it prints only
those, in the order given.  A change that must not move any output leaves
all seven lines as they were at its parent.  Each hash covers:

* ``reduce``  -- ``json.dumps(qc.to_json(), sort_keys=True)`` of every
  ``bench`` ``reduce`` case of seeds 1-3, in case order;
* ``gauge``   -- for the same cases, the gauge factors ``qc.gauge`` in
  order, each as ``json.dumps`` of its grade and its coefficients'
  ``to_json``;
* ``bethe``   -- ``json.dumps(rows, sort_keys=True)`` of the
  ``regularity_check`` rows of every ``bethe`` case of seeds 1-3, with
  scalars written through ``to_json``;
* ``periods`` -- for every ``periods`` case of seeds 1-3, run and then
  checked, ``repr((value, err, multiplier, panels, valid))`` of each
  integral in call order (checks included), then
  ``json.dumps(q.v[j].to_json())`` for each exponent ``j``.  The case
  positions do not depend on the seed, so seeds 2-3 run on the panel
  tables that seed 1 left in ``integrate``'s store: the hash covers cold
  and warm tables alike;
* ``verify``  -- ``json.dumps(report, sort_keys=True)`` of
  ``affopers verify --suite all --seed 42`` with every ``seconds`` and
  ``elapsed_seconds`` key dropped;
* ``classes`` -- for seeds 1-3, every ``reduce`` case without a Moebius
  map and then every ``periods`` case, reduced by
  ``quasi_canonicalize``; where the twist ``q.phi`` has simple poles and
  vanishes at infinity, ``json.dumps([nf.to_json(), F.to_json()])`` of
  ``twisted_class(q.phi, j, hv, q.v[j])`` for each exponent ``j >= 2``;
* ``wide``    -- for seeds 1-3 and the algebras A1 at cutoff 5, A2 at
  cutoff 6 and A3 at cutoff 4, Miura data at the points 0, 1 and
  -1 + 2i whose weights, levels and deltas are rationals of about 200 bits
  (``random.Random(seed)``, 100-bit numerators over odd 100-bit
  denominators) with the root 1/3 of colour 1, reduced by
  ``quasi_canonicalize``: ``json.dumps`` of ``qc.to_json()`` and of the
  gauge factors as for ``gauge``; then the ``regularity_check`` rows of the
  ``r1k40`` probe of ``tools/large_cutoffs.py``, written as for ``bethe``.
  These reductions grow coefficients of thousands of bits and take the
  paths that move values to wider packed bases.

The case lists come from ``bench/workloads.py``; nothing under ``bench/``
is written.  The run takes 12-25 s of one CPU (Python 3.11, Xeon).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from affopers import integrate, miura, oper_core, verify  # noqa: E402
from affopers.affine_algebra import build_algebra  # noqa: E402
import large_cutoffs  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _cases(cls, seed):
    w = cls(seed)
    w.setup()
    return w, w.cases


def reduce_hash():
    h = hashlib.sha256()
    for seed in SEEDS:
        w, cases = _cases(workloads.Reduce, seed)
        for case in cases:
            qc = w.run(case)
            h.update(json.dumps(qc.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def _gauge_json(qc):
    """The bytes a hash reads of each gauge factor of ``qc``, in order."""
    return b"".join(json.dumps([[g, [f.to_json() for f in comp]]
                                for g, comp in sorted(m.parts.items())]
                               ).encode() for m in qc.gauge)


def gauge_hash():
    h = hashlib.sha256()
    for seed in SEEDS:
        w, cases = _cases(workloads.Reduce, seed)
        for case in cases:
            h.update(_gauge_json(w.run(case)))
    return h.hexdigest()


def bethe_hash():
    h = hashlib.sha256()
    for seed in SEEDS:
        _w, cases = _cases(workloads.Bethe, seed)
        for case in cases:
            h.update(large_cutoffs.rows_json(
                miura.regularity_check(case.data)))
    return h.hexdigest()


def periods_hash():
    h = hashlib.sha256()
    inner = integrate.integrate_twisted_form

    def recorded(*args, **kwargs):
        res = inner(*args, **kwargs)
        h.update(repr((res.value, res.err, res.multiplier, res.panels,
                       res.valid)).encode())
        return res

    integrate.integrate_twisted_form = recorded
    try:
        for seed in SEEDS:
            w, cases = _cases(workloads.Periods, seed)
            for case in cases:
                result = w.run(case)
                w.check(case, result)
                q = result[0]
                for j in sorted(q.v):
                    h.update(json.dumps(q.v[j].to_json()).encode())
    finally:
        integrate.integrate_twisted_form = inner
    return h.hexdigest()


def _drop_timings(obj):
    if isinstance(obj, dict):
        return {k: _drop_timings(v) for k, v in obj.items()
                if k not in ("seconds", "elapsed_seconds")}
    if isinstance(obj, list):
        return [_drop_timings(v) for v in obj]
    return obj


def verify_hash():
    # round-tripped as the CLI's --json file is
    report = json.loads(json.dumps(verify.run_suite("all", seed=42)))
    text = json.dumps(_drop_timings(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def classes_hash():
    h = hashlib.sha256()
    for seed in SEEDS:
        _w, reduce_cases = _cases(workloads.Reduce, seed)
        _w, periods_cases = _cases(workloads.Periods, seed)
        for case in ([c for c in reduce_cases if c.mobius is None]
                     + periods_cases):
            q = oper_core.quasi_canonicalize(miura.build_miura(case.data))
            phi = q.phi
            if (any(m > 1 for _p, m in phi.poles)
                    or phi.num.degree >= len(phi.poles)):
                continue
            hv = q.model.dual_coxeter
            for j in sorted(q.v):
                if j >= 2:
                    nf, F = oper_core.twisted_class(phi, j, hv, q.v[j])
                    h.update(json.dumps([nf.to_json(),
                                         F.to_json()]).encode())
    return h.hexdigest()


def _wide_data(rng, rank, cutoff):
    # kept here rather than shared with the tests, so that the tool runs
    # against the src of an older checkout too
    def big():
        return f"{rng.getrandbits(100) - 2 ** 99}/{rng.getrandbits(100) | 1}"

    model = build_algebra({"type": "A", "rank": rank, "cutoff": cutoff})
    return miura.MiuraData.make(model, [
        (z, [big() for _ in range(rank)], big(), big())
        for z in ("0", "1", ["-1", "2"])], [("1/3", 1)])


def wide_hash():
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = random.Random(seed)
        for rank, cutoff in ((1, 5), (2, 6), (3, 4)):
            qc = oper_core.quasi_canonicalize(
                miura.build_miura(_wide_data(rng, rank, cutoff)))
            h.update(json.dumps(qc.to_json(), sort_keys=True).encode())
            h.update(_gauge_json(qc))
    h.update(large_cutoffs.rows_json(
        miura.regularity_check(large_cutoffs.probe_data(1, 40))))
    return h.hexdigest()


HASHES = {"reduce": reduce_hash, "gauge": gauge_hash, "bethe": bethe_hash,
          "periods": periods_hash, "verify": verify_hash,
          "classes": classes_hash, "wide": wide_hash}


def main(names):
    unknown = [n for n in names if n not in HASHES]
    if unknown:
        print(f"unknown hash {', '.join(unknown)}; choose from "
              f"{', '.join(HASHES)}", file=sys.stderr)
        return 2
    for name in names or HASHES:
        print(f"{name:8s} {HASHES[name]()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
