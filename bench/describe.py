"""Describe the inputs of each workload for one seed: the shares of rank,
cutoff, points, roots and kind, the bit sizes of the reduced ``v_j``, and
the quadrature panels per integral.  The README's tables come from here.

    python3 bench/describe.py --seed 1
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from collections import Counter
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _bits(f):
    """Largest numerator-plus-denominator bit length among the rational
    parts of the coefficients of f, read from its JSON form."""
    out = 0
    for part in ("num", "den"):
        for c in f.to_json()[part]:
            for q in (c if isinstance(c, list) else [c]):
                q = Fraction(q)
                out = max(out, q.numerator.bit_length()
                          + q.denominator.bit_length())
    return out


def _quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return f"min {min(xs)}, quartiles {q[0]:g} / {q[1]:g} / {q[2]:g}, " \
           f"max {max(xs)}"


def _shares(label, values):
    counts = Counter(values)
    total = sum(counts.values())
    body = ", ".join(f"{k}: {100 * v / total:.0f}%"
                     for k, v in sorted(counts.items()))
    print(f"  {label}: {body}")


def describe(seed):
    wl = workloads.Reduce(seed)
    st = wl.structure()
    print(f"reduce ({len(st)} cases)")
    _shares("rank", [s[0] for s in st])
    _shares("cutoff", [s[1] for s in st])
    _shares("points", [s[2] for s in st])
    _shares("roots", [s[3] for s in st])
    _shares("kind", [s[4] for s in st])
    wl.setup()
    bits = [_bits(f) for case in wl.cases for f in wl.run(case).v.values()]
    print(f"  v_j bit size: {_quartiles(bits)}")

    wl = workloads.Bethe(seed)
    st = wl.structure()
    print(f"bethe ({len(st)} cases)")
    _shares("rank", [s[0] for s in st])
    _shares("cutoff", [s[1] for s in st])
    _shares("on shell", [s[2] for s in st])
    wl.setup()
    dens = [case.data.roots[0][0].re.denominator for case in wl.cases]
    print(f"  root denominator: {_quartiles(dens)}")

    wl = workloads.Periods(seed)
    st = wl.structure()
    print(f"periods ({len(st)} cases)")
    _shares("shape", [f"A{s[0]}, {len(s[1])} points" for s in st])
    wl.setup()
    panels = []
    over = 0
    for case in wl.cases:
        _q, res = wl.run(case)
        panels += [r.panels for r in res.values()]
        over += sum(r.err > 1e-10 for r in res.values())
    print(f"  integrals: {len(panels)}, panels per integral: "
          f"{_quartiles(panels)}")
    print(f"  integrals over 2000 panels: {sum(p > 2000 for p in panels)}; "
          f"err above abs_tol: {over}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    describe(ap.parse_args(argv).seed)


if __name__ == "__main__":
    main()
