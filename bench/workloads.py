"""The three benchmark workloads: seeded inputs, the timed call, and the
independent checks of its output.

Each workload is built from ``--seed`` alone.  The *structure* of every
case (rank, cutoff, number of points and roots, kind) comes from a fixed
stream that is the same for every seed, so every run holds the same shares
of cheap and expensive cases; the seed draws the values (positions,
weights, colors, Moebius maps, shifts).  The ``periods`` workload goes one
step further and takes its weights from the fixed stream too, because a
single heavy integral can cost a quarter of its round; there the seed draws
only the gauge shifts that the checks apply.  The README gives the reasons
and the measured shares.

Timed calls go through module attributes (``miura.build_miura``, not a name
imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import cmath
import math
import random

from affopers import contour, integrate, miura, oper_core
from affopers.affine_algebra import build_algebra
from affopers.coeffs import EXACT, Polynomial, RationalFunction, Scalar
from affopers.miura import MiuraData

NAMES = ("reduce", "bethe", "periods")


class CheckFailed(AssertionError):
    """A case's output failed one of the benchmark's correctness checks."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _model(models, rank, cutoff):
    key = (rank, cutoff)
    if key not in models:
        models[key] = build_algebra({"type": "A", "rank": rank,
                                     "cutoff": cutoff})
    return models[key]


def warm_model(model):
    """Fill the model's lazily built tables that a reduction at its cutoff
    reads, so that no case pays for them inside the timed region."""
    K = model.cutoff
    model.pminus()
    model.principal_vectors()
    model.c0_basis()
    for g in range(0, K + 1):
        model.decomposition_matrix_inv(g)
    for g in range(1, K + 1):
        model.step_solve_matrix_inv(g)
    for gx in range(-1, K + 2):
        for gy in range(-1, K + 2):
            if abs(gx + gy) <= model.window:
                model.bracket_table(gx, gy)
    for g in range(-K - 1, K + 2):
        model.form_table(g)


def _frac(rng, lo, hi, dens):
    return f"{rng.randint(lo, hi)}/{rng.choice(dens)}"


def _point_args(rng, rank, force_level=False):
    """Weight triple drawn as the acceptance tests draw it."""
    coords = [_frac(rng, -4, 4, (1, 2, 3)) for _ in range(rank)]
    level = str(rng.randint(1, 3) if force_level else rng.randint(0, 3))
    delta = _frac(rng, -2, 2, (1, 2))
    return coords, level, delta


def _gaussian(rng, lo, hi, dens):
    return [_frac(rng, lo, hi, dens), _frac(rng, lo, hi, dens)]


def _complex_point_args(rng, rank):
    coords = [_gaussian(rng, -4, 4, (1, 2, 3)) for _ in range(rank)]
    level = str(rng.randint(0, 3))
    delta = _gaussian(rng, -2, 2, (1, 2))
    return coords, level, delta


def _mobius(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c != 0:
            return (a, b, c, d)


def _poles_within(f, points, order):
    """Whether f has poles only at ``points``, each of order <= ``order``:
    f times prod (z - p)^order must be a polynomial."""
    z = Polynomial.variable(EXACT)
    clear = Polynomial.one(EXACT)
    for p in points:
        for _ in range(order):
            clear = clear * (z - Polynomial.constant(p))
    return (f * RationalFunction.from_poly(clear)).is_polynomial


class _Workload:
    """A seeded case list; ``setup`` builds the inputs and the models."""

    cases_per_round = 100

    def __init__(self, seed, n_cases=None):
        self.seed = seed
        self.n_cases = self.cases_per_round if n_cases is None else n_cases
        self.models = {}
        self.cases = []


# --------------------------------------------------------------- reduce


class ReduceCase:
    __slots__ = ("index", "rank", "cutoff", "kind", "data", "mobius")

    def __init__(self, index, rank, cutoff, kind, data, mobius):
        self.index = index
        self.rank = rank
        self.cutoff = cutoff
        self.kind = kind
        self.data = data
        self.mobius = mobius


class Reduce(_Workload):
    """build_miura + quasi_canonicalize on random data of rank 1-3.

    Every fifth case has Gaussian-rational positions and weights; every
    fifth case is first moved by ``change_coordinate`` through a random
    Moebius map.
    """

    name = "reduce"
    kinds = ("real", "real", "real", "complex", "mobius")

    def structure(self):
        """(rank, cutoff, points, roots, kind) per case; seed-independent.

        The cutoff is 3 plus the lowest of three uniform draws: cost grows
        steeply with the cutoff, so high cutoffs are rarer than low ones;
        every fiftieth case takes the top cutoff, so the whole range is
        covered.  Gaussian-rational cases, which cost several times as much
        as real ones of the same shape, stop at cutoff 5, two points and
        one root.
        """
        srng = random.Random("bench/reduce/structure")
        out = []
        for i in range(self.n_cases):
            kind = self.kinds[i % len(self.kinds)]
            rank = srng.choice((1, 1, 2, 2, 3))
            if kind == "complex":
                top, npts, nroots = 2, srng.randint(1, 2), srng.randint(0, 1)
            else:
                top = 3 if rank == 3 else 5
                npts, nroots = srng.randint(1, 3), srng.randint(0, 2)
            cutoff = 3 + min(srng.randint(0, top) for _ in range(3))
            if i % 50 == 49:
                cutoff = 3 + top
            out.append((rank, cutoff, npts, nroots, kind))
        return out

    def setup(self):
        rng = random.Random(f"bench/reduce/{self.seed}")
        for i, (rank, cutoff, npts, nroots, kind) in enumerate(
                self.structure()):
            model = _model(self.models, rank, cutoff)
            if kind == "complex":
                zs = rng.sample([(a, b) for a in range(-3, 4)
                                 for b in range(-2, 3)], npts)
                points = [([str(a), str(b)], *_complex_point_args(rng, rank))
                          for a, b in zs]
                ws = rng.sample([(5, 1), (7, -1), (-5, 2), (-7, -2)], nroots)
                roots = [([str(a), str(b)], rng.randint(0, rank))
                         for a, b in ws]
            else:
                zs = rng.sample(range(-3, 4), npts)
                points = [(str(z), *_point_args(rng, rank)) for z in zs]
                ws = rng.sample([5, 7, -5, -7], nroots)
                roots = [(str(w), rng.randint(0, rank)) for w in ws]
            mob = _mobius(rng) if kind == "mobius" else None
            data = MiuraData.make(model, points, roots)
            self.cases.append(ReduceCase(i, rank, cutoff, kind, data, mob))
        for model in self.models.values():
            warm_model(model)

    def run(self, case):
        conn = miura.build_miura(case.data)
        if case.mobius is not None:
            conn = oper_core.change_coordinate(conn, case.mobius)
        return oper_core.quasi_canonicalize(conn)

    def check(self, case, qc):
        """v_1 by three routes, pole structure, Moebius commutation."""
        d = case.data
        conn = miura.build_miura(d)
        if case.mobius is None:
            base = qc
        else:
            moved = oper_core.change_coordinate(conn, case.mobius)
            _require(qc.v[1] == oper_core.v1_direct(moved),
                     "moved v_1 differs from v1_direct")
            base = oper_core.quasi_canonicalize(conn)
            image = oper_core.change_coordinate(base, case.mobius)
            _require(qc.phi == image.phi, "Moebius map moved phi differently")
            _require(qc.v == image.v,
                     "reduction does not commute with the Moebius map")
        _require(base.v[1] == oper_core.v1_direct(conn),
                 "v_1 differs from v1_direct")
        _require(base.v[1] == miura.v1_predicted(d),
                 "v_1 differs from v1_predicted")
        _require(sorted(base.v) == [j for j in range(1, case.cutoff + 1)
                                    if j % (case.rank + 1)],
                 "exponent set differs from the type-A exponents")
        poles = [z for z, _ in d.points] + [w for w, _ in d.roots]
        for j, f in base.v.items():
            _require(_poles_within(f, poles, j + 1),
                     f"v_{j} has a pole off the data or above order {j + 1}")

    @staticmethod
    def same(a, b):
        return a.phi == b.phi and a.v == b.v


# ---------------------------------------------------------------- bethe


class BetheCase:
    __slots__ = ("index", "data", "on_shell")

    def __init__(self, index, data, on_shell):
        self.index = index
        self.data = data
        self.on_shell = on_shell


class Bethe(_Workload):
    """regularity_check on two real points and one root, half of the roots
    at the closed-form critical position and half shifted off it."""

    name = "bethe"

    def structure(self):
        srng = random.Random("bench/bethe/structure")
        return [(srng.choice((1, 2)), srng.randint(4, 6), i % 2 == 0)
                for i in range(self.n_cases)]

    def setup(self):
        rng = random.Random(f"bench/bethe/{self.seed}")
        for i, (rank, cutoff, on_shell) in enumerate(self.structure()):
            model = _model(self.models, rank, cutoff)
            while True:
                zs = rng.sample(range(-3, 4), 2)
                points = [(str(z), *_point_args(rng, rank)) for z in zs]
                color = rng.randint(0, rank)
                d0 = MiuraData.make(model, points, [("5", color)])
                try:
                    w = miura.single_root_position(d0)
                except ValueError:
                    continue
                if not on_shell:
                    w = w + Scalar.parse(_frac(rng, 1, 5, (7, 11, 13)))
                if any((w - z).is_zero for z, _ in d0.points):
                    continue
                break
            data = MiuraData(model, d0.points, [(w, color)])
            self.cases.append(BetheCase(i, data, on_shell))
        for model in self.models.values():
            warm_model(model)

    def run(self, case):
        return miura.regularity_check(case.data)

    def check(self, case, rows):
        """Verdict against the placement; off shell, the residue of v_1."""
        _require(len(rows) == 1, "one verdict per root expected")
        row = rows[0]
        _require(row["regular"] == case.on_shell,
                 "verdict differs from how the root was placed")
        _require((row["max_pole_order"] == 0) == case.on_shell,
                 "pole order contradicts the placement")
        partial = miura.bethe_residuals(case.data)[0]
        _require(row["bethe_residual"] == partial,
                 "reported residual differs from the master-function partial")
        _require(partial.is_zero == case.on_shell,
                 "master-function partial contradicts the placement")
        if not case.on_shell:
            d = case.data
            w = d.roots[0][0]
            v1 = oper_core.quasi_canonicalize(miura.build_miura(d)).v[1]
            hv = Scalar.exact(d.model.dual_coxeter)
            _require((v1.residue_at(w) * hv - partial).is_zero,
                     "h res_w v_1 differs from the master-function partial")

    @staticmethod
    def same(a, b):
        return all(x["regular"] == y["regular"]
                   and x["bethe_residual"] == y["bethe_residual"]
                   and x["max_pole_order"] == y["max_pole_order"]
                   for x, y in zip(a, b)) and len(a) == len(b)


# -------------------------------------------------------------- periods


RADIUS = "1/4"


def _rgamma(x):
    """1/Gamma(x), zero at the poles of Gamma."""
    if x <= 0 and x == int(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _cycle_factor(x):
    """(1 - e^{2 pi i x}) Gamma(x), continued to the integers."""
    if x == int(x):
        if x > 0:
            return 0j
        n = int(-x)
        return -2j * math.pi * (-1) ** n / math.factorial(n)
    return (1 - cmath.exp(2j * math.pi * x)) * math.gamma(x)


def pochhammer_beta(p, q, kp, kq, s):
    """Closed form of the Pochhammer integral of (z-p)^{s kp} (z-q)^{s kq}
    dz, starting on the principal branches at the midpoint and circling p
    first, as ``contour.pochhammer((p, q))`` does.

    With z = p + (q - p) t the integrand is a constant times
    t^{a-1} (1-t)^{b-1}, a = 1 + s kp, b = 1 + s kq, and the t-integral
    over the Pochhammer cycle is -(1 - e^{2 pi i a})(1 - e^{2 pi i b})
    Gamma(a) Gamma(b) / Gamma(a + b).
    """
    span = q - p
    a = 1 + s * kp
    b = 1 + s * kq
    const = cmath.exp((a - 1) * (cmath.log(span / 2) + math.log(2))
                      + (b - 1) * (cmath.log(-span / 2) + math.log(2)))
    return -span * const * _cycle_factor(a) * _cycle_factor(b) \
        * _rgamma(a + b)


def _close(x, y, err):
    """|x - y| within the quadrature's own error estimate (``err``, the sum
    of the reported errors) with a margin, or within rounding of the sizes
    involved when both errors are zero."""
    floor = 1e-12 * max(1.0, abs(x), abs(y))
    return abs(x - y) <= 10.0 * err + floor


class PeriodsCase:
    __slots__ = ("index", "rank", "positions", "data", "shift_poly")

    def __init__(self, index, rank, positions, data, shift_poly):
        self.index = index
        self.rank = rank
        self.positions = positions
        self.data = data
        self.shift_poly = shift_poly


class Periods(_Workload):
    """One reduction at cutoff 3, then every exponent integrated over the
    Pochhammer cycle of each adjacent pair of points.

    The case list is the same for every seed (see the module docstring);
    the seed draws the gauge shifts that the checks apply.
    """

    name = "periods"
    # rank-1 data with three points are left out: some of their r = 3
    # integrals exhaust the quadrature's panel budget (see CHANGES.md)
    shapes = ((1, (0, 1)), (2, (0, 1)), (2, (0, 1, 2)),
              (1, (0, 1)), (2, (0, 1)), (2, (-1, 0, 1)))

    def structure(self):
        """(rank, positions, weight triples) per case, the weights drawn as
        the acceptance gauge test draws them."""
        srng = random.Random("bench/periods/structure")
        out = []
        for i in range(self.n_cases):
            rank, positions = self.shapes[i % len(self.shapes)]
            weights = [_point_args(srng, rank, force_level=True)
                       for _ in positions]
            out.append((rank, positions, weights))
        return out

    def setup(self):
        rng = random.Random(f"bench/periods/{self.seed}")
        for i, (rank, positions, weights) in enumerate(self.structure()):
            model = _model(self.models, rank, 3)
            points = [(str(z), *w) for z, w in zip(positions, weights)]
            data = MiuraData.make(model, points, [])
            poly = RationalFunction.from_poly(Polynomial.of(
                [Scalar.parse(_frac(rng, -6, 6, (1, 2, 3)))
                 for _ in range(rng.randint(1, 4))]))
            self.cases.append(PeriodsCase(i, rank, list(positions), data,
                                          poly))
        for model in self.models.values():
            warm_model(model)

    @staticmethod
    def pairs(case):
        return list(zip(case.positions, case.positions[1:]))

    def run(self, case):
        q = oper_core.quasi_canonicalize(miura.build_miura(case.data))
        out = {}
        for pair in self.pairs(case):
            gamma = contour.pochhammer(pair, radius=RADIUS)
            for r in sorted(q.v):
                out[pair, r] = integrate.twisted_integral(case.data, q, r,
                                                          gamma)
        return q, out

    def check(self, case, result):
        """Closed branches, gauge invariance, Stokes, and a Beta value."""
        q, periods = result
        d = case.data
        hv = d.model.dual_coxeter
        _require(sorted(periods) == sorted(
            (pair, r) for pair in self.pairs(case) for r in sorted(q.v)),
            "missing periods")
        for res in periods.values():
            _require(res.valid, "Pochhammer cycle did not close its branch")
        # the gauge shift is applied at r = 1: re-integrating the top
        # exponent would double the cost of the heaviest integrals
        pair = self.pairs(case)[0]
        gamma = contour.pochhammer(pair, radius=RADIUS)
        base = periods[pair, 1]
        shifted = oper_core.residual_gauge(q, {1: case.shift_poly},
                                           allow_first=True)
        moved = integrate.twisted_integral(d, shifted, 1, gamma)
        _require(_close(base.value, moved.value, base.err + moved.err),
                 "residual gauge changed the period")
        exact = integrate.stokes_check(d, max(q.v), case.shift_poly, gamma)
        _require(_close(exact.value, 0j, exact.err),
                 "a twisted-exact form has a non-zero period")
        # the unit coefficient on the pair's levels alone is a Beta value
        levels = [lam.rho * Scalar.exact(hv) for _z, lam in d.points[:2]]
        pure = MiuraData.make(d.model, [
            (str(pair[0]), ["0"] * case.rank, str(levels[0].re), "0"),
            (str(pair[1]), ["0"] * case.rank, str(levels[1].re), "0")])
        unit = oper_core.QuasiCanonicalForm(
            d.model, pure.twist(), {1: RationalFunction.one(EXACT)})
        got = integrate.twisted_integral(pure, unit, 1, gamma)
        want = pochhammer_beta(complex(pair[0]), complex(pair[1]),
                               float(levels[0].re), float(levels[1].re),
                               -1.0 / hv)
        _require(_close(got.value, want, got.err),
                 "unit period differs from the Beta value")

    @staticmethod
    def same(a, b):
        qa, pa = a
        qb, pb = b
        return qa.v == qb.v and all(
            pa[k].value == pb[k].value and pa[k].err == pb[k].err
            for k in pa) and sorted(pa) == sorted(pb)


WORKLOADS = {cls.name: cls for cls in (Reduce, Bethe, Periods)}
