"""Adaptive quadrature of multivalued integrands along contours.

The integrals evaluated here have the shape

    integral over gamma of  P(z)^s * g(z) dz,
    P(z) = prod_i (z - z_i)^{k_i},  s = -r/h,

with g rational.  P^s is multivalued; its branch is fixed at the start of
the contour (principal log per factor) and continued along the path, so the
value of the integral depends on the contour as a path, not just as a set.

Quadrature is 15-point Gauss-Kronrod with adaptive bisection per segment.
The per-puncture logs are threaded through every panel and node in path
order; panels of one segment therefore cannot be reordered, but whole
integrals over different data are independent.  This sequential threading
is load-bearing for correctness and is why a stock quadrature routine is
not used: the integrand is not a function of z alone, and rules that sample
in an unspecified internal order would lose the branch.

Each segment is integrated by one routine generated for its shape: the
segment kind (line or arc), the number of marked points, the length of g's
numerator and, per pole of g, the index of the marked point it sits at or
None, with the pole's order (``_shape``).  ``_routine`` writes the
routine's source from ints and fixed text only, compiles it once per shape
and keeps it in a bounded cache; ``integrate_twisted_form`` finds the
shape once per integral and calls the routine once per segment.  The
routine reads the segment and integrand constants once and binds them as
the defaults of a recursive panel function, so that its node loop reads
them as locals.  One call of that function does all of one panel: it
counts the panel against ``_MAX_PANELS``, runs the 15 nodes, applies the
acceptance test below, and then either bisects or, for an accepted panel
only, takes the last branch step from the 15th node to the panel's end.

The 15 nodes run as a loop whose body is unrolled over the points, the
coefficients and the poles: the position and path derivative (one
exponential on an arc), the branch step from the previous node, the
weighted log sum, and g by Horner over the coefficients and poles that
``RationalFunction.complex_form`` converts once per function.  A step's
increments are the principal logs of ``(z - p) / (zprev - p)``; a zero
``z - p`` makes ``cmath.log`` raise ``ValueError``, which stands in for a
test per point.  A step that lands on a puncture, or whose increment
reaches ``_BRANCH_STEP``, goes to ``advance_logs`` through this module's
attribute, which bisects it or raises.  Each ``z - p`` is computed once per
node, and serves as the next step's denominator and as the factor of a
pole at that point.  A pole of order m <= 100 is raised to its power by
the products that CPython's ``c_powu`` forms for ``** m``: ``(1+0j)*b``,
``(1+0j)*(b*b)``, ``((1+0j)*b)*(b*b)`` and so on (``_pole_power``).
Above 100, CPython's ``**`` goes through exp and log, and the routine
keeps ``** m``.  Every float operation is the one ``Line.point``,
``Arc.point`` and ``derivative``, ``advance_logs`` and ``eval_complex``
would do, in the same order, so the values are theirs bit for bit.  Only
the operands of a float-by-complex product, and of the ``0 +`` that starts
the weighted log sum, are swapped to put the complex first: CPython then
runs the complex operation at once instead of first trying the float's or
the int's, and an IEEE product or sum does not depend on the order of its
two operands.  The one difference is a pole power beyond the float range:
there ``**`` raises ``OverflowError``, while the products give infinite or
NaN parts, as the numerator's Horner sum already does.

A contour may run over one piece more than once: the twelve segments of
a Pochhammer cycle are four pieces, two lines run four times each and two
circles run twice, half of the runs reversed.
``integrate_twisted_form`` keeps, per integral, the value, ``err`` and
start and end logs of each segment it integrates, keyed by the segment's
exact float bits (``_piece_keys``).  A later segment with the key of a
kept piece, or with the key of its ``reversed()``, is not integrated when
its start logs are the piece's start logs (its end logs, for a reverse)
plus 2 pi i n with integer n, within ``_TURN_TOL``: along it the
integrand is the piece's times ``factor = exp(s sum_i k_i 2 pi i n_i)``,
so it adds ``+-factor`` times the piece's value and ``|factor|`` times
its ``err``, and the logs move on to the piece's end logs (start logs,
for a reverse) plus 2 pi i n (``_repeat``).  ``panels`` and the panel
budget count evaluated panels only.

A panel is accepted when its Kronrod-Gauss difference ``err`` is within
its share of ``abs_tol`` (halved at each bisection) or within ``_ROUNDOFF``
of its |f| mass, or when it lies at ``_MAX_DEPTH``.  It is also accepted
when bisection stopped helping and the error is rounding noise: its ``err``
is at least ``_STALLED`` of its parent's and at most ``_NOISE`` of its |f|
mass.  Bisecting such a panel halves the tolerance without reducing the
noise, so it would otherwise go down to the depth cap; the integral then
reports an ``err`` above ``abs_tol``, the accuracy it actually reached.
A panel that is not accepted and whose ``err`` is not finite, because the
integrand overflows the float range on it, raises ``ContourError`` in
place of bisecting; accepted panels pay nothing for that test.
"""

from __future__ import annotations

import cmath
import functools
import math

from .coeffs import RationalFunction, Scalar
# _BRANCH_STEP and advance_logs are read by the generated routines
from .contour import (_BRANCH_STEP, Contour, ContourError, advance_logs,
                      clearance_violations, default_clearance, start_logs)
from .oper_core import QuasiCanonicalForm, twisted_derivative

__all__ = [
    "IntegralResult",
    "twisted_integral",
    "stokes_check",
    "integrate_twisted_form",
]

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1]
# (nodes ascending; the Gauss subset sits at the odd positions).
_KX = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
)
_KW = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
)
_GW = {
    1: 0.129484966168870, 3: 0.279705391489277, 5: 0.381830050505119,
    7: 0.417959183673469, 9: 0.381830050505119, 11: 0.279705391489277,
    13: 0.129484966168870,
}
# (node, Kronrod weight, Gauss weight or None) in path order
_NODES = tuple(zip(_KX, _KW, (_GW.get(i) for i in range(len(_KX)))))

_MAX_DEPTH = 14
_MAX_PANELS = 20000


class IntegralResult:
    """Value and error estimate of one contour integral, together with the
    branch closure multiplier of P^s along the contour.

    ``valid`` means only that the contour closed and the branch of P^s
    returned to itself, so the value is an invariant, not path data; it
    says nothing about accuracy.  ``err`` is the sum of the panels' error
    estimates, plus ``|factor|`` times the piece's ``err`` for each segment
    that repeats a piece already integrated (see the module docstring).
    ``panels`` counts the panels evaluated; a repeated piece adds none.
    An ``err`` above the requested ``abs_tol`` means the integrand's
    rounding noise lies above that tolerance: the panels there stopped at
    the noise, and ``err`` is the accuracy reached."""

    __slots__ = ("value", "err", "multiplier", "segments", "panels", "valid")

    def __init__(self, value, err, multiplier, segments, panels, valid):
        self.value = value
        self.err = err
        self.multiplier = multiplier
        self.segments = segments
        self.panels = panels
        self.valid = valid

    def to_json(self):
        return {
            "value": [self.value.real, self.value.imag],
            "err": self.err,
            "multiplier": [self.multiplier.real, self.multiplier.imag],
            "segments": self.segments,
            "panels": self.panels,
            "valid": self.valid,
        }

    def __repr__(self):
        flag = "" if self.valid else ", INVALID"
        return (f"IntegralResult({self.value:.12g}, err={self.err:.3g}"
                f"{flag})")


_BUDGET_MESSAGE = ("quadrature did not converge within the panel budget; "
                   "the integrand is probably too close to a singularity")
_OVERFLOW_MESSAGE = ("the integrand overflows the float range on the "
                     "contour: a panel's sum is not finite")

# requesting absolute accuracy below the rounding noise of the node sums
# would bisect forever; 50 ulps of the |f| mass is the floor a panel can hit
_ROUNDOFF = 50 * 2.220446049250313e-16
# a panel whose bisection did not help (its error is at least _STALLED of
# its parent's) and whose error lies at the integrand's rounding noise
# (at most _NOISE of its |f| mass) is accepted as it stands: noise and the
# halved tolerance would otherwise shrink together down to _MAX_DEPTH
_STALLED = 0.25
_NOISE = 1e-11

# the largest integer power that CPython's complex ** forms by repeated
# squaring (c_powu in Objects/complexobject.c); above it, ** goes through
# exp and log
_POWU_LIMIT = 100

# a repeated piece's start logs must lie this close to 2 pi i n away from
# the stored ones (see ``_repeat``)
_TWO_PI = 2 * math.pi
_TURN_TOL = 1e-9

# The geometry of a routine, per segment kind: the segment constants, read
# once per segment as (name, expression) pairs; the statements that leave
# the position at a node t in ``z`` and the path derivative in ``dz``; and
# the one that leaves the position at a bisection point tm in ``zm``: the
# operations of ``Line.point`` and ``Arc.point`` and ``derivative``.
_GEOMETRY = {
    "line": ((("start", "seg.start"),
              ("dz", "seg.end - start")),
             "z = start + dz * t\n",
             "zm = start + dz * tm\n"),
    "arc": ((("fa", "seg.from_angle"),
             ("sweep", "seg.to_angle - fa"),
             ("center", "seg.center"),
             ("radius", "seg.radius"),
             ("rs1j", "(radius * sweep) * 1j")),
            "e = exp(1j * (fa + t * sweep))\n"
            "z = center + e * radius\n"
            "dz = rs1j * e\n",
            "zm = center + exp(1j * (fa + tm * sweep)) * radius\n"),
}


def _names(fmt, count):
    """``count`` numbered names as an assignment target or a list body."""
    names = [fmt.format(i) for i in range(count)]
    return ", ".join(names) + ("," if count == 1 else "")


def _pole_power(base, m, out):
    """Statements that leave ``base ** m`` in ``out``, bit for bit.  For
    1 <= m <= 100 they are the products CPython's ``c_powu`` forms: 1 + 0j
    times, from the lowest set bit of m up, the repeated squares of
    ``base`` that m's bits select; above 100 the statement is ``** m``."""
    if not 1 <= m <= _POWU_LIMIT:
        return [f"{out} = {base} ** {m:d}"]
    lines, factors, square = [], [], base
    for k in range(m.bit_length()):
        if k:
            lines.append(f"{out}_{k} = {square} * {square}")
            square = f"{out}_{k}"
        if m >> k & 1:
            factors.append(square)
    lines.append(f"{out} = (1 + 0j) * " + " * ".join(factors))
    return lines


def _branch_step(npoints, t, z):
    """Statements that carry the logs ``L{i}`` from the previous node
    (``tprev``, ``zprev``, with ``a{i} = zprev - p{i}``) to ``t`` at the
    position ``z``, leaving ``b{i} = z - p{i}``.  Each increment is the
    principal log of ``b{i} / a{i}``; a zero ``b{i}`` makes that log raise
    ``ValueError``.  A step that hits a puncture, or whose increment
    reaches ``step``, goes to ``advance_logs`` through this module's
    attribute, which bisects it or raises."""
    if not npoints:
        return []
    pts = range(npoints)
    logs = _names("L{}", npoints)
    return ([f"b{i} = {z} - p{i}" for i in pts]
            + ["try:"]
            + [f"    d{i} = log(b{i} / a{i})" for i in pts]
            + ["except ValueError:",
               "    d0 = step",
               "if " + " or ".join(f"abs(d{i}) >= step" for i in pts) + ":",
               f"    {logs} = advance_logs(points, [{logs}], seg, tprev, {t},",
               f"                          za=zprev, zb={z})",
               "else:"]
            + [f"    L{i} += d{i}" for i in pts])


def _indent(depth, lines):
    return [" " * depth + line for line in lines]


def _routine_source(kind, npoints, ncoeffs, sites):
    """The source of the adaptive routine of one shape; see the module
    docstring.  It is built from ints and fixed text only."""
    setup, node, midpoint = _GEOMETRY[kind]
    pts = range(npoints)
    logs = _names("L{}", npoints)
    out = ["def adaptive(seg, ta, tb, logs, tol, panels, points, integrand):",
           "    s, weights, coeffs, poles = integrand"]
    if npoints:
        out += [f"    {_names('p{}', npoints)} = points",
                f"    {_names('k{}', npoints)} = weights"]
    if ncoeffs:
        out.append(f"    {_names('c{}', ncoeffs)} = coeffs")
    if sites:
        out.append(f"    {_names('(q{}, _)', len(sites))} = poles")
    out += [f"    {name} = {expr}" for name, expr in setup]
    # the constants become the panel function's defaults, so that its
    # node loop reads them as locals
    consts = (["s"] + [f"{x}{i}" for x in "pk" for i in pts]
              + [f"c{j}" for j in range(ncoeffs)]
              + [f"q{j}" for j in range(len(sites))]
              + [name for name, _expr in setup])
    defaults = [f"{name}={name}" for name in consts] + [
        "exp=cmath.exp", "log=cmath.log", "step=_BRANCH_STEP",
        "nodes=_NODES"]
    out += ["    count = panels",
            "",
            "    def panel(ta, tb, za, zb, logs, tol, depth, parent_err,",
            f"              {', '.join(defaults)}):",
            "        nonlocal count",
            "        count += 1",
            "        if count > _MAX_PANELS:",
            "            raise ContourError(_BUDGET_MESSAGE)"]
    if npoints:
        out.append(f"        {logs} = logs")
        out += [f"        a{i} = za - p{i}" for i in pts]
    out += ["        mid = 0.5 * (ta + tb)",
            "        half = 0.5 * (tb - ta)",
            "        acc_k = 0j",
            "        acc_g = 0j",
            "        acc_abs = 0.0",
            "        tprev, zprev = ta, za",
            "        for x, wk, wg in nodes:",
            "            t = mid + half * x"]
    out += _indent(12, node.splitlines())
    out += _indent(12, _branch_step(npoints, "t", "z"))
    terms = [f"k{i} * L{i}" for i in pts]
    out.append("            w = " + " + ".join(terms[:1] + ["0j"] + terms[1:]))
    out.append("            num = 0j")
    out += [f"            num = num * z + c{j}" for j in range(ncoeffs)]
    for j, (i, m) in enumerate(sites):
        if i is None:
            out.append(f"            u{j} = z - q{j}")
        out += _indent(12, _pole_power(f"u{j}" if i is None else f"b{i}",
                                       m, f"pw{j}"))
    out.append("            den = (1 + 0j)"
               + "".join(f" * pw{j}" for j in range(len(sites))))
    out += ["            val = exp(s * w) * (num / den) * dz",
            "            acc_k += val * wk",
            "            acc_abs += wk * abs(val)",
            "            if wg is not None:",
            "                acc_g += val * wg"]
    if npoints:
        out.append(f"            {_names('a{}', npoints)} = "
                   f"{_names('b{}', npoints)}")
    out += ["            tprev, zprev = t, z",
            "        ik = acc_k * half",
            "        err = abs(ik - acc_g * half)",
            "        resabs = abs(half) * acc_abs",
            "        if (err <= max(tol, _ROUNDOFF * resabs)",
            "                or depth >= _MAX_DEPTH",
            "                or _STALLED * parent_err <= err"
            " <= _NOISE * resabs):"]
    out += _indent(12, _branch_step(npoints, "tb", "zb"))
    out += [f"            return ik, err, ({logs})",
            # err is finite only when both sums are: a NaN or infinite err
            # would bisect to the depth cap, and the budget would misname
            # the cause
            "        if not math.isfinite(err):",
            "            raise ContourError(_OVERFLOW_MESSAGE)",
            "        tm = 0.5 * (ta + tb)"]
    out += _indent(8, midpoint.splitlines())
    out += ["        i1, e1, logs = panel(ta, tm, za, zm, logs, 0.5 * tol,",
            "                             depth + 1, err)",
            "        i2, e2, logs = panel(tm, tb, zm, zb, logs, 0.5 * tol,",
            "                             depth + 1, err)",
            "        return i1 + i2, e1 + e2, logs",
            "",
            "    value, err, logs = panel(ta, tb, seg.point(ta),",
            "                             seg.point(tb), logs, tol, 0,",
            "                             math.inf)",
            "    return value, err, logs, count",
            ""]
    return "\n".join(out)


@functools.lru_cache(maxsize=256)
def _routine(kind, npoints, ncoeffs, sites):
    """The adaptive routine for a segment of this kind and an integrand of
    this shape (see ``_shape``), compiled on first use.  It is a function
    of ``(seg, ta, tb, logs, tol, panels, points, integrand)``, where
    ``logs`` are the logs at ta, ``tol`` is the absolute tolerance of
    [ta, tb], ``panels`` the panels spent so far and ``integrand`` is
    ``(s, weights, coeffs, poles)``: the power, the level weights, and g in
    ``RationalFunction.complex_form``.  It returns (value, err, logs at
    tb, panels spent).  Its globals are this module's, so it calls
    ``advance_logs`` through the module attribute and reads the stopping
    constants and ``_MAX_PANELS`` at each panel."""
    namespace = {}
    exec(compile(_routine_source(kind, npoints, ncoeffs, sites),
                 f"<adaptive routine {kind} {npoints} {ncoeffs} {sites}>",
                 "exec"), globals(), namespace)
    return namespace["adaptive"]


def _bits(x):
    """A float or complex by its hex digits, signed zeros included."""
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return x.hex()


def _shape(points, integrand):
    """``(npoints, ncoeffs, sites)``: the number of marked points, the
    length of g's numerator and, per pole of g, the index of the marked
    point it sits at (the same bits, signed zeros included) or None,
    paired with the pole's order."""
    _s, _weights, coeffs, poles = integrand
    bits = [_bits(p) for p in points]
    sites = []
    for q, m in poles:
        key = _bits(q)
        sites.append((bits.index(key) if key in bits else None, m))
    return len(points), len(coeffs), tuple(sites)


def _piece_keys(seg):
    """The exact bits of a segment as a key, and the key of its
    ``reversed()``: a line's start and end, an arc's center and radius,
    then its from and to angle."""
    if seg.kind == "line":
        fixed, a, b = (), seg.start, seg.end
    else:
        fixed, a, b = (seg.center, seg.radius), seg.from_angle, seg.to_angle
    fixed = tuple(map(_bits, fixed))
    a, b = _bits(a), _bits(b)
    return (seg.kind, fixed, a, b), (seg.kind, fixed, b, a)


def _turns(logs, base):
    """The integers n with ``logs[i] = base[i] + 2 pi i n[i]`` within
    ``_TURN_TOL``, or None."""
    out = []
    for L, L0 in zip(logs, base):
        d = L - L0
        n = round(d.imag / _TWO_PI)
        if abs(d - complex(0.0, _TWO_PI * n)) > _TURN_TOL:
            return None
        out.append(n)
    return out


def _repeat(pieces, key, back, logs, s, weights):
    """(value, err, logs at its end) of a segment with the piece keys
    ``key`` and ``back`` that starts at ``logs`` and repeats a kept piece,
    by the rule of the module docstring, or None.  ``pieces`` maps a key
    to the (value, err, start logs, end logs) of the first segment
    integrated with it."""
    for found, sign in ((key, 1), (back, -1)):
        piece = pieces.get(found)
        if piece is None:
            continue
        value, err, start, end = piece
        if sign < 0:
            start, end = end, start
        turns = _turns(logs, start)
        if turns is None:
            continue
        shift = [complex(0.0, _TWO_PI * n) for n in turns]
        factor = cmath.exp(s * sum(k * d for k, d in zip(weights, shift)))
        value = factor * value
        return (value if sign > 0 else -value, abs(factor) * err,
                [L + d for L, d in zip(end, shift)])
    return None


def _marked_data(d):
    """Puncture positions and level weights from point data."""
    points = [z.as_complex() for z, _lam in d.points]
    hv = Scalar.exact(d.model.dual_coxeter)
    weights = [(lam.rho * hv).as_complex() for _z, lam in d.points]
    return points, weights


def integrate_twisted_form(d, r, g: RationalFunction, contour: Contour,
                           abs_tol: float = 1e-10) -> IntegralResult:
    """Integrate P^{-r/h} * g along the contour, threading the branch.

    ``d`` provides the punctures and levels of P; ``g`` is any rational
    function with no poles within clearance of the path.  ``abs_tol`` must
    be finite and >= 0: a NaN would bisect every panel to the depth cap.
    """
    if not (math.isfinite(abs_tol) and abs_tol >= 0):
        raise ValueError(f"abs_tol must be a finite number >= 0, "
                         f"got {abs_tol!r}")
    points, weights = _marked_data(d)
    s = Scalar.parse(r).as_complex() * (-1.0 / d.model.dual_coxeter)

    all_pts = list(points)
    all_pts += [p.as_complex() for p, _m in g.poles]
    if all_pts:
        eps = default_clearance(points if points else all_pts)
        bad = clearance_violations(contour, all_pts, eps)
        if bad:
            p, dist = bad[0]
            raise ContourError(
                f"integrand singularity at {p:g} lies {dist:.3g} from the "
                f"contour (clearance {eps:.3g})")

    integrand = (s, weights, *g.complex_form())
    logs = start_logs(points, contour.segments[0].point(0.0))
    start_vec = list(logs)
    total = 0j
    err = 0.0
    panels = 0
    tol = abs_tol / max(1, len(contour.segments))
    shape = _shape(points, integrand)
    pieces = {}
    for seg in contour.segments:
        key, back = _piece_keys(seg)
        repeat = _repeat(pieces, key, back, logs, s, weights)
        if repeat is None:
            first = logs
            val, e, logs, panels = _routine(seg.kind, *shape)(
                seg, 0.0, 1.0, logs, tol, panels, points, integrand)
            pieces.setdefault(key, (val, e, first, logs))
        else:
            val, e, logs = repeat
        total += val
        err += e
    disc = s * sum(k * (L1 - L0)
                   for k, L0, L1 in zip(weights, start_vec, logs))
    multiplier = cmath.exp(disc)
    valid = contour.is_closed and abs(multiplier - 1.0) < 1e-9
    return IntegralResult(total, err, multiplier, len(contour.segments),
                          panels, valid)


def twisted_integral(d, q: QuasiCanonicalForm, r: int, contour: Contour,
                     abs_tol: float = 1e-10) -> IntegralResult:
    """The gauge-invariant contour integral of P^{-r/h} v_r."""
    if r not in q.v:
        raise ValueError(f"no coefficient at exponent {r} in the canonical "
                         f"form (have {sorted(q.v)})")
    return integrate_twisted_form(d, r, q.v[r], contour, abs_tol)


def stokes_check(d, j: int, f: RationalFunction, contour: Contour,
                 abs_tol: float = 1e-10) -> IntegralResult:
    """Integrate the exact twisted form P^{-j/h} (f' - (j phi/h) f) dz.

    Vanishes along a closed contour on which P^{-j/h} has a single-valued
    branch; along an open path it equals the endpoint difference of
    P^{-j/h} f evaluated on the tracked branch.
    """
    phi = d.twist()
    g = twisted_derivative(phi, j, d.model.dual_coxeter, f)
    return integrate_twisted_form(d, j, g, contour, abs_tol)