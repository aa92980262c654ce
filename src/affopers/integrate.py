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

Each segment is integrated by one routine generated for the integrand's
shape: the number of marked points, the length of g's numerator and the
order of each pole of g (``_shape``).  ``_routine`` writes the routine's
source from ints and fixed text only, compiles it once per shape and keeps
it in a bounded cache; ``integrate_twisted_form`` finds the shape once per
integral and calls the routine once per segment.  The routine does not
depend on the segment kind: lines and arcs share it, since it reads each
node's position and path derivative from the panel's geometry table.  It
reads the integrand constants once and binds them as the defaults of a
recursive panel function, so that its node loop reads them as locals;
that function refers to itself through its closure cell, so the routine
empties the cell when it returns or raises, and each call leaves no
reference cycle for the collector.
One call of that function does all of one panel: it counts the panel
against ``_MAX_PANELS``, runs the 15 nodes, applies the acceptance test
below, and then either bisects or, for an accepted panel only, takes the
last branch step from the 15th node to the panel's end.

What a panel computes that depends neither on g nor on the incoming logs
is its geometry table, built once per segment piece, marked points and
panel and kept in a process-wide store (``_TABLES``).  Its key is the
segment's exact bits (``_piece_keys``), the points' bits and the bits of
the routine's ta and tb, then the panel's (ta, tb), and the table is a
pure function of its key.  The exponents of one data, and any levels and
weights at the same points, are integrated over the same cycles, so they
share their tables; a table read once costs more than the loop that would
compute its nodes and sum them at once, so the store saves time only where
marked points repeat.  The table builder, generated and cached per segment
kind and number of points (``_builder``), is the only code that knows a
segment's geometry.  Per node the table holds the position ``z``, the path
derivative ``dz`` and the branch step from the previous node: the
principal logs of ``(z - p) / (zprev - p)``, or, for a step that lands on
a puncture (a zero ``z - p`` makes ``cmath.log`` raise ``ValueError``) or
whose increment reaches ``_BRANCH_STEP``, the mark that ``advance_logs``
must take it.  The panel's ends are ``seg.point(ta)`` and
``seg.point(tb)``.  The routine calls ``advance_logs`` for a marked step
at each run, through this module's attribute, and it bisects the step or
raises; since it always raises at a step onto a puncture, the builder
stops there, before the last step; otherwise the table ends with the
last step, from the 15th node to the panel's end, which the routine
takes for an accepted panel only.  When the store holds
``_MAX_TABLES`` panels, the next table empties it first (``_keep``); that
costs time, never bits.

The routine's node loop adds each step's increments to the logs ``L{i}``
in path order, forms the weighted log sum and g by Horner over the
coefficients and poles that ``RationalFunction.complex_form`` converts
once per function, and accumulates ``exp(s * w) * g * dz``.  Each pole q
takes ``z - q`` as its factor.  A pole of order m <= 100 is raised to its
power by the products that CPython's ``c_powu`` forms for ``** m``:
``(1+0j)*b``, ``(1+0j)*(b*b)``, ``((1+0j)*b)*(b*b)`` and so on
(``_pole_power``).  Above 100, CPython's ``**`` goes through exp and log,
and the routine keeps ``** m``.  Every float operation is the one
``Line.point``, ``Arc.point`` and ``derivative``, ``advance_logs`` and
``eval_complex`` would do, in the same order, so the values are theirs bit
for bit.  Only the operands of a float-by-complex product, and of the
``0 +`` that starts the weighted log sum, are swapped to put the complex
first: CPython then runs the complex operation at once instead of first
trying the float's or the int's, and an IEEE product or sum does not
depend on the order of its two operands.  The one difference is a pole
power beyond the float range: there ``**`` raises ``OverflowError``, while
the products give infinite or NaN parts, as the numerator's Horner sum
already does.

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
# _BRANCH_STEP and advance_logs are read by the generated code
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

# The geometry of a segment kind: the segment constants, read as (name,
# expression) pairs, and the statements that leave the position at a node t
# in ``z`` and the path derivative there in ``dz``.  They are the operations
# of ``Line.point``, ``Arc.point`` and ``derivative``.
_GEOMETRY = {
    "line": ((("start", "seg.start"),
              ("dz", "seg.end - start")),
             "z = start + dz * t\n"),
    "arc": ((("fa", "seg.from_angle"),
             ("sweep", "seg.to_angle - fa"),
             ("center", "seg.center"),
             ("radius", "seg.radius"),
             ("rs1j", "(radius * sweep) * 1j")),
            "e = exp(1j * (fa + t * sweep))\n"
            "z = center + e * radius\n"
            "dz = rs1j * e\n"),
}

# (Kronrod weight, Gauss weight or None) per node, in path order
_RULE = tuple((wk, wg) for _x, wk, wg in _NODES)

# The panel tables: per (segment piece, the bits of the marked points and
# of the routine's ta and tb), a dict from a panel's (ta, tb) to its table.
# A round of the periods benchmark, checks included, keeps 520 panels;
# 1024 panels of three points hold about 2.9 MB.
_TABLES = {}
_MAX_TABLES = 1024


def _keep(key, ta, tb, table):
    """Store the table of the panel [ta, tb] of the routine call ``key``
    and return it; a store that holds ``_MAX_TABLES`` panels is emptied
    first.  A routine call under way keeps the dict it looked up, and the
    tables it builds after that go to the emptied store: it visits each of
    its panels once."""
    if sum(map(len, _TABLES.values())) >= _MAX_TABLES:
        _TABLES.clear()
    _TABLES.setdefault(key, {})[ta, tb] = table
    return table


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


def _step(npoints, t, z):
    """Statements that find the branch step from the previous node
    (``tprev``, ``zprev``, with ``a{i} = zprev - p{i}``) to ``t`` at the
    position ``z``, leaving ``b{i} = z - p{i}`` and the step's table entry
    in ``entry``: ``slow`` and the principal logs ``d{i}`` of
    ``b{i} / a{i}``.  ``slow`` is None, or ``(tprev, t, zprev, z)`` for a
    step that ``advance_logs`` must take: one that hits a puncture (a zero
    ``b{i}`` makes the log raise ``ValueError``) or whose increment
    reaches ``step``."""
    pts = range(npoints)
    return ([f"b{i} = {z} - p{i}" for i in pts]
            + ["try:"]
            + [f"    d{i} = log(b{i} / a{i})" for i in pts]
            + ["    slow = " + " or ".join(f"abs(d{i}) >= step" for i in pts),
               "except ValueError:",
               "    slow = True",
               "if slow:",
               f"    slow = tprev, {t}, zprev, {z}",
               "    entry = slow" + ", None" * npoints,
               "else:",
               f"    entry = None, {_names('d{}', npoints)}"])


def _take_step(npoints):
    """Statements that carry the logs ``L{i}`` over a branch step whose
    entry is unpacked into ``slow`` and ``d{i}`` (see ``_step``): they add
    the increments, or hand the step to ``advance_logs`` through this
    module's attribute, which bisects it or raises."""
    logs = _names("L{}", npoints)
    return (["if slow is None:"]
            + [f"    L{i} += d{i}" for i in range(npoints)]
            + ["else:",
               "    tp, tn, zp, zn = slow",
               f"    {logs} = advance_logs(points, [{logs}], seg, tp, tn,",
               "                          za=zp, zb=zn)"])


def _indent(depth, lines):
    return [" " * depth + line for line in lines]


def _builder_source(kind, npoints):
    """The source of the table builder of one segment kind and number of
    points; see the module docstring.  It is built from ints and fixed
    text only."""
    consts, node = _GEOMETRY[kind]
    pts = range(npoints)
    out = ["def build(seg, points, ta, tb, exp=cmath.exp, log=cmath.log,",
           "          step=_BRANCH_STEP, xs=_KX):"]
    out += [f"    {name} = {expr}" for name, expr in consts]
    if npoints:
        out += [f"    {_names('p{}', npoints)} = points",
                "    tprev, zprev = ta, seg.point(ta)"]
        out += [f"    a{i} = zprev - p{i}" for i in pts]
    out += ["    mid = 0.5 * (ta + tb)",
            "    half = 0.5 * (tb - ta)",
            "    nodes = []",
            "    for x in xs:",
            "        t = mid + half * x"]
    out += _indent(8, node.splitlines())
    out.append("        nodes += z, dz")
    if npoints:
        out += _indent(8, _step(npoints, "t", "z"))
        out += ["        nodes += entry",
                # advance_logs raises at a step onto a puncture, so no
                # later node, nor the last step, is read; the next log
                # would divide by zero
                "        if slow and ("
                + " or ".join(f"b{i} == 0" for i in pts) + "):",
                "            break",
                f"        {_names('a{}', npoints)} = {_names('b{}', npoints)}",
                "        tprev, zprev = t, z",
                "    else:",
                "        zb = seg.point(tb)"]
        out += _indent(8, _step(npoints, "tb", "zb"))
        out.append("        nodes += entry")
    out += ["    return tuple(nodes)",
            ""]
    return "\n".join(out)


@functools.lru_cache(maxsize=32)
def _builder(kind, npoints):
    """The table builder of a segment of this kind and this number of
    marked points, compiled on first use.  ``build(seg, points, ta, tb)``
    returns the table of the panel [ta, tb]: a flat tuple of each node's
    ``z``, ``dz``, ``slow`` and ``d{i}`` (see ``_step``), then the
    ``slow`` and ``d{i}`` of the last step, from the 15th node to
    ``seg.point(tb)``.  With no points it holds ``z`` and ``dz`` only.
    It is the only code that knows the segment's geometry."""
    namespace = {}
    exec(compile(_builder_source(kind, npoints),
                 f"<panel tables {kind} {npoints}>", "exec"),
         globals(), namespace)
    return namespace["build"]


def _routine_source(npoints, ncoeffs, orders):
    """The source of the adaptive routine of one shape; see the module
    docstring.  It is built from ints and fixed text only."""
    pts = range(npoints)
    logs = _names("L{}", npoints)
    out = ["def adaptive(seg, ta, tb, logs, tol, panels, points, integrand):",
           "    s, weights, coeffs, poles = integrand"]
    if npoints:
        out.append(f"    {_names('k{}', npoints)} = weights")
    if ncoeffs:
        out.append(f"    {_names('c{}', ncoeffs)} = coeffs")
    if orders:
        out.append(f"    {_names('(q{}, _)', len(orders))} = poles")
    out += [f"    build = _builder(seg.kind, {npoints:d})",
            "    key = (_piece_keys(seg)[0], tuple(map(_bits, points)),",
            "           _bits(ta), _bits(tb))",
            "    tables = _TABLES.get(key, {})"]
    # the constants become the panel function's defaults, so that its
    # node loop reads them as locals
    names = (["s"] + [f"k{i}" for i in pts]
             + [f"c{j}" for j in range(ncoeffs)]
             + [f"q{j}" for j in range(len(orders))])
    defaults = [f"{name}={name}" for name in names] + [
        "exp=cmath.exp", "rule=_RULE"]
    # a table's node entries lie flat, so that one iterator zipped to
    # itself deals them out
    entry = ["z", "dz"] + (["slow"] if npoints else []) + [
        f"d{i}" for i in pts]
    out += ["    count = panels",
            "",
            "    def panel(ta, tb, logs, tol, depth, parent_err,",
            f"              {', '.join(defaults)}):",
            "        nonlocal count",
            "        count += 1",
            "        if count > _MAX_PANELS:",
            "            raise ContourError(_BUDGET_MESSAGE)",
            "        table = tables.get((ta, tb))",
            "        if table is None:",
            "            table = _keep(key, ta, tb,",
            "                          build(seg, points, ta, tb))"]
    if npoints:
        out.append(f"        {logs} = logs")
    out += ["        half = 0.5 * (tb - ta)",
            "        acc_k = 0j",
            "        acc_g = 0j",
            "        acc_abs = 0.0",
            "        it = iter(table)",
            f"        for (wk, wg), {', '.join(entry)} in zip(rule"
            + ", it" * len(entry) + "):"]
    if npoints:
        out += _indent(12, _take_step(npoints))
    terms = [f"k{i} * L{i}" for i in pts]
    out.append("            w = " + " + ".join(terms[:1] + ["0j"] + terms[1:]))
    out.append("            num = 0j")
    out += [f"            num = num * z + c{j}" for j in range(ncoeffs)]
    for j, m in enumerate(orders):
        out.append(f"            u{j} = z - q{j}")
        out += _indent(12, _pole_power(f"u{j}", m, f"pw{j}"))
    out.append("            den = (1 + 0j)"
               + "".join(f" * pw{j}" for j in range(len(orders))))
    out += ["            val = exp(s * w) * (num / den) * dz",
            "            acc_k += val * wk",
            "            acc_abs += wk * abs(val)",
            "            if wg is not None:",
            "                acc_g += val * wg",
            "        ik = acc_k * half",
            "        err = abs(ik - acc_g * half)",
            "        resabs = abs(half) * acc_abs",
            "        if (err <= max(tol, _ROUNDOFF * resabs)",
            "                or depth >= _MAX_DEPTH",
            "                or _STALLED * parent_err <= err"
            " <= _NOISE * resabs):"]
    if npoints:
        # the zip above stops at the 16th entry of rule, before it
        # reads on, so what is left in the table is the last step
        out.append(f"            slow, {_names('d{}', npoints)} = it")
        out += _indent(12, _take_step(npoints))
    out += [f"            return ik, err, ({logs})",
            # err is finite only when both sums are: a NaN or infinite err
            # would bisect to the depth cap, and the budget would misname
            # the cause
            "        if not math.isfinite(err):",
            "            raise ContourError(_OVERFLOW_MESSAGE)",
            "        tm = 0.5 * (ta + tb)",
            "        i1, e1, logs = panel(ta, tm, logs, 0.5 * tol, depth + 1,",
            "                             err)",
            "        i2, e2, logs = panel(tm, tb, logs, 0.5 * tol, depth + 1,",
            "                             err)",
            "        return i1 + i2, e1 + e2, logs",
            "",
            # panel refers to itself through its cell; emptying the cell
            # frees it at once, not at the next cycle collection
            "    try:",
            "        value, err, logs = panel(ta, tb, logs, tol, 0, math.inf)",
            "    finally:",
            "        del panel",
            "    return value, err, logs, count",
            ""]
    return "\n".join(out)


@functools.lru_cache(maxsize=256)
def _routine(npoints, ncoeffs, orders):
    """The adaptive routine for an integrand of this shape (see
    ``_shape``), compiled on first use; it serves lines and arcs alike,
    since it reads positions and path derivatives from the panel tables
    of ``_builder(seg.kind, npoints)``.  It is a function of
    ``(seg, ta, tb, logs, tol, panels, points, integrand)``, where
    ``logs`` are the logs at ta, ``tol`` is the absolute tolerance of
    [ta, tb], ``panels`` the panels spent so far and ``integrand`` is
    ``(s, weights, coeffs, poles)``: the power, the level weights, and g in
    ``RationalFunction.complex_form``.  It returns (value, err, logs at
    tb, panels spent).  Its globals are this module's, so it calls
    ``advance_logs`` through the module attribute and reads the stopping
    constants, ``_MAX_PANELS`` and the table store at each call."""
    namespace = {}
    exec(compile(_routine_source(npoints, ncoeffs, orders),
                 f"<adaptive routine {npoints} {ncoeffs} {orders}>", "exec"),
         globals(), namespace)
    return namespace["adaptive"]


def _bits(x):
    """A float or complex by its hex digits, signed zeros included."""
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return x.hex()


def _shape(points, integrand):
    """``(npoints, ncoeffs, orders)``: the number of marked points, the
    length of g's numerator and the order of each pole of g."""
    _s, _weights, coeffs, poles = integrand
    return len(points), len(coeffs), tuple(m for _q, m in poles)


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
            val, e, logs, panels = _routine(*shape)(
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