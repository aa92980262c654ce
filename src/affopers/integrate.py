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

One loop in ``_panel`` does all the work of a node: the position and path
derivative from one evaluation of the segment (one exponential on an arc),
the branch step from the previous node as ``advance_logs`` takes it when no
increment needs bisecting (a step that must bisect goes to ``advance_logs``),
the weighted log sum, and g by Horner over the complex coefficients and
poles that ``RationalFunction.complex_form`` converts once per function.
Every float operation is the one those functions would do, in the same
order, so the values are theirs.

A panel is accepted when its Kronrod-Gauss difference ``err`` is within
its share of ``abs_tol`` (halved at each bisection) or within ``_ROUNDOFF``
of its |f| mass, or when it lies at ``_MAX_DEPTH``.  It is also accepted
when bisection stopped helping and the error is rounding noise: its ``err``
is at least ``_STALLED`` of its parent's and at most ``_NOISE`` of its |f|
mass.  Bisecting such a panel halves the tolerance without reducing the
noise, so it would otherwise go down to the depth cap; the integral then
reports an ``err`` above ``abs_tol``, the accuracy it actually reached.
"""

from __future__ import annotations

import cmath
import math

from .coeffs import RationalFunction, Scalar
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
    estimates.  An ``err`` above the requested ``abs_tol`` means the
    integrand's rounding noise lies above that tolerance: the panels there
    stopped at the noise, and ``err`` is the accuracy reached."""

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


class _Budget:
    __slots__ = ("panels",)

    def __init__(self):
        self.panels = 0

    def spend(self):
        self.panels += 1
        if self.panels > _MAX_PANELS:
            raise ContourError(
                "quadrature did not converge within the panel budget; "
                "the integrand is probably too close to a singularity")


def _panel(seg, ta, tb, za, zb, logs, points, integrand, budget):
    """One Gauss-Kronrod panel with the branch threaded through the nodes;
    ``za`` and ``zb`` are the positions at ta and tb, and ``integrand`` is
    ``(s, weights, coeffs, poles)``: the power, the level weights, and g in
    ``RationalFunction.complex_form``.
    Returns (kronrod, gauss, resabs, logs at tb)."""
    budget.spend()
    s, weights, coeffs, poles = integrand
    point_and_derivative = seg.point_and_derivative
    mid = 0.5 * (ta + tb)
    half = 0.5 * (tb - ta)
    acc_k = 0j
    acc_g = 0j
    acc_abs = 0.0
    tprev, zprev = ta, za
    for x, wk, wg in _NODES:
        t = mid + half * x
        z, dz = point_and_derivative(t)
        # the branch step from tprev as advance_logs takes it when no
        # increment needs bisecting, with the weighted log sum added left
        # to right as sum() adds it; a step that must bisect, or that
        # lands on a puncture, goes to advance_logs itself
        stepped = []
        w = 0
        for p, k, L in zip(points, weights, logs):
            b = z - p
            if b == 0:
                break
            d = cmath.log(b / (zprev - p))
            if abs(d) >= _BRANCH_STEP:
                break
            L += d
            stepped.append(L)
            w += k * L
        else:
            logs = stepped
        if logs is not stepped:
            logs = advance_logs(points, logs, seg, tprev, t, za=zprev, zb=z)
            w = 0
            for k, L in zip(weights, logs):
                w += k * L
        num = 0j
        for c in coeffs:
            num = num * z + c
        den = 1 + 0j
        for p, m in poles:
            den *= (z - p) ** m
        val = cmath.exp(s * w) * (num / den) * dz
        acc_k += wk * val
        acc_abs += wk * abs(val)
        if wg is not None:
            acc_g += wg * val
        tprev, zprev = t, z
    logs = advance_logs(points, logs, seg, tprev, tb, za=zprev, zb=zb)
    return half * acc_k, half * acc_g, abs(half) * acc_abs, logs


# requesting absolute accuracy below the rounding noise of the node sums
# would bisect forever; 50 ulps of the |f| mass is the floor a panel can hit
_ROUNDOFF = 50 * 2.220446049250313e-16
# a panel whose bisection did not help (its error is at least _STALLED of
# its parent's) and whose error lies at the integrand's rounding noise
# (at most _NOISE of its |f| mass) is accepted as it stands: noise and the
# halved tolerance would otherwise shrink together down to _MAX_DEPTH
_STALLED = 0.25
_NOISE = 1e-11


def _adaptive(seg, ta, tb, za, zb, logs, tol, depth, points, integrand,
              budget, parent_err):
    ik, ig, resabs, logs_b = _panel(seg, ta, tb, za, zb, logs, points,
                                    integrand, budget)
    err = abs(ik - ig)
    if (err <= max(tol, _ROUNDOFF * resabs) or depth >= _MAX_DEPTH
            or _STALLED * parent_err <= err <= _NOISE * resabs):
        return ik, err, logs_b
    tm = 0.5 * (ta + tb)
    zm = seg.point(tm)
    i1, e1, logs_m = _adaptive(seg, ta, tm, za, zm, logs, 0.5 * tol,
                               depth + 1, points, integrand, budget, err)
    i2, e2, logs_b = _adaptive(seg, tm, tb, zm, zb, logs_m, 0.5 * tol,
                               depth + 1, points, integrand, budget, err)
    return i1 + i2, e1 + e2, logs_b


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
    budget = _Budget()
    logs = start_logs(points, contour.segments[0].point(0.0))
    start_vec = list(logs)
    total = 0j
    err = 0.0
    tol = abs_tol / max(1, len(contour.segments))
    for seg in contour.segments:
        val, e, logs = _adaptive(seg, 0.0, 1.0, seg.point(0.0),
                                 seg.point(1.0), logs, tol, 0, points,
                                 integrand, budget, math.inf)
        total += val
        err += e
    disc = s * sum(k * (L1 - L0)
                   for k, L0, L1 in zip(weights, start_vec, logs))
    multiplier = cmath.exp(disc)
    valid = contour.is_closed and abs(multiplier - 1.0) < 1e-9
    return IntegralResult(total, err, multiplier, len(contour.segments),
                          budget.panels, valid)


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