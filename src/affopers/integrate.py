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

Each node's position and path derivative come from one evaluation of the
segment (one exponential on an arc), and that position is also the start of
the next branch step; the integrand's exact coefficients are converted to
complex once per function (see ``RationalFunction``).  Every float operation
is the one the separate evaluations would do, in the same order.
"""

from __future__ import annotations

import cmath
import math

from .coeffs import RationalFunction, Scalar
from .contour import (Contour, ContourError, _marked_data, advance_logs,
                      clearance_violations, default_clearance, start_logs)
from .oper_core import QuasiCanonicalForm, twisted_derivative

__all__ = [
    "IntegralResult",
    "twisted_integral",
    "gauge_invariance_probe",
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

_MAX_DEPTH = 14
_MAX_PANELS = 20000


class IntegralResult:
    """Value and error estimate of one contour integral, together with the
    branch closure multiplier of P^s along the contour.  ``valid`` is False
    when the contour is open or the branch does not return to itself, in
    which case the value is path data, not an invariant."""

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


def _panel(seg, ta, tb, za, zb, logs, points, f, budget):
    """One Gauss-Kronrod panel with the branch threaded through the nodes;
    ``za`` and ``zb`` are the positions at ta and tb.
    Returns (kronrod, gauss, resabs, logs at tb)."""
    budget.spend()
    mid = 0.5 * (ta + tb)
    half = 0.5 * (tb - ta)
    acc_k = 0j
    acc_g = 0j
    acc_abs = 0.0
    tprev, zprev = ta, za
    for i, (x, wk) in enumerate(zip(_KX, _KW)):
        t = mid + half * x
        z, dz = seg.point_and_derivative(t)
        logs = advance_logs(points, logs, seg, tprev, t, za=zprev, zb=z)
        val = f(z, dz, logs)
        acc_k += wk * val
        acc_abs += wk * abs(val)
        wg = _GW.get(i)
        if wg is not None:
            acc_g += wg * val
        tprev, zprev = t, z
    logs = advance_logs(points, logs, seg, tprev, tb, za=zprev, zb=zb)
    return half * acc_k, half * acc_g, abs(half) * acc_abs, logs


# requesting absolute accuracy below the rounding noise of the node sums
# would bisect forever; 50 ulps of the |f| mass is the floor a panel can hit
_ROUNDOFF = 50 * 2.220446049250313e-16


def _adaptive(seg, ta, tb, za, zb, logs, tol, depth, points, f, budget):
    ik, ig, resabs, logs_b = _panel(seg, ta, tb, za, zb, logs, points, f,
                                    budget)
    err = abs(ik - ig)
    if err <= max(tol, _ROUNDOFF * resabs) or depth >= _MAX_DEPTH:
        return ik, err, logs_b
    tm = 0.5 * (ta + tb)
    zm = seg.point(tm)
    i1, e1, logs_m = _adaptive(seg, ta, tm, za, zm, logs, 0.5 * tol,
                               depth + 1, points, f, budget)
    i2, e2, logs_b = _adaptive(seg, tm, tb, zm, zb, logs_m, 0.5 * tol,
                               depth + 1, points, f, budget)
    return i1 + i2, e1 + e2, logs_b


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
    all_pts += [p.as_complex() for p, _m in g.pole_dict().items()]
    if all_pts:
        eps = default_clearance(points if points else all_pts)
        bad = clearance_violations(contour, all_pts, eps)
        if bad:
            p, dist = bad[0]
            raise ContourError(
                f"integrand singularity at {p:g} lies {dist:.3g} from the "
                f"contour (clearance {eps:.3g})")

    def f(z, dz, logs):
        w = s * sum(k * L for k, L in zip(weights, logs))
        return cmath.exp(w) * g.eval_complex(z) * dz

    budget = _Budget()
    logs = start_logs(points, contour.segments[0].point(0.0))
    start_vec = list(logs)
    total = 0j
    err = 0.0
    tol = abs_tol / max(1, len(contour.segments))
    for seg in contour.segments:
        val, e, logs = _adaptive(seg, 0.0, 1.0, seg.point(0.0),
                                 seg.point(1.0), logs, tol, 0, points, f,
                                 budget)
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


def gauge_invariance_probe(d, q, r, contour, f_r: RationalFunction,
                           abs_tol: float = 1e-10):
    """Integrate v_r and its twisted-derivative shift by f_r; the two values
    agree on closed contours with trivial branch monodromy.  Returns
    (before, after, |difference|)."""
    hv = d.model.dual_coxeter
    before = twisted_integral(d, q, r, contour, abs_tol)
    shifted = q.v[r] - twisted_derivative(q.phi, r, hv, f_r)
    after = integrate_twisted_form(d, r, shifted, contour, abs_tol)
    return before, after, abs(before.value - after.value)


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