"""Contour quadrature with branch threading: the classical double-circuit
Beta identity, exact-form vanishing, residue bookkeeping under contour
deformation, and invariance of the integrals under residual gauges."""

import cmath
import math
import random

import mpmath as mp
import pytest

from affopers import contour, integrate
from affopers.affine_algebra import build_algebra
from affopers.coeffs import Polynomial, RationalFunction, Scalar
from affopers.contour import (Arc, ContourError, Line, advance_logs,
                              loop_around, pochhammer, segment_chain,
                              start_logs)
from affopers.integrate import (integrate_twisted_form, stokes_check,
                                twisted_integral)
from affopers.miura import (MiuraData, bethe_residuals, build_miura,
                            single_root_position)
from affopers.oper_core import (QuasiCanonicalForm, quasi_canonicalize,
                                residual_gauge, twisted_derivative)

mp.mp.dps = 30


@pytest.fixture(scope="module")
def a1():
    return build_algebra({"type": "A", "rank": 1, "cutoff": 5})


def _pair(x):
    x = complex(x)
    return [repr(x.real), repr(x.imag)]


def beta_data(model, a, b):
    """Levels chosen so that P^{-1/2} continues z^{a-1}(z-1)^{b-1}."""
    k0 = -2 * (complex(a) - 1)
    k1 = -2 * (complex(b) - 1)
    return MiuraData.from_json({
        "algebra": model.descriptor(),
        "points": [
            {"z": "0",
             "weight": {"lambda_dot": ["0"], "level": _pair(k0), "delta": "0"}},
            {"z": "1",
             "weight": {"lambda_dot": ["0"], "level": _pair(k1), "delta": "0"}},
        ],
        "bethe_roots": [],
    })


def unit_form(model, phi):
    return QuasiCanonicalForm(model, phi, {1: RationalFunction.one()})


def double_circuit_oracle(a, b):
    """(1 - e^{2 pi i a})(1 - e^{2 pi i b}) B(a,b), carried to our branch:
    the tracked (z-1)^{b-1} at the basepoint is e^{i pi (b-1)} (1-z)^{b-1}."""
    beta = mp.gamma(a) * mp.gamma(b) / mp.gamma(a + b)
    pref = (1 - mp.exp(2j * mp.pi * a)) * (1 - mp.exp(2j * mp.pi * b))
    return complex(pref * beta) * cmath.exp(1j * cmath.pi * (complex(b) - 1))


# ------------------------------------------------------------ Beta identity


def test_beta_rational_exponents(a1):
    a, b = 1 / 3, 1 / 2
    d = beta_data(a1, a, b)
    gamma = pochhammer((1, 0), radius="1/4")
    res = twisted_integral(d, unit_form(a1, d.twist()), 1, gamma)
    assert res.valid
    assert abs(res.multiplier - 1) < 1e-12
    assert abs(res.value - double_circuit_oracle(a, b)) < 1e-10


def test_beta_complex_exponent(a1):
    a, b = 0.3 + 0.1j, 0.45
    d = beta_data(a1, a, b)
    gamma = pochhammer((1, 0), radius="1/4")
    res = twisted_integral(d, unit_form(a1, d.twist()), 1, gamma)
    assert res.valid
    assert abs(res.value - double_circuit_oracle(a, b)) < 1e-10


def test_beta_integer_exponents_vanish(a1):
    d = beta_data(a1, 2, 3)
    gamma = pochhammer((1, 0), radius="1/4")
    res = twisted_integral(d, unit_form(a1, d.twist()), 1, gamma)
    assert abs(res.value) < 1e-12


def test_swapped_circuit_negates(a1):
    a, b = 1 / 3, 1 / 2
    d = beta_data(a1, a, b)
    plus = twisted_integral(d, unit_form(a1, d.twist()), 1,
                            pochhammer((1, 0), radius="1/4"))
    minus = twisted_integral(d, unit_form(a1, d.twist()), 1,
                             pochhammer((0, 1), radius="1/4"))
    assert abs(plus.value + minus.value) < 1e-10


def test_zero_coefficient_integrates_to_zero(a1):
    d = beta_data(a1, 1 / 3, 1 / 2)
    q = QuasiCanonicalForm(a1, d.twist(), {1: RationalFunction.zero()})
    res = twisted_integral(d, q, 1, pochhammer((1, 0), radius="1/4"))
    assert res.value == 0


def test_unknown_exponent_rejected(a1):
    d = beta_data(a1, 1 / 3, 1 / 2)
    q = unit_form(a1, d.twist())
    with pytest.raises(ValueError):
        twisted_integral(d, q, 3, pochhammer((1, 0), radius="1/4"))


def test_pole_on_contour_rejected(a1):
    d = beta_data(a1, 1 / 3, 1 / 2)
    bad = RationalFunction.simple_pole(Scalar.exact(1), Scalar.parse("1/2"))
    q = QuasiCanonicalForm(a1, d.twist(), {1: bad})
    with pytest.raises(ContourError):
        twisted_integral(d, q, 1, pochhammer((1, 0), radius="1/4"))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
def test_bad_tolerance_rejected(a1, tol):
    # rejected up front, not after bisecting every panel to the depth cap
    d = beta_data(a1, 1 / 3, 1 / 2)
    with pytest.raises(ValueError, match="abs_tol"):
        twisted_integral(d, unit_form(a1, d.twist()), 1,
                         pochhammer((1, 0), radius="1/4"), abs_tol=tol)


# ------------------------------------------------------------------ Stokes


def rand_poly(rng, deg):
    return Polynomial.of(
        [Scalar.parse(f"{rng.randint(-6, 6)}/{rng.randint(1, 3)}")
         for _ in range(deg + 1)])


def test_stokes_closed_contours(a1):
    rng = random.Random(61)
    gamma = pochhammer((1, 0), radius="1/4")
    for _ in range(5):
        d = beta_data(a1, rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        f = RationalFunction.from_poly(rand_poly(rng, rng.randint(0, 4)))
        if rng.random() < 0.5:
            # rational parts with poles at the punctures are fine too:
            # the primitive is still single-valued along the contour
            f = f + RationalFunction.simple_pole(
                Scalar.parse(f"{rng.randint(1, 4)}/3"), Scalar.exact(0))
        res = stokes_check(d, 1, f, gamma)
        assert res.valid
        assert abs(res.value) < 1e-9


def test_stokes_open_path_is_endpoint_difference(a1):
    d = beta_data(a1, 0.31, 0.77)
    f = (RationalFunction.from_poly(
            Polynomial.of([Scalar.parse("1/3"), Scalar.exact(2)]))
         + RationalFunction.simple_pole(Scalar.parse("2/7"),
                                        Scalar.parse(["1/2", "1/3"])))
    path = segment_chain(-1 - 1j, 3 - 1j)
    res = stokes_check(d, 1, f, path)
    assert not res.valid  # open path: the value is path data
    # P^{-1/2} at both ends, on the branch threaded along the path
    points, weights = integrate._marked_data(d)
    (seg,) = path.segments
    z0, z1 = seg.point(0.0), seg.point(1.0)
    logs0 = start_logs(points, z0)
    logs1 = logs0
    for i in range(16):
        logs1 = advance_logs(points, logs1, seg, i / 16, (i + 1) / 16)
    w0, w1 = (-0.5 * sum(k * L for k, L in zip(weights, logs))
              for logs in (logs0, logs1))
    expected = (cmath.exp(w1) * f.eval_complex(z1)
                - cmath.exp(w0) * f.eval_complex(z0))
    assert abs(res.value - expected) < 1e-9


def test_constant_function_zero_twist(a1):
    d = MiuraData(a1, [], [])
    f = RationalFunction.from_scalar(Scalar.exact(3))
    gamma = loop_around(0, 0.5, 2.0)
    res = stokes_check(d, 1, f, gamma)
    assert res.value == 0


# ------------------------------------------------------- gauge invariance


def test_gauge_probe_polynomial_shift(a1):
    rng = random.Random(71)
    d = beta_data(a1, 0.21, 0.58)
    gamma = pochhammer((1, 0), radius="1/4")
    v3 = RationalFunction.from_poly(rand_poly(rng, 2))
    q = QuasiCanonicalForm(a1, d.twist(),
                           {1: RationalFunction.one(), 3: v3})
    f = RationalFunction.from_poly(rand_poly(rng, 4))
    before = twisted_integral(d, q, 3, gamma)
    after = twisted_integral(d, residual_gauge(q, {3: f}), 3, gamma)
    assert before.valid and after.valid
    assert abs(before.value - after.value) < 1e-8 * (1 + abs(before.value))


def test_gauge_probe_zero_shift_is_identity(a1):
    d = beta_data(a1, 0.21, 0.58)
    gamma = pochhammer((1, 0), radius="1/4")
    q = unit_form(a1, d.twist())
    before = twisted_integral(d, q, 1, gamma)
    shifted = residual_gauge(q, {1: RationalFunction.zero()},
                             allow_first=True)
    assert twisted_integral(d, shifted, 1, gamma).value == before.value


def test_gauge_probe_enclosed_pole_no_obstruction(a1):
    # a pole of f strictly inside the contour contributes nothing: the
    # shifted integrand is an exact twisted differential, so the residue
    # of P^s (f' - (phi/2) f) at the pole cancels between the two terms
    d = beta_data(a1, 0.21, 0.58)
    gamma = pochhammer((1, 0), radius="1/4")
    q = unit_form(a1, d.twist())
    p = Scalar.parse(["0", "1/50"])
    f = RationalFunction.simple_pole(Scalar.exact(1), p)
    g = twisted_derivative(q.phi, 1, 2, f)
    # exact bookkeeping of that cancellation: the simple-pole coefficient
    # of g plus s * phi(p) times its double-pole coefficient is zero
    parts = dict(g.laurent_at(p))
    phi_p = q.phi.eval(p)
    s = Scalar.parse("-1/2")
    assert (parts[1] + s * phi_p * parts[2]).is_zero
    before = twisted_integral(d, q, 1, gamma)
    shifted = residual_gauge(q, {1: f}, allow_first=True)
    after = twisted_integral(d, shifted, 1, gamma)
    assert abs(before.value - after.value) < 1e-9 * (1 + abs(before.value))


def test_residual_gauge_keeps_integral(a1):
    # the full pipeline: canonicalize point data, shift v_3 by a residual
    # gauge, integrate both forms over the same contour
    d = MiuraData.make(
        a1,
        [("0", ["1/2"], "1", "0"), ("1", ["1/3"], "2", "0")],
        [],
    )
    q = quasi_canonicalize(build_miura(d))
    rng = random.Random(83)
    f = RationalFunction.from_poly(rand_poly(rng, 3))
    q2 = residual_gauge(q, {3: f})
    gamma = pochhammer((1, 0), radius="1/4")
    i1 = twisted_integral(d, q, 3, gamma)
    i2 = twisted_integral(d, q2, 3, gamma)
    assert abs(i1.value - i2.value) < 1e-8 * (1 + abs(i1.value))


# ------------------------------------------------------------ deformation


# two points with pairings a = 3/2, b = -1/2 against alpha_1 put the
# closed-form root at w = a/(a+b) = 3/2, safely off the segment [0, 1]
_DEFORM_POINTS = [("0", ["1/2"], "1", "0"), ("1", ["-1/2"], "1", "0")]


def _deformed_pair(model, root_scalar):
    d = MiuraData.make(model, _DEFORM_POINTS, [(root_scalar, 1)])
    q = quasi_canonicalize(build_miura(d))
    base = -0.7 - 0.9j
    w = complex(float(root_scalar.re), float(root_scalar.im))
    gamma = pochhammer((1, 0), radius="1/5", basepoint=0.5)
    bridge = segment_chain(0.5, base)
    loop = loop_around(w, 0.05, base)
    deformed = gamma + bridge + loop + bridge.reversed()
    i0 = twisted_integral(d, q, 1, gamma)
    i1 = twisted_integral(d, q, 1, deformed)
    return d, i0, i1


def test_deformation_on_shell_invisible(a1):
    d0 = MiuraData.make(a1, _DEFORM_POINTS, [("1/2", 1)])
    w = single_root_position(d0)
    d, i0, i1 = _deformed_pair(a1, w)
    assert bethe_residuals(d)[0].is_zero
    assert i0.valid and i1.valid
    assert abs(i1.value - i0.value) < 1e-8


def test_deformation_off_shell_picks_up_residue(a1):
    d0 = MiuraData.make(a1, _DEFORM_POINTS, [("1/2", 1)])
    w_off = single_root_position(d0) + Scalar.parse("1/5")
    d, i0, i1 = _deformed_pair(a1, w_off)
    assert not bethe_residuals(d)[0].is_zero
    # prediction: 2 pi i, times the residue of v_1 at the root (the
    # master-function partial over h), times the branch of P^{-1/2}
    # carried from the basepoint to the root along the added arcs
    res = bethe_residuals(d)[0] / Scalar.exact(2)
    res_c = complex(float(res.re), float(res.im))
    points = [0.0 + 0j, 1.0 + 0j]
    weights = [1.0, 1.0]  # both levels are 1
    base = -0.7 - 0.9j
    root_c = complex(float(w_off.re), float(w_off.im))
    logs = start_logs(points, 0.5)
    logs = advance_logs(points, logs, Line(0.5, base), 0.0, 1.0)
    logs = advance_logs(points, logs, Line(base, root_c), 0.0, 1.0)
    branch = cmath.exp(-0.5 * sum(k * L for k, L in zip(weights, logs)))
    expected = 2j * math.pi * branch * res_c
    assert abs((i1.value - i0.value) - expected) < 1e-8


# ------------------------------------------------------------- convergence


def test_error_estimate_honest(a1):
    d = beta_data(a1, 1 / 3, 1 / 2)
    gamma = pochhammer((1, 0), radius="1/4")
    q = unit_form(a1, d.twist())
    loose = twisted_integral(d, q, 1, gamma, abs_tol=1e-6)
    tight = twisted_integral(d, q, 1, gamma, abs_tol=1e-12)
    assert abs(loose.value - tight.value) <= max(loose.err, 1e-9)
    assert tight.panels >= loose.panels


# ----------------------------------------- the panel, bit for bit


def _reference_advance(points, logs, seg, ta, tb, steps, depth=0):
    """advance_logs with both ends of every step, bisected ones included,
    evaluated anew; appends each bisected step to ``steps``."""
    if depth:
        steps.append((ta, tb))
    inc = contour._log_increment(points, seg.point(ta), seg.point(tb))
    if inc is not None:
        return [L + d for L, d in zip(logs, inc)]
    assert depth < contour._MAX_DEPTH
    tm = 0.5 * (ta + tb)
    half = _reference_advance(points, logs, seg, ta, tm, steps, depth + 1)
    return _reference_advance(points, half, seg, tm, tb, steps, depth + 1)


def _reference_panel(seg, ta, tb, logs, points, weights, s, g, steps=None):
    """One Gauss-Kronrod panel evaluated naively: separate seg.point and
    seg.derivative calls, every coefficient and pole of g converted to
    complex at every node, and every branch step's ends recomputed."""
    steps = [] if steps is None else steps
    mid = 0.5 * (ta + tb)
    half = 0.5 * (tb - ta)
    acc_k = 0j
    acc_g = 0j
    acc_abs = 0.0
    tprev = ta
    for i, (x, wk) in enumerate(zip(integrate._KX, integrate._KW)):
        t = mid + half * x
        logs = _reference_advance(points, logs, seg, tprev, t, steps)
        z = seg.point(t)
        num = 0j
        for c in reversed(g.num.coeffs):
            num = num * z + complex(c.re, c.im)
        den = 1 + 0j
        for p, m in g.poles:
            den *= (z - complex(p.re, p.im)) ** m
        w = s * sum(k * L for k, L in zip(weights, logs))
        val = cmath.exp(w) * (num / den) * seg.derivative(t)
        acc_k += wk * val
        acc_abs += wk * abs(val)
        wg = integrate._GW.get(i)
        if wg is not None:
            acc_g += wg * val
        tprev = t
    logs = _reference_advance(points, logs, seg, tprev, tb, steps)
    return half * acc_k, half * acc_g, abs(half) * acc_abs, logs


_POINTS = [0j, 1 + 0j]
_WEIGHTS = [complex(1, -0.5), complex(-0.75, 0.25)]
_S = complex(-1 / 3, 0.125)


def _gaussian_integrand():
    """A Gaussian-rational g with a double and a triple pole."""
    num = Polynomial.of([Scalar.exact("1/2", "-2/3"), Scalar.exact(-3, 1),
                         Scalar.exact("5/4", "1/7")])
    return RationalFunction.from_split(num, {Scalar.exact(2, 1): 2,
                                             Scalar.exact("-1/3", -2): 3})


@pytest.mark.parametrize("seg", [
    Line(-1.5 + 0.01j, 1.5 + 0.01j),        # passes 0.01 from the puncture 0
    Arc(0.25, 0.76, -1.0, 1.2),              # passes 0.01 from the puncture 1
    Arc(0.0, 0.5, 0.3, 0.3 + 4 * math.pi),   # two turns around 0
])
def test_panel_matches_reference_bit_for_bit(seg, monkeypatch):
    g = _gaussian_integrand()
    # the steps advance_logs bisects into, recorded through the module
    # attribute its recursion calls
    steps = []
    inner = contour.advance_logs

    def recording(points, logs, seg, ta, tb, *args, **kwargs):
        steps.append((ta, tb))
        return inner(points, logs, seg, ta, tb, *args, **kwargs)

    monkeypatch.setattr(contour, "advance_logs", recording)
    for ta, tb in ((0.0, 1.0), (0.25, 0.5), (0.5, 0.625)):
        logs = start_logs(_POINTS, seg.point(ta))
        want_steps = []
        want = _reference_panel(seg, ta, tb, logs, _POINTS, _WEIGHTS, _S, g,
                                want_steps)
        steps[:] = []
        got = integrate._panel(seg, ta, tb, seg.point(ta), seg.point(tb),
                               logs, _POINTS,
                               (_S, _WEIGHTS, *g.complex_form()),
                               integrate._Budget())
        assert got == want
        assert steps == want_steps
        if ta == 0.0:
            assert steps, "the full-width panel must bisect a branch step"


def _found_data():
    """Rank-1 data whose r = 3 integrand has rounding noise above the
    default ``abs_tol`` on the Pochhammer cycle around 0 and 1."""
    model = build_algebra({"type": "A", "rank": 1, "cutoff": 3})
    d = MiuraData.make(model, [("0", ["3/1"], "3", "-1/1"),
                               ("1", ["1/1"], "1", "0/2")])
    return d, quasi_canonicalize(build_miura(d))


def _beta_gaussian_case(a1):
    d = beta_data(a1, 1 / 3, 0.3 + 0.1j)
    return d, 1, _gaussian_integrand(), pochhammer((0, 1), radius="1/4")


def _noise_floor_case(a1):
    d, q = _found_data()
    return d, 3, q.v[3], pochhammer((1, 0), radius="1/4")


@pytest.mark.parametrize("case", [_beta_gaussian_case, _noise_floor_case],
                         ids=["beta_gaussian", "noise_floor"])
def test_integral_matches_reference_bit_for_bit(a1, case):
    """The whole adaptive integral against the reference panels, with the
    stopping rule restated: value, error and panel count are identical."""
    d, r, g, gamma = case(a1)
    points, weights = integrate._marked_data(d)
    s = complex(r) * (-1.0 / d.model.dual_coxeter)
    tol = 1e-10 / len(gamma.segments)
    panels = []
    stalled = []

    def adaptive(seg, ta, tb, logs, tol, depth, parent_err):
        ik, ig, resabs, logs_b = _reference_panel(seg, ta, tb, logs, points,
                                                  weights, s, g)
        panels.append((ta, tb))
        err = abs(ik - ig)
        if (err <= max(tol, integrate._ROUNDOFF * resabs)
                or depth >= integrate._MAX_DEPTH):
            return ik, err, logs_b
        # bisecting did not help, and the error is rounding noise
        if (err >= integrate._STALLED * parent_err
                and err <= integrate._NOISE * resabs):
            stalled.append((ta, tb))
            return ik, err, logs_b
        tm = 0.5 * (ta + tb)
        i1, e1, logs_m = adaptive(seg, ta, tm, logs, 0.5 * tol, depth + 1,
                                  err)
        i2, e2, logs_b = adaptive(seg, tm, tb, logs_m, 0.5 * tol, depth + 1,
                                  err)
        return i1 + i2, e1 + e2, logs_b

    logs = start_logs(points, gamma.segments[0].point(0.0))
    value, err = 0j, 0.0
    for seg in gamma.segments:
        v, e, logs = adaptive(seg, 0.0, 1.0, logs, tol, 0, math.inf)
        value += v
        err += e
    res = integrate_twisted_form(d, r, g, gamma)
    assert len(panels) > len(gamma.segments)  # some panels were bisected
    if case is _noise_floor_case:
        assert stalled, "the noise stop must end some panels"
    assert (res.value, res.err, res.panels) == (value, err, len(panels))


def test_noise_floor_stops_bisecting():
    # the default abs_tol lies below this integrand's rounding noise; the
    # panels whose bisection stops helping must end at the noise floor,
    # since bisecting the noise down to the depth cap takes 12,742 panels
    d, q = _found_data()
    gamma = pochhammer((1, 0), radius="1/4")
    res = twisted_integral(d, q, 3, gamma)
    loose = twisted_integral(d, q, 3, gamma, abs_tol=1e-8)
    assert res.valid
    assert res.panels <= 1000
    assert abs(res.value - loose.value) <= res.err


def test_translated_period_converges():
    # moving the points from 0, 1 to 2, 3 raises the numerator's rounding
    # noise above abs_tol; bisecting that noise exhausts the panel budget,
    # while stopping at it gives the same period within the two errors
    model = build_algebra({"type": "A", "rank": 1, "cutoff": 3})
    weights = [(["-3/1"], "2", "-1/2"), (["-1/1"], "3", "0/1")]
    periods = []
    for a, b in ((0, 1), (2, 3)):
        d = MiuraData.make(model, [(str(a), *weights[0]),
                                   (str(b), *weights[1])])
        q = quasi_canonicalize(build_miura(d))
        periods.append(twisted_integral(d, q, 3,
                                        pochhammer((a, b), radius="1/4")))
    at_origin, moved = periods
    assert at_origin.valid and moved.valid
    assert (abs(moved.value - at_origin.value)
            <= moved.err + at_origin.err)
