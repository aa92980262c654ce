"""Contour quadrature with branch threading: the classical double-circuit
Beta identity, exact-form vanishing, residue bookkeeping under contour
deformation, and invariance of the integrals under residual gauges."""

import cmath
import gc
import math
import os
import random

import mpmath as mp
import pytest

from affopers import contour, integrate
from affopers.affine_algebra import build_algebra
from affopers.coeffs import Polynomial, RationalFunction, Scalar
from affopers.contour import (Arc, Contour, ContourError, Line,
                              advance_logs, loop_around, pochhammer,
                              segment_chain, start_logs)
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


def beta_data(model, a, b, z1="1"):
    """Levels chosen so that P^{-1/2} continues z^{a-1}(z-z1)^{b-1}; z1 is 1
    unless given."""
    k0 = -2 * (complex(a) - 1)
    k1 = -2 * (complex(b) - 1)
    return MiuraData.from_json({
        "algebra": model.descriptor(),
        "points": [
            {"z": "0",
             "weight": {"lambda_dot": ["0"], "level": _pair(k0), "delta": "0"}},
            {"z": z1,
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


def _reference_advance(points, logs, seg, ta, tb, steps, slow, depth=0):
    """advance_logs with both ends of every step, bisected ones included,
    evaluated anew; appends each bisected half-step to ``steps`` and each
    node-to-node step that must bisect to ``slow``."""
    if depth:
        steps.append((ta, tb))
    inc = contour._log_increment(points, seg.point(ta), seg.point(tb))
    if inc is not None:
        return [L + d for L, d in zip(logs, inc)]
    if not depth:
        slow.append((ta, tb))
    assert depth < contour._MAX_DEPTH
    tm = 0.5 * (ta + tb)
    half = _reference_advance(points, logs, seg, ta, tm, steps, slow,
                              depth + 1)
    return _reference_advance(points, half, seg, tm, tb, steps, slow,
                              depth + 1)


def _reference_panel(seg, ta, tb, logs, points, weights, s, g, steps=None,
                     slow=None):
    """One Gauss-Kronrod panel evaluated naively: separate seg.point and
    seg.derivative calls, every coefficient and pole of g converted to
    complex at every node, every pole power taken by ``**``, and every
    branch step's ends recomputed."""
    steps = [] if steps is None else steps
    slow = [] if slow is None else slow
    mid = 0.5 * (ta + tb)
    half = 0.5 * (tb - ta)
    acc_k = 0j
    acc_g = 0j
    acc_abs = 0.0
    tprev = ta
    for i, (x, wk) in enumerate(zip(integrate._KX, integrate._KW)):
        t = mid + half * x
        logs = _reference_advance(points, logs, seg, tprev, t, steps, slow)
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
    logs = _reference_advance(points, logs, seg, tprev, tb, steps, slow)
    return half * acc_k, half * acc_g, abs(half) * acc_abs, logs


def _c(*parts):
    """A complex from exact parts, with the bits ``as_complex`` gives."""
    return Scalar.exact(*parts).as_complex()


def _integrand(num, poles):
    """g = num / prod (z - p)^m from exact coefficient and pole parts."""
    return RationalFunction.from_split(
        Polynomial.of([Scalar.exact(*c) for c in num]),
        {Scalar.exact(*p): m for p, m in poles})


def _gaussian_integrand():
    """A Gaussian-rational g with a double and a triple pole."""
    return _integrand([("1/2", "-2/3"), (-3, 1), ("5/4", "1/7")],
                      [((2, 1), 2), (("-1/3", -2), 3)])


_REAL_8 = [(1,), ("-2/3",), (0,), ("5/4",), (3,), ("-1/7",), (2,), ("1/9",)]
_GAUSS_8 = [(1, "1/2"), ("-2/3", 0), (0, 3), ("5/4", "-1/5"), (3, -1),
            ("-1/7", "2/3"), (2, 0), ("1/9", "-4")]

# (points, level weights, power s, g, the shape of its routine: numerator
# length and the order of each pole); every case has a point that each
# segment below passes within 0.01 of or circles twice
_PANEL_CASES = {
    "1pt-real-len1-at": (
        [_c(1)], [_c("3/2")], _c("-1/3"),
        _integrand([(2,)], [((1,), 1)]), (1, (1,))),
    "2pt-gauss-len3-off": (
        [_c(0), _c(1)], [_c(1, "-1/2"), _c("-3/4", "1/4")],
        _c("-1/3", "1/8"), _gaussian_integrand(),
        (3, (3, 2))),
    "2pt-real-len0": (
        [_c(0), _c(1)], [_c("1/2"), _c("-3/2")], _c("-1/2"),
        RationalFunction.zero(), (0, ())),
    "3pt-real-len8-both": (
        [_c(0), _c(1), _c(-1)], [_c("1/2"), _c("-3/4"), _c(2)],
        _c("-2/3"), _integrand(_REAL_8, [((-1,), 1), ((0,), 2), ((3,), 1)]),
        (8, (1, 2, 1))),
    "4pt-gauss-len8-both": (
        [_c(0), _c(1), _c(-1), _c("1/2", 1)],
        [_c(1, "-1/2"), _c("-3/4", "1/4"), _c("1/3"), _c(0, 2)],
        _c("-1/4", "1/5"),
        _integrand(_GAUSS_8, [((1,), 1), (("1/2", 1), 2), ((2, 1), 1)]),
        (8, (2, 1, 1))),
    "4pt-gauss-len1-at": (
        [_c(0), _c(1), _c(-1), _c("1/2", 1)],
        [_c("1/2", 1), _c(-1), _c("3/4", "-1/4"), _c(1)], _c("-1/3"),
        _integrand([("2/3", -1)], [((0,), 1), ((1,), 3)]),
        (1, (1, 3))),
    # the largest order c_powu forms at a point, and the smallest that
    # CPython's ** takes through exp and log
    "2pt-real-len2-order100-101": (
        [_c(0), _c(1)], [_c("1/2"), _c("-3/2")], _c("-1/3"),
        _integrand([(1,), ("1/2",)], [((1,), 100), ((2,), 101)]),
        (2, (100, 101))),
}


def _bits(x):
    """Floats and complexes by their hex digits, so that signed zeros and
    NaNs compare as bits."""
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return x.hex()
    return tuple(_bits(y) for y in x)


def _routine_panel(seg, ta, tb, logs, points, weights, s, g):
    """The adaptive routine on [ta, tb] with an infinite tolerance, so that
    it evaluates one panel and accepts it: (value, err, logs at tb,
    panels)."""
    integrand = (s, weights, *g.complex_form())
    routine = integrate._routine(*integrate._shape(points, integrand))
    return routine(seg, ta, tb, logs, math.inf, 0, points, integrand)


def _reference_accepted(seg, ta, tb, logs, points, weights, s, g, steps=None,
                        slow=None):
    """What an accepted panel yields: (kronrod, its error, logs at tb)."""
    ik, ig, _resabs, logs = _reference_panel(seg, ta, tb, logs, points,
                                             weights, s, g, steps, slow)
    return ik, abs(ik - ig), logs


@pytest.fixture
def advance_calls(monkeypatch):
    """(steps, calls): the steps ``advance_logs`` bisects into, recorded
    through the module attribute its recursion calls, and the (ta, tb) of
    the routine's own calls, made through the integrate module attribute
    that bench/tracer.py patches."""
    steps = []
    inner = contour.advance_logs

    def recording(points, logs, seg, ta, tb, *args, **kwargs):
        steps.append((ta, tb))
        return inner(points, logs, seg, ta, tb, *args, **kwargs)

    calls = []
    outer = integrate.advance_logs

    def counting(*args, **kwargs):
        calls.append(args[3:5])
        return outer(*args, **kwargs)

    monkeypatch.setattr(contour, "advance_logs", recording)
    monkeypatch.setattr(integrate, "advance_logs", counting)
    return steps, calls


@pytest.mark.parametrize("seg", [
    Line(-1.5 + 0.01j, 1.5 + 0.01j),        # passes 0.01 from 0, 1 and -1
    Arc(0.25, 0.76, -1.0, 1.2),              # passes 0.01 from the puncture 1
    Arc(0.0, 0.5, 0.3, 0.3 + 4 * math.pi),   # two turns around 0
])
def test_panel_matches_reference_bit_for_bit(seg, advance_calls):
    steps, calls = advance_calls
    for case, (points, weights, s, g, shape) in _PANEL_CASES.items():
        integrand = (s, weights, *g.complex_form())
        assert integrate._shape(points, integrand) == (len(points), *shape)
        for ta, tb in ((0.0, 1.0), (0.25, 0.5), (0.5, 0.625)):
            logs = start_logs(points, seg.point(ta))
            want_steps, want_slow = [], []
            want = _reference_accepted(seg, ta, tb, logs, points, weights,
                                       s, g, want_steps, want_slow)
            steps[:] = []
            calls[:] = []
            *got, panels = _routine_panel(seg, ta, tb, logs, points,
                                          weights, s, g)
            assert panels == 1
            assert _bits(got) == _bits(want), (case, ta, tb)
            assert steps == want_steps, (case, ta, tb)
            # the routine steps inline, calling advance_logs for exactly
            # the steps that must bisect
            assert calls == want_slow, (case, ta, tb)
            if ta == 0.0:
                assert steps, f"{case}: the full-width panel must bisect"


def test_last_step_bisects_as_the_reference(advance_calls):
    # the puncture 1.496 lies 0.01 below the path, between the last node
    # (1.4872 + 0.01i) and the end of the panel (1.5 + 0.01i)
    steps, calls = advance_calls
    seg = Line(-1.5 + 0.01j, 1.5 + 0.01j)
    points, weights, s, g, _shape = _PANEL_CASES["3pt-real-len8-both"]
    points = points[:2] + [_c("187/125")]
    logs = start_logs(points, seg.point(0.0))
    want_steps, want_slow = [], []
    want = _reference_accepted(seg, 0.0, 1.0, logs, points, weights, s, g,
                               want_steps, want_slow)
    assert want_slow[-1] == (0.5 + 0.5 * integrate._KX[-1], 1.0)
    *got, _panels = _routine_panel(seg, 0.0, 1.0, logs, points, weights, s,
                                   g)
    assert _bits(got) == _bits(want)
    assert steps == want_steps
    assert calls == want_slow


def test_end_on_a_puncture_raises_as_the_reference(advance_calls):
    # the panel ends exactly on the puncture 1
    _steps, calls = advance_calls
    seg = Line(-1, 1)
    assert seg.point(1.0) == 1
    points = [_c(3), _c(1)]
    weights = [_c("1/2"), _c(-1)]
    g = _gaussian_integrand()
    logs = start_logs(points, seg.point(0.0))
    with pytest.raises(ContourError) as want:
        _reference_panel(seg, 0.0, 1.0, logs, points, weights, _c("-1/3"), g)
    with pytest.raises(ContourError) as got:
        _routine_panel(seg, 0.0, 1.0, logs, points, weights, _c("-1/3"), g)
    assert str(got.value) == str(want.value)
    assert calls[-1] == (0.5 + 0.5 * integrate._KX[-1], 1.0)


def test_pole_products_match_power_bit_for_bit():
    rng = random.Random(20)

    def part():
        return rng.randint(-9, 9) / rng.randint(1, 7)

    bases = [complex(part(), 0.0) for _ in range(6)]
    bases += [complex(part(), part()) for _ in range(6)]
    bases += [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
              for _ in range(6)]
    bases += [complex(x, y) for x in (0.0, -0.0, 1.25, -0.75)
              for y in (0.0, -0.0, 0.5, -1.5)]
    for m in range(1, integrate._POWU_LIMIT + 1):
        code = compile("\n".join(integrate._pole_power("b", m, "out")),
                       f"<power {m}>", "exec")
        for b in bases:
            namespace = {"b": b}
            exec(code, namespace)
            assert _bits(namespace["out"]) == _bits(b ** m), (m, b)
    assert integrate._pole_power("b", 101, "out") == ["out = b ** 101"]


def test_routine_cache_keeps_no_state():
    # two integrands of one shape, run one after the other and again: the
    # cached routine they share gives each its own reference values
    seg = Line(-1.5 + 0.01j, 1.5 + 0.01j)
    points = [_c(0), _c(1), _c(-1)]
    weights = [_c("1/2"), _c("-3/4"), _c(2)]
    first = _integrand(_REAL_8, [((-1,), 1), ((0,), 2), ((3,), 1)])
    second = _integrand(_GAUSS_8, [((-1,), 1), ((0,), 2), (("1/3", 2), 1)])
    shapes = {integrate._shape(points, (0j, weights, *g.complex_form()))
              for g in (first, second)}
    assert len(shapes) == 1
    for g, s in ((first, _c("-2/3")), (second, _c("1/4", -1)),
                 (first, _c("-2/3"))):
        logs = start_logs(points, seg.point(0.25))
        want = _reference_accepted(seg, 0.25, 0.5, logs, points, weights, s,
                                   g)
        *got, _panels = _routine_panel(seg, 0.25, 0.5, logs, points,
                                       weights, s, g)
        assert _bits(got) == _bits(want)


def test_an_integral_leaves_no_reference_cycle(a1, monkeypatch):
    # the recursive panel function of each routine call is freed when the
    # call returns or raises, not left for the cycle collector
    d = beta_data(a1, 1 / 3, 1 / 2)
    q = unit_form(a1, d.twist())
    gamma = pochhammer((1, 0), radius="1/4")

    def over_budget():
        try:
            twisted_integral(d, q, 1, gamma)
        except ContourError:
            return
        raise AssertionError("the panel budget did not stop the integral")

    def garbage_left(run):
        run()  # compiles the routine and fills the table store
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    assert garbage_left(lambda: twisted_integral(d, q, 1, gamma)) == 0
    monkeypatch.setattr(integrate, "_MAX_PANELS", 2)
    assert garbage_left(over_budget) == 0


def test_lines_and_arcs_share_one_routine(a1):
    # a Pochhammer cycle runs over lines and arcs, and its period compiles
    # one routine, since the panel tables alone know the segment's
    # geometry; that routine gives the reference panel on either kind
    d, r, g, gamma = _beta_gaussian_case(a1)
    assert {seg.kind for seg in gamma.segments} == {"line", "arc"}
    integrate._routine.cache_clear()
    integrate_twisted_form(d, r, g, gamma)
    assert integrate._routine.cache_info().misses == 1
    points, weights = integrate._marked_data(d)
    s = complex(r) * (-1.0 / d.model.dual_coxeter)
    for seg in (Line(-1.5 + 0.01j, 1.5 + 0.01j), Arc(0.25, 0.76, -1.0, 1.2)):
        for ta, tb in ((0.0, 1.0), (0.25, 0.5)):
            logs = start_logs(points, seg.point(ta))
            want = _reference_accepted(seg, ta, tb, logs, points, weights,
                                       s, g)
            *got, _panels = _routine_panel(seg, ta, tb, logs, points,
                                           weights, s, g)
            assert _bits(got) == _bits(want), (seg, ta, tb)
    assert integrate._routine.cache_info().misses == 1


@pytest.mark.parametrize("seg", [Line(-1.5 + 0.01j, 1.5 + 0.01j),
                                 Arc(0.25, 0.76, -1.0, 1.2)],
                         ids=["line", "arc"])
def test_panel_without_marked_points_matches_reference(seg):
    # no marked points: the tables hold z and dz only and no branch step,
    # and g's double pole lies off the points
    g = _integrand([("1/2", "-2/3"), (-3, 1), ("5/4", "1/7")],
                   [((2, 1), 2)])
    s = _c("-1/3", "1/8")
    assert integrate._shape([], (s, [], *g.complex_form())) == (0, 3, (2,))
    for ta, tb in ((0.0, 1.0), (0.25, 0.5)):
        want = _reference_accepted(seg, ta, tb, [], [], [], s, g)
        *got, panels = _routine_panel(seg, ta, tb, [], [], [], s, g)
        assert panels == 1
        assert _bits(got) == _bits(want), (ta, tb)


@pytest.mark.parametrize("points", [[_c(0), _c(2)], [_c(2), _c(0)]],
                         ids=["first", "second"])
def test_node_on_a_puncture_raises_as_the_reference(points):
    # the middle node of the full-width panel on [-1, 1] is exactly 0
    seg = Line(-1, 1)
    assert seg.point(0.5 + 0.5 * integrate._KX[7]) == 0
    weights = [_c("1/2"), _c(-1)]
    g = _gaussian_integrand()
    logs = start_logs(points, seg.point(0.0))
    with pytest.raises(ContourError) as want:
        _reference_panel(seg, 0.0, 1.0, logs, points, weights, _c("-1/3"), g)
    with pytest.raises(ContourError) as got:
        _routine_panel(seg, 0.0, 1.0, logs, points, weights, _c("-1/3"), g)
    assert str(got.value) == str(want.value)


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


def _three_point_case(a1):
    """Rank 2 at the points -1, 0, 1, a shape of the periods benchmark."""
    model = build_algebra({"type": "A", "rank": 2, "cutoff": 3})
    d = MiuraData.make(model, [("-1", ["1/2", "-1/3"], "1", "1/2"),
                               ("0", ["-3/2", "2/3"], "2", "0"),
                               ("1", ["1", "4/3"], "3", "-1/2")])
    q = quasi_canonicalize(build_miura(d))
    return d, 2, q.v[2], pochhammer((0, 1), radius="1/4")


_BUDGET_MESSAGE = ("quadrature did not converge within the panel budget; "
                   "the integrand is probably too close to a singularity")


def _geometry(seg):
    """The floats that fix a segment, by their bits."""
    if isinstance(seg, Line):
        return _bits((seg.start, seg.end))
    return _bits((seg.center, seg.radius, seg.from_angle, seg.to_angle))


def _reference_repeat(seg, pieces, logs, s, weights):
    """The reuse rule restated on a list: the first integrated piece with
    the bits of ``seg``, else the first whose ``reversed()`` has them, is
    taken when the logs at the matching end differ from ``logs`` by
    2 pi i n with integer n, within 1e-9: (value, err, logs at the end of
    seg) or None."""
    for sign in (1, -1):
        for piece, value, err, start, end in pieces:
            if sign < 0:
                piece, start, end = piece.reversed(), end, start
            if _geometry(piece) != _geometry(seg):
                continue
            turns = [round((L - L0).imag / (2 * math.pi))
                     for L, L0 in zip(logs, start)]
            if any(abs(L - L0 - complex(0.0, 2 * math.pi * n)) > 1e-9
                   for L, L0, n in zip(logs, start, turns)):
                continue
            shift = [complex(0.0, 2 * math.pi * n) for n in turns]
            factor = cmath.exp(s * sum(k * d for k, d in zip(weights,
                                                              shift)))
            value = factor * value if sign > 0 else -(factor * value)
            return (value, abs(factor) * err,
                    [L + d for L, d in zip(end, shift)])
    return None


def _reference_integral(d, r, g, gamma):
    """The whole adaptive integral from the reference panels, with the
    stopping rule, the panel budget and the reuse of repeated pieces
    restated: (value, err, panels, stalled, integrated), the (ta, tb) of
    every panel and of those that the noise stop ended, and the segments
    that were integrated and not reused."""
    points, weights = integrate._marked_data(d)
    s = complex(r) * (-1.0 / d.model.dual_coxeter)
    tol = 1e-10 / len(gamma.segments)
    panels = []
    stalled = []

    def adaptive(seg, ta, tb, logs, tol, depth, parent_err):
        panels.append((ta, tb))
        if len(panels) > integrate._MAX_PANELS:
            raise ContourError(_BUDGET_MESSAGE)
        ik, ig, resabs, logs_b = _reference_panel(seg, ta, tb, logs, points,
                                                  weights, s, g)
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
    pieces = []
    for seg in gamma.segments:
        repeat = _reference_repeat(seg, pieces, logs, s, weights)
        if repeat is None:
            v, e, end = adaptive(seg, 0.0, 1.0, logs, tol, 0, math.inf)
            pieces.append((seg, v, e, logs, end))
            logs = end
        else:
            v, e, logs = repeat
        value += v
        err += e
    return value, err, panels, stalled, [piece[0] for piece in pieces]


# the four shapes of the periods benchmark at cutoff 3: rank, the points
# with their (pairing, level, delta) weights, and the pair whose
# Pochhammer cycle is integrated
_PERIODS_SHAPES = {
    "rank1_0_1": (1, [("0", ["1/2"], "1", "1/3"),
                      ("1", ["-3/2"], "2", "0")], (0, 1)),
    "rank2_0_1": (2, [("0", ["1/2", "-2/3"], "1", "0"),
                      ("1", ["2/3", "1"], "3", "-1/2")], (0, 1)),
    "rank2_0_1_2": (2, [("0", ["-1/2", "1/3"], "2", "1/2"),
                        ("1", ["1", "-1/2"], "1", "0"),
                        ("2", ["1/3", "3/2"], "3", "-1/3")], (1, 2)),
    "rank2_-1_0_1": (2, [("-1", ["3/2", "-1"], "1", "0"),
                         ("0", ["-1/3", "1/2"], "3", "1/2"),
                         ("1", ["2/3", "1/3"], "2", "-1/2")], (-1, 0)),
}


def _periods_case(name, r):
    def case(a1):
        rank, points, pair = _PERIODS_SHAPES[name]
        model = build_algebra({"type": "A", "rank": rank, "cutoff": 3})
        d = MiuraData.make(model, points)
        q = quasi_canonicalize(build_miura(d))
        return d, r, q.v[r], pochhammer(pair, radius="1/4")
    return case


_INTEGRAL_CASES = {
    "beta_gaussian": _beta_gaussian_case,
    "noise_floor": _noise_floor_case,
    "three_point": _three_point_case,
    **{f"{name}-r{r}": _periods_case(name, r)
       for name, (rank, _points, _pair) in _PERIODS_SHAPES.items()
       for r in ((1, 3) if rank == 1 else (1, 2))},
}


@pytest.fixture
def cold_tables(monkeypatch):
    """An empty panel-table store in place of the process-wide one, which
    comes back after the test."""
    tables = {}
    monkeypatch.setattr(integrate, "_TABLES", tables)
    return tables


def _stored(tables):
    """The panels of a table store, each as (routine call key, ta, tb)."""
    return {(key, ta, tb) for key, kept in tables.items() for ta, tb in kept}


@pytest.mark.parametrize("case", list(_INTEGRAL_CASES.values()),
                         ids=list(_INTEGRAL_CASES))
def test_integral_matches_reference_bit_for_bit(a1, case, cold_tables):
    """The whole adaptive integral against the reference panels, with the
    stopping rule and the reuse of repeated pieces restated: value, error
    and panel count are identical, on an empty table store and again on
    the tables the first run left."""
    d, r, g, gamma = case(a1)
    value, err, panels, stalled, integrated = _reference_integral(d, r, g,
                                                                 gamma)
    assert len(panels) > len(integrated)  # some panels were bisected
    if case is _noise_floor_case:
        assert stalled, "the noise stop must end some panels"
    for store in ("cold", "warm"):
        assert bool(cold_tables) == (store == "warm")
        res = integrate_twisted_form(d, r, g, gamma)
        assert _bits((res.value, res.err)) == _bits((value, err)), store
        assert res.panels == len(panels), store


def _one_ulp_case(a1, z1):
    """The Gaussian Beta case with its second point at ``z1``."""
    d = beta_data(a1, 1 / 3, 0.3 + 0.1j, z1)
    return d, 1, _gaussian_integrand(), pochhammer((0, 1), radius="1/4")


def test_tables_of_points_one_ulp_apart_are_kept_apart(a1, cold_tables):
    # the points 1 and 1 + 2^-52 give integrals that differ in their
    # bits; run one after the other, and again, each keeps the reference
    # bits, since the store keys on the points' bits
    cases = [_one_ulp_case(a1, z1)
             for z1 in ("1", "4503599627370497/4503599627370496")]
    ends = [integrate._marked_data(d)[0][1] for d, *_rest in cases]
    assert ends[1] == complex(math.nextafter(ends[0].real, 2.0))
    want = []
    for case in cases:
        value, err, panels, *_rest = _reference_integral(*case)
        want.append((_bits((value, err)), len(panels)))
    assert want[0] != want[1]
    for case, (bits, panels) in [*zip(cases, want), *zip(cases, want)]:
        res = integrate_twisted_form(*case)
        assert (_bits((res.value, res.err)), res.panels) == (bits, panels)
    keys = {key[1] for key in cold_tables}
    assert len(keys) == 2


def test_tables_of_signed_zero_points_are_kept_apart(cold_tables):
    # 0.0 and -0.0 compare equal as floats but are two keys of the store
    seg = Arc(0.25, 0.76, -1.0, 1.2)
    points, weights, s, g, _shape = _PANEL_CASES["2pt-gauss-len3-off"]
    lists = [[complex(0.0, 0.0), points[1]], [complex(-0.0, 0.0), points[1]]]
    for pts in lists + lists:
        logs = start_logs(pts, seg.point(0.0))
        want = _reference_accepted(seg, 0.0, 1.0, logs, pts, weights, s, g)
        *got, _panels = _routine_panel(seg, 0.0, 1.0, logs, pts, weights, s,
                                       g)
        assert _bits(got) == _bits(want)
    assert len(cold_tables) == 2


def test_a_full_store_is_emptied_and_results_keep_their_bits(
        a1, cold_tables, monkeypatch):
    # with room for five panels the store is emptied again and again
    # within one integral; it never holds more, and the integral keeps
    # the reference bits
    monkeypatch.setattr(integrate, "_MAX_TABLES", 5)
    sizes = []
    keep = integrate._keep

    def watched(*args):
        table = keep(*args)
        sizes.append(sum(map(len, integrate._TABLES.values())))
        return table

    monkeypatch.setattr(integrate, "_keep", watched)
    d, r, g, gamma = _three_point_case(a1)
    value, err, panels, *_rest = _reference_integral(d, r, g, gamma)
    for _run in range(2):
        res = integrate_twisted_form(d, r, g, gamma)
        assert _bits((res.value, res.err)) == _bits((value, err))
        assert res.panels == len(panels)
    assert sizes[:6] == [1, 2, 3, 4, 5, 1]
    assert max(sizes) == 5


def test_a_higher_exponent_builds_only_the_panels_it_adds(a1, cold_tables):
    # r = 1 and r = 3 of one case run over the same cycle: the second
    # integral builds the tables of exactly the panels the first did not
    # evaluate, and both keep the bits they have on an empty store
    first, second = (_periods_case("rank1_0_1", r)(a1) for r in (1, 3))
    alone = []
    for case in (first, second):
        cold_tables.clear()
        res = integrate_twisted_form(*case)
        alone.append((_bits((res.value, res.err)), res.panels,
                      _stored(cold_tables)))
    (bits1, panels1, stored1), (bits2, panels2, stored2) = alone
    assert len(stored1) == panels1 and len(stored2) == panels2
    assert stored1 & stored2 and stored2 - stored1
    cold_tables.clear()
    res = integrate_twisted_form(*first)
    assert (_bits((res.value, res.err)), res.panels) == (bits1, panels1)
    res = integrate_twisted_form(*second)
    assert (_bits((res.value, res.err)), res.panels) == (bits2, panels2)
    assert _stored(cold_tables) == stored1 | stored2


def test_periods_workload_keeps_its_bits_on_warm_tables(monkeypatch,
                                                        cold_tables):
    # every integral of a round of the periods benchmark (seed 1), run
    # and checked on an empty store and again on the tables it left, which
    # builds none
    monkeypatch.syspath_prepend(
        os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    import workloads
    wl = workloads.Periods(1)
    wl.setup()
    inner = integrate.integrate_twisted_form
    seen = []

    def recorded(*args, **kwargs):
        res = inner(*args, **kwargs)
        seen.append(_bits((res.value, res.err, res.multiplier))
                    + (res.panels, res.valid))
        return res

    monkeypatch.setattr(integrate, "integrate_twisted_form", recorded)
    rounds = []
    for _store in ("cold", "warm"):
        seen[:] = []
        for case in wl.cases:
            wl.check(case, wl.run(case))
        rounds.append((list(seen), _stored(cold_tables)))
    (cold, stored), (warm, kept) = rounds
    assert cold == warm
    assert stored == kept and len(kept) <= integrate._MAX_TABLES


def test_panel_budget_raises_as_the_reference(a1, monkeypatch):
    # the budget counts panels across the segments of one integral, and a
    # reused piece spends none; with the budget one short of what the
    # integral needs, the last panel raises, on both sides, and with the
    # budget exact nothing does.  The three-point period needs 72 panels,
    # so that every budget below runs out within the integral
    d, r, g, gamma = _three_point_case(a1)
    *_value_err, panels, _stalled, _integrated = _reference_integral(
        d, r, g, gamma)
    needed = len(panels)
    for budget in (1, 2, 40, needed - 1):
        monkeypatch.setattr(integrate, "_MAX_PANELS", budget)
        with pytest.raises(ContourError) as want:
            _reference_integral(d, r, g, gamma)
        with pytest.raises(ContourError) as got:
            integrate_twisted_form(d, r, g, gamma)
        assert str(got.value) == str(want.value) == _BUDGET_MESSAGE
    monkeypatch.setattr(integrate, "_MAX_PANELS", needed)
    assert integrate_twisted_form(d, r, g, gamma).panels == needed


# ----------------------------------- repeated pieces against every segment


def _full_integral(d, r, g, gamma):
    """The plain segment loop: every segment integrated by its routine,
    none reused: (value, err, panels, multiplier, valid)."""
    points, weights = integrate._marked_data(d)
    s = complex(r) * (-1.0 / d.model.dual_coxeter)
    integrand = (s, weights, *g.complex_form())
    shape = integrate._shape(points, integrand)
    tol = 1e-10 / len(gamma.segments)
    logs = first = start_logs(points, gamma.segments[0].point(0.0))
    value, err, panels = 0j, 0.0, 0
    for seg in gamma.segments:
        v, e, logs, panels = integrate._routine(*shape)(
            seg, 0.0, 1.0, logs, tol, panels, points, integrand)
        value += v
        err += e
    multiplier = cmath.exp(s * sum(k * (L1 - L0)
                                   for k, L0, L1 in zip(weights, first, logs)))
    valid = gamma.is_closed and abs(multiplier - 1.0) < 1e-9
    return value, err, panels, multiplier, valid


@pytest.mark.parametrize("case", list(_INTEGRAL_CASES.values()),
                         ids=list(_INTEGRAL_CASES))
def test_reuse_agrees_with_full_integration(a1, case):
    """Each Pochhammer period, with its repeated pieces reused, agrees with
    the one that integrates all twelve segments within the two errors, in
    at most half the panels."""
    d, r, g, gamma = case(a1)
    value, err, panels, _multiplier, valid = _full_integral(d, r, g, gamma)
    res = integrate_twisted_form(d, r, g, gamma)
    assert abs(res.value - value) <= res.err + err
    assert res.valid == valid
    assert 2 * res.panels <= panels


def test_contours_without_repeats_are_integrated_as_before(a1):
    # an open polyline and a bare circle repeat no piece, so every
    # segment is integrated and the result is the plain loop's, bit for
    # bit; a simple loop's line out is its line in reversed, one turn
    # later, and is reused
    d, r, g, _gamma = _beta_gaussian_case(a1)
    for gamma in (segment_chain(0.5, 0.5 + 1j, -0.5 + 0.5j, -0.5 - 0.5j),
                  Contour([Arc(0.0, 0.5, 0.3, 0.3 + 2 * math.pi)])):
        res = integrate_twisted_form(d, r, g, gamma)
        value, err, panels, multiplier, valid = _full_integral(d, r, g,
                                                               gamma)
        assert (_bits((res.value, res.err, res.multiplier))
                == _bits((value, err, multiplier)))
        assert (res.panels, res.valid) == (panels, valid)
    gamma = loop_around(0, 0.25, 0.5, turns=1)
    res = integrate_twisted_form(d, r, g, gamma)
    value, err, panels, _multiplier, valid = _full_integral(d, r, g, gamma)
    *_value_err, want_panels, _stalled, integrated = _reference_integral(
        d, r, g, gamma)
    assert integrated == gamma.segments[:2]
    assert res.panels == len(want_panels) < panels
    assert abs(res.value - value) <= res.err + err
    assert res.valid == valid


def test_pochhammer_passes_repeat_bit_for_bit_and_survive_json(a1):
    # each clockwise loop is its counterclockwise loop reversed, segment
    # by segment and bit for bit, so that its pieces are reused
    gamma = pochhammer((0, 1), radius="1/4")
    segs = gamma.segments
    assert _geometry(segs[7]) == _geometry(segs[1].reversed())
    assert _geometry(segs[10]) == _geometry(segs[4].reversed())
    for loop in (0, 3):
        back = [seg.reversed() for seg in reversed(segs[loop:loop + 3])]
        assert ([_geometry(seg) for seg in segs[loop + 6:loop + 9]]
                == [_geometry(seg) for seg in back])
    # a contour read back from JSON has the same bits and the same period
    d, r, g, gamma = _three_point_case(a1)
    read = Contour.from_json(gamma.to_json())
    want = integrate_twisted_form(d, r, g, gamma)
    got = integrate_twisted_form(d, r, g, read)
    assert _bits((got.value, got.err)) == _bits((want.value, want.err))
    assert got.panels == want.panels


def _far_path_data(model):
    """Levels 1 and 2 at 0 and 1, with 1/z^3 on the path from 1e110 to
    2e110: z^3 overflows the float range at every node."""
    d = MiuraData.make(model, [("0", ["0"], "1", "0"),
                               ("1", ["0"], "2", "0")])
    return d, _integrand([(1,)], [((0,), 3)]), segment_chain(1e110, 2e110)


def test_overflow_is_named_at_once(a1, monkeypatch):
    # an integrand that is not finite on the contour would bisect to the
    # depth cap until the panel budget ran out; it stops at the first
    # panel that must bisect, well inside a budget of two panels
    d, g, gamma = _far_path_data(a1)
    monkeypatch.setattr(integrate, "_MAX_PANELS", 2)
    with pytest.raises(ContourError, match="overflows the float range"):
        integrate_twisted_form(d, 1, g, gamma)


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
