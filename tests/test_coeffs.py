"""Scalar/polynomial/rational-function layer.

Frozen expected values in this file were produced by the independent sympy
oracle in tests/oracles/gen_coeffs_expected.py.
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affopers.coeffs import (
    Polynomial,
    RationalFunction,
    Scalar,
    partial_fractions,
    recombine,
)


def sc(x, y=0):
    return Scalar.exact(x, y)


def poly(*coeffs):
    return Polynomial.of([sc(c) for c in coeffs])


Z = Polynomial.variable()
ONE = Polynomial.one()


# ---------------------------------------------------------------- scalars


def test_scalar_field_ops():
    a = sc("3/4", "1/2")
    b = sc(-2, "1/3")
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * b == b * a
    q = a / b
    assert q * b == a


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        sc(1) / sc(0)


def test_scalar_json_roundtrip():
    for s in [sc("2/7"), sc(0), sc("1/2", "-3/5"), sc(-4)]:
        assert Scalar.parse(s.to_json()) == s


def test_scalar_parse_rejects_bare_floats_in_exact_mode():
    with pytest.raises(ValueError):
        Scalar.parse(0.5)
    # decimal strings are fine
    assert Scalar.parse("0.5") == sc("1/2")


# ------------------------------------------------------------- polynomials


def test_zero_polynomial_degree_sentinel():
    assert Polynomial.zero().degree == -1
    assert poly(0, 0).degree == -1
    assert poly(5).degree == 0


def test_poly_pow_and_derivative():
    p = (Z + ONE) ** 3
    assert p == poly(1, 3, 3, 1)
    assert p.derivative() == poly(3, 6, 3)


# --------------------------------------------------------- rational functions


def rf_split(num, poles):
    return RationalFunction.from_split(num, {sc(p): m for p, m in poles.items()})


def test_rf_reduction_cancels_known_pole():
    f = rf_split(poly(-1, 0, 1), {1: 1})  # (z^2-1)/(z-1)
    assert f.is_polynomial
    assert f.num == poly(1, 1)


def test_rf_equality_across_representations():
    a = rf_split(poly(1), {2: 1})
    b = rf_split(poly(-2, 1), {2: 2})  # (z-2)/(z-2)^2
    assert a == b


def test_rf_arith_dispatch():
    a = rf_split(poly(1), {0: 1})
    b = rf_split(poly(1), {1: 1})
    s = a + b
    d = s - b
    assert d == a
    assert a * b == rf_split(poly(1), {0: 1, 1: 1})


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("other", [sc(2), poly(1, 1), 3],
                         ids=["Scalar", "Polynomial", "int"])
def test_rf_arith_takes_only_rational_functions(op, other):
    # a Scalar enters through scale or lincomb, a Polynomial through
    # from_poly; no operator lifts them
    f = rf_split(poly(1), {0: 1})
    with pytest.raises(TypeError):
        op(f, other)


_OPERANDS = {
    "Scalar": (sc(2, -1), Scalar.zero()),
    "Polynomial": (poly(1, 1), Polynomial.zero()),
    "RationalFunction": (rf_split(poly(1), {0: 1}), RationalFunction.zero()),
    "int": (3, 0),
}


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv],
                         ids=["add", "sub", "mul", "truediv"])
@pytest.mark.parametrize("left, right", [
    (x, y) for x in _OPERANDS for y in _OPERANDS if x != y])
def test_mixed_arithmetic_raises_type_error(op, left, right):
    # each class's operators return NotImplemented for any other operand,
    # zero or not, so Python raises TypeError and no field of the foreign
    # operand is read
    for x in _OPERANDS[left]:
        for y in _OPERANDS[right]:
            with pytest.raises(TypeError):
                op(x, y)


def test_rf_eval():
    f = rf_split(poly(0, 5), {2: 1, -2: 1})  # 5z/(z^2-4)
    assert f.eval(sc(3)) == sc(3)
    with pytest.raises(ZeroDivisionError):
        f.eval(sc(2))


# frozen oracle: apart(z^3/(z-1)) = z^2 + z + 1 + 1/(z-1)
def test_partial_fractions_with_polynomial_part():
    f = rf_split(poly(0, 0, 0, 1), {1: 1})
    qpart, terms = partial_fractions(f)
    assert qpart == poly(1, 1, 1)
    assert terms == [(sc(1), 1, sc(1))]
    assert recombine(qpart, terms) == f


# frozen oracle: apart(5z/(z^2-4)) = 5/(2(z+2)) + 5/(2(z-2))
def test_partial_fractions_two_simple_poles():
    f = rf_split(poly(0, 5), {2: 1, -2: 1})
    qpart, terms = partial_fractions(f)
    assert qpart.is_zero
    assert set(terms) == {(sc(-2), 1, sc("5/2")), (sc(2), 1, sc("5/2"))}


# frozen oracle: 1/(z-i)^2 is already a pure second-order term
def test_partial_fractions_complex_double_pole():
    i = sc(0, 1)
    f = RationalFunction.from_split(Polynomial.one(), {i: 2})
    qpart, terms = partial_fractions(f)
    assert qpart.is_zero
    assert terms == [(i, 2, sc(1))]


# frozen oracle: (3z^4 - z + 2)/((z-1)^2 (z+1)(z-3)) =
#   3 - 3/(8(z+1)) - 11/(4(z-1)) - 1/(z-1)^2 + 121/(8(z-3))
def test_partial_fractions_mixed_orders():
    f = rf_split(poly(2, -1, 0, 0, 3), {1: 2, -1: 1, 3: 1})
    qpart, terms = partial_fractions(f)
    assert qpart == poly(3)
    assert set(terms) == {
        (sc(-1), 1, sc("-3/8")),
        (sc(1), 1, sc("-11/4")),
        (sc(1), 2, sc(-1)),
        (sc(3), 1, sc("121/8")),
    }
    assert recombine(qpart, terms) == f


# frozen oracle: residue(z^2/((z-1)(z-2)^2), 2) = 0, at 1 it is 1
def test_residue_values():
    f = rf_split(poly(0, 0, 1), {1: 1, 2: 2})
    assert f.residue_at(sc(2)) == sc(0)
    assert f.residue_at(sc(1)) == sc(1)


def test_laurent_orders():
    f = rf_split(poly(0, 0, 1), {1: 1, 2: 2})
    principal = {k: c for k, c in f.laurent_at(sc(2))}
    assert principal[2] == sc(4)  # z^2/(z-1) at z=2
    assert 1 not in principal  # zero residue entries are dropped


rat_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def _operand(re, im, real):
    return Scalar.exact(re, 0 if real else im)


def _textbook(op, x, y):
    """``x op y`` by the textbook formula on the rational parts, e.g.
    (a + bi)(c + di) = (ac - bd) + (ad + bc)i."""
    a, b, c, d = x.re, x.im, y.re, y.im
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


_SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}


def _assert_canonical_scalar(s):
    """Three ints (r, i, q) with q > 0, gcd 1, and zero as (0, 0, 1)."""
    assert all(type(x) is int for x in (s.r, s.i, s.q))
    assert s.q > 0 and math.gcd(s.r, s.i, s.q) == 1
    assert not s.is_zero or (s.r, s.i, s.q) == (0, 0, 1)


# each operand is either forced real or a general Gaussian rational, so the
# real-real, mixed and Gaussian-Gaussian cases all come up
real_flags_st = st.tuples(st.booleans(), st.booleans())
parts_st = st.lists(st.tuples(rat_st, rat_st), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(real_flags_st, st.tuples(rat_st, rat_st), st.tuples(rat_st, rat_st))
def test_exact_scalar_product_matches_textbook(flags, xs, ys):
    x = _operand(*xs, flags[0])
    y = _operand(*ys, flags[1])
    for s in (x, y, -x):
        _assert_canonical_scalar(s)
    assert ((-x).re, (-x).im) == (-x.re, -x.im)
    for op, f in _SCALAR_OPS.items():
        if op == "/" and y.is_zero:
            with pytest.raises(ZeroDivisionError):
                x / y
            continue
        got = f(x, y)
        _assert_canonical_scalar(got)
        assert (got.re, got.im) == _textbook(op, x, y)


def test_equal_scalars_share_one_triple():
    routes = [Scalar.parse("2/4"), Scalar.parse("1/2"),
              Scalar.from_complex(0.5), Scalar.exact(Fraction(1, 2)),
              sc(3) / sc(6)]
    gaussian = [sc("1/2", "1/3"), Scalar.parse(["2/4", "2/6"]),
                sc(3, 2) / sc(6), sc("3/4", "1/2") * sc("2/3")]
    zeros = [Scalar.zero(), sc("0/5"), sc("1/3") - sc("1/3"),
             sc(0, 2) * sc(0)]
    for group, triple in ((routes, (1, 0, 2)), (gaussian, (3, 2, 6)),
                          (zeros, (0, 0, 1))):
        for s in group:
            _assert_canonical_scalar(s)
            assert (s.r, s.i, s.q) == triple
            assert s == group[0] and hash(s) == hash(group[0])


def test_exact_from_ints_matches_the_fraction_route():
    # ints take a fast path; bools take the Fraction route, so that the
    # canonical check below sees ints in the triple, never True or False
    big = 3 ** 90
    calls = [(0,), (1,), (-1,), (big,), (-big,), (0, 1), (0, -1), (2, -7),
             (-big, big + 1), (5, "1/2"), ("3/4", -2), ("-1/3", big),
             (True,), (False, True), (1, True)]
    for args in calls:
        got = Scalar.exact(*args)
        re, im = (*args, 0)[:2]
        a, b = Fraction(re), Fraction(im)
        want = Scalar.exact(a, b)
        _assert_canonical_scalar(got)
        assert (got.r, got.i, got.q) == (want.r, want.i, want.q)
        assert got == want and hash(got) == hash(want)


@settings(max_examples=80, deadline=None)
@given(real_flags_st, parts_st, parts_st)
def test_exact_polynomial_product_matches_textbook(flags, xs, ys):
    a = Polynomial.of([_operand(re, im, flags[0]) for re, im in xs])
    b = Polynomial.of([_operand(re, im, flags[1]) for re, im in ys])
    want = [[0, 0] for _ in range(len(a.coeffs) + len(b.coeffs) - 1)]
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            re, im = _textbook("*", x, y)
            want[i + j][0] += re
            want[i + j][1] += im
    assert a * b == Polynomial.of([sc(re, im) for re, im in want])


coeff_st = st.integers(min_value=-6, max_value=6)
pole_st = st.sampled_from([-3, -1, 0, 1, 2, 4])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(coeff_st, min_size=1, max_size=3),
    st.dictionaries(pole_st, st.integers(min_value=1, max_value=2),
                    min_size=1, max_size=2),
)
def test_residue_of_derivative_vanishes(nc, poles):
    num = Polynomial.of([sc(c) for c in nc])
    f = rf_split(num, poles)
    df = f.derivative()
    for p in poles:
        assert df.residue_at(sc(p)) == sc(0)


# frozen oracle: f=(z^2+1)/(z-2), mu(s)=(2s+1)/(s-1):
#   f(mu(s)) = (5s^2 + 2s + 2)/(3(s-1))
def test_compose_mobius_frozen():
    f = rf_split(poly(1, 0, 1), {2: 1})
    g = f.compose_mobius(sc(2), sc(1), sc(1), sc(-1), 0)
    expected = rf_split(poly("2/3", "2/3", "5/3"), {1: 1})
    assert g == expected


def test_compose_mobius_roundtrip():
    rng = random.Random(3)
    for _ in range(8):
        num = poly(*[rng.randint(-4, 4) for _ in range(3)])
        f = rf_split(num if not num.is_zero else poly(1), {0: 1, 3: 1})
        a, b, c, d = sc(2), sc(1), sc(1), sc(1)  # det = 1
        # inverse map has matrix (d, -b; -c, a)
        g = f.compose_mobius(a, b, c, d, 0).compose_mobius(d, -b, -c, a, 0)
        assert g == f


def test_compose_mobius_translation_and_scaling():
    f = rf_split(poly(0, 1), {1: 2})  # z/(z-1)^2
    t = f.compose_mobius(sc(1), sc(5), sc(0), sc(1), 0)  # z -> z + 5
    assert t == rf_split(poly(5, 1), {-4: 2})
    s = f.compose_mobius(sc(3), sc(0), sc(0), sc(1), 0)  # z -> 3z
    assert s == rf_split(poly(0, "1/3"), {"1/3": 2})  # 3z/(3z-1)^2


def _two_step_pullback(f, a, b, c, d, k):
    """f(mu) mu'^k as composition followed by k products with mu' built
    as a rational function: the reference for the one-step pull-back."""
    g = f.compose_mobius(a, b, c, d, 0)
    if c.is_zero:
        mu_prime = RationalFunction.from_scalar(a / d)
    else:
        mu_prime = RationalFunction.from_split(
            Polynomial.constant((a * d - b * c) / (c * c)), {-d / c: 2})
    for _ in range(k):
        g = g * mu_prime
    return g


def _pullback_cases():
    """Seeded (f, Moebius map) pairs: real and Gaussian poles, numerators
    of degree above and below the pole count, c = 0, a pole of f at the
    image of infinity a/c, a constant and zero."""
    rng = random.Random(28)

    def rat():
        return sc(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

    def gauss():
        return sc(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 5)))

    def mobius(c_zero):
        while True:
            a, b, d = gauss(), rat(), rat()
            c = Scalar.zero() if c_zero else rat()
            if not (a * d - b * c).is_zero:
                return a, b, c, d

    cases = []
    for n in range(12):
        point = gauss if n % 2 else rat
        poles = {point(): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
        deg = sum(poles.values()) + rng.choice([-2, -1, 0, 1, 2])
        num = Polynomial.of([point() for _ in range(max(deg, 0) + 1)])
        if num.is_zero:
            num = Polynomial.one()
        m = mobius(c_zero=n % 3 == 0)
        cases.append((f"seed{n}", RationalFunction.from_split(num, poles), m))
        if not m[2].is_zero:
            # one more pole at a/c, which the map sends to infinity
            at = m[0] / m[2]
            cases.append((f"seed{n}-at-a/c", RationalFunction.from_split(
                num, {**poles, at: poles.get(at, 0) + rng.randint(1, 2)}), m))
    for c_zero in (True, False):
        m = mobius(c_zero)
        tag = "c0" if c_zero else "c"
        cases.append((f"constant-{tag}",
                      RationalFunction.from_scalar(gauss()), m))
        cases.append((f"zero-{tag}", RationalFunction.zero(), m))
    return cases


@pytest.mark.parametrize("f, mobius", [c[1:] for c in _pullback_cases()],
                         ids=[c[0] for c in _pullback_cases()])
def test_compose_mobius_pulls_back_a_k_differential(f, mobius):
    for k in range(6):
        assert f.compose_mobius(*mobius, k) == _two_step_pullback(
            f, *mobius, k), k


def test_rf_json_roundtrip():
    f = rf_split(poly(2, -1), {0: 1, 1: 2})
    js = f.to_json()
    g = rf_split(Polynomial.of([Scalar.parse(c) for c in js["num"]]),
                 {0: 1, 1: 2})
    assert g.den_poly() == Polynomial.of([Scalar.parse(c) for c in js["den"]])
    assert f == g


def test_derivative_partial_fractions_frozen():
    # oracle: d/dz 1/(z^2-1) = 1/(2(z+1)^2) - 1/(2(z-1)^2)
    f = rf_split(ONE, {1: 1, -1: 1})
    qpart, terms = partial_fractions(f.derivative())
    assert qpart.is_zero
    assert set(terms) == {
        (sc(-1), 2, sc("1/2")),
        (sc(1), 2, sc("-1/2")),
    }


# ------------------------------------ the reduced split form, complex data

gauss_st = st.tuples(rat_st, rat_st).map(lambda t: sc(*t))
split_st = st.tuples(
    st.lists(gauss_st, min_size=1, max_size=4),
    st.dictionaries(gauss_st, st.integers(min_value=1, max_value=3),
                    min_size=1, max_size=3),
)


def _split_rf(data):
    coeffs, poles = data
    num = Polynomial.of(coeffs)
    return num, poles, RationalFunction.from_split(num, poles)


@settings(max_examples=60, deadline=None)
@given(split_st)
def test_derivative_raises_each_pole_order_by_one(data):
    _num, _poles, f = _split_rf(data)
    df = f.derivative()
    assert dict(df.poles) == {p: m + 1 for p, m in f.poles}
    # quotient rule on the expanded polynomials, cross-multiplied
    n, D = f.num, f.den_poly()
    ref = n.derivative() * D - n * D.derivative()
    assert df.num * (D * D) == ref * df.den_poly()


@settings(max_examples=40, deadline=None)
@given(split_st, split_st)
def test_product_rule(a, b):
    f, g = _split_rf(a)[2], _split_rf(b)[2]
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@settings(max_examples=60, deadline=None)
@given(split_st, st.integers(min_value=1, max_value=2))
def test_one_function_has_one_stored_form(data, k):
    num, poles, f = _split_rf(data)
    p = min(poles, key=lambda q: (q.re, q.im))
    lin = Polynomial.of([-p, sc(1)])
    g = RationalFunction.from_split(num * lin ** k, {**poles, p: poles[p] + k})
    assert g == f
    assert hash(g) == hash(f)


# ------------------------------------ eval_complex and its cached form

_NODES = (0.3 + 0.7j, -1.25 + 0.45j, 2.5 - 1.1j)


def _fresh(f):
    """A function built anew from f's stored form, never evaluated."""
    return RationalFunction(f.num, f.poles)


def _converted_per_call(f, z):
    """eval_complex converting every coefficient and pole on each call."""
    num = 0j
    for c in reversed(f.num.coeffs):
        num = num * z + complex(c.re, c.im)
    den = 1 + 0j
    for p, m in f.poles:
        den *= (z - complex(p.re, p.im)) ** m
    return num / den


@settings(max_examples=40, deadline=None)
@given(split_st, split_st)
def test_derived_functions_never_evaluate_stale(a, b):
    f, g = _split_rf(a)[2], _split_rf(b)[2]
    for z in _NODES:  # fill the cached forms of the operands first
        assert f.eval_complex(z) == _converted_per_call(f, z)
        assert g.eval_complex(z) == _converted_per_call(g, z)
    derived = [-f, f.scale(sc("3/2", -2)), f * g, f + g, f.derivative(),
               f.compose_mobius(sc(2), sc(1), sc(1), sc(1), 0)]
    for h in derived:
        ref = _fresh(h)
        for z in _NODES:
            assert h.eval_complex(z) == ref.eval_complex(z)
            assert h.eval_complex(z) == _converted_per_call(h, z)


def test_float_constant_evaluates():
    c = 0.5 - 2.25j
    s = Scalar.from_complex(c)
    assert s.re == Fraction(c.real) and s.im == Fraction(c.imag)
    f = RationalFunction.from_scalar(s)
    for z in _NODES + _NODES:
        assert f.eval_complex(z) == c


@pytest.mark.parametrize("c", [float("nan"), float("inf"),
                               complex(1.0, float("-inf")),
                               complex(float("nan"), 0.0)])
def test_from_complex_rejects_non_finite(c):
    with pytest.raises(ValueError):
        Scalar.from_complex(c)


# ------------------------------ integer storage of polynomials, complex data

zero_or_gauss_st = st.one_of(st.just(sc(0)), rat_st.map(sc), gauss_st)
poly_st = st.lists(zero_or_gauss_st, max_size=5).map(Polynomial.of)
point_st = st.one_of(rat_st.map(sc), gauss_st)


def _assert_canonical(p):
    """den > 0, gcd 1, no trailing zero, im None iff the value is real."""
    assert type(p.den) is int and p.den > 0
    assert all(type(x) is int for x in p.re + (p.im or ()))
    assert math.gcd(p.den, *p.re, *(p.im or ())) == 1
    if p.im is not None:
        assert len(p.im) == len(p.re)
    assert not p.re or p.re[-1] or (p.im is not None and p.im[-1])
    assert (p.im is None) == all(c.im == 0 for c in p.coeffs)
    if p.is_zero:
        assert (p.re, p.im, p.den) == ((), None, 1)


@settings(max_examples=80, deadline=None)
@given(poly_st, poly_st, point_st)
def test_integer_storage_stays_canonical(p, q, a):
    quotient, _rem = p.divide_linear(a)
    for x in (p, q, p + q, p - q, p * q, p.scale(a), p.derivative(),
              quotient, -p):
        _assert_canonical(x)


@settings(max_examples=80, deadline=None)
@given(poly_st)
def test_coefficient_view_rebuilds_the_same_polynomial(p):
    q = Polynomial.of(p.coeffs)
    assert q == p
    assert hash(q) == hash(p)
    assert (q.re, q.im, q.den) == (p.re, p.im, p.den)


@settings(max_examples=80, deadline=None)
@given(poly_st, point_st)
def test_divide_linear_identity(p, a):
    q, r = p.divide_linear(a)
    assert q * Polynomial.of([-a, sc(1)]) + Polynomial.constant(r) == p
    assert r == p.eval(a)


@settings(max_examples=80, deadline=None)
@given(split_st, poly_st)
def test_partial_fraction_recombination_is_exact(data, extra):
    # the added polynomial lets the numerator outgrow the denominator
    f = _split_rf(data)[2] + RationalFunction.from_poly(extra)
    qpart, terms = partial_fractions(f)
    assert recombine(qpart, terms) == f
    # the decomposition is unique, so its shape is fixed by f
    total = sum(m for _p, m in f.poles)
    assert qpart.degree == max(-1, f.num.degree - total)
    assert terms == [(p, k, c) for p, _m in f.poles
                     for k, c in f.laurent_at(p)]
    for p, m in f.poles:
        at_p = f.laurent_at(p)
        orders = [k for k, _c in at_p]
        assert orders[0] == m  # f is reduced, so the top term is there
        assert orders == sorted(set(orders), reverse=True)
        assert 1 <= orders[-1]
        assert not any(c.is_zero for _k, c in at_p)
        assert f.residue_at(p) == dict(at_p).get(1, sc(0))


def _orders_added(f, g):
    out = dict(f.poles)
    for p, m in g.poles:
        out[p] = out.get(p, 0) + m
    return out


def _reduced_sum(f, g):
    """f + g cross-multiplied by the full denominators, then reduced at
    every pole by from_split."""
    num = f.num * g.den_poly() + g.num * f.den_poly()
    return RationalFunction.from_split(num, _orders_added(f, g))


def _reduced_product(f, g):
    return RationalFunction.from_split(f.num * g.num, _orders_added(f, g))


def _assert_sum_and_product_reduced(f, g):
    for got, want in ((f + g, _reduced_sum(f, g)),
                      (f * g, _reduced_product(f, g))):
        assert got == want
        _assert_canonical(got.num)


@settings(max_examples=60, deadline=None)
@given(split_st, split_st, st.lists(gauss_st, min_size=1, max_size=3))
def test_sum_and_product_equal_the_fully_reduced_form(a, b, kc):
    f, g = _split_rf(a)[2], _split_rf(b)[2]
    k = Polynomial.of(kc)
    _assert_sum_and_product_reduced(f, g)
    if not f.poles:
        return
    p = f.poles[0][0]
    lin = Polynomial.of([-p, sc(1)])
    # equal orders at every pole of f, cancelling at p: f + h = k (z-p) / D
    h = RationalFunction.from_split(k * lin - f.num, f.poles)
    _assert_sum_and_product_reduced(f, h)
    assert (f + h).pole_order_at(p) < f.pole_order_at(p)
    # p is a pole of f only, and the other factor's numerator vanishes there
    others = {q: m for q, m in g.poles if q != p}
    u = RationalFunction.from_split(k * lin, others)
    _assert_sum_and_product_reduced(f, u)
    _assert_sum_and_product_reduced(u, f)
    assert (f * u).pole_order_at(p) < f.pole_order_at(p)


def _horner_over_floats(f, z):
    num = 0j
    for c in reversed(f.num.coeffs):
        num = num * z + complex(float(c.re), float(c.im))
    den = 1 + 0j
    for p, m in f.poles:
        den *= (z - complex(float(p.re), float(p.im))) ** m
    return num / den


@settings(max_examples=60, deadline=None)
@given(split_st)
def test_eval_complex_matches_a_horner_over_floats(data):
    f = _split_rf(data)[2]
    for z in _NODES:
        assert f.eval_complex(z) == _horner_over_floats(f, z)


# ------------------------------ the n-ary combination and per-pole caches

nonzero_gauss_st = gauss_st.filter(lambda s: not s.is_zero)


@st.composite
def lincomb_st(draw):
    """(shape, [(Scalar, RationalFunction), ...], pole) over three
    Gaussian poles: equal top orders that cancel at ``pole``, the same
    poles in every term, mixed or disjoint pole sets, one term, or all
    terms zero (``pole`` is None but for the first shape)."""
    pool = draw(st.lists(gauss_st, min_size=3, max_size=3, unique=True))
    shape = draw(st.sampled_from(
        ["cancel", "shared", "mixed", "disjoint", "one", "zero"]))

    def rf(orders):
        num = Polynomial.of(draw(st.lists(gauss_st, min_size=1, max_size=3)))
        return RationalFunction.from_split(num, orders)

    def orders(poles):
        return {p: draw(st.integers(1, 3)) for p in poles}

    def scalar():
        return draw(nonzero_gauss_st)

    n = draw(st.integers(2, 4))
    if shape == "cancel":
        # f + h = k (z - p) / D: the two top orders at p cancel, and the
        # other terms stay below them there
        p, top = pool[0], draw(st.integers(1, 3))
        f = rf({p: top, pool[1]: draw(st.integers(1, 2))})
        if f.pole_order_at(p) < top:
            f = RationalFunction(Polynomial.one(), ((p, top),))
        lin = Polynomial.of([-p, sc(1)])
        k = Polynomial.of(draw(st.lists(gauss_st, min_size=1, max_size=2)))
        h = RationalFunction.from_split(k * lin - f.num, f.poles)
        s = scalar()
        rest = [(scalar(), rf({p: top - 1, pool[2]: 1} if top > 1
                              else {pool[2]: 2})) for _ in range(n - 2)]
        return shape, [(s, f)] + rest + [(s, h)], (p, top)
    elif shape == "shared":
        poles = orders(pool[:draw(st.integers(1, 3))])
        terms = [(scalar(), RationalFunction(
            Polynomial.of([c, sc(1)]), tuple(sorted(
                poles.items(), key=lambda pm: (pm[0].re, pm[0].im)))))
                 for c in draw(st.lists(gauss_st, min_size=n, max_size=n))]
    elif shape == "mixed":
        terms = [(scalar(), rf(orders(draw(st.lists(
            st.sampled_from(pool), max_size=3, unique=True)))))
                 for _ in range(n)]
    elif shape == "disjoint":
        terms = [(scalar(), rf({pool[k]: draw(st.integers(1, 3))}))
                 for k in range(min(n, 3))]
    elif shape == "one":
        terms = [(scalar(), rf(orders(pool[:2])))]
    else:
        terms = [(sc(0), rf(orders(pool[:2]))),
                 (scalar(), RationalFunction.zero()), (sc(0), rf({}))]
    return shape, terms, None


def _fold(terms):
    """The left fold of + over the scaled terms."""
    acc = RationalFunction.zero()
    for s, f in terms:
        acc = acc + f.scale(s)
    return acc


def _cross_multiplied(terms):
    """sum s f over the product of every denominator, reduced at every
    pole by from_split."""
    orders, num = {}, Polynomial.zero()
    for i, (s, f) in enumerate(terms):
        for p, m in f.poles:
            orders[p] = orders.get(p, 0) + m
        part = f.num.scale(s)
        for j, (_t, g) in enumerate(terms):
            if j != i:
                part = part * g.den_poly()
        num = num + part
    return RationalFunction.from_split(num, orders)


def _assert_reduced(f):
    _assert_canonical(f.num)
    assert [p for p, _m in f.poles] == sorted(
        (p for p, _m in f.poles), key=lambda p: (p.re, p.im))
    for p, m in f.poles:
        assert m > 0 and not f.num.eval(p).is_zero


@settings(max_examples=100, deadline=None)
@given(lincomb_st())
def test_lincomb_equals_the_fold_of_sums(case):
    shape, terms, cancel = case
    got = RationalFunction.lincomb(terms)
    assert got == _fold(terms)
    assert got == _cross_multiplied(terms)
    _assert_reduced(got)
    if cancel is not None:
        p, top = cancel
        assert got.pole_order_at(p) < top
    if shape == "zero":
        assert got.is_zero


def _equal_fresh_poles(f):
    """f over new Scalar objects equal to its poles, with empty caches."""
    return RationalFunction(f.num, tuple((Scalar(p.r, p.i, p.q), m)
                                         for p, m in f.poles))


@settings(max_examples=60, deadline=None)
@given(lincomb_st())
def test_lincomb_over_equal_distinct_poles(case):
    _shape, terms, _cancel = case
    want = RationalFunction.lincomb(terms)  # fills the caches of these poles
    for pick in (lambda k: True, lambda k: k % 2 == 0, lambda k: k % 2 == 1):
        moved = [(s, _equal_fresh_poles(f) if pick(k) else f)
                 for k, (s, f) in enumerate(terms)]
        got = RationalFunction.lincomb(moved)
        assert got == want
        assert hash(got) == hash(want)
        assert got == _cross_multiplied(moved)


# ------------------------------ derivative of a Moebius-moved function


def _quotient_rule(f):
    """(n' D - n D') / D^2 over the expanded denominator D."""
    n, D = f.num, f.den_poly()
    return RationalFunction.from_split(n.derivative() * D - n * D.derivative(),
                                       {p: 2 * m for p, m in f.poles})


@pytest.mark.parametrize("mobius", [
    ("2", "1", "0", "3"),    # z -> (2z + 1)/3 keeps the polynomial part
    ("2", "1", "1", "3"),    # -3 maps to infinity, a pole of f: a new pole
])
def test_derivative_of_a_moved_function_matches_the_quotient_rule(mobius):
    g = sc("1/2", 2)
    # z^2 - 3/2 plus (1 + z/3) / ((z - g)^2 (z + 1))
    f = (RationalFunction.from_poly(poly("-3/2", 0, 1))
         + RationalFunction.from_split(poly(1, "1/3"), {g: 2, sc(-1): 1}))
    moved = f.compose_mobius(*(sc(x) for x in mobius), 0)
    assert any(p.im for p, _m in moved.poles)
    if mobius[2] == "0":
        assert moved.num.degree > sum(m for _p, m in moved.poles)
    df = moved.derivative()
    assert df == _quotient_rule(moved)
    assert dict(df.poles) == {p: m + 1 for p, m in moved.poles}


# ------------------------------------------------------ packed numerators

from affopers.coeffs import (  # noqa: E402
    _combine,
    _conv,
    _kmul,
    _kreduced,
    _ksum,
    _reduced,
    numerator_bits,
    pack_numerator,
    packing_base,
    rebase_numerator,
    unpack_numerator,
)


def _trimmed(re, im, den):
    """A raw numerator in the layout unpack_numerator returns: no trailing
    zero, ``im`` None when every imaginary part is zero, zero as
    ``((), None, 1)``."""
    re, im = list(re), None if im is None else list(im)
    n = len(re)
    while n and not re[n - 1] and (im is None or not im[n - 1]):
        n -= 1
    if not n:
        return (), None, 1
    im = None if im is None or not any(im[:n]) else im[:n]
    return re[:n], im, den


def _base_for(bits):
    """The narrowest base exponent (a multiple of 8) whose packings hold
    a bound of ``bits``: bound < w - 1."""
    return -(-(bits + 2) // 8) * 8


@st.composite
def raw_st(draw, max_bits=120, max_len=7):
    """A Gaussian-integer raw numerator (re, im or None, den)."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    bits = draw(st.integers(min_value=1, max_value=max_bits))
    digit = st.integers(min_value=-(2 ** bits) + 1, max_value=2 ** bits - 1)
    re = draw(st.lists(digit, min_size=n, max_size=n))
    im = draw(st.one_of(st.none(), st.lists(digit, min_size=n, max_size=n)))
    den = draw(st.integers(min_value=1, max_value=10 ** 6))
    return re, im, den


# the reduction's layout: no trailing zero, im None when all zero, and
# nonzero, since zero numerators are skipped before any product or sum
layout_raw_st = raw_st().map(lambda raw: _trimmed(*raw)).filter(
    lambda raw: bool(raw[0]))


def test_packing_base_holds_the_bound_on_a_ladder():
    for bound in range(0, 5000):
        w = packing_base(bound)
        assert w % 8 == 0 and bound < w - 1
        # above 512 bits, a bound fills more than four fifths of its base
        assert w <= 512 or 5 * (bound + 2) > 4 * w
    assert [packing_base(b) for b in (0, 62, 63, 126, 510, 511, 638)] == [
        64, 64, 128, 128, 512, 640, 640]


@settings(max_examples=100, deadline=None)
@given(raw_st(), st.integers(min_value=0, max_value=40))
def test_pack_round_trips(raw, extra):
    re, im, den = raw
    w = _base_for(numerator_bits(raw)) + 8 * (extra // 8)
    x = pack_numerator(raw, w)
    assert x[0] == sum(c << (w * k) for k, c in enumerate(re))
    assert x[3] == numerator_bits(raw) < w - 1
    assert x[5] == w
    assert unpack_numerator(x) == _trimmed(re, im, den)
    assert bool(x[0] or x[1]) == any(re + (im or []))
    # by default at the ladder's base for the bound
    assert pack_numerator(raw)[5] == packing_base(numerator_bits(raw))


def test_pack_edges():
    w = 64
    top = 2 ** (w - 2) - 1  # one bit below the base: bound w - 2 < w - 1
    for raw in (([top, -top, 0, -top], None, 3),
                ([5, -top], [top, -1], 7),
                ([-1], None, 1),
                ([0, 0, 0], [0, 2, -top], 5)):
        x = pack_numerator(raw, w)
        assert unpack_numerator(x) == _trimmed(*raw)
    # a real part of zeros and a nonzero imaginary part is nonzero
    x = pack_numerator(([0, 0], [1, -2], 1), w)
    assert x[0] == 0 and x[1] and (x[0] or x[1])
    assert unpack_numerator(x) == ([0, 0], [1, -2], 1)
    assert _ksum([(Scalar(1, 0, 2), x)])[1]
    assert unpack_numerator(_kreduced(x)) == ([0, 0], [1, -2], 1)
    # a digit of w - 1 bits does not fit
    with pytest.raises(ValueError):
        pack_numerator(([2 ** (w - 2)], None, 1), w)


@settings(max_examples=100, deadline=None)
@given(raw_st(), st.integers(min_value=0, max_value=80),
       st.integers(min_value=0, max_value=80))
def test_rebase_equals_packing_at_the_new_base(raw, e1, e2):
    b = numerator_bits(raw)
    w, w2 = _base_for(b) + 8 * (e1 // 8), _base_for(b) + 8 * (e2 // 8)
    assert (rebase_numerator(pack_numerator(raw, w), w2)
            == pack_numerator(raw, w2))
    if b > 1:
        with pytest.raises(ValueError):
            rebase_numerator(pack_numerator(raw, w), _base_for(b) - 8)


def _product_bound(a, b):
    t = min(len(a[0]), len(b[0]))
    if a[1] and b[1]:
        t += t
    return numerator_bits(a) + numerator_bits(b) + (t - 1).bit_length()


@settings(max_examples=100, deadline=None)
@given(layout_raw_st, layout_raw_st, st.integers(min_value=0, max_value=3))
def test_packed_product_equals_conv(a, b, extra):
    bound = _product_bound(a, b)
    want = _trimmed(*_conv(a[0], a[1], b[0], b[1]), a[2] * b[2])
    # at a common base that holds the product, the product stays there
    w = _base_for(bound) + 8 * extra
    z = _kmul(pack_numerator(a, w), pack_numerator(b, w))
    assert z[3] == bound and z[5] == w
    assert unpack_numerator(z) == want
    # each operand at its own narrowest base: the product is taken at the
    # wider of the two where that holds its bound, else at the ladder's
    # base for it, and never wraps
    x, y = (pack_numerator(r, _base_for(numerator_bits(r))) for r in (a, b))
    z = _kmul(x, y)
    wide = max(x[5], y[5])
    assert z[5] == (wide if bound < wide - 1 else packing_base(bound))
    assert unpack_numerator(z) == want


def test_packed_product_at_the_base_widens():
    # coefficients one bit below the base square to a bound at 2w - 3, so
    # the product's bound reaches w - 1 and must widen
    w = 64
    top = 2 ** (w - 2) - 1
    x = pack_numerator(([top, -top], None, 1), w)
    z = _kmul(x, x)
    assert z[3] >= w - 1 and z[5] == packing_base(z[3]) > w
    assert unpack_numerator(z) == ([top * top, -2 * top * top, top * top],
                                   None, 1)


scalar_st = st.builds(
    lambda r, i, q: Scalar.exact(Fraction(r, q), Fraction(i, q)),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=12))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(scalar_st, layout_raw_st,
                          st.integers(min_value=0, max_value=2)),
                min_size=1, max_size=5))
def test_packed_sum_equals_combine(terms):
    # the items at mixed bases, each the narrowest for its digits or wider
    terms = [(s, raw, e) for s, raw, e in terms if not s.is_zero]
    if not terms:
        return
    items = [(s, pack_numerator(raw, _base_for(numerator_bits(raw)) + 64 * e))
             for s, raw, e in terms]
    got = _ksum(items)
    want = _combine([(s.r, s.i, s.q, *raw) for s, raw, _e in terms])
    assert unpack_numerator(got) == _trimmed(*want)
    assert bool(got[0] or got[1]) == bool(want[0])
    if got[0] or got[1]:
        assert got[3] < got[5] - 1
        assert got[5] >= max(x[5] for _s, x in items)


def test_packed_sum_at_the_base_widens():
    # two digits of w - 2 bits sum to w - 1 bits: the sum is taken again
    # at a wider base, and no digit wraps
    w = 64
    top = 2 ** (w - 2) - 1
    raw = ([top, -top, 3], None, 1)
    x = pack_numerator(raw, w)
    one = Scalar(1, 0, 1)
    got = _ksum([(one, x), (one, x)])
    assert got[5] == packing_base(got[3]) > w
    assert unpack_numerator(got) == ([2 * top, -2 * top, 6], None, 1)
    # a single item scaled past the base widens too
    got = _ksum([(Scalar(3, 0, 1), x)])
    assert got[5] > w
    assert unpack_numerator(got) == ([3 * top, -3 * top, 9], None, 1)


@settings(max_examples=100, deadline=None)
@given(layout_raw_st, st.integers(min_value=1, max_value=10 ** 4))
def test_packed_content_gcd_equals_reduced(raw, k):
    # a common factor k of every numerator and the denominator
    re, im, den = raw
    raw = ([k * c for c in re], None if im is None else [k * c for c in im],
           k * den)
    w = _base_for(numerator_bits(raw)) + 64
    got = _kreduced(pack_numerator(raw, w))
    want = _reduced(*_trimmed(*raw))
    assert unpack_numerator(got) == _trimmed(*want)
    assert got[3] >= numerator_bits(want)
    assert got[5] == w
    if k > 1:
        # the digits were read: the bound is exact
        assert got[3] == numerator_bits(want)
