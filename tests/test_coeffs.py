"""Scalar/polynomial/rational-function layer.

Frozen expected values in this file were produced by the independent sympy
oracle in tests/oracles/gen_coeffs_expected.py.
"""

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


def test_poly_divmod_identity():
    a = poly(1, 0, -3, 2, 1)
    b = poly(-1, 1)
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


coeff_st = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(coeff_st, min_size=1, max_size=6),
    st.lists(coeff_st, min_size=1, max_size=4),
)
def test_poly_divmod_property(ac, bc):
    a = Polynomial.of([sc(c) for c in ac])
    b = Polynomial.of([sc(c) for c in bc])
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


def test_poly_shift_matches_evaluation():
    p = poly(2, -1, 0, 3)
    a = sc("2/3")
    q = p.shift(a)
    for x in [sc(0), sc(1), sc(-2), sc("1/5")]:
        assert q.eval(x) == p.eval(x + a)


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


def _textbook(x, y):
    """(a + bi)(c + di) = (ac - bd) + (ad + bc)i on the rational parts."""
    a, b, c, d = x.re, x.im, y.re, y.im
    return a * c - b * d, a * d + b * c


# each operand is either forced real or a general Gaussian rational, so the
# real-real, mixed and Gaussian-Gaussian cases all come up
real_flags_st = st.tuples(st.booleans(), st.booleans())
parts_st = st.lists(st.tuples(rat_st, rat_st), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(real_flags_st, st.tuples(rat_st, rat_st), st.tuples(rat_st, rat_st))
def test_exact_scalar_product_matches_textbook(flags, xs, ys):
    x = _operand(*xs, flags[0])
    y = _operand(*ys, flags[1])
    got = x * y
    assert (got.re, got.im) == _textbook(x, y)


@settings(max_examples=80, deadline=None)
@given(real_flags_st, parts_st, parts_st)
def test_exact_polynomial_product_matches_textbook(flags, xs, ys):
    a = Polynomial.of([_operand(re, im, flags[0]) for re, im in xs])
    b = Polynomial.of([_operand(re, im, flags[1]) for re, im in ys])
    want = [[0, 0] for _ in range(len(a.coeffs) + len(b.coeffs) - 1)]
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            re, im = _textbook(x, y)
            want[i + j][0] += re
            want[i + j][1] += im
    assert a * b == Polynomial.of([sc(re, im) for re, im in want])


pole_st = st.sampled_from([-3, -1, 0, 1, 2, 4])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(coeff_st, min_size=1, max_size=4),
    st.dictionaries(pole_st, st.integers(min_value=1, max_value=2),
                    min_size=1, max_size=3),
)
def test_partial_fraction_recombination_is_exact(nc, poles):
    num = Polynomial.of([sc(c) for c in nc])
    f = rf_split(num, poles)
    qpart, terms = partial_fractions(f)
    assert recombine(qpart, terms) == f


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
    g = f.compose_mobius(sc(2), sc(1), sc(1), sc(-1))
    expected = rf_split(poly("2/3", "2/3", "5/3"), {1: 1})
    assert g == expected


def test_compose_mobius_roundtrip():
    rng = random.Random(3)
    for _ in range(8):
        num = poly(*[rng.randint(-4, 4) for _ in range(3)])
        f = rf_split(num if not num.is_zero else poly(1), {0: 1, 3: 1})
        a, b, c, d = sc(2), sc(1), sc(1), sc(1)  # det = 1
        # inverse map has matrix (d, -b; -c, a)
        g = f.compose_mobius(a, b, c, d).compose_mobius(d, -b, -c, a)
        assert g == f


def test_compose_mobius_translation_and_scaling():
    f = rf_split(poly(0, 1), {1: 2})  # z/(z-1)^2
    t = f.compose_mobius(sc(1), sc(5), sc(0), sc(1))  # z -> z + 5
    assert t == rf_split(poly(5, 1), {-4: 2})
    s = f.compose_mobius(sc(3), sc(0), sc(0), sc(1))  # z -> 3z
    assert s == rf_split(poly(0, "1/3"), {"1/3": 2})  # 3z/(3z-1)^2


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
    assert df.pole_dict() == {p: m + 1 for p, m in f.poles}
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
               f.compose_mobius(sc(2), sc(1), sc(1), sc(1))]
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
