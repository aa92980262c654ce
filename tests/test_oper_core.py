"""Gauge reduction tests: exact erasure, invariance of the reduced
coefficients, closed-form first coefficient, factor-list composition,
coordinate changes and residual transformations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affopers import coeffs, oper_core
from affopers.affine_algebra import GradedVector, Weight, build_algebra
from affopers.coeffs import Polynomial, RationalFunction, Scalar
from affopers.miura import MiuraData, build_miura, erase_root, v1_predicted
from affopers.oper_core import (
    Connection,
    change_coordinate,
    gauge_transform,
    quasi_canonicalize,
    residual_gauge,
    twisted_class,
    twisted_derivative,
    v1_direct,
)

ZERO = RationalFunction.zero()
ONE = RationalFunction.one()


def _pole(q, at):
    return RationalFunction.simple_pole(Scalar.parse(q), Scalar.parse(at))


def _poly(*coeffs):
    return RationalFunction.from_poly(
        Polynomial.of([Scalar.parse(c) for c in coeffs]))


def _rand_rf(rng, allow_poly=True):
    f = ZERO
    for at in (0, 1, -2):
        if rng.random() < 0.5:
            f = f + _pole(rng.randint(-3, 3) or 1, at)
    if allow_poly and rng.random() < 0.4:
        f = f + _poly(rng.randint(-2, 2), rng.randint(-2, 2))
    if f.is_zero:
        f = _pole(1, 0)
    return f


def _with_twist(model, u, phi):
    """d + (p_-1 + u) dz for a u without derivation part, given the twist
    phi: u then carries -phi/h on the derivation."""
    return Connection(model, u.add_rho(
        phi.scale(Scalar.exact(Fraction(-1, model.dual_coxeter)))))


def _bch(x, y):
    """log(exp(x) exp(y)) through 4-letter terms: exact when both sit in
    grades >= 1 and the grading window is at most 4."""
    xy = x.bracket(y)
    return GradedVector.lincomb(x.model, (
        (Scalar.one(), x), (Scalar.one(), y), (Scalar.exact("1/2"), xy),
        (Scalar.exact("1/12"), x.bracket(xy)),
        (Scalar.exact("1/12"), y.bracket(y.bracket(x))),
        (Scalar.exact("-1/24"), y.bracket(x.bracket(xy)))))


def _rand_connection(model, rng, max_grade=1, with_delta=False):
    u = GradedVector.zero(model)
    for g in range(0, max_grade + 1):
        for lab, _p in model.basis(g):
            if rng.random() < 0.6:
                u = u.add_monomial(g, lab, _rand_rf(rng))
    if with_delta and rng.random() < 0.7:
        u = u.add_delta(_rand_rf(rng))
    phi = _rand_rf(rng, allow_poly=False)
    return _with_twist(model, u, phi)


def _rand_gauge(model, rng, grades=(1, 2)):
    m = GradedVector.zero(model)
    for g in grades:
        for lab, _p in model.basis(g):
            if rng.random() < 0.5:
                m = m.add_monomial(g, lab, _rand_rf(rng))
    if m.is_zero:
        m = m.add_monomial(1, model.basis(1)[0][0], _pole(1, 0))
    return m


@pytest.fixture(scope="module")
def a1():
    return build_algebra({"type": "A", "rank": 1, "cutoff": 5})


@pytest.fixture(scope="module")
def a2():
    return build_algebra({"type": "A", "rank": 2, "cutoff": 6})


# ----------------------------------------------------------------- gauging


def test_simple_pole_erases_exactly(a2):
    # d + (p_-1 + alpha_1/(z-2)) dz gauged by exp(-e_1/(z-2)) is d + p_-1 dz:
    # the (z-2)^-2 terms cancel between -m' and [m, [m, p_-1]]/2 + [m, u_0]
    x = Scalar.exact(2)
    pole = RationalFunction.simple_pole(Scalar.one(), x)
    u = Weight.simple_root(a2, 1).to_vector(scale=pole)
    conn = Connection(a2, u)
    m = a2.simple_raising(1).scale(pole.scale(Scalar.exact(-1)))
    got = gauge_transform(conn, m)
    assert got.u.is_zero


def test_gauge_preserves_twist(a2):
    rng = random.Random(5)
    for _ in range(5):
        conn = _rand_connection(a2, rng)
        m = _rand_gauge(a2, rng)
        assert gauge_transform(conn, m).phi == conn.phi


def test_gauge_parameter_validation(a2):
    conn = Connection(a2, GradedVector.zero(a2))
    bad = GradedVector.zero(a2).add_delta(ONE)
    with pytest.raises(ValueError):
        gauge_transform(conn, bad)
    bad2 = a2.pminus()
    with pytest.raises(ValueError):
        gauge_transform(conn, bad2)


def test_connection_rejects_negative_grades(a2):
    with pytest.raises(ValueError):
        Connection(a2, a2.pminus())


# ------------------------------------------------------------ canonical form


def test_canonical_form_shape(a2):
    rng = random.Random(11)
    conn = _rand_connection(a2, rng, max_grade=2, with_delta=True)
    qc = quasi_canonicalize(conn)
    assert qc.exponents() == [1, 2, 4, 5]
    assert not qc.truncated
    # reconstruction carries no center and no complement component
    back = qc.connection()
    assert back.u.delta.is_zero
    assert back.phi == conn.phi
    # canonicalizing the reconstruction is a no-op
    again = quasi_canonicalize(back)
    assert again.v == qc.v
    assert not again.gauge


def test_first_coefficient_closed_form(a1, a2):
    rng = random.Random(17)
    for model in (a1, a2):
        for _ in range(15):
            conn = _rand_connection(model, rng, max_grade=2, with_delta=True)
            qc = quasi_canonicalize(conn)
            assert qc.v[1] == v1_direct(conn)


def test_canonical_coefficients_gauge_invariant(a2):
    # v_1 is strictly invariant: a residual direction along p_1 would leave
    # a center term behind ([p_1, p_-1] is central, the rest of the kernel
    # commutes with p_-1).  Higher coefficients are invariant exactly up to
    # twisted derivatives, and the shift must be recoverable.
    rng = random.Random(23)
    for _ in range(6):
        conn = _rand_connection(a2, rng, with_delta=True)
        m = _rand_gauge(a2, rng)
        qc1 = quasi_canonicalize(conn)
        qc2 = quasi_canonicalize(gauge_transform(conn, m))
        assert qc1.phi == qc2.phi
        assert qc1.v[1] == qc2.v[1]
        for j in (2, 4):
            diff = qc1.v[j] - qc2.v[j]
            if diff.is_zero:
                continue
            nf, _f = twisted_class(qc1.phi, j, 3, diff)
            assert nf.is_zero, (j, diff)


def test_factor_list_matches_single_exponential():
    # Composing the ordered factors through the 4-letter series is exact in
    # grades <= 4 (a bracket word of length 5 in grade >= 1 letters sits in
    # grade >= 5).  The combined exponential's unknown grade-5+ tail still
    # feeds grade 4 through [. , p_-1], so the comparison stops at grade 3.
    model = build_algebra({"type": "A", "rank": 2, "cutoff": 4})
    rng = random.Random(29)
    for _ in range(5):
        conn = _rand_connection(model, rng, with_delta=True)
        qc = quasi_canonicalize(conn)
        assert len(qc.gauge) >= 3
        total = qc.gauge[0]
        for f in qc.gauge[1:]:
            total = _bch(f, total)
        direct = gauge_transform(conn, total)
        want = qc.connection()
        assert direct.u.delta == want.u.delta
        assert direct.u.rho == want.u.rho
        for g in range(0, 4):
            assert direct.u.component(g) == want.u.component(g), g


def _replay_inputs(a1, a2):
    """Connections of every shape the reduction's fixed denominators meet:
    random rank 1 and 2 data; Moebius-moved data, whose image of infinity
    gets c_p = 3 (a polynomial part) or 2 (a constant part; Miura data
    alone vanish at infinity and give 1); Gaussian-rational Miura data;
    Miura data whose weights have the coprime denominators 7, 11 and 13,
    with one Gaussian point, so the raw numerators carry denominators that
    never cancel; rank 3; and an erase_root output, which carries grades
    above the cutoff."""
    rng = random.Random(43)
    for model in (a1, a2):
        for _ in range(3):
            yield _rand_connection(model, rng, max_grade=2, with_delta=True)
    mob = (1, 2, 1, 4)  # z = (s + 2)/(s + 4)
    conn = _rand_connection(a1, rng, max_grade=1, with_delta=True)
    yield change_coordinate(conn, mob)
    real = MiuraData.make(a2, [("0", ["1", "-1/2"], "1", "0"),
                               ("3", ["0", "2"], "2", "1/2")], [("5", 2)])
    conn = Connection(a2, build_miura(real).u.add_monomial(0, ("h", 1), ONE))
    yield change_coordinate(conn, mob)
    gauss = MiuraData.make(a2, [
        (["0", "1"], [["1/2", "1"], "-1"], "1", ["0", "1/2"]),
        ("2", ["1", ["0", "-2/3"]], "2", "1"),
    ], [(["1", "-1"], 1)])
    yield build_miura(gauss)
    coprime = MiuraData.make(a2, [
        ("0", ["1/7", "-3/11"], "2/13", "0"),
        (["1", "2"], ["-2/11", "5/7"], "1", "1/13"),
        ("-1", ["4/13", "1/7"], "3/11", "0"),
    ], [("2", 1)])
    yield build_miura(coprime)
    a3 = build_algebra({"type": "A", "rank": 3, "cutoff": 5})
    yield _rand_connection(a3, rng, max_grade=1, with_delta=True)
    a2k3 = build_algebra({"type": "A", "rank": 2, "cutoff": 3})
    conn = _rand_connection(a2k3, rng, max_grade=2, with_delta=True)
    erased = erase_root(conn, Scalar.parse(["1", "1"]), 1)
    assert max(erased.u.parts) > a2k3.cutoff
    yield erased


def test_bounded_reduction_matches_unbounded_replay(a1, a2):
    # The reduction never computes brackets above the cutoff.  Replaying
    # its factors through the unbounded public gauge_transform must land
    # on the same canonical form in every grade <= cutoff: each v_j
    # (j >= 2 included, which no closed form checks), no complement
    # component and no center.
    for conn in _replay_inputs(a1, a2):
        model = conn.model
        qc = quasi_canonicalize(conn)
        assert any(not f.is_zero for j, f in qc.v.items() if j >= 2)
        replayed = conn
        for m in qc.gauge:
            replayed = gauge_transform(replayed, m)
        want = qc.connection()
        assert replayed.u.delta == want.u.delta
        assert replayed.u.rho == want.u.rho
        for g in range(0, model.cutoff + 1):
            assert replayed.u.component(g) == want.u.component(g), g


def test_reduction_runs_on_numerators_alone(a1, a2, monkeypatch):
    # Between lifting the input and lowering the output, the reduction
    # makes no RationalFunction product or sum: every step is on the
    # numerators over the fixed denominators.  Inside a gauge step the
    # numerators stay packed: no Polynomial product, no normalization and
    # no product or sum on integer lists.
    inputs = list(_replay_inputs(a1, a2))
    want = [quasi_canonicalize(conn) for conn in inputs]

    def refuse(*_args):
        raise AssertionError("rational-function arithmetic in the reduction")

    def refuse_in_step(*_args):
        raise AssertionError("normalized polynomial in a gauge step")

    def refuse_lists(*_args):
        raise AssertionError("integer-list kernel in a gauge step")

    step = oper_core._gauge_step

    def guarded_step(*args):
        with monkeypatch.context() as m:
            m.setattr(Polynomial, "__mul__", refuse_in_step)
            m.setattr(coeffs, "_make", refuse_in_step)
            for name in ("_conv", "_combine"):
                m.setattr(coeffs, name, refuse_lists)
                # the names as oper_core would hold them, had it imported
                # them
                m.setattr(oper_core, name, refuse_lists, raising=False)
            return step(*args)

    monkeypatch.setattr(RationalFunction, "__mul__", refuse)
    monkeypatch.setattr(RationalFunction, "lincomb", staticmethod(refuse))
    monkeypatch.setattr(oper_core, "_gauge_step", guarded_step)
    for conn, qc in zip(inputs, want):
        got = quasi_canonicalize(conn)
        assert got.v == qc.v
        assert [m.parts for m in got.gauge] == [m.parts for m in qc.gauge]


def test_gauge_factors_are_lowered_once_on_first_read(a2, monkeypatch):
    # quasi_canonicalize lowers only the v_j; each gauge factor entry is
    # lowered on the first read of .gauge, once, and residual_gauge passes
    # the unread factors on without lowering them
    rng = random.Random(53)
    conn = _rand_connection(a2, rng, max_grade=2, with_delta=True)
    want = [m.parts for m in quasi_canonicalize(conn).gauge]
    calls = []
    lower = oper_core.lower_numerator

    def counted(raw, frame, k):
        calls.append(k)
        return lower(raw, frame, k)

    monkeypatch.setattr(oper_core, "lower_numerator", counted)
    qc = quasi_canonicalize(conn)
    assert sorted(calls) == sorted(j + 1 for j in qc.v)
    calls.clear()
    moved = residual_gauge(qc, {2: _pole(1, 0)})
    assert calls == []
    factors = qc.gauge
    entries = [a for parts in want for a, comp in parts.items()
               for _ in comp]
    assert len(entries) > len(qc.v)
    assert calls == entries
    assert [m.parts for m in factors] == want
    calls.clear()
    assert qc.gauge is factors
    assert calls == []
    # the moved form lowers its own copy, as unread as it was passed on
    assert [m.parts for m in moved.gauge] == want
    assert calls == entries


def test_wide_rationals_widen_the_base_and_match_the_replay(
        a1, a2, monkeypatch):
    # Weights of about 200 bits (100-bit numerators over 100-bit
    # denominators) grow coefficients of thousands of bits, so products
    # and sums outgrow the bases of their operands and widen, and some
    # sums reach their items' base and are taken again at a wider one.
    # The result must still be the unbounded replay's, and v_1 that of
    # both closed forms.
    rng = random.Random(47)

    def big():
        return f"{rng.getrandbits(100) - 2 ** 99}/{rng.getrandbits(100) | 1}"

    moves, resums = [], []
    rebase, ksum = coeffs.rebase_numerator, coeffs._ksum

    def counted_rebase(x, w2):
        if x[0] or x[1]:
            moves.append((x[5], w2))
        return rebase(x, w2)

    def counted_ksum(items, w=None):
        # oper_core holds its own name for _ksum, so only the sums that
        # _ksum itself takes again come through here; those at a base
        # wider than every item's are the ones whose bound reached it
        if w is not None and w > max(x[5] for _s, x in items):
            resums.append(w)
        return ksum(items, w)

    monkeypatch.setattr(coeffs, "rebase_numerator", counted_rebase)
    monkeypatch.setattr(oper_core, "rebase_numerator", counted_rebase)
    monkeypatch.setattr(coeffs, "_ksum", counted_ksum)
    for model in (a1, a2):
        d = MiuraData.make(model, [
            (z, [big() for _ in range(model.rank)], big(), big())
            for z in ("0", "1", ["-1", "2"])], [("1/3", 1)])
        conn = build_miura(d)
        qc = quasi_canonicalize(conn)
        replayed = conn
        for m in qc.gauge:
            replayed = gauge_transform(replayed, m)
        want = qc.connection()
        assert replayed.u.delta == want.u.delta
        for g in range(0, model.cutoff + 1):
            assert replayed.u.component(g) == want.u.component(g), g
        assert qc.v[1] == v1_direct(conn) == v1_predicted(d)
    assert any(w2 > w for w, w2 in moves)
    assert resums


def test_center_coefficient_removed(a1):
    pole = _pole(3, 1)
    u = GradedVector.zero(a1).add_delta(pole)
    conn = _with_twist(a1, u, _pole(2, 0))
    qc = quasi_canonicalize(conn)
    assert qc.connection().u.delta.is_zero
    assert qc.v[1] == v1_direct(conn)


# -------------------------------------------------------- coordinate change


def _mobius_inverse(m):
    a, b, c, d = [Scalar.parse(x) for x in m]
    return (d, -b, -c, a)


def test_coordinate_change_roundtrip(a2):
    rng = random.Random(31)
    mob = (2, 1, 1, -1)
    for _ in range(5):
        conn = _rand_connection(a2, rng, with_delta=True)
        back = change_coordinate(change_coordinate(conn, mob),
                                 _mobius_inverse(mob))
        assert back == conn


def test_coordinate_change_twist_law(a2):
    # phi~ = (phi o mu) mu' + h mu''/mu' and an affine map has no correction
    conn = _with_twist(a2, GradedVector.zero(a2), _pole(1, 0))
    moved = change_coordinate(conn, (1, 5, 0, 1))  # z = s + 5
    assert moved.phi == _pole(1, -5)


def test_coordinate_change_residue_at_the_image_of_infinity(a1, a2):
    # phi dz has residue -K at infinity, which mu sends to -d/c, and the
    # affine term h mu''/mu' = -2h/(s + d/c) adds -2h there
    rng = random.Random(29)

    def rat():
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"

    for n in range(20):
        model = (a1, a2)[n % 2]
        zs = rng.sample(range(-6, 7), 3)
        points = [([str(z), rat()] if n % 4 == 1 else str(z),
                   [rat() for _ in range(model.rank)], rat(), "0")
                  for z in zs]
        # a half-integer root avoids the points, whose real parts are integers
        d = MiuraData.make(model, points, [(f"{2 * zs[0] + 1}/2", 1)])
        q = quasi_canonicalize(build_miura(d))
        a = b = c = dd = 0
        while not c or a * dd == b * c:
            a, b, c, dd = (rng.randint(-5, 5) for _ in range(4))
        moved = change_coordinate(q, (a, b, c, dd))
        K = sum((q.phi.residue_at(p) for p, _m in q.phi.poles),
                Scalar.zero())
        h = Scalar.exact(model.dual_coxeter)
        at = Scalar.exact(Fraction(-dd, c))
        assert moved.phi.residue_at(at) == -(K + h + h)


def test_coordinate_change_commutes_with_reduction():
    model = build_algebra({"type": "A", "rank": 2, "cutoff": 4})
    rng = random.Random(37)
    mob = (1, 2, 1, 4)  # z = (s + 2)/(s + 4)
    for _ in range(5):
        conn = _rand_connection(model, rng, with_delta=True)
        route_a = quasi_canonicalize(change_coordinate(conn, mob))
        route_b = change_coordinate(quasi_canonicalize(conn), mob)
        assert route_a.phi == route_b.phi
        assert route_a.v == route_b.v


# ----------------------------------------------------------- residual gauge


def test_residual_gauge_law(a2):
    rng = random.Random(41)
    conn = _rand_connection(a2, rng, with_delta=True)
    qc = quasi_canonicalize(conn)
    f = _pole(2, 1) + _poly(1, 3)
    moved = residual_gauge(qc, {2: f})
    want = qc.v[2] - twisted_derivative(qc.phi, 2, 3, f)
    assert moved.v[2] == want
    assert moved.v[1] == qc.v[1]
    with pytest.raises(ValueError):
        residual_gauge(qc, {1: f})
    with pytest.raises(ValueError):
        residual_gauge(qc, {3: f})  # 3 is not an exponent of A_2
    first = residual_gauge(qc, {1: f}, allow_first=True)
    assert first.v[1] == qc.v[1] - twisted_derivative(qc.phi, 1, 3, f)


def test_residual_parameter_recovery(a2):
    phi = _pole(2, 0) + _pole(-1, 1)
    rhs_f = _pole(3, 1) + _poly(0, 2)
    rhs = twisted_derivative(phi, 2, 3, rhs_f)
    nf, got = twisted_class(phi, 2, 3, rhs)
    assert got == rhs_f
    assert nf.is_zero


def test_residual_recovery_fails_cleanly(a2):
    phi = _pole(2, 0)
    rhs = _pole(1, 5)  # a simple pole where phi is regular
    nf, _f = twisted_class(phi, 2, 3, rhs)
    assert not nf.is_zero


# ----------------------------------------------------- twisted cohomology

# twist poles are drawn from the first entries and the ordinary point is the
# next one.  The twist is drawn through kappa_p = j res_p(phi) / hv, a
# Gaussian rational or a small integer, so that resonances (kappa_p = -M or
# j K / hv = M for a positive integer M) are common.
_POINTS = [Scalar.parse(p) for p in ("0", "1", "-2", ["1", "1"], "3/2")]
_rat_st = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
_scalar_st = st.builds(Scalar.exact, _rat_st,
                       st.one_of(st.just(Fraction(0)), _rat_st))
# (point index or None for a power of z, order or power, coefficient)
_terms_st = st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 3)),
                               st.integers(0, 3), _scalar_st), max_size=5)
_kappa_st = st.one_of(st.integers(-3, 3).map(Scalar.exact), _scalar_st)
_twist_st = st.tuples(
    st.permutations(_POINTS),
    st.lists(_kappa_st.filter(lambda s: not s.is_zero),
             min_size=1, max_size=3),
    st.integers(1, 4), st.integers(2, 4))


def _twist(points, kappas, j, hv):
    phi = ZERO
    for p, k in zip(points, kappas):
        phi = phi + RationalFunction.simple_pole(
            k * Scalar.exact(hv) / Scalar.exact(j), p)
    return phi


def _monomial_sum(points, terms):
    """Poles of order n + 1 at the given points, and powers z^n."""
    f = ZERO
    for i, n, c in terms:
        if i is None:
            f = f + RationalFunction.from_poly(
                Polynomial.of([Scalar.zero()] * n + [c]))
        else:
            f = f + RationalFunction.from_split(
                Polynomial.constant(c), {points[i % len(points)]: n + 1})
    return f


@settings(max_examples=40, deadline=None)
@given(_twist_st, _terms_st)
def test_twisted_class_splits_exactly(twist, terms):
    points, kappas, j, hv = twist
    phi = _twist(points, kappas, j, hv)
    g = _monomial_sum(points[:len(kappas) + 1], terms)
    nf, f = twisted_class(phi, j, hv, g)
    assert nf + twisted_derivative(phi, j, hv, f) == g


@settings(max_examples=40, deadline=None)
@given(_twist_st, _terms_st, _terms_st)
def test_twisted_class_invariant_under_residual_gauges(twist, terms, shift):
    points, kappas, j, hv = twist
    phi = _twist(points, kappas, j, hv)
    pts = points[:len(kappas) + 1]
    g = _monomial_sum(pts, terms)
    h = _monomial_sum(pts, shift)
    moved = g + twisted_derivative(phi, j, hv, h)
    nf, _f = twisted_class(phi, j, hv, g)
    assert twisted_class(phi, j, hv, moved)[0] == nf


def test_twisted_class_one_resonance():
    # kappa_0 = 2 (-3) / 3 = -2: the image of z^-2 has no z^-3 term, and the
    # class of this exact form is zero only modulo that relation
    phi = _pole(-3, 0) + _pole(1, 1)
    g = twisted_derivative(phi, 2, 3, RationalFunction.from_split(
        Polynomial.one(), {Scalar.zero(): 2}))
    nf, f = twisted_class(phi, 2, 3, g)
    assert nf.is_zero
    assert twisted_derivative(phi, 2, 3, f) == g


def test_twisted_class_two_resonances():
    # kappa_-2 = -2 and kappa_1 = -1: two relations, solved together
    phi = _pole(-6, -2) + _pole(4, 0) + _pole(-3, 1)
    rng = random.Random(53)
    for _ in range(40):
        h = ZERO
        for at in (-2, 0, 1, 5):
            for n in (1, 2, 3):
                if rng.random() < 0.4:
                    h = h + RationalFunction.from_split(
                        Polynomial.constant(Scalar.exact(rng.randint(-4, 4))),
                        {Scalar.exact(at): n})
        h = h + _poly(rng.randint(-3, 3), rng.randint(-3, 3))
        g = twisted_derivative(phi, 1, 3, h)
        nf, f = twisted_class(phi, 1, 3, g)
        assert nf.is_zero
        assert twisted_derivative(phi, 1, 3, f) == g
    # a simple pole where phi is regular is never exact
    nf, _f = twisted_class(phi, 1, 3, g + _pole(1, 7))
    assert not nf.is_zero
    assert nf == twisted_class(phi, 1, 3, _pole(1, 7))[0]


def test_twisted_class_rejects_other_twists():
    g = _pole(1, 2)
    double = RationalFunction.from_split(Polynomial.one(), {Scalar.zero(): 2})
    with pytest.raises(ValueError):
        twisted_class(double, 2, 3, g)
    with pytest.raises(ValueError):
        twisted_class(_pole(1, 0) + _poly(1), 2, 3, g)
