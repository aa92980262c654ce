"""Structure tests for the graded loop algebra layer.

Frozen dimension tables, kernel vectors and exponent multisets come from
tests/oracles/gen_affine_expected.py (brute-force sympy enumeration).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affopers.affine_algebra import (
    GradedVector,
    Weight,
    build_algebra,
    exponents,
    normalize_principal_basis,
    principal_decomposition,
)
from affopers.coeffs import RationalFunction, Scalar


def _const(q):
    return RationalFunction.from_scalar(Scalar.parse(q))


def _as_scalar(f):
    return f.eval(Scalar.zero())


@pytest.fixture(scope="module")
def a1():
    return build_algebra({"type": "A", "rank": 1, "cutoff": 9})


@pytest.fixture(scope="module")
def a2():
    return build_algebra({"type": "A", "rank": 2, "cutoff": 8})


@pytest.fixture(scope="module")
def a3():
    return build_algebra({"type": "A", "rank": 3, "cutoff": 6})


# ------------------------------------------------------------ bases and dims


def test_build_algebra_validates():
    with pytest.raises(NotImplementedError):
        build_algebra({"type": "D", "rank": 4, "cutoff": 5})
    with pytest.raises(ValueError):
        build_algebra({"type": "A", "rank": 0, "cutoff": 5})
    model = build_algebra('{"type": "A", "rank": 2, "cutoff": 8}')
    assert model.rank == 2 and model.cutoff == 8
    assert model.descriptor() == {"type": "A", "rank": 2, "cutoff": 8}


def test_slice_dimensions(a1, a2, a3):
    expect1 = {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1, 7: 2, 8: 1, 9: 2, 10: 1}
    expect2 = {0: 2, 1: 3, 2: 3, 3: 2, 4: 3, 5: 3, 6: 2, 7: 3, 8: 3, 9: 2}
    expect3 = {0: 3, 1: 4, 2: 4, 3: 4, 4: 3, 5: 4, 6: 4, 7: 4}
    for model, expect in ((a1, expect1), (a2, expect2), (a3, expect3)):
        for g, d in expect.items():
            assert model.dim_loop(g) == d
            assert model.dim_loop(-g) == d
        assert model.dim(0) == expect[0] + 1  # delta


def test_exponent_sets(a1, a2, a3):
    assert exponents(a1) == [1, 3, 5, 7, 9]
    assert exponents(a2) == [1, 2, 4, 5, 7, 8]
    assert exponents(a3) == [1, 2, 3, 5, 6]


def test_exponents_periodic(a2):
    exps = set(exponents(a2))
    for g in range(1, 6):
        assert (g in exps) == ((g + 3) in exps)
    assert all(g % 3 in (1, 2) for g in exps)


def test_basis_order_invariance():
    base = build_algebra({"type": "A", "rank": 2, "cutoff": 6})
    shuf = build_algebra({"type": "A", "rank": 2, "cutoff": 6, "basis_seed": 5})
    assert base.basis(1) != shuf.basis(1)  # the enumeration really moved
    assert exponents(base) == exponents(shuf)
    for model in (base, shuf):
        pb = normalize_principal_basis(model)
        for m in pb.grades():
            for n in pb.grades():
                val = _as_scalar(pb.vector(m).pair(pb.vector(n)))
                want = 3 if m + n == 0 else 0
                assert val == Scalar.exact(want), (m, n)


# ------------------------------------------------------- bracket and cocycle


def test_chevalley_relations(a2):
    model = a2
    for i in range(model.rank + 1):
        for j in range(model.rank + 1):
            got = model.simple_raising(i).bracket(model.simple_lowering(j))
            if i == j:
                assert got == model.simple_coroot_vector(i)
            else:
                # [e_i, f_j] for i != j may be a nonzero root vector in sl_n
                assert got.delta.is_zero
    # alpha_0 realization carries the center
    alpha0 = model.simple_coroot_vector(0)
    assert _as_scalar(alpha0.delta) == Scalar.one()


def test_cartan_acts_by_cartan_matrix(a2):
    model = a2
    A = model.affine_cartan()
    for i in range(model.rank + 1):
        hi = model.simple_coroot_vector(i)
        for j in range(model.rank + 1):
            ej = model.simple_raising(j)
            got = hi.bracket(ej)
            assert got == ej.scale(_const(A[i][j])), (i, j)


def test_pplus_pminus_is_delta(a1, a2, a3):
    for model in (a1, a2, a3):
        got = model.pplus().bracket(model.pminus())
        assert not got.parts
        assert got.rho.is_zero
        assert _as_scalar(got.delta) == Scalar.one()


def test_rho_grades_and_form(a2):
    model = a2
    one = RationalFunction.one()
    rho = GradedVector.zero(model).add_rho(one)
    delta = GradedVector.zero(model).add_delta(one)
    x = model.simple_raising(1)
    assert rho.bracket(x) == x  # grade 1
    assert x.bracket(rho) == -x
    assert rho.bracket(delta).is_zero
    assert _as_scalar(rho.pair(rho)) == Scalar.zero()
    assert _as_scalar(delta.pair(rho)) == Scalar.exact(3)
    assert _as_scalar(delta.pair(delta)) == Scalar.zero()
    assert _as_scalar(delta.pair(x)) == Scalar.zero()
    h1 = model.simple_coroot_vector(1)
    assert _as_scalar(rho.pair(h1)) == Scalar.one()


def _random_monomial(model, rng, grades):
    g = rng.choice(grades)
    lab, _p = rng.choice(model.basis(g))
    coeff = _const(rng.randint(-4, 4) or 1)
    v = GradedVector.monomial(model, g, lab, coeff)
    if rng.random() < 0.15:
        v = v.add_rho(_const(rng.randint(1, 3)))
    if rng.random() < 0.15:
        v = v.add_delta(_const(rng.randint(1, 3)))
    return v


def test_jacobi_identity_random():
    model = build_algebra({"type": "A", "rank": 2, "cutoff": 6})
    rng = random.Random(20240311)
    grades = [-2, -1, 0, 1, 2]
    for _ in range(200):
        x = _random_monomial(model, rng, grades)
        y = _random_monomial(model, rng, grades)
        z = _random_monomial(model, rng, grades)
        acc = (x.bracket(y).bracket(z) + y.bracket(z).bracket(x)
               + z.bracket(x).bracket(y))
        assert acc.is_zero


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_invariance(data):
    model = build_algebra({"type": "A", "rank": 2, "cutoff": 6})
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x = _random_monomial(model, rng, [-2, -1, 0, 1, 2])
    y = _random_monomial(model, rng, [-2, -1, 0, 1, 2])
    z = _random_monomial(model, rng, [-2, -1, 0, 1, 2])
    lhs = x.bracket(y).pair(z)
    rhs = x.pair(y.bracket(z))
    assert lhs == rhs


def test_truncation_flag():
    model = build_algebra({"type": "A", "rank": 1, "cutoff": 2})
    one = RationalFunction.one()
    x = GradedVector.monomial(model, 2, model.basis(2)[0][0], one)
    got = x.bracket(x.bracket(model.pplus()))  # lands at grade 5 > 3
    assert got.truncated
    assert not got.parts
    ok = model.pplus().bracket(model.pminus())
    assert not ok.truncated


# ------------------------------------------------------ principal subalgebra


def test_principal_pairings(a2):
    pb = normalize_principal_basis(a2)
    assert pb.grades() == [-8, -7, -5, -4, -2, -1, 1, 2, 4, 5, 7, 8]
    for m in pb.grades():
        for n in pb.grades():
            val = _as_scalar(pb.vector(m).pair(pb.vector(n)))
            want = Scalar.exact(3 if m + n == 0 else 0)
            assert val == want, (m, n)


def test_principal_brackets_are_central(a2):
    pb = normalize_principal_basis(a2)
    for m in pb.grades():
        for n in pb.grades():
            if abs(m + n) > a2.window:
                continue
            got = pb.vector(m).bracket(pb.vector(n))
            assert not got.parts, (m, n)
            want = Scalar.exact(m if m + n == 0 else 0)
            assert _as_scalar(got.delta) == want, (m, n)


def test_cyclic_element_powers(a2):
    # frozen from the enumeration oracle: the grade-2 kernel vector is the
    # square of the cyclic element, all unit coefficients
    pb = normalize_principal_basis(a2)
    p2 = pb.vector(2)
    for lab, _p in a2.basis(2):
        i = a2.index(2, lab)
        assert _as_scalar(p2.parts[2][i]) == Scalar.one()
    p2m = pb.vector(-2)
    for lab, _p in a2.basis(-2):
        i = a2.index(-2, lab)
        assert _as_scalar(p2m.parts[-2][i]) == Scalar.one()


def test_pinned_first_grade(a1, a2):
    for model in (a1, a2):
        pb = normalize_principal_basis(model)
        assert pb.vector(1) == model.pplus()
        assert pb.vector(-1) == model.pminus()


def test_complement_dimensions(a2):
    model = a2
    for n in range(1, model.cutoff + 2):
        a, c = principal_decomposition(model, n)
        assert len(c) == model.rank
        assert len(a) + len(c) == model.dim_loop(n)
        am, cm = principal_decomposition(model, -n)
        assert len(cm) == model.rank
    a0, c0 = principal_decomposition(model, 0)
    assert len(a0) == 2  # delta and rho
    assert len(c0) == model.rank
    assert not a0[0].delta.is_zero and not a0[1].rho.is_zero


def test_grade_zero_complement_a1(a1):
    # c_0 = [p_-1, c_1]; for rank 1 this is the single vector delta - 2 h_1
    _a, c = principal_decomposition(a1, 0)
    (v,) = c
    assert _as_scalar(v.delta) == Scalar.one()
    assert _as_scalar(v.parts[0][a1.index(0, ("h", 1))]) == Scalar.exact(-2)


def test_complement_annihilates_opposite_kernel(a2):
    model = a2
    for n in (1, 2, 3, 4):
        a_op, _ = principal_decomposition(model, -n)
        _, c = principal_decomposition(model, n)
        for x in a_op:
            for y in c:
                assert _as_scalar(x.pair(y)) == Scalar.zero()


def test_decomposition_matrices_reconstruct(a2):
    model = a2
    rng = random.Random(7)
    from affopers._linalg import mat_vec

    for n in (1, 2, 3, 4):
        inv = model.decomposition_matrix_inv(n)
        vec = [Fraction(rng.randint(-5, 5)) for _ in range(model.dim_loop(n))]
        coords = mat_vec(inv, vec)
        # rebuild from a- and c- bases
        pvs = model.principal_vectors().get(n, [])
        cols = [list(v) for v in pvs]
        cols += [list(v) for v in model.image_complement_basis(n)]
        rebuilt = [Fraction(0)] * len(vec)
        for q, col in zip(coords, cols):
            for i, ci in enumerate(col):
                rebuilt[i] += q * ci
        assert rebuilt == vec


def test_step_solve_inverts_ad(a2):
    model = a2
    rng = random.Random(11)
    from affopers._linalg import mat_vec

    for n in (1, 2, 3):
        chere = model.image_complement_basis(n)
        target = [Fraction(rng.randint(-4, 4)) for _ in chere]
        minv = model.step_solve_matrix_inv(n)
        mcoords = mat_vec(minv, target)
        # lift to grade n+1 and bracket with p_-1
        lift = [Fraction(0)] * model.dim_loop(n + 1)
        for q, col in zip(mcoords, model.image_complement_basis(n + 1)):
            for i, ci in enumerate(col):
                lift[i] += q * ci
        m = GradedVector.from_coeff_vector(model, n + 1, lift)
        got = model.pminus().bracket(m)
        want = [Fraction(0)] * model.dim_loop(n)
        for q, col in zip(target, chere):
            for i, ci in enumerate(col):
                want[i] += q * ci
        assert got.component(n) == [
            RationalFunction.from_scalar(Scalar(q, Fraction(0))) for q in want
        ]


# ------------------------------------------------------------------- weights


def test_weight_coroot_pairings(a2):
    model = a2
    A = model.affine_cartan()
    for i in (1, 2):
        ai = Weight.simple_root(model, i)
        for j in range(3):
            assert ai.pair_coroot(j) == Scalar.exact(A[i][j])
    rho = Weight.rho_weight(model)
    for j in range(3):
        assert rho.pair_coroot(j) == Scalar.one()
    assert rho.pair_central() == Scalar.exact(3)
    delta = Weight(model, [Scalar.zero()] * 2, delta=Scalar.one())
    for j in range(3):
        assert delta.pair_coroot(j) == Scalar.zero()
    assert delta.pair_central() == Scalar.zero()


def test_weight_form_matches_realization(a2):
    model = a2
    rng = random.Random(23)
    for _ in range(25):
        mu = Weight(
            model,
            [Scalar.exact(rng.randint(-3, 3)) for _ in range(2)],
            rho=Scalar.exact(rng.randint(-2, 2)),
            delta=Scalar.exact(rng.randint(-2, 2)),
        )
        nu = Weight(
            model,
            [Scalar.exact(rng.randint(-3, 3)) for _ in range(2)],
            rho=Scalar.exact(rng.randint(-2, 2)),
            delta=Scalar.exact(rng.randint(-2, 2)),
        )
        direct = mu.form(nu)
        realized = _as_scalar(mu.to_vector().pair(nu.to_vector()))
        assert direct == realized


def test_weight_linear_ops(a2):
    a1w = Weight.simple_root(a2, 1)
    a2w = Weight.simple_root(a2, 2)
    s = a1w + a2w.scale(Scalar.exact(2))
    assert s.alpha == (Scalar.one(), Scalar.exact(2))
    assert (s - a1w).alpha == (Scalar.zero(), Scalar.exact(2))
    # finite Cartan matrix values through the form
    assert a1w.form(a1w) == Scalar.exact(2)
    assert a1w.form(a2w) == Scalar.exact(-1)
