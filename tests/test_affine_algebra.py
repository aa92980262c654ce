"""Structure tests for the graded loop algebra layer.

Frozen dimension tables, kernel vectors and exponent multisets come from
tests/oracles/gen_affine_expected.py (brute-force sympy enumeration).
"""

import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affopers.affine_algebra import (
    GradedVector,
    Weight,
    build_algebra,
    exponents,
    principal_decomposition,
)
from affopers.coeffs import RationalFunction, Scalar
from affopers.miura import affine_simple_root


def _const(q):
    return RationalFunction.from_scalar(Scalar.parse(q))


def _as_scalar(f):
    return f.eval(Scalar.zero())


def _lowering(model, i):
    """f_i at grade -1 (i = 0 .. rank)."""
    lab = ("r", 1, model.n) if i == 0 else ("r", i + 1, i)
    return GradedVector.monomial(model, -1, lab, RationalFunction.one())


def _coroot(model, i):
    """alpha_i realized at grade 0 (i = 0 gives delta - h_theta)."""
    one = RationalFunction.one()
    if i:
        return GradedVector.monomial(model, 0, ("h", i), one)
    out = GradedVector.zero(model).add_delta(one)
    for k in range(1, model.rank + 1):
        out = out.add_monomial(0, ("h", k), -one)
    return out


def _pplus(model):
    """p_1, the sum of the grade-1 basis monomials."""
    return GradedVector.lincomb(model, [
        (Scalar.one(), GradedVector.monomial(model, 1, lab,
                                             RationalFunction.one()))
        for lab, _p in model.basis(1)])


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


@pytest.mark.parametrize("field, value", [
    ("cutoff", 3.7), ("cutoff", 3.0), ("cutoff", True), ("cutoff", "x"),
    ("cutoff", "4"), ("rank", 2.5), ("rank", False), ("rank", None),
    ("basis_seed", "x"), ("basis_seed", 1.5), ("basis_seed", [1]),
    ("basis_seed", True),
])
def test_build_algebra_refuses_non_integer_fields(field, value):
    desc = {"type": "A", "rank": 1, "cutoff": 4, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        build_algebra(desc)


def test_tables_are_cached_per_model():
    # a repeated call returns the very table built first, and the tables
    # go with their model at its last reference: a cache kept on the class
    # would hold the model, and a memo in a reference cycle with it would
    # wait for the cycle collector
    model = build_algebra({"type": "A", "rank": 2, "cutoff": 8,
                           "basis_seed": 3})
    assert model.gauge_step_rows(4) is model.gauge_step_rows(4)
    assert model.bracket_table(1, 2) is model.bracket_table(1, 2)
    ref = weakref.ref(model)
    del model
    assert ref() is None


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
        grades = sorted(model.principal_vectors())
        for m in grades:
            for n in grades:
                val = _as_scalar(model.principal_vector(m).pair(
                    model.principal_vector(n)))
                want = 3 if m + n == 0 else 0
                assert val == Scalar.exact(want), (m, n)


# ------------------------------------------------------- bracket and cocycle


def test_chevalley_relations(a2):
    model = a2
    for i in range(model.rank + 1):
        for j in range(model.rank + 1):
            got = model.simple_raising(i).bracket(_lowering(model, j))
            if i == j:
                assert got == _coroot(model, i)
            else:
                # [e_i, f_j] for i != j may be a nonzero root vector in sl_n
                assert got.delta.is_zero
    # alpha_0 realization carries the center
    alpha0 = _coroot(model, 0)
    assert _as_scalar(alpha0.delta) == Scalar.one()


def test_cartan_acts_by_cartan_matrix(a2):
    model = a2
    A = model.affine_cartan()
    for i in range(model.rank + 1):
        hi = _coroot(model, i)
        for j in range(model.rank + 1):
            ej = model.simple_raising(j)
            got = hi.bracket(ej)
            assert got == ej.scale(_const(A[i][j])), (i, j)


def test_pplus_pminus_is_delta(a1, a2, a3):
    for model in (a1, a2, a3):
        got = _pplus(model).bracket(model.pminus())
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
    h1 = _coroot(model, 1)
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
    got = x.bracket(x.bracket(_pplus(model)))  # lands at grade 5 > 3
    assert got.truncated
    assert not got.parts
    ok = _pplus(model).bracket(model.pminus())
    assert not ok.truncated


# ------------------------------------------------------ principal subalgebra


def test_principal_pairings(a2):
    grades = sorted(a2.principal_vectors())
    assert grades == [-8, -7, -5, -4, -2, -1, 1, 2, 4, 5, 7, 8]
    for m in grades:
        for n in grades:
            val = _as_scalar(a2.principal_vector(m).pair(
                a2.principal_vector(n)))
            want = Scalar.exact(3 if m + n == 0 else 0)
            assert val == want, (m, n)


def test_principal_brackets_are_central(a2):
    grades = sorted(a2.principal_vectors())
    for m in grades:
        for n in grades:
            if abs(m + n) > a2.window:
                continue
            got = a2.principal_vector(m).bracket(a2.principal_vector(n))
            assert not got.parts, (m, n)
            want = Scalar.exact(m if m + n == 0 else 0)
            assert _as_scalar(got.delta) == want, (m, n)


def test_cyclic_element_powers(a2):
    # frozen from the enumeration oracle: the grade-2 kernel vector is the
    # square of the cyclic element, all unit coefficients
    p2 = a2.principal_vector(2)
    for lab, _p in a2.basis(2):
        i = a2.index(2, lab)
        assert _as_scalar(p2.parts[2][i]) == Scalar.one()
    p2m = a2.principal_vector(-2)
    for lab, _p in a2.basis(-2):
        i = a2.index(-2, lab)
        assert _as_scalar(p2m.parts[-2][i]) == Scalar.one()


def test_pinned_first_grade(a1, a2):
    for model in (a1, a2):
        assert model.principal_vector(1) == _pplus(model)
        assert model.principal_vector(-1) == model.pminus()


def test_every_exponent_has_multiplicity_one():
    # principal_vectors keeps one vector per exponent; check that for every
    # rank the command line accepts, past two multiples of h
    for rank in range(1, 9):
        h = rank + 1
        model = build_algebra({"type": "A", "rank": rank,
                               "cutoff": 2 * h + 1})
        exps = [g for g in range(1, model.cutoff + 1) if g % h]
        for g in range(1, model.cutoff + 1):
            want = 1 if g % h else 0
            assert len(model.kernel_basis(g)) == want, (rank, g)
            assert len(model.kernel_basis(-g)) == want, (rank, -g)
        assert sorted(model.principal_vectors()) == sorted(
            exps + [-g for g in exps])
        for j in exps:
            pair = model.principal_vector(j).pair(model.principal_vector(-j))
            assert _as_scalar(pair) == Scalar.exact(h), (rank, j)


def test_a_principal_kernel_of_dimension_two_is_refused(monkeypatch):
    model = build_algebra({"type": "A", "rank": 2, "cutoff": 4})
    kernel_basis = model.kernel_basis

    def doubled(g):
        extra = model.image_complement_basis(g)[:1] if g == 2 else []
        return kernel_basis(g) + extra

    monkeypatch.setattr(model, "kernel_basis", doubled)
    with pytest.raises(ValueError, match="at grade 2 "):
        model.principal_vectors()


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
        vec = [Scalar.exact(rng.randint(-5, 5))
               for _ in range(model.dim_loop(n))]
        coords = mat_vec(inv, vec)
        # rebuild from a- and c- bases
        pv = model.principal_vectors().get(n)
        cols = ([pv] if pv is not None else [])
        cols += model.image_complement_basis(n)
        rebuilt = [Scalar.zero()] * len(vec)
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
        target = [Scalar.exact(rng.randint(-4, 4)) for _ in chere]
        minv = model.step_solve_matrix_inv(n)
        mcoords = mat_vec(minv, target)
        # lift to grade n+1 and bracket with p_-1
        lift = [Scalar.zero()] * model.dim_loop(n + 1)
        for q, col in zip(mcoords, model.image_complement_basis(n + 1)):
            for i, ci in enumerate(col):
                lift[i] += q * ci
        m = GradedVector.from_coeff_vector(model, n + 1, lift)
        got = model.pminus().bracket(m)
        want = [Scalar.zero()] * model.dim_loop(n)
        for q, col in zip(target, chere):
            for i, ci in enumerate(col):
                want[i] += q * ci
        assert got.component(n) == [
            RationalFunction.from_scalar(q) for q in want
        ]


@pytest.mark.parametrize("rank, cutoff", [(1, 5), (2, 4), (3, 4)])
@pytest.mark.parametrize("basis_seed", [None, 3])
def test_constant_tables_hold_nonzero_scalars(rank, cutoff, basis_seed):
    model = build_algebra({"type": "A", "rank": rank, "cutoff": cutoff,
                           "basis_seed": basis_seed})

    def nonzero(q):
        return isinstance(q, Scalar) and not q.is_zero

    for n in range(cutoff + 1):
        vrow, mrows = model.gauge_step_rows(n)
        for row in ((vrow,) if vrow is not None else ()) + mrows:
            assert all(nonzero(q) for _j, q in row), (n, row)
        for row in model.decomposition_matrix_inv(n):
            assert all(isinstance(q, Scalar) for q in row), n
    for a in range(-2, cutoff + 1):
        for b in range(-2, cutoff + 1):
            if abs(a + b) > model.window:
                continue
            for _i, row in model.bracket_table(a, b):
                assert row
                for _j, terms, center in row:
                    assert terms or center is not None
                    assert all(nonzero(q) for _idx, q in terms), (a, b)
                    assert center is None or nonzero(center), (a, b)
    for v in model.principal_vectors().values():
        assert all(isinstance(q, Scalar) for q in v)


# ------------------------------------------------------------------- weights


def test_weight_coroot_pairings(a2):
    # simply laced: pairing with the coroot of alpha_j is the form with
    # alpha_j, and pairing with the center is the form with delta
    model = a2
    A = model.affine_cartan()
    roots = [affine_simple_root(model, j) for j in range(3)]
    for i in (1, 2):
        ai = Weight.simple_root(model, i)
        for j in range(3):
            assert ai.form(roots[j]) == Scalar.exact(A[i][j])
    rho = Weight.rho_weight(model)
    delta = Weight(model, [Scalar.zero()] * 2, delta=Scalar.one())
    for j in range(3):
        assert rho.form(roots[j]) == Scalar.one()
        assert delta.form(roots[j]) == Scalar.zero()
    assert rho.form(delta) == Scalar.exact(3)
    assert delta.form(delta) == Scalar.zero()


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
