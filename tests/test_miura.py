"""Connections built from weighted points and root data: twist bookkeeping,
master-function partials, regularity at roots, and the closed-form first
coefficient."""

import random

import pytest

from affopers import miura
from affopers.affine_algebra import Weight, build_algebra
from affopers.coeffs import Polynomial, RationalFunction, Scalar
from affopers.miura import (MiuraData, RouteDisagreement, affine_simple_root,
                            bethe_residuals, build_miura, casimir, erase_root,
                            is_on_shell, master_partials,
                            quadratic_eigenvalue_data, regularity_check,
                            single_root_position, v1_predicted, weight_triple)
from affopers.oper_core import change_coordinate, quasi_canonicalize


@pytest.fixture(scope="module")
def a1():
    return build_algebra({"type": "A", "rank": 1, "cutoff": 5})


@pytest.fixture(scope="module")
def a2():
    return build_algebra({"type": "A", "rank": 2, "cutoff": 5})


def sc(x):
    return Scalar.parse(x)


def simple_pole(coeff, at):
    return RationalFunction.simple_pole(sc(coeff), sc(at))


def rand_weight(model, rng, with_level=True):
    coords = [sc(f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}")
              for _ in range(model.rank)]
    level = sc(rng.randint(0, 3)) if with_level else sc(0)
    delta = sc(f"{rng.randint(-2, 2)}/{rng.randint(1, 2)}")
    return weight_triple(model, coords, level, delta)


def rand_data(model, rng, n_points=2, n_roots=0):
    zs = rng.sample([-3, -2, -1, 0, 1, 2, 3], n_points)
    ws = rng.sample([5, 7, -5, -7], n_roots)
    points = [(sc(z), rand_weight(model, rng)) for z in zs]
    roots = [(sc(w), rng.randint(0, model.rank)) for w in ws]
    return MiuraData(model, points, roots)


# ----------------------------------------------------------------- building


def test_three_pole_shape(a2):
    d = MiuraData.make(
        a2,
        [("0", ["1", "0"], "2", "0"), ("1", ["0", "1"], "1", "0")],
        [("3", 1)],
    )
    conn = build_miura(d)
    comp = conn.u.component(0)
    # residue of the h_1 coefficient at each pole
    lam1 = d.points[0][1]
    h1 = comp[a2.index(0, ("h", 1))]
    assert h1.pole_order_at(sc(0)) == 1
    assert h1.pole_order_at(sc(1)) == 0  # lambda_2 has no alpha_1 part
    assert h1.pole_order_at(sc(3)) == 1  # the root's alpha_1
    # twist: phi = 2/z + 1/(z-1), rho coefficient is -phi/h
    phi = conn.phi
    assert phi == simple_pole(2, 0) + simple_pole(1, 1)
    assert conn.u.rho == phi.scale(sc("-1/3"))
    assert lam1.alpha[0] == sc(1)


def test_point_validation(a1):
    w = Weight.simple_root(a1, 1)
    z0 = sc(0)
    with pytest.raises(ValueError):
        MiuraData(a1, [(z0, w), (z0, w)], [])
    with pytest.raises(ValueError):
        MiuraData(a1, [(z0, w)], [(z0, 1)])
    with pytest.raises(ValueError):
        MiuraData(a1, [(z0, w)], [(sc(1), 2)])


def test_affine_root_zero_weight(a2):
    al0 = affine_simple_root(a2, 0)
    rho = Weight.rho_weight(a2)
    assert al0.form(al0) == sc(2)
    assert al0.form(rho) == sc(1)
    # the form with the simple roots reads off the affine Cartan matrix
    for j, want in enumerate((2, -1, -1)):
        assert al0.form(affine_simple_root(a2, j)) == sc(want)


# ------------------------------------------------------- master function


def test_single_point_partial_vanishes(a1):
    d = MiuraData.make(a1, [("0", ["1"], "1", "0")], [])
    dz, dw = master_partials(d)
    assert dz == [sc(0)]
    assert dw == []


def test_two_point_partials(a2):
    rng = random.Random(7)
    d = rand_data(a2, rng, n_points=2)
    (z1, l1), (z2, l2) = d.points
    dz, _ = master_partials(d)
    expect = l1.form(l2) / (z1 - z2)
    assert dz[0] == expect
    assert dz[1] == -expect


def test_partials_sum_to_zero(a2):
    rng = random.Random(23)
    for _ in range(5):
        d = rand_data(a2, rng, n_points=3, n_roots=2)
        dz, dw = master_partials(d)
        total = sum(dz + dw, sc(0))
        assert total.is_zero


def test_closed_form_root_is_critical(a1, a2):
    rng = random.Random(11)
    for model in (a1, a2):
        for _ in range(5):
            d0 = rand_data(model, rng, n_points=2, n_roots=1)
            try:
                w = single_root_position(d0)
            except ValueError:
                continue  # degenerate pairing sum; not interesting
            if any((w - z).is_zero for z, _ in d0.points):
                continue
            d = MiuraData(model, d0.points, [(w, d0.roots[0][1])])
            assert is_on_shell(d)
            assert bethe_residuals(d)[0].is_zero


def test_root_at_pairing_ratio(a1):
    # two points at 0 and 1: residual -a/w - b/(w-1) vanishes at a/(a+b)
    d = MiuraData.make(a1, [("0", ["1"], "0", "0"), ("1", ["2"], "0", "0")],
                       [("1/3", 1)])
    al = affine_simple_root(a1, 1)
    a = d.points[0][1].form(al)
    b = d.points[1][1].form(al)
    assert single_root_position(d) == a / (a + b)
    res = bethe_residuals(d)[0]
    w = sc("1/3")
    assert res == -a / w - b / (w - sc(1))


# ------------------------------------------------------------ prediction


def test_single_point_casimir_coefficient(a2):
    # one weight at the origin: v_1 = (lam|lam+2rho) / (2 h z^2)
    d = MiuraData.make(a2, [("0", ["1", "1"], "2", "1/2")], [])
    qc = quasi_canonicalize(build_miura(d))
    lam = d.points[0][1]
    c = casimir(lam) / sc(3)
    expect = RationalFunction.from_split(Polynomial.constant(c), ((sc(0), 2),))
    assert qc.v[1] == expect
    assert v1_predicted(d) == expect


def test_v1_prediction_matches_recursion(a1, a2):
    rng = random.Random(5)
    for model in (a1, a2):
        for _ in range(4):
            d = rand_data(model, rng, n_points=2,
                          n_roots=rng.randint(0, 2))
            qc = quasi_canonicalize(build_miura(d))
            assert qc.v[1] == v1_predicted(d)


def test_coefficient_at_infinity(a2):
    # after z -> 1/s the double-pole coefficient of v_1 at s=0 is the
    # Casimir number of the residue at infinity
    rng = random.Random(3)
    for _ in range(3):
        d = rand_data(a2, rng, n_points=2, n_roots=1)
        qc = quasi_canonicalize(build_miura(d))
        flipped = change_coordinate(qc, ("0", "1", "1", "0"))
        # the residue at infinity: the lambdas minus the root residues
        lam_inf = Weight(a2, [sc(0)] * a2.rank)
        for _z, lam in d.points:
            lam_inf = lam_inf + lam
        for j in range(len(d.roots)):
            lam_inf = lam_inf - d.root_weight(j)
        c = casimir(lam_inf) / sc(3)
        v1 = flipped.v[1]
        remainder = v1 - RationalFunction.from_split(
            Polynomial.constant(c), ((sc(0), 2),))
        assert remainder.pole_order_at(sc(0)) <= 1


# ------------------------------------------------------------ regularity


def on_shell_pair(model, rng):
    """Two points and one root placed by the closed form."""
    while True:
        d0 = rand_data(model, rng, n_points=2, n_roots=1)
        try:
            w = single_root_position(d0)
        except ValueError:
            continue
        if any((w - z).is_zero for z, _ in d0.points):
            continue
        return MiuraData(model, d0.points, [(w, d0.roots[0][1])])


def test_on_shell_regular(a1, a2):
    rng = random.Random(19)
    for model in (a1, a2):
        for _ in range(3):
            d = on_shell_pair(model, rng)
            rows = regularity_check(d)
            assert all(r["regular"] for r in rows)
            assert all(r["max_pole_order"] == 0 for r in rows)


def test_route_disagreements_carry_replayable_data(a1, monkeypatch):
    rng = random.Random(19)
    d0 = on_shell_pair(a1, rng)
    w, color = d0.roots[0]
    d = MiuraData(a1, d0.points, [(w + sc("1/7"), color)])
    # a wrong scalar route trips the first check ...
    monkeypatch.setattr(miura, "_coroot_pairing_at",
                        lambda conn, data, j: Scalar.exact(5))
    with pytest.raises(RouteDisagreement, match="master-function") as err:
        regularity_check(d)
    assert err.value.values["criterion_value"] == "5"
    # ... and a zero residual against an obstructed root trips the second
    monkeypatch.setattr(miura, "_coroot_pairing_at",
                        lambda conn, data, j: Scalar.zero())
    monkeypatch.setattr(miura, "bethe_residuals",
                        lambda data: [Scalar.zero()] * len(data.roots))
    with pytest.raises(RouteDisagreement, match="pole structure") as err:
        regularity_check(d)
    exc = err.value
    assert isinstance(exc, AssertionError)
    assert exc.root == 0
    assert exc.values["max_pole_order"] >= 1
    assert exc.values["bethe_residual"] == "0"
    replay = MiuraData.from_json(exc.data)
    assert replay.to_json() == d.to_json()
    assert replay.points == d.points and replay.roots == d.roots


def test_off_shell_residue(a1, a2):
    rng = random.Random(29)
    hv = {1: sc(2), 2: sc(3)}
    for model in (a1, a2):
        for _ in range(3):
            d0 = on_shell_pair(model, rng)
            w = d0.roots[0][0] + sc("1/7")  # push off shell
            if any((w - z).is_zero for z, _ in d0.points):
                continue
            d = MiuraData(model, d0.points, [(w, d0.roots[0][1])])
            res = bethe_residuals(d)[0]
            assert not res.is_zero
            rows = regularity_check(d)
            assert not rows[0]["regular"]
            # v_1 carries a simple pole at w with residue dPhi/dw / h
            qc = quasi_canonicalize(build_miura(d))
            v1 = qc.v[1]
            assert v1.pole_order_at(w) == 1
            cleaned = v1 - RationalFunction.simple_pole(
                res / hv[model.rank], w)
            assert cleaned.pole_order_at(w) == 0


def test_interacting_roots_both_regular(a2):
    # adjacent colors, exact critical point: w2 = 2 w1 with (lam|a1)=1,
    # (lam|a2)=-2
    d = MiuraData.make(a2, [("0", ["0", "-1"], "0", "0")],
                       [("1", 1), ("2", 2)])
    assert is_on_shell(d)
    rows = regularity_check(d)
    assert [r["regular"] for r in rows] == [True, True]


def test_color_zero_root_regular(a1):
    pts = [("0", ["1/2"], "1", "0"), ("1", ["1"], "1", "1/3")]
    d0 = MiuraData.make(a1, pts, [("5", 0)])
    w = single_root_position(d0)
    d = MiuraData.make(a1, pts, [(w, 0)])
    rows = regularity_check(d)
    assert rows[0]["regular"]


def test_erase_root_moves_pole_up_a_grade(a1):
    d0 = MiuraData.make(
        a1, [("0", ["1"], "1", "0"), ("3", ["3/2"], "2", "0")], [("1", 1)])
    w = single_root_position(d0)
    d = MiuraData.make(
        a1, [("0", ["1"], "1", "0"), ("3", ["3/2"], "2", "0")], [(w, 1)])
    conn = erase_root(build_miura(d), w, 1)
    for f in conn.u.component(0):
        assert f.pole_order_at(w) == 0
    # grade-1 coefficient vanishes at the root precisely on shell
    for f in conn.u.component(1):
        assert f.pole_order_at(w) == 0
    off = MiuraData(a1, d.points, [(w + sc(1), 1)])
    conn2 = erase_root(build_miura(off), w + sc(1), 1)
    orders = [f.pole_order_at(w + sc(1)) for f in conn2.u.component(1)]
    assert max(orders) == 1


# --------------------------------------------------------------- scalars


def test_quadratic_data_two_points(a2):
    rng = random.Random(31)
    d = rand_data(a2, rng, n_points=2)
    rows, on_shell = quadratic_eigenvalue_data(d)
    assert on_shell  # no roots at all
    (z1, l1), (z2, l2) = d.points
    assert rows[0]["casimir"] == casimir(l1)
    assert rows[0]["hamiltonian"] == l1.form(l2) / (z1 - z2)
    assert rows[1]["hamiltonian"] == -rows[0]["hamiltonian"]


def test_quadratic_data_off_shell_flag(a1):
    d = MiuraData.make(
        a1, [("0", ["1"], "1", "0"), ("3", ["3/2"], "2", "0")], [("1", 1)])
    _rows, on_shell = quadratic_eigenvalue_data(d)
    assert not on_shell


# ------------------------------------------------------------------ JSON


def test_json_roundtrip(a2):
    rng = random.Random(37)
    d = rand_data(a2, rng, n_points=2, n_roots=2)
    blob = d.to_json()
    d2 = MiuraData.from_json(blob)
    assert d2.model.rank == 2
    for (z, lam), (z2, lam2) in zip(d.points, d2.points):
        assert z == z2
        assert lam.alpha == lam2.alpha
        assert lam.rho == lam2.rho
        assert lam.delta == lam2.delta
    assert [(w, c) for w, c in d.roots] == [(w, c) for w, c in d2.roots]


def test_json_infers_algebra():
    blob = {
        "points": [
            {"z": "0",
             "weight": {"lambda_dot": ["1"], "level": "2", "delta": "0"}},
        ],
        "bethe_roots": [{"w": "1/2", "color": 1}],
    }
    d = MiuraData.from_json(blob)
    assert d.model.rank == 1
    assert d.model.type == "A"
    assert d.roots[0][0] == sc("1/2")
