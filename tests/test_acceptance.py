"""Acceptance gate: one test per headline guarantee of the package.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per guarantee.  Every test seeds its own RNG (reruns are identical),
pins its tolerance, and asserts a wall-clock budget.  Structural identities
are checked in exact rational arithmetic with zero tolerance; quadrature
values carry explicit absolute or relative bounds.
"""

import cmath
import random
import time

import mpmath

from affopers.affine_algebra import exponents, principal_decomposition
from affopers.coeffs import RationalFunction, Scalar
from affopers.contour import (Line, advance_logs, loop_around, pochhammer,
                              segment_chain, start_logs)
from affopers.integrate import stokes_check, twisted_integral
from affopers.miura import (MiuraData, bethe_residuals, build_miura,
                            is_on_shell, regularity_check,
                            single_root_position, v1_predicted)
from affopers.oper_core import (QuasiCanonicalForm, change_coordinate,
                                quasi_canonicalize, residual_gauge,
                                twisted_class, v1_direct)
from affopers.verify import (_beta_data, _model, _on_shell_pair,
                             _rand_data, _rand_mobius, _rand_point_args,
                             _rand_poly_rf, _zero)

# --------------------------------------------------------- 1: the algebra


def test_exponents_slice_dimensions_and_principal_structure():
    t0 = time.perf_counter()
    for rank, K, want in ((1, 9, [1, 3, 5, 7, 9]), (2, 8, [1, 2, 4, 5, 7, 8])):
        model = _model(rank, K)
        assert exponents(model) == want
        for g in range(-K, K + 1):
            _aligned, complement = principal_decomposition(model, g)
            assert len(complement) == rank
        grades = sorted(model.principal_vectors())
        hv = Scalar.exact(model.dual_coxeter)
        for m in grades:
            pm = model.principal_vector(m)
            for n in grades:
                pn = model.principal_vector(n)
                pairing = hv if m + n == 0 else Scalar.zero()
                assert (_zero(pm.pair(pn)) - pairing).is_zero
                if abs(m + n) > model.window:
                    continue  # bracket lands outside the stored window
                br = pm.bracket(pn)
                central = Scalar.exact(m if m + n == 0 else 0)
                assert not br.parts
                assert (_zero(br.delta) - central).is_zero
    assert time.perf_counter() - t0 < 10.0


# ------------------------------------------------- 2: the first coefficient


def test_first_coefficient_routes_agree_exactly():
    t0 = time.perf_counter()
    rng = random.Random("acceptance/v1")
    for _ in range(100):
        rank = rng.choice((1, 2))
        model = _model(rank, rng.randint(3, 8))
        d = _rand_data(model, rng, rng.randint(1, 3), rng.randint(0, 2))
        conn = build_miura(d)
        recursive = quasi_canonicalize(conn).v[1]
        assert recursive == v1_direct(conn)
        assert recursive == v1_predicted(d)
    assert time.perf_counter() - t0 < 60.0


# -------------------------------------------- 3: regularity vs. the roots


def test_regularity_tracks_the_bethe_equations():
    t0 = time.perf_counter()
    rng = random.Random("acceptance/bethe")

    on_shell = 0
    while on_shell < 50:
        rank = rng.choice((1, 2))
        d = _on_shell_pair(_model(rank, rng.randint(4, 6)), rng)
        on_shell += 1
        assert is_on_shell(d)
        assert all(row["regular"] for row in regularity_check(d))

    off_shell = 0
    while off_shell < 50:
        rank = rng.choice((1, 2))
        model = _model(rank, rng.randint(4, 6))
        d_on = _on_shell_pair(model, rng)
        w = d_on.roots[0][0] + Scalar.parse(f"{rng.randint(1, 5)}/7")
        if any((w - z).is_zero for z, _ in d_on.points):
            continue
        d = MiuraData(model, d_on.points, [(w, d_on.roots[0][1])])
        residual = bethe_residuals(d)[0]
        if residual.is_zero:
            continue  # landed on another critical point; nothing to test
        off_shell += 1
        rows = regularity_check(d)
        assert not rows[0]["regular"]
        hv = Scalar.exact(model.dual_coxeter)
        got = quasi_canonicalize(build_miura(d)).v[1].residue_at(w)
        assert not got.is_zero
        assert (got * hv - residual).is_zero

    assert time.perf_counter() - t0 < 60.0


# ------------------------------------------------ 4: gauge-invariant values


def test_periods_unchanged_by_residual_gauges():
    t0 = time.perf_counter()
    rng = random.Random("acceptance/gauge")
    gamma = pochhammer((1, 0), radius="1/4")
    # exponent 3 drops out at rank 2 (multiples of rank+1 are not
    # exponents there), so the r = 3 instances run at rank 1
    for rank, r in ((2, 2), (1, 3)):
        model = _model(rank, max(3, r))
        points = [("0", *_rand_point_args(rng, rank, force_level=True)),
                  ("1", *_rand_point_args(rng, rank, force_level=True))]
        d = MiuraData.make(model, points, [])
        q = quasi_canonicalize(build_miura(d))
        for _ in range(3):
            f = _rand_poly_rf(rng, rng.randint(0, 3))
            shifted = residual_gauge(q, {r: f})
            i1 = twisted_integral(d, q, r, gamma)
            i2 = twisted_integral(d, shifted, r, gamma)
            assert i1.valid and i2.valid
            assert abs(i1.value - i2.value) < 1e-8 * (1 + abs(i1.value))
    assert time.perf_counter() - t0 < 60.0


# ------------------------------------------------- 5: the classical period


def test_double_circuit_reproduces_beta_values():
    t0 = time.perf_counter()
    gamma = pochhammer((1, 0), radius="1/4")
    for a, b in ((1 / 3, 1 / 2), (0.3 + 0.1j, 0.45)):
        d = _beta_data(a, b)
        # the tracked branch of (z-1)^(b-1) differs from (1-z)^(b-1) by a
        # constant phase at the basepoint; folding it into the coefficient
        # makes the integrand literally z^(a-1) (1-z)^(b-1)
        const = Scalar.from_complex(cmath.exp(-1j * cmath.pi * (b - 1)))
        q = QuasiCanonicalForm(d.model, d.twist(),
                               {1: RationalFunction.from_scalar(const)})
        res = twisted_integral(d, q, 1, gamma)
        beta = complex(mpmath.gamma(a) * mpmath.gamma(b)
                       / mpmath.gamma(a + b))
        want = ((1 - cmath.exp(2j * cmath.pi * a))
                * (1 - cmath.exp(2j * cmath.pi * b)) * beta)
        assert res.valid
        assert abs(res.value - want) < 1e-8
    assert time.perf_counter() - t0 < 10.0


# ----------------------------------------------------- 6: exact forms die


def test_closed_twisted_exact_forms_integrate_to_zero():
    t0 = time.perf_counter()
    rng = random.Random("acceptance/stokes")
    for _ in range(20):
        d = _beta_data(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85))
        f = _rand_poly_rf(rng, rng.randint(0, 4))
        if rng.random() < 0.5:
            # rational parts with poles at the punctures are fine too
            f = f + RationalFunction.simple_pole(
                Scalar.parse(f"{rng.randint(1, 4)}/3"),
                Scalar.exact(rng.choice((0, 1))))
        order = rng.choice(((1, 0), (0, 1)))
        gamma = pochhammer(order, radius=rng.choice(("1/4", "1/5")))
        res = stokes_check(d, 1, f, gamma)
        assert res.valid
        assert abs(res.value) < 1e-9
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------- 7: coordinate covariance


def test_reduction_commutes_with_moebius_maps():
    t0 = time.perf_counter()
    rng = random.Random("acceptance/coords")
    for _ in range(20):
        rank = rng.choice((1, 2))
        model = _model(rank, rng.randint(3, 4))
        d = _rand_data(model, rng, rng.randint(1, 2), rng.randint(0, 1))
        mob = _rand_mobius(rng)
        conn = build_miura(d)
        route_a = quasi_canonicalize(change_coordinate(conn, mob))
        route_b = change_coordinate(quasi_canonicalize(conn), mob)
        assert route_a.phi == route_b.phi
        assert route_a.v == route_b.v
    assert time.perf_counter() - t0 < 30.0


# ------------------------------------------- 8: moving contours past roots


# pairings against alpha_1 are 3/2 and -1/2, putting the closed-form root
# at w = 3/2, safely away from the contour between the points
_DEFORM_POINTS = [("0", ["1/2"], "1", "0"), ("1", ["-1/2"], "1", "0")]


def test_deforming_across_roots_costs_the_residue():
    t0 = time.perf_counter()
    rng = random.Random("acceptance/deform")
    model = _model(1, 3)
    base = -0.7 - 0.9j

    def run(root_scalar):
        d = MiuraData.make(model, _DEFORM_POINTS, [(root_scalar, 1)])
        q = quasi_canonicalize(build_miura(d))
        w = complex(float(root_scalar.re), float(root_scalar.im))
        gamma = pochhammer((1, 0), radius="1/5", basepoint=0.5)
        bridge = segment_chain(0.5, base)
        deformed = gamma + bridge + loop_around(w, 0.05, base) \
            + bridge.reversed()
        i0 = twisted_integral(d, q, 1, gamma)
        i1 = twisted_integral(d, q, 1, deformed)
        return d, i0, i1

    w_on = single_root_position(
        MiuraData.make(model, _DEFORM_POINTS, [("1/2", 1)]))
    _d, i0, i1 = run(w_on)
    assert abs(i1.value - i0.value) < 1e-8

    punctures = [0j, 1 + 0j]
    for _ in range(3):
        w_off = w_on + Scalar.parse(f"{rng.randint(1, 3)}/10")
        d, i0, i1 = run(w_off)
        res = bethe_residuals(d)[0] / Scalar.exact(2)
        root_c = complex(float(w_off.re), float(w_off.im))
        logs = start_logs(punctures, 0.5)
        logs = advance_logs(punctures, logs, Line(0.5, base), 0.0, 1.0)
        logs = advance_logs(punctures, logs, Line(base, root_c), 0.0, 1.0)
        branch = cmath.exp(-0.5 * sum(logs))  # both levels are 1
        want = 2j * cmath.pi * branch * complex(float(res.re), float(res.im))
        assert abs((i1.value - i0.value) - want) < 1e-8

    assert time.perf_counter() - t0 < 60.0


# -------------------------------- 9: the Bethe equations on the fibre


def _class_poles_at(d, w):
    """Whether the class nf of some v_j, j >= 2, has a pole at w."""
    q = quasi_canonicalize(build_miura(d))
    hv = d.model.dual_coxeter
    return any(twisted_class(q.phi, j, hv, q.v[j])[0].pole_order_at(w)
               for j in q.v if j >= 2)


def test_fibre_coordinates_read_the_bethe_equations():
    # a root is on shell exactly when every higher class is regular there
    t0 = time.perf_counter()
    rng = random.Random("roadmap/bethe-nf")
    for _ in range(12):
        rank = rng.choice((1, 2))
        d_on = _on_shell_pair(_model(rank, rng.randint(4, 5)), rng)
        w_on, colour = d_on.roots[0]
        assert not _class_poles_at(d_on, w_on)
        w = w_on + Scalar.parse(f"{rng.randint(1, 3)}/7")
        d_off = MiuraData(d_on.model, d_on.points, [(w, colour)])
        assert _class_poles_at(d_off, w)
    assert time.perf_counter() - t0 < 30.0
