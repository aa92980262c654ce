"""Deterministic self-check suites over the whole stack.

Each check draws its own RNG from (seed, suite, check name), so reports are
reproducible and adding a check never shifts another check's cases.  A check
returns (number of cases, list of counterexample dicts); the runner wraps
everything into one JSON-serializable report.
"""

import cmath
import math
import random
import time

from .affine_algebra import build_algebra, exponents, principal_decomposition
from .coeffs import Polynomial, RationalFunction, Scalar
from .contour import (Line, advance_logs, loop_around, pochhammer,
                      segment_chain, start_logs)
from .integrate import stokes_check, twisted_integral
from .miura import (MiuraData, bethe_residuals, build_miura, is_on_shell,
                    quadratic_eigenvalue_data, regularity_check,
                    single_root_position, v1_predicted)
from .oper_core import (QuasiCanonicalForm, change_coordinate,
                        quasi_canonicalize, residual_gauge,
                        twisted_derivative, v1_direct)

SUITES = ("algebra", "canonical", "bethe", "coords", "integrals")

_CHECKS = []


def _check(suite, name):
    def deco(fn):
        _CHECKS.append((suite, name, fn))
        return fn
    return deco


# ----------------------------------------------------------------- helpers


def _model(rank, cutoff):
    return build_algebra({"type": "A", "rank": rank, "cutoff": cutoff})


def _zero(f):
    return f.eval(Scalar.zero())


def _rand_point_args(rng, rank, force_level=False):
    coords = [f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}"
              for _ in range(rank)]
    level = str(rng.randint(1, 3) if force_level else rng.randint(0, 3))
    delta = f"{rng.randint(-2, 2)}/{rng.randint(1, 2)}"
    return coords, level, delta


def _rand_data(model, rng, n_points, n_roots, force_level=False):
    zs = rng.sample([-3, -2, -1, 0, 1, 2, 3], n_points)
    ws = rng.sample([5, 7, -5, -7], n_roots)
    points = [(str(z), *_rand_point_args(rng, model.rank, force_level))
              for z in zs]
    roots = [(str(w), rng.randint(0, model.rank)) for w in ws]
    return MiuraData.make(model, points, roots)


def _on_shell_pair(model, rng):
    """Two points and one root placed by the closed form."""
    while True:
        d0 = _rand_data(model, rng, n_points=2, n_roots=1)
        try:
            w = single_root_position(d0)
        except ValueError:
            continue
        if any((w - z).is_zero for z, _ in d0.points):
            continue
        return MiuraData(model, d0.points, [(w, d0.roots[0][1])])


def _rand_poly_rf(rng, deg):
    return RationalFunction.from_poly(Polynomial.of(
        [Scalar.parse(f"{rng.randint(-6, 6)}/{rng.randint(1, 3)}")
         for _ in range(deg + 1)]))


# ----------------------------------------------------------------- algebra


@_check("algebra", "exponent multisets")
def _chk_exponents(rng):
    expected = {1: [1, 3, 5, 7, 9], 2: [1, 2, 4, 5, 7, 8], 3: [1, 2, 3, 5, 6]}
    fails = []
    for rank, want in expected.items():
        got = exponents(_model(rank, want[-1]))
        if got != want:
            fails.append({"rank": rank, "expected": want, "got": got})
    return len(expected), fails


@_check("algebra", "graded slice dimensions")
def _chk_dims(rng):
    fails, cases = [], 0
    for rank, K in ((1, 9), (2, 8), (3, 6)):
        model = _model(rank, K)
        n = rank + 1
        for g in range(-K, K + 1):
            cases += 1
            want = rank + (0 if g % n == 0 else 1)
            if model.dim_loop(g) != want:
                fails.append({"rank": rank, "grade": g,
                              "expected": want, "got": model.dim_loop(g)})
        cases += 1
        if model.dim(0) != model.dim_loop(0) + 1:
            fails.append({"rank": rank, "grade": 0,
                          "detail": "central direction missing at grade 0"})
    return cases, fails


@_check("algebra", "complement dimension equals the rank")
def _chk_complement(rng):
    fails, cases = [], 0
    for rank, K in ((1, 9), (2, 8), (3, 6)):
        model = _model(rank, K)
        for g in range(-K, K + 1):
            cases += 1
            _a, c = principal_decomposition(model, g)
            if len(c) != rank:
                fails.append({"rank": rank, "grade": g, "dim": len(c)})
    return cases, fails


@_check("algebra", "principal pairings and brackets")
def _chk_principal(rng):
    fails, cases = [], 0
    for rank, K in ((1, 9), (2, 8), (3, 6)):
        model = _model(rank, K)
        grades = sorted(model.principal_vectors())
        hv = Scalar.exact(model.dual_coxeter)
        for m in grades:
            pm = model.principal_vector(m)
            for n in grades:
                cases += 1
                pn = model.principal_vector(n)
                want = hv if m + n == 0 else Scalar.zero()
                if not (_zero(pm.pair(pn)) - want).is_zero:
                    fails.append({"rank": rank, "pairing": [m, n],
                                  "got": str(_zero(pm.pair(pn)))})
                    continue
                if abs(m + n) > model.window:
                    continue
                br = pm.bracket(pn)
                wantb = Scalar.exact(m if m + n == 0 else 0)
                if br.parts or not (_zero(br.delta) - wantb).is_zero:
                    fails.append({"rank": rank, "bracket": [m, n]})
    return cases, fails


# --------------------------------------------------------------- canonical


@_check("canonical", "three routes to the first coefficient")
def _chk_v1_routes(rng):
    fails, cases = [], 0
    for _ in range(8):
        rank = rng.choice((1, 2))
        model = _model(rank, rng.randint(3, 6))
        d = _rand_data(model, rng, rng.randint(1, 3), rng.randint(0, 2))
        cases += 1
        conn = build_miura(d)
        recursive = quasi_canonicalize(conn).v[1]
        direct = v1_direct(conn)
        predicted = v1_predicted(d)
        if not (recursive == direct and recursive == predicted):
            fails.append({"data": d.to_json(),
                          "recursive": str(recursive),
                          "direct": str(direct),
                          "predicted": str(predicted)})
    return cases, fails


@_check("canonical", "reduction is idempotent")
def _chk_idempotent(rng):
    fails, cases = [], 0
    for _ in range(4):
        rank = rng.choice((1, 2))
        model = _model(rank, rng.randint(3, 5))
        d = _rand_data(model, rng, rng.randint(1, 2), rng.randint(0, 1))
        cases += 1
        qc = quasi_canonicalize(build_miura(d))
        again = quasi_canonicalize(qc.connection())
        if not (again.v == qc.v and again.phi == qc.phi):
            fails.append({"data": d.to_json()})
    return cases, fails


@_check("canonical", "coefficients only have poles at the data")
def _chk_pole_support(rng):
    fails, cases = [], 0
    for _ in range(6):
        rank = rng.choice((1, 2))
        model = _model(rank, rng.randint(3, 6))
        d = _rand_data(model, rng, rng.randint(1, 3), rng.randint(0, 2))
        allowed = {z for z, _ in d.points} | {w for w, _ in d.roots}
        qc = quasi_canonicalize(build_miura(d))
        for j, f in qc.v.items():
            cases += 1
            for p, _m in f.poles:
                if p not in allowed:
                    fails.append({"data": d.to_json(), "exponent": j,
                                  "stray pole": str(p)})
    return cases, fails


@_check("canonical", "residual gauges act one exponent at a time")
def _chk_residual_action(rng):
    fails, cases = [], 0
    for _ in range(4):
        rank = rng.choice((1, 2))
        model = _model(rank, 5)
        d = _rand_data(model, rng, 2, 0)
        qc = quasi_canonicalize(build_miura(d))
        js = [j for j in qc.exponents() if j > 1]
        j = rng.choice(js)
        f = _rand_poly_rf(rng, rng.randint(0, 3))
        moved = residual_gauge(qc, {j: f})
        hv = model.dual_coxeter
        cases += 1
        want = qc.v[j] - twisted_derivative(qc.phi, j, hv, f)
        untouched = all(moved.v[i] == qc.v[i]
                        for i in qc.exponents() if i != j)
        if not (moved.v[j] == want and untouched):
            fails.append({"data": d.to_json(), "exponent": j, "shift": str(f)})
    return cases, fails


# ------------------------------------------------------------------- bethe


@_check("bethe", "closed-form roots are regular points")
def _chk_on_shell(rng):
    fails, cases = [], 0
    for _ in range(6):
        rank = rng.choice((1, 2))
        d = _on_shell_pair(_model(rank, rng.randint(4, 6)), rng)
        cases += 1
        try:
            rows = regularity_check(d)
        except AssertionError as exc:
            fails.append({"data": d.to_json(), "error": str(exc)})
            continue
        if not (is_on_shell(d) and all(r["regular"] for r in rows)):
            fails.append({
                "data": d.to_json(),
                "rows": [{k: str(v) for k, v in r.items()} for r in rows],
            })
    return cases, fails


@_check("bethe", "off-shell roots obstruct with the master partial")
def _chk_off_shell(rng):
    fails, cases = [], 0
    for _ in range(6):
        rank = rng.choice((1, 2))
        model = _model(rank, rng.randint(4, 6))
        d_on = _on_shell_pair(model, rng)
        w = d_on.roots[0][0] + Scalar.parse(f"{rng.randint(1, 3)}/7")
        if any((w - z).is_zero for z, _ in d_on.points):
            continue
        d = MiuraData(model, d_on.points, [(w, d_on.roots[0][1])])
        cases += 1
        residual = bethe_residuals(d)[0]
        if residual.is_zero:
            continue  # accidental second critical point; nothing to test
        try:
            rows = regularity_check(d)
        except AssertionError as exc:
            fails.append({"data": d.to_json(), "error": str(exc)})
            continue
        hv = Scalar.exact(model.dual_coxeter)
        got = quasi_canonicalize(build_miura(d)).v[1].residue_at(w)
        ok = (not rows[0]["regular"]) and (got * hv - residual).is_zero
        if not ok:
            fails.append({"data": d.to_json(),
                          "v1 residue": str(got),
                          "partial": str(residual)})
    return cases, fails


@_check("bethe", "quadratic data reads off the first coefficient")
def _chk_quadratic(rng):
    fails, cases = [], 0
    for _ in range(5):
        rank = rng.choice((1, 2))
        model = _model(rank, rng.randint(3, 5))
        d = _rand_data(model, rng, rng.randint(2, 3), rng.randint(0, 2))
        cases += 1
        rows, _on = quadratic_eigenvalue_data(d)
        v1 = quasi_canonicalize(build_miura(d)).v[1]
        hv = Scalar.exact(model.dual_coxeter)
        zero = Scalar.zero()
        ok = True
        for (z, _lam), row in zip(d.points, rows):
            parts = dict(v1.laurent_at(z))
            double = parts.get(2, zero) * hv
            simple = parts.get(1, zero) * hv
            ok = ok and (double - row["casimir"]).is_zero
            ok = ok and (simple - row["hamiltonian"]).is_zero
        if not ok:
            fails.append({"data": d.to_json()})
    return cases, fails


# ------------------------------------------------------------------ coords


def _rand_mobius(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c != 0:
            return (a, b, c, d)


def _mobius_inverse(mob):
    a, b, c, d = mob
    return (d, -b, -c, a)


@_check("coords", "reduction commutes with coordinate changes")
def _chk_coord_commute(rng):
    fails, cases = [], 0
    for _ in range(6):
        rank = rng.choice((1, 2))
        model = _model(rank, rng.randint(3, 4))
        d = _rand_data(model, rng, rng.randint(1, 2), rng.randint(0, 1))
        mob = _rand_mobius(rng)
        cases += 1
        conn = build_miura(d)
        route_a = quasi_canonicalize(change_coordinate(conn, mob))
        route_b = change_coordinate(quasi_canonicalize(conn), mob)
        if not (route_a.phi == route_b.phi and route_a.v == route_b.v):
            fails.append({"data": d.to_json(), "mobius": list(mob)})
    return cases, fails


@_check("coords", "coordinate changes invert exactly")
def _chk_coord_roundtrip(rng):
    fails, cases = [], 0
    for _ in range(6):
        rank = rng.choice((1, 2))
        model = _model(rank, rng.randint(3, 4))
        d = _rand_data(model, rng, rng.randint(1, 2), rng.randint(0, 1))
        mob = _rand_mobius(rng)
        cases += 1
        conn = build_miura(d)
        back = change_coordinate(change_coordinate(conn, mob),
                                 _mobius_inverse(mob))
        if not back == conn:
            fails.append({"data": d.to_json(), "mobius": list(mob)})
    return cases, fails


# --------------------------------------------------------------- integrals


def _beta_data(a, b):
    """Rank-one data whose twist power P^{-1/2} is z^{a-1} (z-1)^{b-1};
    a and b may be complex."""
    def level(x):
        x = complex(-2 * (x - 1))
        return {"lambda_dot": ["0"], "level": [repr(x.real), repr(x.imag)]}

    return MiuraData.from_json({
        "algebra": _model(1, 3).descriptor(),
        "points": [{"z": "0", "weight": level(a)},
                   {"z": "1", "weight": level(b)}],
    })


@_check("integrals", "double circuits match the Gamma-function oracle")
def _chk_beta(rng):
    fails, cases = [], 0
    pairs = [(1 / 3, 1 / 2)]
    pairs += [(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85))
              for _ in range(2)]
    gamma = pochhammer((1, 0), radius="1/4")
    for a, b in pairs:
        cases += 1
        d = _beta_data(a, b)
        # pure-level data canonicalizes to v_1 = 0; the classical identity
        # is the period of the unit coefficient over the same twist
        q = QuasiCanonicalForm(d.model, d.twist(),
                               {1: RationalFunction.one()})
        res = twisted_integral(d, q, 1, gamma)
        beta = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
        pref = (1 - cmath.exp(2j * math.pi * a)) * (1 - cmath.exp(2j * math.pi * b))
        want = pref * beta * cmath.exp(1j * math.pi * (b - 1))
        if not (res.valid and abs(res.value - want) < 1e-8):
            fails.append({"a": a, "b": b, "got": [res.value.real,
                                                  res.value.imag],
                          "expected": [want.real, want.imag]})
    return cases, fails


@_check("integrals", "closed twisted exact forms integrate to zero")
def _chk_stokes(rng):
    fails, cases = [], 0
    gamma = pochhammer((1, 0), radius="1/4")
    for _ in range(3):
        d = _beta_data(rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85))
        f = _rand_poly_rf(rng, rng.randint(0, 4))
        cases += 1
        res = stokes_check(d, 1, f, gamma)
        if not (res.valid and abs(res.value) < 1e-9):
            fails.append({"value": [res.value.real, res.value.imag],
                          "shift": str(f)})
    return cases, fails


@_check("integrals", "values ignore residual gauges")
def _chk_gauge_invariant(rng):
    fails, cases = [], 0
    gamma = pochhammer((1, 0), radius="1/4")
    for rank, r in ((1, 3), (2, 2)):
        model = _model(rank, max(r, 3))
        points = [("0", *_rand_point_args(rng, rank, force_level=True)),
                  ("1", *_rand_point_args(rng, rank, force_level=True))]
        d = MiuraData.make(model, points, [])
        q = quasi_canonicalize(build_miura(d))
        for _ in range(2):
            cases += 1
            f = _rand_poly_rf(rng, rng.randint(0, 3))
            shifted = residual_gauge(q, {r: f})
            i1 = twisted_integral(d, q, r, gamma)
            i2 = twisted_integral(d, shifted, r, gamma)
            diff = abs(i1.value - i2.value)
            if not diff < 1e-8 * (1 + abs(i1.value)):
                fails.append({"rank": rank, "exponent": r, "shift": str(f),
                              "difference": diff})
    return cases, fails


# two points whose pairings against alpha_1 are 3/2 and -1/2, putting the
# closed-form root at w = 3/2, away from the contour between the points
_DEFORM_POINTS = [("0", ["1/2"], "1", "0"), ("1", ["-1/2"], "1", "0")]


@_check("integrals", "contours may cross regular roots but pay at poles")
def _chk_deformation(rng):
    model = _model(1, 3)
    base = -0.7 - 0.9j

    def pair(root_scalar):
        d = MiuraData.make(model, _DEFORM_POINTS, [(root_scalar, 1)])
        q = quasi_canonicalize(build_miura(d))
        w = root_scalar.as_complex()
        gamma = pochhammer((1, 0), radius="1/5", basepoint=0.5)
        bridge = segment_chain(0.5, base)
        loop = loop_around(w, 0.05, base)
        deformed = gamma + bridge + loop + bridge.reversed()
        i0 = twisted_integral(d, q, 1, gamma)
        i1 = twisted_integral(d, q, 1, deformed)
        return d, i0, i1

    fails, cases = [], 0
    d0 = MiuraData.make(model, _DEFORM_POINTS, [("1/2", 1)])
    w_on = single_root_position(d0)

    cases += 1
    d, i0, i1 = pair(w_on)
    if not abs(i1.value - i0.value) < 1e-8:
        fails.append({"case": "on shell",
                      "difference": abs(i1.value - i0.value)})

    for _ in range(2):
        cases += 1
        w_off = w_on + Scalar.parse(f"{rng.randint(1, 3)}/10")
        d, i0, i1 = pair(w_off)
        res = bethe_residuals(d)[0] / Scalar.exact(2)
        points = [0j, 1 + 0j]
        root_c = w_off.as_complex()
        logs = start_logs(points, 0.5)
        logs = advance_logs(points, logs, Line(0.5, base), 0.0, 1.0)
        logs = advance_logs(points, logs, Line(base, root_c), 0.0, 1.0)
        branch = cmath.exp(-0.5 * sum(logs))  # both levels are 1
        want = 2j * math.pi * branch * res.as_complex()
        got = i1.value - i0.value
        if not abs(got - want) < 1e-8:
            fails.append({"case": f"off shell at {w_off}",
                          "got": [got.real, got.imag],
                          "expected": [want.real, want.imag]})
    return cases, fails


# ------------------------------------------------------------------ runner


def run_suite(suite="all", seed=0):
    """Run one suite (or all of them) and return the report dict."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"pick one of {('all',) + SUITES}")
    t0 = time.perf_counter()
    checks = []
    for s, name, fn in _CHECKS:
        if suite != "all" and s != suite:
            continue
        rng = random.Random(f"{seed}/{s}/{name}")
        t1 = time.perf_counter()
        try:
            cases, fails = fn(rng)
        except Exception as exc:  # a crashed check is a failed check
            cases, fails = 0, [{"error": f"{type(exc).__name__}: {exc}"}]
        checks.append({
            "suite": s,
            "name": name,
            "cases": cases,
            "passed": not fails,
            "failures": fails,
            "seconds": round(time.perf_counter() - t1, 3),
        })
    return {
        "suite": suite,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "cases": sum(c["cases"] for c in checks),
        "failures": sum(len(c["failures"]) for c in checks),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
        "checks": checks,
    }


def summary_lines(report):
    """Human-readable one-line-per-check rendering of a report."""
    out = []
    for c in report["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        out.append(f"{mark}  [{c['suite']}] {c['name']} "
                   f"({c['cases']} cases, {c['seconds']:.2f}s)")
        for f in c["failures"][:3]:
            out.append(f"      counterexample: {f}")
        extra = len(c["failures"]) - 3
        if extra > 0:
            out.append(f"      ... and {extra} more")
    mark = "PASS" if report["passed"] else "FAIL"
    out.append(f"{mark}  overall: {report['cases']} cases, "
               f"{report['failures']} failures, "
               f"{report['elapsed_seconds']:.2f}s")
    return out