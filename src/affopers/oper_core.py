"""Connections d + (p_-1 + u(z)) dz and their quasi-canonical forms.

``u`` is a GradedVector supported in grades >= 0, plus a center coefficient
and a derivation coefficient; the derivation coefficient is -phi/h_dual for
the twist function phi and is invariant under every gauge transformation used
here (brackets never produce the derivation).

The reduction to quasi-canonical form

    d + (p_-1 - (phi/h_dual) rho + sum_{j in E} v_j p_j) dz

runs one graded step at a time: at grade n the component splits into its
kernel part (the v_j coefficient when n is an exponent) and its complement
part, and one homogeneous gauge factor exp(m_{n+1}) removes the complement
without touching anything below.  The factors are kept as an ordered list;
composing them into a single exponential is possible (see ``bch``) but never
needed, and at realistic cutoffs it is far more expensive than applying the
steps in order.
"""

from __future__ import annotations

from .affine_algebra import AlgebraModel, GradedVector, _qq_scalar
from .coeffs import Polynomial, RationalFunction, Scalar

__all__ = [
    "Connection",
    "QuasiCanonicalForm",
    "gauge_transform",
    "quasi_canonicalize",
    "v1_direct",
    "residual_gauge",
    "twisted_derivative",
    "solve_twisted_ode",
    "change_coordinate",
    "bch",
]


def _rf_mat_vec(mat, vec):
    """Rational matrix times a vector of rational functions."""
    out = []
    for row in mat:
        acc = RationalFunction.zero()
        for q, f in zip(row, vec):
            if q != 0 and not f.is_zero:
                acc = acc + f.scale(_qq_scalar(q))
        out.append(acc)
    return out


def _rf_pow(f: RationalFunction, k: int) -> RationalFunction:
    out = RationalFunction.one()
    for _ in range(k):
        out = out * f
    return out


class Connection:
    """d + (p_-1 + u) dz with u supported in grades >= 0."""

    __slots__ = ("model", "u")

    def __init__(self, model: AlgebraModel, u: GradedVector):
        if u.model is not model:
            raise ValueError("matrix built over a different algebra model")
        if u.parts and min(u.parts) < 0:
            raise ValueError("connection matrix must live in grades >= 0")
        self.model = model
        self.u = u

    @property
    def phi(self) -> RationalFunction:
        """Twist function: u carries -phi/h_dual on the derivation."""
        return self.u.rho.scale(Scalar.exact(-self.model.dual_coxeter))

    @staticmethod
    def with_twist(model, u: GradedVector, phi: RationalFunction) -> "Connection":
        hv = Scalar.exact(model.dual_coxeter)
        u = u.add_rho(phi.scale(Scalar.exact(-1) / hv) - u.rho)
        return Connection(model, u)

    def full_matrix(self) -> GradedVector:
        return self.model.pminus() + self.u

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return self.model is other.model and self.u == other.u

    __hash__ = None

    def __repr__(self):
        return f"Connection({self.u!r})"


def _gauge_u(model, u: GradedVector, m: GradedVector,
             upto=None) -> GradedVector:
    """Matrix of the gauge transform of d + (p_-1 + u) dz by exp(m).

    m must be loop-valued in grades >= 1; the series terminates inside the
    grading window.  With ``upto`` given, only grades <= upto of the result
    are computed and kept: every bracket with m raises the grade, so the
    dropped terms never feed back into the grades that are kept.
    """
    if not m.delta.is_zero or not m.rho.is_zero:
        raise ValueError("gauge parameters must be loop-valued")
    if m.parts and min(m.parts) < 1:
        raise ValueError("gauge parameters must live in grades >= 1")
    full = model.pminus() + u
    trunc = full.truncated or m.truncated
    # sum_k ad_m^k/k! (p_-1 + u)
    acc = full
    term = full
    k = 1
    while True:
        term = m.bracket(term, upto).scale_scalar(
            Scalar.exact(1) / Scalar.exact(k))
        trunc = trunc or term.truncated
        if term.is_zero:
            break
        acc = acc + term
        k += 1
    # minus sum_k ad_m^{k-1}/k! (m')
    term = m.derivative()
    k = 1
    while not term.is_zero:
        acc = acc - term
        k += 1
        term = m.bracket(term, upto).scale_scalar(
            Scalar.exact(1) / Scalar.exact(k))
        trunc = trunc or term.truncated
    acc = acc - model.pminus()
    if acc.parts and min(acc.parts) < 0:
        raise AssertionError("gauge step leaked below grade 0")
    parts = acc.parts
    if upto is not None:
        parts = {g: v for g, v in parts.items() if g <= upto}
    return GradedVector(acc.model, parts, acc.delta, acc.rho, trunc)


def gauge_transform(conn: Connection, m: GradedVector) -> Connection:
    """Apply exp(m) to the connection, m loop-valued in grades >= 1."""
    return Connection(conn.model, _gauge_u(conn.model, conn.u, m))


class QuasiCanonicalForm:
    """d + (p_-1 - (phi/h_dual) rho + sum v_j p_j) dz up to the cutoff.

    ``v`` maps each exponent j <= cutoff to its coefficient (the form is
    only pinned down through grade K, and nothing above it is kept);
    ``gauge`` is the ordered list of homogeneous gauge parameters that were
    applied (first factor first).
    """

    __slots__ = ("model", "phi", "v", "gauge", "truncated")

    def __init__(self, model, phi, v, gauge=(), truncated=False):
        self.model = model
        self.phi = phi
        self.v = dict(v)
        self.gauge = tuple(gauge)
        self.truncated = truncated

    def coefficient(self, j) -> RationalFunction:
        return self.v.get(j, RationalFunction.zero())

    def exponents(self):
        return sorted(self.v)

    def connection(self) -> Connection:
        model = self.model
        u = GradedVector.zero(model)
        pv = model.principal_vectors()
        for j, f in self.v.items():
            if not f.is_zero:
                u = u + GradedVector.from_coeff_vector(model, j, pv[j][0],
                                                       scale=f)
        hv = Scalar.exact(model.dual_coxeter)
        u = u.add_rho(self.phi.scale(Scalar.exact(-1) / hv))
        return Connection(model, u)

    def to_json(self):
        return {
            "phi": self.phi.to_json(),
            "v": {str(j): f.to_json() for j, f in sorted(self.v.items())},
        }

    def __repr__(self):
        return f"QuasiCanonicalForm(v={self.v!r})"


def quasi_canonicalize(conn: Connection) -> QuasiCanonicalForm:
    """Reduce a connection to quasi-canonical form through grade = cutoff."""
    model = conn.model
    cur = conn.u
    factors = []
    v = {}
    for n in range(0, model.cutoff + 1):
        comp = cur.component(n)
        if n == 0:
            inv = model.decomposition_matrix_inv(0)
            coords = _rf_mat_vec(inv, [cur.delta] + comp)
            d_excess = coords[0]
            c_coords = coords[1:]
            m = GradedVector.zero(model)
            for q, col in zip(c_coords, model.image_complement_basis(1)):
                if not q.is_zero:
                    m = m + GradedVector.from_coeff_vector(model, 1, col,
                                                           scale=q)
            if not d_excess.is_zero:
                m = m + model.pplus().scale(-d_excess)
        else:
            inv = model.decomposition_matrix_inv(n)
            coords = _rf_mat_vec(inv, comp)
            npv = len(model.principal_vectors().get(n, ()))
            if npv:
                v[n] = coords[0]
            c_coords = coords[npv:]
            m = GradedVector.zero(model)
            if any(not q.is_zero for q in c_coords):
                scoords = _rf_mat_vec(model.step_solve_matrix_inv(n), c_coords)
                for q, col in zip(scoords,
                                  model.image_complement_basis(n + 1)):
                    if not q.is_zero:
                        m = m + GradedVector.from_coeff_vector(model, n + 1,
                                                               col, scale=q)
        if not m.is_zero:
            cur = _gauge_u(model, cur, m, upto=model.cutoff)
            factors.append(m)
    # terms dropped above the cutoff never feed back into grades <= cutoff
    # (gauge parameters only raise grades), so the reported slice is exact;
    # the form is only marked truncated when the input already was
    return QuasiCanonicalForm(model, conn.phi, v, factors, conn.u.truncated)


def v1_direct(conn: Connection) -> RationalFunction:
    """First coefficient of the quasi-canonical form, in closed form.

    Only the grade-0 and grade-1 components of u enter:
        h v_1 = (u_0|u_0)/2 + (rho|u_0') - (phi/h)(rho|u_0) + (p_-1|u_1).
    """
    model = conn.model
    hv = Scalar.exact(model.dual_coxeter)
    half = Scalar.exact(1) / Scalar.exact(2)
    u = conn.u
    u0 = GradedVector(model, {}, u.delta, RationalFunction.zero())
    comp0 = u.component(0)
    if any(not c.is_zero for c in comp0):
        u0.parts[0] = comp0
    u1 = GradedVector.zero(model)
    comp1 = u.component(1)
    if any(not c.is_zero for c in comp1):
        u1.parts[1] = comp1
    rho = GradedVector.zero(model).add_rho(RationalFunction.one())
    acc = u0.pair(u0).scale(half)
    acc = acc + rho.pair(u0.derivative())
    acc = acc - conn.phi.scale(Scalar.one() / hv) * rho.pair(u0)
    acc = acc + model.pminus().pair(u1)
    return acc.scale(Scalar.one() / hv)


def twisted_derivative(phi: RationalFunction, j: int, hv: int,
                       f: RationalFunction) -> RationalFunction:
    """The degree-j twisted derivative  f' - (j phi / hv) f."""
    return f.derivative() - phi.scale(Scalar.exact(j) / Scalar.exact(hv)) * f


def residual_gauge(qc: QuasiCanonicalForm, params, allow_first=False):
    """Apply exp(sum_j f_j p_j) to a quasi-canonical form.

    The principal directions commute, so the action is exactly

        v_j  ->  v_j - (f_j' - (j phi / h_dual) f_j).

    ``params`` maps exponents to rational functions.  j = 1 changes the
    distinguished first coefficient and is refused unless ``allow_first``
    (the quotient by these transformations starts at the second exponent).
    """
    model = qc.model
    v = dict(qc.v)
    for j, f in params.items():
        if j == 1 and not allow_first:
            raise ValueError(
                "residual gauge along the first exponent is disabled "
                "(pass allow_first=True to work modulo all of them)"
            )
        if j not in v:
            raise ValueError(f"{j} is not an exponent below the cutoff")
        v[j] = v[j] - twisted_derivative(qc.phi, j, model.dual_coxeter, f)
    return QuasiCanonicalForm(model, qc.phi, v, qc.gauge, qc.truncated)


def solve_twisted_ode(phi: RationalFunction, j: int, hv: int,
                      rhs: RationalFunction, pole_candidates,
                      max_degree=4, max_order=3):
    """Find f with  f' - (j phi / hv) f = rhs  in a rational-function ansatz.

    The ansatz spans z^0..z^max_degree plus (z - a)^-1..(z - a)^-max_order
    for each candidate pole a.  Clearing the common denominator turns the
    equation into a polynomial identity, solved exactly coefficient by
    coefficient (real and imaginary parts split so complex data is fine).
    Returns f, or None when nothing in the ansatz matches.
    """
    from . import _linalg

    basis = []
    one = Scalar.one()
    for k in range(max_degree + 1):
        basis.append(RationalFunction.from_poly(
            Polynomial.of([Scalar.zero()] * k + [one])))
    for a in pole_candidates:
        for m in range(1, max_order + 1):
            basis.append(RationalFunction.from_split(
                Polynomial.one(), ((a, m),)))
    images = [twisted_derivative(phi, j, hv, b) for b in basis]
    # clear every pole in sight, then match polynomial coefficients
    mults = {}
    for f in images + [rhs]:
        for p, m in f.pole_dict().items():
            if m > mults.get(p, 0):
                mults[p] = m
    den = RationalFunction.from_poly(
        Polynomial.one() if not mults
        else _clearing_poly(mults))
    cleared = []
    for f in images + [rhs]:
        g = f * den
        if not g.is_polynomial:
            return None  # a pole outside the candidate set: no match possible
        cleared.append(g.num)
    *imgs, target = cleared
    deg = max([p.degree for p in cleared] + [0])
    # unknowns: re and im of each ansatz coefficient
    rows = []
    rhsv = []
    for k in range(deg + 1):
        row_re = []
        row_im = []
        for p in imgs:
            c = p.coeffs[k] if k <= p.degree else Scalar.zero()
            row_re.extend([c.re, -c.im])
            row_im.extend([c.im, c.re])
        t = target.coeffs[k] if k <= target.degree else Scalar.zero()
        rows.append(row_re)
        rhsv.append(t.re)
        rows.append(row_im)
        rhsv.append(t.im)
    sol = _linalg.solve(rows, rhsv)
    if sol is None:
        return None
    f = RationalFunction.zero()
    for i, b in enumerate(basis):
        s = Scalar(sol[2 * i], sol[2 * i + 1])
        if not s.is_zero:
            f = f + b.scale(s)
    if twisted_derivative(phi, j, hv, f) == rhs:
        return f
    return None


def _clearing_poly(mults):
    out = Polynomial.one()
    z = Polynomial.variable()
    for p, m in sorted(mults.items(), key=lambda kv: (kv[0].re, kv[0].im)):
        fac = z - Polynomial.constant(p)
        for _ in range(m):
            out = out * fac
    return out


def change_coordinate(obj, mobius):
    """Pull back through z = (a s + b) / (c s + d).

    A grade-g coefficient becomes (coefficient o mu) (mu')^{g+1}; the center
    coefficient picks up a single mu'; the twist becomes
    phi~ = (phi o mu) mu' + h_dual mu''/mu'.  Applies to a Connection or to a
    QuasiCanonicalForm (whose gauge history is dropped: it belongs to the old
    coordinate).
    """
    a, b, c, d = [x if isinstance(x, Scalar) else Scalar.parse(x)
                  for x in mobius]
    det = a * d - b * c
    if det.is_zero:
        raise ValueError("mobius map must be invertible")

    def compose(f):
        return f.compose_mobius(a, b, c, d)

    if c.is_zero:
        mu_prime = RationalFunction.from_scalar(a / d)
        mu_pp_over = RationalFunction.zero()
    else:
        pole = -d / c
        mu_prime = RationalFunction.from_split(
            Polynomial.constant(det / (c * c)), ((pole, 2),))
        # mu''/mu' = -2c/(cs+d) = -2/(s - pole)
        mu_pp_over = RationalFunction.from_split(
            Polynomial.constant(Scalar.exact(-2)), ((pole, 1),))

    if isinstance(obj, Connection):
        model = obj.model
        hv = Scalar.exact(model.dual_coxeter)
        parts = {}
        for g, comps in obj.u.parts.items():
            fac = _rf_pow(mu_prime, g + 1)
            parts[g] = [compose(f) * fac if not f.is_zero else f
                        for f in comps]
        delta = compose(obj.u.delta) * mu_prime
        phi_new = compose(obj.phi) * mu_prime + mu_pp_over.scale(hv)
        rho = phi_new.scale(Scalar.exact(-1) / hv)
        u = GradedVector(model, parts, delta, rho, obj.u.truncated)
        u._prune()
        return Connection(model, u)

    if isinstance(obj, QuasiCanonicalForm):
        model = obj.model
        hv = Scalar.exact(model.dual_coxeter)
        phi_new = compose(obj.phi) * mu_prime + mu_pp_over.scale(hv)
        v = {j: compose(f) * _rf_pow(mu_prime, j + 1)
             for j, f in obj.v.items()}
        return QuasiCanonicalForm(model, phi_new, v, (), obj.truncated)

    raise TypeError(f"cannot change coordinates on {type(obj).__name__}")


def bch(x: GradedVector, y: GradedVector) -> GradedVector:
    """log(exp(x) exp(y)) through 4-letter terms.

    Exact whenever both arguments sit in grades >= 1 and the grading window
    is at most 4 (higher terms then die in the window); used by tests to
    confirm that applying gauge factors in order matches one combined
    exponential.
    """
    half = Scalar.exact(1) / Scalar.exact(2)
    twelfth = Scalar.exact(1) / Scalar.exact(12)
    neg24 = Scalar.exact(-1) / Scalar.exact(24)
    xy = x.bracket(y)
    out = x + y + xy.scale_scalar(half)
    out = out + x.bracket(xy).scale_scalar(twelfth)
    out = out + y.bracket(y.bracket(x)).scale_scalar(twelfth)
    out = out + y.bracket(x.bracket(xy)).scale_scalar(neg24)
    return out
