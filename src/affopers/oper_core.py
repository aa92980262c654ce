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

Higher coefficients are fixed only up to the residual gauge freedom
v_j -> v_j - (f' - (j phi / h_dual) f); ``twisted_class`` reduces v_j to its
class in that twisted cohomology: forms over one twist differ by a residual
gauge exactly when v_1 agrees and each other v_j - v_j' has class zero.
"""

from __future__ import annotations

from .affine_algebra import AlgebraModel, GradedVector, _qq_scalar
from .coeffs import (Polynomial, RationalFunction, Scalar,
                     partial_fractions, recombine)

__all__ = [
    "Connection",
    "QuasiCanonicalForm",
    "gauge_transform",
    "quasi_canonicalize",
    "v1_direct",
    "residual_gauge",
    "twisted_derivative",
    "twisted_class",
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


def twisted_class(phi: RationalFunction, j: int, hv: int,
                  g: RationalFunction):
    """Split g as  nf + twisted_derivative(phi, j, hv, F)  and return (nf, F).

    nf is the class of g in the degree-j twisted cohomology, modulo images
    (twisted derivatives): it is zero exactly when g is an image, and adding
    one to g keeps it.  phi must have simple poles only and vanish at
    infinity.  With kappa_p = j res_p(phi) / hv and K the sum of the
    residues of phi, a triangular pass lowers each pole of order n >= 2 at p
    by the image of (z-p)^(1-n) (leading coefficient -(n - 1 + kappa_p)),
    the polynomial part by that of z^(m+1) (m + 1 - j K / hv) and the simple
    pole at the last pole of phi by that of 1.  At a resonance (kappa_p = -M
    or j K / hv = M, M a positive integer) that term stays, and the reduced
    image of (z-p)^-M or z^M is a relation; nf is reduced modulo their span
    in a fixed monomial order, so it is canonical.
    """
    if any(m > 1 for _p, m in phi.poles) or phi.num.degree >= len(phi.poles):
        raise ValueError("twisted_class needs a twist with simple poles "
                         "that vanishes at infinity")

    def image(b):
        return _monomials(twisted_derivative(
            phi, j, hv, _from_monomials({b: Scalar.one()})))

    rels = []  # (pivot, relation, its preimage), pivots in descending rank
    for b in _resonances(phi, j, hv):
        rel = image(b)
        pre = _reduce(rel, image, phi, rels)
        if rel:  # rel is now the image of b - pre
            pivot = max(rel, key=_rank)
            s = Scalar.one() / rel[pivot]
            rels.append((pivot, _axpy({}, s, rel), _axpy({b: s}, -s, pre)))
            rels.sort(key=lambda r: _rank(r[0]), reverse=True)
    vec = _monomials(g)
    F = _reduce(vec, image, phi, rels)
    return _from_monomials(vec), _from_monomials(F)


def _monomials(f: RationalFunction) -> dict:
    """f as {(p, n): coefficient of (z-p)^-n, (None, m): that of z^m}."""
    poly, terms = partial_fractions(f)
    vec = {(None, m): x for m, x in enumerate(poly.coeffs) if not x.is_zero}
    return vec | {(p, n): x for p, n, x in terms}


def _from_monomials(vec) -> RationalFunction:
    deg = max((m for p, m in vec if p is None), default=-1)
    poly = Polynomial.of([vec.get((None, m), Scalar.zero())
                          for m in range(deg + 1)])
    return recombine(poly, [(p, n, x) for (p, n), x in vec.items()
                            if p is not None])


def _axpy(vec, x, other):
    """vec += x * other, in place, storing no zero; returns vec."""
    for k, y in other.items():
        vec[k] = vec.get(k, Scalar.zero()) + x * y
        if vec[k].is_zero:
            del vec[k]
    return vec


def _reduce(vec, image, phi, rels):
    """The triangular pass of ``twisted_class`` and then the relations, in
    place on vec; returns F such that the input is vec plus the image of F."""
    F = {}

    def step(b, pivot):
        x = vec.get(pivot)
        if x is not None:
            img = image(b)
            lead = img.get(pivot)
            if lead is not None:  # else b is resonant and the term stays
                _axpy(F, x / lead, {b: Scalar.one()})
                _axpy(vec, -(x / lead), img)

    # lowering at p adds lower orders at p and simple poles elsewhere;
    # lowering z^m adds lower powers and simple poles of phi
    for p in {p for p, n in vec if p is not None and n > 1}:
        for n in range(max(k for q, k in vec if q == p), 1, -1):
            step((p, n - 1), (p, n))
    for m in range(max((m for p, m in vec if p is None), default=-1), -1, -1):
        step((None, m + 1), (None, m))
    if phi.poles:
        step((None, 0), (phi.poles[-1][0], 1))
    for pivot, rel, pre in rels:
        if pivot in vec:
            _axpy(F, vec[pivot], pre)
            _axpy(vec, -vec[pivot], rel)
    return F


def _resonances(phi, j, hv):
    """Monomials whose image lacks its leading term: (z-p)^-M where
    kappa_p = -M, and z^M where j K / hv = M, M a positive integer."""
    c = Scalar.exact(j) / Scalar.exact(hv)
    cands = [(p, -(c * phi.residue_at(p))) for p, _m in phi.poles]
    cands.append((None, -sum((k for _p, k in cands), Scalar.zero())))
    return [(p, int(k.re)) for p, k in cands
            if k.im == 0 and k.re.denominator == 1 and k.re > 0]


def _rank(key):
    """Elimination order: powers of z above poles, higher orders first."""
    p, n = key
    return (1, n, 0, 0) if p is None else (0, n, p.re, p.im)


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
