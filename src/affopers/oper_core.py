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
without touching anything below.  The factors are kept as an ordered list:
composing them into a single exponential is never needed, and at realistic
cutoffs it is far more expensive than applying the steps in order.

Every denominator of the reduction is known before it starts.  Each v_j is
a section of Omega^(j+1), and the pole orders follow the grading: with c_p
the least integer such that every input coefficient of grade g (delta and
rho at grade 0) has order at most c_p (g+1) at p, and L = prod (z-p)^c_p, a
grade-g coefficient of u stays a numerator over L^(g+1) and a grade-a
coefficient of a gauge parameter one over L^a through every step.  A
bracket adds grades, a + (b+1) = (a+b) + 1, and the decomposition
matrices are constant.  m' and rho = R/L enter a gauge step only through
the grade-a part of its series' starting term [m, p_-1 + u + rho] - m'
(see ``gauge_transform``), where [m, rho] = -a N R / L^(a+1) and
(N/L^a)' = (N' L - a N L') / L^(a+1) leave the one numerator
a N (L' - R) - N' L over L^(a+1).  ``quasi_canonicalize``
therefore runs on those numerators alone, as integer polynomial products
and n-ary sums with no pole bookkeeping, and with no gcd taken by any
product or sum, since every value is only multiplied, added or tested for
zero again.

Inside the reduction a numerator is packed (Kronecker substitution): its
real and its imaginary coefficients are each one Python int
``sum c_k 2^(w k)`` with balanced digits, held as ``(pr, pi, den, bound,
n, w)`` beside a proven bound on the bit length of every digit and the
base it is packed at.  A product of two numerators is then one integer
product (three for Gaussian data) and a sum ``sum (r f) x`` over the lcm
denominator, so CPython's integer arithmetic does the coefficient loops.
Each product and sum derives its result's bound from its operands', and
the invariant is bound < w - 1: every digit then lies strictly inside
``(-2^(w-1), 2^(w-1))``, so a value unpacks uniquely and is zero exactly
when both ints are.  Every value carries its own base, a rung of the
ladder ``coeffs.packing_base``: an operation is taken at the widest base
of its operands, or where that does not hold its bound at the ladder's
base for the bound, and its narrower operands are moved there first.  An
operand's digits always fit its own base, so moving it is exact and no
wrapped value is ever used.  The products of a bracket into one grade
share one base, so each operand moves at most once per bracket.  A base
thus follows the digits it holds: the grades of a step, whose
coefficients grow with the grade, are not padded to the widest of them.
Values are unpacked only to take a content gcd, for the parameter m
(whose derivative and lowering read its digits) and at the final
lowering.  A gauge step computes only what a later read needs: after the
step at grade a, the rows read the grades >= a and the brackets of later
steps the grades <= K - a - 1.  So the step at grade K + 1 is not run
(its factor is still kept), grade a - 1 is dropped when 2a > K, and
[m, p_-1] is not formed when 2a > K + 1.  A step divides by their content
gcd only the numerators a later bracket reads, so that unreduced
denominators do not compound through the products at large cutoffs; the
other grades reach only sums and the rows, where each parameter's
numerators are divided by theirs.  Each v_j is normalized once, when it
is lowered to its canonical rational function at the end.  The gauge
factors are bookkeeping that no output reads: the form keeps their raw
numerators, and each entry is normalized and lowered once, on the first
read of ``QuasiCanonicalForm.gauge``.  The public ``gauge_transform``
stays on rational functions.

Higher coefficients are fixed only up to the residual gauge freedom
v_j -> v_j - (f' - (j phi / h_dual) f); ``twisted_class`` reduces v_j to its
class in that twisted cohomology: forms over one twist differ by a residual
gauge exactly when v_1 agrees and each other v_j - v_j' has class zero.
"""

from __future__ import annotations

import math

from .affine_algebra import AlgebraModel, GradedVector
from .coeffs import (_KZERO, Polynomial, RationalFunction, Scalar,
                     _derivative, _kmul, _kreduced, _ksum, _reduced,
                     _sorted_poles, lift_numerator, lower_numerator,
                     numerator_bits, pack_numerator, packing_base,
                     partial_fractions, rebase_numerator, recombine,
                     unpack_numerator)

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
]


# packed numerators (pr, pi, den, bound, length, base): see the module
# docstring; the packed 1 is the same int at every base
_KONE = pack_numerator(((1,), None, 1))
_SONE = Scalar(1, 0, 1)
_SMINUS = Scalar(-1, 0, 1)


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

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return self.model is other.model and self.u == other.u

    __hash__ = None

    def __repr__(self):
        return f"Connection({self.u!r})"


def gauge_transform(conn: Connection, m: GradedVector) -> Connection:
    """Apply exp(m) to the connection, m loop-valued in grades >= 1:

        u + sum_{k>=1} ad_m^(k-1)/k! (S),   S = [m, p_-1 + u] - m',

    the series of ad_m^k/k! (p_-1 + u) and of -ad_m^(k-1)/k! (m') in one,
    which terminates inside the grading window.
    """
    if not m.delta.is_zero or not m.rho.is_zero:
        raise ValueError("gauge parameters must be loop-valued")
    if m.parts and min(m.parts) < 1:
        raise ValueError("gauge parameters must live in grades >= 1")
    model, u = conn.model, conn.u
    # the series' brackets are taken unscaled, and the sum of each coefficient
    # is reduced once; p_-1 stays out of it, as the result leaves it out
    terms, k = [(_SONE, u)], 1
    term = GradedVector.lincomb(model, [(_SONE, m.bracket(model.pminus() + u)),
                                        (_SMINUS, m.derivative())])
    while not term.is_zero:
        terms.append((Scalar(1, 0, math.factorial(k)), term))
        k += 1
        term = m.bracket(term)
    return Connection(model, GradedVector.lincomb(model, terms))


class QuasiCanonicalForm:
    """d + (p_-1 - (phi/h_dual) rho + sum v_j p_j) dz up to the cutoff.

    ``v`` maps each exponent j <= cutoff to its coefficient (the form is
    only pinned down through grade K, and nothing above it is kept);
    ``gauge`` is the ordered tuple of homogeneous gauge parameters that
    were applied (first factor first).  A form made by
    ``quasi_canonicalize`` holds them as the reduction's raw numerators and
    lowers them to canonical rational functions on the first read of
    ``gauge``, once; until then they cost no lowering.  Every ``v_j`` is
    exact through the cutoff: grades dropped above the grading window never
    reach it, since gauge parameters only raise grades.

    ``truncated`` is a shim beside ``coeffs.EXACT`` and ``coeffs._Q``:
    bench/ still passes it, and no program path sets it.
    """

    __slots__ = ("model", "phi", "v", "_gauge", "_raw", "truncated")

    def __init__(self, model, phi, v, gauge=(), truncated=False):
        self.model = model
        self.phi = phi
        self.v = dict(v)
        self._gauge = tuple(gauge)
        # (frame, [(grade a, raw numerators over L^a)]) while unread
        self._raw = None
        self.truncated = truncated

    @property
    def gauge(self):
        """The gauge factors, lowered on the first read."""
        raw = self._raw
        if raw is not None:
            frame, steps = raw
            zero = RationalFunction.zero()
            self._gauge = tuple(
                GradedVector(self.model, {a: [lower_numerator(x, frame, a)
                                              for x in mnum]}, zero, zero)
                for a, mnum in steps)
            self._raw = None
        return self._gauge

    def exponents(self):
        return sorted(self.v)

    def connection(self) -> Connection:
        model = self.model
        u = GradedVector.zero(model)
        pv = model.principal_vectors()
        for j, f in self.v.items():
            # each exponent has its own grade, so its part is set directly
            if not f.is_zero:
                u.parts.update(GradedVector.from_coeff_vector(
                    model, j, pv[j], scale=f).parts)
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
    """Reduce a connection to quasi-canonical form through grade = cutoff.

    The reduction runs on packed numerators over fixed denominators (see
    the module docstring).  With c_p the least integer such that every
    input coefficient of grade g <= cutoff (delta and rho at grade 0) has
    order at most c_p (g+1) at p, and L = prod (z-p)^c_p, a grade-g
    coefficient of u is a numerator over L^(g+1) and a grade-a coefficient
    of a gauge parameter one over L^a, through every step.  No product or
    sum tests a pole or takes a gcd; each v_j is normalized and lowered to
    its canonical form once, at the end, and each gauge factor on the first
    read of the form's ``gauge``.  Delta is read only at grade 0 and rho
    never changes, so the gauge steps compute neither; input grades above
    the cutoff never feed a grade at or below it and are dropped on entry.
    Each gauge step computes only what a later read needs: the step at
    grade K + 1 is not run, as no row reads what it rewrites, and a step
    at grade a takes a content gcd only on the grades <= K - a - 1 that
    later brackets read (see ``_gauge_step``).

    Between ``lift_numerator`` and ``lower_numerator`` the numerators are
    packed, each at a base 2^w from the ladder ``packing_base``, and every
    packed value keeps bound < w - 1.  A product or sum whose bound would
    reach the base of its operands is taken at a wider base, to which its
    operands are moved first, so no wrapped value is ever used.
    """
    model = conn.model
    K = model.cutoff
    u = conn.u
    parts = {g: comp for g, comp in u.parts.items() if g <= K}
    orders = {}
    for g, comp in [(0, (u.delta, u.rho))] + list(parts.items()):
        for f in comp:
            for p, m in f.poles:
                c = -(-m // (g + 1))
                if c > orders.get(p, 0):
                    orders[p] = c
    frame = _sorted_poles(orders)
    L = lift_numerator(RationalFunction.one(), frame, 1)
    dL, R = (pack_numerator(x) for x in (
        (*_derivative(L[0], L[1]), L[2]), lift_numerator(u.rho, frame, 1)))
    # L, L' - R for rho = R/L (the only use of either), and the center's
    consts = (pack_numerator(L), _ksum([(_SONE, dL), (_SMINUS, R)]),
              pack_numerator(lift_numerator(u.delta, frame, 1)))
    cur = {g: [pack_numerator(lift_numerator(f, frame, g + 1)) for f in comp]
           for g, comp in parts.items()}
    vnum = {}
    steps = []
    for n in range(0, K + 1):
        vx, mraw = _grade_rows(model, consts, cur, n)
        if vx is not None:
            vnum[n] = vx
        if mraw is not None:
            steps.append((n + 1, mraw))
            # the step at grade K + 1 would rewrite only grades no row reads
            if n < K:
                cur = _gauge_step(model, consts, cur, n + 1, mraw)
    v = {n: lower_numerator(x, frame, n + 1) for n, x in vnum.items()}
    # terms dropped above the cutoff never feed back into grades <= cutoff
    # (gauge parameters only raise grades), so the reported slice is exact
    qc = QuasiCanonicalForm(model, conn.phi, v)
    qc._raw = (frame, steps)
    return qc


def _grade_rows(model, consts, cur, n):
    """The raw v_n (None when n is not an exponent) and the raw numerators
    of the grade-(n+1) gauge parameter, divided by their content gcd (None
    when it vanishes), from the grade-n numerators of ``cur``."""
    comp = cur.get(n) or [_KZERO] * model.dim_loop(n)
    if n == 0:
        comp = [consts[2]] + comp
    vrow, mrows = model.gauge_step_rows(n)
    if vrow is not None:
        mrows = (vrow,) + mrows
    sums = [_ksum([(s, comp[j]) for j, s in row if comp[j][0] or comp[j][1]])
            for row in mrows]
    vx = None if vrow is None else unpack_numerator(sums.pop(0))
    mraw = [_reduced(*unpack_numerator(x)) for x in sums]
    if not any(x[0] for x in mraw):
        return vx, None
    return vx, mraw


def _gauge_step(model, consts, cur, a, mraw):
    """exp(m) applied to the packed numerators ``cur`` (grade g over
    L^(g+1)), for m of grade a with raw numerators ``mraw`` over L^a.
    Mirrors ``gauge_transform``, with rho in the starting term:

        u + sum_{k>=1} ad_m^(k-1)/k! (S),   S = [m, p_-1 + u + rho] - m';

    the grades below a - 1 pass through unchanged.  The result holds only
    what a later read needs: the rows read the grades >= a, and the
    brackets of later steps the grades <= K - a - 1.  So grade a - 1 is
    kept only when 2a <= K, and [m, p_-1], its only new term, is formed
    only when it is kept or ad_m takes it to grade 2a - 1 <= K.
    """
    K = model.cutoff
    L, dLR = consts[:2]
    m = _Parameter(mraw)
    mnum = m.at(packing_base(m.bound))
    lo = a - 1 if 2 * a <= K else a
    acc = {g: [[(_SONE, x)] if x[0] or x[1] else [] for x in xs]
           for g, xs in cur.items() if g >= lo}
    # S: p_-1 is the numerator 1 at each grade -1 slot; with m = N/L^a,
    # [m, rho] = -a N R and m' = N' L - a N L', both over L^(a+1), so
    # [m, rho] - m' adds a N (L' - R) - N' L to each grade-a slot
    start = (cur if 2 * a > K + 1
             else {-1: [_KONE] * model.dim_loop(-1), **cur})
    slots = _ad(model, a, m, start, K)
    for t, (re, im, den), x in zip(slots.setdefault(a, [[] for _ in mnum]),
                                   mraw, mnum):
        if re and (dLR[0] or dLR[1]):
            t.append((Scalar(a, 0, 1), _kmul(x, dLR)))
        if len(re) > 1:
            dx = pack_numerator((*_derivative(re, im), den))
            t.append((_SMINUS, _kmul(dx, L)))
    term, k = _summed(slots), 1
    while term:
        _collect(acc, term, Scalar(1, 0, math.factorial(k)), lo)
        k += 1
        term = _summed(_ad(model, a, m, term, K))
    out = {g: xs for g, xs in cur.items() if g < a - 1}
    # a content gcd on each numerator a later bracket reads, so that
    # unreduced denominators do not compound through the products; where
    # it unpacks, the bound becomes exact again.  The other grades reach
    # only sums and the rows, whose _reduced normalizes them anyway.
    for g, xs in _summed(acc).items():
        out[g] = [_kreduced(x) for x in xs] if g <= K - a - 1 else xs
    return out


class _Parameter:
    """The raw numerators of a gauge parameter, packed at each base a
    product asks for, once per base."""

    __slots__ = ("raw", "bound", "product_bits", "_at")

    def __init__(self, raw):
        self.raw = raw
        self.bound = max(map(numerator_bits, raw))
        # the bound of _kmul less the other factor's, with m's length for
        # the number of terms of a coefficient
        t = max(len(re) for re, _im, _den in raw)
        if any(im is not None for _re, im, _den in raw):
            t += t
        self.product_bits = self.bound + (t - 1).bit_length()
        self._at = {}

    def at(self, w):
        xs = self._at.get(w)
        if xs is None:
            xs = self._at[w] = [pack_numerator(x, w) for x in self.raw]
        return xs


def _ad(model, a, m, x, K):
    """The term lists of [m, x] per grade <= K and slot, for the gauge
    parameter m of grade a (a ``_Parameter``) and packed numerators x; the
    center is left out.  The products into one grade are all taken at one
    base: the widest of their operands', or the base of the largest
    product bound where that does not hold it, so each operand is moved
    between bases at most once."""
    slots = {}
    for b, xb in x.items():
        g = a + b
        if g > K:
            continue
        rows = model.bracket_table(a, b)
        if not rows:
            continue
        # a bound of every product of the grade (a zero has bound 0 and
        # the narrowest base)
        ws = [y[5] for y in xb]
        bound = m.product_bits + max([y[3] for y in xb])
        w = max(ws)
        if bound >= w - 1:
            w = packing_base(bound)
        if min(ws) != w:
            xb = [y if y[5] == w else rebase_numerator(y, w) for y in xb]
        mnum = m.at(w)
        tv = slots.get(g)
        if tv is None:
            tv = slots[g] = [[] for _ in range(model.dim_loop(g))]
        for i, row in rows:
            mx = mnum[i]
            if not (mx[0] or mx[1]):
                continue
            for j, terms, _center in row:
                y = xb[j]
                if not (y[0] or y[1]):
                    continue
                z = _kmul(mx, y)
                for idx, s in terms:
                    tv[idx].append((s, z))
    return slots


def _collect(acc, term, s, lo):
    """Append each nonzero numerator of ``term`` at a grade >= lo, scaled
    by the Scalar s, to the term lists of ``acc``."""
    for g, xs in term.items():
        if g < lo:
            continue
        tv = acc.setdefault(g, [[] for _ in xs])
        for t, x in zip(tv, xs):
            if x[0] or x[1]:
                t.append((s, x))


def _summed(slots):
    """Each slot's packed n-ary sum, with the all-zero grades left out."""
    out = {}
    for g, tv in slots.items():
        xs = [_ksum(t) for t in tv]
        if any(x[0] or x[1] for x in xs):
            out[g] = xs
    return out


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
    out = QuasiCanonicalForm(model, qc.phi, v, qc._gauge)
    # the factors are unchanged: an unread one stays unlowered
    out._raw = qc._raw
    return out


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
    return [(p, k.r) for p, k in cands
            if not k.i and k.q == 1 and k.r > 0]


def _rank(key):
    """Elimination order: powers of z above poles, higher orders first."""
    p, n = key
    return (1, n, 0, 0) if p is None else (0, n, *p.order_key)


def change_coordinate(obj, mobius):
    """Pull back through z = (a s + b) / (c s + d).

    Each coefficient is a k-differential and is pulled back in one step,
    as (coefficient o mu) (mu')^k by ``RationalFunction.compose_mobius``:
    k = g+1 for a grade-g coefficient, j+1 for v_j and 1 for the center
    coefficient.  The twist is a connection on Omega and becomes phi~ =
    (phi o mu) mu' + h_dual mu''/mu', where mu''/mu' = -2/(s + d/c) when
    c != 0 and 0 when c = 0.  Applies to a Connection or to a
    QuasiCanonicalForm (whose gauge history is dropped: it belongs to the
    old coordinate).
    """
    a, b, c, d = [x if isinstance(x, Scalar) else Scalar.parse(x)
                  for x in mobius]
    if (a * d - b * c).is_zero:
        raise ValueError("mobius map must be invertible")
    if not isinstance(obj, (Connection, QuasiCanonicalForm)):
        raise TypeError(
            f"cannot change coordinates on {type(obj).__name__}")
    model = obj.model
    hv = Scalar.exact(model.dual_coxeter)
    phi_new = obj.phi.compose_mobius(a, b, c, d, 1)
    if not c.is_zero:
        phi_new = phi_new + RationalFunction.simple_pole(
            Scalar.exact(-2) * hv, -d / c)
    if isinstance(obj, QuasiCanonicalForm):
        v = {j: f.compose_mobius(a, b, c, d, j + 1)
             for j, f in obj.v.items()}
        return QuasiCanonicalForm(model, phi_new, v)

    parts = {g: [f.compose_mobius(a, b, c, d, g + 1) for f in comps]
             for g, comps in obj.u.parts.items()}
    delta = obj.u.delta.compose_mobius(a, b, c, d, 1)
    rho = phi_new.scale(Scalar.exact(-1) / hv)
    u = GradedVector(model, parts, delta, rho)
    u._prune()
    return Connection(model, u)

