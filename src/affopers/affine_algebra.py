"""Graded loop realization of untwisted affine Kac-Moody algebras (type A).

The algebra is realized on loop monomials ``x (x) t^k`` with x a matrix unit
E_ab or a simple coroot h_k of sl_{l+1}; the derivation rho and the center
delta are explicit extra coordinates, never basis monomials.  The principal
grading assigns grade ht(x) + k*h to a monomial (h the Coxeter number), grade
0 to delta and rho.  Graded components are kept inside a window |n| <= K+1
for a configured cutoff K; brackets whose target grade falls outside the
window are dropped and flagged.

Structure constants for type A are closed-form matrix-unit relations:

    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb
    (E_ab | E_cd) = delta_bc delta_ad          (trace form)

with the affine cocycle ``[x t^p, y t^q] += p delta_{p+q,0} (x|y) delta``.

Vectors carry rational-function coefficients so that connections and gauge
parameters are single objects; the same classes work with constant
coefficients for plain Lie-algebra computations.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from . import _linalg
from .coeffs import RationalFunction, Scalar, _RONE, _RZERO

__all__ = [
    "AlgebraModel",
    "GradedVector",
    "PrincipalBasis",
    "Weight",
    "build_algebra",
    "principal_decomposition",
    "exponents",
    "normalize_principal_basis",
]


def build_algebra(descriptor) -> "AlgebraModel":
    """Build an AlgebraModel from {"type": "A", "rank": l, "cutoff": K}."""
    if isinstance(descriptor, str):
        descriptor = json.loads(descriptor)
    typ = descriptor.get("type")
    rank = int(descriptor.get("rank", 0))
    cutoff = int(descriptor.get("cutoff", 12))
    if typ != "A":
        raise NotImplementedError(
            f"algebra type {typ!r} is not implemented (type A only)"
        )
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return AlgebraModel(typ, rank, cutoff,
                        basis_seed=descriptor.get("basis_seed"))


class AlgebraModel:
    """Bases, structure tables and principal-subalgebra data, all cached.

    ``basis_seed`` shuffles the per-grade basis enumeration; results of every
    public computation are independent of it (it exists so tests can say so).
    """

    def __init__(self, typ, rank, cutoff, basis_seed=None):
        self.type = typ
        self.rank = rank
        self.cutoff = cutoff
        self.n = rank + 1            # matrix size for sl_{rank+1}
        self.coxeter = rank + 1
        self.dual_coxeter = rank + 1
        self.comarks = [1] * (rank + 1)
        self.window = cutoff + 1
        self._seed = basis_seed
        self._basis = {}
        self._index = {}
        self._btab = {}
        self._ftab = {}
        self._adm = {}
        self._anull = {}
        self._cbas = {}
        self._dmatinv = {}
        self._smatinv = {}
        self._pvecs = None

    # ---------------------------------------------------------------- cartan

    def affine_cartan(self):
        l = self.rank
        size = l + 1
        mat = [[0] * size for _ in range(size)]
        for i in range(size):
            mat[i][i] = 2
        if size == 2:
            mat[0][1] = mat[1][0] = -2
        else:
            for i in range(size):
                j = (i + 1) % size
                mat[i][j] -= 1
                mat[j][i] -= 1
        return mat

    def finite_cartan(self):
        l = self.rank
        mat = [[0] * l for _ in range(l)]
        for i in range(l):
            mat[i][i] = 2
            if i + 1 < l:
                mat[i][i + 1] = mat[i + 1][i] = -1
        return mat

    # ---------------------------------------------------------------- bases

    def basis(self, g):
        """Loop-monomial basis of grade g: tuple of (label, t-power).

        Enumeration is not window-limited; the |n| <= cutoff+1 window only
        constrains where GradedVector brackets keep their output.
        """
        got = self._basis.get(g)
        if got is not None:
            return got
        n = self.n
        items = []
        if g % n == 0:
            # cartan monomials; at g == 0 delta is NOT a basis monomial
            k = g // n
            for j in range(1, self.rank + 1):
                items.append((("h", j), k))
        else:
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if a == b:
                        continue
                    ht = b - a
                    if (g - ht) % n == 0:
                        items.append((("r", a, b), (g - ht) // n))
        items.sort(key=lambda mono: mono[0])
        if self._seed is not None:
            random.Random(1000003 * self._seed + g).shuffle(items)
        out = tuple(items)
        self._basis[g] = out
        self._index[g] = {lab: i for i, (lab, _) in enumerate(out)}
        return out

    def dim_loop(self, g) -> int:
        return len(self.basis(g))

    def dim(self, g) -> int:
        """Dimension of the graded slice, counting delta at grade 0."""
        return self.dim_loop(g) + (1 if g == 0 else 0)

    def index(self, g, label) -> int:
        self.basis(g)
        return self._index[g][label]

    # ------------------------------------------------------------- structure

    def _finite_form(self, lx, ly):
        """(x | y) for matrix-unit / coroot labels (trace form)."""
        if lx[0] == "r" and ly[0] == "r":
            return _RONE if (lx[2] == ly[1] and lx[1] == ly[2]) else _RZERO
        if lx[0] == "h" and ly[0] == "h":
            k, m = lx[1], ly[1]
            if k == m:
                return Fraction(2)
            if abs(k - m) == 1:
                return Fraction(-1)
            return _RZERO
        return _RZERO

    def _finite_bracket(self, lx, ly):
        """[x, y] for labels; returns list of (label, rational coeff)."""
        if lx[0] == "r" and ly[0] == "r":
            _, a, b = lx
            _, c, d = ly
            out = []
            if b == c and a == d:
                # E_aa - E_bb in the coroot basis: signed partial sums
                lo, hi, sgn = (a, b, _RONE) if a < b else (b, a, -_RONE)
                for k in range(lo, hi):
                    out.append((("h", k), sgn))
                return out
            if b == c:
                out.append((("r", a, d), _RONE))
            if d == a:
                out.append((("r", c, b), -_RONE))
            return out
        if lx[0] == "h" and ly[0] == "r":
            k = lx[1]
            _, c, d = ly
            coeff = ((1 if k == c else 0) - (1 if k + 1 == c else 0)
                     - (1 if k == d else 0) + (1 if k + 1 == d else 0))
            return [(ly, Fraction(coeff))] if coeff else []
        if lx[0] == "r" and ly[0] == "h":
            return [(lab, -q) for lab, q in self._finite_bracket(ly, lx)]
        return []  # cartan-cartan

    def bracket_table(self, gx, gy):
        """Sparse table {(i, j): (((target index, coeff), ...), delta coeff)}."""
        key = (gx, gy)
        got = self._btab.get(key)
        if got is not None:
            return got
        bx, by = self.basis(gx), self.basis(gy)
        g = gx + gy
        self.basis(g)
        idx = self._index[g]
        table = {}
        for i, (lx, px) in enumerate(bx):
            for j, (ly, py) in enumerate(by):
                terms = [(idx[lab], q) for lab, q in self._finite_bracket(lx, ly)]
                dq = _RZERO
                if px + py == 0 and px != 0:
                    f = self._finite_form(lx, ly)
                    if f != 0:
                        dq = px * f
                if terms or dq != 0:
                    table[(i, j)] = (tuple(terms), dq)
        self._btab[key] = table
        return table

    def form_table(self, g):
        """Pairing matrix between basis(g) and basis(-g)."""
        got = self._ftab.get(g)
        if got is not None:
            return got
        bx, by = self.basis(g), self.basis(-g)
        F = [[_RZERO] * len(by) for _ in bx]
        for i, (lx, px) in enumerate(bx):
            for j, (ly, py) in enumerate(by):
                if px + py == 0:
                    F[i][j] = self._finite_form(lx, ly)
        self._ftab[g] = F
        return F

    # ------------------------------------------------- principal subalgebra

    def pminus_vector(self, sign=-1):
        """Coefficient vector of p_-1 (or p_1 with sign=+1) over basis(sign)."""
        n = self.n
        vec = [_RZERO] * self.dim_loop(sign)
        if sign == -1:
            labels = [("r", i + 1, i) for i in range(1, n)] + [("r", 1, n)]
        else:
            labels = [("r", i, i + 1) for i in range(1, n)] + [("r", n, 1)]
        for lab in labels:
            vec[self.index(sign, lab)] = _RONE
        return vec

    def ad_pminus_matrix(self, g):
        """Matrix of the loop part of [p_-1, .]: grade g -> grade g-1."""
        got = self._adm.get(g)
        if got is not None:
            return got
        tab = self.bracket_table(-1, g)
        rows = [[_RZERO] * self.dim_loop(g) for _ in range(self.dim_loop(g - 1))]
        for (i, j), (terms, _dq) in tab.items():
            for idx, q in terms:
                rows[idx][j] += q
        self._adm[g] = rows
        return rows

    def ad_pminus_delta_row(self, g):
        """Delta component of [p_-1, .] on grade g (nonzero only for g = 1)."""
        tab = self.bracket_table(-1, g)
        row = [_RZERO] * self.dim_loop(g)
        for (_i, j), (_terms, dq) in tab.items():
            row[j] += dq
        return row

    def kernel_basis(self, g):
        """Basis of a_g = ker(loop part of ad p_-1) inside grade g, g != 0."""
        got = self._anull.get(g)
        if got is None:
            got = _linalg.nullspace(self.ad_pminus_matrix(g),
                                    ncols=self.dim_loop(g))
            for v in got:
                _normalize_first_nonzero(v)
            self._anull[g] = got
        return got

    def image_complement_basis(self, g):
        """Basis of c_g for g >= 1 or g <= -1: the annihilator of a_{-g}."""
        got = self._cbas.get(g)
        if got is not None:
            return got
        kern = self.kernel_basis(-g)
        F = self.form_table(g)
        rows = []
        for a in kern:
            rows.append([
                sum((F[i][j] * a[j] for j in range(len(a))), _RZERO)
                for i in range(len(F))
            ])
        if rows:
            got = _linalg.nullspace(rows, ncols=self.dim_loop(g))
        else:
            got = _linalg.nullspace([], ncols=self.dim_loop(g))
        for v in got:
            _normalize_first_nonzero(v)
        self._cbas[g] = got
        return got

    def c0_basis(self):
        """Basis of c_0 = [p_-1, c_1]: list of (delta coeff, loop vector)."""
        got = self._cbas.get(0)
        if got is not None:
            return got
        M = self.ad_pminus_matrix(1)
        drow = self.ad_pminus_delta_row(1)
        out = []
        for v in self.image_complement_basis(1):
            loop = _linalg.mat_vec(M, v)
            dq = sum((a * b for a, b in zip(drow, v)), _RZERO)
            out.append((dq, loop))
        self._cbas[0] = out
        return out

    def exponent_multiset(self, upto=None):
        """Exponents n in 1..upto, each repeated dim a_n times."""
        upto = self.cutoff if upto is None else upto
        if upto > self.window:
            raise ValueError("exponent range exceeds the grading window")
        out = []
        for g in range(1, upto + 1):
            out.extend([g] * len(self.kernel_basis(g)))
        return out

    def principal_vectors(self):
        """Normalized p_j coefficient vectors for j in +-(exponents <= cutoff).

        Pinned at j = +-1 to the standard cyclic elements; other grades carry
        the kernel vector normalized to leading coefficient 1 on the positive
        side, with the negative side rescaled so (p_j | p_-j) = h_dual
        (which forces [p_j, p_-j] = j delta).
        """
        if self._pvecs is not None:
            return self._pvecs
        hv = Fraction(self.dual_coxeter)
        out = {}
        for j in self.exponent_multiset(min(self.cutoff, self.window - 1)):
            if j in out:
                continue
            if j == 1:
                xs = [self.pminus_vector(sign=+1)]
                ys = [self.pminus_vector(sign=-1)]
            else:
                xs = self.kernel_basis(j)
                ys = self.kernel_basis(-j)
            F = self.form_table(j)
            B = [[_dot_form(F, x, y) for y in ys] for x in xs]
            if len(xs) == 1:
                t = B[0][0]
                if t == 0:
                    raise ValueError(f"degenerate pairing at grade {j}")
                out[j] = [xs[0]]
                out[-j] = [[c * hv / t for c in ys[0]]]
            else:
                Binv = _linalg.invert(B)
                out[j] = xs
                out[-j] = [
                    [
                        sum((Binv[c][b] * hv * ys[c][i] for c in range(len(ys))),
                            _RZERO)
                        for i in range(len(ys[0]))
                    ]
                    for b in range(len(ys))
                ]
        self._pvecs = out
        return out

    # ----------------------------------------------- defect decomposition

    def decomposition_matrix_inv(self, g):
        """Inverse of [a-basis columns | c-basis columns] at grade g >= 1,
        or of [delta | c_0 columns] at grade 0 (coordinates delta (+) loop)."""
        got = self._dmatinv.get(g)
        if got is not None:
            return got
        if g == 0:
            cols = [[_RONE] + [_RZERO] * self.rank]
            for dq, loop in self.c0_basis():
                cols.append([dq] + list(loop))
            mat = [list(col) for col in zip(*cols)]
        else:
            pv = self.principal_vectors()
            cols = [list(v) for v in pv.get(g, [])]
            cols += [list(v) for v in self.image_complement_basis(g)]
            mat = [list(col) for col in zip(*cols)]
        inv = _linalg.invert(mat)
        self._dmatinv[g] = inv
        return inv

    def step_solve_matrix_inv(self, g):
        """Inverse of ad p_-1 : c_{g+1} -> c_g in the chosen bases, g >= 1."""
        got = self._smatinv.get(g)
        if got is not None:
            return got
        M = self.ad_pminus_matrix(g + 1)
        cnext = self.image_complement_basis(g + 1)
        chere = self.image_complement_basis(g)
        # express ad(p_-1) of each c_{g+1} basis vector in the c_g basis
        cols = []
        basis_mat = [list(col) for col in zip(*chere)]
        for v in cnext:
            img = _linalg.mat_vec(M, v)
            sol = _linalg.solve(basis_mat, img)
            if sol is None:
                raise ValueError(
                    f"ad p_-1 image at grade {g} fell outside c_{g} "
                    "(decomposition bug)"
                )
            cols.append(sol)
        S = [list(col) for col in zip(*cols)]
        inv = _linalg.invert(S)
        self._smatinv[g] = inv
        return inv

    # ------------------------------------------------------------- generators

    def simple_raising(self, i) -> "GradedVector":
        """e-check_i as a graded vector (i = 0 .. rank)."""
        one = RationalFunction.one()
        if i == 0:
            return GradedVector.monomial(self, 1, ("r", self.n, 1), one)
        return GradedVector.monomial(self, 1, ("r", i, i + 1), one)

    def simple_lowering(self, i) -> "GradedVector":
        one = RationalFunction.one()
        if i == 0:
            return GradedVector.monomial(self, -1, ("r", 1, self.n), one)
        return GradedVector.monomial(self, -1, ("r", i + 1, i), one)

    def simple_coroot_vector(self, i) -> "GradedVector":
        """alpha_i realized at grade 0 (i = 0 gives delta - h_theta)."""
        out = GradedVector.zero(self)
        one = RationalFunction.one()
        if i == 0:
            out = out.add_delta(one)
            for k in range(1, self.rank + 1):
                out = out.add_monomial(0, ("h", k), -one)
            return out
        return out.add_monomial(0, ("h", i), one)

    def pminus(self) -> "GradedVector":
        one = RationalFunction.one()
        out = GradedVector.zero(self)
        for lab, _p in self.basis(-1):
            out = out.add_monomial(-1, lab, one)
        return out

    def pplus(self) -> "GradedVector":
        one = RationalFunction.one()
        out = GradedVector.zero(self)
        for lab, _p in self.basis(1):
            out = out.add_monomial(1, lab, one)
        return out

    def descriptor(self):
        return {"type": self.type, "rank": self.rank, "cutoff": self.cutoff}

    def __repr__(self):
        return f"AlgebraModel(A{self.rank}, cutoff={self.cutoff})"


def _normalize_first_nonzero(v):
    for x in v:
        if x != 0:
            inv = _RONE / x
            for i in range(len(v)):
                v[i] = v[i] * inv
            return


def _dot_form(F, x, y):
    acc = _RZERO
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = F[i]
        for j, yj in enumerate(y):
            if yj != 0 and row[j] != 0:
                acc += xi * row[j] * yj
    return acc


def _qq_scalar(q) -> Scalar:
    return Scalar(q, _RZERO)


class GradedVector:
    """Element of the windowed graded algebra with rational-function entries.

    ``parts`` maps grade -> list of coefficients over the basis of that grade;
    zero components are pruned.  ``delta`` and ``rho`` are the coefficients of
    the central element and the derivation.  ``truncated`` records whether a
    bracket dropped components outside the grading window.
    """

    __slots__ = ("model", "parts", "delta", "rho", "truncated")

    def __init__(self, model, parts, delta, rho, truncated=False):
        self.model = model
        self.parts = parts
        self.delta = delta
        self.rho = rho
        self.truncated = truncated

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(model) -> "GradedVector":
        z = RationalFunction.zero()
        return GradedVector(model, {}, z, z)

    @staticmethod
    def monomial(model, g, label, coeff: RationalFunction) -> "GradedVector":
        return GradedVector.zero(model).add_monomial(g, label, coeff)

    @staticmethod
    def from_coeff_vector(model, g, qvec, scale=None) -> "GradedVector":
        """Lift a rational coefficient vector at grade g, optionally scaled
        by a rational function."""
        out = GradedVector.zero(model)
        comp = [RationalFunction.zero()] * model.dim_loop(g)
        for i, q in enumerate(qvec):
            if q == 0:
                continue
            c = RationalFunction.from_scalar(_qq_scalar(q))
            comp[i] = c if scale is None else c * scale
        if any(not c.is_zero for c in comp):
            out.parts[g] = comp
        return out

    def copy(self) -> "GradedVector":
        return GradedVector(
            self.model, {g: list(v) for g, v in self.parts.items()},
            self.delta, self.rho, self.truncated,
        )

    # -- component access ---------------------------------------------------

    def component(self, g):
        """Coefficient list at grade g (zeros if absent)."""
        got = self.parts.get(g)
        if got is None:
            return [RationalFunction.zero()] * self.model.dim_loop(g)
        return list(got)

    def grades(self):
        return sorted(self.parts)

    @property
    def is_zero(self) -> bool:
        return (not self.parts) and self.delta.is_zero and self.rho.is_zero

    def add_monomial(self, g, label, coeff) -> "GradedVector":
        out = self.copy()
        comp = out.parts.get(g)
        if comp is None:
            comp = [RationalFunction.zero()] * self.model.dim_loop(g)
        i = self.model.index(g, label)
        comp[i] = comp[i] + coeff
        out.parts[g] = comp
        out._prune(g)
        return out

    def add_delta(self, coeff) -> "GradedVector":
        out = self.copy()
        out.delta = out.delta + coeff
        return out

    def add_rho(self, coeff) -> "GradedVector":
        out = self.copy()
        out.rho = out.rho + coeff
        return out

    def _prune(self, g=None):
        keys = [g] if g is not None else list(self.parts)
        for k in keys:
            v = self.parts.get(k)
            if v is not None and all(c.is_zero for c in v):
                del self.parts[k]

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "GradedVector") -> "GradedVector":
        if other.model is not self.model:
            raise ValueError("graded vectors over different algebra models")
        parts = {g: list(v) for g, v in self.parts.items()}
        for g, v in other.parts.items():
            if g in parts:
                parts[g] = [a + b for a, b in zip(parts[g], v)]
            else:
                parts[g] = list(v)
        out = GradedVector(
            self.model, parts, self.delta + other.delta, self.rho + other.rho,
            self.truncated or other.truncated,
        )
        out._prune()
        return out

    def __neg__(self) -> "GradedVector":
        return self.scale_scalar(Scalar.exact(-1))

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + (-other)

    def scale(self, f: RationalFunction) -> "GradedVector":
        if f.is_zero:
            return GradedVector.zero(self.model)
        parts = {g: [c * f for c in v] for g, v in self.parts.items()}
        return GradedVector(self.model, parts, self.delta * f, self.rho * f,
                            self.truncated)

    def scale_scalar(self, s: Scalar) -> "GradedVector":
        return self.scale(RationalFunction.from_scalar(s))

    def derivative(self) -> "GradedVector":
        parts = {g: [c.derivative() for c in v] for g, v in self.parts.items()}
        out = GradedVector(self.model, parts, self.delta.derivative(),
                           self.rho.derivative(), self.truncated)
        out._prune()
        return out

    # -- bracket and form ------------------------------------------------------

    def bracket(self, other: "GradedVector", upto=None) -> "GradedVector":
        """Lie bracket [self, other].

        Components outside the window |n| <= K+1 are dropped and flagged
        ``truncated``.  With ``upto`` given, components above grade ``upto``
        are not computed at all and not flagged: the result is then exact
        only through that grade, which is all a caller that discards the
        higher grades needs.
        """
        if other.model is not self.model:
            raise ValueError("graded vectors over different algebra models")
        model = self.model
        zero = RationalFunction.zero()
        acc = {}
        delta = zero
        truncated = self.truncated or other.truncated
        for gx, vx in self.parts.items():
            for gy, vy in other.parts.items():
                g = gx + gy
                if upto is not None and g > upto:
                    continue
                if abs(g) > model.window:
                    truncated = True
                    continue
                tab = model.bracket_table(gx, gy)
                if not tab:
                    continue
                tv = acc.get(g)
                if tv is None:
                    tv = [zero] * model.dim_loop(g)
                    acc[g] = tv
                for (i, j), (terms, dq) in tab.items():
                    cx = vx[i]
                    if cx.is_zero:
                        continue
                    cy = vy[j]
                    if cy.is_zero:
                        continue
                    prod = cx * cy
                    for idx, q in terms:
                        tv[idx] = tv[idx] + prod.scale(_qq_scalar(q))
                    if dq != 0:
                        delta = delta + prod.scale(_qq_scalar(dq))
        # derivation: [rho, x] = (grade of x) x
        if not self.rho.is_zero:
            for gy, vy in other.parts.items():
                if gy == 0 or (upto is not None and gy > upto):
                    continue
                tv = acc.get(gy)
                if tv is None:
                    tv = [zero] * model.dim_loop(gy)
                    acc[gy] = tv
                f = self.rho.scale(Scalar.exact(gy))
                for j, cy in enumerate(vy):
                    if not cy.is_zero:
                        tv[j] = tv[j] + cy * f
        if not other.rho.is_zero:
            for gx, vx in self.parts.items():
                if gx == 0 or (upto is not None and gx > upto):
                    continue
                tv = acc.get(gx)
                if tv is None:
                    tv = [zero] * model.dim_loop(gx)
                    acc[gx] = tv
                f = other.rho.scale(Scalar.exact(-gx))
                for i, cx in enumerate(vx):
                    if not cx.is_zero:
                        tv[i] = tv[i] + cx * f
        out = GradedVector(model, acc, delta, zero, truncated)
        out._prune()
        return out

    def pair(self, other: "GradedVector") -> RationalFunction:
        """Invariant bilinear form."""
        if other.model is not self.model:
            raise ValueError("graded vectors over different algebra models")
        model = self.model
        acc = RationalFunction.zero()
        for g, vx in self.parts.items():
            vy = other.parts.get(-g)
            if vy is None:
                continue
            F = model.form_table(g)
            for i, cx in enumerate(vx):
                if cx.is_zero:
                    continue
                row = F[i]
                for j, cy in enumerate(vy):
                    q = row[j]
                    if q != 0 and not cy.is_zero:
                        acc = acc + (cx * cy).scale(_qq_scalar(q))
        hv = Scalar.exact(model.dual_coxeter)
        if not self.delta.is_zero and not other.rho.is_zero:
            acc = acc + (self.delta * other.rho).scale(hv)
        if not self.rho.is_zero and not other.delta.is_zero:
            acc = acc + (self.rho * other.delta).scale(hv)
        # (rho | h_i t^0) = 1 for every i
        if not self.rho.is_zero:
            v0 = other.parts.get(0)
            if v0 is not None:
                for c in v0:
                    if not c.is_zero:
                        acc = acc + self.rho * c
        if not other.rho.is_zero:
            v0 = self.parts.get(0)
            if v0 is not None:
                for c in v0:
                    if not c.is_zero:
                        acc = acc + other.rho * c
        return acc

    def __eq__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        if self.model is not other.model:
            return False
        if self.delta != other.delta or self.rho != other.rho:
            return False
        grades = set(self.parts) | set(other.parts)
        for g in grades:
            for a, b in zip(self.component(g), other.component(g)):
                if a != b:
                    return False
        return True

    __hash__ = None

    def __repr__(self):
        bits = []
        for g in self.grades():
            bits.append(f"{g}: {self.parts[g]!r}")
        if not self.delta.is_zero:
            bits.append(f"delta: {self.delta!r}")
        if not self.rho.is_zero:
            bits.append(f"rho: {self.rho!r}")
        return "GradedVector(" + "; ".join(bits) + ")"


class PrincipalBasis:
    """Normalized basis of the principal subalgebra up to the cutoff."""

    def __init__(self, model: AlgebraModel):
        self.model = model
        self.vectors = model.principal_vectors()

    def grades(self):
        return sorted(self.vectors)

    def vector(self, j, copy=0) -> GradedVector:
        """p_j as a graded vector (copy selects within a multiplicity slot)."""
        return GradedVector.from_coeff_vector(
            self.model, j, self.vectors[j][copy]
        )


class Weight:
    """Element of the grade-0 Cartan: simple-root coordinates + rho + delta.

    ``alpha`` lists the coefficients of the simple roots alpha_1..alpha_l;
    ``rho`` and ``delta`` are the coefficients of the derivation and center.
    """

    __slots__ = ("model", "alpha", "rho", "delta")

    def __init__(self, model, alpha, rho=None, delta=None):
        zero = Scalar.zero()
        self.model = model
        alpha = tuple(alpha)
        if len(alpha) != model.rank:
            raise ValueError("weight coordinate length does not match the rank")
        self.alpha = alpha
        self.rho = zero if rho is None else rho
        self.delta = zero if delta is None else delta

    @staticmethod
    def simple_root(model, i) -> "Weight":
        coords = [Scalar.zero()] * model.rank
        coords[i - 1] = Scalar.one()
        return Weight(model, coords)

    @staticmethod
    def rho_weight(model) -> "Weight":
        return Weight(model, [Scalar.zero()] * model.rank,
                      rho=Scalar.one())

    def __add__(self, other):
        return Weight(
            self.model,
            [a + b for a, b in zip(self.alpha, other.alpha)],
            self.rho + other.rho,
            self.delta + other.delta,
        )

    def __sub__(self, other):
        return self + other.scale(Scalar.exact(-1))

    def scale(self, s: Scalar) -> "Weight":
        return Weight(self.model, [a * s for a in self.alpha],
                      self.rho * s, self.delta * s)

    def form(self, other: "Weight") -> Scalar:
        """Invariant form on the Cartan, matching the realization pairing."""
        A = self.model.finite_cartan()
        acc = Scalar.zero()
        for i, a in enumerate(self.alpha):
            if a.is_zero:
                continue
            for j, b in enumerate(other.alpha):
                if not b.is_zero and A[i][j]:
                    acc = acc + a * b * Scalar.exact(A[i][j])
        suma = sum(self.alpha, Scalar.zero())
        sumb = sum(other.alpha, Scalar.zero())
        acc = acc + self.rho * sumb + other.rho * suma
        hv = Scalar.exact(self.model.dual_coxeter)
        acc = acc + (self.rho * other.delta + other.rho * self.delta) * hv
        return acc

    def pair_coroot(self, i) -> Scalar:
        """Pairing with the i-th simple coroot of the dual side, i = 0..rank."""
        A = self.model.affine_cartan()
        acc = self.rho  # <rho, coroot_i> = 1 for every i
        for j, a in enumerate(self.alpha, start=1):
            if A[j][i]:
                acc = acc + a * Scalar.exact(A[j][i])
        return acc

    def pair_central(self) -> Scalar:
        """Pairing with the canonical central combination (comark-weighted)."""
        acc = Scalar.zero()
        for i, cm in enumerate(self.model.comarks):
            acc = acc + Scalar.exact(cm) * self.pair_coroot(i)
        return acc

    def to_vector(self, scale=None) -> GradedVector:
        """Realize at grade 0, optionally multiplied by a rational function."""
        one = RationalFunction.one()
        f = one if scale is None else scale
        out = GradedVector.zero(self.model)
        comp = [RationalFunction.zero()] * self.model.dim_loop(0)
        for i, a in enumerate(self.alpha, start=1):
            if not a.is_zero:
                comp[self.model.index(0, ("h", i))] = f.scale(a)
        if any(not c.is_zero for c in comp):
            out.parts[0] = comp
        if not self.delta.is_zero:
            out.delta = f.scale(self.delta)
        if not self.rho.is_zero:
            out.rho = f.scale(self.rho)
        return out

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return (self.alpha == other.alpha and self.rho == other.rho
                and self.delta == other.delta)

    def __repr__(self):
        return f"Weight(alpha={self.alpha!r}, rho={self.rho!r}, delta={self.delta!r})"


# ----------------------------------------------------------- module-level ops


def principal_decomposition(model: AlgebraModel, n: int):
    """Bases of (a_n, c_n) as graded vectors, |n| <= cutoff + 1.

    At n = 0 the a-part is [delta, rho] and the c-part carries delta
    components.
    """
    if n == 0:
        one = RationalFunction.one()
        a = [GradedVector.zero(model).add_delta(one),
             GradedVector.zero(model).add_rho(one)]
        c = []
        for dq, loop in model.c0_basis():
            v = GradedVector.from_coeff_vector(model, 0, loop)
            if dq != 0:
                v = v.add_delta(RationalFunction.from_scalar(_qq_scalar(dq)))
            c.append(v)
        return a, c
    a = [GradedVector.from_coeff_vector(model, n, v)
         for v in model.kernel_basis(n)]
    c = [GradedVector.from_coeff_vector(model, n, v)
         for v in model.image_complement_basis(n)]
    return a, c


def exponents(model: AlgebraModel, upto=None):
    return model.exponent_multiset(upto)


def normalize_principal_basis(model: AlgebraModel) -> PrincipalBasis:
    return PrincipalBasis(model)
