"""Graded loop realization of untwisted affine Kac-Moody algebras (type A).

The algebra is realized on loop monomials ``x (x) t^k`` with x a matrix unit
E_ab or a simple coroot h_k of sl_{l+1}; the derivation rho and the center
delta are explicit extra coordinates, never basis monomials.  The principal
grading assigns grade ht(x) + k*h to a monomial (h the Coxeter number), grade
0 to delta and rho.  Graded components are kept inside a window |n| <= K+1
for a configured cutoff K; brackets whose target grade falls outside the
window are dropped.

Structure constants for type A are closed-form matrix-unit relations:

    [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb
    (E_ab | E_cd) = delta_bc delta_ad          (trace form)

with the affine cocycle ``[x t^p, y t^q] += p delta_{p+q,0} (x|y) delta``.

Vectors carry rational-function coefficients so that connections and gauge
parameters are single objects; the same classes work with constant
coefficients for plain Lie-algebra computations.
"""

from __future__ import annotations

import functools
import json
import random
import weakref

from . import _linalg
from .coeffs import RationalFunction, Scalar, _MINUS_ONE, _ONE, _ZERO

__all__ = [
    "AlgebraModel",
    "GradedVector",
    "Weight",
    "build_algebra",
    "principal_decomposition",
    "exponents",
]


def build_algebra(descriptor) -> "AlgebraModel":
    """Build an AlgebraModel from {"type": "A", "rank": l, "cutoff": K}."""
    if isinstance(descriptor, str):
        descriptor = json.loads(descriptor)
    typ = descriptor.get("type")
    rank = _int_field(descriptor, "rank", 0)
    cutoff = _int_field(descriptor, "cutoff", 12)
    if typ != "A":
        raise NotImplementedError(
            f"algebra type {typ!r} is not implemented (type A only)"
        )
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    seed = descriptor.get("basis_seed")
    if seed is not None:
        seed = _int_field(descriptor, "basis_seed", None)
    return AlgebraModel(typ, rank, cutoff, basis_seed=seed)


def _int_field(descriptor, name, default):
    """An integer field of an algebra descriptor; a float, bool or string
    is refused rather than rounded or parsed."""
    x = descriptor.get(name, default)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


class AlgebraModel:
    """Bases, structure tables and principal-subalgebra data.

    Each method named in ``_MEMOIZED`` is replaced per model by a
    ``functools.cache`` of it, so each table is built once per model and
    argument.  The memo belongs to the instance, not the class, and holds
    the method bound to a weak proxy of the model, so a model and its
    tables are freed together at its last reference.

    ``basis_seed`` shuffles the per-grade basis enumeration; results of every
    public computation are independent of it (it exists so tests can say so).
    """

    _MEMOIZED = ("basis", "_index_map", "dim_loop", "bracket_table",
                 "form_table", "ad_pminus_matrix", "kernel_basis",
                 "image_complement_basis", "c0_basis", "principal_vectors",
                 "decomposition_matrix_inv", "step_solve_matrix_inv",
                 "gauge_step_rows")

    def __init__(self, typ, rank, cutoff, basis_seed=None):
        self.type = typ
        self.rank = rank
        self.cutoff = cutoff
        self.n = rank + 1            # matrix size for sl_{rank+1}
        self.dual_coxeter = rank + 1
        self.window = cutoff + 1
        self._seed = basis_seed
        proxy = weakref.proxy(self)
        for name in self._MEMOIZED:
            setattr(self, name, functools.cache(
                getattr(type(self), name).__get__(proxy)))

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
        return tuple(items)

    def _index_map(self, g):
        """The position of each label in basis(g)."""
        return {lab: i for i, (lab, _) in enumerate(self.basis(g))}

    def dim_loop(self, g) -> int:
        return len(self.basis(g))

    def dim(self, g) -> int:
        """Dimension of the graded slice, counting delta at grade 0."""
        return self.dim_loop(g) + (1 if g == 0 else 0)

    def index(self, g, label) -> int:
        return self._index_map(g)[label]

    # ------------------------------------------------------------- structure

    def _finite_form(self, lx, ly):
        """(x | y) for matrix-unit / coroot labels (trace form)."""
        if lx[0] == "r" and ly[0] == "r":
            return _ONE if (lx[2] == ly[1] and lx[1] == ly[2]) else _ZERO
        if lx[0] == "h" and ly[0] == "h":
            k, m = lx[1], ly[1]
            if k == m:
                return Scalar(2, 0, 1)
            if abs(k - m) == 1:
                return _MINUS_ONE
            return _ZERO
        return _ZERO

    def _finite_bracket(self, lx, ly):
        """[x, y] for labels; returns list of (label, Scalar coeff)."""
        if lx[0] == "r" and ly[0] == "r":
            _, a, b = lx
            _, c, d = ly
            out = []
            if b == c and a == d:
                # E_aa - E_bb in the coroot basis: signed partial sums
                lo, hi, sgn = (a, b, _ONE) if a < b else (b, a, _MINUS_ONE)
                for k in range(lo, hi):
                    out.append((("h", k), sgn))
                return out
            if b == c:
                out.append((("r", a, d), _ONE))
            if d == a:
                out.append((("r", c, b), _MINUS_ONE))
            return out
        if lx[0] == "h" and ly[0] == "r":
            k = lx[1]
            _, c, d = ly
            coeff = ((1 if k == c else 0) - (1 if k + 1 == c else 0)
                     - (1 if k == d else 0) + (1 if k + 1 == d else 0))
            return [(ly, Scalar(coeff, 0, 1))] if coeff else []
        if lx[0] == "r" and ly[0] == "h":
            return [(lab, -q) for lab, q in self._finite_bracket(ly, lx)]
        return []  # cartan-cartan

    def bracket_table(self, gx, gy):
        """The structure constants of [grade gx, grade gy], grouped by the
        first index: a tuple of ``(i, ((j, terms, center), ...))`` over the
        nonzero brackets of basis(gx)[i] with basis(gy)[j], in index order,
        where ``terms`` is a tuple of ``(index into basis(gx + gy), Scalar)``
        (empty when only the center is hit) and ``center`` the Scalar
        coefficient of delta, or None where the center term vanishes."""
        bx, by = self.basis(gx), self.basis(gy)
        idx = self._index_map(gx + gy)
        table = []
        for i, (lx, px) in enumerate(bx):
            row = []
            for j, (ly, py) in enumerate(by):
                terms = tuple((idx[lab], q)
                              for lab, q in self._finite_bracket(lx, ly))
                center = None
                if px + py == 0 and px != 0:
                    f = self._finite_form(lx, ly)
                    if not f.is_zero:
                        center = Scalar(px, 0, 1) * f
                if terms or center is not None:
                    row.append((j, terms, center))
            if row:
                table.append((i, tuple(row)))
        return tuple(table)

    def form_table(self, g):
        """Pairing matrix between basis(g) and basis(-g)."""
        bx, by = self.basis(g), self.basis(-g)
        F = [[_ZERO] * len(by) for _ in bx]
        for i, (lx, px) in enumerate(bx):
            for j, (ly, py) in enumerate(by):
                if px + py == 0:
                    F[i][j] = self._finite_form(lx, ly)
        return F

    # ------------------------------------------------- principal subalgebra

    def pminus_vector(self, sign=-1):
        """Coefficient vector of p_-1 (or p_1 with sign=+1) over basis(sign)."""
        n = self.n
        vec = [_ZERO] * self.dim_loop(sign)
        if sign == -1:
            labels = [("r", i + 1, i) for i in range(1, n)] + [("r", 1, n)]
        else:
            labels = [("r", i, i + 1) for i in range(1, n)] + [("r", n, 1)]
        for lab in labels:
            vec[self.index(sign, lab)] = _ONE
        return vec

    def ad_pminus_matrix(self, g):
        """Matrix of the loop part of [p_-1, .]: grade g -> grade g-1."""
        rows = [[_ZERO] * self.dim_loop(g) for _ in range(self.dim_loop(g - 1))]
        for _i, row in self.bracket_table(-1, g):
            for j, terms, _center in row:
                for idx, q in terms:
                    rows[idx][j] += q
        return rows

    def kernel_basis(self, g):
        """Basis of a_g = ker(loop part of ad p_-1) inside grade g, g != 0."""
        out = _linalg.nullspace(self.ad_pminus_matrix(g),
                                ncols=self.dim_loop(g))
        for v in out:
            _normalize_first_nonzero(v)
        return out

    def image_complement_basis(self, g):
        """Basis of c_g for g >= 1 or g <= -1: the annihilator of a_{-g}."""
        F = self.form_table(g)
        rows = [_linalg.mat_vec(F, a) for a in self.kernel_basis(-g)]
        out = _linalg.nullspace(rows, ncols=self.dim_loop(g))
        for v in out:
            _normalize_first_nonzero(v)
        return out

    def c0_basis(self):
        """Basis of c_0 = [p_-1, c_1]: list of (delta coeff, loop vector)."""
        # the delta component of [p_-1, .] on grade 1
        drow = [_ZERO] * self.dim_loop(1)
        for _i, row in self.bracket_table(-1, 1):
            for j, _terms, center in row:
                if center is not None:
                    drow[j] += center
        rows = [drow] + self.ad_pminus_matrix(1)
        images = [_linalg.mat_vec(rows, v)
                  for v in self.image_complement_basis(1)]
        return [(w[0], w[1:]) for w in images]

    def exponent_multiset(self):
        """Exponents n in 1..cutoff, each repeated dim a_n times.

        In type A^(1) that is once for every n not divisible by h and never
        otherwise (Kac, *Infinite-dimensional Lie algebras*, ch. 14), so
        the list holds no repeats; ``principal_vectors`` relies on it.
        """
        out = []
        for g in range(1, self.cutoff + 1):
            out.extend([g] * len(self.kernel_basis(g)))
        return out

    def principal_vectors(self):
        """The p_j coefficient vectors, one per j in +-(exponents <= cutoff).

        Each exponent of type A^(1) has multiplicity one, so a_j and a_-j
        are lines and p_j is one vector; a kernel of another dimension
        raises ValueError.  Pinned at j = +-1 to the standard cyclic
        elements; other grades carry the kernel vector normalized to leading
        coefficient 1 on the positive side, with the negative side rescaled
        so (p_j | p_-j) = h_dual (which forces [p_j, p_-j] = j delta).
        """
        hv = Scalar(self.dual_coxeter, 0, 1)
        out = {}
        for j in self.exponent_multiset():
            xs, ys = self.kernel_basis(j), self.kernel_basis(-j)
            if len(xs) != 1 or len(ys) != 1:
                raise ValueError(
                    f"principal kernels of dimension {len(xs)} at grade {j} "
                    f"and {len(ys)} at grade {-j}; type A needs one each")
            if j == 1:
                x, y = self.pminus_vector(+1), self.pminus_vector(-1)
            else:
                (x,), (y,) = xs, ys
            t = _dot_form(self.form_table(j), x, y)
            if t.is_zero:
                raise ValueError(f"degenerate pairing at grade {j}")
            out[j] = x
            out[-j] = [c * hv / t for c in y]
        return out

    def principal_vector(self, j) -> "GradedVector":
        """p_j as a graded vector, j in +-(exponents <= cutoff)."""
        return GradedVector.from_coeff_vector(self, j,
                                              self.principal_vectors()[j])

    # ----------------------------------------------- defect decomposition

    def decomposition_matrix_inv(self, g):
        """Inverse of [a-basis columns | c-basis columns] at grade g >= 1,
        or of [delta | c_0 columns] at grade 0 (coordinates delta (+) loop)."""
        if g == 0:
            cols = [[_ONE] + [_ZERO] * self.rank]
            for dq, loop in self.c0_basis():
                cols.append([dq] + list(loop))
            mat = [list(col) for col in zip(*cols)]
        else:
            pv = self.principal_vectors().get(g)
            cols = (([pv] if pv is not None else [])
                    + self.image_complement_basis(g))
            mat = [list(col) for col in zip(*cols)]
        return _linalg.invert(mat)

    def step_solve_matrix_inv(self, g):
        """Inverse of ad p_-1 : c_{g+1} -> c_g in the chosen bases, g >= 1.

        The c_g coordinates of each image are the rows of
        ``decomposition_matrix_inv(g)`` past the p_g row; the p_g
        coordinate must vanish."""
        M = self.ad_pminus_matrix(g + 1)
        D = self.decomposition_matrix_inv(g)
        npv = int(g in self.principal_vectors())
        cols = []
        for v in self.image_complement_basis(g + 1):
            coords = _linalg.mat_vec(D, _linalg.mat_vec(M, v))
            if npv and not coords[0].is_zero:
                raise ValueError(
                    f"ad p_-1 image at grade {g} fell outside c_{g} "
                    "(decomposition bug)"
                )
            cols.append(coords[npv:])
        S = [list(col) for col in zip(*cols)]
        return _linalg.invert(S)

    def gauge_step_rows(self, n):
        """One step of the reduction at grade n, as sparse Scalar rows.

        Returns ``(vrow, mrows)`` for the grade-n loop component x (at
        n = 0, the center coefficient followed by it): ``v_n = vrow . x``
        (``vrow`` is None when n is not an exponent) and the grade-(n+1)
        gauge parameter has the coordinates ``mrow . x``.  Each row is a
        tuple of ``(column, Scalar)`` pairs over its nonzero entries; it
        composes the decomposition, the step solve and the complement
        columns once per model.
        """
        D = self.decomposition_matrix_inv(n)
        vrow = None
        if n == 0:
            # the delta excess d is removed by -d p_1
            cols = self.image_complement_basis(1) + [self.pminus_vector(+1)]
            mc = D[1:] + [[-q for q in D[0]]]
        else:
            npv = int(n in self.principal_vectors())
            if npv:
                vrow = D[0]
            cols = self.image_complement_basis(n + 1)
            mc = D[npv:]
            if mc:
                S = self.step_solve_matrix_inv(n)
                mc = [[sum((s * row[j] for s, row in zip(srow, mc)), _ZERO)
                       for j in range(len(D[0]))] for srow in S]
        mrows = [[sum((col[i] * row[j] for col, row in zip(cols, mc)), _ZERO)
                  for j in range(len(D[0]))]
                 for i in range(self.dim_loop(n + 1))]

        def sparse(row):
            return tuple((j, q) for j, q in enumerate(row) if not q.is_zero)

        return (None if vrow is None else sparse(vrow),
                tuple(sparse(row) for row in mrows))

    # ------------------------------------------------------------- generators

    def simple_raising(self, i) -> "GradedVector":
        """e-check_i as a graded vector (i = 0 .. rank)."""
        one = RationalFunction.one()
        if i == 0:
            return GradedVector.monomial(self, 1, ("r", self.n, 1), one)
        return GradedVector.monomial(self, 1, ("r", i, i + 1), one)

    def pminus(self) -> "GradedVector":
        return GradedVector.from_coeff_vector(self, -1, self.pminus_vector(-1))

    def descriptor(self):
        return {"type": self.type, "rank": self.rank, "cutoff": self.cutoff}

    def __repr__(self):
        return f"AlgebraModel(A{self.rank}, cutoff={self.cutoff})"


def _normalize_first_nonzero(v):
    for x in v:
        if not x.is_zero:
            inv = _ONE / x
            for i in range(len(v)):
                v[i] = v[i] * inv
            return


def _dot_form(F, x, y):
    acc = _ZERO
    for i, xi in enumerate(x):
        if xi.is_zero:
            continue
        row = F[i]
        for j, yj in enumerate(y):
            if not (yj.is_zero or row[j].is_zero):
                acc += xi * row[j] * yj
    return acc


class GradedVector:
    """Element of the windowed graded algebra with rational-function entries.

    ``parts`` maps grade -> list of coefficients over the basis of that grade;
    zero components are pruned.  ``delta`` and ``rho`` are the coefficients of
    the central element and the derivation.  A bracket drops the
    components outside the grading window; the reductions read only grades
    that no dropped component can reach, since gauge parameters only raise
    grades.
    """

    __slots__ = ("model", "parts", "delta", "rho")

    def __init__(self, model, parts, delta, rho):
        self.model = model
        self.parts = parts
        self.delta = delta
        self.rho = rho

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
        """Lift a Scalar coefficient vector at grade g, optionally scaled
        by a rational function."""
        out = GradedVector.zero(model)
        comp = [RationalFunction.zero()] * model.dim_loop(g)
        for i, s in enumerate(qvec):
            if s.is_zero:
                continue
            comp[i] = (RationalFunction.from_scalar(s) if scale is None
                       else scale.scale(s))
        if any(not c.is_zero for c in comp):
            out.parts[g] = comp
        return out

    def copy(self) -> "GradedVector":
        parts = {g: list(v) for g, v in self.parts.items()}
        return GradedVector(self.model, parts, self.delta, self.rho)

    # -- component access ---------------------------------------------------

    def component(self, g):
        """Coefficient list at grade g (zeros if absent)."""
        got = self.parts.get(g)
        if got is None:
            return [RationalFunction.zero()] * self.model.dim_loop(g)
        return list(got)

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

    @staticmethod
    def lincomb(model, terms) -> "GradedVector":
        """The sum of ``s * x`` over the ``(Scalar s, GradedVector x)``
        pairs, each coefficient reduced once by ``RationalFunction.lincomb``."""
        slots = {}
        delta, rho = [], []
        for s, x in terms:
            if x.model is not model:
                raise ValueError("graded vectors over different algebra models")
            for g, v in x.parts.items():
                tv = slots.get(g)
                if tv is None:
                    tv = slots[g] = [[] for _ in v]
                for t, c in zip(tv, v):
                    t.append((s, c))
            delta.append((s, x.delta))
            rho.append((s, x.rho))
        return GradedVector._combined(model, slots, delta, rho)

    @staticmethod
    def _combined(model, slots, delta, rho):
        """The vector whose every coefficient is the ``lincomb`` of its
        term list, with zero grades pruned."""
        lc = RationalFunction.lincomb
        out = GradedVector(model, {g: [lc(t) for t in tv]
                                   for g, tv in slots.items()},
                           lc(delta), lc(rho))
        out._prune()
        return out

    def __add__(self, other: "GradedVector") -> "GradedVector":
        return GradedVector.lincomb(self.model, ((_ONE, self), (_ONE, other)))

    def __neg__(self) -> "GradedVector":
        parts = {g: [-c for c in v] for g, v in self.parts.items()}
        return GradedVector(self.model, parts, -self.delta, -self.rho)

    def scale(self, f: RationalFunction) -> "GradedVector":
        if f.is_zero:
            return GradedVector.zero(self.model)
        parts = {g: [c * f for c in v] for g, v in self.parts.items()}
        return GradedVector(self.model, parts, self.delta * f, self.rho * f)

    def derivative(self) -> "GradedVector":
        parts = {g: [c.derivative() for c in v] for g, v in self.parts.items()}
        out = GradedVector(self.model, parts, self.delta.derivative(),
                           self.rho.derivative())
        out._prune()
        return out

    # -- bracket and form ------------------------------------------------------

    def bracket(self, other: "GradedVector") -> "GradedVector":
        """Lie bracket [self, other].

        Components outside the window |n| <= K+1 are dropped.
        """
        if other.model is not self.model:
            raise ValueError("graded vectors over different algebra models")
        model = self.model
        slots = {}  # grade -> one term list per coefficient
        delta = []

        def slot(g):
            tv = slots.get(g)
            if tv is None:
                tv = slots[g] = [[] for _ in range(model.dim_loop(g))]
            return tv

        for gx, vx in self.parts.items():
            for gy, vy in other.parts.items():
                g = gx + gy
                if abs(g) > model.window:
                    continue
                tab = model.bracket_table(gx, gy)
                if not tab:
                    continue
                tv = slot(g)
                for i, row in tab:
                    cx = vx[i]
                    if cx.is_zero:
                        continue
                    for j, terms, center in row:
                        cy = vy[j]
                        if cy.is_zero:
                            continue
                        prod = cx * cy
                        for idx, s in terms:
                            tv[idx].append((s, prod))
                        if center is not None:
                            delta.append((center, prod))
        # derivation: [rho, x] = (grade of x) x
        for rho, vec, sign in ((self.rho, other, 1), (other.rho, self, -1)):
            if rho.is_zero:
                continue
            for g, v in vec.parts.items():
                if g == 0:
                    continue
                tv = slot(g)
                s = Scalar(sign * g, 0, 1)
                for t, c in zip(tv, v):
                    if not c.is_zero:
                        t.append((s, c * rho))
        return GradedVector._combined(model, slots, delta, ())

    def pair(self, other: "GradedVector") -> RationalFunction:
        """Invariant bilinear form."""
        if other.model is not self.model:
            raise ValueError("graded vectors over different algebra models")
        model = self.model
        terms = []
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
                    if not (q.is_zero or cy.is_zero):
                        terms.append((q, cx * cy))
        hv = Scalar.exact(model.dual_coxeter)
        if not self.delta.is_zero and not other.rho.is_zero:
            terms.append((hv, self.delta * other.rho))
        if not self.rho.is_zero and not other.delta.is_zero:
            terms.append((hv, self.rho * other.delta))
        # (rho | h_i t^0) = 1 for every i
        for rho, vec in ((self.rho, other), (other.rho, self)):
            if not rho.is_zero:
                for c in vec.parts.get(0, ()):
                    if not c.is_zero:
                        terms.append((_ONE, rho * c))
        return RationalFunction.lincomb(terms)

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
        for g in sorted(self.parts):
            bits.append(f"{g}: {self.parts[g]!r}")
        if not self.delta.is_zero:
            bits.append(f"delta: {self.delta!r}")
        if not self.rho.is_zero:
            bits.append(f"rho: {self.rho!r}")
        return "GradedVector(" + "; ".join(bits) + ")"


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
            if not dq.is_zero:
                v = v.add_delta(RationalFunction.from_scalar(dq))
            c.append(v)
        return a, c
    a = [GradedVector.from_coeff_vector(model, n, v)
         for v in model.kernel_basis(n)]
    c = [GradedVector.from_coeff_vector(model, n, v)
         for v in model.image_complement_basis(n)]
    return a, c


def exponents(model: AlgebraModel):
    return model.exponent_multiset()
