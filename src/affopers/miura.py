"""Cartan-valued connections with simple poles: marked points carrying
weights, extra points carrying simple-root residues, and everything the
critical-point system of the master function says about them.

A marked point holds a triple (lambda_dot, level, delta) packed into one
affine weight  lambda = lambda_dot + (level/h) rho - delta (center);
the derivation components of the weights assemble the twist function
phi = sum_i level_i/(z - z_i), so the twist never has to be supplied
separately.  Root points carry affine simple roots alpha_c, color c in
0..rank (color 0 uses delta - theta).

Conventions: the connection matrix is

    u(z) = - sum_i lambda_i/(z - z_i) + sum_j alpha_{c(j)}/(z - w_j)

and the master function is

    Phi = sum_{i<i'} (lam_i|lam_i') log(z_i - z_i')
        - sum_{i,j} (lam_i|alpha_{c(j)}) log(z_i - w_j)
        + sum_{j<j'} (alpha_{c(j)}|alpha_{c(j')}) log(w_j - w_j'),

whose w-partials are the Bethe residuals: the connection's underlying
gauge class is regular at w_j exactly when the j-th residual vanishes.
"""

from __future__ import annotations

import json

from .affine_algebra import AlgebraModel, GradedVector, Weight, build_algebra
from .coeffs import Polynomial, RationalFunction, Scalar
from .oper_core import Connection, gauge_transform, quasi_canonicalize

__all__ = [
    "MiuraData",
    "RouteDisagreement",
    "affine_simple_root",
    "build_miura",
    "master_partials",
    "bethe_residuals",
    "is_on_shell",
    "casimir",
    "v1_predicted",
    "quadratic_eigenvalue_data",
    "single_root_position",
    "erase_root",
    "regularity_check",
]

DEFAULT_CUTOFF = 12


def affine_simple_root(model: AlgebraModel, i: int) -> Weight:
    """alpha_i as a weight, i = 0..rank (alpha_0 = center - highest root)."""
    if not 0 <= i <= model.rank:
        raise ValueError(f"color {i} outside 0..{model.rank}")
    if i == 0:
        coords = [Scalar.exact(-1)] * model.rank
        return Weight(model, coords, delta=Scalar.one())
    return Weight.simple_root(model, i)


class RouteDisagreement(AssertionError):
    """Two independent routes of :func:`regularity_check` disagree.

    ``data`` is the input's ``MiuraData.to_json()``, so ``affopers
    bethe-check`` can replay the case; ``values`` holds each route's value
    for root number ``root`` (counted from 0).
    """

    def __init__(self, message, data, root, values):
        detail = ", ".join(f"{k} = {v}" for k, v in values.items())
        super().__init__(f"root {root + 1}: {message} ({detail})")
        self.data = data
        self.root = root
        self.values = values


class MiuraData:
    """Marked points with weight triples plus root points with colors."""

    __slots__ = ("model", "points", "roots")

    def __init__(self, model, points, roots):
        self.model = model
        self.points = list(points)   # (position Scalar, Weight)
        self.roots = list(roots)     # (position Scalar, color int)
        seen = set()
        for z, lam in self.points:
            if lam.model is not model:
                raise ValueError("weight over a different algebra model")
            seen.add((z.re, z.im))
        if len(seen) != len(self.points):
            raise ValueError("marked points must be distinct")
        for w, c in self.roots:
            if not 0 <= c <= model.rank:
                raise ValueError(f"color {c} outside 0..{model.rank}")
            key = (w.re, w.im)
            if key in seen:
                raise ValueError("root positions must avoid all other points")
            seen.add(key)

    @staticmethod
    def make(model, points, roots=()):
        """points: (z, lambda_dot coeffs, level, delta); roots: (w, color)."""
        ps = []
        for z, lam_dot, level, delta in points:
            zs = Scalar.parse(z)
            lam = weight_triple(model, lam_dot, level, delta)
            ps.append((zs, lam))
        rs = [(Scalar.parse(w), int(c)) for w, c in roots]
        return MiuraData(model, ps, rs)

    # -- serialization ------------------------------------------------------

    @staticmethod
    def from_json(obj, model=None):
        if isinstance(obj, str):
            obj = json.loads(obj)
        if model is None:
            desc = obj.get("algebra")
            if desc is None:
                npts = obj.get("points") or []
                if not npts:
                    raise ValueError("cannot infer the algebra: no points")
                rank = len(npts[0]["weight"]["lambda_dot"])
                desc = {"type": "A", "rank": rank, "cutoff": DEFAULT_CUTOFF}
            model = build_algebra(desc)
        try:
            points = []
            for p in obj.get("points", ()):
                w = p["weight"]
                points.append((p["z"], w["lambda_dot"], w.get("level", 0),
                               w.get("delta", 0)))
            roots = [(r["w"], r["color"]) for r in obj.get("bethe_roots", ())]
        except KeyError as exc:
            raise ValueError(f"model JSON: a point or root lacks the key "
                             f"{exc.args[0]!r}") from None
        return MiuraData.make(model, points, roots)

    def to_json(self):
        hv = Scalar.exact(self.model.dual_coxeter)
        pts = []
        for z, lam in self.points:
            pts.append({
                "z": z.to_json(),
                "weight": {
                    "lambda_dot": [a.to_json() for a in lam.alpha],
                    "level": (lam.rho * hv).to_json(),
                    "delta": (-lam.delta).to_json(),
                },
            })
        return {
            "algebra": self.model.descriptor(),
            "points": pts,
            "bethe_roots": [
                {"w": w.to_json(), "color": c} for w, c in self.roots
            ],
        }

    # -- derived data ---------------------------------------------------------

    def twist(self) -> RationalFunction:
        """phi = sum_i level_i / (z - z_i)."""
        hv = Scalar.exact(self.model.dual_coxeter)
        acc = RationalFunction.zero()
        for z, lam in self.points:
            k = lam.rho * hv
            if not k.is_zero:
                acc = acc + RationalFunction.simple_pole(k, z)
        return acc

    def lambda_infinity(self) -> Weight:
        """Residue bookkeeping at infinity: sum of lambdas minus sum of
        root residues."""
        acc = Weight(self.model, [Scalar.zero()] * self.model.rank)
        for _z, lam in self.points:
            acc = acc + lam
        for _w, c in self.roots:
            acc = acc - affine_simple_root(self.model, c)
        return acc

    def root_weight(self, j) -> Weight:
        return affine_simple_root(self.model, self.roots[j][1])

    def __repr__(self):
        return (f"MiuraData({len(self.points)} points, "
                f"{len(self.roots)} roots)")


def weight_triple(model, lam_dot, level, delta) -> Weight:
    """Assemble lambda_dot + (level/h) rho - delta (center) as one weight."""
    hv = Scalar.exact(model.dual_coxeter)
    coords = [Scalar.parse(a) for a in lam_dot]
    return Weight(model, coords,
                  rho=Scalar.parse(level) / hv,
                  delta=-Scalar.parse(delta))


def build_miura(d: MiuraData) -> Connection:
    """The connection matrix u = -sum lam_i/(z-z_i) + sum alpha_c/(z-w_j).

    The weights' derivation components make u's rho coefficient equal to
    -phi/h automatically.
    """
    model = d.model
    u = GradedVector.zero(model)
    for z, lam in d.points:
        pole = RationalFunction.simple_pole(Scalar.exact(-1), z)
        u = u + lam.to_vector(scale=pole)
    for w, c in d.roots:
        pole = RationalFunction.simple_pole(Scalar.one(), w)
        u = u + affine_simple_root(model, c).to_vector(scale=pole)
    return Connection(model, u)


def master_partials(d: MiuraData):
    """Exact partial derivatives of the master function.

    Returns (z-partials, w-partials), one scalar per marked point / root.
    """
    zs = [z for z, _ in d.points]
    lams = [lam for _, lam in d.points]
    ws = [w for w, _ in d.roots]
    als = [affine_simple_root(d.model, c) for _, c in d.roots]
    dz = []
    for i, (zi, li) in enumerate(zip(zs, lams)):
        acc = Scalar.zero()
        for i2, (z2, l2) in enumerate(zip(zs, lams)):
            if i2 != i:
                acc = acc + li.form(l2) / (zi - z2)
        for w, al in zip(ws, als):
            acc = acc - li.form(al) / (zi - w)
        dz.append(acc)
    dw = []
    for j, (wj, aj) in enumerate(zip(ws, als)):
        acc = Scalar.zero()
        for zi, li in zip(zs, lams):
            acc = acc - li.form(aj) / (wj - zi)
        for j2, (w2, a2) in enumerate(zip(ws, als)):
            if j2 != j:
                acc = acc + aj.form(a2) / (wj - w2)
        dw.append(acc)
    return dz, dw


def bethe_residuals(d: MiuraData):
    """One scalar per root: the w-partials of the master function."""
    return master_partials(d)[1]


def is_on_shell(d: MiuraData) -> bool:
    return all(r.is_zero for r in bethe_residuals(d))


def casimir(lam: Weight) -> Scalar:
    """(lam | lam + 2 rho)/2."""
    rho = Weight.rho_weight(lam.model)
    two = Scalar.exact(2)
    return (lam.form(lam) + two * lam.form(rho)) / two


def v1_predicted(d: MiuraData) -> RationalFunction:
    """First canonical coefficient straight from the scalar data:

        h v_1 = sum_i c_i/(z-z_i)^2 + sum_i dPhi/dz_i/(z-z_i)
              + sum_j dPhi/dw_j/(z-w_j),

    with c_i the Casimir numbers (lam_i|lam_i+2rho)/2.  The double poles at
    the roots cancel identically ((alpha|alpha)/2 = (rho|alpha)); the root
    terms drop exactly on shell.
    """
    dz, dw = master_partials(d)
    acc = RationalFunction.zero()
    for (zi, lam), pz in zip(d.points, dz):
        c = casimir(lam)
        if not c.is_zero:
            acc = acc + RationalFunction.from_split(
                Polynomial.constant(c), ((zi, 2),))
        if not pz.is_zero:
            acc = acc + RationalFunction.simple_pole(pz, zi)
    for (wj, _c), pw in zip(d.roots, dw):
        if not pw.is_zero:
            acc = acc + RationalFunction.simple_pole(pw, wj)
    return acc.scale(Scalar.one() / Scalar.exact(d.model.dual_coxeter))


def quadratic_eigenvalue_data(d: MiuraData):
    """Per-point (Casimir number, z-partial of the master function) pairs,
    plus whether the root system is actually on shell (the scalars are only
    eigenvalue data in that case)."""
    dz, _dw = master_partials(d)
    rows = []
    for (zi, lam), pz in zip(d.points, dz):
        rows.append({"z": zi, "casimir": casimir(lam), "hamiltonian": pz})
    return rows, is_on_shell(d)


def single_root_position(d: MiuraData) -> Scalar:
    """Closed-form Bethe root for two marked points and one root:
    -a/(w - z1) - b/(w - z2) = 0 gives w = (a z2 + b z1)/(a + b)."""
    if len(d.points) != 2 or len(d.roots) != 1:
        raise ValueError("closed form needs exactly two points and one root")
    (z1, l1), (z2, l2) = d.points
    al = d.root_weight(0)
    a = l1.form(al)
    b = l2.form(al)
    if (a + b).is_zero:
        raise ValueError("degenerate data: pairings sum to zero")
    return (a * z2 + b * z1) / (a + b)


def erase_root(conn: Connection, w: Scalar, color: int) -> Connection:
    """Gauge by exp(-e_c/(z - w)): removes the simple-root residue at w and
    leaves a grade-1 coefficient vanishing at w exactly when the Bethe
    equation for (w, color) holds."""
    m = conn.model.simple_raising(color).scale(
        RationalFunction.simple_pole(Scalar.exact(-1), w))
    return gauge_transform(conn, m)


def regularity_check(d: MiuraData):
    """Per-root verdicts, computed two independent ways.

    For each root the first route erases that root alone (the connection
    obtained is regular there exactly when the root is critical), runs the
    canonical recursion, and reports the worst pole order of any coefficient
    v_j at the root.  Erasing only the root under scrutiny matters: erasing
    several interacting roots in sequence leaves removable higher-order
    artifacts at the later ones even on shell.

    The second route evaluates the scalar criterion
    h <r(w), coroot(c)> = phi(w) on the realized connection, which equals
    the vanishing of the w-partial of the master function.  The structural
    and scalar verdicts must agree on every input, and the two scalar
    computations must agree exactly, or there is a bug; a disagreement
    raises :class:`RouteDisagreement`.
    """
    residuals = bethe_residuals(d)
    conn = build_miura(d)
    out = []
    for j, ((w, c), res) in enumerate(zip(d.roots, residuals)):
        qc = quasi_canonicalize(erase_root(conn, w, c))
        worst = max(f.pole_order_at(w) for f in qc.v.values())
        coroot_val = _coroot_pairing_at(conn, d, j)
        hv = Scalar.exact(d.model.dual_coxeter)
        if not (coroot_val - hv * res).is_zero:
            raise RouteDisagreement(
                "scalar criterion disagrees with the master-function partial",
                d.to_json(), j, {"criterion_value": coroot_val.to_json(),
                                 "h_times_residual": (hv * res).to_json()})
        verdict_a = worst == 0
        verdict_b = res.is_zero
        if verdict_a != verdict_b:
            raise RouteDisagreement(
                "pole structure disagrees with the scalar criterion",
                d.to_json(), j, {"max_pole_order": worst,
                                 "bethe_residual": res.to_json()})
        out.append({
            "root": w,
            "color": c,
            "bethe_residual": res,
            "criterion_value": coroot_val,
            "max_pole_order": worst,
            "regular": verdict_a,
        })
    return out


def _coroot_pairing_at(conn: Connection, d: MiuraData, j: int) -> Scalar:
    """h <r(w_j), coroot(c_j)> - phi(w_j) with r = u minus the root's own
    simple-pole term (and minus the derivation part, accounted by phi)."""
    model = d.model
    w, c = d.roots[j]
    al = affine_simple_root(model, c)
    rest = conn.u - al.to_vector(
        scale=RationalFunction.simple_pole(Scalar.one(), w))
    comp = rest.component(0)
    hv = Scalar.exact(model.dual_coxeter)
    acc = Scalar.zero()
    # <h_i t^0, coroot(c)> through the Cartan matrix rows
    A = model.affine_cartan()
    for i in range(1, model.rank + 1):
        f = comp[model.index(0, ("h", i))]
        if not f.is_zero:
            acc = acc + f.eval(w) * Scalar.exact(A[i][c])
    return hv * acc - conn.phi.eval(w)