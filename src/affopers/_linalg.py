"""Tiny exact linear algebra over the rationals.

Matrices are lists of lists of ``fractions.Fraction``.  Only the operations
the graded-algebra layer needs: rref, nullspace, solve, inverse.
"""

from __future__ import annotations

from .coeffs import _RONE, _RZERO


def rref(rows):
    """Reduced row echelon form; returns (new rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = _RONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows, ncols=None):
    """Basis of the right nullspace, one vector per free column.

    Vectors are normalized with a 1 in their free coordinate (the standard
    rref parameterization), making the basis deterministic for a fixed
    column order.
    """
    if not rows:
        if ncols is None:
            raise ValueError("need ncols for an empty constraint set")
        return [[_RONE if i == j else _RZERO for i in range(ncols)]
                for j in range(ncols)]
    ncols = len(rows[0]) if ncols is None else ncols
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [_RZERO] * ncols
        v[fc] = _RONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """Solve A x = b exactly; returns None when inconsistent.

    For underdetermined systems returns the particular solution with free
    variables set to zero.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [_RZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def invert(rows):
    """Inverse of a square exact matrix; raises on singular input."""
    n = len(rows)
    aug = [list(r) + [_RONE if i == j else _RZERO for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def mat_vec(rows, v):
    return [sum((a * b for a, b in zip(r, v)), _RZERO) for r in rows]
