"""Tiny exact linear algebra over the Gaussian rationals.

Matrices are lists of lists of :class:`~affopers.coeffs.Scalar`.  Only the
operations the graded-algebra layer needs: rref, nullspace, inverse, mat_vec.
A Scalar has no truth value, so zero tests read ``is_zero``.
"""

from __future__ import annotations

from .coeffs import _ONE, _ZERO


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
            if not m[i][c].is_zero:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = _ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace of an ``ncols``-column matrix, one
    vector per free column.

    Vectors are normalized with a 1 in their free coordinate (the standard
    rref parameterization), making the basis deterministic for a fixed
    column order.
    """
    if not rows:
        return [[_ONE if i == j else _ZERO for i in range(ncols)]
                for j in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def invert(rows):
    """Inverse of a square exact matrix; raises on singular input."""
    n = len(rows)
    aug = [list(r) + [_ONE if i == j else _ZERO for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def mat_vec(rows, v):
    return [sum((a * b for a, b in zip(r, v)), _ZERO) for r in rows]
