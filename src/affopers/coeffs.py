"""Scalars, polynomials and rational functions in one variable.

Every value is exact.  A :class:`Scalar` is a Gaussian rational, a pair of
``fractions.Fraction`` (re, im).  A :class:`Polynomial` keeps Python
integers: Gaussian-integer numerators over one positive denominator,
normalized so that the gcd of all of them is 1 (FLINT's ``fmpq_poly``
layout), so its arithmetic is integer convolutions and gcds, not
``Fraction`` operations.  Floats appear only in
:meth:`RationalFunction.complex_form`, the cached complex form that
quadrature reads, and in :meth:`RationalFunction.eval_complex`; a float
enters only through :meth:`Scalar.from_complex`, which keeps its exact
binary value.

Every denominator this package builds splits over a known pole set: the
marked points, the Bethe roots and their Moebius images.  A
:class:`RationalFunction` is therefore stored as ``num / prod (z-p)^m`` over a
sorted list of distinct poles, reduced (``num`` vanishes at none of them) and
with a monic denominator.  Sums and products reduce by synthetic division at
the known poles, and test only the poles where a cancellation can happen: in
a product, a pole of one factor against the other factor's numerator; in a
sum, a pole where both orders agree.  Each test is an integer Horner, and a
quotient is built only when the remainder is zero.  No operation divides one
rational function by another.  Since the stored form is canonical, equality
and hashing compare it directly and pole orders are lookups.
"""

from __future__ import annotations

import math
from fractions import Fraction

# bench/ still imports EXACT (and passes it to three constructors, which
# ignore it) and reports _Q.__name__ as the rational type
EXACT = "exact"
_Q = Fraction

_RZERO = Fraction(0)
_RONE = Fraction(1)


def _rat(x) -> Fraction:
    """Coerce an int, rational or string ("p/q" or decimal) to a rational."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if "/" in s:
            n, d = s.split("/")
            return Fraction(n) / Fraction(d)
        return Fraction(s)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Scalar:
    """A Gaussian rational: a pair of rationals (re, im), compared exactly."""

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    # -- constructors ---------------------------------------------------

    @staticmethod
    def exact(re, im=0) -> "Scalar":
        return Scalar(_rat(re), _rat(im))

    @staticmethod
    def from_complex(z) -> "Scalar":
        """The exact binary value of a finite complex float."""
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"cannot represent {z!r} exactly")
        return Scalar(Fraction(z.real), Fraction(z.imag))

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def parse(obj) -> "Scalar":
        """Parse the JSON form: a single string, or a [re, im] pair.
        Scalars pass through untouched."""
        if isinstance(obj, Scalar):
            return obj
        if isinstance(obj, (list, tuple)):
            if len(obj) != 2:
                raise ValueError(f"scalar pair must have two entries, got {obj!r}")
            re, im = obj
        else:
            re, im = obj, 0
        return Scalar.exact(_parse_real(re), _parse_real(im))

    def to_json(self):
        if self.im == 0:
            return str(self.re)
        return [str(self.re), str(self.im)]

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not self.im and not other.im:
            return Scalar(self.re + other.re, _RZERO)
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not self.im and not other.im:
            return Scalar(self.re - other.re, _RZERO)
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            # real operands: the imaginary products are all exact zeros
            return Scalar(a * c, _RZERO)
        return Scalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        c, d = other.re, other.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("scalar division by zero")
        a, b = self.re, self.im
        return Scalar((a * c + b * d) / n, (b * c - a * d) / n)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # poles are dictionary keys in every sum and product, and a
        # Fraction hash costs a modular inverse; a value never changes
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.re, self.im))
            return self._hash

    def __repr__(self):
        if self.im == 0:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im}i)"


def _parse_real(x):
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return x
    if isinstance(x, float):
        raise ValueError(
            f"refusing to read float {x!r} as an exact number; "
            "pass a 'p/q' or decimal string"
        )
    raise ValueError(f"cannot parse {x!r} as an exact real part")


_ZERO = Scalar(_RZERO, _RZERO)
_ONE = Scalar(_RONE, _RZERO)


class Polynomial:
    """Dense polynomial over the Gaussian rationals, on Python integers.

    The value is ``sum (re[k] + i im[k]) z^k / den``: ``re`` is a tuple of
    integer real numerators in ascending order, ``im`` the imaginary ones
    (``None`` when every imaginary part is zero, else as long as ``re``) and
    ``den`` one positive denominator.  The stored form is normalized: no
    trailing zero coefficient, and the gcd of ``den`` and all numerators is
    1.  The zero polynomial is ``re == ()`` and reports degree -1
    (sentinel).  Since the form is canonical, ``==`` and ``hash`` compare
    the three fields directly.

    Products are integer convolutions followed by one gcd; sums
    cross-multiply the denominators; scaling multiplies numerators and
    denominator.  A value or remainder at ``a = (r + i s)/q`` is an integer
    Horner in ``q``-scaled form.  ``coeffs`` builds the Scalar coefficients
    on demand, for callers outside the hot paths.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re, im, den):
        self.re = re
        self.im = im
        self.den = den

    @staticmethod
    def of(coeffs) -> "Polynomial":
        coeffs = list(coeffs)
        den = math.lcm(*(x.denominator for c in coeffs for x in (c.re, c.im)))
        re = [c.re.numerator * (den // c.re.denominator) for c in coeffs]
        im = [c.im.numerator * (den // c.im.denominator) for c in coeffs]
        return _make(re, im, den)

    @staticmethod
    def zero() -> "Polynomial":
        return _PZERO

    @staticmethod
    def one(_backend=None) -> "Polynomial":
        # ignores the former backend argument that bench/ still passes
        return _PONE

    @staticmethod
    def constant(s: Scalar) -> "Polynomial":
        return Polynomial.of([s])

    @staticmethod
    def variable(_backend=None) -> "Polynomial":
        # ignores the former backend argument that bench/ still passes
        return Polynomial((0, 1), None, 1)

    @property
    def coeffs(self):
        """The coefficients as Scalars, ascending, built on each access."""
        den = self.den
        if self.im is None:
            return tuple(Scalar(Fraction(x, den), _RZERO) for x in self.re)
        return tuple(Scalar(Fraction(x, den), Fraction(y, den))
                     for x, y in zip(self.re, self.im))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.re) - 1

    @property
    def is_zero(self) -> bool:
        return not self.re

    def __add__(self, other):
        if not other.re:
            return self
        if not self.re:
            return other
        da, db = self.den, other.den
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        re = _combine(self.re, fa, other.re, fb)
        im = None
        if self.im is not None or other.im is not None:
            im = _combine(self.im or (0,) * len(self.re), fa,
                          other.im or (0,) * len(other.re), fb)
        return _make(re, im, da * fa)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        im = None if self.im is None else tuple(-y for y in self.im)
        return Polynomial(tuple(-x for x in self.re), im, self.den)

    def __mul__(self, other):
        ar, br = self.re, other.re
        if not ar or not br:
            return _PZERO
        ai, bi = self.im, other.im
        outr = [0] * (len(ar) + len(br) - 1)
        outi = None
        if ai is None and bi is None:
            for i, x in enumerate(ar):
                if x:
                    for j, y in enumerate(br, i):
                        outr[j] += x * y
        else:
            ai = ai or (0,) * len(ar)
            bi = bi or (0,) * len(br)
            outi = list(outr)
            for i, x, y in zip(range(len(ar)), ar, ai):
                for k, u, v in zip(range(i, len(outr)), br, bi):
                    outr[k] += x * u - y * v
                    outi[k] += x * v + y * u
        return _make(outr, outi, self.den * other.den)

    def scale(self, s: Scalar) -> "Polynomial":
        if s.is_zero or not self.re:
            return _PZERO
        r, i, q = _split(s)
        re, im = self.re, self.im
        if not i:
            return _make([x * r for x in re],
                         None if im is None else [y * r for y in im],
                         self.den * q)
        im = im or (0,) * len(re)
        return _make([x * r - y * i for x, y in zip(re, im)],
                     [x * i + y * r for x, y in zip(re, im)], self.den * q)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = _PONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        ocoeffs = other.coeffs
        dlead = ocoeffs[-1]
        dd = other.degree
        q = [_ZERO] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c.is_zero:
                continue
            f = c / dlead
            q[i - dd] = f
            for j, oc in enumerate(ocoeffs):
                rem[i - dd + j] = rem[i - dd + j] - f * oc
        return Polynomial.of(q), Polynomial.of(rem)

    def derivative(self) -> "Polynomial":
        im = self.im
        return _make([k * x for k, x in enumerate(self.re)][1:],
                     None if im is None else [k * y for k, y in enumerate(im)][1:],
                     self.den)

    def eval(self, s: Scalar) -> Scalar:
        if not self.re:
            return _ZERO
        r, i, q = _split(s)
        x, y = self._horner(r, i, q)
        d = self.den * q ** self.degree
        return Scalar(Fraction(x, d), Fraction(y, d))

    def _horner(self, r, i, q):
        """``den q^n p(A/q)`` with ``A = r + i s``, as an integer pair
        (real, imag); n is the degree."""
        if self.im is None and not i:
            x = 0
            qp = 1
            for c in reversed(self.re):
                x = x * r + c * qp
                qp *= q
            return x, 0
        for x in self._sums(r, i, q):
            pass
        return x

    def _sums(self, r, i, q):
        """The Horner sums ``b_(n-1), ..., b_0, b_(-1)`` at ``A/q`` as
        integer pairs: ``b_(n-1) = N_n`` and ``b_(k-1) = N_k q^(n-k) + A b_k``
        for the numerators N, so ``b_(-1) = den q^n p(A/q)``."""
        x = y = 0
        qp = 1
        for c, d in zip(reversed(self.re),
                        reversed(self.im or (0,) * len(self.re))):
            x, y = x * r - y * i + c * qp, x * i + y * r + d * qp
            qp *= q
            yield x, y

    def shift(self, a: Scalar) -> "Polynomial":
        """Taylor shift: returns q with q(z) = p(z + a).

        The coefficients of q are the Taylor coefficients of p at a: the
        remainders p(a), p'(a)/1!, ... of repeated synthetic division by
        (z - a).
        """
        out = []
        while self.re:
            self, rem = self.divide_linear(a)
            out.append(rem)
        return Polynomial.of(out)

    def divide_linear(self, a: Scalar):
        """Synthetic division by (z - a): returns (quotient, remainder scalar).

        With ``a = A/q``, the quotient's coefficient k is the Horner sum
        ``b_k`` (see ``_sums``) times ``q^k / (den q^(n-1))``, and the
        remainder is ``b_(-1) / (den q^n)``.
        """
        n = self.degree
        if n < 1:
            return _PZERO, (self.coeffs or (_ZERO,))[0]
        r, i, q = _split(a)
        sums = list(self._sums(r, i, q))
        x, y = sums.pop()
        re, im = [], []
        qk = 1
        for b, c in reversed(sums):
            re.append(b * qk)
            im.append(c * qk)
            qk *= q
        d = self.den * q ** (n - 1)
        return _make(re, im, d), Scalar(Fraction(x, d * q), Fraction(y, d * q))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.re == other.re and self.im == other.im
                and self.den == other.den)

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            cs = f"({c.re}+{c.im}i)" if c.im else str(c.re)
            terms.append(cs if k == 0 else (f"{cs}*z^{k}" if k > 1 else f"{cs}*z"))
        return "Polynomial(" + " + ".join(terms) + ")"


def _split(s: Scalar):
    """Integers (r, i, q) with s = (r + i sqrt(-1))/q and q > 0 least."""
    a, b = s.re, s.im
    q = a.denominator
    if not b:
        return a.numerator, 0, q
    d = b.denominator
    if d != q:
        q = math.lcm(q, d)
    return a.numerator * (q // a.denominator), b.numerator * (q // d), q


def _combine(a, fa, b, fb):
    """The integer list fa*a + fb*b, padded to the longer length."""
    if len(a) < len(b):
        a, fa, b, fb = b, fb, a, fa
    out = [x * fa for x in a] if fa != 1 else list(a)
    for k, y in enumerate(b):
        out[k] += y * fb
    return out


def _make(re, im, den):
    """The normalized Polynomial of integer numerator lists over den > 0."""
    n = len(re)
    if im is None:
        while n and not re[n - 1]:
            n -= 1
    else:
        while n and not re[n - 1] and not im[n - 1]:
            n -= 1
        im = im[:n]
        if not any(im):
            im = None
    if not n:
        return _PZERO
    re = re[:n]
    if den != 1:
        g = math.gcd(den, *re) if im is None else math.gcd(den, *re, *im)
        if g != 1:
            re = [x // g for x in re]
            im = None if im is None else [y // g for y in im]
            den //= g
    return Polynomial(tuple(re), None if im is None else tuple(im), den)


_PZERO = Polynomial((), None, 1)
_PONE = Polynomial((1,), None, 1)


def _series_inv(coeffs, order):
    """Inverse of a power series (c0 != 0) to the given order."""
    c0 = coeffs[0]
    if c0.is_zero:
        raise ZeroDivisionError("series inversion needs a unit constant term")
    inv0 = _ONE / c0
    out = [inv0]
    for n in range(1, order):
        acc = _ZERO
        for k in range(1, min(n, len(coeffs) - 1) + 1):
            acc = acc + coeffs[k] * out[n - k]
        out.append(-inv0 * acc)
    return out


def _series_mul(a, b, order):
    out = [_ZERO] * order
    for i, x in enumerate(a[:order]):
        if x.is_zero:
            continue
        for j, y in enumerate(b[: order - i]):
            out[i + j] = out[i + j] + x * y
    return out


class RationalFunction:
    """A reduced quotient ``num / prod (z - p)^m`` with split denominator.

    ``poles`` is a tuple of (pole, multiplicity) pairs over distinct poles,
    sorted by (re, im), with every multiplicity positive; the denominator is
    therefore monic.  ``num`` vanishes at none of the poles, and the zero
    function has no poles, so every value has exactly one stored form.
    Construction and arithmetic keep that form.

    ``complex_form`` converts the numerator coefficients (highest first)
    and the poles to ``complex`` on its first call and keeps them in the
    ``_complex`` slot, which construction leaves unset: quadrature evaluates
    one function at thousands of nodes, while the exact layers build many
    functions and evaluate none.  A value never changes after construction,
    so the cache cannot go stale.
    """

    __slots__ = ("num", "poles", "_complex")

    def __init__(self, num, poles):
        self.num = num
        self.poles = poles  # tuple of (Scalar, multiplicity), canonically sorted

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_split(num: Polynomial, poles) -> "RationalFunction":
        """Build num / prod (z-p)^m from {pole: multiplicity} or (pole, m)
        pairs, cancelling the roots of num at the poles."""
        items = {p: int(m) for p, m in dict(poles).items() if m}
        if any(m < 0 for m in items.values()):
            raise ValueError("negative pole multiplicity")
        if num.is_zero:
            return RationalFunction.zero()
        out = []
        for p, m in _sorted_poles(items):
            num, m = _strip(num, p, m)
            if m:
                out.append((p, m))
        return RationalFunction(num, tuple(out))

    @staticmethod
    def from_poly(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, ())

    @staticmethod
    def from_scalar(s: Scalar) -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.constant(s))

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(Polynomial.zero(), ())

    @staticmethod
    def one(_backend=None) -> "RationalFunction":
        # ignores the former backend argument that bench/ still passes
        return RationalFunction.from_poly(Polynomial.one())

    @staticmethod
    def variable() -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.variable())

    @staticmethod
    def simple_pole(residue: Scalar, pole: Scalar) -> "RationalFunction":
        """residue / (z - pole)."""
        return RationalFunction.from_split(
            Polynomial.constant(residue), {pole: 1}
        )

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return not self.poles

    def pole_dict(self) -> dict:
        return dict(self.poles)

    def den_poly(self) -> Polynomial:
        """Expanded (monic) denominator."""
        return _linear_product(dict(self.poles))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_poly(other)
        if isinstance(other, Scalar):
            return RationalFunction.from_scalar(other)
        raise TypeError(f"cannot combine RationalFunction with {type(other).__name__}")

    def __add__(self, other):
        """Sum over the common denominator.  A cancellation is possible
        only where both orders agree: elsewhere one of the two cross
        products keeps a factor (z - p) and the other does not."""
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a, b = dict(self.poles), dict(other.poles)
        na, nb = self.num, other.num
        for p, m in b.items():
            if m > a.get(p, 0):
                na = na * _linear(p) ** (m - a.get(p, 0))
        for p, m in a.items():
            if m > b.get(p, 0):
                nb = nb * _linear(p) ** (m - b.get(p, 0))
        num = na + nb
        if num.is_zero:
            return RationalFunction.zero()
        orders = {p: max(a.get(p, 0), b.get(p, 0)) for p in {**a, **b}}
        poles = []
        for p, m in _sorted_poles(orders):
            if a.get(p) == b.get(p):
                num, m = _strip(num, p, m)
            if m:
                poles.append((p, m))
        return RationalFunction(num, tuple(poles))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return RationalFunction(-self.num, self.poles)

    def __mul__(self, other):
        """Product, cancelled factor by factor before multiplying.  At a
        pole of both factors both numerators are nonzero, so only a pole
        of one factor can cancel, against the other factor's numerator."""
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return RationalFunction.zero()
        a, b = dict(self.poles), dict(other.poles)
        na, nb = self.num, other.num
        orders = {p: a.get(p, 0) + b.get(p, 0) for p in {**a, **b}}
        poles = []
        for p, m in _sorted_poles(orders):
            if p not in b:
                nb, m = _strip(nb, p, m)
            elif p not in a:
                na, m = _strip(na, p, m)
            if m:
                poles.append((p, m))
        return RationalFunction(na * nb, tuple(poles))

    def scale(self, s: Scalar) -> "RationalFunction":
        if s.is_zero:
            return RationalFunction.zero()
        return RationalFunction(self.num.scale(s), self.poles)

    def derivative(self) -> "RationalFunction":
        """f' in reduced form, with no reduction pass.

        With L = prod (z-p) over the distinct poles,

            f' = (n' L - n sum_p m_p L/(z-p)) / prod (z-p)^(m_p+1).

        At a pole p every term of the numerator but one vanishes, leaving
        -m_p n(p) prod_{q != p} (p - q), which is nonzero since n(p) is; so
        each pole order rises by exactly one and the quotient is reduced.
        """
        if not self.poles:
            return RationalFunction.from_poly(self.num.derivative())
        L = _linear_product({p: 1 for p, _m in self.poles})
        S = Polynomial.zero()
        for p, m in self.poles:
            S = S + L.divide_linear(p)[0].scale(Scalar.exact(m))
        num = self.num.derivative() * L - self.num * S
        return RationalFunction(num, tuple((p, m + 1) for p, m in self.poles))

    # -- evaluation ---------------------------------------------------------

    def eval(self, s: Scalar) -> Scalar:
        num = self.num.eval(s)
        den = _ONE
        for p, m in self.poles:
            d = s - p
            if d.is_zero:
                raise ZeroDivisionError(f"evaluation at a pole {s!r}")
            for _ in range(m):
                den = den * d
        return num / den

    def complex_form(self):
        """``(coeffs, poles)`` as ``complex``: the numerator coefficients,
        highest first, and the (pole, multiplicity) pairs.  Converted on
        the first call and cached; quadrature reads them to evaluate the
        function inline."""
        try:
            return self._complex
        except AttributeError:
            num = self.num
            den = num.den
            coeffs = tuple(complex(x / den, y / den) for x, y in zip(
                reversed(num.re), reversed(num.im or (0,) * len(num.re))))
            poles = tuple((complex(p.re, p.im), m) for p, m in self.poles)
            self._complex = coeffs, poles
            return self._complex

    def eval_complex(self, z: complex) -> complex:
        coeffs, poles = self.complex_form()
        num = 0j
        for c in coeffs:
            num = num * z + c
        den = 1 + 0j
        for p, m in poles:
            den *= (z - p) ** m
        return num / den

    # -- expansions ----------------------------------------------------------

    def laurent_at(self, a: Scalar, keep_regular=0):
        """Principal part coefficients at a: list of (order k, coeff of (z-a)^-k).

        With keep_regular > 0 the first regular Taylor coefficients follow as
        (order 0, value), (order -1, first derivative coeff), ... counted with
        negative "orders" -j for the (z-a)^j coefficient.  Zero coefficients
        are left out.
        """
        m = dict(self.poles).get(a, 0)
        order = m + keep_regular
        if order == 0 or self.is_zero:
            return []
        # g(w) = num(a+w) / (other factors)(a+w); f = g(w)/w^m
        numser = list(self.num.shift(a).coeffs)
        denpoly = Polynomial.one()
        for p, mp in self.poles:
            if p == a:
                continue
            lin = Polynomial.of([a - p, _ONE])
            for _ in range(mp):
                denpoly = denpoly * lin
        numser += [_ZERO] * max(0, order - len(numser))
        g = _series_mul(numser, _series_inv(list(denpoly.coeffs), order),
                        order)
        # g[j] is the coefficient of (z-a)^(j-m)
        return [(m - j, c) for j, c in enumerate(g) if not c.is_zero]

    def residue_at(self, a: Scalar) -> Scalar:
        for k, c in self.laurent_at(a):
            if k == 1:
                return c
        return _ZERO

    def pole_order_at(self, a: Scalar) -> int:
        """Pole order at a (0 if regular)."""
        return dict(self.poles).get(a, 0)

    # -- reparameterization ---------------------------------------------------

    def compose_mobius(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar
                       ) -> "RationalFunction":
        """f((a z + b)/(c z + d)) as a rational function of z; ad - bc != 0.

        The image is reduced without a reduction pass.  With mu the map and
        N = num(mu(z)) (c z + d)^deg(num): at a new pole mu^-1(p), N equals
        num(p) times a nonzero power of c z + d; at -d/c, a pole only when
        the numerator has the higher degree, N is the leading coefficient of
        num times ((a d - b c)/c)^deg(num).  Neither vanishes.
        """
        det = a * d - b * c
        if det.is_zero:
            raise ValueError("singular coefficient matrix for a Moebius map")
        A = Polynomial.of([b, a])  # a z + b
        B = Polynomial.of([d, c])  # c z + d
        # numerator through the map
        num, npow = _compose_num(self.num, A, B)
        # denominator factors (z0 - p) -> ((a - p c) z + (b - p d)) / B
        poles = {}
        scale = _ONE
        dpow = 0
        for p, m in self.poles:
            lc = a - p * c
            cc = b - p * d
            dpow += m
            if lc.is_zero:
                # the pole sits at the image of infinity; factor is constant/B
                for _ in range(m):
                    scale = scale * cc
            else:
                root = -(cc / lc)
                poles[root] = poles.get(root, 0) + m
                for _ in range(m):
                    scale = scale * lc
        # assemble: f(mu(z)) = num * B^(dpow - npow) / (scale * prod(z-root)^m)
        invscale = _ONE / scale
        num = num.scale(invscale)
        bexp = dpow - npow
        if bexp > 0:
            num = num * (B ** bexp)
        elif bexp < 0:
            if c.is_zero:
                # B is the constant d: fold its powers into the scale
                sc = _ONE
                for _ in range(-bexp):
                    sc = sc * (_ONE / d)
                num = num.scale(sc)
            else:
                root = -(d / c)
                poles[root] = poles.get(root, 0) + (-bexp)
                sc = _ONE
                for _ in range(-bexp):
                    sc = sc * (_ONE / c)
                num = num.scale(sc)
        return RationalFunction(num, _sorted_poles(poles))

    # -- comparison / io -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.poles == other.poles

    def __hash__(self):
        return hash((self.num, self.poles))

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den_poly().to_json()}

    def __repr__(self):
        ps = ", ".join(f"{p!r}^{m}" for p, m in self.poles)
        return f"RF({self.num!r} / [{ps}])"


def _sorted_poles(poles: dict):
    items = [(p, m) for p, m in poles.items() if m]
    items.sort(key=lambda pm: (pm[0].re, pm[0].im))
    return tuple(items)


def _strip(num: Polynomial, p: Scalar, m: int):
    """Divide num by (z - p) while it vanishes at p, at most m times;
    returns the quotient and the pole order left.  The remainder test is
    an integer Horner; a quotient is built only when it is zero."""
    while m and num.degree > 0 and num._horner(*_split(p)) == (0, 0):
        num = num.divide_linear(p)[0]
        m -= 1
    return num, m


def _linear(p: Scalar) -> Polynomial:
    """z - p."""
    r, i, q = _split(p)
    return Polynomial((-r, q), (-i, 0) if i else None, q)


def _linear_product(mults: dict) -> Polynomial:
    out = _PONE
    for p, m in mults.items():
        out = out * _linear(p) ** m
    return out


def _compose_num(p: Polynomial, A: Polynomial, B: Polynomial):
    """p((az+b)/(cz+d)) = (returned polynomial) / B^deg(p); returns (poly, deg)."""
    if p.is_zero:
        return Polynomial.zero(), 0
    n = p.degree
    # Horner in A/B: result = sum p_k A^k B^(n-k)
    acc = Polynomial.constant(p.coeffs[n])
    for k in range(n - 1, -1, -1):
        acc = acc * A + Polynomial.constant(p.coeffs[k]) * (B ** (n - k))
    return acc, n


def partial_fractions(f: RationalFunction):
    """Decompose f into (polynomial part, [(pole, order, coefficient), ...]).

    Entries with zero coefficient are omitted; orders run from each pole's
    multiplicity down to 1.
    """
    qpart = divmod(f.num, f.den_poly())[0]
    terms = [(p, k, c) for p, _m in f.poles
             for k, c in f.laurent_at(p) if k >= 1]
    return qpart, terms


def recombine(poly_part: Polynomial, terms) -> RationalFunction:
    """Inverse of partial_fractions."""
    out = RationalFunction.from_poly(poly_part)
    for p, k, c in terms:
        out = out + RationalFunction.from_split(Polynomial.constant(c), {p: k})
    return out
