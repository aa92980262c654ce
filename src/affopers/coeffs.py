"""Scalars, polynomials and rational functions in one variable.

Every value is exact and kept on Python integers, in one layout:
Gaussian-integer numerators over one positive denominator, normalized so
that the gcd of all of them is 1 (FLINT's ``fmpq_poly`` layout).  A
:class:`Scalar` is the triple ``(r, i, q)`` of ``(r + i sqrt(-1))/q``, and
a :class:`Polynomial` holds one such numerator pair per coefficient over a
shared denominator, so the arithmetic of both is integer products and
gcds, not ``Fraction`` operations.  Floats appear only in
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
sum, a pole whose top order two or more terms reach.  Each test is an
integer Horner, and a quotient is built only when the remainder is zero.  No
operation divides one rational function by another.  Since the stored form
is canonical, equality and hashing compare it directly and pole orders are
lookups.  Partial fractions and Laurent parts peel one pole at a time off
the integer numerator: a value at the pole gives the top coefficient, and
subtracting its term leaves a numerator that synthetic division by
``z - p`` takes exactly.  A Moebius pull-back is built reduced, in one
step (:meth:`RationalFunction.compose_mobius`).

``from_split``, ``lincomb`` and ``lower_numerator`` strip in one routine,
``_canonical``, and ``lincomb`` and ``lift_numerator`` raise a numerator
to a larger denominator in one, ``_lift``.  A sum of many terms is one
:meth:`RationalFunction.lincomb`: ``sum s_i f_i`` merges the pole orders
once, lifts each numerator to the common denominator and adds the integer
numerators over one lcm denominator, so k terms cost one reduction, not
k - 1; ``+`` and ``-`` are its two-term case.  A pole keeps the powers of
``z - p`` it has been lifted by, and its sort key, in slots beside its
cached hash.  Each class's operators take only its own instances, so a
mixed expression raises ``TypeError``.

Where every denominator is known in advance as a power ``L^k`` of one
product ``L = prod (z - p)^c_p`` (the graded reduction of ``oper_core``), a
computation can run on numerators alone.  A raw numerator is an integer
triple ``(re, im, den)`` in the polynomials' layout, with no trailing zero
but no gcd taken, so zero is an empty ``re``.  A frame is the sorted
``(p, c_p)`` pairs of L; :func:`lift_numerator` takes a function to its
normalized raw numerator over ``L^k`` and :func:`lower_numerator`
normalizes a raw numerator and returns the canonical form.  In between, a
numerator is packed by Kronecker substitution at a base ``2^w``:
:func:`pack_numerator` makes its real and its imaginary coefficients one
int each, ``sum c_k 2^(w k)``, and records a bound on their bit length,
which stays below ``w - 1`` so the balanced digits unpack uniquely
(:func:`unpack_numerator`), and the base itself.
:func:`packing_base` is the ladder of bases a bound is stored at, and
:func:`rebase_numerator` moves a packing to another base.  ``_kmul`` and
``_ksum`` are the packed product and n-ary sum; each derives its result's
bound and takes the result at the widest base of its operands, or at the
ladder's base for its bound where that does not hold it, so no digit ever
wraps.  ``_kreduced`` divides out the content gcd.  ``_conv``,
``_combine`` and ``_reduced`` are the same operations on integer lists,
which :class:`Polynomial` uses (and the reduction, ``_reduced``, for the
digits of its gauge parameters).
"""

from __future__ import annotations

import decimal
import functools
import math
from fractions import Fraction

# bench/ still imports EXACT (and passes it to three constructors, which
# ignore it) and reports _Q.__name__ as the rational type
EXACT = "exact"
_Q = Fraction


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
    """A Gaussian rational ``(r + i sqrt(-1))/q`` on three Python ints.

    The triple is canonical: ``q > 0`` and ``gcd(r, i, q) == 1``, so zero
    is ``(0, 0, 1)``, and ``==`` and ``hash`` compare the ints directly.
    The constructor takes a canonical triple as given; every other value
    goes through ``_scalar``, the one normalizer.  A value never changes,
    so three slots cache what is derived from it: ``_hash``, ``_key`` (see
    ``order_key``) and ``_pows`` (the powers of ``z - self`` when the Scalar
    is a pole).
    """

    __slots__ = ("r", "i", "q", "_hash", "_key", "_pows")

    def __init__(self, r, i, q):
        self.r = r
        self.i = i
        self.q = q

    # -- constructors ---------------------------------------------------

    @staticmethod
    def exact(re, im=0) -> "Scalar":
        if type(re) is int and type(im) is int:
            return Scalar(re, im, 1)
        a, b = _rat(re), _rat(im)
        return _scalar(a.numerator * b.denominator,
                       b.numerator * a.denominator,
                       a.denominator * b.denominator)

    @staticmethod
    def from_complex(z) -> "Scalar":
        """The exact binary value of a finite complex float."""
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"cannot represent {z!r} exactly")
        return Scalar.exact(Fraction(z.real), Fraction(z.imag))

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
        if not self.i:
            return str(self.re)
        return [str(self.re), str(self.im)]

    # -- queries ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.r, self.q)

    @property
    def im(self) -> Fraction:
        return Fraction(self.i, self.q)

    @property
    def order_key(self):
        """``(re, im)``, the key poles are sorted by; built once."""
        try:
            return self._key
        except AttributeError:
            self._key = (self.re, self.im)
            return self._key

    @property
    def is_zero(self) -> bool:
        return not self.r and not self.i

    def as_complex(self) -> complex:
        return _complex(self.r, self.i, self.q)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        q, s = self.q, other.q
        return _scalar(self.r * s + other.r * q, self.i * s + other.i * q,
                       q * s)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        q, s = self.q, other.q
        return _scalar(self.r * s - other.r * q, self.i * s - other.i * q,
                       q * s)

    def __neg__(self):
        return Scalar(-self.r, -self.i, self.q)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b, c, d = self.r, self.i, other.r, other.i
        return _scalar(a * c - b * d, a * d + b * c, self.q * other.q)

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        c, d = other.r, other.i
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("scalar division by zero")
        a, b, s = self.r, self.i, other.q
        return _scalar((a * c + b * d) * s, (b * c - a * d) * s, self.q * n)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.r == other.r and self.i == other.i and self.q == other.q

    def __hash__(self):
        # poles are dictionary keys in every sum and product
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.r, self.i, self.q))
            return self._hash

    def __repr__(self):
        if not self.i:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im}i)"


def _scalar(r, i, q) -> Scalar:
    """The canonical Scalar ``(r + i sqrt(-1))/q`` of any ints, q != 0."""
    if q < 0:
        r, i, q = -r, -i, -q
    g = math.gcd(r, i, q)
    if g != 1:
        r, i, q = r // g, i // g, q // g
    return Scalar(r, i, q)


def _parse_real(x):
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        if "e" in x or "E" in x:
            for part in x.lower().split("/"):
                _check_exponent(part)
        return x
    if isinstance(x, float):
        raise ValueError(
            f"refusing to read float {x!r} as an exact number; "
            "pass a 'p/q' or decimal string"
        )
    raise ValueError(f"cannot parse {x!r} as an exact real part")


def _check_exponent(text):
    """Refuse a decimal whose exponent makes ``Fraction`` build an integer
    of over 4300 digits, CPython's default limit on ``int`` from a string
    (``1e200000`` would reach the arithmetic with 200,001 digits)."""
    mantissa, _e, exponent = text.partition("e")
    try:
        n = int(exponent)
    except ValueError:
        return  # no exponent, or a malformed one that Fraction reports
    # the mantissa's digits times 10^n, or over 10^-n
    digits = sum(c.isdigit() for c in mantissa) + abs(n)
    if digits > 4300:
        raise ValueError(
            f"the exponent of {text.strip()!r} makes an integer of {digits} "
            f"digits, above the limit of 4300")


def _complex(r, i, q) -> complex:
    """``(r + i sqrt(-1))/q`` as a complex; a value beyond the float range
    raises a ValueError that names it."""
    try:
        # int true division rounds correctly, as float(Fraction) does
        return complex(r / q, i / q)
    except OverflowError:
        six = decimal.Context(prec=6, Emax=decimal.MAX_EMAX)
        re, im = (six.normalize(six.divide(x, q)) for x in (r, i))
        text = f"{re} + {im} i" if i else f"{re}"
        raise ValueError(f"{text} is beyond the float range") from None


_ZERO = Scalar(0, 0, 1)
_ONE = Scalar(1, 0, 1)
_MINUS_ONE = Scalar(-1, 0, 1)


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
        den = math.lcm(*(c.q for c in coeffs))
        return _make([c.r * (den // c.q) for c in coeffs],
                     [c.i * (den // c.q) for c in coeffs], den)

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
        return tuple(_scalar(x, y, den) for x, y in
                     zip(self.re, self.im or (0,) * len(self.re)))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.re) - 1

    @property
    def is_zero(self) -> bool:
        return not self.re

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not other.re:
            return self
        if not self.re:
            return other
        return _make(*_combine(((1, 0, 1, self.re, self.im, self.den),
                                (1, 0, 1, other.re, other.im, other.den))))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        im = None if self.im is None else tuple(-y for y in self.im)
        return Polynomial(tuple(-x for x in self.re), im, self.den)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.re or not other.re:
            return _PZERO
        return _make(*_conv(self.re, self.im, other.re, other.im),
                     self.den * other.den)

    def scale(self, s: Scalar) -> "Polynomial":
        if not self.re or s.is_zero:
            return _PZERO
        return _make(*_combine(((s.r, s.i, s.q, self.re, self.im,
                                 self.den),)))

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

    def derivative(self) -> "Polynomial":
        return _make(*_derivative(self.re, self.im), self.den)

    def eval(self, s: Scalar) -> Scalar:
        if not self.re:
            return _ZERO
        q = s.q
        xs, ys = self._sums(s.r, s.i, q)
        return _scalar(xs[-1], ys[-1] if ys else 0,
                       self.den * q ** self.degree)

    def _sums(self, r, i, q):
        """The Horner sums ``b_(n-1), ..., b_0, b_(-1)`` at ``A/q`` with
        ``A = r + i sqrt(-1)``, as a list of real parts and one of imaginary
        parts (``None`` when the polynomial and A are real): ``b_(n-1) =
        N_n`` and ``b_(k-1) = N_k q^(n-k) + A b_k`` for the numerators N, so
        ``b_(-1) = den q^n p(A/q)``."""
        xs = []
        x = 0
        qp = 1
        if self.im is None and not i:
            for c in reversed(self.re):
                x = x * r + c * qp
                qp *= q
                xs.append(x)
            return xs, None
        ys = []
        y = 0
        for c, d in zip(reversed(self.re),
                        reversed(self.im or (0,) * len(self.re))):
            x, y = x * r - y * i + c * qp, x * i + y * r + d * qp
            qp *= q
            xs.append(x)
            ys.append(y)
        return xs, ys

    def divide_linear(self, a: Scalar):
        """Synthetic division by (z - a): returns (quotient, remainder scalar).

        With ``a = A/q``, the quotient is built from the Horner sums (see
        ``_quotient``) and the remainder is ``b_(-1) / (den q^n)``.
        """
        n = self.degree
        if n < 1:
            return _PZERO, (self.coeffs or (_ZERO,))[0]
        q = a.q
        xs, ys = self._sums(a.r, a.i, q)
        return (_quotient(xs, ys, q, self.den),
                _scalar(xs[-1], ys[-1] if ys else 0, self.den * q ** n))

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
            cs = f"({c.re}+{c.im}i)" if c.i else str(c.re)
            terms.append(cs if k == 0 else (f"{cs}*z^{k}" if k > 1 else f"{cs}*z"))
        return "Polynomial(" + " + ".join(terms) + ")"


def _conv(ar, ai, br, bi):
    """The integer numerator lists (real, imaginary or None) of the
    product of two nonzero numerators, not normalized."""
    outr = [0] * (len(ar) + len(br) - 1)
    if ai is None and bi is None:
        for i, x in enumerate(ar):
            if x:
                for j, y in enumerate(br, i):
                    outr[j] += x * y
        return outr, None
    ai = ai or (0,) * len(ar)
    bi = bi or (0,) * len(br)
    outi = list(outr)
    for i, x, y in zip(range(len(ar)), ar, ai):
        for k, u, v in zip(range(i, len(outr)), br, bi):
            outr[k] += x * u - y * v
            outi[k] += x * v + y * u
    return outr, outi


def _derivative(re, im):
    """The integer numerator lists (real, imaginary or None) of the
    derivative of a numerator over the same denominator."""
    return ([k * x for k, x in enumerate(re)][1:],
            None if im is None else [k * y for k, y in enumerate(im)][1:])


def _combine(items):
    """The raw sum ``(re, im, den)`` of ``(r + i sqrt(-1))/q * (re + i
    im)/den`` over the ``(r, i, q, re, im, den)`` items, whose numerators
    ``re`` and ``im`` (``None`` when real) are integer sequences with no
    trailing zero.  The sum's denominator is the lcm of the ``q * den``;
    no gcd is taken, but trailing zeros are trimmed, so a zero sum has an
    empty ``re``.  A single item with a real scalar is scaled without the
    lcm, and a sum of real items keeps ``im`` at ``None``."""
    if not items:
        return (), None, 1
    if len(items) == 1:
        r, i, q, re, im, d = items[0]
        if not i:
            if r == q:
                return re, im, d
            return ([r * x for x in re],
                    None if im is None else [r * y for y in im], q * d)
    den = math.lcm(*[it[2] * it[5] for it in items])
    outr = [0] * max(len(it[3]) for it in items)
    outi = None
    for r, i, q, re, im, d in items:
        f = den // (q * d)
        a = r * f
        if not i and im is None:
            for k, x in enumerate(re):
                outr[k] += a * x
            continue
        if outi is None:
            outi = [0] * len(outr)
        b = i * f
        for k, x, y in zip(range(len(re)), re, im or (0,) * len(re)):
            outr[k] += a * x - b * y
            outi[k] += a * y + b * x
    n = len(outr)
    if outi is None:
        while n and not outr[n - 1]:
            n -= 1
    else:
        while n and not outr[n - 1] and not outi[n - 1]:
            n -= 1
        outi = outi[:n] if any(outi) else None
    return outr[:n], outi, den


def _quotient(xs, ys, q, den) -> Polynomial:
    """The quotient of a synthetic division by ``z - A/q`` from its Horner
    sums (see ``Polynomial._sums``, the remainder sum last): coefficient k
    is ``b_k q^k / (den q^(n-1))``."""
    if q == 1:
        return _make(xs[-2::-1], None if ys is None else ys[-2::-1], den)
    pows = [1]
    for _ in range(len(xs) - 2):
        pows.append(pows[-1] * q)
    return _make([b * f for b, f in zip(xs[-2::-1], pows)],
                 None if ys is None else
                 [c * f for c, f in zip(ys[-2::-1], pows)],
                 den * pows[-1])


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
    re, im, den = _reduced(re[:n], im, den)
    return Polynomial(tuple(re), None if im is None else tuple(im), den)


def _reduced(re, im, den):
    """The raw numerator ``(re, im, den)`` divided by the gcd of ``den``
    and every numerator."""
    if den == 1:
        return re, im, den
    g = math.gcd(den, *re) if im is None else math.gcd(den, *re, *im)
    if g == 1:
        return re, im, den
    return ([x // g for x in re], None if im is None else [y // g for y in im],
            den // g)


_PZERO = Polynomial((), None, 1)
_PONE = Polynomial((1,), None, 1)


class RationalFunction:
    """A reduced quotient ``num / prod (z - p)^m`` with split denominator.

    ``poles`` is a tuple of (pole, multiplicity) pairs over distinct poles,
    sorted by (re, im), with every multiplicity positive; the denominator is
    therefore monic.  ``num`` vanishes at none of the poles, and the zero
    function has no poles, so every value has exactly one stored form.
    Construction and arithmetic keep that form.

    Every sum goes through :meth:`lincomb`, which reads the powers of
    ``z - p`` kept on each pole; poles are compared by their integer
    triples, so equal poles held by distinct Scalars give equal results
    and equal hashes.

    ``complex_form`` converts the numerator coefficients (highest first)
    and the poles to ``complex`` on its first call and keeps them in the
    ``_complex`` slot, which construction leaves unset: quadrature evaluates
    one function at thousands of nodes, while the exact layers build many
    functions and evaluate none.  A value never changes after construction,
    so the cache cannot go stale.

    ``+``, ``-`` and ``*`` take two RationalFunctions and return
    ``NotImplemented`` for any other operand, so Python raises
    ``TypeError``; a Scalar enters through ``scale``, ``from_scalar`` or
    ``lincomb``, a Polynomial through ``from_poly``.
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
        return _canonical(num, _sorted_poles(items))

    @staticmethod
    def from_poly(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, ())

    @staticmethod
    def from_scalar(s: Scalar) -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.constant(s))

    @staticmethod
    def zero() -> "RationalFunction":
        return _RFZERO

    @staticmethod
    def one(_backend=None) -> "RationalFunction":
        # ignores the former backend argument that bench/ still passes
        return RationalFunction.from_poly(Polynomial.one())

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

    def den_poly(self) -> Polynomial:
        """Expanded (monic) denominator."""
        out = _PONE
        for p, m in self.poles:
            out = out * _linear_power(p, m)
        return out

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def lincomb(terms) -> "RationalFunction":
        """The sum of ``s * f`` over the ``(Scalar s, RationalFunction f)``
        pairs, reduced once.

        The pole orders are merged once, and not at all when every term
        has the same ``poles``.  Each numerator is lifted to the common
        denominator by the powers of ``z - p`` cached on its poles, and the
        integer numerators are summed over one lcm denominator.  A
        cancellation is possible only at a pole whose top order two or
        more terms reach: where one term alone reaches it, every other
        lifted numerator keeps a factor ``z - p`` and that one does not.
        """
        items = []
        for s, f in terms:
            if f.num.re and not s.is_zero:
                items.append((s.r, s.i, s.q, f))
        if not items:
            return _RFZERO
        r, i, q, f = items[0]
        if len(items) == 1 and r == q and not i:
            return f
        poles = f.poles
        if all(f.poles == poles for *_s, f in items):
            num = _make(*_combine([(r, i, q, f.num.re, f.num.im, f.num.den)
                                   for r, i, q, f in items]))
            # two or more terms reach every top order; one term cannot cancel
            shared = None if len(items) > 1 else ()
        else:
            poles, shared = _merge_orders([f.poles for *_s, f in items])
            num = _make(*_combine([(r, i, q, *_lift(f, poles))
                                   for r, i, q, f in items]))
        return _canonical(num, poles, shared)

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction.lincomb(((_ONE, self), (_ONE, other)))

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction.lincomb(((_ONE, self), (_MINUS_ONE, other)))

    def __neg__(self):
        return RationalFunction(-self.num, self.poles)

    def __mul__(self, other):
        """Product, cancelled factor by factor before multiplying.  At a
        pole of both factors both numerators are nonzero, so only a pole
        of one factor can cancel, against the other factor's numerator."""
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalFunction.zero()
        a, b = dict(self.poles), dict(other.poles)
        na, nb = self.num, other.num
        orders = {p: a.get(p, 0) + b.get(p, 0) for p in {**a, **b}}
        poles = []
        for p, m in _in_order(orders, (self.poles, other.poles)):
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

        With L = prod (z-p) over the distinct poles p_1, ..., p_k,

            f' = (n' L - n S) / prod (z-p)^(m_p+1),  S = sum_p m_p L/(z-p).

        At a pole p every term of the numerator but one vanishes, leaving
        -m_p n(p) prod_{q != p} (p - q), which is nonzero since n(p) is; so
        each pole order rises by exactly one and the quotient is reduced.
        L/(z - p_j) is the product of the prefix p_1..p_(j-1) and the suffix
        p_(j+1)..p_k of linear factors, so S takes no division.
        """
        n, poles = self.num, self.poles
        if not poles:
            return RationalFunction.from_poly(n.derivative())
        lins = [_linear_power(p, 1) for p, _m in poles]
        prefix = [_PONE]
        for lin in lins:
            prefix.append(prefix[-1] * lin)
        suffix = _PONE
        S = []
        for j in range(len(lins) - 1, -1, -1):
            t = prefix[j] * suffix
            S.append((poles[j][1], 0, 1, t.re, t.im, t.den))
            suffix = suffix * lins[j]
        num = n.derivative() * prefix[-1] - n * _make(*_combine(S))
        return RationalFunction(num, tuple((p, m + 1) for p, m in poles))

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
            coeffs = tuple(_complex(x, y, den) for x, y in zip(
                reversed(num.re), reversed(num.im or (0,) * len(num.re))))
            poles = tuple((p.as_complex(), m) for p, m in self.poles)
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

    def laurent_at(self, a: Scalar):
        """Principal part at a: the (order k, coefficient of (z-a)^-k)
        pairs, orders descending, zero coefficients left out; empty where
        a is not a pole."""
        m = self.pole_order_at(a)
        if not m:
            return []
        rest = _PONE
        for p, mp in self.poles:
            if p != a:
                rest = rest * _linear_power(p, mp)
        return _peel(self.num, a, m, rest)[1]

    def residue_at(self, a: Scalar) -> Scalar:
        for k, c in self.laurent_at(a):
            if k == 1:
                return c
        return _ZERO

    def pole_order_at(self, a: Scalar) -> int:
        """Pole order at a (0 if regular)."""
        return dict(self.poles).get(a, 0)

    # -- reparameterization ---------------------------------------------------

    def compose_mobius(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar,
                       k: int) -> "RationalFunction":
        """The pull-back ``f(mu) mu'^k`` of the k-differential ``f dz^k``
        through ``mu(z) = (a z + b)/(c z + d)``, ad - bc != 0; k = 0 is
        plain composition.  Since ``mu' = (a d - b c)/(c z + d)^2``, the
        power of ``c z + d`` is ``sum m - n - 2k`` over the pole orders m
        of f, with n = deg(num), and the scale is divided by ``(a d -
        b c)^k``.  Zero returns itself.

        The image is reduced without a reduction pass.  With N = num(mu(z))
        (c z + d)^n: at a new pole mu^-1(p), N is num(p) times a nonzero
        power of c z + d.  At -d/c, a pole only when the power of c z + d
        is negative, N is ``p_n ((b c - a d)/c)^n`` for the leading
        coefficient p_n of num.  Neither vanishes.
        """
        det = a * d - b * c
        if det.is_zero:
            raise ValueError("singular coefficient matrix for a Moebius map")
        if not self.num.re:
            return self
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
                # the pole sits at the image of infinity; the factor is cc/B
                lc = cc
            else:
                root = -(cc / lc)
                poles[root] = poles.get(root, 0) + m
            for _ in range(m):
                scale = scale * lc
        # assemble: f(mu(z)) mu'^k = num * B^(dpow - npow - 2k) det^k
        #                             / (scale * prod(z-root)^m)
        for _ in range(k):
            scale = scale / det
        bexp = dpow - npow - 2 * k
        if bexp > 0:
            num = num * (B ** bexp)
        elif bexp < 0:
            # B^bexp is c^bexp (z + d/c)^bexp, or d^bexp when c is zero
            if not c.is_zero:
                root = -(d / c)
                poles[root] = poles.get(root, 0) - bexp
            lead = d if c.is_zero else c
            for _ in range(-bexp):
                scale = scale * lead
        return RationalFunction(num.scale(_ONE / scale), _sorted_poles(poles))

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


_RFZERO = RationalFunction(_PZERO, ())


def _sorted_poles(poles: dict):
    items = [(p, m) for p, m in poles.items() if m]
    items.sort(key=lambda pm: pm[0].order_key)
    return tuple(items)


def _in_order(orders: dict, pole_tuples):
    """The (pole, order) pairs of ``orders``, whose poles are those of the
    sorted ``pole_tuples``, in sorted order.  When one tuple holds every
    pole, its order is the sorted order and no comparison is made."""
    widest = max(pole_tuples, key=len)
    if len(widest) == len(orders):
        return tuple((p, orders[p]) for p, _m in widest)
    return _sorted_poles(orders)


def _merge_orders(pole_tuples):
    """The sorted (pole, top order) pairs over several pole tuples, and
    the set of poles whose top order two or more of the tuples reach."""
    top, reach = {}, {}
    for poles in pole_tuples:
        for p, m in poles:
            t = top.get(p, 0)
            if m > t:
                top[p] = m
                reach[p] = 1
            elif m == t:
                reach[p] += 1
    return (_in_order(top, pole_tuples),
            {p for p, n in reach.items() if n > 1})


def _strip(num: Polynomial, p: Scalar, m: int):
    """Divide num by (z - p) while it vanishes at p, at most m times;
    returns the quotient and the pole order left.  The remainder test is
    an integer Horner, and when it is zero the quotient is built from the
    same Horner sums."""
    r, i, q = p.r, p.i, p.q
    while m and num.degree > 0:
        xs, ys = num._sums(r, i, q)
        if xs[-1] or (ys is not None and ys[-1]):
            break
        num = _quotient(xs, ys, q, num.den)
        m -= 1
    return num, m


def _linear_power(p: Scalar, k: int) -> Polynomial:
    """(z - p)^k, from the powers kept in the pole's ``_pows`` slot."""
    try:
        pows = p._pows
    except AttributeError:
        r, i, q = p.r, p.i, p.q
        pows = p._pows = [_PONE, Polynomial((-r, q), (-i, 0) if i else None, q)]
    while len(pows) <= k:
        pows.append(pows[-1] * pows[1])
    return pows[k]


def _canonical(num: Polynomial, poles, tested=None) -> RationalFunction:
    """The canonical ``num / prod (z - p)^m`` over the sorted (pole, m)
    pairs, stripping num at the poles in ``tested`` (all when None)."""
    if not num.re:
        return _RFZERO
    out = []
    for p, m in poles:
        if tested is None or p in tested:
            num, m = _strip(num, p, m)
        if m:
            out.append((p, m))
    return RationalFunction(num, tuple(out))


def _lift(f: RationalFunction, poles):
    """The raw numerator ``(re, im, den)`` of f over ``prod (z - p)^m``,
    not normalized; every pole of f must be among the (pole, m) pairs,
    with an order no larger."""
    own = dict(f.poles)
    re, im, den = f.num.re, f.num.im, f.num.den
    for p, m in poles:
        e = m - own.pop(p, 0)
        if e < 0:
            raise ValueError(f"pole order at {p!r} exceeds the frame")
        if e and re:
            lp = _linear_power(p, e)
            re, im = _conv(re, im, lp.re, lp.im)
            den *= lp.den
    if own:
        raise ValueError("pole outside the frame")
    return re, im, den


def lift_numerator(f: RationalFunction, frame, k: int):
    """The normalized raw numerator ``(re, im, den)`` of f over ``L^k``,
    where the frame is the sorted (pole, order c_p) pairs of ``L = prod
    (z - p)^c_p``; every pole of f must lie in the frame with order at
    most k c_p.  A computation packs it with :func:`pack_numerator`, by
    default at :func:`packing_base` of its :func:`numerator_bits`."""
    num = _make(*_lift(f, [(p, k * c) for p, c in frame]))
    return num.re, num.im, num.den


def lower_numerator(raw, frame, k: int) -> RationalFunction:
    """``num / L^k`` in canonical form for the raw numerator ``(re, im,
    den)``: the inverse of :func:`lift_numerator`, by one normalization and
    a strip test at each pole of the frame.  A packed numerator is lowered
    through :func:`unpack_numerator`, which its bound below ``w - 1`` makes
    exact."""
    return _canonical(_make(*raw), [(p, k * c) for p, c in frame])


# the ladder of bases: a bound needs w >= bound + 2, and w is the least
# multiple of 2^max(_COARSE, bitlen(bound + 2) - _FINE) that holds it
_COARSE = 6
_FINE = 3


def packing_base(bound: int) -> int:
    """The base exponent ``w`` at which a packed value whose digits have
    fewer than ``bound`` bits is stored: the least rung of a ladder with
    ``bound < w - 1``.  The rungs are the multiples of 64 up to 512 and
    then four to the octave (640, 768, 896, 1024, 1280, ...): above 512
    bits a bound fills more than four fifths of its base, and below it a
    value changes base at most every 64 bits, since there a move between
    bases costs more than the padding it saves."""
    need = bound + 2
    step = 1 << max(_COARSE, need.bit_length() - _FINE)
    return -(-need // step) * step


# the packed zero: (pr, pi, den, bound, n, w); callers skip zeros before
# any product
_KZERO = (0, 0, 1, 0, 0, 1 << _COARSE)


# cached: for a small value, building its bias costs about as much as
# the pack, unpack or move that needs it
@functools.lru_cache(maxsize=256)
def _bias(nb, n, m):
    """``sum_k 2^(8 m - 1) 2^(8 nb k)`` over k < n: the half of an m-byte
    digit in each of n digits of nb bytes."""
    return int.from_bytes((b"\0" * (nb - m) + b"\x80" + b"\0" * (m - 1))
                          * n)


def numerator_bits(raw) -> int:
    """The bit length of the largest numerator of a raw ``(re, im, den)``."""
    re, im, _den = raw
    if not re:
        return 0
    top = max(map(abs, re))
    if im is not None:
        top = max(top, max(map(abs, im)))
    return top.bit_length()


def pack_numerator(raw, w: int | None = None):
    """The raw numerator ``(re, im, den)`` packed at the base ``2^w``:
    ``(pr, pi, den, bound, n, w)``, where ``pr = sum re[k] 2^(w k)`` and
    ``pi`` likewise (0 when every imaginary part is), ``n = len(re)`` and
    every numerator has fewer than ``bound`` bits, here exactly.  ``w``
    defaults to :func:`packing_base` of the bound; a given ``w`` must be a
    multiple of 8 with ``bound < w - 1``.

    Each digit is biased by ``2^(w-1)`` into ``[0, 2^w)`` and written with
    one ``to_bytes``, and the whole is read with one ``from_bytes`` and
    unbiased, so the cost is linear in the digits.  The bytes are
    big-endian, the default of both calls, which CPython parses faster
    than a keyword."""
    re, im, den = raw
    if not re:
        return _KZERO
    b = numerator_bits(raw)
    if w is None:
        w = packing_base(b)
    elif b >= w - 1:
        raise ValueError(f"a {b}-bit digit does not fit the base 2^{w}")
    n = len(re)
    nb = w >> 3
    h = 1 << (w - 1)
    bias = _bias(nb, n, nb)
    pr = int.from_bytes(b"".join([(c + h).to_bytes(nb)
                                  for c in reversed(re)])) - bias
    pi = 0 if im is None else int.from_bytes(
        b"".join([(c + h).to_bytes(nb) for c in reversed(im)])) - bias
    return pr, pi, den, b, n, w


def unpack_numerator(x):
    """The raw numerator ``(re, im, den)`` of the packed ``x`` (see
    :func:`pack_numerator`), with trailing zeros trimmed and ``im`` None
    when every imaginary part is zero.  The digits are read back from the
    bytes of the biased value, one ``from_bytes`` each."""
    pr, pi, den, _b, n, w = x
    if not pr and not pi:
        return (), None, 1
    nb = w >> 3
    h = 1 << (w - 1)
    bias = _bias(nb, n, nb)
    size = n * nb
    fb = int.from_bytes
    data = (pr + bias).to_bytes(size)
    re = [fb(data[k:k + nb]) - h for k in range(size - nb, -1, -nb)]
    im = None
    if pi:
        data = (pi + bias).to_bytes(size)
        im = [fb(data[k:k + nb]) - h for k in range(size - nb, -1, -nb)]
        if not re[n - 1] and not im[n - 1]:
            while not re[n - 1] and not im[n - 1]:
                n -= 1
            return re[:n], im[:n], den
    elif not re[n - 1]:
        while not re[n - 1]:
            n -= 1
        return re[:n], im, den
    return re, im, den


def rebase_numerator(x, w2: int):
    """The packed ``x`` moved to the base ``2^w2``, which must hold its
    bound (see ``_moved``)."""
    pr, pi, den, b, n, w = x
    if w2 == w:
        return x
    if b >= w2 - 1:
        raise ValueError(f"a {b}-bit digit does not fit the base 2^{w2}")
    return _moved(pr, n, w, w2), _moved(pi, n, w, w2), den, b, n, w2


def _moved(p, n, w, w2):
    """``p = sum c_k 2^(w k)`` of n digits as ``sum c_k 2^(w2 k)``, as
    bytes: with ``m`` the smaller of the two digit sizes in bytes, biasing
    each digit by ``2^(8 m - 1)`` puts it in ``[0, 2^(8 m))``, so its last
    m bytes are copied into a digit of the new size and unbiased there."""
    if not p:
        return 0
    nb, nb2 = w >> 3, w2 >> 3
    m = min(nb, nb2)
    size = n * nb
    data = (p + _bias(nb, n, m)).to_bytes(size)
    return int.from_bytes((b"\0" * (nb2 - m)).join(
        [data[k - m:k] for k in range(nb, size + 1, nb)])) - _bias(nb2, n, m)


def _kmul(x, y):
    """The packed product of two nonzero packed numerators: one integer
    product for real data, three for Gaussian data.  A coefficient of the
    product is a sum of at most ``t = min(n_x, n_y)`` products (twice as
    many for two Gaussian factors), so its bound is ``b_x + b_y +
    ceil(log2 t)``.  The product is taken at the wider of the operands'
    bases, or at :func:`packing_base` of its bound where that does not
    hold it, and an operand at another base is moved there first, so no
    digit ever wraps."""
    xr, xi, xd, xb, xn, xw = x
    yr, yi, yd, yb, yn, yw = y
    t = xn if xn < yn else yn
    if xi and yi:
        t += t
    b = xb + yb + (t - 1).bit_length()
    w = xw if xw > yw else yw
    if b >= w - 1:
        w = packing_base(b)
    if xw != w:
        xr, xi = rebase_numerator(x, w)[:2]
    if yw != w:
        yr, yi = rebase_numerator(y, w)[:2]
    if xi and yi:
        rr = xr * yr
        ii = xi * yi
        zr, zi = rr - ii, (xr + xi) * (yr + yi) - rr - ii
    else:
        zr = xr * yr
        zi = xr * yi if yi else xi * yr
    return zr, zi, xd * yd, b, xn + yn - 1, w


def _ksum(items, w=None):
    """The packed sum of ``s * x`` over the ``(Scalar s, packed x)``
    items, over the lcm of the ``s.q * den``; the packed counterpart of
    ``_combine``, with the same shortcut for a single item with a real
    scalar.  Item k scaled to that denominator is ``(a + c sqrt(-1)) x``,
    whose coefficients are below ``(|a| + |c|) 2^(b_x)``; the bound of the
    sum adds ``ceil(log2 items)`` to the largest of those.  The sum is
    taken at the base ``2^w``, by default the widest of the items' bases,
    with the narrower items moved there; where that does not hold its
    bound, the sum is taken again at :func:`packing_base` of the bound, so
    no digit ever wraps.  A zero sum is the packed zero."""
    if not items:
        return _KZERO
    if len(items) == 1 and w is None:
        s, x = items[0]
        r, q = s.r, s.q
        if not s.i:
            if r == q:
                return x
            b = x[3] + abs(r).bit_length()
            if b >= x[5] - 1:
                x = rebase_numerator(x, packing_base(b))
            return r * x[0], r * x[1], q * x[2], b, x[4], x[5]
    den = math.lcm(*[s.q * x[2] for s, x in items])
    if w is None:
        w = items[0][1][5]
    zr = zi = 0
    top = n = 0
    for s, x in items:
        pr, pi, d, b, m, xw = x
        if xw != w:
            if xw > w:
                return _ksum(items, max([x[5] for _s, x in items]))
            pr, pi = rebase_numerator(x, w)[:2]
        f = den // (s.q * d)
        a = s.r * f
        c = s.i * f
        if c:
            zr += a * pr - c * pi
            zi += a * pi + c * pr
            e = (abs(a) + abs(c)).bit_length() + b
        else:
            zr += a * pr
            zi += a * pi
            e = abs(a).bit_length() + b
        if e > top:
            top = e
        if m > n:
            n = m
    b = top + (len(items) - 1).bit_length()
    if b >= w - 1:
        # the digits may have wrapped: sum again at a base that holds them
        return _ksum(items, packing_base(b))
    if not zr and not zi:
        return _KZERO
    return zr, zi, den, b, n, w


def _kreduced(x):
    """The packed ``x`` divided by the gcd of its denominator and every
    numerator: the packed counterpart of ``_reduced``.  When the
    denominator is coprime to both packed ints, no common divisor exists
    and x is returned as it is, without reading its digits; else they are
    read, and the result carries their exact bit length as its bound and
    their exact length.  The packed ints are divided as they stand, since the gcd divides every
    digit."""
    pr, pi, den, _b, _n, w = x
    if math.gcd(den, pr, pi) == 1:
        # every common divisor of den and the digits divides den, pr, pi
        return x
    re, im, den = unpack_numerator(x)
    if im is None:
        g = math.gcd(den, *re)
        top = max(map(abs, re))
    else:
        g = math.gcd(den, *re, *im)
        top = max(max(map(abs, re)), max(map(abs, im)))
    if g > 1:
        pr //= g
        pi //= g
        den //= g
        top //= g
    return pr, pi, den, top.bit_length(), len(re), w


def _compose_num(p: Polynomial, A: Polynomial, B: Polynomial):
    """p((az+b)/(cz+d)) = (returned polynomial) / B^deg(p); returns (poly, deg)."""
    if p.is_zero:
        return Polynomial.zero(), 0
    n, cs = p.degree, p.coeffs
    # Horner in A/B: result = sum p_k A^k B^(n-k)
    acc = Polynomial.constant(cs[n])
    for k in range(n - 1, -1, -1):
        acc = acc * A + Polynomial.constant(cs[k]) * (B ** (n - k))
    return acc, n


def _peel(num: Polynomial, p: Scalar, m: int, rest: Polynomial):
    """Split num / ((z-p)^m rest), with rest(p) != 0, as the principal part
    at p plus N / rest; returns N and the (order k, coefficient of
    (z-p)^-k) pairs, orders descending, zero coefficients left out.

    Each step takes c = num(p) / rest(p), the top coefficient left, so that
    num - c rest vanishes at p and divides by (z - p) exactly.
    """
    inv = _ONE / rest.eval(p)
    terms = []
    for k in range(m, 0, -1):
        c = num.eval(p) * inv
        if not c.is_zero:
            num = num - rest.scale(c)
            terms.append((k, c))
        num = num.divide_linear(p)[0]
    return num, terms


def partial_fractions(f: RationalFunction):
    """Decompose f into (polynomial part, [(pole, order, coefficient), ...]).

    The poles are peeled in order, each over the product of the later
    ones, and what is left is the polynomial part.  Entries with zero
    coefficient are omitted; orders run from each pole's multiplicity down
    to 1.
    """
    rests = [_PONE]
    for p, m in reversed(f.poles[1:]):
        rests.append(rests[-1] * _linear_power(p, m))
    num, terms = f.num, []
    for (p, m), rest in zip(f.poles, reversed(rests)):
        num, part = _peel(num, p, m, rest)
        terms += [(p, k, c) for k, c in part]
    return num, terms


def recombine(poly_part: Polynomial, terms) -> RationalFunction:
    """Inverse of partial_fractions."""
    return RationalFunction.lincomb(
        [(_ONE, RationalFunction.from_poly(poly_part))]
        + [(c, RationalFunction(_PONE, ((p, k),))) for p, k, c in terms])
