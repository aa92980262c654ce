"""Scalars, polynomials and rational functions in one variable.

Scalars come in two backends that are never mixed:

* ``EXACT`` -- Gaussian rationals (a pair of rationals), used everywhere a
  result is claimed exactly.  Uses ``gmpy2.mpq`` when available, otherwise
  ``fractions.Fraction``.
* ``FLOAT`` -- complex double precision, used for contour geometry and
  quadrature.

Conversion is one-way, EXACT -> FLOAT, via :meth:`Scalar.to_float`.
Polynomial products and all rational-function arithmetic are EXACT; a FLOAT
scalar enters a rational function only as a constant, which quadrature reads
through ``eval_complex``.

Every denominator this package builds splits over a known pole set: the
marked points, the Bethe roots and their Moebius images.  A
:class:`RationalFunction` is therefore stored as ``num / prod (z-p)^m`` over a
sorted list of distinct poles, reduced (``num`` vanishes at none of them) and
with a monic denominator.  Sums and products reduce by synthetic division at
the known poles; no operation divides one rational function by another.
Since the stored form is canonical, equality and hashing compare it directly
and pole orders are lookups.
"""

from __future__ import annotations

from fractions import Fraction

try:  # optional fast rational backend
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _Q = Fraction

EXACT = "exact"
FLOAT = "float"

_RZERO = _Q(0)
_RONE = _Q(1)


class BackendMismatch(TypeError):
    """Raised when EXACT and FLOAT operands meet in one operation."""


def _rat(x) -> _Q:
    """Coerce an int, rational or string ("p/q" or decimal) to a rational."""
    if isinstance(x, int):
        return _Q(x)
    if isinstance(x, str):
        s = x.strip()
        if "/" in s:
            n, d = s.split("/")
            return _Q(Fraction(n) / Fraction(d))
        return _Q(Fraction(s))
    if isinstance(x, Fraction):
        return _Q(x)
    if isinstance(x, type(_RZERO)):
        return x
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Scalar:
    """A number in one of the two backends.

    EXACT scalars hold a pair of rationals (re, im); FLOAT scalars hold a
    pair of Python floats.  Equality is exact in both backends.
    """

    __slots__ = ("backend", "re", "im")

    def __init__(self, backend, re, im):
        self.backend = backend
        self.re = re
        self.im = im

    # -- constructors ---------------------------------------------------

    @staticmethod
    def exact(re, im=0) -> "Scalar":
        return Scalar(EXACT, _rat(re), _rat(im))

    @staticmethod
    def of_float(re, im=0.0) -> "Scalar":
        return Scalar(FLOAT, float(re), float(im))

    @staticmethod
    def from_complex(z) -> "Scalar":
        z = complex(z)
        return Scalar(FLOAT, z.real, z.imag)

    @staticmethod
    def zero(backend) -> "Scalar":
        return _ZERO[backend]

    @staticmethod
    def one(backend) -> "Scalar":
        return _ONE[backend]

    @staticmethod
    def parse(obj, backend=EXACT) -> "Scalar":
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
        if backend == EXACT:
            return Scalar.exact(_parse_real(re), _parse_real(im))
        return Scalar.of_float(float(_parse_float(re)), float(_parse_float(im)))

    def to_json(self):
        if self.backend == EXACT:
            if self.im == 0:
                return str(self.re)
            return [str(self.re), str(self.im)]
        if self.im == 0.0:
            return repr(self.re)
        return [repr(self.re), repr(self.im)]

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def as_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_float(self) -> "Scalar":
        if self.backend == FLOAT:
            return self
        return Scalar(FLOAT, float(self.re), float(self.im))

    # -- arithmetic -------------------------------------------------------

    def _check(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.backend != self.backend:
            raise BackendMismatch(
                f"cannot combine {self.backend} and {other.backend} scalars"
            )
        return other

    def __add__(self, other):
        other = self._check(other)
        if self.backend == EXACT and not self.im and not other.im:
            return Scalar(EXACT, self.re + other.re, _RZERO)
        return Scalar(self.backend, self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = self._check(other)
        if self.backend == EXACT and not self.im and not other.im:
            return Scalar(EXACT, self.re - other.re, _RZERO)
        return Scalar(self.backend, self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Scalar(self.backend, -self.re, -self.im)

    def __mul__(self, other):
        other = self._check(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if self.backend == EXACT and not b and not d:
            # real operands: the imaginary products are all exact zeros
            return Scalar(EXACT, a * c, _RZERO)
        return Scalar(self.backend, a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        other = self._check(other)
        c, d = other.re, other.im
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("scalar division by zero")
        a, b = self.re, self.im
        return Scalar(self.backend, (a * c + b * d) / n, (b * c - a * d) / n)

    def conjugate(self) -> "Scalar":
        return Scalar(self.backend, self.re, -self.im)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.backend == other.backend
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.backend, self.re, self.im))

    def __repr__(self):
        if self.backend == EXACT:
            if self.im == 0:
                return f"Scalar({self.re})"
            return f"Scalar({self.re}, {self.im}i)"
        return f"Scalar({self.as_complex()!r})"


def _parse_real(x):
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        return x
    if isinstance(x, float):
        raise ValueError(
            f"refusing to read float {x!r} into the EXACT backend; "
            "pass a 'p/q' or decimal string"
        )
    raise ValueError(f"cannot parse {x!r} as an exact real part")


def _parse_float(x):
    if isinstance(x, str):
        s = x.strip()
        if "/" in s:
            n, d = s.split("/")
            return float(Fraction(n) / Fraction(d))
        return float(s)
    return float(x)


_ZERO = {EXACT: Scalar(EXACT, _RZERO, _RZERO), FLOAT: Scalar(FLOAT, 0.0, 0.0)}
_ONE = {EXACT: Scalar(EXACT, _RONE, _RZERO), FLOAT: Scalar(FLOAT, 1.0, 0.0)}


class Polynomial:
    """Dense polynomial with ascending coefficients.

    Coefficients are a tuple of Scalars with no trailing zeros; the zero
    polynomial is the empty tuple and reports degree -1 (sentinel).
    """

    __slots__ = ("backend", "coeffs")

    def __init__(self, backend, coeffs):
        self.backend = backend
        self.coeffs = coeffs

    @staticmethod
    def of(coeffs, backend=None) -> "Polynomial":
        coeffs = list(coeffs)
        if backend is None:
            if not coeffs:
                raise ValueError("cannot infer backend of an empty coefficient list")
            backend = coeffs[0].backend
        for c in coeffs:
            if c.backend != backend:
                raise BackendMismatch("mixed backends in coefficient list")
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        return Polynomial(backend, tuple(coeffs))

    @staticmethod
    def zero(backend) -> "Polynomial":
        return Polynomial(backend, ())

    @staticmethod
    def one(backend) -> "Polynomial":
        return Polynomial(backend, (Scalar.one(backend),))

    @staticmethod
    def constant(s: Scalar) -> "Polynomial":
        if s.is_zero:
            return Polynomial(s.backend, ())
        return Polynomial(s.backend, (s,))

    @staticmethod
    def variable(backend) -> "Polynomial":
        return Polynomial(backend, (Scalar.zero(backend), Scalar.one(backend)))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if other.backend != self.backend:
            raise BackendMismatch("mixed backends in polynomial arithmetic")
        return other

    def __add__(self, other):
        other = self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        while out and out[-1].is_zero:
            out.pop()
        return Polynomial(self.backend, tuple(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.backend, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        a, b = self.coeffs, other.coeffs
        if self.backend != EXACT:
            raise TypeError("polynomial products are EXACT-only")
        if not a or not b:
            return Polynomial(EXACT, ())
        # unpacked rational loop: avoids building intermediate Scalars
        ar = [c.re for c in a]
        ai = [c.im for c in a]
        br = [c.re for c in b]
        bi = [c.im for c in b]
        n, m = len(a), len(b)
        outr = [_RZERO] * (n + m - 1)
        outi = [_RZERO] * (n + m - 1)
        if not any(ai) and not any(bi):
            # real operands: the imaginary products are all exact zeros
            for i in range(n):
                x = ar[i]
                if x:
                    for j in range(m):
                        outr[i + j] += x * br[j]
        else:
            for i in range(n):
                x, y = ar[i], ai[i]
                if x == 0 and y == 0:
                    continue
                for j in range(m):
                    u, v = br[j], bi[j]
                    k = i + j
                    outr[k] += x * u - y * v
                    outi[k] += x * v + y * u
        out = [Scalar(EXACT, r, s) for r, s in zip(outr, outi)]
        while out and out[-1].is_zero:
            out.pop()
        return Polynomial(self.backend, tuple(out))

    def scale(self, s: Scalar) -> "Polynomial":
        if s.is_zero:
            return Polynomial(self.backend, ())
        out = tuple(c * s for c in self.coeffs)
        return Polynomial(self.backend, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.backend)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dlead = other.leading()
        dd = other.degree
        q = [Scalar.zero(self.backend)] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c.is_zero:
                continue
            f = c / dlead
            q[i - dd] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dd + j] = rem[i - dd + j] - f * oc
        while rem and rem[-1].is_zero:
            rem.pop()
        return (
            Polynomial.of(q, self.backend) if q else Polynomial.zero(self.backend),
            Polynomial(self.backend, tuple(rem)),
        )

    def derivative(self) -> "Polynomial":
        if len(self.coeffs) <= 1:
            return Polynomial.zero(self.backend)
        out = [
            Scalar(self.backend, c.re * k, c.im * k)
            for k, c in enumerate(self.coeffs)
        ][1:]
        return Polynomial.of(out, self.backend)

    def eval(self, s: Scalar) -> Scalar:
        if s.backend != self.backend:
            raise BackendMismatch("evaluation point backend mismatch")
        acc = Scalar.zero(self.backend)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def shift(self, a: Scalar) -> "Polynomial":
        """Taylor shift: returns q with q(z) = p(z + a).

        The coefficients of q are the Taylor coefficients of p at a: the
        remainders p(a), p'(a)/1!, ... of repeated synthetic division by
        (z - a).
        """
        if a.backend != self.backend:
            raise BackendMismatch("shift point backend mismatch")
        if self.is_zero:
            return self
        work = list(self.coeffs)
        out = []
        while work:
            acc = work[-1]
            quot = []
            for i in range(len(work) - 2, -1, -1):
                quot.append(acc)
                acc = work[i] + acc * a
            out.append(acc)  # remainder = value at a
            quot.reverse()
            work = quot
        return Polynomial.of(out, self.backend)

    def divide_linear(self, a: Scalar):
        """Synthetic division by (z - a): returns (quotient, remainder scalar)."""
        if self.is_zero:
            return self, Scalar.zero(self.backend)
        out = [Scalar.zero(self.backend)] * self.degree
        acc = self.coeffs[-1]
        for i in range(self.degree - 1, -1, -1):
            out[i] = acc
            acc = self.coeffs[i] + acc * a
        quot = Polynomial.of(out, self.backend) if out else Polynomial.zero(self.backend)
        return quot, acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.backend == other.backend and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.backend, self.coeffs))

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if self.backend == EXACT and c.im == 0:
                cs = str(c.re)
            else:
                cs = f"({c.re}+{c.im}i)" if c.im else str(c.re)
            terms.append(cs if k == 0 else (f"{cs}*z^{k}" if k > 1 else f"{cs}*z"))
        return "Polynomial(" + " + ".join(terms) + ")"


def _series_inv(coeffs, order, backend):
    """Inverse of a power series (c0 != 0) to the given order."""
    c0 = coeffs[0]
    if c0.is_zero:
        raise ZeroDivisionError("series inversion needs a unit constant term")
    inv0 = Scalar.one(backend) / c0
    out = [inv0]
    for n in range(1, order):
        acc = Scalar.zero(backend)
        for k in range(1, min(n, len(coeffs) - 1) + 1):
            acc = acc + coeffs[k] * out[n - k]
        out.append(-inv0 * acc)
    return out


def _series_mul(a, b, order, backend):
    out = [Scalar.zero(backend)] * order
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
    Construction and arithmetic keep that form; FLOAT values occur only as
    constants.

    ``eval_complex`` converts the numerator coefficients (highest first) and
    the poles to ``complex`` on its first call and keeps them in the
    ``_complex`` slot, which construction leaves unset: quadrature evaluates
    one function at thousands of nodes, while the exact layers build many
    functions and evaluate none.  A value never changes after construction,
    so the cache cannot go stale.
    """

    __slots__ = ("backend", "num", "poles", "_complex")

    def __init__(self, backend, num, poles):
        self.backend = backend
        self.num = num
        self.poles = poles  # tuple of (Scalar, multiplicity), canonically sorted

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_split(num: Polynomial, poles) -> "RationalFunction":
        """Build num / prod (z-p)^m from {pole: multiplicity} or (pole, m)
        pairs, cancelling the roots of num at the poles."""
        backend = num.backend
        items = {p: int(m) for p, m in dict(poles).items() if m}
        for p, m in items.items():
            if p.backend != backend:
                raise BackendMismatch("pole backend mismatch")
            if m < 0:
                raise ValueError("negative pole multiplicity")
        return RationalFunction(backend, num, _sorted_poles(items))._reduced()

    @staticmethod
    def from_poly(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p.backend, p, ())

    @staticmethod
    def from_scalar(s: Scalar) -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.constant(s))

    @staticmethod
    def zero(backend) -> "RationalFunction":
        return RationalFunction(backend, Polynomial.zero(backend), ())

    @staticmethod
    def one(backend) -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.one(backend))

    @staticmethod
    def variable(backend) -> "RationalFunction":
        return RationalFunction.from_poly(Polynomial.variable(backend))

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
        return _linear_product(self.backend, dict(self.poles))

    def _reduced(self) -> "RationalFunction":
        """Cancel numerator roots sitting at known poles."""
        if self.num.is_zero:
            return RationalFunction.zero(self.backend)
        num = self.num
        newpoles = []
        for p, m in self.poles:
            while m > 0:
                q, r = num.divide_linear(p)
                if r.is_zero:
                    num, m = q, m - 1
                else:
                    break
            if m:
                newpoles.append((p, m))
        return RationalFunction(self.backend, num, tuple(newpoles))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            if other.backend != self.backend:
                raise BackendMismatch("mixed backends in rational arithmetic")
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_poly(other)
        if isinstance(other, Scalar):
            return RationalFunction.from_scalar(other)
        raise TypeError(f"cannot combine RationalFunction with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        apoles, bpoles = dict(self.poles), dict(other.poles)
        allpoles = {
            p: max(apoles.get(p, 0), bpoles.get(p, 0))
            for p in {*apoles, *bpoles}
        }
        na = self.num * _linear_product(
            self.backend, {p: allpoles[p] - apoles.get(p, 0) for p in allpoles}
        )
        nb = other.num * _linear_product(
            self.backend, {p: allpoles[p] - bpoles.get(p, 0) for p in allpoles}
        )
        return RationalFunction(
            self.backend, na + nb, _sorted_poles(allpoles)
        )._reduced()

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return RationalFunction(self.backend, -self.num, self.poles)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return RationalFunction.zero(self.backend)
        poles = dict(self.poles)
        for p, m in other.poles:
            poles[p] = poles.get(p, 0) + m
        return RationalFunction(
            self.backend, self.num * other.num, _sorted_poles(poles)
        )._reduced()

    def scale(self, s: Scalar) -> "RationalFunction":
        if s.is_zero:
            return RationalFunction.zero(self.backend)
        return RationalFunction(self.backend, self.num.scale(s), self.poles)

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
        L = _linear_product(self.backend, {p: 1 for p, _m in self.poles})
        S = Polynomial.zero(self.backend)
        for p, m in self.poles:
            S = S + L.divide_linear(p)[0].scale(Scalar.exact(m))
        num = self.num.derivative() * L - self.num * S
        return RationalFunction(
            self.backend, num, tuple((p, m + 1) for p, m in self.poles)
        )

    # -- evaluation ---------------------------------------------------------

    def eval(self, s: Scalar) -> Scalar:
        num = self.num.eval(s)
        den = Scalar.one(self.backend)
        for p, m in self.poles:
            d = s - p
            if d.is_zero:
                raise ZeroDivisionError(f"evaluation at a pole {s!r}")
            for _ in range(m):
                den = den * d
        return num / den

    def eval_complex(self, z: complex) -> complex:
        try:
            coeffs, poles = self._complex
        except AttributeError:
            coeffs = tuple(complex(c.re, c.im)
                           for c in reversed(self.num.coeffs))
            poles = tuple((complex(p.re, p.im), m) for p, m in self.poles)
            self._complex = coeffs, poles
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
        denpoly = Polynomial.one(self.backend)
        for p, mp in self.poles:
            if p == a:
                continue
            lin = Polynomial.of([a - p, Scalar.one(self.backend)], self.backend)
            for _ in range(mp):
                denpoly = denpoly * lin
        numser += [Scalar.zero(self.backend)] * max(0, order - len(numser))
        g = _series_mul(
            numser, _series_inv(list(denpoly.coeffs), order, self.backend),
            order, self.backend,
        )
        # g[j] is the coefficient of (z-a)^(j-m)
        return [(m - j, c) for j, c in enumerate(g) if not c.is_zero]

    def residue_at(self, a: Scalar) -> Scalar:
        for k, c in self.laurent_at(a):
            if k == 1:
                return c
        return Scalar.zero(self.backend)

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
        backend = self.backend
        one = Scalar.one(backend)
        A = Polynomial.of([b, a], backend)  # a z + b
        B = Polynomial.of([d, c], backend)  # c z + d
        # numerator through the map
        num, npow = _compose_num(self.num, A, B)
        # denominator factors (z0 - p) -> ((a - p c) z + (b - p d)) / B
        poles = {}
        scale = one
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
        invscale = one / scale
        num = num.scale(invscale)
        bexp = dpow - npow
        if bexp > 0:
            num = num * (B ** bexp)
        elif bexp < 0:
            if c.is_zero:
                # B is the constant d: fold its powers into the scale
                sc = one
                for _ in range(-bexp):
                    sc = sc * (one / d)
                num = num.scale(sc)
            else:
                root = -(d / c)
                poles[root] = poles.get(root, 0) + (-bexp)
                sc = one
                for _ in range(-bexp):
                    sc = sc * (one / c)
                num = num.scale(sc)
        return RationalFunction(backend, num, _sorted_poles(poles))

    # -- comparison / io -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.backend == other.backend and self.num == other.num
                and self.poles == other.poles)

    def __hash__(self):
        return hash((self.backend, self.num, self.poles))

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den_poly().to_json()}

    def __repr__(self):
        ps = ", ".join(f"{p!r}^{m}" for p, m in self.poles)
        return f"RF({self.num!r} / [{ps}])"


def _sorted_poles(poles: dict):
    items = [(p, m) for p, m in poles.items() if m]
    items.sort(key=lambda pm: (pm[0].re, pm[0].im))
    return tuple(items)


def _linear_product(backend, mults: dict) -> Polynomial:
    out = Polynomial.one(backend)
    one = Scalar.one(backend)
    for p, m in mults.items():
        if m <= 0:
            continue
        lin = Polynomial.of([-p, one], backend)
        for _ in range(m):
            out = out * lin
    return out


def _compose_num(p: Polynomial, A: Polynomial, B: Polynomial):
    """p((az+b)/(cz+d)) = (returned polynomial) / B^deg(p); returns (poly, deg)."""
    if p.is_zero:
        return Polynomial.zero(p.backend), 0
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
    """Inverse of partial_fractions, for checking decompositions."""
    out = RationalFunction.from_poly(poly_part)
    for p, k, c in terms:
        out = out + RationalFunction.from_split(Polynomial.constant(c), {p: k})
    return out
