"""Exact coefficient arithmetic.

Four layers, each one a field:

  * plain rationals (``fractions.Fraction``),
  * cyclotomic numbers ``CycloNum`` -- elements of Q(zeta_N) in the power
    basis modulo the N-th cyclotomic polynomial,
  * ``UniRatFunc`` -- rational functions in one variable u over Q(zeta_N),
  * ``BiRatFunc`` -- rational functions in (q, t) over Q, the fraction
    field Frac(Z[q, t]) of the ring ``QTPoly``.

``UniRatFunc`` and ``BiRatFunc`` share one core, ``_RatFunc``: it keeps
num/den coprime with the denominator normalized by the ring's unit
(leading coefficient 1 over the field Q(zeta_N), positive graded-lex
leading coefficient over Z) and implements +, -, *, inverse, == and hash
once, against four methods that ``UniPoly`` and ``QTPoly`` both provide:
``is_one``, ``unit_inverse``, ``scale`` and ``gcd`` (returning
(g, a/g, b/g), g normalized so a trivial gcd is_one).  Products after the
cross-cancel and inverses are coprime by construction and skip the gcd.
``CycloNum`` and ``_RatFunc`` take right subtraction, division and powers
from ``_Field``, and every power is one square-and-multiply, ``_power``.

Exact scalars take ints and Fractions only: ``_exact`` turns an integral
Fraction into an int and raises TypeError on a float (or any other type),
so no binary expansion enters a value.  ``QTPoly`` is Z[q, t]: its
coefficients are Python ints, and its constructors refuse a rational that
is not an integer (ValueError, ``_integer``), so every rational in (q, t)
is a ``BiRatFunc`` num/den.  Over Q (phi(N) = 1) ``UniPoly`` (dense) and
``LaurentPoly`` (sparse, exponents of either sign) store ints over one
positive denominator coprime to their content, and all their arithmetic
runs on plain ints; ``LaurentPoly.d`` still shows Fractions.  A division
that leaves a remainder raises ExactDivisionError.  The four sparse dict
types (QTPoly, LaurentPoly, and symfunc's SymPoly and MonomialExpansion)
share one sum, ``_sparse_add``, and one product, ``_sparse_mul``; the
tuple-keyed ones add exponent keys by ``_add_vectors``.

A sum of products of integer polynomials -- each target of
``apply_rows`` over LaurentPolys of ints, and ``_qt_fold`` for the
numerators of compute_P and the integral form -- is one packed integer
(Kronecker substitution): each polynomial is evaluated at a power of two
wide enough for a proven bound on the result, the products and sums run
on Python ints, and the result is read back once.

Every gcd is one design and returns its cofactors, the quotients of the
exact division that certifies it.  Where the coefficients are integers
the heuristic gcd of Char, Geddes and Gonnet runs first (``_heu_gcd`` on
the whole (Z[t])[q] rows of ``qt_gcd``, ``_heu_gcd_univariate`` for
``UniPoly`` over Q); the one fallback is the primitive PRS ``_prs``, with
a primitive step per lane: the integer content in Z[u], the leading entry
over Q(zeta_N) (Euclid with monic remainders), the monic gcd of the
entries in (Q[t])[q].

On top of these sits ``ParameterSpec``, the resonant specialization
t = u^((r-1)/m), q = omega1 * u^(-(k+1)/m) with m = gcd(k+1, r-1), and
the one place that knows it: its table of omega1^a, in the coefficients'
own ring (ints when phi(N) = 1), gives q^a t^b (``qt_laurent``) and the
image of a QTPoly (``specialize_poly``).  ``specialize`` is the one reader
into K = Q(zeta_N)(u): a QTPoly goes straight to a canonical UniRatFunc,
a BiRatFunc as num over den.  ``is_resonant`` decides which exponent pairs
(a, b) satisfy q^a t^b = 1.

All values are immutable and all operations are pure functions, so
everything here is safe to share between threads.
"""

import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from numbers import Rational
from operator import add

__all__ = [
    "CycloNum", "UniPoly", "UniRatFunc", "LaurentPoly", "QTPoly", "BiRatFunc",
    "ParameterSpec", "MixedFieldError", "PoleError", "ExactDivisionError",
    "cyclotomic_polynomial",
    "qt_gcd", "qt_divexact", "render_scalar", "apply_rows",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MixedFieldError(TypeError):
    """Raised when two operands live in different concrete fields."""


class PoleError(ZeroDivisionError):
    """Raised when a denominator vanishes identically under specialization."""


class ExactDivisionError(ArithmeticError):
    """An exact division left a remainder: an implementation bug."""


def _exact(v):
    """An exact rational in its stored form: an int, or a Fraction only
    when it is not integral.  Floats and every other type raise TypeError,
    so no binary expansion ever enters an exact scalar."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError("exact scalars take an int or a Fraction, not %s"
                    % type(v).__name__)


def _integer(v):
    """v as an int, for a coefficient in Z: ValueError when v is a rational
    that is not an integer, and TypeError as from _exact."""
    v = _exact(v)
    if type(v) is not int:
        raise ValueError("%s is not an integer" % v)
    return v


def _power(x, e, one):
    """x^e for an integer e >= 0 by square-and-multiply; one is x^0."""
    if e < 0:
        raise ValueError("negative exponent %d for a polynomial" % e)
    result = None
    while e:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if e:
            x = x * x
    return one if result is None else result


class _Field:
    """Subtraction from the right, division and integer powers, written
    against the field's own +, -, *, inverse and _coerce (which maps an
    int or Fraction into the field, and other values to None)."""

    __slots__ = ()

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e):
        base = self.inverse() if e < 0 else self
        return _power(base, abs(e), self._coerce(1))


_CYCLO_CACHE = {}


def cyclotomic_polynomial(n):
    """Coefficients (ascending, ints) of the n-th cyclotomic polynomial.

    Computed by exact integer division of x^n - 1 by the lower-order
    cyclotomic factors.
    """
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    if n == 1:
        poly = (-1, 1)
    else:
        poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
        for d in range(1, n):
            if n % d == 0:
                poly = _iz_divexact(poly, cyclotomic_polynomial(d))
        poly = tuple(poly)
    _CYCLO_CACHE[n] = poly
    return poly


class _CycloField:
    """Per-order tables: phi(N) and ``powers``, the power-basis rows of
    zeta^e for 0 <= e < max(N, 2 phi - 1): every power up to N-1, and the
    rows up to 2 phi - 2 that reduce any product."""

    def __init__(self, N):
        self.N = N
        poly = cyclotomic_polynomial(N)
        self.phi = phi = len(poly) - 1
        # each row is zeta times the one before, reduced by
        # zeta^phi = -(a_0 + a_1 zeta + ... + a_{phi-1} zeta^{phi-1})
        base = tuple(Fraction(-c) for c in poly[:phi])
        row = (_ONE,) + (_ZERO,) * (phi - 1)
        rows = [row]
        for _ in range(1, max(N, 2 * phi - 1)):
            top = row[-1]
            row = (_ZERO,) + row[:-1]
            if top:
                row = tuple(s + top * b for s, b in zip(row, base))
            rows.append(row)
        self.powers = rows

    _cache = {}

    @classmethod
    def get(cls, N):
        fld = cls._cache.get(N)
        if fld is None:
            fld = cls._cache[N] = cls(N)
        return fld


class CycloNum(_Field):
    """An element of Q(zeta_N), stored in the power basis mod Phi_N."""

    __slots__ = ("N", "c")

    def __init__(self, N, coeffs):
        fld = _CycloField.get(N)
        coeffs = tuple(coeffs)
        if len(coeffs) != fld.phi:
            raise ValueError("need exactly phi(N)=%d coefficients" % fld.phi)
        self.N = N
        self.c = coeffs

    @classmethod
    def from_rational(cls, N, value):
        fld = _CycloField.get(N)
        if type(value) is not Fraction:
            value = Fraction(_exact(value))
        return cls(N, [value] + [_ZERO] * (fld.phi - 1))

    @classmethod
    def zero(cls, N):
        return cls.from_rational(N, 0)

    @classmethod
    def one(cls, N):
        return cls.from_rational(N, 1)

    @classmethod
    def zeta(cls, N, power=1):
        """zeta_N^power as a field element."""
        return cls(N, _CycloField.get(N).powers[power % N])

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.N != self.N:
                raise MixedFieldError(
                    "cyclotomic orders differ: %d vs %d" % (self.N, other.N))
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(self.N, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.N, tuple(a + b for a, b in zip(self.c, o.c)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.N, tuple(a - b for a, b in zip(self.c, o.c)))

    def __neg__(self):
        return CycloNum(self.N, tuple(-a for a in self.c))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        phi = len(a)
        if phi == 1:
            return CycloNum(self.N, (a[0] * b[0],))
        prod = [_ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        rows = _CycloField.get(self.N).powers
        out = prod[:phi]
        for j in range(phi, 2 * phi - 1):
            cj = prod[j]
            if cj:
                row = rows[j]
                for i in range(phi):
                    if row[i]:
                        out[i] += cj * row[i]
        return CycloNum(self.N, out)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = len(self.c)
        if phi == 1:
            return CycloNum(self.N, (1 / self.c[0],))
        # x^-1 = y / (x y): y is the product of the other Galois conjugates
        # zeta -> zeta^j of x, so x y is the norm of x, a rational
        N, rows = self.N, _CycloField.get(self.N).powers
        y = None
        for j in range(2, N):
            if gcd(j, N) == 1:
                conj = [_ZERO] * phi
                for i, c in enumerate(self.c):
                    if c:
                        for m, v in enumerate(rows[i * j % N]):
                            if v:
                                conj[m] += c * v
                conj = CycloNum(N, conj)
                y = conj if y is None else y * conj
        norm = self * y
        if not norm.is_rational():
            raise ExactDivisionError("norm of %r is not rational" % (self,))
        return CycloNum(N, [v / norm.c[0] for v in y.c])

    def is_zero(self):
        return not any(self.c)

    def __bool__(self):
        return any(self.c)

    def is_rational(self):
        return not any(self.c[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("%r is not rational" % (self,))
        return self.c[0]

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.c == o.c

    def __hash__(self):
        # a rational one hashes like the Fraction (or int) it equals
        if self.is_rational():
            return hash(self.c[0])
        return hash((self.N, self.c))

    def __repr__(self):
        return "CycloNum(%d, %s)" % (self.N, render_scalar(self))


class UniPoly:
    """Polynomial in u over Q(zeta_N), stored as c / den: c ascending with
    trailing zeros trimmed.  Over Q (phi(N) = 1, N <= 2) c holds Python ints
    and den is a positive int coprime to their content, a canonical Z[u]
    form that all arithmetic works on; otherwise c holds CycloNums and den
    is 1.  ``coeffs`` gives Fractions over Q, CycloNums otherwise.
    """

    __slots__ = ("N", "c", "den")

    def __init__(self, N, coeffs):
        """coeffs: CycloNums or rationals, ascending; converted once."""
        den = 1
        if N <= 2:
            fr = [c.c[0] if isinstance(c, CycloNum) else _exact(c)
                  for c in coeffs]
            den = lcm(*[v.denominator for v in fr])
            c = [v.numerator * (den // v.denominator) for v in fr]
        else:
            c = [x if isinstance(x, CycloNum) else CycloNum.from_rational(N, x)
                 for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.N, self.c, self.den = N, tuple(c), den

    @classmethod
    def const(cls, N, value):
        return cls(N, [value])

    @classmethod
    def zero(cls, N):
        return _unipoly(N, (), 1)

    @classmethod
    def one(cls, N):
        return cls.const(N, 1)

    @classmethod
    def u_power(cls, N, e):
        return cls.one(N).shift(e)

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def degree(self):
        return len(self.c) - 1  # -1 for the zero polynomial

    def coeffs(self):
        """The coefficients, ascending: Fractions over Q, else CycloNums."""
        if self.N <= 2:
            return tuple(Fraction(x, self.den) for x in self.c)
        return self.c

    def is_one(self):
        if len(self.c) != 1 or self.den != 1:
            return False
        c = self.c[0]
        return c == 1 if type(c) is int else c.c[0] == 1 and not any(c.c[1:])

    def leading(self):
        """The leading coefficient: a Fraction over Q, else a CycloNum."""
        return Fraction(self.c[-1], self.den) if self.N <= 2 else self.c[-1]

    def unit_inverse(self):
        """1/lc, the unit that makes a nonzero polynomial monic."""
        lc = self.leading()
        return lc if lc == 1 else 1 / lc

    def trailing_order(self):
        """Multiplicity of the root u = 0."""
        for i, ci in enumerate(self.c):
            if ci:
                return i
        return None

    def __add__(self, other):
        if self.N != other.N:
            raise MixedFieldError("mixed cyclotomic orders")
        a, b, den = self.c, other.c, self.den
        if not b:
            return self
        if not a:
            return other
        if den != other.den:
            den = lcm(den, other.den)
            a = [x * (den // self.den) for x in a]
            b = [x * (den // other.den) for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = out[i] + x
        return _zpoly(self.N, out, den) if self.N <= 2 else UniPoly(self.N, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _unipoly(self.N, tuple(-x for x in self.c), self.den)

    def __mul__(self, other):
        if self.N != other.N:
            raise MixedFieldError("mixed cyclotomic orders")
        if not self.c or not other.c:
            return UniPoly.zero(self.N)
        out = _iz_mul(self.c, other.c)  # ring-generic: CycloNums too
        if self.N <= 2:
            return _zpoly(self.N, out, self.den * other.den)
        return UniPoly(self.N, out)

    def scale(self, s):
        """Multiply by a rational, or by a CycloNum of the same field."""
        if self.N > 2:
            return UniPoly(self.N, [a * s for a in self.c])
        s = s.c[0] if isinstance(s, CycloNum) else _exact(s)
        n, d = s.as_integer_ratio()
        return _zpoly(self.N, [x * n for x in self.c], self.den * d)

    def shift(self, e):
        """Multiply by u^e."""
        if not self.c or e == 0:
            return self
        zero = 0 if self.N <= 2 else CycloNum.zero(self.N)
        return _unipoly(self.N, (zero,) * e + self.c, self.den)

    def divexact(self, other):
        """self / other; ExactDivisionError if the division leaves a remainder.

        Over Q the divisor is made primitive: by Gauss's lemma an exact
        quotient of an integer polynomial by a primitive one lies in Z[u],
        so the Z[u] long division raises on any remainder."""
        if self.N != other.N:
            raise MixedFieldError("mixed cyclotomic orders")
        if not other.c:
            raise ZeroDivisionError("polynomial division by zero")
        if self.N <= 2:
            cb = _iz_content(other.c)
            quot = _iz_divexact(self.c, [x // cb for x in other.c])
            return _zpoly(self.N, [x * other.den for x in quot], self.den * cb)
        num, b, db = list(self.c), other.c, other.degree()
        inv = b[-1].inverse()
        quot = [0] * max(len(num) - db, 0)
        for i in range(len(num) - 1, db - 1, -1):
            if num[i]:
                q = quot[i - db] = num[i] * inv
                for j in range(db + 1):
                    num[i - db + j] -= q * b[j]
        if any(num):
            raise ExactDivisionError("inexact univariate division")
        return UniPoly(self.N, quot)

    def monic(self):
        if not self.c or self.leading() == 1:
            return self
        return self.scale(1 / self.leading())

    def gcd(self, other):
        """(h, self/h, other/h), h the monic gcd and gcd(0, b) = (b.monic(),
        0, lc(b)); a shared power of u is split off first.  Over Q the
        cofactors are those of the certifying division of the heuristic
        ``_heu_gcd_univariate`` on the Z[u] forms; otherwise, and over
        Q(zeta_N), each input is divided once by the primitive PRS ``_prs``."""
        N = self.N
        if N != other.N:
            raise MixedFieldError("mixed cyclotomic orders")
        if not self.c or not other.c:
            x = self or other
            h, unit = x.monic(), UniPoly.const(N, x.leading()) if x else x
            return (h, self, unit) if not self.c else (h, unit, other)
        shared = min(self.trailing_order(), other.trailing_order())
        a, b = [_unipoly(N, x.c[shared:], x.den) for x in (self, other)]
        got = None
        if len(a.c) > 1 < len(b.c):
            got = _heu_gcd_univariate(a.c, b.c) if N <= 2 else None
            if got is None:
                h = _unipoly(N, tuple(_prs(a.c, b.c, _iz_primitive if N <= 2
                                           else _monic_row)), 1).monic()
                return h.shift(shared), a.divexact(h), b.divexact(h)
        if got is None or len(got[0]) == 1:
            return UniPoly.one(N).shift(shared), a, b
        g, qa, qb = got
        lc = g[-1]  # > 0; h = g / lc, so a/h = qa lc / a.den
        return (_zpoly(N, list(g), lc).shift(shared),
                _zpoly(N, [x * lc for x in qa], a.den),
                _zpoly(N, [x * lc for x in qb], b.den))

    def evaluate(self, x):
        """Horner evaluation at a CycloNum or rational point, as a CycloNum;
        over Q one integer Horner over the stored Z[u] form."""
        if not self.c:
            return CycloNum.zero(self.N)
        if self.N > 2:
            if not isinstance(x, CycloNum):
                x = CycloNum.from_rational(self.N, x)
            return _iz_eval(self.c, x)  # ring-generic: CycloNums too
        x = x.c[0] if isinstance(x, CycloNum) else _exact(x)
        xn, xd = x.as_integer_ratio()
        acc, pw = 0, 1
        for c in reversed(self.c):
            acc = acc * xn + c * pw
            pw *= xd
        return CycloNum(self.N, (Fraction(acc, self.den * pw // xd),))

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.N == other.N
                and self.c == other.c and self.den == other.den)

    def __hash__(self):
        return hash((self.N, self.c, self.den))

    def __repr__(self):
        return "UniPoly(%d, %s)" % (self.N, render_scalar(self))


def _unipoly(N, c, den):
    """A UniPoly from a stored form that is canonical already."""
    p = object.__new__(UniPoly)
    p.N, p.c, p.den = N, c, den
    return p


def _zpoly(N, ints, den=1):
    """The UniPoly ints/den over Q for an int den > 0, made canonical: the
    list ints trimmed, both divided by the gcd of den and their content."""
    while ints and not ints[-1]:
        ints.pop()
    g = _iz_content(ints, den) if den != 1 else 1
    if g > 1:
        ints, den = [x // g for x in ints], den // g
    return _unipoly(N, tuple(ints), den)


class LaurentPoly:
    """Sparse Laurent polynomial in u over Q(zeta_N): c / den, with
    c = {exponent: nonzero coefficient} stored as UniPoly stores its list:
    over Q (phi(N) = 1, N <= 2) ints, den > 0 coprime to their content, so
    + and * run on plain ints; otherwise CycloNums, den = 1.

    The operator kernels run over this ring once denominators are cleared:
    q brings in negative u-exponents, and staying Laurent avoids all gcd
    work.  ``d`` is the {exponent: value} view, Fractions over Q.
    """

    __slots__ = ("N", "c", "den")

    def __init__(self, N, d=None):
        """d: {exponent: CycloNum or rational}, converted as by UniPoly."""
        d = {e: v for e, v in (d or {}).items() if v}
        z = UniPoly(N, list(d.values()))  # nonzero values: nothing trimmed
        self.N, self.c, self.den = N, dict(zip(d, z.c)), z.den

    @classmethod
    def monomial(cls, N, e, coeff=1):
        return cls(N, {e: coeff})

    @classmethod
    def const(cls, N, value):
        return cls.monomial(N, 0, value)

    @classmethod
    def zero(cls, N):
        return _lpoly(N, {})

    @classmethod
    def one(cls, N):
        return cls.monomial(N, 0)

    @classmethod
    def from_unipoly(cls, poly, shift=0):
        return _lpoly(poly.N, {e + shift: c for e, c in enumerate(poly.c) if c},
                      poly.den)

    @property
    def d(self):
        """{exponent: coefficient}: Fractions over Q, CycloNums otherwise."""
        if self.N > 2:
            return dict(self.c)
        return {e: Fraction(x, self.den) for e, x in self.c.items()}

    def to_unirat(self):
        return UniRatFunc.from_laurent(self.N, self.d)

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.N != self.N:
            raise MixedFieldError("mixed cyclotomic orders")
        if not self.c:
            return other
        if not other.c:
            return self
        a, b, den = self.c, other.c, lcm(self.den, other.den)
        if self.den != other.den:
            a, b = [{e: x * (den // p.den) for e, x in p.c.items()}
                    for p in (self, other)]
        return _lpoly(self.N, _sparse_add(a, b), den)

    def __neg__(self):
        return _lpoly(self.N, {e: -x for e, x in self.c.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly.zero(self.N)
            other = LaurentPoly.const(self.N, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.N != self.N:
            raise MixedFieldError("mixed cyclotomic orders")
        return _lpoly(self.N, _sparse_mul(self.c, other.c, int.__add__),
                      self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e):
        if len(self.c) == 1:
            (ea, ca), = self.c.items()
            if self.N > 2:
                return _lpoly(self.N, {ea * e: ca ** e})
            v = Fraction(ca, self.den) ** e
            return _lpoly(self.N, {ea * e: v.numerator}, v.denominator)
        return _power(self, e, LaurentPoly.one(self.N))

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.N == other.N
                and self.den == other.den and self.c == other.c)

    def __repr__(self):
        return "LaurentPoly(%d, %s)" % (self.N, render_scalar(self.to_unirat()))


def _lpoly(N, c, den=1):
    """The LaurentPoly c/den of nonzero values, canonical as by _zpoly."""
    g = _iz_content(c.values(), den) if den != 1 else 1
    if g > 1:
        c, den = {e: x // g for e, x in c.items()}, den // g
    p = object.__new__(LaurentPoly)
    p.N, p.c, p.den = N, c, den
    return p


def _sparse_add(a, b):
    """The {key: value} sum of two dicts of nonzero values, zeros dropped."""
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        if w is None:
            out[k] = v
        elif w := w + v:
            out[k] = w
        else:
            del out[k]
    return out


def _sparse_mul(a, b, add):
    """The {key: value} product of two dicts of nonzero values over an
    integral domain, add(ka, kb) being the key of a product of two terms;
    zeros dropped.  The smaller dict runs in the outer loop."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    b = b.items()
    for ka, va in a.items():
        for kb, vb in b:
            k = add(ka, kb)
            w = out.get(k)
            if w is None:
                out[k] = va * vb
            elif w := w + va * vb:
                out[k] = w
            else:
                del out[k]
    return out


def _add_vectors(a, b):
    """The exponent vector of a product of two monomials."""
    return tuple(map(add, a, b))


def apply_rows(rows, coeffs, zero):
    """{target: sum of a * coeffs[s] over the (s, a) of rows[target] with s
    in coeffs}, nonzero sums only: a table {target: {source: a}} applied to
    the coefficients {source: b} of f, in the ring whose 0 is zero.  Over Q
    (zero a LaurentPoly with N <= 2, every a a LaurentPoly, a rational b
    read as a constant) the application is packed at one slot width, each
    b once (_laurent_apply).  When zero is a Fraction (int and Fraction
    pairs) each target is one int numerator over the lcm of its pair
    denominators, made canonical once; every other ring sums a * b."""
    if type(zero) is LaurentPoly and zero.N <= 2:
        return _laurent_apply(rows, coeffs, zero.N)
    rational = type(zero) is Fraction
    out = {}
    for target, row in rows.items():
        pairs = [(a, coeffs[s]) for s, a in row.items() if s in coeffs]
        if not pairs:
            continue
        if rational:  # macd pays for this lane: p50 +1.7 % without it
            dens = [a.denominator * b.denominator for a, b in pairs]
            den = lcm(*dens)
            if den == 1:
                v = Fraction(sum([a.numerator * b.numerator
                                  for a, b in pairs]))
            else:
                v = Fraction(sum([a.numerator * b.numerator * (den // d)
                                  for (a, b), d in zip(pairs, dens)]), den)
        else:
            terms = [a * b for a, b in pairs]
            v = sum(terms[1:], terms[0])
        if v:
            out[target] = v
    return out


def _laurent_apply(rows, coeffs, N):
    """apply_rows over LaurentPolys of ints: each target is one packed
    integer (_pack) over the lcm den of its pair denominators
    d = a.den b.den, decoded once.  One slot width serves the whole
    application, sized from the largest target bound
    sum ||a||_1 ||b||_1 den / d, so each b is packed once, from its lowest
    exponent; a is packed from the target's lowest exponent less b's."""
    src = {}  # s -> (b, ||b||_1, lowest and highest exponent of b)
    for s, b in coeffs.items():
        if type(b) is not LaurentPoly:
            b = LaurentPoly.const(N, b)
        if b.c:
            src[s] = (b, _norm1(b.c), min(b.c), max(b.c))
    work, bound = [], 0
    for target, row in rows.items():
        pairs = [(a, s, src[s]) for s, a in row.items() if s in src and a.c]
        if pairs:
            den = lcm(*[a.den * b.den for a, _, (b, _, _, _) in pairs])
            bound = max(bound, sum([_norm1(a.c) * w * (den // (a.den * b.den))
                                    for a, _, (b, w, _, _) in pairs]))
            work.append((target, pairs, den))
    nb = _slot_bytes(bound)
    packed, out = {}, {}
    for target, pairs, den in work:
        base = min([min(a.c) + lo for a, _, (_, _, lo, _) in pairs])
        high = max([max(a.c) + hi for a, _, (_, _, _, hi) in pairs])
        total = 0
        for a, s, (b, _, lo, _) in pairs:
            pb = packed.get(s)
            if pb is None:
                pb = packed[s] = _pack(b.c, nb, lo)
            total += _pack(a.c, nb, base - lo) * pb * (den // (a.den * b.den))
        if total:
            slots = _unpack(total, nb, high - base + 1)
            out[target] = _lpoly(N, {e + base: v for e, v in slots.items()},
                                 den)
    return out


# ---------------------------------------------------------------------------
# packed integer sums (Kronecker substitution)
#
# A polynomial with int coefficients c_s in slots s = 0, 1, ... becomes the
# integer sum_s c_s X^s at X = 2^B, B = 8 nb; a sum of products of such
# polynomials is then a sum of products of Python ints (von zur Gathen and
# Gerhard, Modern Computer Algebra, 8.4).  The result is read back once: if
# every slot value v_s of the result has |v_s| < 2^(B-1), adding 2^(B-1)
# to every slot makes each an unsigned base-X digit, so one to_bytes gives
# all of them.  The callers size nb from the bound
# |v_s| <= sum over products of the product of the factors' 1-norms.
# ---------------------------------------------------------------------------

def _norm1(c):
    """The 1-norm of a {key: int} polynomial."""
    return sum(map(abs, c.values()))


def _slot_bytes(bound):
    """The bytes per slot nb that hold every |v| <= bound with a sign,
    bound < 2^(8 nb - 1): 1, 2, 4 or 8, which _unpack reads with one
    memoryview cast, else the least nb that holds it."""
    nb = bound.bit_length() // 8 + 1
    return 1 << (nb - 1).bit_length() if nb <= 8 else nb


def _pack(c, nb, m=0):
    """sum_e c_e X^(e - m) over the {e: int c_e} dict c, X = 2^(8 nb)."""
    B = 8 * nb
    return sum([x << (B * (e - m)) for e, x in c.items()])


# the memoryview formats of the slot widths one cast reads: native order,
# so on a little-endian host only
_CASTS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _unpack(total, nb, count):
    """{s: v_s} of the nonzero values of total = sum_{s < count} v_s X^s,
    X = 2^(8 nb), every |v_s| < X / 2: one int.to_bytes of total plus X / 2
    in every slot, then one memoryview cast (nb = 1, 2, 4 or 8) or one
    slice per slot.  The to_bytes raises OverflowError when that sum does
    not fit in count slots."""
    half = bytes(nb - 1) + b"\x80"  # X / 2, the offset of one slot
    raw = (total + int.from_bytes(half * count, "little")).to_bytes(
        nb * count, "little")
    offset = 1 << (8 * nb - 1)
    fmt = _CASTS.get(nb)  # stability pays for the cast: about +5 % without it
    if fmt is not None:
        return {s: v - offset for s, v in enumerate(memoryview(raw).cast(fmt))
                if v != offset}
    out = {}
    for s in range(count):
        digit = raw[s * nb:(s + 1) * nb]
        if digit != half:
            out[s] = int.from_bytes(digit, "little") - offset
    return out


def _cofactors(a, b):
    """a/g and b/g for g = gcd(a, b); no gcd is taken when a or b is 1."""
    return (a, b) if a.is_one() or b.is_one() else a.gcd(b)[1:]


class _RatFunc(_Field):
    """num/den over a polynomial ring; canonical: num and den coprime and
    den normalized, den.unit_inverse() == 1.

    The arithmetic is written once against the polynomial interface that
    UniPoly and QTPoly share: is_zero, is_one, unit_inverse (the inverse of
    the unit part of a polynomial: 1/lc over a field, the sign of the
    leading coefficient over Z), scale(c) and gcd, which returns
    (g, a/g, b/g), g normalized so a trivial gcd is_one.  A subclass adds
    its constructors, _coerce and _poly_one(num), the ring's 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False, _coprime=False):
        """_canonical: num/den is already canonical.  _coprime: num and den
        are coprime by construction, so only the denominator is
        normalized."""
        if den is None:
            den = self._poly_one(num)
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            if num.is_zero():
                den = self._poly_one(num)
            elif not den.is_one():
                if not _coprime:
                    _, num, den = num.gcd(den)
                inv = den.unit_inverse()
                if inv != 1:
                    num = num.scale(inv)
                    den = den.scale(inv)
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero():
            return o
        if o.num.is_zero():
            return self
        a, b = self.den, o.den
        g, da, db = a.gcd(b)
        # coprime a, b: a prime of a dividing n1 b + n2 a would divide n1 b
        return type(self)(self.num * db + o.num * da, da * b,
                          _coprime=g.is_one())

    __radd__ = __add__

    def __neg__(self):
        return type(self)(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.num.is_zero():
            return self
        if o.num.is_zero():
            return o
        # a monomial's wheel substitution takes no gcd (stability: unresolved)
        if self.den.is_one() and o.den.is_one():
            return type(self)(self.num * o.num, self.den, _canonical=True)
        # cross-cancel before multiplying; n1 n2 and d1 d2 are then coprime
        n1, d2 = _cofactors(self.num, o.den)
        n2, d1 = _cofactors(o.num, self.den)
        return type(self)(n1 * n2, d1 * d2, _coprime=True)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return type(self)(self.den, self.num, _coprime=True)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # hashed as the simplest scalar it equals, when there is one
        c = self._simplest()
        return hash((self.num, self.den)) if c is None else hash(c)


class UniRatFunc(_RatFunc):
    """num/den in Q(zeta_N)(u); canonical: coprime, monic denominator."""

    __slots__ = ()

    @staticmethod
    def _poly_one(num):
        return UniPoly.one(num.N)

    @property
    def N(self):
        return self.num.N

    @classmethod
    def const(cls, N, value):
        return cls(UniPoly.const(N, value), _canonical=True)

    @classmethod
    def zero(cls, N):
        return cls.const(N, 0)

    @classmethod
    def one(cls, N):
        return cls.const(N, 1)

    @classmethod
    def from_laurent(cls, N, terms):
        """Build from a {u-exponent: nonzero coefficient} map, exponents
        possibly < 0; canonical as built (u does not divide the numerator)."""
        if not terms:
            return cls.zero(N)
        shift = max(0, -min(terms))
        coeffs = [0] * (max(terms) + shift + 1)
        for e, c in terms.items():
            coeffs[e + shift] = c
        return cls(UniPoly(N, coeffs), UniPoly.u_power(N, shift),
                   _canonical=True)

    def _simplest(self):
        """The CycloNum or Fraction self equals when it is a constant (0
        for zero), else None."""
        if not self.den.is_one() or self.num.degree() > 0:
            return None
        return self.num.leading() if self.num else 0

    def _coerce(self, other):
        if isinstance(other, (UniRatFunc, CycloNum)):
            if other.N != self.N:
                raise MixedFieldError("mixed cyclotomic orders")
            if isinstance(other, UniRatFunc):
                return other
            return UniRatFunc(UniPoly.const(self.N, other), _canonical=True)
        if isinstance(other, (int, Fraction)):
            return UniRatFunc.const(self.N, other)
        return None

    def __repr__(self):
        return "UniRatFunc(%d, %s)" % (self.N, render_scalar(self))


# ---------------------------------------------------------------------------
# bivariate layer: sparse polynomials and rational functions in (q, t)
# ---------------------------------------------------------------------------

class QTPoly:
    """Sparse polynomial in (q, t) over Z: {(q_exp, t_exp): nonzero int}.

    Every coefficient given to it passes ``_integer``, so a rational that
    is not an integer is refused; a rational function is a BiRatFunc.
    """

    __slots__ = ("d",)

    def __init__(self, d, _clean=False):
        if not _clean:
            if any(qe < 0 or te < 0 for qe, te in d):
                raise ValueError("QTPoly exponents must be >= 0")
            d = {k: c for k, v in d.items() if (c := _integer(v))}
        self.d = d

    @classmethod
    def term(cls, coeff, qe=0, te=0):
        if qe < 0 or te < 0:
            raise ValueError("QTPoly exponents must be >= 0")
        coeff = _integer(coeff)
        return cls({(qe, te): coeff} if coeff else {}, _clean=True)

    @classmethod
    def zero(cls):
        return cls({}, _clean=True)

    @classmethod
    def one(cls):
        return cls.term(1)

    @classmethod
    def q(cls):
        return cls.term(1, 1, 0)

    @classmethod
    def t(cls):
        return cls.term(1, 0, 1)

    def is_zero(self):
        return not self.d

    def __bool__(self):
        return bool(self.d)

    def is_one(self):
        return self.d == {(0, 0): 1}

    def __add__(self, other):
        if not isinstance(other, QTPoly):
            if not isinstance(other, Rational):
                return NotImplemented
            other = QTPoly.term(other)
        if not self.d:
            return other
        if not other.d:
            return self
        return QTPoly(_sparse_add(self.d, other.d), _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return QTPoly({k: -v for k, v in self.d.items()}, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, (QTPoly, Rational)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QTPoly):
            if not isinstance(other, Rational):
                return NotImplemented
            return self.scale(other) if other else QTPoly.zero()
        return QTPoly(_sparse_mul(self.d, other.d, _add_vectors), _clean=True)

    __rmul__ = __mul__

    def __pow__(self, e):
        return _power(self, e, QTPoly.one())

    def leading_key(self):
        """Largest monomial in graded lexicographic order with q > t."""
        return max(self.d, key=_grlex)

    def leading(self):
        return self.d[self.leading_key()]

    def unit_inverse(self):
        """The sign of the leading coefficient, the unit of Z that makes a
        nonzero polynomial's leading coefficient positive."""
        return -1 if self.leading() < 0 else 1

    def scale(self, c):
        """Multiply by a nonzero integer."""
        c = _integer(c)
        return QTPoly({k: v * c for k, v in self.d.items()}, _clean=True)

    def gcd(self, other):
        return qt_gcd(self, other)

    def substitute(self, q_val, t_val, one):
        """Evaluate at (q_val, t_val), one being the ring's 1.  A rational
        point (ints or Fractions, one == Fraction(1)) takes one integer sum
        over qd^A td^B, A and B the top exponents; other ring elements sum
        in the ring."""
        d = self.d
        # macd pays for this rational lane: about +45 % without it
        if (d and type(one) is Fraction and one == 1
                and isinstance(q_val, (int, Fraction))
                and isinstance(t_val, (int, Fraction))):
            (qn, qd), (tn, td) = (q_val.as_integer_ratio(),
                                  t_val.as_integer_ratio())
            A, B = max([a for a, _ in d]), max([b for _, b in d])
            qw = {a: qn ** a * qd ** (A - a) for a, _ in d}
            tw = {b: tn ** b * td ** (B - b) for _, b in d}
            return Fraction(sum([v * qw[a] * tw[b] for (a, b), v in d.items()]),
                            qd ** A * td ** B)
        qpow = {a: q_val ** a for a in {a for a, _ in d}}
        tpow = {b: t_val ** b for b in {b for _, b in d}}
        acc = None
        for (a, b), v in d.items():
            term = one * v * qpow[a] * tpow[b]
            acc = term if acc is None else acc + term
        return acc if acc is not None else one * 0

    def __eq__(self, other):
        if not isinstance(other, QTPoly):
            if not isinstance(other, Rational):
                return NotImplemented
            if other.denominator != 1:
                return False
            other = QTPoly.term(other)
        return self.d == other.d

    def __hash__(self):
        # a constant hashes like the int it equals
        if self.d.keys() <= {(0, 0)}:
            return hash(self.d.get((0, 0), 0))
        return hash(frozenset(self.d.items()))

    def __repr__(self):
        return "QTPoly(%s)" % render_scalar(self)


def _grlex(k):
    """Sort key of the graded lexicographic order with q > t."""
    return k[0] + k[1], k[0]


def _qt_fold(steps):
    """acc = acc * s + prod(factors) over the (s, factors) of steps, from
    acc = 0, as a QTPoly; s is a QTPoly or None for 1.  The whole sum is
    one packed integer (q^a t^b in slot a T + b, T above the result's
    t-degree), decoded once, unless steps is one product of at most two
    factors: then the QTPolys multiply."""
    # macd pays for this lane: p50 +2 % without it
    if len(steps) == 1 and len(steps[0][1]) <= 2:
        fs = steps[0][1]
        return fs[0] * fs[1] if len(fs) == 2 else fs[0]

    def size(f):  # 1-norm, q-degree, t-degree
        return (_norm1(f.d), max(f.d, default=(0, 0))[0],
                max([b for _, b in f.d], default=0))

    bound = qd = td = 0  # the same for the result
    for s, fs in steps:
        tb, tq, tt = 1, 0, 0
        for f in fs:
            fb, fq, ft = size(f)
            tb, tq, tt = tb * fb, tq + fq, tt + ft
        if s is not None:
            sb, sq, st = size(s)
            bound, qd, td = bound * sb, qd + sq, td + st
        bound, qd, td = bound + tb, max(qd, tq), max(td, tt)
    T, nb = td + 1, _slot_bytes(bound)

    def pack(f):
        return _pack({a * T + b: c for (a, b), c in f.d.items()}, nb)

    acc = 0
    for s, fs in steps:
        term = 1
        for f in fs:
            term *= pack(f)
        acc = (acc if s is None else acc * pack(s)) + term
    return QTPoly({divmod(e, T): v for e, v in
                   _unpack(acc, nb, (qd + 1) * T).items()}, _clean=True)


def _qt_split_content(f):
    """(qmin, tmin, c, terms) with f = c q^qmin t^tmin terms, c > 0 the
    integer content of f and terms a dict of integer coefficients with
    gcd 1."""
    qmin = min([k[0] for k in f.d])
    tmin = min([k[1] for k in f.d])
    c = _iz_content(f.d.values())
    return qmin, tmin, c, {(a - qmin, b - tmin): v // c
                           for (a, b), v in f.d.items()}


def _iz_content(c, g=0):
    """gcd of g and the ints c: their content when g is 0."""
    for x in c:
        g = gcd(g, x)
        if g == 1:
            return 1
    return g


def _iz_primitive(a):
    c = _iz_content(a)
    if c > 1:
        a = [x // c for x in a]
    if a and a[-1] < 0:
        a = [-x for x in a]
    return a


def _iz_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _iz_divexact(a, b):
    """Long division in Z[x] of coefficient lists; raises if inexact."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            q, r = divmod(a[i], lb)
            if r:
                raise ExactDivisionError("inexact Z[x] division")
            out[i - db] = q
            for j in range(db + 1):
                a[i - db + j] -= q * b[j]
    if any(a):
        raise ExactDivisionError("inexact Z[x] division: nonzero remainder")
    return out


def _to_tq_rows(terms, swap=False):
    """{(qexp, texp): nonzero int} -> the polynomial in (Z[t])[q] as a dense
    list of Z[t] coefficient lists indexed by q-exponent ([] for zero); in
    (Z[q])[t] when swap."""
    if swap:
        terms = {(b, a): c for (a, b), c in terms.items()}
    rows = [[] for _ in range(max([a for a, _ in terms]) + 1)]
    for (a, b), c in terms.items():
        row = rows[a]
        if len(row) <= b:
            row.extend([0] * (b + 1 - len(row)))
        row[b] = c
    return rows


def qt_gcd(f, g):
    """(h, f/h, g/h), h the gcd of two QTPolys in Z[q, t], integer content
    included, normalized with positive graded-lex leading coeff; gcd(0, g)
    is (+-g, 0, +-1).

    Monomial and integer content are split off first.  On the primitive
    parts the heuristic gcd ``_heu_gcd`` runs on the whole (Z[t])[q] rows,
    and the primitive PRS ``_qt_prs_gcd`` is the fallback; the cofactors
    are the quotients of the division that certifies either.  Both run in
    whichever variable has the smaller degree.
    """
    if not (f.d and g.d):
        x = f or g
        s = x.unit_inverse() if x else 1
        h, unit = x.scale(s), QTPoly.term(s) if x else x
        return (h, f, unit) if not f.d else (h, unit, g)
    # macd pays for this monomial lane: p50 +4 % without it
    if len(f.d) == 1 or len(g.d) == 1:
        keys = [*f.d, *g.d]
        qm, tm = min([k[0] for k in keys]), min([k[1] for k in keys])
        c = _iz_content([*f.d.values(), *g.d.values()])
        return (QTPoly.term(c, qm, tm), _qt_shift(f, qm, tm, c),
                _qt_shift(g, qm, tm, c))
    qf, tf, cf, fterms = _qt_split_content(f)
    qg, tg, cg, gterms = _qt_split_content(g)
    c = gcd(cf, cg)
    sf, sg = cf // c, cg // c
    qm, tm = min(qf, qg), min(tf, tg)
    qdeg = max(max(k[0] for k in fterms), max(k[0] for k in gterms))
    tdeg = max(max(k[1] for k in fterms), max(k[1] for k in gterms))
    swap = tdeg < qdeg
    fr, gr = _to_tq_rows(fterms, swap), _to_tq_rows(gterms, swap)
    got = _heu_gcd(fr, gr) or _tq_cofactors(fr, gr, _qt_prs_gcd(fr, gr))
    if got is None:
        raise ExactDivisionError("inexact (Z[t])[q] division by a gcd")
    h = _qt_from_rows(got[0], swap, qm, tm, c)
    if h.leading() < 0:
        h, sf, sg = -h, -sf, -sg
    return (h, _qt_from_rows(got[1], swap, qf - qm, tf - tm, sf),
            _qt_from_rows(got[2], swap, qg - qm, tg - tm, sg))


def _qt_shift(f, qe, te, c):
    """f / (c q^qe t^te), for a monomial that divides f."""
    return QTPoly({(a - qe, b - te): v // c for (a, b), v in f.d.items()},
                  _clean=True)


def _qt_from_rows(rows, swap, qe, te, s):
    """s q^qe t^te rows for int rows in (Z[t])[q] ((Z[q])[t] if swap)."""
    return QTPoly({(b + qe, a + te) if swap else (a + qe, b + te): c * s
                   for a, row in enumerate(rows) for b, c in enumerate(row)
                   if c}, _clean=True)


def _qt_prs_gcd(fr, gr):
    """gcd of two (Z[t])[q] row lists of integer content 1, as primitive
    int rows, by the primitive PRS over (Q[t])[q]: the rows are UniPolys
    over Q, and the gcd of the two Q[t] contents is multiplied back."""
    f = [UniPoly(1, row) for row in fr]
    g = [UniPoly(1, row) for row in gr]
    cont = _row_content(f).gcd(_row_content(g))[0]
    h = [x * cont for x in _prs(f, g, _qt_primitive)]
    den = lcm(*[x.den for x in h])
    return _rows_primitive([[c * (den // x.den) for c in x.c] for x in h])


def _row_content(p):
    """Monic gcd of the UniPoly entries of p."""
    g = UniPoly.zero(1)
    for x in p:
        g = g.gcd(x)[0]
        if g.is_one():
            break
    return g


def _qt_primitive(p):
    """p, with UniPoly entries, divided by their monic gcd."""
    c = _row_content(p)
    return p if c.is_one() else [x.divexact(c) for x in p]


def _monic_row(p):
    """p, with field entries, divided by its top entry."""
    inv = p[-1].inverse()
    return [x * inv for x in p]


def _prs(a, b, primitive):
    """gcd of two nonzero polynomials, ascending coefficient lists over an
    integral domain, by the primitive pseudo-remainder sequence.

    primitive(p) divides a nonzero p by the content its lane takes out;
    the gcd is primitive(last nonzero remainder), up to a unit of the lane.
    """
    a, b = primitive(a), primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        # a <- lb^e a - Q b, of degree below that of b
        db, lb = len(b) - 1, b[-1]
        a = list(a)
        while len(a) > db:
            la = a.pop()
            if la:
                a = [x * lb for x in a]
                off = len(a) - db
                for j in range(db):
                    a[off + j] -= la * b[j]
        while a and not a[-1]:
            a.pop()
        a, b = b, primitive(a) if a else a
    return a


_HEU_TRIES = 6


def _heu_points(f_norm, g_norm):
    """GCDHEU's _HEU_TRIES evaluation points for inputs of these max norms.

    The first is 2 min(|f|, |g|) + 2, the bound under which the division
    check certifies the candidate; each next one is about 2.73 times the
    last, as Char, Geddes and Gonnet chose.
    """
    xi = 2 * min(f_norm, g_norm) + 2
    for _ in range(_HEU_TRIES):
        yield xi
        xi = xi * 73794 // 27011


def _heu_gcd(fr, gr):
    """(h, f/h, g/h) in (Z[t])[q] for two polynomials of integer content 1
    by GCDHEU, or None.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 7,
    1989): t is evaluated at an integer xi, the gcd of the two images in
    Z[q] is found by the same method one level down, and each of its
    coefficients is read back as a polynomial in t from its symmetric
    xi-adic digits.  Every xi is at least 2 min(|f|, |g|) + 2 (max
    norms); under that bound a primitive candidate that divides both
    inputs exactly in Z[q, t] is their gcd, and the quotients are its
    cofactors.  None when every point of _heu_points was rejected.
    """
    for xi in _heu_points(_rows_norm(fr), _rows_norm(gr)):
        image = _heu_gcd_univariate([_iz_eval(row, xi) for row in fr],
                                    [_iz_eval(row, xi) for row in gr])
        if image is not None:
            got = _tq_cofactors(fr, gr, _rows_primitive(
                [_xi_adic(c, xi) for c in image[0]]))
            if got is not None:
                return got
    return None


def _heu_gcd_univariate(a, b):
    """(g, a/g, b/g) in Z[q] for two int coefficient lists by GCDHEU, or
    None (also when one is zero).

    The gcd of the values of the primitive parts at xi is read back as a
    polynomial from its symmetric xi-adic digits; that times the gcd of the
    contents is accepted only if it divides both exactly, and then its
    primitive part divides both primitive parts, the certificate.
    """
    a, b = _iz_trim(a), _iz_trim(b)
    if not a or not b:
        return None
    ca, cb = _iz_content(a), _iz_content(b)
    c = gcd(ca, cb)
    pa = [x // ca for x in a] if ca > 1 else a
    pb = [x // cb for x in b] if cb > 1 else b
    for xi in _heu_points(max(map(abs, pa)), max(map(abs, pb))):
        g = _iz_primitive(_xi_adic(gcd(_iz_eval(pa, xi), _iz_eval(pb, xi)),
                                   xi))
        if c > 1:
            g = [x * c for x in g]
        try:
            return g, _iz_divexact(a, g), _iz_divexact(b, g)
        except ExactDivisionError:
            pass
    return None


def _xi_adic(g, xi):
    """Coefficient list of the polynomial whose value at xi is g, with
    every coefficient in the symmetric range (-xi/2, xi/2]."""
    out = []
    half = xi // 2
    while g:
        r = g % xi
        if r > half:
            r -= xi
        out.append(r)
        g = (g - r) // xi
    return out


def _rows_primitive(rows):
    """Int rows divided by the integer content of all their entries."""
    cont = _iz_content([c for row in rows for c in row])
    return rows if cont == 1 else [[c // cont for c in row] for row in rows]


def _rows_norm(rows):
    return max(abs(c) for row in rows for c in row)


def _iz_trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _tq_quotient(a, b):
    """a / b in (Z[t])[q] for dense lists of Z[t] lists, or None when b
    does not divide a.  Long division with integer arithmetic only: each
    step divides the leading row exactly in Z[t] and subtracts."""
    db, lb = len(b) - 1, b[-1]
    a = list(a)
    out = [[] for _ in range(len(a) - db)]
    for i in range(len(a) - 1, db - 1, -1):
        row = _iz_trim(a[i])
        if not row:
            continue
        try:
            c = out[i - db] = _iz_divexact(row, lb)
        except ExactDivisionError:
            return None
        for j in range(db):
            if b[j]:
                a[i - db + j] = _iz_sub(a[i - db + j], _iz_mul(c, b[j]))
    return None if any(any(row) for row in a[:db]) else out


def _tq_cofactors(fr, gr, hr):
    """(hr, fr/hr, gr/hr) in (Z[t])[q], or None unless hr divides both."""
    fq = _tq_quotient(fr, hr)
    gq = None if fq is None else _tq_quotient(gr, hr)
    return None if gq is None else (hr, fq, gq)


def _iz_sub(a, b):
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    else:
        a = list(a)
    for i, x in enumerate(b):
        a[i] -= x
    return a


def _iz_eval(row, x):
    acc = 0
    for c in reversed(row):
        acc = acc * x + c
    return acc


def qt_divexact(f, g):
    """Exact division in Z[q, t] (graded-lex long division, remainder 0);
    ExactDivisionError when g does not divide f in Z[q, t].
    """
    if g.is_one():
        return f
    out = {}
    rem = dict(f.d)
    glk = g.leading_key()
    glc = g.d[glk]
    gq, gt = glk
    gitems = list(g.d.items())
    # every new remainder term is below the current leading one, so a heap
    # of the keys ever entered yields the leading terms in order
    heap = [(-qe - te, -qe, te) for qe, te in rem]
    heapify(heap)
    while heap:
        _, neg_qe, te = heappop(heap)
        k = (-neg_qe, te)
        v = rem.get(k)
        if v is None:
            continue
        a, b = k[0] - gq, k[1] - gt
        if a < 0 or b < 0 or v % glc:
            raise ExactDivisionError("inexact bivariate division")
        c = out[(a, b)] = v // glc
        for (q2, t2), v2 in gitems:
            kk = (a + q2, b + t2)
            w = rem.get(kk)
            if w is None:
                heappush(heap, (-kk[0] - kk[1], -kk[0], kk[1]))
                w = 0
            w = w - c * v2
            if w:
                rem[kk] = w
            else:
                rem.pop(kk, None)
    return QTPoly(out, _clean=True)


class BiRatFunc(_RatFunc):
    """num/den in Q(q, t) = Frac(Z[q, t]), num and den QTPolys; canonical:
    coprime in Z[q, t] (integer content included), graded-lex leading
    coefficient of the denominator positive."""

    __slots__ = ()

    @staticmethod
    def _poly_one(num):
        return QTPoly.one()

    @classmethod
    def from_poly(cls, p):
        return cls(p, _canonical=True)

    @classmethod
    def const(cls, value):
        """A rational as num/den, both integers."""
        num, den = _exact(value).as_integer_ratio()
        return cls(QTPoly.term(num), QTPoly.term(den), _canonical=True)

    @classmethod
    def zero(cls):
        return cls.const(0)

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def q(cls):
        return cls(QTPoly.q(), _canonical=True)

    @classmethod
    def t(cls):
        return cls(QTPoly.t(), _canonical=True)

    @classmethod
    def qt_monomial(cls, a, b):
        """q^a t^b for arbitrary integer exponents."""
        num = QTPoly.term(1, max(a, 0), max(b, 0))
        den = QTPoly.term(1, max(-a, 0), max(-b, 0))
        return cls(num, den, _canonical=True)

    def is_polynomial(self):
        """True iff self lies in Q[q, t]: its denominator is a constant."""
        return self.den.leading_key() == (0, 0)

    def _simplest(self):
        """The QTPoly self equals when its denominator is 1 (it hashes a
        constant as an int), the Fraction when num and den are constants,
        else None."""
        if self.den.is_one():
            return self.num
        if self.is_polynomial() and self.num.leading_key() == (0, 0):
            return Fraction(self.num.d[0, 0], self.den.d[0, 0])
        return None

    def _coerce(self, other):
        if isinstance(other, BiRatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return BiRatFunc.const(other)
        if isinstance(other, QTPoly):
            return BiRatFunc.from_poly(other)
        return None

    def __repr__(self):
        return "BiRatFunc(%s)" % render_scalar(self)


class ParameterSpec:
    """The resonant specialization t^(k+1) q^(r-1) = 1.

    Fixes omega1 = zeta_{r-1}, so a single cyclotomic field Q(zeta_{r-1})
    carries every scalar; then t = u^((r-1)/m), q = omega1 u^(-(k+1)/m)
    with m = gcd(k+1, r-1), and q^a t^b = 1 exactly when (a, b) is an
    integer multiple of ((r-1), (k+1)).  Only this class knows the rule:
    the table _omega_powers holds omega1^a in the coefficients' own ring,
    the ints 1 and -1 when phi(N) = 1 (N <= 2) and CycloNums otherwise,
    and every value in K is read through specialize_poly.

    An instance also keeps the wheel relations read through it (relation,
    for wheel_ideal.relation_generic): each is built once and lives and
    dies with the instance.
    """

    __slots__ = ("k", "r", "m", "N", "t_exp", "q_exp", "_omega_powers",
                 "_relations")

    def __init__(self, k, r):
        if k < 1:
            raise ValueError("k must be >= 1")
        if r < 2:
            raise ValueError("r must be >= 2")
        self.k = k
        self.r = r
        self.m = gcd(k + 1, r - 1)
        N = self.N = r - 1
        # zeta_1 = 1 and zeta_2 = -1 stay ints, so Q runs on plain ints
        self._omega_powers = ([(-1) ** a for a in range(N)] if N <= 2 else
                              [CycloNum.zeta(N, a) for a in range(N)])
        self.t_exp = (r - 1) // self.m
        self.q_exp = (k + 1) // self.m
        self._relations = {}

    @classmethod
    def matching(cls, p, k, r):
        """p, or ParameterSpec(k, r) when p is None; ValueError when p was
        made for another (k, r)."""
        if p is None:
            return cls(k, r)
        if (p.k, p.r) != (k, r):
            raise ValueError("%r does not match (k=%d, r=%d)" % (p, k, r))
        return p

    def relation(self, key, build):
        """The value build() gives, built on the first call with key and
        kept on this instance: every later call returns the same object,
        which callers share and must not modify."""
        rel = self._relations.get(key)
        if rel is None:
            rel = self._relations[key] = build()
        return rel

    def t_value(self):
        return UniRatFunc.from_laurent(self.N, dict([self.qt_laurent(0, 1)]))

    def q_value(self):
        return UniRatFunc.from_laurent(self.N, dict([self.qt_laurent(1, 0)]))

    def qt_laurent(self, a, b):
        """q^a t^b as (u-exponent, coefficient omega1^(a mod N))."""
        return b * self.t_exp - a * self.q_exp, self._omega_powers[a % self.N]

    def specialize_poly(self, f):
        """Image of a QTPoly as a {u-exponent: nonzero coefficient} Laurent
        map: each q^a t^b is qt_laurent(a, b), read off the table in the
        loop.  Over Q the coefficients stay ints; otherwise they are
        CycloNums."""
        t_exp, q_exp, N, w = self.t_exp, self.q_exp, self.N, self._omega_powers
        terms = {}
        for (a, b), v in f.d.items():
            e, c = b * t_exp - a * q_exp, w[a % N] * v
            terms[e] = terms[e] + c if e in terms else c
        return {e: c for e, c in terms.items() if c}

    def specialize(self, x):
        """Map a QTPoly or BiRatFunc into K = Q(zeta_{r-1})(u); PoleError
        if den -> 0.  A QTPoly (a table of counts, say) is read straight
        into a canonical UniRatFunc, with no gcd and no division."""
        if isinstance(x, QTPoly):
            return UniRatFunc.from_laurent(self.N, self.specialize_poly(x))
        den = self.specialize_poly(x.den)
        if not den:
            raise PoleError("pole at specialization (k=%d, r=%d)" % (self.k, self.r))
        num = self.specialize_poly(x.num)
        return (UniRatFunc.from_laurent(self.N, num)
                / UniRatFunc.from_laurent(self.N, den))

    def is_resonant(self, a, b):
        """True iff q^a t^b = 1 under the specialization."""
        if a % (self.r - 1):
            return False
        s = a // (self.r - 1)
        return b == (self.k + 1) * s

    def __repr__(self):
        return "ParameterSpec(k=%d, r=%d)" % (self.k, self.r)


# ---------------------------------------------------------------------------
# canonical string rendering
# ---------------------------------------------------------------------------

def _render_terms(terms, varnames):
    """terms: list of (key-tuple, Fraction-or-CycloNum) sorted already."""
    parts = []
    for mono, coeff in terms:
        factors = []
        for name, e in zip(varnames, mono):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append("%s^%d" % (name, e))
        if isinstance(coeff, CycloNum):
            if coeff.is_rational():
                cs = str(coeff.rational_value())
            else:
                cs = "(" + render_scalar(coeff) + ")"
        else:
            cs = str(coeff)
        if factors:
            body = "*".join(factors)
            if cs == "1":
                s = body
            elif cs == "-1":
                s = "-" + body
            else:
                s = cs + "*" + body
        else:
            s = cs
        parts.append(s)
    out = parts[0]
    for s in parts[1:]:
        if s.startswith("-"):
            out += " - " + s[1:]
        else:
            out += " + " + s
    return out


def _render_qtpoly(f, lc=1):
    """f / lc, its coefficients shown as rationals."""
    if f.is_zero():
        return "0"
    keys = sorted(f.d, key=_grlex, reverse=True)
    return _render_terms([(k, f.d[k] if lc == 1 else Fraction(f.d[k], lc))
                          for k in keys], ("q", "t"))


def _render_ascending(coeffs, var):
    """An ascending coefficient tuple (Fractions or CycloNums) as a
    polynomial in var, highest power first."""
    terms = [((e,), coeffs[e]) for e in range(len(coeffs) - 1, -1, -1)
             if coeffs[e]]
    return _render_terms(terms, (var,)) if terms else "0"


def render_scalar(x):
    """Canonical text form shared by every module's JSON output."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if isinstance(x, CycloNum):
        return _render_ascending(x.c, "z")
    if isinstance(x, QTPoly):
        return _render_qtpoly(x)
    if isinstance(x, UniPoly):
        return _render_ascending(x.coeffs(), "u")
    if isinstance(x, UniRatFunc):
        num = _render_ascending(x.num.coeffs(), "u")
        if x.den.degree() == 0:
            return num
        return "(%s)/(%s)" % (num, _render_ascending(x.den.coeffs(), "u"))
    if isinstance(x, BiRatFunc):
        # monic over Q: num and den over the leading coefficient of den
        lc = x.den.leading()
        if x.is_polynomial():
            return _render_qtpoly(x.num, lc)
        return "(%s)/(%s)" % (_render_qtpoly(x.num, lc),
                              _render_qtpoly(x.den, lc))
    raise TypeError("cannot render %r" % (type(x).__name__,))

