"""Exact arithmetic in the cyclotomic fields Q(zeta_M).

An element is stored as its coefficient vector in the power basis
1, z, ..., z^(phi(M)-1) of Q[z]/(Phi_M(z)), where Phi_M is the M-th
cyclotomic polynomial and z stands for a primitive M-th root of unity.
Values are kept fully reduced mod Phi_M, so equality and zero tests are
plain coefficient comparisons; the rank computations downstream rely on
that constantly.

The coefficients are one integer vector num over one positive integer
den, in lowest terms (gcd(den, *num) == 1, and zero is all-zero over 1),
so each value has one form and all arithmetic, inversion included, is on
integers; the coeffs property gives them as Fractions.  A product costs
about phi^2 integer multiplications; invert, the costliest operation,
takes phi - 2 products for the Galois adjugate and one for the norm.
M = 1 gives plain Q (phi(1) = 1, basis {1}).  Mixed-modulus arithmetic
is rejected; use :meth:`CyclotomicNumber.embed` to move into a larger
field explicitly.

>>> z = root_of_unity(6, 1, 6)
>>> z * z == z - 1          # reduction by Phi_6 = z^2 - z + 1
True
>>> z ** 6
1 @ Q(zeta_6)
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add, neg, sub


def prime_factors(q: int) -> list[int]:
    """Distinct prime factors of a positive integer, in increasing order,
    by trial division."""
    out = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            out.append(p)
            while q % p == 0:
                q //= p
        p += 1
    if q > 1:
        out.append(q)
    return out


@functools.lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler's totient of a positive integer, m * prod(1 - 1/p) over its
    prime factors p."""
    if m < 1:
        raise ValueError(f"euler_phi expects a positive integer, got {m}")
    for p in prime_factors(m):
        m -= m // p
    return m


# -- dense univariate integer polynomials (internal helpers) ----------------
#
# Represented as tuples of ints, constant term first, no trailing zeros.


def _poly_trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_divmod(num, den):
    """Quotient and remainder of num by the monic polynomial den."""
    num = list(num)
    top = len(den) - 1
    quo = [0] * max(len(num) - top, 0)
    lower = [(i, c) for i, c in enumerate(den[:top]) if c]
    for shift in range(len(quo) - 1, -1, -1):
        factor = num[shift + top]
        if factor:
            quo[shift] = factor
            for i, c in lower:
                num[shift + i] -= factor * c
    return _poly_trim(quo), _poly_trim(num[:top])


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, constant term first.

    Computed by dividing z^m - 1 by the product of Phi_d over proper
    divisors d of m.

    >>> [int(c) for c in cyclotomic_polynomial(6)]
    [1, -1, 1]
    """
    if m < 1:
        raise ValueError(f"cyclotomic polynomial undefined for {m}")
    poly = _poly_trim([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not rem
    return poly


@functools.lru_cache(maxsize=None)
def _zeta_power(m: int, k: int) -> tuple[int, ...]:
    """z^k mod Phi_m as a reduced integer coefficient vector."""
    phi = euler_phi(m)
    _, rem = _poly_divmod((0,) * (k % m) + (1,), cyclotomic_polynomial(m))
    return rem + (0,) * (phi - len(rem))


@functools.lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Rows r[i] = z^(phi+i) reduced mod Phi_m, for i = 0 .. phi-2 (what a
    product of two reduced elements can reach)."""
    phi = euler_phi(m)
    return tuple(_zeta_power(m, k % m) for k in range(phi, 2 * phi - 1))


def _raw_mul(m, a, b):
    """Product of two integer coefficient vectors, reduced mod Phi_m."""
    phi = len(a)
    conv = [0] * (2 * phi - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                if cb:
                    conv[j] += ca * cb
    out = conv[:phi]
    for c, row in zip(conv[phi:], _reduction_rows(m)):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return tuple(out)


def _power_map(num, m, step):
    """sum_k num[k] * z^(k*step), reduced mod Phi_m.  Exponents are
    reduced mod m before the _zeta_power lookup, so its cache keeps at
    most m entries per modulus."""
    out = [0] * euler_phi(m)
    for k, c in enumerate(num):
        if c:
            for j, r in enumerate(_zeta_power(m, k * step % m)):
                if r:
                    out[j] += c * r
    return tuple(out)


class CyclotomicNumber:
    """An element of Q(zeta_M), canonically reduced mod Phi_M: the integer
    vector num over the positive integer den, in lowest terms."""

    __slots__ = ("modulus", "num", "den")

    def __init__(self, modulus: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != euler_phi(modulus):
            raise ValueError(
                f"expected {euler_phi(modulus)} coefficients for modulus "
                f"{modulus}, got {len(coeffs)}"
            )
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"cannot use {c!r} as a rational coefficient")
        # Fractions are in lowest terms, so num / den over their lcm is too
        den = math.lcm(*(c.denominator for c in coeffs))
        _set_modulus(self, modulus)
        _set_num(self, tuple(c.numerator * (den // c.denominator)
                             for c in coeffs))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients num[k] / den as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_rational(value, modulus: int = 1, power: int = 0) -> CyclotomicNumber:
        """value * z^power for a rational value."""
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        top = value.numerator
        return _make(modulus,
                     tuple([top * u for u in _zeta_power(modulus, power % modulus)]),
                     value.denominator)

    @staticmethod
    def zero(modulus: int = 1) -> CyclotomicNumber:
        return _make(modulus, (0,) * len(_zeta_power(modulus, 0)))

    @staticmethod
    def one(modulus: int = 1) -> CyclotomicNumber:
        return _make(modulus, _zeta_power(modulus, 0))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __bool__(self) -> bool:
        return any(self.num)

    # -- coercion ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"mixed cyclotomic moduli {self.modulus} and "
                    f"{other.modulus}; embed into a common field first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(other, self.modulus)
        return None

    def embed(self, modulus: int) -> CyclotomicNumber:
        """Image of this element in Q(zeta_modulus); requires M | modulus."""
        if modulus == self.modulus:
            return self
        if modulus % self.modulus != 0:
            raise ValueError(
                f"cannot embed Q(zeta_{self.modulus}) into Q(zeta_{modulus})"
            )
        return _make(modulus,
                     _power_map(self.num, modulus, modulus // self.modulus),
                     self.den)

    # -- field operations ------------------------------------------------

    def __add__(self, other):
        if type(other) is not CyclotomicNumber or other.modulus != self.modulus:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _make(self.modulus, tuple(map(add, self.num, other.num)), da)
        return _make(self.modulus,
                     tuple([a * db + b * da for a, b in zip(self.num, other.num)]),
                     da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.modulus, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        if type(other) is not CyclotomicNumber or other.modulus != self.modulus:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _make(self.modulus, tuple(map(sub, self.num, other.num)), da)
        return _make(self.modulus,
                     tuple([a * db - b * da for a, b in zip(self.num, other.num)]),
                     da * db)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not CyclotomicNumber or other.modulus != self.modulus:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        if len(a) == 1:
            num = (a[0] * b[0],)
        elif not any(b[1:]):
            c = b[0]
            if c == 1 and other.den == 1:
                return self
            num = tuple([x * c for x in a])
        elif not any(a[1:]):
            c = a[0]
            num = tuple([c * y for y in b])
        else:
            num = _raw_mul(self.modulus, a, b)
        return _make(self.modulus, num, self.den * other.den)

    __rmul__ = __mul__

    def invert(self) -> CyclotomicNumber:
        """Multiplicative inverse on integers: for x = num/den, x^-1 =
        den*adj/N, where adj is the product of the Galois conjugates of num
        under z -> z^k (1 < k < M, gcd(k, M) = 1) and N = num*adj is its
        norm, an integer.  Cost: phi - 2 products of phi^2 integer
        multiplications each for adj, and one more for N."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return CyclotomicNumber.from_rational(
                Fraction(self.den, self.num[0]), self.modulus)
        m, num = self.modulus, self.num
        adj = functools.reduce(lambda a, b: _raw_mul(m, a, b),
                               (_power_map(num, m, k) for k in range(2, m)
                                if math.gcd(k, m) == 1))
        # N is a product of |sigma(num)|^2 over conjugate pairs (M >= 3
        # here, since phi(1) = phi(2) = 1), so it is a positive integer
        norm, *rest = _raw_mul(m, num, adj)
        assert norm > 0 and not any(rest)
        return _make(m, tuple([self.den * a for a in adj]), norm)

    def __pow__(self, n: int) -> CyclotomicNumber:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        result = CyclotomicNumber.one(self.modulus)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- comparison and display -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator
                    and self.den == other.denominator and self.is_rational())
        if isinstance(other, CyclotomicNumber):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"comparing cyclotomic numbers of moduli {self.modulus} "
                    f"and {other.modulus}; embed first"
                )
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.modulus, self.num, self.den))

    def terms(self, factors=()) -> list[tuple[int, str]]:
        """One (sign, text) pair per nonzero basis component k: the
        factors |num[k]/den| (left out when it is 1 and something else is
        written), w(M,1)^k and the given ones, joined by '*'.  This is the
        term syntax of the .germ format; join_terms writes the pairs."""
        den, gen = self.den, f"w({self.modulus},1)"
        out = []
        for k, n in enumerate(self.num):
            if not n:
                continue
            if abs(n) == den and (k or factors):
                parts = []
            else:
                g = math.gcd(n, den)
                parts = [str(abs(n) // g) if g == den
                         else f"{abs(n) // g}/{den // g}"]
            if k:
                parts.append(gen if k == 1 else f"{gen}^{k}")
            parts.extend(factors)
            out.append((-1 if n < 0 else 1, "*".join(parts)))
        return out

    def __str__(self):
        return join_terms(self.terms())

    def __repr__(self):
        return f"{self} @ Q(zeta_{self.modulus})"


def join_terms(pieces) -> str:
    """(sign, text) pairs written as 'a + b - c', or '0' when there are
    none."""
    if not pieces:
        return "0"
    (sign, text), *rest = pieces
    return "".join(["-" + text if sign < 0 else text]
                   + [(" - " if s < 0 else " + ") + t for s, t in rest])


_new = object.__new__
_set_modulus = CyclotomicNumber.modulus.__set__
_set_num = CyclotomicNumber.num.__set__
_set_den = CyclotomicNumber.den.__set__


def _make(modulus: int, num: tuple, den: int = 1) -> CyclotomicNumber:
    """The trusted constructor: num / den brought to lowest terms, where
    num is an integer vector already reduced mod Phi_modulus and den is
    positive.  Nothing else is checked."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([n // g for n in num])
            den //= g
    x = _new(CyclotomicNumber)
    _set_modulus(x, modulus)
    _set_num(x, num)
    _set_den(x, den)
    return x


def root_of_unity(order: int, power: int, modulus: int | None = None) -> CyclotomicNumber:
    """e^(2 pi i power/order) as an element of Q(zeta_modulus).

    The order must divide the modulus (default: modulus = order).

    >>> root_of_unity(2, 1, 2)
    -1 @ Q(zeta_2)
    """
    if modulus is None:
        modulus = order
    if order < 1:
        raise ValueError(f"root order must be positive, got {order}")
    if modulus % order != 0:
        raise ValueError(f"order {order} does not divide modulus {modulus}")
    k = (power * (modulus // order)) % modulus
    return _make(modulus, _zeta_power(modulus, k))
