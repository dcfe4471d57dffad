"""Exact arithmetic in the cyclotomic fields Q(zeta_M).

An element is stored as its coefficient vector in the power basis
1, z, ..., z^(phi(M)-1) of Q[z]/(Phi_M(z)), where Phi_M is the M-th
cyclotomic polynomial and z stands for a primitive M-th root of unity.
Values are kept fully reduced mod Phi_M, so equality and zero tests are
plain coefficient comparisons; the rank computations downstream rely on
that constantly.

Rational coefficients are fractions.Fraction.  M = 1 gives plain Q
(phi(1) = 1, basis {1}).  Mixed-modulus arithmetic is rejected; use
:meth:`CyclotomicNumber.embed` to move into a larger field explicitly.

>>> z = root_of_unity(6, 1, 6)
>>> z * z == z - 1          # reduction by Phi_6 = z^2 - z + 1
True
>>> z ** 6
1 @ Q(zeta_6)
"""

from __future__ import annotations

import functools
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def euler_phi(m: int) -> int:
    """Euler's totient of a positive integer."""
    if m < 1:
        raise ValueError(f"euler_phi expects a positive integer, got {m}")
    result = m
    k, p = m, 2
    while p * p <= k:
        if k % p == 0:
            while k % p == 0:
                k //= p
            result -= result // p
        p += 1
    if k > 1:
        result -= result // k
    return result


# -- dense univariate polynomials over Q (internal helpers) -----------------
#
# Represented as tuples of Fractions, constant term first, no trailing zeros.


def _poly_trim(coeffs) -> tuple[Fraction, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return _poly_trim(x - y for x, y in zip(a, b))


def _poly_divmod(num, den):
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    quo = [_ZERO] * max(len(num) - len(den) + 1, 0)
    inv_lead = 1 / den[-1]
    while len(num) >= len(den) and _poly_trim(num):
        num = list(_poly_trim(num))
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        factor = num[-1] * inv_lead
        quo[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
    return _poly_trim(quo), _poly_trim(num)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_m, constant term first.

    Computed by dividing z^m - 1 by the product of Phi_d over proper
    divisors d of m.

    >>> [int(c) for c in cyclotomic_polynomial(6)]
    [1, -1, 1]
    """
    if m < 1:
        raise ValueError(f"cyclotomic polynomial undefined for {m}")
    poly = _poly_trim([Fraction(-1)] + [_ZERO] * (m - 1) + [_ONE])
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            assert not rem
    return poly


@functools.lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows r[i] = coefficients of z^(phi+i) reduced mod Phi_m, for
    i = 0 .. phi-2 (what a product of two reduced elements can reach)."""
    phi = euler_phi(m)
    top = cyclotomic_polynomial(m)
    assert top[-1] == 1
    rows = []
    # z^phi = -(Phi_m - z^phi)
    current = [-c for c in top[:-1]]
    rows.append(tuple(current))
    for _ in range(phi - 2):
        shifted = [_ZERO] + current[:-1]
        lead = current[-1]
        if lead:
            shifted = [s + lead * r for s, r in zip(shifted, rows[0])]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _zeta_power(m: int, k: int) -> tuple[Fraction, ...]:
    """z^k mod Phi_m as a reduced coefficient vector."""
    phi = euler_phi(m)
    k %= m
    if k < phi:
        coeffs = [_ZERO] * phi
        coeffs[k] = _ONE
        return tuple(coeffs)
    top_row = _reduction_rows(m)[0]  # z^phi reduced
    vec = list(_zeta_power(m, k - 1))
    lead = vec[-1]
    shifted = [_ZERO] + vec[:-1]
    if lead:
        shifted = [s + lead * r for s, r in zip(shifted, top_row)]
    return tuple(shifted)


def _raw_mul(m, a, b):
    phi = len(a)
    conv = [_ZERO] * (2 * phi - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    conv[i + j] += ca * cb
    if phi == 1:
        return (conv[0],)
    rows = _reduction_rows(m)
    out = conv[:phi]
    for i in range(phi, 2 * phi - 1):
        c = conv[i]
        if c:
            row = rows[i - phi]
            for j, r in enumerate(row):
                if r:
                    out[j] += c * r
    return tuple(out)


class CyclotomicNumber:
    """An element of Q(zeta_M), canonically reduced mod Phi_M."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != euler_phi(modulus):
            raise ValueError(
                f"expected {euler_phi(modulus)} coefficients for modulus "
                f"{modulus}, got {len(coeffs)}"
            )
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_rational(value, modulus: int = 1) -> CyclotomicNumber:
        phi = euler_phi(modulus)
        coeffs = [_ZERO] * phi
        coeffs[0] = Fraction(value)
        return CyclotomicNumber(modulus, coeffs)

    @staticmethod
    def zero(modulus: int = 1) -> CyclotomicNumber:
        return CyclotomicNumber(modulus, [_ZERO] * euler_phi(modulus))

    @staticmethod
    def one(modulus: int = 1) -> CyclotomicNumber:
        return CyclotomicNumber.from_rational(1, modulus)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def __bool__(self) -> bool:
        return any(self.coeffs)

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
        step = modulus // self.modulus
        phi = euler_phi(modulus)
        out = [_ZERO] * phi
        for k, c in enumerate(self.coeffs):
            if c:
                for j, r in enumerate(_zeta_power(modulus, k * step)):
                    if r:
                        out[j] += c * r
        return CyclotomicNumber(modulus, out)

    # -- field operations ------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(
            self.modulus, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.modulus, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicNumber(
            self.modulus, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_rational():
            c = other.coeffs[0]
            if c == 1:
                return self
            return CyclotomicNumber(self.modulus, tuple(a * c for a in self.coeffs))
        if self.is_rational():
            c = self.coeffs[0]
            return CyclotomicNumber(self.modulus, tuple(c * b for b in other.coeffs))
        return CyclotomicNumber(
            self.modulus, _raw_mul(self.modulus, self.coeffs, other.coeffs)
        )

    __rmul__ = __mul__

    def invert(self) -> CyclotomicNumber:
        """Multiplicative inverse via the extended Euclidean algorithm
        against Phi_M (which is irreducible over Q)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            return CyclotomicNumber.from_rational(1 / self.coeffs[0], self.modulus)
        # extended Euclid: s*a + t*Phi = gcd (a nonzero of degree < phi,
        # Phi irreducible, so gcd is a nonzero constant)
        r0, r1 = cyclotomic_polynomial(self.modulus), _poly_trim(self.coeffs)
        s0, s1 = (), (_ONE,)
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert len(r0) == 1
        scale = 1 / r0[0]
        phi = euler_phi(self.modulus)
        inv = [c * scale for c in s0] + [_ZERO] * (phi - len(s0))
        return CyclotomicNumber(self.modulus, inv[:phi])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.invert()

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
            base = base * base
            n >>= 1
        return result

    # -- comparison and display -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, CyclotomicNumber):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"comparing cyclotomic numbers of moduli {self.modulus} "
                    f"and {other.modulus}; embed first"
                )
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.modulus, self.coeffs))

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(c)
            else:
                gen = f"w({self.modulus},1)" if k == 1 else f"w({self.modulus},1)^{k}"
                body = gen if abs(c) == 1 else f"{abs(c)}*{gen}"
                if c < 0 and not parts:
                    body = "-" + body
            if parts:
                parts.append(" - " if c < 0 and k > 0 else " + " if k > 0 else "")
                parts.append(body)
            else:
                parts.append(body)
        if not parts:
            return "0"
        return "".join(parts)

    def __repr__(self):
        return f"{self} @ Q(zeta_{self.modulus})"


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
    return CyclotomicNumber(modulus, _zeta_power(modulus, k))
