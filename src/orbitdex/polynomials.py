"""Sparse multivariate polynomials over Q(zeta_M), and polynomial germ maps.

A polynomial is a dict mapping exponent tuples to nonzero CyclotomicNumber
coefficients; the zero polynomial is the empty dict.  All coefficients of a
polynomial share one cyclotomic modulus, carried on the Poly itself so the
zero polynomial still knows its field.

A GermMap is a tuple of n such polynomials in n variables, each with zero
constant term (the map fixes the origin).  Composition, iteration with
optional degree truncation and coordinate projections live here;
everything is exact and immutable in spirit (no method mutates its
receiver).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from operator import itemgetter

from .cyclotomic import CyclotomicNumber, join_terms

Monomial = tuple[int, ...]

# Sparse products abort past this many terms unless the caller raises it.
DEFAULT_TERM_LIMIT = 200_000


class TermBudgetExceeded(RuntimeError):
    """An exact product grew past the configured term limit."""


def grevlex_key(mono: Monomial):
    """Sort key: ascending total degree, then x1-major within a degree."""
    return (sum(mono), tuple(reversed(mono)))


def _picker(indices):
    """A function from an exponent tuple to the tuple of its entries at
    indices, an itemgetter when there are two or more."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        index, = indices
        return lambda mono: (mono[index],)
    return lambda mono: ()


@lru_cache(maxsize=256)
def _restriction(nvars: int, keep: tuple[int, ...]):
    """(pick, dropped): the entries of an nvars-tuple at the sorted
    indices keep, and at the others."""
    return _picker(keep), _picker(
        tuple(sorted(set(range(nvars)).difference(keep))))


def monomial_factors(mono: Monomial) -> list[str]:
    """The variables of a monomial as factors: ["x1", "x2^3", ...]."""
    return [f"x{j + 1}" if mono[j] == 1 else f"x{j + 1}^{mono[j]}"
            for j in compress(range(len(mono)), mono)]


def _coerce_coeff(value, modulus: int) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        if value.modulus != modulus:
            raise ValueError(
                f"coefficient modulus {value.modulus} does not match "
                f"polynomial modulus {modulus}"
            )
        return value
    if isinstance(value, (int, Fraction)):
        return CyclotomicNumber.from_rational(value, modulus)
    raise TypeError(f"cannot use {value!r} as a coefficient")


class Poly:
    """Sparse exact polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "modulus", "terms")

    def __init__(self, nvars: int, modulus: int = 1, terms=None):
        self.nvars = nvars
        self.modulus = modulus
        clean: dict[Monomial, CyclotomicNumber] = {}
        if terms:
            for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
                mono = tuple(mono)
                if len(mono) != nvars or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono} for nvars={nvars}")
                coeff = _coerce_coeff(coeff, modulus)
                if not coeff.is_zero():
                    prev = clean.get(mono)
                    total = coeff if prev is None else prev + coeff
                    if total.is_zero():
                        clean.pop(mono, None)
                    else:
                        clean[mono] = total
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(nvars: int, modulus: int = 1) -> Poly:
        return Poly(nvars, modulus)

    @staticmethod
    def constant(value, nvars: int, modulus: int = 1) -> Poly:
        return Poly(nvars, modulus, {(0,) * nvars: value})

    @staticmethod
    def variable(index: int, nvars: int, modulus: int = 1) -> Poly:
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars}")
        mono = (0,) * index + (1,) + (0,) * (nvars - index - 1)
        return Poly(nvars, modulus)._wrap({mono: CyclotomicNumber.one(modulus)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lowest_degree(self) -> int:
        return min((sum(m) for m in self.terms), default=-1)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: Poly):
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
        if self.modulus != other.modulus:
            raise ValueError(
                f"coefficient field mismatch: zeta_{self.modulus} vs "
                f"zeta_{other.modulus}"
            )

    def _coerce_poly(self, other):
        if isinstance(other, Poly):
            self._check_compatible(other)
            return other
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return Poly.constant(other, self.nvars, self.modulus)
        return None

    def __add__(self, other):
        other = self._coerce_poly(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            prev = out.get(mono)
            total = coeff if prev is None else prev + coeff
            if total.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = total
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            c = _coerce_coeff(other, self.modulus)
            if c.is_zero():
                return Poly.zero(self.nvars, self.modulus)
            return self._wrap({m: k * c for m, k in self.terms.items()})
        if isinstance(other, Poly):
            return self.mul(other)
        return NotImplemented

    __rmul__ = __mul__

    def mul(self, other: Poly, trunc: int | None = None,
            term_limit: int = DEFAULT_TERM_LIMIT) -> Poly:
        """Exact product; with trunc, terms of total degree >= trunc are
        dropped as they are produced."""
        self._check_compatible(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.nvars, self.modulus)
        # iterate over the smaller factor outside
        a, b = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        b_items = sorted(b.terms.items(), key=lambda kv: sum(kv[0]))
        b_degs = [sum(m) for m, _ in b_items]
        out: dict[Monomial, CyclotomicNumber] = {}
        for mono_a, ca in a.terms.items():
            deg_a = sum(mono_a)
            for (mono_b, cb), deg_b in zip(b_items, b_degs):
                if trunc is not None and deg_a + deg_b >= trunc:
                    break  # b_items sorted by degree
                mono = tuple(x + y for x, y in zip(mono_a, mono_b))
                prod = ca * cb
                prev = out.get(mono)
                total = prod if prev is None else prev + prod
                if total.is_zero():
                    out.pop(mono, None)
                else:
                    out[mono] = total
            if len(out) > term_limit:
                raise TermBudgetExceeded(
                    f"product exceeded {term_limit} terms; pass a truncation "
                    f"degree or raise the limit"
                )
        return self._wrap(out)

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        if len(self.terms) == 1:
            # a monomial power is one term: (c x^e)^n = c^n x^(e n)
            (mono, c), = self.terms.items()
            return self._wrap({tuple(e * n for e in mono): c ** n})
        result = Poly.constant(1, self.nvars, self.modulus)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    # -- structure-specific operations --------------------------------------

    def truncate(self, degree: int) -> Poly:
        """Drop all terms of total degree >= degree."""
        return self._wrap(
            {m: c for m, c in self.terms.items() if sum(m) < degree}
        )

    def lowest_form(self) -> tuple[int, Poly]:
        """(m, sum of degree-m terms) for the minimal total degree m."""
        if not self.terms:
            raise ValueError("the zero polynomial has no lowest form")
        m = self.lowest_degree()
        return m, self._wrap({k: c for k, c in self.terms.items() if sum(k) == m})

    def monomial_content(self) -> Monomial:
        """Per-variable minimum exponent over all terms (the largest
        monomial dividing the polynomial); all zeros for the zero poly.
        Only a variable of the first term can divide every term, so the
        other terms are read at those variables only."""
        monos = iter(self.terms)
        first = next(monos, ())
        content = {v: first[v] for v in compress(range(self.nvars), first)}
        for mono in monos:
            if not content:
                break
            content = {v: min(e, mono[v]) for v, e in content.items() if mono[v]}
        if not content:
            return (0,) * self.nvars
        out = [0] * self.nvars
        for v, e in content.items():
            out[v] = e
        return tuple(out)

    def divide_monomial(self, mono) -> Poly:
        """Exact division by x^mono; every term must be divisible."""
        mono = tuple(mono)
        out = {}
        for m, c in self.terms.items():
            if any(e < f for e, f in zip(m, mono)):
                raise ValueError(f"term x^{m} not divisible by x^{mono}")
            out[tuple(e - f for e, f in zip(m, mono))] = c
        return self._wrap(out)

    def restrict_vars(self, keep) -> Poly:
        """Set variables outside keep to zero, then renumber the kept
        variables in increasing order of their old index.  The kept terms
        map to distinct monomials, so no coefficient merges or cancels."""
        keep = tuple(sorted(keep))
        pick, dropped = _restriction(self.nvars, keep)
        return self._wrap({pick(m): c for m, c in self.terms.items()
                           if not any(dropped(m))}, len(keep))

    def rename_vars(self, new_index, new_nvars: int) -> Poly:
        """Reindex variables: old variable j becomes new_index[j], read
        at the nonzero exponents only; terms that meet are added."""
        out = {}
        old = range(self.nvars)
        for m, c in self.terms.items():
            mono = [0] * new_nvars
            for j in compress(old, m):
                mono[new_index[j]] += m[j]
            mono = tuple(mono)
            prev = out.get(mono)
            if prev is None:
                out[mono] = c
            else:
                total = prev + c
                if total:
                    out[mono] = total
                else:
                    del out[mono]
        return self._wrap(out, new_nvars)

    def substitute(self, values, trunc: int | None = None,
                   term_limit: int = DEFAULT_TERM_LIMIT) -> Poly:
        """Evaluate at x_j = values[j], each a Poly in a common ring.

        Powers of the substituted values are cached across terms.  With
        trunc, all intermediate products are truncated at that degree;
        values whose lowest degree is >= 1 then make high powers vanish.
        """
        values = list(values)
        if len(values) != self.nvars:
            raise ValueError("substitute needs one value per variable")
        if not values:
            # 0-variable polynomial: a constant
            raise ValueError("cannot substitute into a 0-variable polynomial")
        target_nvars = values[0].nvars
        modulus = values[0].modulus
        one = Poly.constant(1, target_nvars, modulus)
        power_cache: dict[tuple[int, int], Poly] = {}

        def cached_power(j: int, e: int) -> Poly:
            key = (j, e)
            got = power_cache.get(key)
            if got is None:
                if e == 1:
                    got = values[j] if trunc is None else values[j].truncate(trunc)
                else:
                    half = cached_power(j, e // 2)
                    got = half.mul(half, trunc=trunc, term_limit=term_limit)
                    if e % 2:
                        got = got.mul(cached_power(j, 1), trunc=trunc,
                                      term_limit=term_limit)
                power_cache[key] = got
            return got

        total = Poly.zero(target_nvars, modulus)
        lowest = [max(v.lowest_degree(), 0) for v in values]
        for mono, coeff in self.terms.items():
            if trunc is not None:
                if sum(e * d for e, d in zip(mono, lowest)) >= trunc:
                    continue
            prod = one * coeff
            for j, e in enumerate(mono):
                if e:
                    prod = prod.mul(cached_power(j, e), trunc=trunc,
                                    term_limit=term_limit)
            total = total + prod
        return total

    def embed(self, modulus: int) -> Poly:
        if modulus == self.modulus:
            return self
        return Poly(
            self.nvars, modulus,
            {m: c.embed(modulus) for m, c in self.terms.items()},
        )

    # -- plumbing ---------------------------------------------------------

    def _wrap(self, terms: dict, nvars: int | None = None) -> Poly:
        """A Poly of this field over terms that are already valid: no
        validation, no copy."""
        p = object.__new__(Poly)
        p.nvars = self.nvars if nvars is None else nvars
        p.modulus = self.modulus
        p.terms = terms
        return p

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)) and other == 0:
                return self.is_zero()
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __repr__(self):
        return join_terms([piece for mono, coeff in self.sorted_terms()
                           for piece in coeff.terms(monomial_factors(mono))])


class GermMap:
    """A polynomial self-map of (C^n, 0): n coordinates, zero constant terms."""

    __slots__ = ("nvars", "modulus", "coords")

    def __init__(self, coords, nvars: int | None = None, modulus: int | None = None):
        coords = tuple(coords)
        if nvars is None:
            if not coords:
                raise ValueError("empty germ needs an explicit nvars=0")
            nvars = coords[0].nvars
        if modulus is None:
            modulus = coords[0].modulus if coords else 1
        if len(coords) != nvars:
            raise ValueError(
                f"a germ map needs exactly nvars={nvars} coordinates, "
                f"got {len(coords)}"
            )
        origin = (0,) * nvars
        for j, p in enumerate(coords):
            if p.nvars != nvars or p.modulus != modulus:
                raise ValueError(f"coordinate {j + 1} lives in the wrong ring")
            if origin in p.terms:
                raise ValueError(f"coordinate {j + 1} has a nonzero constant term")
        self.nvars = nvars
        self.modulus = modulus
        self.coords = coords

    def compose(self, inner: GermMap, trunc: int | None = None,
                term_limit: int = DEFAULT_TERM_LIMIT) -> GermMap:
        """self after inner (apply inner first)."""
        if inner.nvars != self.nvars or inner.modulus != self.modulus:
            raise ValueError("composition requires maps of one ring")
        if self.nvars == 0:
            return self
        values = list(inner.coords)
        return GermMap(
            [p.substitute(values, trunc=trunc, term_limit=term_limit)
             for p in self.coords],
            nvars=self.nvars, modulus=self.modulus,
        )

    def iterate(self, q: int, trunc: int | None = None,
                term_limit: int = DEFAULT_TERM_LIMIT) -> GermMap:
        """q-fold composition of the map with itself (q >= 1), built as
        f o f^k: the sparse map is the outer one at every step."""
        if q < 1:
            raise ValueError("iterate needs q >= 1")
        base = self if trunc is None else self.truncate(trunc)
        result = base
        for _ in range(q - 1):
            result = base.compose(result, trunc=trunc, term_limit=term_limit)
        return result

    def truncate(self, degree: int) -> GermMap:
        return GermMap([p.truncate(degree) for p in self.coords],
                       nvars=self.nvars, modulus=self.modulus)

    def minus_identity(self) -> GermMap:
        """The map x -> f(x) - x: 1 subtracted from the x_j coefficient
        of a copy of each coordinate j, the term dropped when it
        cancels."""
        one = CyclotomicNumber.one(self.modulus)
        coords = []
        for j, p in enumerate(self.coords):
            terms = dict(p.terms)
            mono = (0,) * j + (1,) + (0,) * (self.nvars - j - 1)
            prev = terms.get(mono)
            total = -one if prev is None else prev - one
            if total:
                terms[mono] = total
            else:
                del terms[mono]
            coords.append(p._wrap(terms))
        return GermMap(coords, nvars=self.nvars, modulus=self.modulus)

    def embed(self, modulus: int) -> GermMap:
        if modulus == self.modulus:
            return self
        return GermMap([p.embed(modulus) for p in self.coords],
                       nvars=self.nvars, modulus=modulus)

    def __eq__(self, other):
        if not isinstance(other, GermMap):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.modulus == other.modulus
            and self.coords == other.coords
        )

    def __repr__(self):
        body = ", ".join(repr(p) for p in self.coords)
        return f"({body})"


def variables(nvars: int, modulus: int = 1) -> list[Poly]:
    """Convenience: the coordinate polynomials x1..xn."""
    return [Poly.variable(j, nvars, modulus) for j in range(nvars)]
