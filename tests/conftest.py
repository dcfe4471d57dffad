"""Shared helpers: fixture discovery, seeded random samplers, two
test-only views of the multiplicity engine (the Cronin product and one
truncated quotient dimension, the latter through a reference echelon
keyed by exponent tuples), a decoder of the engine's packed monomial
keys, a reference germ-term evaluator built on Poly arithmetic, the
character-at-a-time .germ tokenizer that the regex tokenizer replaced,
and the per-writer term formatters that CyclotomicNumber.terms and
join_terms replaced."""

from __future__ import annotations

import heapq
import itertools
import math
import random
import string
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from orbitdex import GermMap, GermParseError, JordanSpec, Poly, parse_germ
from orbitdex.cyclotomic import root_of_unity
from orbitdex.multiplicity import (DEFAULT_DEGREE_CAP, _adopt, _check_square,
                                   _integral_rows, _lowest_isolated,
                                   _strip_content)
from orbitdex.polynomials import grevlex_key

SEED = 20260810


@pytest.fixture
def rng():
    return random.Random(SEED)


def fixture_dir() -> Path:
    return Path(str(resources.files("orbitdex") / "fixtures"))


def load_fixtures():
    """All bundled (name, document) pairs, sorted by name."""
    out = []
    for path in sorted(fixture_dir().glob("*.germ")):
        out.append((path.stem, parse_germ(path.read_text())))
    return out


def random_rational(rng, small=True) -> Fraction:
    num = rng.choice([-2, -1, 1, 2, 3]) if small else rng.randint(-9, 9) or 1
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_poly(rng, nvars, max_degree, max_terms=4, modulus=1,
                min_degree=1) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            mono = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            if min_degree <= sum(mono) <= max_degree:
                break
        terms[mono] = random_rational(rng)
    return Poly(nvars, modulus, terms)


def random_isolated_system(rng, nvars, max_degree=4):
    """A random germ map with an isolated zero at the origin: dominant
    pure powers per coordinate plus random higher noise."""
    from orbitdex import NotIsolatedWithinBound, multiplicity

    while True:
        coords = []
        for j in range(nvars):
            power = rng.randint(1, max_degree)
            p = Poly.variable(j, nvars) ** power
            p = p + random_poly(rng, nvars, max_degree,
                                max_terms=2, min_degree=max(power, 1))
            coords.append(p)
        f = GermMap(coords, nvars=nvars)
        if any(c.is_zero() for c in coords):
            continue
        try:
            value = multiplicity(f).value
        except NotIsolatedWithinBound:
            continue
        if value > 0:
            return f, value


def cronin(f: GermMap, degree_cap: int = DEFAULT_DEGREE_CAP) -> int | None:
    """Product of the lowest degrees when the lowest-degree homogeneous
    system has only the trivial zero; None when it does not (the order is
    then strictly larger) or when the decision exceeds the cap."""
    _check_square(f)
    for j, p in enumerate(f.coords):
        if p.is_zero():
            raise ValueError(
                f"coordinate {j + 1} is identically zero; the origin is not "
                f"an isolated zero")
    if f.nvars == 0:
        return 1
    degrees, isolated = _lowest_isolated(f.coords, f.nvars, degree_cap)
    return math.prod(degrees) if isolated else None


class ReferenceEchelon:
    """The engine's fraction-free elimination with columns keyed by
    exponent tuples, pivot = first nonzero column in grevlex order.  It
    shares the ring helpers with the engine but none of its key layout,
    so a fault in the packed keys cannot cancel out against it."""

    _STRIP_EVERY = 8

    def __init__(self):
        self.pivots: dict[tuple, dict] = {}
        self.pivot_degrees = Counter()

    def insert(self, row: dict) -> tuple | None:
        pivots = self.pivots
        heap = [grevlex_key(m) + (m,) for m in row]
        heapq.heapify(heap)
        steps = 0
        while heap:
            col = heapq.heappop(heap)[-1]
            if col not in row:
                continue  # cancelled earlier (lazy deletion)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = _adopt(row, col)
                self.pivot_degrees[sum(col)] += 1
                return col
            factor = row.pop(col)
            steps += 1
            lead = prow[col]
            if lead != 1:
                for m in row:
                    row[m] *= lead
            for m, c in prow.items():
                if m == col:
                    continue
                delta = factor * c
                cur = row.get(m)
                if cur is None:
                    row[m] = -delta
                    heapq.heappush(heap, grevlex_key(m) + (m,))
                else:
                    total = cur - delta
                    if total:
                        row[m] = total
                    else:
                        del row[m]
            if steps % self._STRIP_EVERY == 0:
                _strip_content(row)
        return None

    def pivots_below(self, degree: int) -> int:
        return sum(c for d, c in self.pivot_degrees.items() if d < degree)


def truncated_quotient_dim(f: GermMap, d: int) -> int:
    """dim K[x]_{<d} modulo span{ trunc(x^a f_i, d) : |a| < d }."""
    _check_square(f)
    if d < 1:
        raise ValueError("truncation degree must be >= 1")
    nvars = f.nvars
    if nvars == 0:
        return 1
    ech, rows = ReferenceEchelon(), _integral_rows(f.coords)
    alphas = [a for a in itertools.product(range(d), repeat=nvars)
              if sum(a) < d]
    for alpha in sorted(alphas, key=grevlex_key):
        for terms in rows:
            shifted = {tuple(map(sum, zip(m, alpha))): c
                       for m, c in terms.items()}
            ech.insert({m: c for m, c in shifted.items() if sum(m) < d})
    return math.comb(d - 1 + nvars, nvars) - ech.pivots_below(d)


def unpack_key(key: int, nvars: int, bits: int) -> tuple[int, ...]:
    """The exponent tuple of a packed engine key, read field by field:
    x1 in the lowest bits-wide field, then x2, ..., xn, and the total
    degree above them, which must match."""
    mask = (1 << bits) - 1
    mono = tuple(key >> (i * bits) & mask for i in range(nvars))
    assert key >> (nvars * bits) == sum(mono), (key, nvars, bits)
    return mono


def poly_of_terms(terms, spec, modulus: int) -> Poly:
    """A coordinate written as signed products of factors, evaluated with
    Poly arithmetic.  terms is a list of (sign, factors); a factor is
    (atom, exponent or None), and an atom is ("int", p, q) for p/q,
    ("w", d, r), ("L", j) or ("x", j), as in the .germ grammar."""
    n = spec.n
    total = Poly.zero(n, modulus)
    for sign, factors in terms:
        product = Poly.constant(1, n, modulus)
        for atom, exponent in factors:
            kind = atom[0]
            if kind == "int":
                value = Poly.constant(Fraction(atom[1], atom[2]), n, modulus)
            elif kind == "w":
                value = Poly.constant(root_of_unity(atom[1], atom[2], modulus),
                                      n, modulus)
            elif kind == "L":
                value = Poly.constant(spec.blocks[atom[1] - 1].eigenvalue(modulus),
                                      n, modulus)
            else:
                value = Poly.variable(atom[1] - 1, n, modulus)
            product = product * (value if exponent is None else value ** exponent)
        total = total + product * sign
    return total


_SYMBOLS = "{}=,;+-*/^()"
_DIGITS = string.digits
_NAME_START = string.ascii_letters + "_"
_NAME_CHARS = _NAME_START + _DIGITS


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) of each .germ token, read one character at
    a time; a comment that ends the text leaves the end of input at its
    '#'."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            tokens.append(("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch in _NAME_START:
            start = i
            while i < n and text[i] in _NAME_CHARS:
                i += 1
            tokens.append(("NAME", text[start:i], line, col))
            col += i - start
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise GermParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def reference_cyclotomic_str(self) -> str:
    """str of a CyclotomicNumber as its own writer formatted it."""
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


def _format_rational(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else \
        f"{value.numerator}/{value.denominator}"


def _printed_term(coeff_abs: Fraction, wpower: int, mono, modulus: int) -> str:
    factors = []
    if coeff_abs != 1:
        factors.append(_format_rational(coeff_abs))
    if wpower == 1:
        factors.append(f"w({modulus},1)")
    elif wpower > 1:
        factors.append(f"w({modulus},1)^{wpower}")
    for j, e in enumerate(mono):
        if e == 1:
            factors.append(f"x{j + 1}")
        elif e > 1:
            factors.append(f"x{j + 1}^{e}")
    if not factors:
        factors.append("1")
    return "*".join(factors)


def reference_format_polynomial(poly: Poly, spec: JordanSpec, coord: int) -> str:
    """One coordinate of a .germ map as the printer's own writer
    formatted it."""
    if poly.is_zero():
        return "0"
    modulus = poly.modulus
    block = spec.block_of(coord)
    lam = spec.blocks[block].eigenvalue(modulus)
    own_linear = tuple(1 if j == coord else 0 for j in range(poly.nvars))
    pieces: list[tuple[int, str]] = []  # (sign, body)
    for mono, coeff in poly.sorted_terms():
        if mono == own_linear and coeff == lam:
            pieces.append((1, f"L{block + 1}*x{coord + 1}"))
            continue
        for k, comp in enumerate(coeff.coeffs):
            if comp == 0:
                continue
            sign = 1 if comp > 0 else -1
            pieces.append((sign, _printed_term(abs(comp), k, mono, modulus)))
    out = []
    for idx, (sign, body) in enumerate(pieces):
        if idx == 0:
            out.append(("-" if sign < 0 else "") + body)
        else:
            out.append((" - " if sign < 0 else " + ") + body)
    return "".join(out)
