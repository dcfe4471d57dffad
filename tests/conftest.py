"""Shared helpers: fixture discovery, a germ whose sixth iterate is not
isolated, seeded random samplers, a hypothesis strategy for the
matrices and parameters of the two germ families, two test-only views of the
multiplicity engine (the Cronin product and one truncated
quotient dimension, the latter through a reference echelon keyed by
exponent tuples that makes every pivot lead an integer, as the engine
did before it kept leads as they stand), a decoder of the engine's
packed monomial keys, a reference germ-term evaluator built on Poly
arithmetic, the character-at-a-time .germ tokenizer that the regex
tokenizer replaced,
the whole-text token list and the recursive-descent coordinate reader
that the token reader and the factor regex replaced, the per-writer term
formatters that CyclotomicNumber.terms and join_terms replaced, the
extended-Euclid inverse over Fractions that the integer Galois-adjugate
inverse replaced, and the dense Jordan and linear-part matrices with the
two-walk normal-form check and eigenvalue strip that the one-walk
validate_rnf replaced, Poly.constant_term, and the recursive _mult,
which peeled one single-variable coordinate per call and recursed on
every split, that the one-pass peel and the reduction loop over a stack
of systems replaced."""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
import string
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import strategies as st

from orbitdex import (GermMap, GermParseError, JordanBlock, JordanSpec, Poly,
                      germfile, parse_germ)
from orbitdex.cyclotomic import (CyclotomicNumber, cyclotomic_polynomial,
                                 root_of_unity)
from orbitdex.multiplicity import (_ELIM_TERM_BUDGET, DEFAULT_DEGREE_CAP,
                                   MultiplicityResult, NotIsolatedWithinBound,
                                   _check_square, _integral_rows,
                                   _lowest_isolated, _stabilize,
                                   _strip_content)
from orbitdex.jordan import MAX_EXPONENT, global_order
from orbitdex.polynomials import grevlex_key
from orbitdex.resonance import (NormalFormVerdict, ResonanceContext,
                                is_resonant_monomial)

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


# test_orbits.py's resonant_germs can draw this germ.  On the curve
# x1^2 = x2^3 it is (x1, x2) -> (-x1, L2*x2), of order 6, so f^6 fixes
# every point of it
NOT_ISOLATED_AT_6 = """
matrix {
  block { size = 1, order = 2, power = 1 }
  block { size = 1, order = 3, power = 1 }
}
map {
  f1 = -x1 + x1^5 - x1^3*x2^3;
  f2 = L2*x2 + x1^2*x2 - x2^4;
}
"""


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


ISOLATED_DRAWS = 10


def random_isolated_system(rng, nvars, max_degree=4):
    """A random germ map with an isolated zero at the origin: dominant
    pure powers per coordinate plus random higher noise.  A draw whose
    zero multiplicity does not certify is drawn again, at most
    ISOLATED_DRAWS times in all, so that an engine that certifies
    nothing fails the test instead of hanging it."""
    from orbitdex import NotIsolatedWithinBound, multiplicity

    for _ in range(ISOLATED_DRAWS):
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
    raise AssertionError(
        f"no isolated system in {ISOLATED_DRAWS} draws of {nvars} "
        f"coordinates of degree <= {max_degree}")


# Block orders of the two germ families: strict divisibility chains, and
# chains followed by one block of order coprime to the chain top.
FAMILY_CHAINS = [(1,), (2,), (1, 2), (2, 4), (1, 3), (2, 6), (1, 2, 4),
                 (1, 3, 6), (2, 4, 8)]
FAMILY_TAILS = [2, 3, 4, 5]


@st.composite
def family_parameters(draw):
    """(spec, r, cross) of a random chain germ (cross None) or
    chain-plus-coprime-block germ: blocks of sizes 1-3 with
    eigenvalue-compatible powers, and parameters 1-4, so that
    r_m * r_0 = cross_0 and r_t = 1, cross_t = r_m, where two terms of
    the coprime family cancel, both come up."""
    chain = draw(st.sampled_from(FAMILY_CHAINS))
    tails = [d for d in FAMILY_TAILS if math.gcd(d, chain[-1]) == 1]
    tail = draw(st.sampled_from([None] + tails))
    orders = list(chain) + ([] if tail is None else [tail])
    powers: list[int] = []
    for j, d in enumerate(orders):
        powers.append(draw(st.sampled_from(
            [p for p in range(1, d + 1) if math.gcd(p, d) == 1
             and (j == 0 or j == len(chain)
                  or (p - powers[-1]) % orders[j - 1] == 0)])))
    spec = JordanSpec(tuple(JordanBlock(draw(st.integers(1, 3)), d, p)
                            for d, p in zip(orders, powers)))
    r = [draw(st.integers(1, 4)) for _ in orders]
    cross = None if tail is None else [draw(st.integers(1, 4)) for _ in chain]
    return spec, r, cross


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


def _integer_lead_adopt(row: dict, col) -> dict:
    """The pivot row made of row with an integer lead: a lead at col that
    is not rational is multiplied by den * lead^-1, which is integral and
    turns the lead into the integer den; then the content is stripped.
    The engine stores the row with its lead as it stands instead."""
    lead = row[col]
    if not isinstance(lead, int) and not lead.is_rational():
        inv = lead.invert()
        scale = inv * inv.den
        row = {m: c * scale for m, c in row.items()}
    _strip_content(row)
    return row


class ReferenceEchelon:
    """The engine's fraction-free elimination with columns keyed by
    exponent tuples, pivot = first nonzero column in grevlex order, and
    every pivot lead made an integer (_integer_lead_adopt).  It shares
    the ring helpers with the engine but neither its key layout nor its
    lead scaling, so a fault in the packed keys or in eliminating with a
    non-rational lead cannot cancel out against it."""

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
                pivots[col] = _integer_lead_adopt(row, col)
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


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, offset, end) of every .germ token, read one at a time
    by the parser's token reader."""
    tokens, offset = [], 0
    while True:
        tokens.append(germfile._token_at(text, offset))
        if tokens[-1][0] == "EOF":
            return tokens
        offset = tokens[-1][3]


class ReferenceParser(germfile._Parser):
    """The parser with the recursive descent over tokens that the factor
    regex replaced: the whole text is tokenized first, and a coordinate
    is read by expr, term, atom and primary, one method call per token,
    each term built as an n-tuple and a CyclotomicNumber per factor, and
    every coefficient of the coordinate checked once it is read."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def coordinate(self):
        poly = self.expr()
        self.expect(";")
        return poly.terms, list(poly.terms)

    def expr(self) -> Poly:
        terms: dict[tuple, CyclotomicNumber] = {}
        one = CyclotomicNumber.one(self.modulus)
        sign = 1
        kind = self.peek()[0]
        if kind in "+-":
            self.next()
            sign = -1 if kind == "-" else 1
        while True:
            mono, c = self.term()
            if c is None:
                c = one
            if c:
                if sign < 0:
                    c = -c
                prev = terms.get(mono)
                total = c if prev is None else prev + c
                if total:
                    terms[mono] = total
                else:
                    del terms[mono]
            kind = self.peek()[0]
            if kind in "+-":
                self.next()
                sign = -1 if kind == "-" else 1
                continue
            return Poly(self.spec.n, self.modulus, terms)

    def term(self):
        mono, c = self.atom()
        if c is not None:
            self.check_coefficient(c)
        while self.peek()[0] == "*":
            self.next()
            tok = self.peek()
            factor, d = self.atom()
            mono = tuple(map(operator.add, mono, factor))
            top = max(mono)
            if top > MAX_EXPONENT:
                self.fail(f"exponent {top} exceeds the supported bound "
                          f"{MAX_EXPONENT}", tok[2])
            if d is not None:
                c = d if c is None else c * d
                self.check_coefficient(c)
        return mono, c

    def atom(self):
        mono, c = self.primary()
        if self.peek()[0] == "^":
            self.next()
            exponent = self.expect_int("exponent")
            mono = tuple(e * exponent for e in mono)
            if c is not None:
                if c.is_rational() and exponent * (
                        max(abs(c.num[0]), c.den).bit_length() - 1
                ) >= germfile._LIMIT_BITS:
                    self.refuse_digits()
                c = c ** exponent
        return mono, c

    def primary(self):
        spec, modulus = self.spec, self.modulus
        n = spec.n
        tok = self.next()
        kind, name, at, _ = tok
        if kind == "INT":
            value = self.integer(name, at)
            if self.peek()[0] == "/":
                self.next()
                den = self.expect_int("denominator",
                                      maximum=germfile._DIGIT_LIMIT - 1)
                if den == 0:
                    self.fail("zero denominator", at)
                value = Fraction(value, den)
            return (0,) * n, CyclotomicNumber.from_rational(value, modulus)
        if kind == "NAME":
            if name == "w":
                self.expect("(")
                order = self.expect_int("root order")
                self.expect(",")
                power = self.expect_int("root power", maximum=10**18)
                self.expect(")")
                if order < 1 or modulus % order != 0:
                    self.fail(
                        f"root order {order} does not divide the matrix "
                        f"order {modulus}", at)
                return (0,) * n, root_of_unity(order, power, modulus)
            if name.startswith("L") and name[1:].isdigit():
                j = self.integer(name[1:], at)
                if not 1 <= j <= spec.m:
                    self.fail(f"block index L{j} out of range 1..{spec.m}", at)
                return (0,) * n, spec.blocks[j - 1].eigenvalue(modulus)
            if name.startswith("x") and name[1:].isdigit():
                j = self.integer(name[1:], at)
                if not 1 <= j <= n:
                    self.fail(f"variable x{j} out of range 1..{n}", at)
                return (0,) * (j - 1) + (1,) + (0,) * (n - j), None
        self.fail(f"expected a coefficient or variable, found "
                  f"{name or 'end of input'}", at)


def reference_parse_germ(text: str):
    return ReferenceParser(text).document()


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


# -- the extended-Euclid inverse over Q[z] and its Fraction helpers ---------

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    top = len(den) - 1
    lead = den[top]
    quo = [0] * max(len(num) - top, 0)
    lower = [(i, c) for i, c in enumerate(den[:top]) if c]
    for shift in range(len(quo) - 1, -1, -1):
        factor = num[shift + top]
        if factor:
            if lead != 1:
                factor /= lead
            quo[shift] = factor
            for i, c in lower:
                num[shift + i] -= factor * c
    return _poly_trim(quo), _poly_trim(num[:top])


def reference_invert(self) -> CyclotomicNumber:
    """Multiplicative inverse via the extended Euclidean algorithm
    against Phi_M (which is irreducible over Q)."""
    if self.is_zero():
        raise ZeroDivisionError("inverse of zero cyclotomic number")
    if self.is_rational():
        return CyclotomicNumber.from_rational(
            Fraction(self.den, self.num[0]), self.modulus)
    # extended Euclid: s*a + t*Phi = gcd (a nonzero of degree < phi,
    # Phi irreducible, so gcd is a nonzero constant)
    r0 = tuple(map(Fraction, cyclotomic_polynomial(self.modulus)))
    r1 = _poly_trim(self.coeffs)
    s0, s1 = (), (_ONE,)
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    assert len(r0) == 1
    scale = 1 / r0[0]
    phi = len(self.num)
    inv = [c * scale for c in s0] + [_ZERO] * (phi - len(s0))
    return CyclotomicNumber(self.modulus, inv[:phi])


# -- dense matrices and the two-walk normal-form gate -------------------------

def jordan_matrix(spec: JordanSpec, modulus: int | None = None):
    """The full n x n matrix over Q(zeta_modulus)."""
    if modulus is None:
        modulus = global_order(spec)
    n = spec.n
    zero = CyclotomicNumber.zero(modulus)
    rows = [[zero] * n for _ in range(n)]
    for j, b in enumerate(spec.blocks):
        lam = b.eigenvalue(modulus)
        for c in range(spec.offsets[j], spec.offsets[j + 1]):
            rows[c][c] = lam
            if c + 1 < spec.offsets[j + 1]:
                rows[c][c + 1] = CyclotomicNumber.one(modulus)
    return rows


def linear_part(f: GermMap) -> list[list[CyclotomicNumber]]:
    """Matrix of degree-1 coefficients, row j = coordinate j."""
    n = f.nvars
    zero = CyclotomicNumber.zero(f.modulus)
    rows = []
    for p in f.coords:
        row = []
        for i in range(n):
            mono = tuple(1 if k == i else 0 for k in range(n))
            row.append(p.terms.get(mono, zero))
        rows.append(row)
    return rows


def reference_validate_rnf(spec: JordanSpec, f: GermMap) -> NormalFormVerdict:
    """Linear part must equal the Jordan matrix exactly; every nonlinear
    term must be resonant."""
    if f.nvars != spec.n:
        raise ValueError(
            f"map has {f.nvars} variables but the matrix is {spec.n} x {spec.n}"
        )
    m = global_order(spec)
    f = f.embed(math.lcm(f.modulus, m))
    matrix = jordan_matrix(spec, f.modulus)
    got = linear_part(f)
    linear_bad = []
    for i in range(spec.n):
        for j in range(spec.n):
            if got[i][j] != matrix[i][j]:
                linear_bad.append((i, j))
    ctx = ResonanceContext.of(spec)
    nonres = []
    for coord, p in enumerate(f.coords):
        for mono in sorted(p.terms):
            if sum(mono) >= 2 and not is_resonant_monomial(ctx, mono, coord):
                nonres.append((coord, mono))
    return NormalFormVerdict(
        ok=not linear_bad and not nonres,
        linear_mismatch=tuple(linear_bad),
        nonresonant=tuple(nonres),
    )


def reference_strip_eigenvalues(spec: JordanSpec, f: GermMap) -> GermMap:
    """Subtract the diagonal eigenvalue part of the linear term, keeping
    superdiagonal ones and all nonlinear terms.  The linear part of f
    must equal the matrix exactly."""
    m = global_order(spec)
    f = f.embed(math.lcm(f.modulus, m))
    matrix = jordan_matrix(spec, f.modulus)
    got = linear_part(f)
    if got != matrix:
        raise ValueError("the linear part of the map is not the given matrix")
    coords = []
    for j, p in enumerate(f.coords):
        lam = matrix[j][j]
        coords.append(p - Poly.variable(j, f.nvars, f.modulus) * lam)
    return GermMap(coords, nvars=f.nvars, modulus=f.modulus)


# -- the constant term and the recursive multiplicity reductions -------------

def constant_term(p: Poly) -> CyclotomicNumber:
    zero_mono = (0,) * p.nvars
    return p.terms.get(zero_mono, CyclotomicNumber.zero(p.modulus))


def _drop_coordinate_and_variable(coords, drop_coord: int, var: int):
    keep = [j for j in range(coords[0].nvars) if j != var]
    return [
        p.restrict_vars(keep)
        for j, p in enumerate(coords)
        if j != drop_coord
    ]


class _Context:
    __slots__ = ("cap", "engine_used", "top_certificate")

    def __init__(self, cap: int):
        self.cap = cap
        self.engine_used = False
        self.top_certificate = None


def reference_mult(coords: list[Poly], ctx: _Context, top: bool) -> int:
    nvars = coords[0].nvars if coords else 0
    if nvars == 0:
        return 1
    modulus = coords[0].modulus

    for j, p in enumerate(coords):
        if p.is_zero():
            raise NotIsolatedWithinBound(
                ctx.cap, witness=f"a coordinate vanishes identically "
                                 f"(position {j + 1} of a reduced system)",
                definite=True)
        if not constant_term(p).is_zero():
            # the system has no zero at the origin at all
            return 0

    # single-variable coordinate: set that variable to zero and drop it
    for j, p in enumerate(coords):
        if len(p.terms) == 1:
            (mono, _), = p.terms.items()
            if sum(mono) == 1:
                var = mono.index(1)
                return reference_mult(
                    _drop_coordinate_and_variable(coords, j, var), ctx, False)

    # a variable missing from every coordinate gives a product zero set
    used = [False] * nvars
    gcds = [0] * nvars
    for p in coords:
        for mono in p.terms:
            for i, e in enumerate(mono):
                if e:
                    used[i] = True
                    gcds[i] = math.gcd(gcds[i], e)
    if not all(used):
        miss = used.index(False)
        raise NotIsolatedWithinBound(
            ctx.cap, witness=f"variable x{miss + 1} appears in no coordinate, "
                             f"so the zero set contains its axis",
            definite=True)

    # common exponent gcd: divide out, scale by the product
    if any(g >= 2 for g in gcds):
        factor = math.prod(gcds)
        reduced = [
            Poly(nvars, modulus,
                 {tuple(e // g for e, g in zip(m, gcds)): c
                  for m, c in p.terms.items()})
            for p in coords
        ]
        return factor * reference_mult(reduced, ctx, False)

    # monomial content: split additively, one variable factor at a time
    for j, p in enumerate(coords):
        content = p.monomial_content()
        if any(content):
            total = 0
            for i, a in enumerate(content):
                if a:
                    branch = list(coords)
                    branch[j] = Poly.variable(i, nvars, modulus)
                    total += a * reference_mult(branch, ctx, False)
            branch = list(coords)
            branch[j] = p.divide_monomial(content)
            total += reference_mult(branch, ctx, False)
            return total

    # Cronin fast path: product of lowest degrees when the lowest system
    # has 0 as its only common zero
    degrees, isolated = _lowest_isolated(coords, nvars, ctx.cap)
    if isolated:
        return math.prod(degrees)
    cronin_witness = None
    if isolated is False:
        cronin_witness = (
            "the lowest-degree homogeneous system has a positive-dimensional "
            "zero set (evidence of a non-isolated zero, not a proof)"
        )

    # solve out a variable that occurs linearly in one coordinate and in
    # no other term of that coordinate
    for j, p in enumerate(coords):
        for i in range(nvars):
            linear_mono = tuple(1 if k == i else 0 for k in range(nvars))
            c = p.terms.get(linear_mono)
            if c is None:
                continue
            rest = p - Poly(nvars, modulus, {linear_mono: c})
            if any(m[i] for m in rest.terms):
                continue
            solution = rest * (-(c.invert()))
            # substitution size guard: skip when it could blow up
            max_exp = max((m[i] for q in coords for m in q.terms), default=0)
            if len(solution.terms) ** max(max_exp, 1) > _ELIM_TERM_BUDGET:
                continue
            values = [Poly.variable(k, nvars, modulus) for k in range(nvars)]
            values[i] = solution
            new_coords = [
                q.substitute(values) for k, q in enumerate(coords) if k != j
            ]
            keep = [k for k in range(nvars) if k != i]
            new_coords = [q.restrict_vars(keep) for q in new_coords]
            return reference_mult(new_coords, ctx, False)

    # general engine
    ctx.engine_used = True
    value, d_star, dims = _stabilize(coords, nvars, ctx.cap,
                                     witness=cronin_witness)
    if top:
        ctx.top_certificate = (d_star, dims)
    return value


def reference_multiplicity(f: GermMap, degree_cap: int = DEFAULT_DEGREE_CAP):
    """multiplicity(f, degree_cap) with the recursive reference_mult in
    place of the reduction loop."""
    _check_square(f)
    ctx = _Context(degree_cap)
    value = reference_mult(list(f.coords), ctx, True)
    if ctx.top_certificate is not None:
        d_star, dims = ctx.top_certificate
        return MultiplicityResult(value, fast_path=False,
                                  stabilized_at=d_star, quotient_dims=dims)
    return MultiplicityResult(value, fast_path=not ctx.engine_used)
