"""The .germ file format: a Jordan matrix plus a polynomial map.

    # comment lines start with '#'
    matrix {
      block { size = 1, order = 2, power = 1 }
      block { size = 1, order = 3, power = 1 }
    }
    map {
      f1 = L1*x1 + x1^3 + x1*x2^3;
      f2 = L2*x2 + x2^4 + 2*x2*x1^2;
    }

Coefficient atoms are integers, rationals p/q, root literals w(d, r)
(meaning e^(2 pi i r/d); d must divide the matrix order M), and the
eigenvalue sugar L<j> for block j.  Every declared coordinate f1..fn must
appear exactly once and have a zero constant term.  All coefficients are
parsed into Q(zeta_M).

The printer emits a canonical form: terms in ascending degree (x1-major
within a degree), each cyclotomic coefficient expanded into its basis
components a0 + a1*w(M,1) + a2*w(M,1)^2 + ..., one printed term per
component so the grammar stays parenthesis-free.  parse(print(doc))
reproduces the document.  The terms are written by
CyclotomicNumber.terms and join_terms, which str(CyclotomicNumber) and
repr(Poly) use too; only the L<j> sugar is the printer's own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .cyclotomic import CyclotomicNumber, join_terms, root_of_unity
from .jordan import (MAX_EXPONENT, MAX_MODULUS, JordanBlock, JordanSpec,
                     global_order)
from .polynomials import GermMap, Poly, monomial_factors


class GermParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass(frozen=True)
class GermDocument:
    matrix: JordanSpec
    gmap: GermMap

    @property
    def modulus(self) -> int:
        return self.gmap.modulus


# -- tokenizer ----------------------------------------------------------------

# Python's default limit on int <-> str conversion; integers below
# _DIGIT_LIMIT have at most _MAX_DIGITS decimal digits
_MAX_DIGITS = 4300
_DIGIT_LIMIT = 10**_MAX_DIGITS
_LIMIT_BITS = _DIGIT_LIMIT.bit_length()   # 2^_LIMIT_BITS > _DIGIT_LIMIT

# Blanks and comments, then one token.  A comment that ends the text has
# no newline, so it is read as part of the end of input, which then sits
# at its '#'; any other character is an error.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]|\#[^\n]*\n)*
    (?: (?P<INT>[0-9]+)
      | (?P<NAME>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<SYMBOL>[{}=,;+\-*/^()])
      | (?P<EOF>(?:\#[^\n]*)?\Z)
      | (?P<BAD>.) )""", re.VERBOSE | re.DOTALL)

# (kind, text, offset); the kind of a symbol is the symbol itself
_Token = tuple[str, str, int]


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, col) of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        offset = match.start(kind)
        if kind == "EOF":
            tokens.append(("EOF", "", offset))
            return tokens
        token = match[kind]
        if kind == "BAD":
            raise GermParseError(f"unexpected character {token!r}",
                                 *_position(text, offset))
        tokens.append((token if kind == "SYMBOL" else kind, token, offset))


# A term: an exponent tuple and its coefficient, None for 1 (the term is
# a product of variables)
_Term = tuple[tuple[int, ...], CyclotomicNumber | None]


class _Parser:
    """Recursive descent over the tokens; spec, modulus and coord (the
    name token of the coordinate being read) are set as the document is
    read."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        offset = (tok or self.tokens[self.pos])[2]
        raise GermParseError(message, *_position(self.text, offset))

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.next()
        if tok[0] != kind:
            self.fail(f"expected {what or kind}, found {tok[1] or 'end of input'}", tok)
        return tok

    def expect_name(self, name: str) -> _Token:
        tok = self.next()
        if tok[0] != "NAME" or tok[1] != name:
            self.fail(f"expected '{name}', found {tok[1] or 'end of input'}", tok)
        return tok

    def integer(self, digits: str, tok: _Token) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            self.fail(f"{digits[:12]}... has too many digits", tok)

    def expect_int(self, what: str, maximum: int = MAX_EXPONENT) -> int:
        tok = self.expect("INT", what)
        value = self.integer(tok[1], tok)
        if value > maximum:
            self.fail(f"{what} {value} exceeds the supported bound {maximum}", tok)
        return value

    # -- grammar ---------------------------------------------------------

    def document(self) -> GermDocument:
        self.spec = self.matrix_block()
        self.modulus = global_order(self.spec)
        coords = self.map_block()
        self.expect("EOF", "end of input")
        return GermDocument(self.spec, GermMap(coords, nvars=self.spec.n,
                                               modulus=self.modulus))

    def matrix_block(self) -> JordanSpec:
        self.expect_name("matrix")
        self.expect("{")
        blocks = []
        modulus = 1
        while self.tokens[self.pos][:2] == ("NAME", "block"):
            tok = self.tokens[self.pos]
            blocks.append(self.block_decl())
            modulus = math.lcm(modulus, blocks[-1].order)
            if modulus > MAX_MODULUS:
                self.fail(f"matrix order {modulus} exceeds the supported "
                          f"bound {MAX_MODULUS}", tok)
        self.expect("}")
        if not blocks:
            self.fail("matrix must declare at least one block")
        return JordanSpec(tuple(blocks))

    def block_decl(self) -> JordanBlock:
        tok = self.expect_name("block")
        self.expect("{")
        fields = {}
        for i, name in enumerate(("size", "order", "power")):
            if i:
                self.expect(",")
            self.expect_name(name)
            self.expect("=")
            fields[name] = self.expect_int(name)
        self.expect("}")
        try:
            return JordanBlock(fields["size"], fields["order"], fields["power"])
        except ValueError as exc:
            self.fail(str(exc), tok)

    def map_block(self) -> list[Poly]:
        """The coordinates; each coefficient must be one the printer can
        write, and the error points at the coordinate name."""
        self.expect_name("map")
        self.expect("{")
        n = self.spec.n
        coords: dict[int, Poly] = {}
        while self.peek() != "}":
            tok = self.coord = self.expect("NAME", "a coordinate name f1..f%d" % n)
            name = tok[1]
            if not (name.startswith("f") and name[1:].isdigit()):
                self.fail(f"expected a coordinate name f1..f{n}", tok)
            index = self.integer(name[1:], tok)
            if not 1 <= index <= n:
                self.fail(f"coordinate {name} out of range 1..{n}", tok)
            if index - 1 in coords:
                self.fail(f"duplicate coordinate {name}", tok)
            self.expect("=")
            poly = self.expr()
            self.expect(";")
            if not poly.constant_term().is_zero():
                self.fail(f"coordinate {name} has a nonzero constant term", tok)
            for c in poly.terms.values():
                self.check_coefficient(c)
            coords[index - 1] = poly
        self.expect("}")
        missing = [f"f{j + 1}" for j in range(n) if j not in coords]
        if missing:
            self.fail(f"missing coordinate(s) {', '.join(missing)}")
        return [coords[j] for j in range(n)]

    def check_coefficient(self, c: CyclotomicNumber) -> None:
        """Refuse c if the printer cannot write it.  The printer writes
        each component num[k] / den in lowest terms, which can be in bound
        when den is not."""
        if (c.den < _DIGIT_LIMIT
                and all(-_DIGIT_LIMIT < n < _DIGIT_LIMIT for n in c.num)):
            return
        if any(abs(part) >= _DIGIT_LIMIT for comp in c.coeffs
               for part in (comp.numerator, comp.denominator)):
            self.refuse_digits()

    def refuse_digits(self):
        self.fail(f"coordinate {self.coord[1]} has a coefficient of more "
                  f"than {_MAX_DIGITS} digits, which cannot be printed",
                  self.coord)

    # A product of atoms is one monomial times one number, so each term is
    # built as a _Term, and only the sum of a coordinate's terms is a Poly.

    def expr(self) -> Poly:
        terms: dict[tuple, CyclotomicNumber] = {}
        one = CyclotomicNumber.one(self.modulus)
        sign = 1
        kind = self.peek()
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
            kind = self.peek()
            if kind in "+-":
                self.next()
                sign = -1 if kind == "-" else 1
                continue
            return Poly(self.spec.n, self.modulus, terms)

    def term(self) -> _Term:
        # every partial product is held under the digit bound, so no
        # product is formed from factors of more than _MAX_DIGITS digits
        mono, c = self.atom()
        if c is not None:
            self.check_coefficient(c)
        while self.peek() == "*":
            self.next()
            factor, d = self.atom()
            mono = tuple(map(add, mono, factor))
            if d is not None:
                c = d if c is None else c * d
                self.check_coefficient(c)
        return mono, c

    def atom(self) -> _Term:
        mono, c = self.primary()
        if self.peek() == "^":
            self.next()
            exponent = self.expect_int("exponent")
            mono = tuple(e * exponent for e in mono)
            if c is not None:
                # if |p| or q of a rational c = p/q is at least 2^b, the
                # numerator or denominator of c^e is at least 2^(b*e):
                # refuse such a power before computing it
                if c.is_rational() and exponent * (
                        max(abs(c.num[0]), c.den).bit_length() - 1) >= _LIMIT_BITS:
                    self.refuse_digits()
                c = c ** exponent
        return mono, c

    def primary(self) -> _Term:
        spec, modulus = self.spec, self.modulus
        n = spec.n
        tok = self.next()
        kind, name, _ = tok
        if kind == "INT":
            value = self.integer(name, tok)
            if self.peek() == "/":
                self.next()
                den = self.expect_int("denominator", maximum=_DIGIT_LIMIT - 1)
                if den == 0:
                    self.fail("zero denominator", tok)
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
                        f"order {modulus}", tok)
                return (0,) * n, root_of_unity(order, power, modulus)
            if name.startswith("L") and name[1:].isdigit():
                j = self.integer(name[1:], tok)
                if not 1 <= j <= spec.m:
                    self.fail(f"block index L{j} out of range 1..{spec.m}", tok)
                return (0,) * n, spec.blocks[j - 1].eigenvalue(modulus)
            if name.startswith("x") and name[1:].isdigit():
                j = self.integer(name[1:], tok)
                if not 1 <= j <= n:
                    self.fail(f"variable x{j} out of range 1..{n}", tok)
                return (0,) * (j - 1) + (1,) + (0,) * (n - j), None
        self.fail(f"expected a coefficient or variable, found "
                  f"{name or 'end of input'}", tok)


def parse_germ(text: str) -> GermDocument:
    """Parse and validate a .germ document."""
    return _Parser(text).document()


# -- printer ------------------------------------------------------------------


def _format_polynomial(poly: Poly, spec: JordanSpec, coord: int) -> str:
    block = spec.block_of(coord)
    lam = spec.blocks[block].eigenvalue(poly.modulus)
    own_linear = tuple(1 if j == coord else 0 for j in range(poly.nvars))
    pieces = []
    for mono, coeff in poly.sorted_terms():
        if mono == own_linear and coeff == lam:
            pieces.append((1, f"L{block + 1}*x{coord + 1}"))
        else:
            pieces.extend(coeff.terms(monomial_factors(mono)))
    return join_terms(pieces)


def print_germ(doc: GermDocument) -> str:
    """Canonical text form; parsing it reproduces the document."""
    lines = ["matrix {"]
    for b in doc.matrix.blocks:
        lines.append(
            f"  block {{ size = {b.size}, order = {b.order}, power = {b.power} }}"
        )
    lines.append("}")
    lines.append("map {")
    for j, poly in enumerate(doc.gmap.coords):
        lines.append(f"  f{j + 1} = {_format_polynomial(poly, doc.matrix, j)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
