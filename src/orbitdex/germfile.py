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
reproduces the document.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import root_of_unity
from .jordan import (MAX_EXPONENT, MAX_MODULUS, JordanBlock, JordanSpec,
                     global_order)
from .polynomials import GermMap, Poly


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

_SYMBOLS = "{}=,;+-*/^()"
_DIGITS = string.digits
_NAME_START = string.ascii_letters + "_"
_NAME_CHARS = _NAME_START + _DIGITS


@dataclass(frozen=True)
class _Token:
    kind: str  # INT | NAME | symbol | EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
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
            tokens.append(_Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch in _NAME_START:
            start = i
            while i < n and text[i] in _NAME_CHARS:
                i += 1
            tokens.append(_Token("NAME", text[start:i], line, col))
            col += i - start
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise GermParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise GermParseError(message, tok.line, tok.col)

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            self.fail(f"expected {what or kind}, found {tok.text or 'end of input'}", tok)
        return tok

    def expect_name(self, name: str) -> _Token:
        tok = self.next()
        if tok.kind != "NAME" or tok.text != name:
            self.fail(f"expected '{name}', found {tok.text or 'end of input'}", tok)
        return tok

    def integer(self, digits: str, tok: _Token) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            self.fail(f"{digits[:12]}... has too many digits", tok)

    def expect_int(self, what: str, maximum: int = MAX_EXPONENT) -> int:
        tok = self.expect("INT", what)
        value = self.integer(tok.text, tok)
        if value > maximum:
            self.fail(f"{what} {value} exceeds the supported bound {maximum}", tok)
        return value

    # -- grammar ---------------------------------------------------------

    def document(self) -> GermDocument:
        spec = self.matrix_block()
        modulus = global_order(spec)
        coords = self.map_block(spec, modulus)
        self.expect("EOF", "end of input")
        return GermDocument(spec, GermMap(coords, nvars=spec.n, modulus=modulus))

    def matrix_block(self) -> JordanSpec:
        self.expect_name("matrix")
        self.expect("{")
        blocks = []
        modulus = 1
        while self.peek().kind == "NAME" and self.peek().text == "block":
            tok = self.peek()
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

    def map_block(self, spec: JordanSpec, modulus: int):
        self.expect_name("map")
        self.expect("{")
        n = spec.n
        coords: dict[int, Poly] = {}
        while not (self.peek().kind == "}"):
            tok = self.expect("NAME", "a coordinate name f1..f%d" % n)
            name = tok.text
            if not (name.startswith("f") and name[1:].isdigit()):
                self.fail(f"expected a coordinate name f1..f{n}", tok)
            index = self.integer(name[1:], tok)
            if not 1 <= index <= n:
                self.fail(f"coordinate {name} out of range 1..{n}", tok)
            if index - 1 in coords:
                self.fail(f"duplicate coordinate {name}", tok)
            self.expect("=")
            poly = self.expr(spec, modulus)
            self.expect(";")
            if not poly.constant_term().is_zero():
                self.fail(f"coordinate {name} has a nonzero constant term", tok)
            coords[index - 1] = poly
        self.expect("}")
        missing = [f"f{j + 1}" for j in range(n) if j not in coords]
        if missing:
            self.fail(f"missing coordinate(s) {', '.join(missing)}")
        return [coords[j] for j in range(n)]

    def expr(self, spec: JordanSpec, modulus: int) -> Poly:
        n = spec.n
        total = Poly.zero(n, modulus)
        sign = 1
        tok = self.peek()
        if tok.kind in "+-":
            self.next()
            sign = -1 if tok.kind == "-" else 1
        while True:
            total = total + self.term(spec, modulus) * sign
            tok = self.peek()
            if tok.kind in "+-":
                self.next()
                sign = -1 if tok.kind == "-" else 1
                continue
            return total

    def term(self, spec: JordanSpec, modulus: int) -> Poly:
        poly = self.atom(spec, modulus)
        while self.peek().kind == "*":
            self.next()
            poly = poly * self.atom(spec, modulus)
        return poly

    def atom(self, spec: JordanSpec, modulus: int) -> Poly:
        base = self.primary(spec, modulus)
        if self.peek().kind == "^":
            self.next()
            exponent = self.expect_int("exponent")
            base = base ** exponent
        return base

    def primary(self, spec: JordanSpec, modulus: int) -> Poly:
        n = spec.n
        tok = self.next()
        if tok.kind == "INT":
            value = Fraction(self.integer(tok.text, tok))
            if self.peek().kind == "/":
                self.next()
                den = self.expect_int("denominator", maximum=10**18)
                if den == 0:
                    self.fail("zero denominator", tok)
                value /= den
            return Poly.constant(value, n, modulus)
        if tok.kind == "NAME":
            name = tok.text
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
                return Poly.constant(root_of_unity(order, power, modulus), n, modulus)
            if name.startswith("L") and name[1:].isdigit():
                j = self.integer(name[1:], tok)
                if not 1 <= j <= spec.m:
                    self.fail(f"block index L{j} out of range 1..{spec.m}", tok)
                lam = spec.blocks[j - 1].eigenvalue(modulus)
                return Poly.constant(lam, n, modulus)
            if name.startswith("x") and name[1:].isdigit():
                j = self.integer(name[1:], tok)
                if not 1 <= j <= n:
                    self.fail(f"variable x{j} out of range 1..{n}", tok)
                return Poly.variable(j - 1, n, modulus)
        self.fail(f"expected a coefficient or variable, found "
                  f"{tok.text or 'end of input'}", tok)


def parse_germ(text: str) -> GermDocument:
    """Parse and validate a .germ document."""
    return _Parser(text).document()


# -- printer ------------------------------------------------------------------


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


def _format_polynomial(poly: Poly, spec: JordanSpec, coord: int) -> str:
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
