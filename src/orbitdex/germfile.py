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

The matrix block and the coordinate names are read token by token.  The
body of each coordinate is read factor by factor, each factor and the
separator after it by one regex match, and each term becomes one
exponent tuple and one CyclotomicNumber when it ends; a factor that the
regex does not match, or whose numbers are out of bound, is read again
token by token for the error and its position.  A character that no
token can hold is refused first, wherever it stands.

The printer emits a canonical form: terms in ascending degree (x1-major
within a degree), each cyclotomic coefficient expanded into its basis
components a0 + a1*w(M,1) + a2*w(M,1)^2 + ..., one printed term per
component so the grammar stays parenthesis-free.  parse(print(doc))
reproduces the document.  The terms are written by
CyclotomicNumber.terms and join_terms, which str(CyclotomicNumber) and
repr(Poly) use too; only the L<j> sugar is the printer's own.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicNumber, join_terms
from .jordan import (MAX_DIMENSION, MAX_EXPONENT, MAX_MODULUS, GermParseError,
                     JordanBlock, JordanSpec, global_order)
from .polynomials import GermMap, Poly, monomial_factors


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
# The bound on r in a root literal w(d, r)
_MAX_ROOT_POWER = 10**18

# Blanks and comments between two tokens
_BLANKS = r"(?:[ \t\r\n]|\#[^\n]*\n)*"

# Blanks and comments, then one token.  A comment that ends the text has
# no newline, so it is read as part of the end of input, which then sits
# at its '#'; any other character is an error.
_TOKEN = re.compile(_BLANKS + r"""
    (?: (?P<INT>[0-9]+)
      | (?P<NAME>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<SYMBOL>[{}=,;+\-*/^()])
      | (?P<EOF>(?:\#[^\n]*)?\Z)
      | (?P<BAD>.) )""", re.VERBOSE | re.DOTALL)

# Every character that a token or a blank can hold, and comments: the
# first character past a match is the first that _TOKEN reads as BAD
_TEXT = re.compile(r"(?:[ \t\r\n{}=,;+\-*/^()A-Za-z_0-9]+|\#[^\n]*)*")

# One factor of a term and the separator after it: INT, INT/INT,
# w(INT,INT), L<j> or x<j>, with an optional ^INT.  Every INT ends at a
# non-digit and every name at a non-name character, and a missing
# denominator or exponent is asserted absent, so the regex matches
# exactly a factor of the grammar, read as the tokens read it; sep is
# None when the next token is not * + - or ;.
_FACTOR = re.compile(rf"""
    {_BLANKS}
    (?: (?P<num>[0-9]+)(?![0-9])
        (?: {_BLANKS} / {_BLANKS} (?P<den>[0-9]+)(?![0-9]) | (?!{_BLANKS}/) )
      | w {_BLANKS} \( {_BLANKS} (?P<order>[0-9]+) {_BLANKS} ,
        {_BLANKS} (?P<power>[0-9]+) {_BLANKS} \)
      | (?P<name>[Lx]) (?P<index>[0-9]+) (?![A-Za-z_0-9]) )
    (?: {_BLANKS} \^ {_BLANKS} (?P<exp>[0-9]+)(?![0-9]) | (?!{_BLANKS}\^) )
    {_BLANKS} (?P<sep>[*+\-;])?""", re.VERBOSE)

# (kind, text, offset, end); the kind of a symbol is the symbol itself
_Token = tuple[str, str, int, int]


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based (line, col) of a character offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _token_at(text: str, offset: int) -> _Token:
    """The token after the blanks and comments at offset."""
    match = _TOKEN.match(text, offset)
    kind = match.lastgroup
    start = match.start(kind)
    if kind == "EOF":
        return "EOF", "", start, start
    token = match[kind]
    if kind == "BAD":
        raise GermParseError(f"unexpected character {token!r}",
                             *_position(text, start))
    return token if kind == "SYMBOL" else kind, token, start, match.end()


@functools.lru_cache(maxsize=None)
def _root_height(modulus: int, power: int) -> int:
    """The largest absolute component of z^power in Q(zeta_modulus)."""
    return max(map(abs, CyclotomicNumber.from_rational(1, modulus, power).num))


class _Parser:
    """Reads the document token by token, and each coordinate of the map
    factor by factor with _FACTOR; spec, modulus and coord (the name
    token of the coordinate being read) are set as the document is
    read."""

    def __init__(self, text: str):
        # a character no token can hold is refused before anything is read
        bad = _TEXT.match(text).end()
        if bad < len(text):
            raise GermParseError(f"unexpected character {text[bad]!r}",
                                 *_position(text, bad))
        self.text = text
        self.offset = 0

    def peek(self) -> _Token:
        return _token_at(self.text, self.offset)

    def next(self) -> _Token:
        tok = _token_at(self.text, self.offset)
        self.offset = tok[3]
        return tok

    def fail(self, message: str, offset: int | None = None):
        if offset is None:
            offset = self.peek()[2]
        raise GermParseError(message, *_position(self.text, offset))

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.next()
        if tok[0] != kind:
            self.fail(f"expected {what or kind}, found {tok[1] or 'end of input'}",
                      tok[2])
        return tok

    def expect_name(self, name: str) -> _Token:
        tok = self.next()
        if tok[0] != "NAME" or tok[1] != name:
            self.fail(f"expected '{name}', found {tok[1] or 'end of input'}", tok[2])
        return tok

    def integer(self, digits: str, offset: int) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            self.fail(f"{digits[:12]}... has too many digits", offset)

    def expect_int(self, what: str, maximum: int = MAX_EXPONENT) -> int:
        tok = self.expect("INT", what)
        value = self.integer(tok[1], tok[2])
        if value > maximum:
            self.fail(f"{what} {value} exceeds the supported bound {maximum}",
                      tok[2])
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
        modulus, n = 1, 0
        while (tok := self.peek())[:2] == ("NAME", "block"):
            blocks.append(self.block_decl())
            modulus = math.lcm(modulus, blocks[-1].order)
            if modulus > MAX_MODULUS:
                self.fail(f"matrix order {modulus} exceeds the supported "
                          f"bound {MAX_MODULUS}", tok[2])
            n += blocks[-1].size
            if n > MAX_DIMENSION:
                self.fail(f"matrix dimension {n} exceeds the supported "
                          f"bound {MAX_DIMENSION}", tok[2])
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
            self.fail(str(exc), tok[2])

    def map_block(self) -> list[Poly]:
        """The coordinates; each coefficient must be one the printer can
        write, and the error points at the coordinate name."""
        self.expect_name("map")
        self.expect("{")
        n = self.spec.n
        self.eigenpowers = [b.power * (self.modulus // b.order) % self.modulus
                            for b in self.spec.blocks]
        coords: dict[int, Poly] = {}
        while self.peek()[0] != "}":
            tok = self.coord = self.expect("NAME", "a coordinate name f1..f%d" % n)
            name = tok[1]
            if not (name.startswith("f") and name[1:].isdigit()):
                self.fail(f"expected a coordinate name f1..f{n}", tok[2])
            index = self.integer(name[1:], tok[2])
            if not 1 <= index <= n:
                self.fail(f"coordinate {name} out of range 1..{n}", tok[2])
            if index - 1 in coords:
                self.fail(f"duplicate coordinate {name}", tok[2])
            self.expect("=")
            terms, merged = self.coordinate()
            if (0,) * n in terms:
                self.fail(f"coordinate {name} has a nonzero constant term", tok[2])
            for mono in merged:
                if mono in terms:
                    self.check_coefficient(terms[mono])
            coords[index - 1] = Poly(n, self.modulus)._wrap(terms)
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

    def check_product(self, q, r: int) -> None:
        """check_coefficient of q * z^r, q rational, formed only when it
        may be out of bound: its num is at most q's numerator times the
        largest component of z^r, over at most q's denominator."""
        if (q.denominator < _DIGIT_LIMIT and abs(q.numerator)
                * _root_height(self.modulus, r) < _DIGIT_LIMIT):
            return
        self.check_coefficient(CyclotomicNumber.from_rational(q, self.modulus, r))

    def refuse_digits(self):
        self.fail(f"coordinate {self.coord[1]} has a coefficient of more "
                  f"than {_MAX_DIGITS} digits, which cannot be printed",
                  self.coord[2])

    # A coordinate is read factor by factor with _FACTOR.  The tokens of
    # a factor that matches are checked by plain comparisons; a factor
    # that does not match, or whose tokens fail a check, is read again by
    # refuse_factor, token by token, which raises the error the grammar
    # reports first.  A term is kept as a rational q (an int or a
    # Fraction), a root power r (its roots of unity multiply to z^r) and
    # a sparse exponent dict, and becomes one monomial and one
    # CyclotomicNumber when it ends.  Every partial product is held under
    # the digit bound and every exponent under MAX_EXPONENT, so that the
    # printed term parses back.

    def coordinate(self) -> tuple[dict, list]:
        """The terms of the coordinate from here to its ';', and the
        monomials whose coefficients merged from several terms."""
        text, n, modulus = self.text, self.spec.n, self.modulus
        blocks, eigenpowers = self.spec.m, self.eigenpowers
        tok = self.peek()
        sign = 1
        if tok[0] in "+-":
            self.offset = tok[3]
            sign = -1 if tok[0] == "-" else 1
        offset = self.offset
        terms: dict[tuple, CyclotomicNumber] = {}
        merged = []
        q, r, exps = 1, 0, {}
        while True:
            m = _FACTOR.match(text, offset)
            if m is None:
                self.refuse_factor(offset)
            num, den, order, power, name, index, exp, sep = m.groups()
            try:
                e = 1 if exp is None else int(exp)
                if num is not None:
                    d = int(num)
                    if den is not None:
                        b = int(den)
                        valid = 0 < b < _DIGIT_LIMIT
                        if valid:
                            d = Fraction(d, b)
                    else:
                        valid = True
                elif name is None:
                    o, k = int(order), int(power)
                    valid = (0 < o <= MAX_EXPONENT and k <= _MAX_ROOT_POWER
                             and modulus % o == 0)
                    if valid:
                        k = k * (modulus // o) % modulus
                else:
                    j = int(index) - 1
                    valid = 0 <= j < (n if name == "x" else blocks)
            except ValueError:  # more digits than int() converts
                valid = False
            if not valid or e > MAX_EXPONENT:
                self.refuse_factor(offset)
            if name == "x":
                exps[j] = total = exps.get(j, 0) + e
                if total > MAX_EXPONENT:
                    self.fail(f"exponent {total} exceeds the supported bound "
                              f"{MAX_EXPONENT}", m.start("name"))
            else:
                if num is None:
                    r = (r + (eigenpowers[j] if name else k) * e) % modulus
                else:
                    if exp is not None:
                        # if |p| or q of d = p/q is at least 2^b, the
                        # numerator or denominator of d^e is at least
                        # 2^(b*e): refuse such a power before computing it
                        if e * (max(d.numerator, d.denominator).bit_length() - 1) \
                                >= _LIMIT_BITS:
                            self.refuse_digits()
                        d = d ** e
                    q *= d
                if r or type(q) is not int or not -_DIGIT_LIMIT < q < _DIGIT_LIMIT:
                    self.check_product(q, r)
            if sep == "*":
                offset = m.end()
                continue
            if q:
                if exps:
                    mono = [0] * n
                    for v, x in exps.items():
                        mono[v] = x
                    mono = tuple(mono)
                else:
                    mono = (0,) * n
                c = CyclotomicNumber.from_rational(q if sign > 0 else -q,
                                                   modulus, r)
                prev = terms.get(mono)
                if prev is None:
                    terms[mono] = c
                else:
                    total = prev + c
                    if total:
                        terms[mono] = total
                        merged.append(mono)
                    else:
                        del terms[mono]
            self.offset = offset = m.end()
            if sep == "+" or sep == "-":
                sign = -1 if sep == "-" else 1
                q, r, exps = 1, 0, {}
                continue
            if sep is None:
                self.expect(";")
            return terms, merged

    def refuse_factor(self, offset: int):
        """Raise the error of the factor at offset: it is read token by
        token, each token checked as it is reached, up to the token where
        the factor breaks off or fails a check."""
        self.offset = offset
        kind, name, at, _ = self.next()
        if kind == "INT":
            self.integer(name, at)
            if self.peek()[0] == "/":
                self.next()
                if self.expect_int("denominator", maximum=_DIGIT_LIMIT - 1) == 0:
                    self.fail("zero denominator", at)
        elif name == "w":
            self.expect("(")
            order = self.expect_int("root order")
            self.expect(",")
            self.expect_int("root power", maximum=_MAX_ROOT_POWER)
            self.expect(")")
            if order < 1 or self.modulus % order != 0:
                self.fail(f"root order {order} does not divide the matrix "
                          f"order {self.modulus}", at)
        elif name[:1] in ("L", "x") and name[1:].isdigit():
            j, spec = self.integer(name[1:], at), self.spec
            if name[0] == "x" and not 1 <= j <= spec.n:
                self.fail(f"variable x{j} out of range 1..{spec.n}", at)
            if name[0] == "L" and not 1 <= j <= spec.m:
                self.fail(f"block index L{j} out of range 1..{spec.m}", at)
        else:
            self.fail(f"expected a coefficient or variable, found "
                      f"{name or 'end of input'}", at)
        if self.peek()[0] == "^":
            self.next()
            self.expect_int("exponent")
        raise AssertionError(f"no error in the factor at offset {offset}")


def parse_germ(text: str) -> GermDocument:
    """Parse and validate a .germ document."""
    return _Parser(text).document()


# -- printer ------------------------------------------------------------------


def _format_polynomial(poly: Poly, coord: int, block: int,
                       lam: CyclotomicNumber) -> str:
    """Coordinate coord, of the 0-based block with eigenvalue lam, as
    text; its own linear term is written L<block>*x<coord> when its
    coefficient is lam."""
    own_linear = (0,) * coord + (1,) + (0,) * (poly.nvars - coord - 1)
    pieces = []
    for mono, coeff in poly.sorted_terms():
        if mono == own_linear and coeff == lam:
            pieces.append((1, f"L{block + 1}*x{coord + 1}"))
        else:
            pieces.extend(coeff.terms(monomial_factors(mono)))
    return join_terms(pieces)


def print_germ(doc: GermDocument) -> str:
    """Canonical text form; parsing it reproduces the document."""
    spec, gmap = doc.matrix, doc.gmap
    lines = ["matrix {"]
    for b in spec.blocks:
        lines.append(
            f"  block {{ size = {b.size}, order = {b.order}, power = {b.power} }}"
        )
    lines.append("}")
    lines.append("map {")
    for block, (b, start, stop) in enumerate(zip(spec.blocks, spec.offsets,
                                                 spec.offsets[1:])):
        lam = b.eigenvalue(gmap.modulus)
        for j in range(start, stop):
            text = _format_polynomial(gmap.coords[j], j, block, lam)
            lines.append(f"  f{j + 1} = {text};")
    lines.append("}")
    return "\n".join(lines) + "\n"
