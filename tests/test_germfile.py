import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitdex import (GermDocument, GermMap, GermParseError, JordanBlock,
                      JordanSpec, Poly, parse_germ, print_germ)
from orbitdex.cyclotomic import CyclotomicNumber, euler_phi, root_of_unity
from orbitdex.germfile import _format_polynomial, _position
from orbitdex.jordan import MAX_DIMENSION, global_order
from conftest import (constant_term, jordan_matrix, linear_part, load_fixtures,
                      poly_of_terms, reference_cyclotomic_str,
                      reference_format_polynomial, reference_parse_germ,
                      reference_tokenize, tokenize)

CANONICAL = """\
matrix {
  block { size = 1, order = 2, power = 1 }
  block { size = 1, order = 3, power = 1 }
}
map {
  f1 = L1*x1 + x1^3 + x1*x2^3;
  f2 = L2*x2 + 2*x1^2*x2 + x2^4;
}
"""


def test_parse_two_block_document():
    doc = parse_germ(CANONICAL)
    assert doc.modulus == 6
    assert doc.gmap.nvars == 2
    assert doc.matrix.blocks == (JordanBlock(1, 2, 1), JordanBlock(1, 3, 1))
    lp = linear_part(doc.gmap)
    assert lp[0][0] == root_of_unity(2, 1, 6)
    assert lp[1][1] == root_of_unity(3, 1, 6)
    # round trip through the printer reproduces the canonical form
    assert print_germ(doc) == CANONICAL


def test_comments_whitespace_and_sugar():
    text = """
    # leading comment
    matrix { block { size = 2, order = 4, power = 3 } }
    map {
      f1 = L1*x1 + x2;      # chain coordinate
      f2 = w(4,3)*x2 + 1/2*x1^5;
    }
    """
    doc = parse_germ(text)
    assert doc.modulus == 4
    lp = linear_part(doc.gmap)
    assert lp[0][0] == root_of_unity(4, 3, 4)
    assert lp[0][1] == 1


@pytest.mark.parametrize("text, fragment", [
    ("matrix { block { size = 1, order = 2, power = 1 } }\n"
     "map { f1 = L1*x1 + 1 + x1^2; }", "constant term"),
    ("matrix { block { size = 1, order = 2, power = 1 }\n"
     "         block { size = 1, order = 3, power = 1 } }\n"
     "map { f1 = L1*x1; }", "missing coordinate"),
    ("matrix { block { size = 1, order = 2, power = 1 } }\n"
     "map { f1 = L1*x1; f1 = x1^3; }", "duplicate"),
    ("matrix { block { size = 1, order = 2, power = 1 } }\n"
     "map { f1 = w(4,1)*x1; }", "does not divide"),
    ("matrix { block { size = 1, order = 2, power = 1 } }\n"
     "map { f1 = L1*x1 + x1^2000001; }", "exceeds"),
    ("matrix { block { size = 1, order = 2, power = 1 } }\n"
     "map { f1 = L2*x1; }", "out of range"),
    ("matrix { block { size = 1, order = 2, power = 1 } }\n"
     "map { f1 = x3; }", "out of range"),
    ("matrix { block { size = 1, order = 4, power = 2 } }\n"
     "map { f1 = L1*x1; }", "gcd"),
    ("matrix { }\nmap { }", "at least one block"),
    ("matrix { block { size = 1, order = 2, power = 1 } }\n"
     "map { f1 = ; }", "expected a coefficient"),
    ("matrix { block { size = 1, order = 2, power = 1 } }\n"
     "map { f1 = L1*x1 }", "expected ;"),
])
def test_positioned_errors(text, fragment):
    with pytest.raises(GermParseError) as err:
        parse_germ(text)
    message = str(err.value)
    assert fragment in message
    assert message.startswith("line ")


def test_error_position_points_at_line():
    text = ("matrix { block { size = 1, order = 2, power = 1 } }\n"
            "map {\n  f1 = L1*x1 + $;\n}")
    with pytest.raises(GermParseError) as err:
        parse_germ(text)
    assert err.value.line == 3


def test_cyclotomic_coefficient_round_trip():
    text = ("matrix { block { size = 1, order = 6, power = 1 } }\n"
            "map { f1 = L1*x1 + w(6,2)*x1^7; }")
    doc = parse_germ(text)
    printed = print_germ(doc)
    # zeta_6^2 reduces to -1 + zeta_6: printed as two basis terms
    assert "- x1^7 + w(6,1)*x1^7" in printed
    assert parse_germ(printed) == doc


def test_zero_coordinate_prints_as_zero():
    text = "matrix { block { size = 1, order = 1, power = 1 } }\nmap { f1 = 0; }"
    doc = parse_germ(text)
    assert "f1 = 0;" in print_germ(doc)
    assert parse_germ(print_germ(doc)) == doc


def test_round_trip_on_bundled_fixtures():
    for name, doc in load_fixtures():
        printed = print_germ(doc)
        again = parse_germ(printed)
        assert again == doc, name
        assert print_germ(again) == printed, name


@st.composite
def random_documents(draw):
    orders = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]),
                           min_size=1, max_size=2, unique=True))
    blocks = tuple(JordanBlock(draw(st.integers(1, 2)), d, 1) for d in orders)
    spec = JordanSpec(blocks)
    import math
    from functools import reduce
    modulus = reduce(math.lcm, orders)
    n = spec.n
    matrix = jordan_matrix(spec, modulus)
    coords = []
    for j in range(n):
        p = Poly.zero(n, modulus)
        for k in range(n):
            if not matrix[j][k].is_zero():
                p = p + Poly.variable(k, n, modulus) * matrix[j][k]
        extra = draw(st.integers(0, 2))
        for _ in range(extra):
            mono = tuple(draw(st.integers(0, 3)) for _ in range(n))
            if sum(mono) < 1:
                continue
            coeff = root_of_unity(modulus, draw(st.integers(0, modulus - 1)),
                                  modulus) * draw(st.sampled_from([-2, 1, 3]))
            p = p + Poly(n, modulus, {mono: coeff})
        coords.append(p)
    return GermDocument(spec, GermMap(coords, nvars=n, modulus=modulus))


@settings(max_examples=40, deadline=None)
@given(random_documents())
def test_round_trip_random_documents(doc):
    printed = print_germ(doc)
    assert parse_germ(printed) == doc
    assert print_germ(parse_germ(printed)) == printed


# -- terms: the parser against Poly arithmetic -------------------------------


def _atom_text(atom) -> str:
    kind = atom[0]
    if kind == "int":
        return str(atom[1]) if atom[2] == 1 else f"{atom[1]}/{atom[2]}"
    if kind == "w":
        return f"w({atom[1]},{atom[2]})"
    return f"{kind}{atom[1]}"


def _terms_text(terms) -> str:
    out = []
    for i, (sign, factors) in enumerate(terms):
        body = "*".join(_atom_text(a) if e is None else f"{_atom_text(a)}^{e}"
                        for a, e in factors)
        out.append(("-" if sign < 0 else "+" if i else "") + body)
    return " ".join(out)


@st.composite
def random_term_documents(draw):
    """A matrix and, per coordinate, a list of signed products of
    coefficients, roots w(d,r), eigenvalues L_j and variables (repeated
    ones too), with powers including ^0, and some terms repeated with
    the other sign and their factors reordered, so that they cancel."""
    orders = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]),
                           min_size=1, max_size=2, unique=True))
    spec = JordanSpec(tuple(
        JordanBlock(draw(st.integers(1, 2)), d, draw(st.sampled_from(
            [p for p in range(1, d + 1) if math.gcd(p, d) == 1])))
        for d in orders))
    modulus = global_order(spec)
    n = spec.n
    atom = st.one_of(
        st.tuples(st.just("int"), st.integers(0, 12), st.integers(1, 5)),
        st.tuples(st.just("w"),
                  st.sampled_from([d for d in range(1, modulus + 1)
                                   if modulus % d == 0]),
                  st.integers(0, 13)),
        st.tuples(st.just("L"), st.integers(1, len(orders))),
        st.tuples(st.just("x"), st.integers(1, n)),
        st.tuples(st.just("x"), st.integers(1, n)))
    factor = st.tuples(atom, st.sampled_from([None, None, 0, 1, 2, 3]))
    variable = st.tuples(st.tuples(st.just("x"), st.integers(1, n)),
                         st.sampled_from([None, 1, 2]))

    def term():
        factors = draw(st.lists(factor, min_size=1, max_size=4))
        # most terms get a variable of positive degree, so that most
        # coordinates have no constant term
        if draw(st.integers(0, 7)):
            factors.insert(draw(st.integers(0, len(factors))), draw(variable))
        return draw(st.sampled_from([1, -1])), factors

    coords = []
    for _ in range(n):
        terms = [term() for _ in range(draw(st.integers(1, 6)))]
        for sign, factors in draw(st.lists(st.sampled_from(terms), max_size=2)):
            terms.append((-sign, draw(st.permutations(factors))))
        coords.append(draw(st.permutations(terms)))
    return spec, modulus, coords


@settings(max_examples=150, deadline=None)
@given(random_term_documents())
def test_parsed_terms_match_poly_arithmetic(case):
    spec, modulus, coords = case
    matrix = "\n".join(f"block {{ size = {b.size}, order = {b.order}, "
                       f"power = {b.power} }}" for b in spec.blocks)
    body = "\n".join(f"f{j + 1} = {_terms_text(terms)};"
                     for j, terms in enumerate(coords))
    text = f"matrix {{\n{matrix}\n}}\nmap {{\n{body}\n}}\n"
    want = [poly_of_terms(terms, spec, modulus) for terms in coords]
    constant = next((j for j, p in enumerate(want)
                     if not constant_term(p).is_zero()), None)
    if constant is not None:
        with pytest.raises(GermParseError,
                           match=f"coordinate f{constant + 1} has a nonzero "
                                 f"constant term"):
            parse_germ(text)
        return
    doc = parse_germ(text)
    assert doc.modulus == modulus
    assert list(doc.gmap.coords) == want


# -- the factor reader against the recursive-descent reference --------------

# What may sit between two tokens: nothing, blanks, and comments, one of
# them holding the separators ';' and '*' and a whole factor
_GAPS = ["", "", " ", "  ", "\n", "\t", "\r\n", " # x1; 2*x2 ^ 3\n",
         "#;*\n", "\n  # w(4,1)*L1 - f2 = ;\n  "]
_TEXT_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|\S")


def _parse_outcome(parse, text):
    """The document as matrix, modulus and each coordinate's terms in
    order, or the message and position of the parse error."""
    try:
        doc = parse(text)
    except GermParseError as exc:
        return str(exc), exc.line, exc.col
    return doc.matrix, doc.modulus, [list(p.terms.items())
                                     for p in doc.gmap.coords]


@st.composite
def spaced_term_documents(draw):
    """A document of random_term_documents' coordinates, with a gap drawn
    from _GAPS before every token of the map block."""
    spec, modulus, coords = draw(random_term_documents())
    matrix = "\n".join(f"block {{ size = {b.size}, order = {b.order}, "
                       f"power = {b.power} }}" for b in spec.blocks)
    tokens = ["map", "{"]
    for j, terms in enumerate(coords):
        tokens += [f"f{j + 1}", "=", *_TEXT_TOKEN.findall(_terms_text(terms)),
                   ";"]
    tokens.append("}")
    rnd = draw(st.randoms(use_true_random=False))
    body = "".join(rnd.choice(_GAPS) + tok for tok in tokens)
    return f"matrix {{\n{matrix}\n}}\n{body}"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spaced_term_documents())
def test_factor_reader_matches_the_reference_reader(text):
    assert (_parse_outcome(parse_germ, text)
            == _parse_outcome(reference_parse_germ, text))


# edits that break a factor, a separator or a bound, or only move tokens
_EDITS = ["", " ", "\n", "#;\n", "*", "+", "-", ";", "/", "^", "(", ")", ",",
          "0", "1", "9", "x", "x1", "x9", "L", "L1", "L9", "w", "w(4,1)",
          "w(0,1)", "w(5,1)", "1/0", "^1000001", "x1^1000000", "7^6000",
          "9" * 4400, "x" + "1" * 4400, "f1", "}", "$"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spaced_term_documents(), st.lists(
    st.tuples(st.floats(0, 1), st.integers(0, 3), st.sampled_from(_EDITS)),
    min_size=1, max_size=3))
def test_factor_reader_refuses_as_the_reference_reader(text, edits):
    """A document with a few characters deleted and tokens inserted,
    mostly inside the map block: both readers give the same document or
    the same message at the same line and column."""
    start = text.index("map")
    for where, deleted, inserted in edits:
        at = start + int(where * (len(text) - start))
        text = text[:at] + inserted + text[at + deleted:]
    assert (_parse_outcome(parse_germ, text)
            == _parse_outcome(reference_parse_germ, text))


def test_a_bad_character_is_refused_before_any_other_error():
    """A character that no token can hold is refused wherever it stands,
    as when the whole text was tokenized before it was read."""
    text = ("matrix { block { size = 1, order = 2, power = 1 } }\n"
            "map { f1 = L1*x9 + 7^6000*x1; }  $\n")
    with pytest.raises(GermParseError,
                       match=r"unexpected character '\$'") as exc:
        parse_germ(text)
    assert (exc.value.line, exc.value.col) == (2, 34)
    assert (_parse_outcome(parse_germ, text)
            == _parse_outcome(reference_parse_germ, text))


# -- parser fuzzing: whatever the text, the only failure is GermParseError ----

_CANONICAL_TOKENS = re.findall(r"\w+|\S", CANONICAL)
# grammar tokens, near misses, and integers at and past the parser's bounds
_SOUP = ["matrix", "block", "map", "size", "order", "power", "{", "}", "=",
         ",", ";", "+", "-", "*", "/", "^", "(", ")", "#", "\n", "w", "L0",
         "L1", "L3", "x0", "x1", "x3", "f0", "f1", "f3", "y", "$", "\u00b2",
         "0", "1", "2", "3", "6", "720", "1000000", str(10**6 + 1), "99999999",
         str(10**18 + 1),
         "9" * 5000, "x" + "1" * 5000]


@st.composite
def token_soup(draw):
    """The canonical document with tokens inserted, replaced or dropped,
    or tokens strung together with no document around them."""
    tokens = list(draw(st.sampled_from([_CANONICAL_TOKENS, []])))
    edits = draw(st.lists(st.tuples(st.integers(0, len(tokens)),
                                    st.sampled_from("ird"),
                                    st.sampled_from(_SOUP)), max_size=12))
    for pos, op, tok in edits:
        pos = min(pos, len(tokens))
        if op == "i":
            tokens.insert(pos, tok)
        elif pos < len(tokens):
            if op == "r":
                tokens[pos] = tok
            else:
                del tokens[pos]
    return " ".join(tokens)


def _canonical_with(old, new):
    return CANONICAL.replace(old, new, 1)


def _single_block(order):
    return (f"matrix {{ block {{ size = 1, order = {order}, power = 1 }} }}\n"
            f"map {{ f1 = L1*x1 + w({order},{order - 1})*x1^2; }}\n")


ORDER_720 = _single_block(720)
ORDER_1000000 = _single_block(1000000)


def test_high_power_root_literal():
    # z^719 reduced mod Phi_720 (phi = 192) once overflowed the recursion limit
    assert parse_germ(ORDER_720).modulus == 720
    assert root_of_unity(720, 719) * root_of_unity(720, 1) == 1


def test_matrix_order_bound():
    start = time.monotonic()
    with pytest.raises(GermParseError, match="matrix order 1000000 exceeds "
                                             "the supported bound 2048"):
        parse_germ(ORDER_1000000)
    assert time.monotonic() - start < 1
    # each order is under the bound, their lcm 3072 is not: the error
    # points at the block that crosses it
    text = ("matrix {\n  block { size = 1, order = 1024, power = 1 }\n"
            "  block { size = 1, order = 3, power = 1 }\n}\nmap { }\n")
    with pytest.raises(GermParseError, match="matrix order 3072") as exc:
        parse_germ(text)
    assert (exc.value.line, exc.value.col) == (3, 3)


def test_matrix_dimension_bound():
    """The blocks may add up to MAX_DIMENSION (the parse goes on to the
    map); one more is refused at the block that crosses the bound."""
    def text(last):
        return ("matrix {\n  block { size = 1, order = 2, power = 1 }\n"
                f"  block {{ size = {last}, order = 3, power = 1 }}\n}}\n"
                "map { }\n")

    with pytest.raises(GermParseError, match="missing coordinate"):
        parse_germ(text(MAX_DIMENSION - 1))
    with pytest.raises(GermParseError,
                       match=f"matrix dimension {MAX_DIMENSION + 1} exceeds "
                             f"the supported bound {MAX_DIMENSION}") as exc:
        parse_germ(text(MAX_DIMENSION))
    assert (exc.value.line, exc.value.col) == (3, 3)


def test_coefficient_digit_bound():
    # 7^6000 has 5071 digits, more than int <-> str converts: the printer
    # could not write it, so the parser refuses it at the coordinate
    text = ("matrix { block { size = 1, order = 2, power = 1 } }\n"
            "map { f1 = L1*x1 + 7^6000*x1^3; }\n")
    with pytest.raises(GermParseError, match="more than 4300 digits") as exc:
        parse_germ(text)
    assert (exc.value.line, exc.value.col) == (2, 7)
    # 7^4000 has 3381 digits and round-trips; so does a denominator over
    # 10^18, which the printer writes as one integer literal
    for coeff in ("7^4000", "1/7^30"):
        doc = parse_germ(text.replace("7^6000", coeff))
        assert parse_germ(print_germ(doc)) == doc


def test_constant_factors_bounded_before_they_are_formed():
    # each factor 7^1000000 has 845099 digits; it is refused before it
    # is computed, so eight of them cost no more than one
    factors = "*".join(["7^1000000"] * 8)
    text = ("matrix { block { size = 1, order = 2, power = 1 } }\n"
            f"map {{ f1 = L1*x1 + {factors}*x1^3; }}\n")
    start = time.monotonic()
    with pytest.raises(GermParseError, match="more than 4300 digits") as exc:
        parse_germ(text)
    assert time.monotonic() - start < 1
    assert (exc.value.line, exc.value.col) == (2, 7)
    # so is a denominator, and a product of factors that are each in bound
    for body in ("1/7^1000000", "7^3000*7^3000"):
        with pytest.raises(GermParseError, match="more than 4300 digits"):
            parse_germ(text.replace(factors, body))
    # roots of unity stay bounded under any power, and 2^14000 (4215
    # digits) is in bound
    parse_germ(text.replace(factors, "w(2,1)^1000000*2^14000"))
    # the bound is on what the printer writes, each component in lowest
    # terms: 1/3^8000 (3817 digits) and 1/5^6000 (4194 digits) print,
    # though their common denominator has 8011 digits
    text = ("matrix { block { size = 1, order = 4, power = 1 } }\n"
            "map { f1 = L1*x1 + 1/3^8000*x1^2 + 1/5^6000*w(4,1)*x1^2; }\n")
    doc = parse_germ(text)
    assert doc.gmap.coords[0].terms[(2,)].den >= 10**4300
    print_germ(doc)


def test_monomial_exponent_bound():
    # each factor is in bound but their product x1^2000000 is not, and
    # the printer would write it as one power that the parser refuses:
    # the term is refused at the factor that crosses the bound
    text = ("matrix { block { size = 1, order = 2, power = 1 } }\n"
            "map { f1 = L1*x1 + x1^1000000*x1^1000000; }\n")
    with pytest.raises(GermParseError,
                       match="exponent 2000000 exceeds the supported bound "
                             "1000000") as exc:
        parse_germ(text)
    assert (exc.value.line, exc.value.col) == (2, 31)
    doc = parse_germ(text.replace("x1^1000000*x1^1000000", "x1^999999*x1"))
    assert (1000000,) in doc.gmap.coords[0].terms
    assert parse_germ(print_germ(doc)) == doc


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), token_soup()))
@example(_canonical_with("L1*x1", "w(0,1)*x1"))
@example(_canonical_with("2*x1", "1/0*x1"))
@example(_canonical_with("L1", "L0"))
@example(_canonical_with("x2^4", "x2^1000001"))
@example(_canonical_with("size = 1", "size = 99999999"))
@example(_canonical_with("x2^4", "x2^\u00b2"))
@example(_canonical_with("2*x1", "9" * 5000 + "*x1"))
@example(_canonical_with("x2^4", "x" + "2" * 5000))
@example(ORDER_720)
@example(ORDER_1000000)
def test_parser_raises_only_parse_errors(text):
    try:
        parse_germ(text)
    except GermParseError:
        pass


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except GermParseError as exc:
        return str(exc)


def _positioned_tokens(text):
    return [(kind, token, *_position(text, offset))
            for kind, token, offset, _ in tokenize(text)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), token_soup(), st.text(alphabet="#\n\r\t x1+$\u00b2")))
@example("f1 = x1 # a comment that ends the text")
@example("matrix {\r\n\t# a\n  block \x0b")
@example("#")
@example("x1\n\n  \u00b2")
def test_tokenizer_matches_the_character_reference(text):
    assert (_tokens_or_error(_positioned_tokens, text)
            == _tokens_or_error(reference_tokenize, text))


# -- the term writer against the per-writer reference ----------------------

_COMPONENTS = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3),
               Fraction(7, 12), Fraction(-1, 10**20)]


@st.composite
def writer_cases(draw):
    """A matrix, a coordinate and a polynomial whose coefficients mix
    zero, +-1, negative and fractional components; the coordinate's own
    linear term is sometimes the eigenvalue (the L<j> sugar) and
    sometimes the eigenvalue plus more."""
    orders = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 15]),
                           min_size=1, max_size=2))
    blocks = []
    for d in orders:
        power = draw(st.sampled_from(
            [r for r in range(1, d + 1) if math.gcd(r, d) == 1]))
        blocks.append(JordanBlock(draw(st.integers(1, 2)), d, power))
    spec = JordanSpec(tuple(blocks))
    modulus, n = global_order(spec), spec.n
    phi = euler_phi(modulus)

    def coefficient():
        return CyclotomicNumber(
            modulus, [draw(st.sampled_from(_COMPONENTS)) for _ in range(phi)])

    coord = draw(st.integers(0, n - 1))
    terms = {tuple(draw(st.integers(0, 3)) for _ in range(n)): coefficient()
             for _ in range(draw(st.integers(0, 4)))}
    own_linear = tuple(1 if j == coord else 0 for j in range(n))
    lam = spec.blocks[spec.block_of(coord)].eigenvalue(modulus)
    linear = draw(st.sampled_from(["none", "sugar", "more"]))
    if linear == "sugar":
        terms[own_linear] = lam
    elif linear == "more":
        terms[own_linear] = lam + coefficient()
    return spec, coord, Poly(n, modulus, terms)


@settings(max_examples=300, deadline=None)
@given(writer_cases())
def test_term_writer_matches_the_per_writer_reference(case):
    spec, coord, poly = case
    block = spec.block_of(coord)
    lam = spec.blocks[block].eigenvalue(poly.modulus)
    assert (_format_polynomial(poly, coord, block, lam)
            == reference_format_polynomial(poly, spec, coord))
    for c in poly.terms.values():
        assert str(c) == reference_cyclotomic_str(c)
    assert str(CyclotomicNumber.zero(poly.modulus)) == "0"
