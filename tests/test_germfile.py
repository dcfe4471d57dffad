import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitdex import (GermDocument, GermMap, GermParseError, JordanBlock,
                      JordanSpec, Poly, parse_germ, print_germ, root_of_unity)
from conftest import load_fixtures

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
    lp = doc.gmap.linear_part()
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
    lp = doc.gmap.linear_part()
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
    matrix = spec.matrix(modulus)
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
