import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdex import GermMap, Poly, parse_germ
from orbitdex.cyclotomic import root_of_unity
from orbitdex.polynomials import TermBudgetExceeded, grevlex_key, variables


def test_arith_examples():
    x1, x2 = variables(2)
    assert (x1 + x2) * (x1 - x2) == x1**2 - x2**2
    assert ((x1 + x2) * Poly.zero(2)).is_zero()
    assert (x1**2 + x2**3) - x1**2 == x2**3


def test_nvars_mismatch_rejected():
    x1, = variables(1)
    y1, y2 = variables(2)
    with pytest.raises(ValueError):
        x1 + y1
    with pytest.raises(ValueError):
        x1.mul(y2)


def test_compose_self_composition():
    """(-x + x^3) with itself: expand -(-x+x^3) + (-x+x^3)^3 by hand:
    x - x^3 - x^3 + 3x^5 - 3x^7 + x^9."""
    x, = variables(1, modulus=2)
    f = GermMap([-x + x**3])
    expected = x - 2 * x**3 + 3 * x**5 - 3 * x**7 + x**9
    assert f.compose(f).coords[0] == expected
    assert f.iterate(2).coords[0] == expected
    assert f.iterate(1) == f


def test_compose_with_linear_germ():
    z6 = root_of_unity(6, 1, 6)
    x1, x2 = variables(2, modulus=6)
    lam = GermMap([z6 * x1, z6 * x2])
    g = GermMap([x1**2 + x2, x1 * x2])
    assert lam.compose(g).coords[0] == z6 * (x1**2 + x2)
    assert lam.compose(g).coords[1] == z6 * x1 * x2


def test_linear_iterate():
    z3 = root_of_unity(3, 1, 3)
    x1, = variables(1, modulus=3)
    f = GermMap([z3 * x1])
    assert f.iterate(3).coords[0] == x1
    assert f.iterate(2).coords[0] == z3**2 * x1


def test_truncate():
    x, = variables(1)
    assert (x + x**3).truncate(3) == x
    x1, x2 = variables(2)
    assert (x1 * x2**3 + x1**3).truncate(4) == x1**3
    f = GermMap([x1**2 + x1, x2 + x2**5])
    assert f.truncate(1).coords[0].is_zero()


def test_lowest_form():
    x1, x2 = variables(2)
    assert (x1**2 + x1**5).lowest_form() == (2, x1**2)
    assert (3 * x1 * x2 + x1**3).lowest_form() == (2, 3 * x1 * x2)
    assert (x1**2 + x2**3).lowest_form() == (2, x1**2)
    with pytest.raises(ValueError):
        Poly.zero(2).lowest_form()


def test_linear_part_read_off():
    z6 = root_of_unity(6, 1, 6)
    x1, x2 = variables(2, modulus=6)
    f = GermMap([z6 * x1 + x2, z6 * x2 + x1**7])
    lp = f.linear_part()
    assert lp[0] == [z6, 1] and lp[1] == [0, z6]
    lp2 = f.minus_identity().linear_part()
    assert lp2[0] == [z6 - 1, 1] and lp2[1] == [0, z6 - 1]


def test_germ_constant_term_rejected():
    x, = variables(1)
    with pytest.raises(ValueError):
        GermMap([x + 1])


def test_repr_is_germ_term_text():
    # one printed term per basis component of a coefficient, and no 1*
    z = root_of_unity(6, 1, 6)
    p = Poly(1, 6, {(1,): 1 + z, (2,): -1})
    assert repr(p) == "x1 + w(6,1)*x1 - x1^2"
    assert repr(GermMap([p])) == "(x1 + w(6,1)*x1 - x1^2)"
    assert repr(Poly(2, 1, {(1, 0): -1, (0, 1): 1})) == "-x1 + x2"
    doc = parse_germ("matrix { block { size = 1, order = 6, power = 1 } } "
                     f"map {{ f1 = {p!r}; }}")
    assert doc.gmap.coords[0] == p


def test_term_budget_guard():
    x1, x2 = variables(2)
    dense = sum((x1**i * x2**j for i in range(12) for j in range(12)
                 if 1 <= i + j), Poly.zero(2))
    with pytest.raises(TermBudgetExceeded):
        dense.mul(dense, term_limit=50)


def test_grevlex_key_order():
    # within a degree: x1-major; across degrees: ascending
    monos = sorted([(0, 2), (1, 1), (2, 0), (1, 0)], key=grevlex_key)
    assert monos == [(1, 0), (2, 0), (1, 1), (0, 2)]


@st.composite
def small_germs(draw, nvars=2):
    terms = draw(st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 2)] * nvars),
            st.sampled_from([-2, -1, 1, 2])),
        min_size=1, max_size=3))
    coords = []
    for j in range(nvars):
        p = Poly.variable(j, nvars) * draw(st.sampled_from([-1, 1, 2]))
        for mono, c in terms:
            if 1 <= sum(mono):
                p = p + Poly(nvars, 1, {mono: c})
        coords.append(p)
    return GermMap(coords, nvars=nvars)


@settings(max_examples=30, deadline=None)
@given(small_germs(), small_germs(), small_germs())
def test_compose_associative_up_to_truncation(f, g, h):
    d = 6
    left = f.compose(g, trunc=d).compose(h, trunc=d)
    right = f.compose(g.compose(h, trunc=d), trunc=d)
    assert left.truncate(d) == right.truncate(d)


@settings(max_examples=40, deadline=None)
@given(small_germs(), small_germs())
def test_compose_linear_part_is_matrix_product(f, g):
    lp_f, lp_g = f.linear_part(), g.linear_part()
    n = f.nvars
    product = [[sum((lp_f[i][k] * lp_g[k][j] for k in range(n)),
                    start=Poly.zero(1).constant_term())
                for j in range(n)] for i in range(n)]
    assert f.compose(g).linear_part() == product


@settings(max_examples=30, deadline=None)
@given(small_germs(), st.integers(1, 7))
def test_truncate_agrees_below(f, d):
    g = f.truncate(d)
    for p, q in zip(f.coords, g.coords):
        assert q == p.truncate(d)
        assert all(sum(m) < d for m in q.terms)
        for mono, c in p.terms.items():
            if sum(mono) < d:
                assert q.terms[mono] == c
