from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdex import GermMap, Poly, parse_germ
from orbitdex.cyclotomic import root_of_unity
from orbitdex.polynomials import TermBudgetExceeded, grevlex_key, variables
from conftest import constant_term, linear_part


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


@pytest.mark.parametrize("modulus", [1, 6])
def test_variable_is_the_validated_unit_monomial(modulus):
    """Poly.variable skips the constructor's checks and still gives what
    the constructor gives; an index out of range is refused."""
    for nvars in (1, 3, 7):
        for index in range(nvars):
            unit = tuple(int(k == index) for k in range(nvars))
            x = Poly.variable(index, nvars, modulus)
            assert x == Poly(nvars, modulus, {unit: 1})
            assert (x.nvars, x.modulus) == (nvars, modulus)
            assert x.terms[unit].modulus == modulus
        for index in (-1, nvars):
            with pytest.raises(ValueError):
                Poly.variable(index, nvars, modulus)


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
    lp = linear_part(f)
    assert lp[0] == [z6, 1] and lp[1] == [0, z6]
    lp2 = linear_part(f.minus_identity())
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
    lp_f, lp_g = linear_part(f), linear_part(g)
    n = f.nvars
    product = [[sum((lp_f[i][k] * lp_g[k][j] for k in range(n)),
                    start=constant_term(Poly.zero(1)))
                for j in range(n)] for i in range(n)]
    assert linear_part(f.compose(g)) == product


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([1, 3, 4, 6]), st.integers(0, 6), st.integers(-3, 3),
       st.lists(st.integers(0, 3), min_size=2, max_size=2), st.integers(0, 7))
def test_monomial_power_is_repeated_multiplication(modulus, k, scale, mono, n):
    """A one-term power, built in closed form as c^n x^(e n), equals the
    product of n copies, the n = 0 power being the constant 1."""
    c = root_of_unity(modulus, k % modulus, modulus) * (scale or 1)
    p = Poly(2, modulus, {tuple(mono): c})
    product = Poly.constant(1, 2, modulus)
    for _ in range(n):
        product = product.mul(p)
    assert p ** n == product
    assert p ** n == Poly(2, modulus, {tuple(e * n for e in mono): c ** n})


def test_restrict_vars_sets_the_rest_to_zero():
    x1, x2, x3 = variables(3)
    p = 2 * x1 * x3 + x2**2 - x3**4 + x1 * x2
    y1, y2 = variables(2)
    assert p.restrict_vars([2, 0]) == 2 * y1 * y2 - y2**4
    assert p.restrict_vars([]) == Poly.zero(0)
    with pytest.raises(ValueError):  # the result keeps its two variables
        p.restrict_vars([0, 2]) + x1


@st.composite
def sparse_polys(draw):
    """A polynomial in up to 40 variables with a few terms, each of a few
    variables, often sharing a variable factor."""
    nvars = draw(st.integers(1, 40))
    shared = draw(st.lists(st.integers(0, nvars - 1), max_size=2))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = [0] * nvars
        for v in shared + draw(st.lists(st.integers(0, nvars - 1), max_size=3)):
            mono[v] += draw(st.integers(1, 3))
        terms[tuple(mono)] = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    return Poly(nvars, 1, terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_polys(), st.data())
def test_content_and_renaming_read_the_support(p, data):
    """monomial_content is the per-variable minimum over all terms, and
    rename_vars is the substitution x_j -> x_(new_index[j]), also when
    two variables go to one and terms merge or cancel."""
    n = p.nvars
    assert p.monomial_content() == (
        tuple(map(min, zip(*p.terms))) if p.terms else (0,) * n)
    new_nvars = data.draw(st.integers(1, n))
    new_index = data.draw(st.lists(st.integers(0, new_nvars - 1),
                                   min_size=n, max_size=n))
    values = [Poly.variable(i, new_nvars) for i in new_index]
    want = p.substitute(values)
    got = p.rename_vars(new_index, new_nvars)
    assert got == want and got.nvars == new_nvars
    assert all(got.terms.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sparse_polys(), st.data())
def test_restrict_vars_matches_a_tuple_comprehension(p, data):
    """restrict_vars keeps a term when every exponent outside keep is 0
    and writes the exponents at keep, for four keep sets: none, all
    variables, one variable kept, and one variable dropped."""
    n = p.nvars
    v = data.draw(st.integers(0, n - 1))
    for keep in ([], list(range(n)), [v], [k for k in range(n) if k != v]):
        got = p.restrict_vars(keep)
        want = {tuple(m[k] for k in keep): c for m, c in p.terms.items()
                if not any(m[k] for k in range(n) if k not in keep)}
        assert got.terms == want and got.nvars == len(keep)


def test_minus_identity_subtracts_each_variable():
    """minus_identity is f - id coordinate by coordinate: an own-variable
    coefficient 1 cancels and its term goes, a missing one becomes -1,
    and any other is lowered by 1."""
    x1, x2, x3 = variables(3, 3)
    z = root_of_unity(3, 1, 3)
    f = GermMap([x1 + x2**2, x1**2, x3 * z + x1 * x2])
    got = f.minus_identity()
    assert got == GermMap([p - Poly.variable(j, 3, 3)
                           for j, p in enumerate(f.coords)])
    assert got.coords[0].terms == {(0, 2, 0): root_of_unity(1, 1, 3)}
    assert (0, 1, 0) in got.coords[1].terms
    assert got.coords[2].terms[(0, 0, 1)] == z - 1
