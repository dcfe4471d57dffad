import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdex.cyclotomic import (CyclotomicNumber, _reduction_rows,
                                 _zeta_power, cyclotomic_polynomial,
                                 euler_phi, prime_factors, root_of_unity)
from orbitdex.jordan import MAX_MODULUS
from conftest import reference_invert


def test_module_doctests():
    import doctest

    import orbitdex.cyclotomic as module
    failures, attempted = doctest.testmod(module)
    assert failures == 0 and attempted >= 5


def test_totient_and_prime_factors_against_sympy():
    for m in range(1, MAX_MODULUS + 1):
        assert euler_phi(m) == sympy.totient(m), m
        assert prime_factors(m) == sympy.primefactors(m), m


def test_phi_against_sympy():
    x = sympy.symbols("x")
    for m in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 24, 30, 60):
        mine = [Fraction(c) for c in cyclotomic_polynomial(m)]
        ref = [Fraction(int(c)) for c in
               reversed(sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs())]
        assert mine == ref
        assert len(mine) == euler_phi(m) + 1


def test_phi_vanishes_on_primitive_root():
    # independent reconstruction: divide z^M - 1 by the proper-divisor product
    for m in (4, 6, 9, 12, 30):
        z = root_of_unity(m, 1, m)
        value = CyclotomicNumber.zero(m)
        power = CyclotomicNumber.one(m)
        for c in cyclotomic_polynomial(m):
            value = value + power * c
            power = power * z
        assert value.is_zero()


def test_root_of_unity_examples():
    assert root_of_unity(1, 0, 6) == 1
    assert root_of_unity(2, 1, 2) == -1
    z = root_of_unity(6, 1, 6)
    assert z * z == z - 1  # reduction by z^2 - z + 1


def test_root_of_unity_requires_divisibility():
    with pytest.raises(ValueError):
        root_of_unity(4, 1, 6)


def test_arith_examples():
    z2 = root_of_unity(2, 1, 2)
    assert z2 * z2 == 1
    z6 = root_of_unity(6, 1, 6)
    assert z6 + z6**5 == 1  # conjugate pair
    a = 3 * z6 - Fraction(1, 2)
    assert a + CyclotomicNumber.zero(6) == a


def test_mixed_modulus_rejected():
    with pytest.raises(ValueError):
        root_of_unity(6, 1, 6) + root_of_unity(4, 1, 4)
    with pytest.raises(ValueError):
        root_of_unity(6, 1, 6) == root_of_unity(4, 1, 4)


def test_invert_examples():
    for m in (5, 6, 12):
        z = root_of_unity(m, 1, m)
        assert z.invert() == z ** (m - 1)
    assert CyclotomicNumber.from_rational(2, 6).invert() == Fraction(1, 2)
    a = root_of_unity(6, 1, 6) - 1
    assert a.invert() * a == 1
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(6).invert()


@st.composite
def _invertible(draw):
    """A nonzero element of Q(zeta_M): sparse (1-3 nonzero components) or
    dense (all nonzero), with negative and fractional components."""
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 15, 30, 60]))
    phi = euler_phi(m)
    nonzero = st.fractions(min_value=-40, max_value=40,
                           max_denominator=12).filter(bool)
    if draw(st.booleans()):
        coeffs = draw(st.lists(nonzero, min_size=phi, max_size=phi))
    else:
        coeffs = [Fraction(0)] * phi
        places = draw(st.lists(st.integers(0, phi - 1), min_size=1,
                               max_size=3, unique=True))
        for k in places:
            coeffs[k] = draw(nonzero)
    return CyclotomicNumber(m, coeffs)


@settings(max_examples=200, deadline=None)
@given(_invertible())
def test_invert_matches_euclid_reference(x):
    assert x.invert() == reference_invert(x)


def test_invert_caches_reduced_exponents_only():
    # exponents are reduced mod M before the _zeta_power lookup, so an
    # inverse leaves at most M cache entries for its modulus
    for m in (5, 7, 12, 15, 30, 60):
        phi = euler_phi(m)
        dense = CyclotomicNumber(m, range(1, phi + 1))
        _zeta_power.cache_clear()
        _reduction_rows.cache_clear()
        assert dense * dense.invert() == 1
        assert _zeta_power.cache_info().currsize <= m


def test_embedding():
    z3 = root_of_unity(3, 1, 3)
    z6 = root_of_unity(6, 1, 6)
    assert z3.embed(6) == z6**2
    assert CyclotomicNumber.from_rational(Fraction(7, 3)).embed(30) == Fraction(7, 3)


@st.composite
def cyclotomic_numbers(draw, modulus=12):
    coeffs = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=euler_phi(modulus), max_size=euler_phi(modulus)))
    return CyclotomicNumber(modulus, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyclotomic_numbers(), cyclotomic_numbers(), cyclotomic_numbers())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.invert() == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]), st.integers(1, 12))
def test_root_orders_and_primitivity(d, r):
    z = root_of_unity(d, r, 12 * d)
    assert z**d == 1
    if math.gcd(r, d) == 1:
        for k in range(1, d):
            assert z**k != 1


# -- the integer representation against a Fraction-vector reference ---------
#
# The reference keeps plain Fraction coefficient vectors and reduces a
# product by long division by Phi_M; it shares nothing with the integer
# numerators, the common denominator or the reduction table.

MODULI = (1, 2, 3, 4, 5, 6, 8, 12, 30)


def _ref_reduce(m, vec):
    phi_poly = cyclotomic_polynomial(m)
    top = len(phi_poly) - 1
    vec = list(vec)
    for k in range(len(vec) - 1, top - 1, -1):
        c = vec[k]
        if c:
            for i, p in enumerate(phi_poly):
                vec[k - top + i] -= c * p
    return tuple(vec[:top]) + (Fraction(0),) * (top - len(vec))


def _ref_mul(m, a, b):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _ref_reduce(m, conv)


def _ref_embed(m, n, a):
    step = n // m
    out = [Fraction(0)] * (step * m)
    for k, c in enumerate(a):
        out[k * step % n] += c
    return _ref_reduce(n, out)


def _assert_canonical(x):
    assert len(x.num) == euler_phi(x.modulus)
    assert all(type(n) is int for n in x.num) and type(x.den) is int
    assert x.den >= 1 and math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


@st.composite
def _field_and_vectors(draw):
    m = draw(st.sampled_from(MODULI))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    vec = st.lists(coeff, min_size=euler_phi(m), max_size=euler_phi(m))
    sparse = vec.map(lambda v: [c if i % 3 == 0 else Fraction(0)
                                for i, c in enumerate(v)])
    return m, draw(st.one_of(vec, sparse)), draw(st.one_of(vec, sparse))


@settings(max_examples=150, deadline=None)
@given(_field_and_vectors(), st.sampled_from([1, 2, 3]))
def test_integer_representation_matches_fraction_reference(data, stretch):
    m, va, vb = data
    a, b = CyclotomicNumber(m, va), CyclotomicNumber(m, vb)
    va, vb = tuple(va), tuple(vb)
    assert a.coeffs == va and b.coeffs == vb
    expected = {
        "+": tuple(x + y for x, y in zip(va, vb)),
        "-": tuple(x - y for x, y in zip(va, vb)),
        "*": _ref_mul(m, va, vb),
        "neg": tuple(-x for x in va),
    }
    got = {"+": a + b, "-": a - b, "*": a * b, "neg": -a}
    for op, value in got.items():
        _assert_canonical(value)
        assert value.coeffs == expected[op], op
        assert value == CyclotomicNumber(m, expected[op]), op
    for x in (a, b):
        _assert_canonical(x)
        if x:
            inv = x.invert()
            _assert_canonical(inv)
            assert _ref_mul(m, x.coeffs, inv.coeffs) == _ref_reduce(m, (1,))
    n = m * stretch
    embedded = a.embed(n)
    _assert_canonical(embedded)
    assert embedded.coeffs == _ref_embed(m, n, va)
    assert (a * b).embed(n) == embedded * b.embed(n)
    # one value, one form: built another way it is == and hashes alike
    again = (a + b) - b
    assert again == a and hash(again) == hash(a)
    assert (a == b) == (va == vb)


def test_equal_values_from_different_inputs():
    half = CyclotomicNumber(6, [Fraction(2, 4), 0])
    assert half == CyclotomicNumber.from_rational(Fraction(1, 2), 6)
    assert hash(half) == hash(CyclotomicNumber.from_rational(Fraction(1, 2), 6))
    assert half == Fraction(1, 2) and (half.num, half.den) == ((1, 0), 2)
    zero = CyclotomicNumber(12, [Fraction(0, 5)] * 4)
    assert zero == CyclotomicNumber.zero(12) == root_of_unity(12, 1) * 0
    assert hash(zero) == hash(CyclotomicNumber.zero(12))
    assert (zero.num, zero.den) == ((0, 0, 0, 0), 1)
    z = root_of_unity(12, 1)
    third = (z + Fraction(2, 3)) * 3 - z * 3
    assert third == 2 and third.den == 1 and hash(third) == hash(
        CyclotomicNumber.from_rational(2, 12))
    with pytest.raises(TypeError):
        CyclotomicNumber(2, [0.5])
