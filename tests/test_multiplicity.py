import functools
import importlib
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from orbitdex import (GermMap, NotIsolatedWithinBound, Poly, multiplicity,
                      parse_germ)
from orbitdex.cyclotomic import CyclotomicNumber, root_of_unity
from orbitdex.multiplicity import (_Echelon, _integral_rows,
                                   _lowest_isolated, _multipliers, _packer,
                                   _recombined, _stabilize, _strip_content)
from orbitdex.jordan import period_blocks, period_set
from orbitdex.polynomials import grevlex_key, variables
from orbitdex.resonance import project, validate_rnf
from orbitdex.universality import chain_coprime_germ, chain_germ
from conftest import (ReferenceEchelon, cronin, family_parameters,
                      random_isolated_system, random_poly,
                      reference_multiplicity, truncated_quotient_dim,
                      unpack_key)


def system(*coords):
    return GermMap(list(coords))


def test_multiplicity_examples():
    x, y = variables(2)
    assert multiplicity(system(x**2, y**3)).value == 6
    assert multiplicity(system(x, y)).value == 1
    # deformation count: x^2 = e has 2 roots; at each, y(y^2 +- sqrt(e))
    # has 3 roots; 6 preimages in total
    assert multiplicity(system(x**2, x * y + y**3)).value == 6
    with pytest.raises(NotIsolatedWithinBound) as err:
        multiplicity(system(x * y, x * y))
    assert err.value.definite


def test_one_variable_power():
    x, = variables(1)
    for k in (1, 2, 7):
        assert multiplicity(system(x**k)).value == k


def test_empty_germ_has_multiplicity_one():
    empty = GermMap((), nvars=0)
    assert multiplicity(empty).value == 1


def test_cronin_examples():
    x, y = variables(2)
    assert cronin(system(x**2 + y**5, y**3 + x**4)) == 6
    assert cronin(system(x**2, x * y + y**3)) is None
    assert cronin(system(x**2 - y**2, x**2 + y**2)) == 4
    with pytest.raises(ValueError):
        cronin(system(x, Poly.zero(2)))


def test_cronin_none_still_has_larger_multiplicity():
    x, y = variables(2)
    f = system(x**2, x * y + y**3)
    assert cronin(f) is None
    assert multiplicity(f).value > 2 * 2  # strict: 6 > 4


def test_truncated_quotient_dims():
    x, y = variables(2)
    f = system(x**2, y**2)
    # degree < 3: monomials 1,x,y,xy,x2,y2 minus the rank-2 span {x2, y2}
    assert truncated_quotient_dim(f, 3) == 4
    assert truncated_quotient_dim(f, 4) == 4
    assert truncated_quotient_dim(f, 1) == 1


def test_certificate_matches_public_quotients():
    x, y = variables(2)
    f = system(x**2 - x * y + y**4, y**2 - x * y + x**4)
    result = multiplicity(f)
    assert result.value == 6 and not result.fast_path
    d_star = result.stabilized_at
    assert result.quotient_dims[d_star - 1] == result.quotient_dims[d_star]
    assert result.quotient_dims[d_star - 1] == result.value
    # the engine snapshots agree with the standalone operation
    for d, q in enumerate(result.quotient_dims, start=1):
        assert truncated_quotient_dim(f, d) == q
    # monotone, as the nested quotients force
    assert list(result.quotient_dims) == sorted(result.quotient_dims)


def test_certificate_sound_at_higher_degree():
    x, y = variables(2)
    f = system(x**2 - x * y + y**4, y**2 - x * y + x**4)
    result = multiplicity(f)
    d_star = result.stabilized_at
    assert truncated_quotient_dim(f, d_star + 2) == result.value


def test_not_isolated_diagnostics():
    x, y = variables(2)
    with pytest.raises(NotIsolatedWithinBound) as err:
        multiplicity(system(x**2 + y**2 * x, x))  # zero set contains y-axis
    assert err.value.definite
    # ambiguous cap: an isolated zero whose engine run is cut short
    with pytest.raises(NotIsolatedWithinBound) as err2:
        multiplicity(system(x**2 - x * y + y**4, y**2 - x * y + x**4),
                     degree_cap=3)
    assert not err2.value.definite


def test_cronin_lower_bound_and_equality(rng):
    """multiplicity >= product of lowest degrees; equality iff the
    lowest-degree system is isolated."""
    for _ in range(15):
        f, value = random_isolated_system(rng, rng.choice([1, 2]))
        lowest_product = 1
        for p in f.coords:
            lowest_product *= p.lowest_form()[0]
        fast = cronin(f)
        if fast is not None:
            assert value == fast == lowest_product
        else:
            assert value > lowest_product


def test_composition_multiplicativity(rng):
    for _ in range(8):
        f, vf = random_isolated_system(rng, 2, max_degree=3)
        g, vg = random_isolated_system(rng, 2, max_degree=3)
        composed = f.compose(g)
        assert multiplicity(composed).value == vf * vg


def test_coordinate_product_additivity(rng):
    for _ in range(10):
        f, n_val = random_isolated_system(rng, 2, max_degree=3)
        extra = random_poly(rng, 2, 3, max_terms=2, min_degree=1)
        if extra.is_zero():
            continue
        g = GermMap([f.coords[0], extra], nvars=2)
        try:
            m_val = multiplicity(g).value
        except NotIsolatedWithinBound:
            continue
        product = GermMap([f.coords[0], extra.mul(f.coords[1])], nvars=2)
        assert multiplicity(product).value == n_val + m_val


def test_jet_determinacy(rng):
    for _ in range(10):
        f, value = random_isolated_system(rng, 2, max_degree=3)
        noisy = []
        for p in f.coords:
            tail = random_poly(rng, 2, value + 2, max_terms=2,
                               min_degree=value + 1)
            noisy.append(p + tail)
        assert multiplicity(GermMap(noisy, nvars=2)).value == value


def test_constant_linear_equivalence(rng):
    """Multiplying the system by a matrix U(x) with U(0) invertible (a
    unit of the local ring: constant, or with higher-order entries)
    preserves the multiplicity, over Q and over Q(zeta_6)."""
    for modulus in (1, 6):
        z = root_of_unity(modulus, 1, modulus)
        for trial in range(10):
            f, value = random_isolated_system(rng, 2, max_degree=3)
            while True:
                a, b, c, d = (z ** rng.randint(0, 5) * rng.randint(-3, 3)
                              for _ in range(4))
                if a * d - b * c != 0:
                    break
            u = [[Poly.constant(e, 2, modulus) for e in row]
                 for row in ((a, b), (c, d))]
            if trial % 2:
                u = [[e + random_poly(rng, 2, 2, max_terms=2, modulus=modulus)
                      for e in row] for row in u]
            f0, f1 = (p.embed(modulus) for p in f.coords)
            mixed = GermMap([u[0][0] * f0 + u[0][1] * f1,
                             u[1][0] * f0 + u[1][1] * f1], nvars=2)
            assert multiplicity(mixed).value == value


def test_linear_coordinate_change_invariance(rng):
    """multiplicity(f o A) == multiplicity(f) for A in GL_2(Q)."""
    x, y = variables(2)
    for _ in range(10):
        f, value = random_isolated_system(rng, 2, max_degree=3)
        while True:
            a, b, c, d = (Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                          for _ in range(4))
            if a * d - b * c != 0:
                break
        change = GermMap([x * a + y * b, x * c + y * d])
        assert multiplicity(f.compose(change)).value == value


def test_substitution_scaling(rng):
    for _ in range(8):
        f, value = random_isolated_system(rng, 2, max_degree=3)
        powers = (rng.randint(1, 3), rng.randint(1, 3))
        scaled = GermMap([Poly(2, p.modulus, {
            tuple(e * b for e, b in zip(m, powers)): c
            for m, c in p.terms.items()}) for p in f.coords], nvars=2)
        assert multiplicity(scaled).value == value * powers[0] * powers[1]


def test_homogeneous_isolation_agrees_with_resultant(rng):
    """2-variable check of the lowest-system isolation decision: two
    nonzero forms share a nontrivial zero iff their resultant vanishes."""
    x, y = sympy.symbols("x y")
    for _ in range(25):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        fa = [rng.randint(-2, 2) for _ in range(da + 1)]
        fb = [rng.randint(-2, 2) for _ in range(db + 1)]
        if not any(fa) or not any(fb):
            continue
        pa = Poly(2, 1, {(da - i, i): c for i, c in enumerate(fa) if c})
        pb = Poly(2, 1, {(db - i, i): c for i, c in enumerate(fb) if c})
        sa = sum(c * x ** (da - i) * y**i for i, c in enumerate(fa))
        sb = sum(c * x ** (db - i) * y**i for i, c in enumerate(fb))
        resultant_nonzero = sympy.resultant(sa, sb, x) != 0 and \
            sympy.resultant(sa, sb, y) != 0
        decided = cronin(GermMap([pa, pb], nvars=2)) is not None
        assert decided == resultant_nonzero


def _to_sympy(p, x, y):
    return sum(
        int(c.coeffs[0].numerator) * sympy.Rational(1, c.coeffs[0].denominator)
        * x ** m[0] * y ** m[1]
        for m, c in p.terms.items())


def _resultant_order_oracle(f, rng, tries=4):
    """Independent 2-variable oracle: the intersection number at the
    origin is the x-order of the y-resultant after a generic linear
    change of coordinates (the order can only overshoot for special
    directions, so the minimum over a few random changes attains it)."""
    x, y = sympy.symbols("x y")
    best = None
    for _ in range(tries):
        while True:
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            if a * d - b * c != 0:
                break
        sub = {x: a * x + b * y, y: c * x + d * y}
        g1 = sympy.expand(_to_sympy(f.coords[0], x, y).subs(sub, simultaneous=True))
        g2 = sympy.expand(_to_sympy(f.coords[1], x, y).subs(sub, simultaneous=True))
        r = sympy.resultant(g1, g2, y)
        if r == 0:
            continue
        coeffs = sympy.Poly(sympy.expand(r), x).all_coeffs()[::-1]
        order = next((i for i, c in enumerate(coeffs) if c != 0), None)
        if order is not None and (best is None or order < best):
            best = order
    return best


def test_engine_matches_resultant_order(rng):
    x, y = variables(2)
    known = [
        system(x**2, x * y + y**3),
        system(x**2 - x * y + y**4, y**2 - x * y + x**4),
        system(x**3, y**2),
    ]
    for f in known:
        assert multiplicity(f).value == _resultant_order_oracle(f, rng)
    for _ in range(10):
        f, value = random_isolated_system(rng, 2, max_degree=3)
        assert value == _resultant_order_oracle(f, rng)


def test_fast_path_flag():
    x, y = variables(2)
    assert multiplicity(system(x**3, y**2)).fast_path
    assert not multiplicity(system(x**2 - x * y + y**4,
                                   y**2 - x * y + x**4)).fast_path


def _engine_systems():
    """Systems no closed-form reduction resolves, so the engine runs on
    the input itself (the lowest forms share a zero, and every variable
    that occurs linearly occurs elsewhere in its coordinate too)."""
    x, y = variables(2)
    half, third = Fraction(1, 2), Fraction(1, 3)
    return [
        system(x**2 - x * y + y**4, y**2 - x * y + x**4),
        system(x + y * half + 3 * x**2 * y, x + y * half + x * y),
        system(2 * (x - y) + y**3 + 3 * x**2 * y**4,
               (x - y)**3 + 3 * x**3 * y**4),
        system(2 * (x - y) - x**2 * y**3,
               (x - y)**3 * -third - x**4 * y**3 + x**2 * y**5),
        system((x - y)**3 + x**5 * y**5, 2 * (x - y)**2),
        system((x + y)**3 + x**4 * y**5 * half, (x + y)**3),
        system(x**2 + x**3 + y**3, x**2 + y**5),
    ]


@pytest.mark.parametrize("modulus", [3, 4, 6, 12])
def test_engine_certificate_over_cyclotomic_fields(modulus):
    """The engine eliminates integral rows over both rings: ints over Q,
    CyclotomicNumbers with den 1 over Q(zeta_M).  The same system embedded in
    Q(zeta_M), or with its coordinates scaled by powers of zeta_M (a
    unit, so the same row spans), gets the same certificate."""
    z = root_of_unity(modulus, 1, modulus)
    for f in _engine_systems():
        over_q = multiplicity(f)
        assert not over_q.fast_path and over_q.stabilized_at is not None
        embedded = f.embed(modulus)
        scaled = GermMap([p * z ** (j + 1) for j, p in enumerate(embedded.coords)])
        for g in (embedded, scaled):
            got = multiplicity(g)
            assert (got.value, got.stabilized_at, got.quotient_dims) == \
                (over_q.value, over_q.stabilized_at, over_q.quotient_dims)


# The benchmark's (5, 4) system over Q(zeta_12), seed 7919: no closed-form
# reduction applies, and the engine stores pivot rows whose leads are
# neither rational nor units.
NON_RATIONAL_LEADS = """\
matrix {
  block { size = 1, order = 12, power = 1 }
  block { size = 1, order = 1, power = 1 }
}
map {
  f1 = -2*w(12,1)*x2^4 + x1^5 + 5*w(12,1)*x1^4*x2 +
      10*w(12,1)^2*x1^3*x2^2 + 10*w(12,1)^3*x1^2*x2^3 - 5*x1*x2^4 +
      5*w(12,1)^2*x1*x2^4 + w(12,1)*x2^5 + w(12,1)^3*x2^5 - w(12,1)*x1^6
      - 6*w(12,1)^2*x1^5*x2 - 15*w(12,1)^3*x1^4*x2^2 + 20*x1^3*x2^3 -
      20*w(12,1)^2*x1^3*x2^3 + 15*w(12,1)*x1^2*x2^4 -
      15*w(12,1)^3*x1^2*x2^4 + 6*x1*x2^5 + w(12,1)*x2^6;
  f2 = x2^4 + 6*w(12,1)^2*x2^4 - 3*w(12,1)*x1^5 - 15*w(12,1)^2*x1^4*x2 -
      30*w(12,1)^3*x1^3*x2^2 + 30*x1^2*x2^3 - 30*w(12,1)^2*x1^2*x2^3 +
      13*w(12,1)*x1*x2^4 - 15*w(12,1)^3*x1*x2^4 + 3*x2^5 -
      2*w(12,1)^2*x2^5 - 2*w(12,1)*x1^5*x2 - 10*w(12,1)^2*x1^4*x2^2 -
      20*w(12,1)^3*x1^3*x2^3 + 20*x1^2*x2^4 - 20*w(12,1)^2*x1^2*x2^4 +
      10*w(12,1)*x1*x2^5 - 10*w(12,1)^3*x1*x2^5 + 2*x2^6;
}
"""


def test_engine_certificate_with_non_rational_pivot_leads():
    got = multiplicity(parse_germ(NON_RATIONAL_LEADS).gmap)
    assert (got.value, got.stabilized_at, got.quotient_dims) == \
        (20, 8, (1, 3, 6, 10, 14, 17, 19, 20, 20))


def _spied_packer(monkeypatch) -> list[tuple[int, int]]:
    """Wrap the key packer so that the returned list gets (nvars, top)
    per call: the engine chooses its one key layout at the start of each
    call, and every echelon of the call uses it."""
    engine = importlib.import_module("orbitdex.multiplicity")
    calls, packer = [], engine._packer

    def spied(nvars, top):
        calls.append((nvars, top))
        return packer(nvars, top)

    monkeypatch.setattr(engine, "_packer", spied)
    return calls


def _decoded(row, echelon, layout) -> list[tuple[int, ...]]:
    """The exponent tuples of a row's packed keys, in the row's key
    order, decoded field by field by conftest.unpack_key under the
    layout chosen last."""
    nvars = layout[-1][0]
    return [unpack_key(k, nvars, echelon.degree_shift // nvars)
            for k in sorted(row)]


@functools.lru_cache(maxsize=None)
def _monomials_below(nvars: int, top: int) -> tuple[tuple[int, ...], ...]:
    """Every exponent tuple in nvars variables of degree < top."""
    if nvars == 0:
        return ((),)
    return tuple((e,) + rest for rest in _monomials_below(nvars - 1, top)
                 for e in range(top - sum(rest)))


@pytest.mark.parametrize("top", [2, 8, 16, 33])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_packed_keys_sort_like_grevlex(nvars, top):
    """On every monomial of degree < top, the engine's keys sort like
    grevlex_key, the degree reads off by a shift, and conftest's
    field-by-field decoder inverts them."""
    pack, shift = _packer(nvars, top)
    monos = _monomials_below(nvars, top)
    assert sorted(monos, key=pack) == sorted(monos, key=grevlex_key)
    for m in monos:
        key = pack(m)
        assert key >> shift == sum(m)
        assert unpack_key(key, nvars, shift // nvars) == m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), nvars=st.integers(1, 4),
       top=st.sampled_from([2, 8, 16, 33]))
def test_packed_keys_add_under_shifts(data, nvars, top):
    """A shift by x^a is a key addition while the degree stays < top."""
    pack, _ = _packer(nvars, top)
    m = data.draw(st.sampled_from(_monomials_below(nvars, top)))
    a = data.draw(st.sampled_from(_monomials_below(nvars, top - sum(m))))
    assert pack(m) + pack(a) == pack(tuple(x + y for x, y in zip(m, a)))


@pytest.mark.parametrize("top", [65, 129])
def test_packed_keys_of_sparse_monomials_in_2048_variables(top):
    """Monomials of 2048 variables with a few nonzero exponents, up to
    top - 1 in one variable, at the first and last fields and between:
    pack reads only the support, and the keys still decode field by
    field, read the degree off by a shift, add under shifts and sort
    like grevlex_key."""
    nvars, rng = 2048, random.Random(top)
    pack, shift = _packer(nvars, top)
    monos = []
    for _ in range(60):
        m = [0] * nvars
        budget = rng.randint(top - 3, top - 1)
        for i in rng.sample([0, nvars - 1] + rng.sample(range(1, nvars - 1), 3),
                            rng.randint(1, 4)):
            m[i] = e = rng.randint(0, budget)
            budget -= e
        monos.append(tuple(m))
    monos.append(tuple(top - 1 if i == nvars - 1 else 0 for i in range(nvars)))
    for m in monos:
        key = pack(m)
        assert key >> shift == sum(m)
        assert unpack_key(key, nvars, shift // nvars) == m
    assert sorted(monos, key=pack) == sorted(monos, key=grevlex_key)
    for m, a in zip(monos, monos[1:]):
        total = tuple(x + y for x, y in zip(m, a))
        if sum(total) < top:
            assert pack(m) + pack(a) == pack(total)


def test_engine_width_covers_an_input_term_above_the_cap(monkeypatch):
    """A term of degree above cap + 1 sets the key width, wider than the
    cap needs, and the certificate is still the definition's: the same
    as without the term, which lies in m^(d* + 1) and so leaves the
    ideal unchanged."""
    layouts = _spied_packer(monkeypatch)
    x, y = variables(2)
    base = _engine_systems()[3]
    high = system(base.coords[0] + x**9 * y**11, base.coords[1])
    for modulus in (1, 3):
        layouts.clear()
        result = multiplicity(high.embed(modulus), degree_cap=11)
        assert layouts[-1] == (2, 21)  # the cap alone needs 12
        assert (result.value, result.stabilized_at, result.quotient_dims) == \
            (11, 11, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 11))
        _assert_quotients_match_the_definition(high.embed(modulus), result)


def test_one_key_layout_per_engine_call(monkeypatch):
    """Every engine call packs its keys under one layout, chosen once:
    restarts, a recombination that refuses and the lowest-form decisions
    included."""
    layouts = _spied_packer(monkeypatch)
    calls = _spied_stabilize(monkeypatch)
    runs = _spied_runs(monkeypatch)
    x1, x2, x3 = variables(3)
    g1 = x1**2 - x1 * x2 + x3**3
    g2 = x2**2 - x2 * x3 + x1**3
    for f in _restarting_systems():
        multiplicity(f)
    with pytest.raises(NotIsolatedWithinBound):
        multiplicity(system(g1, g2, g1 * 2 - g2))
    assert max(runs) > 8  # some call restarted
    assert calls[-1][1] is None  # and one refused
    assert len(layouts) == len(calls)


def _content(row: dict) -> int:
    """The gcd of all integer coordinates of an integral row's entries,
    ints or den-1 CyclotomicNumbers."""
    coords = []
    for c in row.values():
        if isinstance(c, int):
            coords.append(c)
        else:
            assert c.den == 1
            coords.extend(c.num)
    return math.gcd(*coords)


def test_engine_pivot_rows_are_integral_with_content_1(monkeypatch):
    """Every pivot row has integral entries and content 1, over Q and over
    Q(zeta_M) alike, whatever its lead: NON_RATIONAL_LEADS stores pivot
    rows whose lead is not rational.  A pivot row is never changed once
    stored, so each is checked as it is stored."""
    engine = importlib.import_module("orbitdex.multiplicity")
    leads, layout = [], _spied_packer(monkeypatch)

    class Checked(engine._Echelon):
        def insert(self, row):
            col = super().insert(row)
            if col is not None:
                pivot = self.pivots[col]
                assert _content(pivot) == 1
                leads.append(pivot[col])
                # the lead is the least key, and the grevlex-first
                # monomial of the row
                monos = _decoded(pivot, self, layout)
                assert col == min(pivot)
                assert monos[0] == min(monos, key=grevlex_key)
            return col

    monkeypatch.setattr(engine, "_Echelon", Checked)
    f = _engine_systems()[0]
    for g in (f, f.embed(4)):
        multiplicity(g)
    leads.clear()
    multiplicity(parse_germ(NON_RATIONAL_LEADS).gmap)
    assert any(not c.is_rational() for c in leads)


# A 3-variable (4, 3, 2) system over Q(zeta_3) from the benchmark's
# `_mult_system` generator, seed 7919 (its `mult` workload keeps such
# systems out): eliminating every row x^a f_i in full took about 30 s.
THREE_VARIABLES_ZETA_3 = """\
matrix {
  block { size = 1, order = 3, power = 1 }
  block { size = 1, order = 1, power = 1 }
  block { size = 1, order = 1, power = 1 }
}
map {
  f1 = -2*w(3,1)*x3^2 + 2*w(3,1)*x2^3 - 6*x2^2*x3 - 6*w(3,1)*x2^2*x3 +
      6*x2*x3^2 + 4*w(3,1)*x3^3 + x1^4 - 4*w(3,1)*x1^3*x2 - 6*x1^2*x2^2 -
      6*w(3,1)*x1^2*x2^2 - 4*x1*x2^3 + 2*w(3,1)*x2^4 + 12*w(3,1)*x1^3*x3 +
      36*x1^2*x2*x3 + 36*w(3,1)*x1^2*x2*x3 + 36*x1*x2^2*x3 - 4*x2^3*x3 -
      16*w(3,1)*x2^3*x3 - 54*x1^2*x3^2 - 54*w(3,1)*x1^2*x3^2 -
      108*x1*x2*x3^2 + 6*x2^2*x3^2 + 54*w(3,1)*x2^2*x3^2 + 108*x1*x3^3 -
      104*w(3,1)*x2*x3^3 - x3^4 + 80*w(3,1)*x3^4 + w(3,1)*x1^5 + 5*x1^4*x2 +
      5*w(3,1)*x1^4*x2 + 10*x1^3*x2^2 - 10*w(3,1)*x1^2*x2^3 - 5*x1*x2^4 -
      5*w(3,1)*x1*x2^4 - x2^5 - 15*x1^4*x3 - 15*w(3,1)*x1^4*x3 -
      60*x1^3*x2*x3 + 90*w(3,1)*x1^2*x2^2*x3 + 60*x1*x2^3*x3 +
      60*w(3,1)*x1*x2^3*x3 + 15*x2^4*x3 + 90*x1^3*x3^2 -
      270*w(3,1)*x1^2*x2*x3^2 - 270*x1*x2^2*x3^2 - 270*w(3,1)*x1*x2^2*x3^2 -
      90*x2^3*x3^2 + 270*w(3,1)*x1^2*x3^3 + 540*x1*x2*x3^3 +
      540*w(3,1)*x1*x2*x3^3 + 270*x2^2*x3^3 - 405*x1*x3^4 -
      405*w(3,1)*x1*x3^4 - 405*x2*x3^4 + 243*x3^5;
  f2 = -6*x3^2 - 8*w(3,1)*x3^2 + 7*x2^3 + 6*w(3,1)*x2^3 - 18*x2^2*x3 +
      3*w(3,1)*x2^2*x3 + 3*w(3,1)*x1*x3^2 - 18*w(3,1)*x2*x3^2 - 2*x3^3 -
      3*w(3,1)*x3^3 - 3*w(3,1)*x1^4 - 12*x1^3*x2 - 12*w(3,1)*x1^3*x2 -
      18*x1^2*x2^2 + 12*w(3,1)*x1*x2^3 + 3*x2^4 + 3*w(3,1)*x2^4 + 36*x1^3*x3
      + 36*w(3,1)*x1^3*x3 + 108*x1^2*x2*x3 - 108*w(3,1)*x1*x2^2*x3 -
      36*x2^3*x3 - 39*w(3,1)*x2^3*x3 - 162*x1^2*x3^2 + 324*w(3,1)*x1*x2*x3^2
      + 171*x2^2*x3^2 + 171*w(3,1)*x2^2*x3^2 - 324*w(3,1)*x1*x3^3 -
      333*x2*x3^3 - 324*w(3,1)*x2*x3^3 + 243*x3^4 + 240*w(3,1)*x3^4 -
      2*w(3,1)*x1^4*x2 - 8*x1^3*x2^2 - 8*w(3,1)*x1^3*x2^2 - 12*x1^2*x2^3 +
      8*w(3,1)*x1*x2^4 + 2*x2^5 + 2*w(3,1)*x2^5 + 2*x1^4*x3 +
      2*w(3,1)*x1^4*x3 + 32*x1^3*x2*x3 + 24*w(3,1)*x1^3*x2*x3 +
      72*x1^2*x2^2*x3 - 12*w(3,1)*x1^2*x2^2*x3 - 8*x1*x2^3*x3 -
      80*w(3,1)*x1*x2^3*x3 - 26*x2^4*x3 - 24*w(3,1)*x2^4*x3 - 24*x1^3*x3^2 -
      108*x1^2*x2*x3^2 + 72*w(3,1)*x1^2*x2*x3^2 + 72*x1*x2^2*x3^2 +
      288*w(3,1)*x1*x2^2*x3^2 + 132*x2^3*x3^2 + 108*w(3,1)*x2^3*x3^2 -
      108*w(3,1)*x1^2*x3^3 - 216*x1*x2*x3^3 - 432*w(3,1)*x1*x2*x3^3 -
      324*x2^2*x3^3 - 216*w(3,1)*x2^2*x3^3 + 216*x1*x3^4 +
      216*w(3,1)*x1*x3^4 + 378*x2*x3^4 + 162*w(3,1)*x2*x3^4 - 162*x3^5;
  f3 = -5*x3^2 - 6*w(3,1)*x3^2 + 4*x2^3 + 3*w(3,1)*x2^3 - 9*x2^2*x3 +
      3*w(3,1)*x2^2*x3 - 3*x2*x3^2 - 9*w(3,1)*x2*x3^2 + x3^3 - 2*w(3,1)*x1^4
      - 8*x1^3*x2 - 8*w(3,1)*x1^3*x2 - 12*x1^2*x2^2 + 5*w(3,1)*x1*x2^3 -
      x2^4 - w(3,1)*x2^4 + 24*x1^3*x3 + 24*w(3,1)*x1^3*x3 + 72*x1^2*x2*x3 +
      9*x1*x2^2*x3 - 63*w(3,1)*x1*x2^2*x3 - 6*x2^3*x3 - 15*w(3,1)*x2^3*x3 -
      108*x1^2*x3^2 - 9*x1*x2*x3^2 + 216*w(3,1)*x1*x2*x3^2 + 81*x2^2*x3^2 +
      117*w(3,1)*x2^2*x3^2 - 219*w(3,1)*x1*x3^3 - 219*x2*x3^3 -
      246*w(3,1)*x2*x3^3 + 171*x3^4 + 171*w(3,1)*x3^4 + 3*w(3,1)*x1^4*x3 +
      12*x1^3*x2*x3 + 12*w(3,1)*x1^3*x2*x3 + 18*x1^2*x2^2*x3 -
      12*w(3,1)*x1*x2^3*x3 - 3*x2^4*x3 - 3*w(3,1)*x2^4*x3 - 36*x1^3*x3^2 -
      36*w(3,1)*x1^3*x3^2 - 108*x1^2*x2*x3^2 + 108*w(3,1)*x1*x2^2*x3^2 +
      36*x2^3*x3^2 + 36*w(3,1)*x2^3*x3^2 + 162*x1^2*x3^3 -
      324*w(3,1)*x1*x2*x3^3 - 162*x2^2*x3^3 - 162*w(3,1)*x2^2*x3^3 +
      324*w(3,1)*x1*x3^4 + 324*x2*x3^4 + 324*w(3,1)*x2*x3^4 - 243*x3^5 -
      243*w(3,1)*x3^5;
}
"""


def test_engine_certificate_in_three_variables_over_zeta_3():
    got = multiplicity(parse_germ(THREE_VARIABLES_ZETA_3).gmap)
    assert (got.value, got.stabilized_at, got.quotient_dims) == \
        (24, 7, (1, 4, 9, 15, 20, 23, 24, 24))


# Over Q(zeta_512), the shared coefficient 1 + 2*L1 + L1^3 of x1^2 is
# dense in the power basis, so pivots led by it are not rational, and
# inverting such a lead takes phi(512) - 1 = 255 dense products.
DENSE_LEAD_512 = """\
matrix {
  block { size = 1, order = 512, power = 1 }
  block { size = 1, order = 1, power = 1 }
}
map {
  f1 = x1^2 + 2*L1*x1^2 + L1^3*x1^2 + x2^3;
  f2 = x1^2 + 2*L1*x1^2 + L1^3*x1^2 + x1^3 + x2^4 + L1*x1*x2^3;
}
"""


# The coefficient 1 + 2*L1 + L1^3 of x1 in f1 is not rational over
# Q(zeta_12), and x1 occurs in no other term of f1.  The lowest forms
# share the zero x1 = 0, so the Cronin test fails and the linear
# elimination solves f1 for x1.
LINEAR_ELIMINATION_12 = """\
matrix {
  block { size = 1, order = 12, power = 1 }
  block { size = 1, order = 1, power = 1 }
}
map {
  f1 = x1 + 2*L1*x1 + L1^3*x1 + x2^3;
  f2 = x1*x2 + x2^3 + x1^3;
}
"""


def test_engine_never_inverts(monkeypatch):
    """Nothing in multiplicity inverts a coefficient: with
    CyclotomicNumber.invert made to raise, systems whose pivot leads are
    not rational, over Q(zeta_12), Q(zeta_3) and Q(zeta_512), keep their
    certificates, and a system whose linear elimination solves for x1
    with a coefficient that is not rational keeps its value."""
    systems = [parse_germ(text).gmap for text in
               (NON_RATIONAL_LEADS, THREE_VARIABLES_ZETA_3, DENSE_LEAD_512,
                LINEAR_ELIMINATION_12)]

    def refuse(self):
        raise AssertionError("the engine inverted a coefficient")

    monkeypatch.setattr(CyclotomicNumber, "invert", refuse)
    got = [multiplicity(f) for f in systems]
    assert [(r.value, r.stabilized_at, r.quotient_dims) for r in got] == [
        (20, 8, (1, 3, 6, 10, 14, 17, 19, 20, 20)),
        (24, 7, (1, 4, 9, 15, 20, 23, 24, 24)),
        (6, 4, (1, 3, 5, 6, 6)),
        (3, None, ())]


def _unit_combination(rng, f: GermMap, modulus: int) -> GermMap:
    """L * U * f for unit triangular L and U with random nonzero entries:
    the same ideal, so the same order and the same Q_d, but the lowest
    forms of the coordinates now share a zero and the engine runs."""
    coords = list(f.embed(modulus).coords)
    n = len(coords)

    def unit():
        c = rng.choice([1, -1, 2, -2, 3])
        return c if modulus == 1 else \
            root_of_unity(modulus, rng.randrange(modulus), modulus) * c

    for i in range(n):
        for j in range(i + 1, n):
            coords[i] = coords[i] + coords[j] * unit()
    for i in reversed(range(n)):
        for j in range(i):
            coords[i] = coords[i] + coords[j] * unit()
    return GermMap(coords)


def _assert_quotients_match_the_definition(f: GermMap, result) -> None:
    for d, q in enumerate(result.quotient_dims, start=1):
        assert truncated_quotient_dim(f, d) == q


def _engine_outcome(f: GermMap, cap: int):
    """(value, stabilized_at, quotient_dims) of the engine run on f
    itself, with no closed-form reduction first, or None when it does not
    stabilize by the cap."""
    try:
        return _stabilize(f.coords, f.nvars, cap)
    except NotIsolatedWithinBound:
        return None


def _definition_outcome(f: GermMap, cap: int = 64):
    """The same triple from truncated_quotient_dim, one Q_d at a time,
    which builds every row trunc(x^a f_i, d) and skips none."""
    dims = [truncated_quotient_dim(f, 1)]
    for d in range(2, cap + 2):
        dims.append(truncated_quotient_dim(f, d))
        if dims[-1] == dims[-2]:
            return dims[-1], d - 1, tuple(dims)
    return None


def _shares_a_lead(f: GermMap) -> bool:
    leads = [min(p.terms, key=grevlex_key) for p in f.coords]
    return len(set(leads)) < len(leads)


# no shrink or explain phase: on a broken engine each failing example
# runs the engine to the cap, and those phases took minutes
@settings(max_examples=40, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1), nvars=st.integers(2, 3),
       max_degree=st.integers(2, 5), modulus=st.sampled_from([1, 3, 4, 6, 12]))
def test_engine_quotients_match_the_definition(seed, nvars, max_degree,
                                               modulus):
    """Every Q_d of a certificate is dim K[x]_{<d} modulo every row
    trunc(x^a f_i, d), built in full by truncated_quotient_dim, which
    shares no scheduling, degree bound or skipped row with the engine.
    The engine run on g itself, with no reduction first, agrees too: the
    unit combination makes coordinates share a lead, so the Koszul
    criterion skips rows."""
    rng = random.Random(seed)
    f, value = random_isolated_system(rng, nvars, max_degree)
    g = _unit_combination(rng, f, modulus)
    # Q_1 = 1 and Q_d grows until it repeats, so d* <= value, and the
    # value of every residual system is at most value: cap value decides
    # nothing short, and a broken engine stops there instead of at 64
    result = multiplicity(g, degree_cap=value)
    assert result.value == value
    _assert_quotients_match_the_definition(g, result)
    assert _engine_outcome(g, value) == _definition_outcome(g, value)


def _restarting_systems():
    """Engine systems with d* >= 8, so the degree bound 8 is passed."""
    systems = [f for f in _engine_systems() if multiplicity(f).stabilized_at >= 8]
    return systems + [parse_germ(NON_RATIONAL_LEADS).gmap]


@pytest.mark.parametrize("modulus", [1, 3, 4, 6, 12])
def test_engine_restart_keeps_the_definition(monkeypatch, modulus):
    """Past degree 8 the engine rebuilds its echelon with a doubled degree
    bound; the certificate is still the definition's."""
    systems = [f.embed(modulus) if f.modulus == 1 else f
               for f in _restarting_systems()]
    engine = importlib.import_module("orbitdex.multiplicity")
    runs = []  # the bound of each run built, per engine call
    stabilize = engine._stabilize

    class Counted(engine._Run):
        def __init__(self, top, shift):
            super().__init__(top, shift)
            runs[-1].append(top)

    def counted_stabilize(*args, **kwargs):
        runs.append([])
        return stabilize(*args, **kwargs)

    monkeypatch.setattr(engine, "_Run", Counted)
    monkeypatch.setattr(engine, "_stabilize", counted_stabilize)
    for g in systems:
        runs.clear()
        result = multiplicity(g)
        assert result.stabilized_at >= 8
        assert max(map(len, runs)) >= 2  # a rebuild ran
        for tops in runs:  # each restart raises the bound
            assert tops == sorted(set(tops))
        _assert_quotients_match_the_definition(g, result)


def test_engine_cap_after_a_restart():
    """The bound doubles only up to cap + 1, and the cap is exact: Q_12
    repeats Q_11 on this system, so cap 11 certifies and cap 10 cannot."""
    f = _engine_systems()[3]
    assert multiplicity(f, degree_cap=11).quotient_dims == \
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 11)
    with pytest.raises(NotIsolatedWithinBound) as err:
        multiplicity(f, degree_cap=10)
    assert not err.value.definite


def _recombined_leads(f: GermMap) -> list[tuple[int, ...]]:
    """The leads of the generators the engine runs on: the pivot columns
    of f's full rows, in input order, from conftest's reference echelon,
    which is keyed by exponent tuples and shares no key layout with the
    engine."""
    reference = ReferenceEchelon()
    for row in _integral_rows(f.coords):
        assert reference.insert(row) is not None
    return list(reference.pivots)


def test_engine_builds_only_rows_that_can_change_q_d(monkeypatch):
    """Step d offers the echelon only rows x^a f_i of order d - 1, none
    with a term at degree 8 or above (the first degree bound; d* < 8
    here), and of those exactly the ones whose x^a no earlier lead
    divides, the f_i being the recombined generators.  The second system's coordinates
    share their lead x^2, which the recombination removes."""
    engine = importlib.import_module("orbitdex.multiplicity")
    steps, layout = [], _spied_packer(monkeypatch)

    class Recorded(engine._Echelon):
        def __init__(self, *args):
            super().__init__(*args)
            self.rows = []
            steps.append([])

        def offer(self, col, a, kept):
            self.rows.append(_decoded({k + a: c for k, c in kept.items()},
                                      self, layout))
            return super().offer(col, a, kept)

        def pivots_below(self, degree):
            steps[-1].append((degree, self.rows))
            self.rows = []
            return super().pivots_below(degree)

    monkeypatch.setattr(engine, "_Echelon", Recorded)
    skipped_in_all = 0
    for f in (_engine_systems()[0], _engine_systems()[6]):
        steps.clear()
        result = multiplicity(f)
        assert result.stabilized_at < 8
        for run in steps:
            for d, rows in run:
                for row in rows:
                    assert min(map(sum, row)) == d - 1
                    assert max(map(sum, row)) < 8
        # the last run is the engine on f itself: every x^a f_i of order
        # at most d* is built once, and no other, less those where x^a is
        # a multiple of the lead of an earlier f_j (the Koszul criterion)
        n, leads = f.nvars, _recombined_leads(f)
        assert len(set(leads)) == n
        orders = [sum(lead) for lead in leads]
        built = sum(math.comb(d - 1 - o + n - 1, n - 1) for o in orders
                    for d in range(o + 1, result.stabilized_at + 2))
        skipped = 0
        for i, o in enumerate(orders):
            for d in range(o + 1, result.stabilized_at + 2):
                multiples = {tuple(map(sum, zip(lead, b)))
                             for lead in leads[:i]
                             for b in itertools.product(range(d), repeat=n)
                             if sum(b) == d - 1 - o - sum(lead)}
                skipped += len(multiples)
        skipped_in_all += skipped
        assert sum(len(rows) for _, rows in steps[-1]) == built - skipped
    assert skipped_in_all > 0


@pytest.mark.parametrize("top", [None, 3])
@pytest.mark.parametrize("modulus", [1, 4])
def test_row_stored_unbuilt_builds_as_the_stripped_eager_row(modulus, top):
    """A shift x^a g of a recombined generator g whose lead has no pivot
    is stored unbuilt; once a later row reduces against it, it is built,
    and equals the row built eagerly from g's terms with its content
    stripped, uncut (top None) and cut below degree 3, where the kept
    terms of both generators have content 2 and 3 over Q and Q(zeta_4)
    alike (the Q(zeta_4) generator's lead is 3i)."""
    x, y = variables(2, modulus)
    i = root_of_unity(4, 1, 4) if modulus == 4 else 1
    f = system(2 * x**2 + x * y * 4 * i + 3 * y**3, y**2 * 3 * i + 5 * x**3)
    pack, shift = _packer(2, 16)
    basis = _recombined(_integral_rows(f.coords), pack, shift, 16)
    a = pack((1, 2))
    contents = []
    for lead, terms in basis.items():
        eager = {k: c for k, c in terms.items()
                 if top is None or k >> shift < top}
        kept = dict(eager)
        if len(kept) < len(terms):
            _strip_content(kept)
        contents.append(_content(eager))
        echelon = _Echelon(shift)
        echelon.offer(lead + a, a, kept)
        assert echelon.pivots[lead + a] == (a, kept)
        assert echelon.insert({k + a: c for k, c in kept.items()}) is None
        stripped = {k + a: c for k, c in eager.items()}
        _strip_content(stripped)
        assert echelon.pivots[lead + a] == stripped
    assert contents == ([1, 1] if top is None else [2, 3])


def test_engine_offers_rows_with_content_1(monkeypatch):
    """Every row the engine offers, cut or not, is stored as inserting it
    would store it: its kept terms have content 1, over Q and Q(zeta_M),
    on systems that pass the first degree bound."""
    engine = importlib.import_module("orbitdex.multiplicity")
    offered = []

    class Checked(engine._Echelon):
        def offer(self, col, a, kept):
            primitive = dict(kept)
            _strip_content(primitive)
            assert primitive == kept
            offered.append(len(kept))
            return super().offer(col, a, kept)

    monkeypatch.setattr(engine, "_Echelon", Checked)
    for f in _restarting_systems():
        for g in (f, f.embed(4)) if f.modulus == 1 else (f,):
            multiplicity(g)
    assert offered


@pytest.mark.parametrize("modulus", [1, 3, 4, 6, 12])
def test_engine_with_shared_leads_keeps_the_definition(modulus):
    """Systems whose coordinates share a lead, in 2 and 3 variables, and
    one with a curve of zeros (x = y), over Q and Q(zeta_M): the engine's
    outcome on each is the definition's.  The caps are the definition's
    values, so a wrong skip fails fast instead of running to the cap."""
    x, y = variables(2)
    x1, x2, x3 = variables(3)
    rng = random.Random(modulus)
    combined = [_unit_combination(rng, f, modulus) for f in (
        system(x**2 + x * y**2, y**3 + x**3 * y),
        system(x1**2 + x2**3, x2**2 + x1 * x3**2, x3**2 + x1**3))]
    shared = [f.embed(modulus) for f in _engine_systems() if _shares_a_lead(f)]
    curve = system((x - y) * (x + y), (x - y) * (x + 2 * y))
    assert all(map(_shares_a_lead, shared + combined + [curve]))
    for g in shared + combined:
        want = _definition_outcome(g)
        assert _engine_outcome(g, want[0]) == want
    assert _engine_outcome(curve.embed(modulus), 12) is None
    assert _definition_outcome(curve.embed(modulus), 12) is None


def _spied_stabilize(monkeypatch):
    """Wrap the engine so that the returned list gets (cap, outcome) per
    run, the outcome None when it does not stabilize."""
    engine = importlib.import_module("orbitdex.multiplicity")
    calls, stabilize = [], engine._stabilize

    def spied(coords, nvars, cap, *args, **kwargs):
        try:
            out = stabilize(coords, nvars, cap, *args, **kwargs)
        except NotIsolatedWithinBound:
            calls.append((cap, None))
            raise
        calls.append((cap, out))
        return out

    monkeypatch.setattr(engine, "_stabilize", spied)
    return calls


def _random_form(rng, nvars: int, degree: int, modulus: int) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        cut = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
        mono = tuple(b - a for a, b in zip([0] + cut, cut + [degree]))
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        terms[mono] = c if modulus == 1 else \
            root_of_unity(modulus, rng.randrange(modulus), modulus) * c
    return Poly(nvars, modulus, terms)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), nvars=st.integers(2, 3),
       modulus=st.sampled_from([1, 1, 3, 4]))
def test_lowest_forms_run_the_engine_to_the_stated_bound(seed, nvars, modulus):
    """The isolation decision of forms of degrees m_j runs the engine with
    cap sum(m_j) - n + 1, and an isolated system stabilizes exactly there,
    so no smaller cap decides it."""
    rng = random.Random(seed)
    forms = [_random_form(rng, nvars, rng.randint(1, 4), modulus)
             for _ in range(nvars)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _spied_stabilize(monkeypatch)
        degrees, isolated = _lowest_isolated(forms, nvars, 64)
    bound = sum(degrees) - nvars + 1
    assert all(cap == bound for cap, _ in calls)
    if isolated:
        (_, (_, d_star, _)), = calls
        assert d_star == bound


def _spied_runs(monkeypatch) -> list[int]:
    """Wrap the engine's run so that the returned list gets the degree
    bound of every run built, that is, of every echelon of shifted rows."""
    engine = importlib.import_module("orbitdex.multiplicity")
    runs = []

    class Spied(engine._Run):
        def __init__(self, top, shift):
            super().__init__(top, shift)
            runs.append(top)

    monkeypatch.setattr(engine, "_Run", Spied)
    return runs


def test_dependent_lowest_forms_decide_without_the_engine(monkeypatch):
    """Linearly dependent lowest forms of one degree are not isolated,
    with no engine row built: the engine's recombination refuses them at
    once.  Independent forms of one degree still run it; a decision bound
    past the cap still concludes nothing."""
    calls, runs = _spied_stabilize(monkeypatch), _spied_runs(monkeypatch)
    x, y = variables(2)
    x1, x2, x3 = variables(3)
    q = x1**2 - x2 * x3
    z = root_of_unity(3, 1, 3)
    over_zeta_3 = system(x1 + x2 + x1**2, x1 + x2 - x3**2,
                         x3 + x1 * x2).embed(3).coords
    dependent = [
        (x**2 + y**3, 2 * x**2 + x**4),
        (q + x3**3, x2**2, q + 3 * x2**2 + x1**5),
        (over_zeta_3[0] * z, over_zeta_3[1] * z**2, over_zeta_3[2]),
    ]
    for coords in dependent:
        nvars = coords[0].nvars
        assert _lowest_isolated(coords, nvars, 64)[1] is False
    assert [outcome for _, outcome in calls] == [None] * len(dependent)
    assert runs == []
    # one degree, independent: isolated, and a curve of zeros x = y
    assert _lowest_isolated((x**2, y**2), 2, 64) == ((2, 2), True)
    assert _lowest_isolated((x**2 - x * y, y**2 - x * y), 2, 64) == \
        ((2, 2), False)
    assert [cap for cap, _ in calls[len(dependent):]] == [3, 3]
    assert runs == [4, 4]
    # sum(m_j) - n + 2 = 4 > 3: undecided, whether dependent or not
    assert _lowest_isolated((x**2, 2 * x**2), 2, 3) == ((2, 2), None)
    assert _lowest_isolated((x**2, y**2), 2, 3) == ((2, 2), None)
    assert len(calls) == len(dependent) + 2 and len(runs) == 2


def _shared_power_system(rng, nvars: int, modulus: int) -> GermMap:
    """B * (x_j^a_j + x_j^(a_j + 1) + h_j) for a unit combination B,
    exponents a_j >= 2 with a unique least a_1 and each h_j of order
    > a_j + 1: the order is prod(a_j), no exponent gcd divides out, no
    variable occurs linearly, and every lowest form is a multiple of
    x_1^a_1, so the Cronin product does not apply and the engine runs on
    the input."""
    least = rng.randint(2, 3)
    a = [least] + [rng.randint(least + 1, least + 4 - nvars)
                   for _ in range(nvars - 1)]
    coords = []
    for j, e in enumerate(a):
        x = Poly.variable(j, nvars, modulus)
        coords.append(x**e + x**(e + 1) + random_poly(
            rng, nvars, e + 3, max_terms=2, modulus=modulus,
            min_degree=e + 2))
    return _unit_combination(rng, GermMap(coords), modulus)


def _engine_shape(f: GermMap) -> tuple:
    """What decides the closed-form reductions that differ between
    constant recombinations of such a system: the orders of the
    coordinates, and which coordinates have monomial content."""
    return (tuple(p.lowest_form()[0] for p in f.coords),
            tuple(any(p.monomial_content()) for p in f.coords))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), nvars=st.integers(2, 3),
       modulus=st.sampled_from([1, 3, 4, 12]))
def test_constant_recombination_keeps_the_certificate(seed, nvars, modulus):
    """F and A * F, for an invertible constant matrix A over K, generate
    one ideal, so the engine's certificate is the same.  With the same
    coordinate orders and no monomial content, the closed-form
    reductions take the same path on both (the monomials of all
    coordinates together are the same, as A is invertible), and the
    engine runs on the input itself."""
    rng = random.Random(seed)
    f = _shared_power_system(rng, nvars, modulus)
    scaled = GermMap([p * (root_of_unity(modulus, rng.randrange(modulus),
                                         modulus) * rng.choice([1, -2, 3]))
                      for p in f.coords])
    g = _unit_combination(rng, scaled, modulus)
    assume(_engine_shape(f) == _engine_shape(g))
    assume(not any(_engine_shape(f)[1]))
    want = multiplicity(f)
    assert want.stabilized_at is not None
    got = multiplicity(g)
    assert (got.value, got.fast_path, got.stabilized_at, got.quotient_dims) \
        == (want.value, want.fast_path, want.stabilized_at,
            want.quotient_dims)


def test_dependent_generators_refuse_without_an_engine_run(monkeypatch):
    """Generators that are linearly dependent over K leave at most n - 1
    generators, so the zero set is positive-dimensional (Krull): the
    engine refuses definitely, naming the dependent coordinate, and
    builds no run.  Over Q and Q(zeta_3), through every closed-form
    reduction (none applies) and on the engine alone."""
    runs = _spied_runs(monkeypatch)
    x1, x2, x3 = variables(3)
    g1 = x1**2 - x1 * x2 + x3**3
    g2 = x2**2 - x2 * x3 + x1**3
    witness = ("coordinate 3 of a reduced system is a constant linear "
               "combination of the ones before it, so the zero set is "
               "positive-dimensional")
    for modulus in (1, 3):
        z = root_of_unity(modulus, 1, modulus)
        f = system(g1, g2, g1 * 2 - g2).embed(modulus)
        f = GermMap([f.coords[0], f.coords[1] * z, f.coords[2] * z])
        for cap, refuse in ((64, multiplicity),
                            (5, lambda f, cap: _stabilize(f.coords, 3, cap))):
            with pytest.raises(NotIsolatedWithinBound) as err:
                refuse(f, cap)
            assert str(err.value) == \
                f"not isolated within degree {cap}: {witness}"
            assert err.value.definite
    assert runs == []


def _reducible_system(rng, nvars: int, modulus: int) -> GermMap:
    """A square system built to reach every closed-form reduction.  Some
    coordinates are single variables (one may repeat, and then a copy
    vanishes); each other coordinate has a core in the remaining, free
    variables, plus terms that carry a peeled variable and so vanish in
    the peel.  A core is a free variable (a chain: a single variable once
    peeled), nothing (the coordinate vanishes), a monomial multiple, a
    linear-elimination candidate, x_a^2 - x_a*x_b + x_b^k, whose lowest
    forms share the zero x_a = x_b and so send the system past the Cronin
    product, or random terms.  Now and then every exponent of a variable
    is scaled by a common factor."""
    def coeff():
        c = Fraction(rng.choice([-2, -1, 1, 1, 2, 3]), rng.choice([1, 1, 2]))
        if modulus == 1:
            return c
        return root_of_unity(modulus, rng.randrange(modulus), modulus) * c

    def mono(degree, among):
        m = [0] * nvars
        for _ in range(degree):
            m[rng.choice(among)] += 1
        return tuple(m)

    def unit(*variables):
        return tuple(variables.count(i) for i in range(nvars))

    peeled = rng.sample(range(nvars), rng.randrange(nvars))
    free = [i for i in range(nvars) if i not in peeled]
    coords = [{unit(v): coeff()} for v in peeled]
    if peeled and rng.random() < 0.2:
        coords.append({unit(rng.choice(peeled)): coeff()})
    unchained = rng.sample(free, len(free))
    kinds = ["chain", "content", "linear", "tangent", "random"]
    kinds += [rng.choice(kinds)] * 4 + ["survivor"]  # mostly of one kind
    while len(coords) < nvars:
        kind = rng.choice(kinds)
        terms = {}
        if kind == "chain":
            # a fresh free variable while there is one, so that most
            # chains peel; a repeat vanishes in the second peel
            w = unchained.pop() if unchained else rng.choice(free)
            terms[unit(w)] = coeff()
        elif kind == "content":
            lead = mono(rng.randint(1, 2), free)
            for _ in range(rng.randint(1, 3)):
                m = mono(rng.randint(0, 2), free)
                terms[tuple(a + b for a, b in zip(lead, m))] = coeff()
        elif kind == "linear" and len(free) > 1:
            i = rng.choice(free)
            terms[unit(i)] = coeff()
            rest = [k for k in free if k != i]
            for _ in range(rng.randint(1, 3)):
                terms[mono(rng.randint(1, 3), rest)] = coeff()
        elif kind == "tangent" and len(free) > 1:
            a, b = rng.sample(free[:2], 2)
            c = coeff()
            terms[unit(a, a)] = c
            terms[unit(a, b)] = -c
            if rng.random() < 0.8:  # else the zero need not be isolated
                terms[mono(rng.randint(3, 4), [b])] = coeff()
        elif kind != "survivor" or not peeled:
            for _ in range(rng.randint(1, 3)):
                terms[mono(rng.randint(1, 3), free)] = coeff()
        for _ in range(rng.randint(0, 2) if peeled else 0):
            m = list(mono(rng.randint(0, 2), range(nvars)))
            m[rng.choice(peeled)] += 1
            terms[tuple(m)] = coeff()
        coords.append(terms)
    rng.shuffle(coords)
    scale = [rng.choice([1, 1, 2, 3]) if rng.random() < 0.3 else 1
             for _ in range(nvars)]
    return GermMap([Poly(nvars, modulus,
                         {tuple(e * g for e, g in zip(m, scale)): c
                          for m, c in terms.items()})
                    for terms in coords])


def _outcome(fn, f, cap):
    try:
        return fn(f, degree_cap=cap)
    except NotIsolatedWithinBound as exc:
        return type(exc), exc.definite


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), nvars=st.integers(1, 4),
       modulus=st.sampled_from([1, 1, 3, 4]))
def test_reduction_loop_matches_the_recursive_reductions(seed, nvars, modulus):
    """The one-pass peel and the reduction loop give the value and the
    certificate of the recursive reductions, one peel per call, that they
    replaced; a refusal has the same class and definiteness."""
    f = _reducible_system(random.Random(seed), nvars, modulus)
    assert _outcome(multiplicity, f, 12) == \
        _outcome(reference_multiplicity, f, 12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family_parameters())
def test_reductions_match_the_recursive_reductions_on_period_parts(case):
    """On the period parts of chain and chain-plus-coprime germs, whose
    reductions are chains of monomial splits, the loop with projected
    split branches and closed one-variable systems gives what the
    recursive reductions give."""
    spec, r, cross = case
    germ = chain_germ(spec, r) if cross is None else \
        chain_coprime_germ(spec, r, cross)
    stripped = validate_rnf(spec, germ).stripped
    for q in sorted(period_set(spec)):
        keep = [c for j in period_blocks(spec, q)
                for c in range(spec.offsets[j], spec.offsets[j + 1])]
        g = project(stripped, keep)
        assert _outcome(multiplicity, g, 64) == \
            _outcome(reference_multiplicity, g, 64)


def _split_system(rng, nvars: int, modulus: int) -> GermMap:
    """Coordinates x^a * (x_j^p + higher noise), coefficients rational
    or times a root of unity: most x^a are a power of x_j, some hold
    another variable (often leaving the zero not isolated), and p = 0
    makes the quotient a unit.  The splits' variable branches reach
    one-variable systems."""
    coords = []
    for j in range(nvars):
        content = [0] * nvars
        if rng.random() < 0.7:
            content[j] = rng.randint(1, 2)
        if rng.random() < 0.15:
            content[rng.randrange(nvars)] += 1
        power = rng.randint(0 if any(content) else 1, 3)
        g = Poly.variable(j, nvars, modulus) ** power + random_poly(
            rng, nvars, 4, max_terms=2, modulus=modulus,
            min_degree=max(power, 1))
        coords.append(Poly(nvars, modulus, {
            tuple(a + e for a, e in zip(content, m)):
            c * root_of_unity(modulus, rng.randrange(modulus), modulus)
            for m, c in g.terms.items()}))
    return GermMap(coords)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), nvars=st.integers(1, 3),
       modulus=st.sampled_from([1, 1, 3, 4]))
def test_reductions_match_the_recursive_reductions_on_split_systems(
        seed, nvars, modulus):
    """Systems with monomial splits and one-variable leaves get the
    value, certificate or refusal of the recursive reductions."""
    f = _split_system(random.Random(seed), nvars, modulus)
    assert _outcome(multiplicity, f, 12) == \
        _outcome(reference_multiplicity, f, 12)


def test_peels_keep_the_call_depth_flat():
    """The 300-variable identity is peeled in one pass: under a recursion
    limit of 200 it still has order 1 (one call per peel overflowed)."""
    identity = GermMap(variables(300))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        result = multiplicity(identity)
    finally:
        sys.setrecursionlimit(limit)
    assert (result.value, result.fast_path) == (1, True)


def split_chain(n: int) -> GermMap:
    """f_j = x_j + x_{j+1} + x_j^2*x_{j+1}^2 + x_j^3, and f_n = x_n +
    x_n^2*x_1^2 + x_n^3: x_n divides f_n with a unit quotient, and
    peeling x_n leaves x_{n-1} dividing f_{n-1} with a unit quotient, so
    the order 1 takes n monomial splits, one inside the other."""
    xs = variables(n)
    last = xs[-1] + xs[-1]**2 * xs[0]**2 + xs[-1]**3
    return GermMap([x + y + x**2 * y**2 + x**3
                    for x, y in zip(xs, xs[1:])] + [last])


def test_nested_splits_keep_the_call_depth_and_memory_flat():
    """The 100-variable split chain has order 1 with 60 frames to spare
    above the caller and under 4 MB of peak allocation (one call per
    split raised RecursionError there, and each held its own system)."""
    f = split_chain(100)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    tracemalloc.start()
    try:
        result = multiplicity(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.setrecursionlimit(limit)
    assert (result.value, result.fast_path) == (1, True)
    assert peak < 4 * 2**20


def test_a_peel_that_zeroes_a_coordinate_names_its_reduced_position():
    """(x1, x2, x1*x3 + x1^2): x1 and x2 are peeled in one pass, which
    leaves (0) in x3, so position 1 vanishes (peeling x1 alone first left
    (x2, 0), position 2)."""
    x1, x2, x3 = variables(3)
    with pytest.raises(NotIsolatedWithinBound) as err:
        multiplicity(system(x1, x2, x1 * x3 + x1**2))
    assert err.value.definite
    assert err.value.witness == ("a coordinate vanishes identically "
                                 "(position 1 of a reduced system)")


@pytest.mark.parametrize("nvars, degree", [
    (n, d) for n in range(1, 5) for d in range(6)] + [(2, 17), (6, 3)])
def test_multipliers_are_packed_monomials_in_grevlex_order(nvars, degree):
    """The keys of one degree are those that _packer gives the exponent
    tuples of that degree, in grevlex order, built by brute force."""
    pack, shift = _packer(nvars, degree + 1)
    brute = [m for m in itertools.product(range(degree + 1), repeat=nvars)
             if sum(m) == degree]
    assert _multipliers(nvars, shift)(degree) == \
        [pack(m) for m in sorted(brute, key=grevlex_key)]


def test_multipliers_do_not_recurse_on_nvars():
    pack, shift = _packer(1500, 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        linear = _multipliers(1500, shift)(1)
    finally:
        sys.setrecursionlimit(limit)
    assert linear == [pack(m) for m in sorted(
        (tuple(int(k == i) for k in range(1500)) for i in range(1500)),
        key=grevlex_key)]


def test_engine_packs_each_input_term_once_and_no_multiplier(monkeypatch):
    """Over one engine call that restarts, pack runs once per term of the
    input rows, and never on a multiplier: every shifted row is a key
    addition."""
    engine = importlib.import_module("orbitdex.multiplicity")
    packed, packer = [], engine._packer

    def spied(nvars, top):
        pack, shift = packer(nvars, top)

        def counted(mono):
            packed.append(mono)
            return pack(mono)

        return counted, shift

    monkeypatch.setattr(engine, "_packer", spied)
    runs = _spied_runs(monkeypatch)
    f = parse_germ(NON_RATIONAL_LEADS).gmap
    value, d_star, _ = _stabilize(f.coords, f.nvars, 64)
    assert (value, d_star) == (20, 8)
    assert len(runs) >= 2  # a restart ran
    assert sorted(packed) == sorted(m for p in f.coords for m in p.terms)
