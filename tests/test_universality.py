import itertools
import math
import time

import pytest
from hypothesis import given, settings

from orbitdex import (ConsistencyError, GermMap, JordanBlock, JordanSpec, Poly,
                      SequenceTarget, is_universal, orbit_spectrum, realize,
                      residue_search, universality, validate_rnf)
from orbitdex.jordan import global_order
from orbitdex.universality import (chain_check, chain_coprime_germ, chain_germ,
                                   normalized_target, unit_spectrum_germ)
from conftest import family_parameters

B = JordanBlock


# -- special-shape predicates: independent oracles for is_universal ----------


def equal_order_universal(spec: JordanSpec) -> bool | None:
    """When all block orders are equal: universal iff there is one block.
    None when the shape does not apply."""
    orders = set(spec.orders())
    if len(orders) != 1:
        return None
    return spec.m == 1


def pairwise_coprime_universal(spec: JordanSpec) -> bool | None:
    """When the orders are pairwise coprime with at most one equal to 1:
    universal iff m <= 2, or m == 3 and one of the orders is 1."""
    orders = spec.orders()
    if sum(1 for d in orders if d == 1) > 1:
        return None
    for a, b in itertools.combinations(orders, 2):
        if math.gcd(a, b) != 1:
            return None
    if spec.m <= 2:
        return True
    if spec.m == 3:
        return any(d == 1 for d in orders)
    return False


def two_chain_shape(spec: JordanSpec) -> bool:
    """Four blocks splitting into two strict 2-chains of orders > 1 whose
    top orders are coprime (a non-universal shape), up to reordering."""
    if spec.m != 4:
        return False
    for perm in itertools.permutations(range(4)):
        d = [spec.blocks[i].order for i in perm]
        if (1 < d[0] and d[1] % d[0] == 0 and d[0] != d[1]
                and 1 < d[2] and d[3] % d[2] == 0 and d[2] != d[3]
                and math.gcd(d[1], d[3]) == 1):
            return True
    return False


def unit_two_chain_shape(spec: JordanSpec) -> bool:
    """Five blocks: one of order 1 plus two strict 2-chains of orders > 1
    with coprime tops (a non-universal shape), up to reordering."""
    if spec.m != 5:
        return False
    for unit in range(5):
        if spec.blocks[unit].order != 1:
            continue
        rest = [i for i in range(5) if i != unit]
        for perm in itertools.permutations(rest):
            d = [spec.blocks[i].order for i in perm]
            if (1 < d[0] and d[1] % d[0] == 0 and d[0] != d[1]
                    and 1 < d[2] and d[3] % d[2] == 0 and d[2] != d[3]
                    and math.gcd(d[1], d[3]) == 1):
                return True
    return False


def spec_of(*orders, powers=None, sizes=None):
    powers = powers or [1] * len(orders)
    sizes = sizes or [1] * len(orders)
    return JordanSpec(tuple(B(k, d, r) for k, d, r in zip(sizes, orders, powers)))


def test_chain_check_examples():
    assert chain_check([B(1, 2, 1), B(1, 6, 1)])      # zeta_6^3 = -1
    assert not chain_check([B(1, 3, 2), B(1, 6, 1)])  # 2 != 1 mod 3
    assert chain_check([B(1, 4, 3)])                  # single block, vacuous


def test_universality_decision_table():
    assert is_universal(spec_of(4)).mode == "chain"
    v = is_universal(spec_of(2, 3))
    assert v.universal and v.mode == "chain-plus-coprime-block"
    assert not is_universal(spec_of(2, 3, 5)).universal
    assert is_universal(spec_of(1, 2, 3)).universal
    assert not is_universal(spec_of(3, 3, sizes=[1, 2])).universal
    assert not is_universal(spec_of(3, 9, 2, 8)).universal
    assert not is_universal(spec_of(1, 2, 4, 3, 9)).universal
    # eigenvalue compatibility matters, not just the orders
    assert not is_universal(spec_of(3, 6, powers=[2, 1])).universal
    assert is_universal(spec_of(3, 6, powers=[1, 1])).mode == "chain"
    assert is_universal(spec_of(3, 6, powers=[2, 5])).mode == "chain"


def test_failure_reason_present():
    v = is_universal(spec_of(2, 3, 5))
    assert not v.universal and "chain" in v.failure_reason


def test_special_shape_predicates_agree():
    cases = [
        spec_of(3), spec_of(3, 3), spec_of(2, 2, sizes=[2, 1]),
        spec_of(2, 3), spec_of(2, 3, 5), spec_of(1, 2, 3), spec_of(1, 2),
        spec_of(3, 9, 2, 8), spec_of(1, 2, 4, 3, 9), spec_of(5, 7),
        spec_of(1, 3, 5), spec_of(2, 3, 5, 7),
    ]
    for spec in cases:
        verdict = is_universal(spec).universal
        eq = equal_order_universal(spec)
        if eq is not None:
            assert eq == verdict, spec
        cop = pairwise_coprime_universal(spec)
        if cop is not None:
            assert cop == verdict, spec
        if two_chain_shape(spec) or unit_two_chain_shape(spec):
            assert not verdict, spec


def test_two_chain_shapes_recognized():
    assert two_chain_shape(spec_of(3, 9, 2, 8))
    assert two_chain_shape(spec_of(2, 8, 3, 9))   # order-insensitive
    assert not two_chain_shape(spec_of(2, 4, 8, 3))
    assert unit_two_chain_shape(spec_of(1, 2, 4, 3, 9))
    assert not unit_two_chain_shape(spec_of(1, 2, 4, 6, 9))


def test_residue_search_examples():
    w = residue_search((2, 4), (1, 1))
    assert (w.k, tuple(w.residues), w.product) == (1, (1, 1), 1)
    assert w.bound == 2 and w.product < w.bound
    w = residue_search((2, 3), (1, 2))
    assert (w.k, tuple(w.residues), w.product) == (5, (1, 1), 1)
    assert w.product == w.bound == 1
    w = residue_search((5,), (2,))
    assert w.k == 3 and w.residues == (1,)
    with pytest.raises(ValueError):
        residue_search((4,), (2,))


def test_residue_search_lcm_bound():
    # k runs up to lcm(moduli); an lcm of about 10^8 is refused at once
    start = time.monotonic()
    with pytest.raises(ValueError, match="lcm of the moduli 100160063 "
                                         "exceeds the supported bound 1000000"):
        residue_search((10007, 10009), (2, 3))
    assert time.monotonic() - start < 1


def test_residue_search_bound_small_exhaustive():
    for a1 in range(2, 8):
        for a2 in range(2, 8):
            for r1 in range(1, a1):
                if math.gcd(r1, a1) != 1:
                    continue
                for r2 in range(1, a2):
                    if math.gcd(r2, a2) != 1:
                        continue
                    w = residue_search((a1, a2), (r1, r2))
                    assert w.product <= w.bound
                    coprime = math.gcd(a1, a2) == 1
                    assert (w.product < w.bound) == (not coprime)


def test_residue_search_bound_sampled_wider(rng):
    """Sampled check of the bound and strictness clause up to four
    moduli of size up to 12 (the exhaustive sweep lives in acceptance)."""
    for _ in range(120):
        n = rng.randint(1, 4)
        mods = tuple(rng.randint(2, 12) for _ in range(n))
        powers = tuple(rng.choice([r for r in range(1, a)
                                   if math.gcd(r, a) == 1]) for a in mods)
        w = residue_search(mods, powers)
        assert w.product <= w.bound
        coprime = all(math.gcd(a, b) == 1
                      for a, b in itertools.combinations(mods, 2))
        assert (w.product < w.bound) == (not coprime)


def test_chain_germ_spectra():
    spec = spec_of(2, 6)
    g = chain_germ(spec, [2, 3])
    assert validate_rnf(spec, g).ok
    sp = orbit_spectrum(spec, g, cross_check=False)
    assert sp.counts == {1: 1, 2: 2, 6: 3}
    # unit-order first block shifts the fixed-point count by one
    spec2 = spec_of(1, 2, 6)
    g2 = chain_germ(spec2, [1, 2, 3])
    sp2 = orbit_spectrum(spec2, g2, cross_check=False)
    assert sp2.counts == {1: 2, 2: 2, 6: 3}


def test_unit_spectrum_germ_all_ones():
    for spec, want in [
        (spec_of(2, 4), {1: 1, 2: 1, 4: 1}),
        (spec_of(1, 3), {1: 2, 3: 1}),
        (spec_of(2, 4, sizes=[2, 1]), {1: 1, 2: 1, 4: 1}),
    ]:
        h = unit_spectrum_germ(spec)
        sp = orbit_spectrum(spec, h, cross_check=False)
        assert sp.counts == want, spec


def test_chain_coprime_germ_parameter_sweep():
    spec = spec_of(2, 6, 5)
    for r1, r2, r3, c1, c2 in itertools.product((1, 2), repeat=5):
        g = chain_coprime_germ(spec, [r1, r2, r3], [c1, c2])
        sp = orbit_spectrum(spec, g, cross_check=False)
        assert sp.counts == {1: 1, 2: r1, 6: r2, 5: r3, 10: c1, 30: c2}, \
            (r1, r2, r3, c1, c2)


# -- the family formulas in Poly arithmetic ---------------------------------


def _poly_base_coords(spec: JordanSpec, modulus: int) -> list[Poly]:
    n = spec.n
    coords = []
    for j, b in enumerate(spec.blocks):
        lam = b.eigenvalue(modulus)
        for c in range(spec.offsets[j], spec.offsets[j + 1]):
            p = Poly.variable(c, n, modulus) * lam
            if c != spec.block_end(j):
                p = p + Poly.variable(c + 1, n, modulus)
            coords.append(p)
    return coords


def poly_chain_germ(spec: JordanSpec, r) -> GermMap:
    """chain_germ's formula: block t's end gains u^(r_t d_1) * lead_t,
    plus lead_(t+1)^(d_(t+1)/d_t) below the top."""
    modulus, n = global_order(spec), spec.n
    coords = _poly_base_coords(spec, modulus)
    u = Poly.variable(spec.lead_coord(0), n, modulus)
    for t in range(spec.m):
        lead_t = Poly.variable(spec.lead_coord(t), n, modulus)
        extra = u ** (r[t] * spec.blocks[0].order) * lead_t
        if t + 1 < spec.m:
            ratio = spec.blocks[t + 1].order // spec.blocks[t].order
            extra = extra + Poly.variable(spec.lead_coord(t + 1), n,
                                          modulus) ** ratio
        coords[spec.block_end(t)] = coords[spec.block_end(t)] + extra
    return GermMap(coords, nvars=n, modulus=modulus)


def poly_chain_coprime_germ(spec: JordanSpec, r, cross) -> GermMap:
    """chain_coprime_germ's formula, u and v the leads of the first and
    the tail block."""
    m, d = spec.m, spec.orders()
    modulus, n = global_order(spec), spec.n
    coords = _poly_base_coords(spec, modulus)
    u = Poly.variable(spec.lead_coord(0), n, modulus)
    v = Poly.variable(spec.lead_coord(m - 1), n, modulus)
    d1, dm, rm = d[0], d[m - 1], r[m - 1]

    def chain_term(t):
        return Poly.variable(spec.lead_coord(t + 1), n,
                             modulus) ** (d[t + 1] // d[t])

    for t in range(m - 1):
        lead_t = Poly.variable(spec.lead_coord(t), n, modulus)
        if d1 > 1 and t == 0:
            extra = u ** (r[0] * d1 + 1) - u * v ** (rm * r[0] * dm) \
                + u * v ** (cross[0] * dm)
        elif d1 > 1:
            extra = lead_t * (u ** (r[t] * d1)
                              - v ** (rm * dm) * u ** ((r[t] - 1) * d1)
                              + v ** (cross[t] * dm))
        elif t == 0:
            extra = u ** (r[0] + 1) + v ** (rm * dm)
        else:
            extra = lead_t * (u ** r[t] + v ** (cross[t] * dm))
        if t + 1 < m - 1:
            extra = extra + chain_term(t)
        coords[spec.block_end(t)] += extra
    coords[spec.block_end(m - 1)] += v * (u ** d1 - v ** (rm * dm)) \
        if d1 > 1 else v * u
    return GermMap(coords, nvars=n, modulus=modulus)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(family_parameters())
def test_family_builders_match_their_poly_formulas(case):
    """The term-by-term builders give the germs that Poly arithmetic on
    the family formulas gives, terms merged and cancelled alike."""
    spec, r, cross = case
    if cross is None:
        assert chain_germ(spec, r) == poly_chain_germ(spec, r)
    else:
        assert chain_coprime_germ(spec, r, cross) == \
            poly_chain_coprime_germ(spec, r, cross)


def test_coprime_family_cancels_terms():
    """With r_m * r_0 = cross_0 the terms -u*v^(r_m r_0 d_m) and
    u*v^(cross_0 d_m) of the first end coordinate cancel, and with
    r_1 = 1, cross_1 = r_m the middle block loses two terms the same way;
    the builder drops them as the Poly sums do."""
    spec = spec_of(2, 4, 3)
    r, cross = [1, 1, 2], [2, 2]
    g = chain_coprime_germ(spec, r, cross)
    assert g == poly_chain_coprime_germ(spec, r, cross)
    assert set(g.coords[0].terms) == {(1, 0, 0), (3, 0, 0), (0, 2, 0)}
    assert set(g.coords[1].terms) == {(0, 1, 0), (2, 1, 0)}
    with pytest.raises(ValueError, match="parameters must be >= 1"):
        chain_coprime_germ(spec, [0, 1, 2], cross)


def test_realize_examples():
    doc = realize(spec_of(3), SequenceTarget({1: 1, 3: 2}))
    assert repr(doc.gmap.coords[0]).endswith("x1^7")
    doc = realize(spec_of(1), SequenceTarget({1: 3}))
    assert repr(doc.gmap.coords[0]) == "x1 + x1^3"
    doc = realize(spec_of(2, 6), SequenceTarget({1: 1, 2: 2, 6: 3}))
    sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=False)
    assert sp.counts == {1: 1, 2: 2, 6: 3}


def test_realize_block_order_is_preserved():
    spec = spec_of(5, 2, 6)  # coprime tail listed first
    target = SequenceTarget({1: 1, 2: 1, 5: 2, 6: 1, 10: 1, 30: 3})
    doc = realize(spec, target)
    assert doc.matrix == spec
    assert validate_rnf(spec, doc.gmap).ok
    sp = orbit_spectrum(spec, doc.gmap, cross_check=False)
    assert sp.counts == normalized_target(spec, target)


def test_realize_rejects_bad_inputs():
    with pytest.raises(ValueError, match="not universal"):
        realize(spec_of(2, 3, 5),
                SequenceTarget({1: 1, 2: 1, 3: 1, 5: 1, 6: 1, 10: 1,
                                15: 1, 30: 1}))
    with pytest.raises(ValueError, match="not admissible"):
        realize(spec_of(3), SequenceTarget({1: 2, 3: 1}))


def test_realize_refuses_a_constructed_germ_outside_normal_form(monkeypatch):
    def with_a_non_resonant_term(spec, params):
        germ = chain_germ(spec, params)
        x1 = Poly.variable(0, germ.nvars, germ.modulus)
        return GermMap([germ.coords[0] + x1 ** 2, *germ.coords[1:]],
                       nvars=germ.nvars, modulus=germ.modulus)

    monkeypatch.setattr(universality, "chain_germ", with_a_non_resonant_term)
    with pytest.raises(ConsistencyError,
                       match="constructed germ: normal form required: "
                             "non-resonant term x1\\^2 in coordinate 1; germ = "):
        realize(spec_of(2), SequenceTarget({1: 1, 2: 1}))


def test_coprime_family_with_longer_chain():
    # m = 4 exercises the middle-block terms of the coprime-tail family
    spec = spec_of(2, 4, 8, 3)
    g = chain_coprime_germ(spec, [1, 2, 1, 2], [1, 2, 1])
    sp = orbit_spectrum(spec, g, cross_check=False)
    assert sp.counts == {1: 1, 2: 1, 4: 2, 8: 1, 3: 2, 6: 1, 12: 2, 24: 1}
    spec2 = spec_of(1, 2, 4, 3)
    target = SequenceTarget({1: 2, 2: 1, 4: 2, 3: 1, 6: 3, 12: 1})
    doc = realize(spec2, target)
    sp2 = orbit_spectrum(spec2, doc.gmap, cross_check=False)
    assert sp2.counts == {1: 2, 2: 1, 3: 1, 4: 2, 6: 3, 12: 1}


def test_realize_jordan_blocks_of_size_two():
    spec = spec_of(2, 6, sizes=[2, 1])
    target = SequenceTarget({1: 1, 2: 2, 6: 1})
    doc = realize(spec, target)
    sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=False)
    assert sp.counts == {1: 1, 2: 2, 6: 1}


def test_minimal_counts_monotone_under_block_removal():
    """Dropping blocks can only lower the minimal realizable counts:
    compare all-minimal realizations on a chain and its sub-chain."""
    big = spec_of(2, 4)
    small = spec_of(2)
    big_min = orbit_spectrum(
        big, unit_spectrum_germ(big), cross_check=False).counts
    small_min = orbit_spectrum(
        small, unit_spectrum_germ(small), cross_check=False).counts
    for q, v in small_min.items():
        assert big_min.get(q, 0) >= v
