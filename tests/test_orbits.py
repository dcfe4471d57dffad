import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdex import (GermMap, JordanBlock, JordanSpec, Poly,
                      chain_coprime_germ, chain_germ, direct_iterate_index,
                      dold_index, fixed_point_index, hidden_orbit_count,
                      multiplicity, orbit_spectrum, parse_germ,
                      solve_counts_triangular, validate_rnf, variables)
from orbitdex.orbits import prime_factors
from orbitdex.resonance import divide_by_leads, find_essential_blocks, \
    strip_eigenvalues
from conftest import load_fixtures

B = JordanBlock

WORKED = """
matrix {
  block { size = 1, order = 2, power = 1 }
  block { size = 1, order = 3, power = 1 }
}
map {
  f1 = L1*x1 + x1^3 + x1*x2^3;
  f2 = L2*x2 + x2^4 + 2*x2*x1^2;
}
"""


def flip_cubic():
    spec = JordanSpec((B(1, 2, 1),))
    x, = variables(1, modulus=2)
    return spec, GermMap([-x + x**3])


def test_fixed_point_index_examples():
    spec, f = flip_cubic()
    assert fixed_point_index(spec, f, 2) == 3
    assert fixed_point_index(spec, f, 2, route="direct") == 3
    assert fixed_point_index(spec, f, 1) == 1          # empty mask
    assert fixed_point_index(spec, f, 1, route="direct") == 1
    doc = parse_germ(WORKED)
    assert fixed_point_index(doc.matrix, doc.gmap, 6) == 12
    assert fixed_point_index(doc.matrix, doc.gmap, 6, route="direct") == 12


def test_projection_route_requires_normal_form():
    spec = JordanSpec((B(1, 2, 1),))
    x, = variables(1, modulus=2)
    with pytest.raises(ValueError, match="normal form"):
        fixed_point_index(spec, GermMap([-x + x**2]), 2)


def test_dold_index_examples():
    spec, f = flip_cubic()
    assert dold_index(spec, f, 2) == 3 - 1
    assert dold_index(spec, f, 4) == 0  # same mask at 4 and 2
    doc = parse_germ(WORKED)
    assert dold_index(doc.matrix, doc.gmap, 6) == 12 - 3 - 4 + 1


def test_hidden_orbit_count_examples():
    spec, f = flip_cubic()
    assert hidden_orbit_count(spec, f, 2) == 1
    x, = variables(1, modulus=2)
    assert hidden_orbit_count(spec, GermMap([-x + x**5]), 2) == 2
    unit = JordanSpec((B(1, 1, 1),))
    y, = variables(1, modulus=1)
    assert hidden_orbit_count(unit, GermMap([y + y**3]), 1) == 3


def test_orbit_spectrum_worked_fixture():
    doc = parse_germ(WORKED)
    sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=True)
    assert sp.mu == {1: 1, 2: 3, 3: 4, 6: 12}
    assert sp.dold == {1: 1, 2: 2, 3: 3, 6: 6}
    assert sp.counts == {1: 1, 2: 1, 3: 1, 6: 1}
    assert sp.checks == {"f37": True, "direct": True}
    assert sp.route[6] == "both-agree"


def test_orbit_spectrum_flip():
    spec, f = flip_cubic()
    sp = orbit_spectrum(spec, f)
    assert sp.counts == {1: 1, 2: 1}


def test_solve_counts_examples():
    spec = JordanSpec((B(1, 2, 1), B(1, 3, 1)))
    assert solve_counts_triangular(spec, {2: 3, 3: 4, 6: 12}) == \
        {1: 1, 2: 1, 3: 1, 6: 1}
    two = JordanSpec((B(1, 2, 1),))
    r = 5
    assert solve_counts_triangular(two, {2: 2 * r + 1}) == {1: 1, 2: r}
    with pytest.raises(ValueError, match="inconsistent"):
        solve_counts_triangular(two, {2: 2})
    with pytest.raises(ValueError, match="missing"):
        solve_counts_triangular(spec, {2: 3})


def test_route_agreement_on_fixtures():
    for name, doc in load_fixtures():
        for q in range(1, 7):
            proj = fixed_point_index(doc.matrix, doc.gmap, q)
            direct = direct_iterate_index(doc.gmap, q, hint=proj)
            assert proj == direct, (name, q)


def test_shub_sullivan_on_fixtures():
    """When every eigenvalue is 1 or has q-th power != 1, the index of
    the q-th iterate equals the index of the map itself."""
    checked = 0
    for name, doc in load_fixtures():
        for q in range(2, 7):
            if all(b.order == 1 or q % b.order != 0
                   for b in doc.matrix.blocks):
                mu_1 = direct_iterate_index(doc.gmap, 1)
                mu_q = direct_iterate_index(doc.gmap, q, hint=mu_1)
                assert mu_q == mu_1, (name, q)
                checked += 1
    assert checked > 5


def test_q_divides_dold_on_fixtures():
    for name, doc in load_fixtures():
        sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=False)
        for q, p_q in sp.dold.items():
            assert p_q % q == 0, (name, q)


def test_triangular_solve_reproduces_counts_on_fixtures():
    for name, doc in load_fixtures():
        sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=False)
        table = {d: sp.mu[d] for d in sorted(set(sp.pe) | {1}) if d in sp.mu}
        assert solve_counts_triangular(doc.matrix, table) == sp.counts, name


def test_full_period_division_route_on_fixtures():
    """Where a witness selection exists and the stripped map is in
    lead-variable shape, dividing by the lead variables turns the full
    count into a single multiplicity."""
    checked = 0
    for name, doc in load_fixtures():
        spec = doc.matrix
        witness = find_essential_blocks(spec)
        if witness is None:
            continue
        stripped = strip_eigenvalues(spec, doc.gmap)
        from orbitdex.resonance import lead_variable_shape_ok
        if not lead_variable_shape_ok(spec, stripped):
            continue
        try:
            divided = divide_by_leads(spec, stripped, witness)
        except ValueError:
            continue
        sp = orbit_spectrum(spec, doc.gmap, cross_check=False)
        m = max(sp.pe)
        assert multiplicity(divided).value == m * sp.counts[m], name
        checked += 1
    assert checked >= 4


def test_masked_division_route_per_period():
    """The per-period variant: project to the q-mask, divide the
    block-end coordinates by the lead variables there, and the order of
    the divided system is q times the count at q."""
    from orbitdex import period_mask, project
    from orbitdex.resonance import lead_variable_shape_ok
    checked = 0
    for name, doc in load_fixtures():
        spec = doc.matrix
        sp = orbit_spectrum(spec, doc.gmap, cross_check=False)
        for q in sp.pe:
            mask = period_mask(spec, q)
            sub_blocks = tuple(b for b in spec.blocks if q % b.order == 0)
            sub_spec = JordanSpec(sub_blocks)
            witness = find_essential_blocks(sub_spec)
            if witness is None:
                continue
            sub_map = project(doc.gmap, mask)
            stripped = strip_eigenvalues(sub_spec, sub_map)
            if not lead_variable_shape_ok(sub_spec, stripped):
                continue
            try:
                divided = divide_by_leads(sub_spec, stripped, witness)
            except ValueError:
                continue
            assert multiplicity(divided).value == q * sp.counts[q], (name, q)
            checked += 1
    assert checked >= 8


def test_consistency_error_for_malformed_counts():
    spec = JordanSpec((B(1, 2, 1),))
    with pytest.raises(ValueError):
        # odd masked order at 2 with count 1 at 1 is fine; 2 is not
        solve_counts_triangular(spec, {2: 2})


def test_empty_mask_iterates_match_direct():
    """Iterates whose mask is empty have index 1 on both routes."""
    doc = parse_germ(WORKED)
    for q in (1, 5, 7):
        assert fixed_point_index(doc.matrix, doc.gmap, q) == 1
        assert fixed_point_index(doc.matrix, doc.gmap, q, route="direct") == 1


# -- Dold's congruences (Dold, Invent. Math. 74, 1983) ----------------------

# (chain block orders, order of a coprime tail block or None)
_DOLD_SHAPES = [((2,), None), ((1, 2), None), ((2, 4), None), ((1, 3), None),
                ((2, 6), None), ((1, 2, 4), None), ((1,), 2), ((2,), 3),
                ((2,), 5), ((1, 2), 3), ((3,), 4)]


def _moebius(n):
    primes = prime_factors(n)
    if math.prod(primes) != n:
        return 0
    return (-1) ** len(primes)


@st.composite
def resonant_germs(draw):
    """A chain or chain-plus-coprime-tail germ with random powers, block
    sizes and counts, plus random resonant terms x_s * prod x_j^(k_j d_j)
    (d_j the order of x_j's block) of degree above every other term."""
    chain, tail = draw(st.sampled_from(_DOLD_SHAPES))
    blocks = []
    for d in chain:
        powers = [p for p in range(1, d + 1) if math.gcd(p, d) == 1
                  and (not blocks or (p - blocks[-1][1]) % blocks[-1][0] == 0)]
        blocks.append((d, draw(st.sampled_from(powers))))
    if tail is not None:
        blocks.append((tail, draw(st.sampled_from(
            [p for p in range(1, tail + 1) if math.gcd(p, tail) == 1]))))
    sizes = [1] * len(blocks)
    if len(blocks) < 3:
        sizes[draw(st.integers(0, len(blocks) - 1))] = draw(st.integers(1, 2))
    spec = JordanSpec(tuple(B(k, d, p) for k, (d, p) in zip(sizes, blocks)))
    counts = draw(st.lists(st.integers(1, 3), min_size=spec.m,
                           max_size=spec.m))
    if tail is None:
        f = chain_germ(spec, counts)
    else:
        cross = draw(st.lists(st.integers(1, 3), min_size=spec.m - 1,
                              max_size=spec.m - 1))
        f = chain_coprime_germ(spec, counts, cross)
    n = spec.n
    order = [spec.blocks[spec.block_of(j)].order for j in range(n)]
    coords = list(f.coords)
    for _ in range(draw(st.integers(0, 2))):
        s = draw(st.integers(0, n - 1))
        mono = [k * d for k, d in zip(
            draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), order)]
        mono[s] += 1
        short = f.max_degree() + 1 - sum(mono)
        if short > 0:
            mono[s] += -(-short // order[s]) * order[s]
        coeff = draw(st.sampled_from([-2, -1, 1, 2]))
        coords[s] = coords[s] + Poly(n, f.modulus, {tuple(mono): coeff})
    return spec, GermMap(coords, nvars=n, modulus=f.modulus)


@settings(max_examples=25, deadline=None)
@given(resonant_germs())
def test_dold_congruences(germ):
    """sum over d | q of mu(q/d) * index(f^d) is divisible by q for every
    q <= 12, inside the period set or not."""
    spec, f = germ
    assert validate_rnf(spec, f).ok
    index = {d: fixed_point_index(spec, f, d) for d in range(1, 13)}
    for q in index:
        dold = sum(_moebius(q // d) * index[d]
                   for d in range(1, q + 1) if q % d == 0)
        assert dold % q == 0, (q, dold, index)
