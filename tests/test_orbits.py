import itertools
import math
import time

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from orbitdex import (ConsistencyError, GermMap, JordanBlock, JordanSpec,
                      NotIsolatedWithinBound, Poly, direct_iterate_index,
                      fixed_point_index, orbit_spectrum, parse_germ,
                      validate_rnf)
from orbitdex import orbits
from orbitdex.cli import main
from orbitdex.jordan import period_blocks
from orbitdex.multiplicity import DEFAULT_DEGREE_CAP
from orbitdex.orbits import (_division_order, _PeriodPart, prime_factors,
                             solve_counts_triangular)
from orbitdex.polynomials import variables
from orbitdex.resonance import project
from orbitdex.universality import chain_coprime_germ, chain_germ
from conftest import NOT_ISOLATED_AT_6, load_fixtures

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
    assert direct_iterate_index(f, 2) == 3
    assert fixed_point_index(spec, f, 1) == 1          # no period block
    assert direct_iterate_index(f, 1) == 1
    doc = parse_germ(WORKED)
    assert fixed_point_index(doc.matrix, doc.gmap, 6) == 12
    assert direct_iterate_index(doc.gmap, 6) == 12


# Germs where a coordinate of f^q - id has every term at degree 8 or
# above, so it vanishes in the direct route's first truncation: the
# first for q = 2, the second (what `realize "[(1,3,1);(3,1,1)]" --seq
# "1:19,3:1"` writes) for q = 1.
TRUNCATED_AWAY = [
    ("matrix { block { size = 1, order = 2, power = 1 } }\n"
     "map { f1 = L1*x1 + x1^9; }", 2, 9),
    ("""matrix {
  block { size = 1, order = 3, power = 1 }
  block { size = 3, order = 1, power = 1 }
}
map {
  f1 = L1*x1 + x1*x2;
  f2 = L2*x2 + x3;
  f3 = L2*x3 + x4;
  f4 = L2*x4 + x1^3 + x2^19;
}""", 1, 19),
]


@pytest.mark.parametrize("text, q, index", TRUNCATED_AWAY,
                         ids=["flip", "realized"])
def test_direct_route_looks_past_its_truncation(text, q, index):
    """A coordinate that vanishes only in the truncation of f^q - id is
    no proof of a non-isolated zero: the direct route doubles the
    truncation and agrees with the projection route."""
    doc = parse_germ(text)
    assert fixed_point_index(doc.matrix, doc.gmap, q) == index
    assert direct_iterate_index(doc.gmap, q) == index


def test_projection_route_requires_normal_form():
    spec = JordanSpec((B(1, 2, 1),))
    x, = variables(1, modulus=2)
    with pytest.raises(ValueError, match="normal form"):
        fixed_point_index(spec, GermMap([-x + x**2]), 2)


def test_dold_and_count_examples():
    spec, f = flip_cubic()
    sp = orbit_spectrum(spec, f)
    assert sp.dold[2] == 3 - 1
    assert sp.counts[2] == 1
    # 4 is outside the period set: its Dold index is index(f^4) -
    # index(f^2), zero because the period parts of 4 and 2 are the same
    assert fixed_point_index(spec, f, 4) - fixed_point_index(spec, f, 2) == 0
    doc = parse_germ(WORKED)
    assert orbit_spectrum(doc.matrix, doc.gmap).dold[6] == 12 - 3 - 4 + 1
    x, = variables(1, modulus=2)
    assert orbit_spectrum(spec, GermMap([-x + x**5])).counts[2] == 2
    unit = JordanSpec((B(1, 1, 1),))
    y, = variables(1, modulus=1)
    assert orbit_spectrum(unit, GermMap([y + y**3])).counts[1] == 3


def test_orbit_spectrum_worked_fixture():
    doc = parse_germ(WORKED)
    sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=True)
    assert sp.mu == {1: 1, 2: 3, 3: 4, 6: 12}
    assert sp.dold == {1: 1, 2: 2, 3: 3, 6: 6}
    assert sp.counts == {1: 1, 2: 1, 3: 1, 6: 1}
    assert sp.checks == {"triangular": True, "iterates": True}
    assert sp.checked_by == {1: "direct", 2: "division", 3: "division",
                             6: "division"}
    assert sp.unchecked == {}


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


def test_direct_check_term_budget_on_known_hang():
    # composing f^6 runs past the direct check's budget; the division
    # route checks q = 6 without composing
    spec = JordanSpec((B(2, 2, 1), B(2, 6, 1)))
    start = time.monotonic()
    sp = orbit_spectrum(spec, chain_germ(spec, (2, 3)))
    assert time.monotonic() - start < 10
    assert sp.counts == {1: 1, 2: 2, 6: 3}
    assert sp.checks == {"triangular": True, "iterates": True}
    assert sp.checked_by == {1: "direct", 2: "division", 6: "division"}
    assert sp.unchecked == {}


def test_direct_fallback_keeps_the_term_budget():
    # the known hang with a resonant term in the non-lead variables x2
    # and x4: q = 6 fails the lead shape, and its direct composition runs
    # past the budget
    spec = JordanSpec((B(2, 2, 1), B(2, 6, 1)))
    g = chain_germ(spec, (2, 3))
    x = variables(4, modulus=6)
    g = GermMap(g.coords[:3] + (g.coords[3] + x[1]**2 * x[3],))
    start = time.monotonic()
    sp = orbit_spectrum(spec, g)
    assert time.monotonic() - start < 10
    assert sp.counts == {1: 1, 2: 2, 6: 3}
    assert sp.checks == {"triangular": True, "iterates": False}
    assert sp.checked_by == {1: "direct", 2: "division"}
    assert sp.unchecked == {6: "direct composition past 2000 terms"}


def test_division_route_disagreement_is_a_consistency_error(monkeypatch):
    # left undivided, the projected map at q = 2 has order mu(2) = 3, not
    # 2 * count = 2
    monkeypatch.setattr(orbits, "_division_order",
                        lambda part, degree_cap: part.index)
    doc = parse_germ(WORKED)
    with pytest.raises(ConsistencyError, match="division route"):
        orbit_spectrum(doc.matrix, doc.gmap)


def test_fixtures_pass_the_direct_check_within_budget():
    for name, doc in load_fixtures():
        sp = orbit_spectrum(doc.matrix, doc.gmap)
        assert sp.checks["iterates"] is True and not sp.unchecked, name
        assert set(sp.checked_by) == set(sp.pe) | {1}, name


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
    """Where the division route applies to the whole stripped map,
    dividing by the lead variables turns the full count into a single
    multiplicity."""
    checked = 0
    for name, doc in load_fixtures():
        spec = doc.matrix
        part = _PeriodPart(spec, validate_rnf(spec, doc.gmap).stripped, 0)
        order = _division_order(part, DEFAULT_DEGREE_CAP)
        if isinstance(order, str):
            continue
        sp = orbit_spectrum(spec, doc.gmap, cross_check=False)
        m = max(sp.pe)
        assert order == m * sp.counts[m], name
        checked += 1
    assert checked >= 4


def _period_coords(spec, q):
    return [c for j in period_blocks(spec, q)
            for c in range(spec.offsets[j], spec.offsets[j + 1])]


def test_division_route_per_period_part():
    """The per-period variant: project f to the period part of q and
    strip that; where the division route applies, the order of the
    divided system is q times the count at q."""
    checked = 0
    for name, doc in load_fixtures():
        spec = doc.matrix
        sp = orbit_spectrum(spec, doc.gmap, cross_check=False)
        for q in sp.pe:
            sub_spec = JordanSpec(tuple(b for b in spec.blocks
                                        if q % b.order == 0))
            sub_map = project(doc.gmap, _period_coords(spec, q))
            part = _PeriodPart(sub_spec,
                               validate_rnf(sub_spec, sub_map).stripped, 0)
            order = _division_order(part, DEFAULT_DEGREE_CAP)
            if isinstance(order, str):
                continue
            assert order == q * sp.counts[q], (name, q)
            checked += 1
    assert checked >= 8


_X1, _X2 = variables(2, modulus=6)
_Y, = variables(1, modulus=3)
_Z1, _Z2 = variables(2, modulus=2)
_W1, _W2, _W3 = variables(3, modulus=6)


@pytest.mark.parametrize("blocks, coords, want", [
    # the stripped map of WORKED: 6 times its count at q = 6
    ([(1, 2, 1), (1, 3, 1)],
     [_X1 * (_X1**2 + _X2**3), _X2 * (2 * _X1**2 + _X2**3)], 6),
    # the stripped map of L1*x1 + x1^4: 3 times its count 1 at q = 3
    ([(1, 3, 1)], [_Y**4], 3),
    # two blocks of order 2: neither is essential
    ([(1, 2, 1), (1, 2, 1)], [_Z1**3, _Z2**3], "no witness"),
    # x2 is not a lead variable
    ([(2, 2, 1)], [_Z2, _Z2**2 * _Z1], "shape"),
    # the same on the block of order 2, which is not essential
    ([(2, 2, 1), (1, 6, 1)], [_W1**2, _W2**3, _W3**2], "shape"),
    # x2^3 in coordinate 1 is not a multiple of its lead x1
    ([(1, 2, 1), (1, 3, 1)],
     [_X2**3, _X2 * (2 * _X1**2 + _X2**3)], "divisibility"),
    # a lead variable among the terms would leave a constant
    ([(1, 3, 1)], [_Y + _Y**4], "divisibility"),
    # divided, both coordinates are x2^3: the x1 axis is a zero
    ([(1, 2, 1), (1, 3, 1)], [_X1 * _X2**3, _X2**4], "not isolated"),
], ids=["worked", "cube", "no-witness", "shape", "shape-off-witness",
        "not-divisible", "constant", "not-isolated"])
def test_division_order_outcomes(blocks, coords, want):
    spec = JordanSpec(tuple(B(*b) for b in blocks))
    part = _PeriodPart(spec, GermMap(coords), 0)
    assert _division_order(part, DEFAULT_DEGREE_CAP) == want
    if want == 6:
        doc = parse_germ(WORKED)
        sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=False)
        assert want == 6 * sp.counts[6]


def _essential_blocks_by_search(orders):
    """The subset search the witness rule replaced: smallest selections
    first, lexicographic within a size."""
    m = len(orders)
    total = math.lcm(*orders)
    for t in range(1, m + 1):
        for combo in itertools.combinations(range(m), t):
            if math.lcm(*(orders[j] for j in combo)) != total:
                continue
            if all(math.lcm(*(orders[i] for i in range(m) if i != j))
                   % orders[j] for j in combo):
                return combo
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 30]),
                min_size=1, max_size=8))
@example([2, 3])
@example([2, 6])
@example([2, 2])
def test_division_witness_matches_the_subset_search(orders):
    """With x_j^2 in every coordinate of one-variable blocks, the route
    refuses with "no witness" exactly when the search finds no
    selection, and otherwise divides as many coordinates as the
    selection has blocks, so the order is 2 to the number left."""
    spec = JordanSpec(tuple(B(1, d, 1) for d in orders))
    part = _PeriodPart(spec, GermMap([x**2 for x in variables(len(orders))]),
                       0)
    witness = _essential_blocks_by_search(orders)
    want = ("no witness" if witness is None
            else 2 ** (len(orders) - len(witness)))
    assert _division_order(part, DEFAULT_DEGREE_CAP) == want


def test_consistency_error_for_malformed_counts():
    spec = JordanSpec((B(1, 2, 1),))
    with pytest.raises(ValueError):
        # odd masked order at 2 with count 1 at 1 is fine; 2 is not
        solve_counts_triangular(spec, {2: 2})


def test_projection_once_per_period_part(monkeypatch):
    """orbit_spectrum projects the stripped map once per distinct
    non-empty period part it reads, for the indices and the division
    route together."""
    calls = []

    def counted(g, keep):
        calls.append(tuple(keep))
        return project(g, keep)

    monkeypatch.setattr(orbits, "project", counted)
    for name, doc in load_fixtures():
        calls.clear()
        spec = doc.matrix
        sp = orbit_spectrum(spec, doc.gmap)
        parts = {tuple(_period_coords(spec, d)) for d in sp.mu} - {()}
        assert sorted(calls) == sorted(parts), name


def test_empty_period_part_iterates_match_direct():
    """Iterates with no period block have index 1 on both routes."""
    doc = parse_germ(WORKED)
    for q in (1, 5, 7):
        assert fixed_point_index(doc.matrix, doc.gmap, q) == 1
        assert direct_iterate_index(doc.gmap, q) == 1


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
    top = max(sum(m) for p in f.coords for m in p.terms)
    for _ in range(draw(st.integers(0, 2))):
        s = draw(st.integers(0, n - 1))
        mono = [k * d for k, d in zip(
            draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), order)]
        mono[s] += 1
        short = top + 1 - sum(mono)
        if short > 0:
            mono[s] += -(-short // order[s]) * order[s]
        coeff = draw(st.sampled_from([-2, -1, 1, 2]))
        coords[s] = coords[s] + Poly(n, f.modulus, {tuple(mono): coeff})
    return spec, GermMap(coords, nvars=n, modulus=f.modulus)


def _index_or_reject(spec, f, q):
    """index(f^q), or the example rejected when f^q - id is provably not
    isolated; an ambiguous refusal still fails."""
    try:
        return fixed_point_index(spec, f, q)
    except NotIsolatedWithinBound as exc:
        if not exc.definite:
            raise
        reject()


@settings(max_examples=25, deadline=None)
@given(resonant_germs())
def test_dold_congruences(germ):
    """sum over d | q of mu(q/d) * index(f^d) is divisible by q for every
    q <= 12, inside the period set or not.  A germ with an iterate whose
    fixed point is not isolated has no index there and is rejected."""
    spec, f = germ
    assert validate_rnf(spec, f).ok
    index = {d: _index_or_reject(spec, f, d) for d in range(1, 13)}
    for q in index:
        dold = sum(_moebius(q // d) * index[d]
                   for d in range(1, q + 1) if q % d == 0)
        assert dold % q == 0, (q, dold, index)


def test_an_iterate_that_is_not_isolated_is_a_definite_refusal(capsys,
                                                                tmp_path):
    """The iterates q = 6 and 12 of that germ are refused as definitely
    not isolated, and spectrum exits 1."""
    doc = parse_germ(NOT_ISOLATED_AT_6)
    for q in (6, 12):
        with pytest.raises(NotIsolatedWithinBound) as err:
            fixed_point_index(doc.matrix, doc.gmap, q)
        assert err.value.definite
    path = tmp_path / "not_isolated_at_6.germ"
    path.write_text(NOT_ISOLATED_AT_6)
    assert main(["spectrum", str(path)]) == 1
    assert "not isolated" in capsys.readouterr().out


# derandomized: about one germ in 150 sends a q that division does not
# cover to direct composition, whose multiplicity has no time budget and
# can then run for minutes
@settings(max_examples=25, deadline=None, derandomize=True)
@given(resonant_germs())
def test_default_cross_check_on_resonant_germs(germ):
    """The default cross-check agrees with the counts on random resonant
    germs (a disagreement raises ConsistencyError), and every q of the
    period set and q = 1 is either checked by one route or named."""
    spec, f = germ
    sp = orbit_spectrum(spec, f)
    qs = set(sp.pe) | {1}
    assert set(sp.checked_by) | set(sp.unchecked) == qs
    assert not set(sp.checked_by) & set(sp.unchecked)
    assert sp.checks["iterates"] == (not sp.unchecked)
