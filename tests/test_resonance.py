import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdex import (GermMap, JordanBlock, JordanSpec, Poly, global_order,
                      parse_germ, validate_rnf)
from orbitdex.cyclotomic import root_of_unity
from orbitdex.jordan import CoordMask
from orbitdex.polynomials import variables
from orbitdex.resonance import (ResonanceContext, divide_by_leads,
                                find_essential_blocks, is_resonant_monomial,
                                project, strip_eigenvalues)

B = JordanBlock


def diagonal_germ(spec: JordanSpec, modulus: int, power: int = 1) -> GermMap:
    """The linear germ given by the diagonal eigenvalue part (raised to
    an integer power)."""
    coords = []
    n = spec.n
    for j, b in enumerate(spec.blocks):
        lam = b.eigenvalue(modulus) ** power
        for c in range(spec.offsets[j], spec.offsets[j + 1]):
            coords.append(Poly.variable(c, n, modulus) * lam)
    return GermMap(coords, nvars=n, modulus=modulus)


def test_resonant_monomial_examples():
    ctx = ResonanceContext.of(JordanSpec((B(1, 2, 1), B(1, 3, 1))))
    assert is_resonant_monomial(ctx, (1, 3), 0)       # z2 * z3^3 = z2
    assert not is_resonant_monomial(ctx, (2, 0), 0)   # 1 != z2
    assert is_resonant_monomial(ctx, (0, 4), 1)       # z3^4 = z3
    with pytest.raises(ValueError):
        is_resonant_monomial(ctx, (1, 0), 0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (4, 3), (6, 1)]),
       st.sampled_from([(1, 1), (3, 2), (5, 4)]),
       st.tuples(st.integers(0, 6), st.integers(0, 6)),
       st.integers(0, 1))
def test_resonance_two_routes_agree(b1, b2, exponents, target):
    """Residue arithmetic must agree with direct field arithmetic."""
    if sum(exponents) < 2:
        exponents = (exponents[0] + 2, exponents[1])
    spec = JordanSpec((B(1, *b1), B(1, *b2)))
    ctx = ResonanceContext.of(spec)
    m = global_order(spec)
    lams = [spec.blocks[0].eigenvalue(m), spec.blocks[1].eigenvalue(m)]
    product = lams[0] ** exponents[0] * lams[1] ** exponents[1]
    assert is_resonant_monomial(ctx, exponents, target) == (product == lams[target])


def test_validate_rnf_examples():
    s1 = JordanSpec((B(1, 2, 1),))
    x, = variables(1, modulus=2)
    assert validate_rnf(s1, GermMap([-x + x**3])).ok
    v = validate_rnf(s1, GermMap([-x + x**2]))
    assert not v.ok and v.nonresonant == ((0, (2,)),)
    s2 = JordanSpec((B(2, 2, 1),))
    y1, y2 = variables(2, modulus=2)
    v2 = validate_rnf(s2, GermMap([-y1, -y2]))  # superdiagonal 1 missing
    assert not v2.ok and (0, 1) in v2.linear_mismatch


def test_strip_eigenvalues_examples():
    spec = JordanSpec((B(2, 6, 1), B(1, 3, 1)))
    z6 = root_of_unity(6, 1, 6)
    z3 = root_of_unity(3, 1, 6)
    x1, x2, x3 = variables(3, modulus=6)
    f = GermMap([z6 * x1 + x2, z6 * x2 + x1**7, z3 * x3 + x3 * x1**6])
    t = strip_eigenvalues(spec, f)
    assert t.coords == (x2, x1**7, x3 * x1**6)
    with pytest.raises(ValueError):
        strip_eigenvalues(spec, GermMap([z6 * x1, z6 * x2, z3 * x3]))


def test_strip_commutes_with_diagonal():
    """stripped map composed with the diagonal equals the diagonal
    composed with the stripped map, for resonant inputs."""
    doc = parse_germ("""
    matrix {
      block { size = 1, order = 2, power = 1 }
      block { size = 1, order = 3, power = 1 }
    }
    map {
      f1 = L1*x1 + x1^3 + x1*x2^3;
      f2 = L2*x2 + x2^4 + 2*x2*x1^2;
    }
    """)
    spec = doc.matrix
    t = strip_eigenvalues(spec, doc.gmap)
    diag = diagonal_germ(spec, doc.gmap.modulus)
    assert t.compose(diag) == diag.compose(t)


def test_project_examples():
    x1, x2 = variables(2)
    g = GermMap([x1**3 + x1 * x2**3, x2**4 + 2 * x2 * x1**2])
    y, = variables(1)
    assert project(g, CoordMask((1, 0))).coords == (y**3,)
    assert project(g, CoordMask((0, 1))).coords == (y**4,)
    assert project(g, CoordMask((1, 1))) == g
    empty = project(g, CoordMask((0, 0)))
    assert empty.nvars == 0 and empty.coords == ()


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))
def test_project_idempotent(bits):
    x1, x2, x3 = variables(3)
    g = GermMap([x1 + x2 * x3, x2**2 + x1 * x3, x3 + x1 * x2])
    once = project(g, CoordMask(bits))
    again = project(once, CoordMask((1,) * once.nvars))
    assert once == again


def test_find_essential_blocks_examples():
    assert find_essential_blocks(JordanSpec((B(1, 2, 1), B(1, 3, 1)))) == (0, 1)
    assert find_essential_blocks(JordanSpec((B(1, 2, 1), B(1, 6, 1)))) == (1,)
    assert find_essential_blocks(JordanSpec((B(1, 2, 1), B(1, 2, 1)))) is None


def _essential_blocks_by_search(orders):
    """The subset search find_essential_blocks replaced: smallest
    selections first, lexicographic within a size."""
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
def test_find_essential_blocks_matches_the_subset_search(orders):
    spec = JordanSpec(tuple(B(1, d, 1) for d in orders))
    assert find_essential_blocks(spec) == _essential_blocks_by_search(orders)


def test_divide_by_leads_examples():
    spec = JordanSpec((B(1, 2, 1), B(1, 3, 1)))
    x1, x2 = variables(2, modulus=6)
    tf = GermMap([x1 * (x1**2 + x2**3), x2 * (2 * x1**2 + x2**3)])
    out = divide_by_leads(spec, tf, (0, 1))
    assert out.coords == (x1**2 + x2**3, 2 * x1**2 + x2**3)
    with pytest.raises(ValueError, match="not divisible"):
        divide_by_leads(spec, GermMap([x2**3, x2 * (2 * x1**2 + x2**3)]), (0, 1))
    s3 = JordanSpec((B(1, 3, 1),))
    y, = variables(1, modulus=3)
    assert divide_by_leads(s3, GermMap([y**4]), (0,)).coords == (y**3,)
    # a lead variable among the terms leaves a constant, which GermMap refuses
    with pytest.raises(ValueError, match="constant term"):
        divide_by_leads(s3, GermMap([y + y**4]), (0,))


def test_divide_by_leads_rejects_non_lead_shape():
    # a size-2 block: the end coordinate must use lead variables only
    spec = JordanSpec((B(2, 2, 1),))
    x1, x2 = variables(2, modulus=2)
    bad = GermMap([x2, x2**2 * x1])  # x2 is not a lead variable
    with pytest.raises(ValueError, match="lead variables"):
        divide_by_leads(spec, bad, (0,))
