import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdex import (GermMap, JordanBlock, JordanSpec, Poly, global_order,
                      parse_germ, validate_rnf)
from orbitdex.cyclotomic import root_of_unity
from orbitdex.polynomials import variables
from orbitdex.resonance import (ResonanceContext, is_resonant_monomial,
                                project)
from conftest import reference_strip_eigenvalues, reference_validate_rnf

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


def test_validate_rnf_refuses_a_size_mismatch():
    x1, x2 = variables(2, modulus=2)
    with pytest.raises(ValueError, match="map has 2 variables but the "
                                         "matrix is 1 x 1"):
        validate_rnf(JordanSpec((B(1, 2, 1),)), GermMap([-x1, -x2]))


@st.composite
def perturbed_normal_forms(draw):
    """A Jordan spec and a map that starts from its matrix over Q or a
    subfield of Q(zeta_M), then loses a diagonal term, has a
    superdiagonal 1 changed or dropped, gains a linear term anywhere, or
    gains resonant and arbitrary nonlinear terms."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from([1, 2, 3, 4, 6]))
        r = draw(st.sampled_from([r for r in range(1, d + 1)
                                  if math.gcd(r, d) == 1]))
        blocks.append(B(draw(st.integers(1, 3)), d, r))
    spec = JordanSpec(tuple(blocks))
    n, big = spec.n, global_order(spec)
    modulus = draw(st.sampled_from([k for k in range(1, big + 1)
                                    if big % k == 0]))
    coeff = st.sampled_from([-2, -1, 1, 2, 3])
    rarely = st.integers(0, 3).map(lambda v: v == 0)

    def unit(k):
        return tuple(int(i == k) for i in range(n))

    terms = [{} for _ in range(n)]
    for j, b in enumerate(spec.blocks):
        for c in range(spec.offsets[j], spec.offsets[j + 1]):
            # the eigenvalue where the field holds it, else a rational guess
            if modulus % b.order == 0:
                terms[c][unit(c)] = b.eigenvalue(modulus)
            else:
                terms[c][unit(c)] = -1 if b.order == 2 else draw(coeff)
            if c + 1 < spec.offsets[j + 1]:
                terms[c][unit(c + 1)] = 1
    if draw(rarely):
        c = draw(st.integers(0, n - 1))
        del terms[c][unit(c)]
    supers = [c for c in range(n - 1) if unit(c + 1) in terms[c]]
    if supers and draw(rarely):
        c = draw(st.sampled_from(supers))
        if draw(st.booleans()):
            del terms[c][unit(c + 1)]
        else:
            terms[c][unit(c + 1)] = draw(coeff)
    if draw(rarely):
        c, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        terms[c][unit(k)] = draw(coeff)
    for _ in range(draw(st.integers(0, 3))):
        # x_c * x_k^(order of x_k's block) is resonant toward c
        c, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        order = spec.blocks[spec.block_of(k)].order
        terms[c][tuple(int(i == c) + order * (i == k)
                       for i in range(n))] = draw(coeff)
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.integers(0, n - 1))
        mono = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        if sum(mono) >= 2:
            terms[c][mono] = draw(coeff)
    f = GermMap([Poly(n, modulus, t) for t in terms], nvars=n,
                modulus=modulus)
    return spec, f


@settings(max_examples=300, deadline=None)
@given(perturbed_normal_forms())
def test_validate_rnf_matches_the_two_walk_reference(case):
    """The one-walk gate gives the verdict of the dense-matrix check and,
    where the linear part is the matrix, the map the strip gave."""
    spec, f = case
    got = validate_rnf(spec, f)
    want = reference_validate_rnf(spec, f)
    assert got.ok == want.ok
    assert got.linear_mismatch == want.linear_mismatch
    assert got.nonresonant == want.nonresonant
    assert got.describe() == want.describe()
    try:
        stripped = reference_strip_eigenvalues(spec, f)
    except ValueError:
        assert got.stripped is None
        return
    assert got.stripped == stripped
    assert ([list(p.terms) for p in got.stripped.coords]
            == [list(p.terms) for p in stripped.coords])


def test_strip_eigenvalues_examples():
    spec = JordanSpec((B(2, 6, 1), B(1, 3, 1)))
    z6 = root_of_unity(6, 1, 6)
    z3 = root_of_unity(3, 1, 6)
    x1, x2, x3 = variables(3, modulus=6)
    f = GermMap([z6 * x1 + x2, z6 * x2 + x1**7, z3 * x3 + x3 * x1**6])
    t = validate_rnf(spec, f).stripped
    assert t.coords == (x2, x1**7, x3 * x1**6)
    assert validate_rnf(spec, GermMap([z6 * x1, z6 * x2, z3 * x3])).stripped is None


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
    t = validate_rnf(spec, doc.gmap).stripped
    diag = diagonal_germ(spec, doc.gmap.modulus)
    assert t.compose(diag) == diag.compose(t)


def test_project_examples():
    x1, x2 = variables(2)
    g = GermMap([x1**3 + x1 * x2**3, x2**4 + 2 * x2 * x1**2])
    y, = variables(1)
    assert project(g, [0]).coords == (y**3,)
    assert project(g, [1]).coords == (y**4,)
    assert project(g, [0, 1]) == g
    empty = project(g, [])
    assert empty.nvars == 0 and empty.coords == ()


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))
def test_project_idempotent(bits):
    x1, x2, x3 = variables(3)
    g = GermMap([x1 + x2 * x3, x2**2 + x1 * x3, x3 + x1 * x2])
    once = project(g, [j for j, b in enumerate(bits) if b])
    again = project(once, list(range(once.nvars)))
    assert once == again
