"""Acceptance criteria, one test per criterion.

Every check is exact (integer equality); each test prints a one-line
pass verdict with its runtime to the real stdout so the table is visible
in plain pytest runs, and asserts its stated time budget.
"""

import itertools
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from orbitdex import (GermMap, GermParseError, JordanBlock, JordanSpec,
                      NotIsolatedWithinBound, Poly, SequenceTarget,
                      direct_iterate_index, fixed_point_index, global_order,
                      is_admissible, is_universal, multiplicity,
                      orbit_spectrum, parse_germ, period_set, print_germ,
                      realize, residue_search)
from orbitdex.cyclotomic import root_of_unity
from orbitdex.polynomials import variables
from orbitdex.resonance import ResonanceContext, is_resonant_monomial
from orbitdex.universality import (chain_coprime_germ, chain_germ,
                                   normalized_target, unit_spectrum_germ)
from conftest import (cronin, load_fixtures, random_isolated_system,
                      random_poly)

B = JordanBlock


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    print(f"criterion {number:2d} PASS ({elapsed:7.2f}s / budget "
          f"{budget_s:g}s): {description}", file=sys.__stdout__, flush=True)
    assert elapsed < budget_s, f"criterion {number} exceeded its budget"


def _random_diagonal_spec(rng, n):
    blocks = tuple(B(1, rng.choice([1, 2, 3, 4, 6]), 1) for _ in range(n))
    return JordanSpec(blocks)


def _resonant_higher_terms(rng, ctx, coord, above_degree, modulus):
    """A few resonant monomials toward the given coordinate, all of
    total degree strictly above the given one."""
    n = ctx.spec.n
    p = Poly.zero(n, modulus)
    for _ in range(rng.randint(0, 2)):
        for _attempt in range(30):
            mono = tuple(rng.randint(0, above_degree + 3) for _ in range(n))
            if not above_degree < sum(mono) <= above_degree + 3:
                continue
            if is_resonant_monomial(ctx, mono, coord):
                coeff = root_of_unity(modulus, rng.randrange(modulus), modulus)
                coeff = coeff * Fraction(rng.choice([-2, -1, 1, 2, 3]))
                p = p + Poly(n, modulus, {mono: coeff})
                break
    return p


def test_criterion_01_cronin_agreement(rng):
    with criterion(1, "50 random dominant-power systems have order "
                      "prod(m_j), exactly", 30):
        for _ in range(50):
            n = rng.choice([1, 2, 3])
            spec = _random_diagonal_spec(rng, n)
            ctx = ResonanceContext.of(spec)
            modulus = global_order(spec)
            powers = [rng.randint(2, 5) for _ in range(n)]
            coords = []
            for j in range(n):
                p = Poly.variable(j, n, modulus) ** powers[j]
                p = p + _resonant_higher_terms(rng, ctx, j, powers[j], modulus)
                coords.append(p)
            f = GermMap(coords, nvars=n, modulus=modulus)
            expected = math.prod(powers)
            assert multiplicity(f).value == expected
            assert cronin(f) == expected


def test_criterion_02_composition_multiplicativity(rng):
    with criterion(2, "20 random pairs: order(f o g) = order(f) * order(g)",
                   60):
        done = 0
        while done < 20:
            n = rng.choice([1, 2])
            f, vf = random_isolated_system(rng, n, max_degree=4)
            g, vg = random_isolated_system(rng, n, max_degree=4)
            composed = f.compose(g)
            assert multiplicity(composed).value == vf * vg
            done += 1


def test_criterion_03_additivity_and_jet_determinacy(rng):
    with criterion(3, "20 coordinate-product splits and 20 high-jet "
                      "perturbations leave orders exact", 120):
        done = 0
        while done < 20:
            n = rng.choice([1, 2])
            f, n_val = random_isolated_system(rng, n, max_degree=3)
            extra = random_poly(rng, n, 3, max_terms=2, min_degree=1)
            if extra.is_zero():
                continue
            j = rng.randrange(n)
            replaced = list(f.coords)
            replaced[j] = extra
            try:
                m_val = multiplicity(GermMap(replaced, nvars=n)).value
            except NotIsolatedWithinBound:
                continue
            product = list(f.coords)
            product[j] = extra.mul(f.coords[j])
            assert multiplicity(GermMap(product, nvars=n)).value == n_val + m_val
            done += 1
        for _ in range(20):
            n = rng.choice([1, 2])
            f, value = random_isolated_system(rng, n, max_degree=3)
            noisy = [p + random_poly(rng, n, value + 2, max_terms=2,
                                     min_degree=value + 1)
                     for p in f.coords]
            assert multiplicity(GermMap(noisy, nvars=n)).value == value


def test_criterion_04_one_dimensional_family():
    with criterion(4, "1-D family lambda*x + x^(r*d+1): count r at period d "
                      "(r+1 at d=1)", 5):
        for d in (1, 2, 3, 4, 6):
            for r in (1, 2, 3):
                spec = JordanSpec((B(1, d, 1),))
                x, = variables(1, modulus=d)
                lam = spec.blocks[0].eigenvalue(d)
                f = GermMap([x * lam + x ** (r * d + 1)])
                counts = orbit_spectrum(spec, f, cross_check=False).counts
                if d == 1:
                    assert counts == {1: r + 1}
                else:
                    assert counts == {1: 1, d: r}


def test_criterion_05_route_agreement_on_all_fixtures():
    with criterion(5, "projection route equals direct-composition route for "
                      "q <= 6 on every bundled fixture", 120):
        for name, doc in load_fixtures():
            for q in range(1, 7):
                proj = fixed_point_index(doc.matrix, doc.gmap, q)
                direct = direct_iterate_index(doc.gmap, q, hint=proj)
                assert proj == direct, (name, q)


def test_criterion_06_worked_two_dimensional_fixture():
    with criterion(6, "worked 2-D germ: indices (1,3,4,12), sixth Dold "
                      "index 6, all-ones counts, divisor identities", 10):
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
        sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=True)
        assert sp.mu == {1: 1, 2: 3, 3: 4, 6: 12}
        assert sp.dold[6] == 6
        assert sp.counts == {1: 1, 2: 1, 3: 1, 6: 1}
        # the divisor identities, written out
        assert sp.mu[1] == 1 * sp.counts[1]
        assert sp.mu[2] == 1 + 2 * sp.counts[2]
        assert sp.mu[3] == 1 + 3 * sp.counts[3]
        assert sp.mu[6] == 1 + 2 + 3 + 6
        assert sp.checks == {"triangular": True, "iterates": True}


def test_criterion_07_chain_coprime_family_sweep():
    with criterion(7, "orders (2,6,5): all 32 parameter choices realize "
                      "exactly the prescribed counts", 120):
        spec = JordanSpec((B(1, 2, 1), B(1, 6, 1), B(1, 5, 1)))
        for r1, r2, r3, c1, c2 in itertools.product((1, 2), repeat=5):
            g = chain_coprime_germ(spec, [r1, r2, r3], [c1, c2])
            sp = orbit_spectrum(spec, g, cross_check=False)
            assert sp.counts == {1: 1, 2: r1, 6: r2, 5: r3, 10: c1, 30: c2}


def test_criterion_08_chain_family_regression():
    with criterion(8, "chain germs at orders (2,6) and (1,2,6) realize the "
                      "chosen counts (with the +1 shift at order 1)", 60):
        spec26 = JordanSpec((B(1, 2, 1), B(1, 6, 1)))
        for r1, r2 in itertools.product((1, 2, 3), repeat=2):
            sp = orbit_spectrum(spec26, chain_germ(spec26, [r1, r2]),
                                cross_check=False)
            assert sp.counts == {1: 1, 2: r1, 6: r2}
        spec126 = JordanSpec((B(1, 1, 1), B(1, 2, 1), B(1, 6, 1)))
        for r1, r2, r3 in itertools.product((1, 2), repeat=3):
            sp = orbit_spectrum(spec126, chain_germ(spec126, [r1, r2, r3]),
                                cross_check=False)
            assert sp.counts == {1: r1 + 1, 2: r2, 6: r3}


def test_criterion_09_unit_spectrum_fixture():
    with criterion(9, "minimal chain germ: one orbit per period, two fixed "
                      "orbits when 1 is a period", 30):
        spec = JordanSpec((B(1, 2, 1), B(1, 4, 1)))
        sp = orbit_spectrum(spec, unit_spectrum_germ(spec), cross_check=True)
        assert sp.counts == {1: 1, 2: 1, 4: 1}
        spec1 = JordanSpec((B(1, 1, 1), B(1, 3, 1)))
        sp1 = orbit_spectrum(spec1, unit_spectrum_germ(spec1), cross_check=True)
        assert sp1.counts == {1: 2, 3: 1}


def test_criterion_10_universality_decision_table():
    cases = [
        (JordanSpec((B(1, 4, 1),)), True),
        (JordanSpec((B(1, 2, 1), B(1, 3, 1))), True),
        (JordanSpec((B(1, 2, 1), B(1, 3, 1), B(1, 5, 1))), False),
        (JordanSpec((B(1, 1, 1), B(1, 2, 1), B(1, 3, 1))), True),
        (JordanSpec((B(1, 3, 1), B(2, 3, 1))), False),
        (JordanSpec((B(1, 3, 1), B(1, 9, 1), B(1, 2, 1), B(1, 8, 1))), False),
        (JordanSpec((B(1, 1, 1), B(1, 2, 1), B(1, 4, 1), B(1, 3, 1),
                     B(1, 9, 1))), False),
    ]
    with criterion(10, "universality decision table (each case under 1 s)",
                   7):
        for spec, expected in cases:
            started = time.monotonic()
            assert is_universal(spec).universal == expected, spec
            assert time.monotonic() - started < 1.0


def test_criterion_11_residue_minimization_exhaustive():
    with criterion(11, "all residue systems with n <= 3, moduli <= 10: "
                       "bound holds, strict iff not pairwise coprime", 60):
        moduli_pool = range(2, 11)

        def run_case(mods):
            coprime = all(math.gcd(a, b) == 1
                          for a, b in itertools.combinations(mods, 2))
            unit_lists = [[r for r in range(1, a) if math.gcd(r, a) == 1]
                          for a in mods]
            for powers in itertools.product(*unit_lists):
                w = residue_search(mods, powers)
                assert w.product <= w.bound, (mods, powers)
                assert (w.product < w.bound) == (not coprime), (mods, powers)

        # products and the bound are symmetric under permuting the
        # moduli (with their powers), so sorted tuples are exhaustive
        for a in moduli_pool:
            run_case((a,))
        for mods in itertools.combinations_with_replacement(moduli_pool, 2):
            run_case(mods)
        for mods in itertools.combinations_with_replacement(moduli_pool, 3):
            run_case(mods)


def _random_universal_spec(rng):
    mode = rng.choice(["single", "chain", "coprime", "coprime_unit"])
    size = lambda: rng.choice([1, 1, 1, 2])
    if mode == "single":
        d = rng.choice([1, 2, 3, 4, 5, 6])
        return JordanSpec((B(size(), d, 1),))
    if mode == "chain":
        base = rng.choice([(1, 2), (2, 4), (2, 6), (3, 6), (1, 3), (2, 4, 8)])
        return JordanSpec(tuple(B(size(), d, 1) for d in base))
    if mode == "coprime":
        chain, tail = rng.choice([((2,), 3), ((2, 4), 3), ((3,), 4),
                                  ((2, 6), 5), ((5,), 2)])
        return JordanSpec(tuple(B(size(), d, 1) for d in chain)
                          + (B(size(), tail, 1),))
    chain, tail = rng.choice([((1,), 2), ((1, 2), 3), ((1, 3), 2),
                              ((1, 2, 4), 3)])
    return JordanSpec(tuple(B(size(), d, 1) for d in chain)
                      + (B(size(), tail, 1),))


def test_criterion_12_realize_round_trip(rng):
    with criterion(12, "20 random universal matrices and admissible targets "
                       "realize and verify", 300):
        for _ in range(20):
            spec = _random_universal_spec(rng)
            pe = period_set(spec)
            entries = {}
            if 1 in pe:
                entries[1] = rng.randint(2, 3)
            for q in sorted(pe - {1}):
                entries[q] = rng.randint(1, 3)
            target = SequenceTarget(entries)
            assert is_admissible(spec, target).ok
            doc = realize(spec, target)
            sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=False)
            assert sp.counts == normalized_target(spec, target)
            assert doc.matrix == spec


def test_criterion_13_positivity_sweep():
    with criterion(13, "on every fixture: positive counts exactly on the "
                       "period set, and >= 2 fixed orbits iff 1 is a period",
                   60):
        for name, doc in load_fixtures():
            pe = period_set(doc.matrix)
            sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=False)
            for q, count in sp.counts.items():
                if q >= 2:
                    assert (count > 0) == (q in pe), (name, q)
            assert (sp.counts[1] >= 2) == (1 in pe), name


MALFORMED = [
    "",
    "matrix",
    "matrix { }",
    "matrix { block { size = 0, order = 2, power = 1 } } map { f1 = 0; }",
    "matrix { block { size = 1, order = 2, power = 1 } } map { }",
    "matrix { block { size = 1, order = 2, power = 1 } } map { f1 = ; }",
    "matrix { block { size = 1, order = 2, power = 1 } } map { f1 = x2; }",
    "matrix { block { size = 1, order = 2, power = 1 } } map { f1 = 1; }",
    "matrix { block { size = 1, order = 2, power = 1 } } map { f1 = x1 + @; }",
    "matrix { block { size = 1, order = 2, power = 1 } } map { f2 = x1; }",
    "matrix { block { size = 1, order = 2, power = 1 } } map { f1 = w(7,1)*x1; }",
    "matrix { block { size = 1, order = 2, power = 1 } } map { f1 = x1^88888888; }",
]


def test_criterion_14_parser_round_trip_and_errors():
    with criterion(14, "print/parse round trips on all fixtures; malformed "
                       "inputs give positioned errors", 30):
        for name, doc in load_fixtures():
            printed = print_germ(doc)
            assert parse_germ(printed) == doc, name
            assert print_germ(parse_germ(printed)) == printed, name
        for text in MALFORMED:
            with pytest.raises(GermParseError) as err:
                parse_germ(text)
            assert err.value.line >= 1 and err.value.col >= 1
