"""Regenerate the bundled .germ fixtures and their expected spectra.

Each fixture's counts and iterate indices below were derived by hand from
the additive splitting of coordinate products and the triangular relation
between period-part orders and counts; the script asserts the engine agrees
before anything is written.  Run from the repo root: python tools/make_fixtures.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, "src")

from orbitdex.germfile import GermDocument, parse_germ, print_germ
from orbitdex.jordan import JordanBlock, JordanSpec
from orbitdex.orbits import orbit_spectrum
from orbitdex.polynomials import GermMap, variables
from orbitdex.universality import chain_coprime_germ, chain_germ, unit_spectrum_germ

B = JordanBlock
OUT = Path("src/orbitdex/fixtures")


def one_d(order, power, exponent):
    spec = JordanSpec((B(1, order, power),))
    x, = variables(1, modulus=order)
    lam = spec.blocks[0].eigenvalue(order)
    return GermDocument(spec, GermMap([x * lam + x**exponent]))


def fixture(name, doc, counts, mu):
    sp = orbit_spectrum(doc.matrix, doc.gmap, cross_check=True)
    assert sp.counts == counts, (name, sp.counts, counts)
    for q, v in mu.items():
        assert sp.mu[q] == v, (name, q, sp.mu, mu)
    text = print_germ(doc)
    assert parse_germ(text) == doc
    (OUT / f"{name}.germ").write_text(text)
    expected = {
        "pe": list(sp.pe),
        "counts": {str(q): v for q, v in sorted(sp.counts.items())},
        "mu": {str(q): v for q, v in sorted(sp.mu.items())},
    }
    (OUT / f"{name}.expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"{name}: counts={sp.counts}")


OUT.mkdir(parents=True, exist_ok=True)

fixture("flip_cubic", one_d(2, 1, 3), {1: 1, 2: 1}, {1: 1, 2: 3})
fixture("flip_quintic", one_d(2, 1, 5), {1: 1, 2: 2}, {1: 1, 2: 5})
fixture("unit_cubic", one_d(1, 1, 3), {1: 3}, {1: 3})

pair = parse_germ("""
matrix {
  block { size = 1, order = 2, power = 1 }
  block { size = 1, order = 3, power = 1 }
}
map {
  f1 = L1*x1 + x1^3 + x1*x2^3;
  f2 = L2*x2 + x2^4 + 2*x2*x1^2;
}
""")
fixture("pair23_worked", pair, {1: 1, 2: 1, 3: 1, 6: 1},
        {1: 1, 2: 3, 3: 4, 6: 12})

spec26 = JordanSpec((B(1, 2, 1), B(1, 6, 1)))
fixture("chain_2_6", GermDocument(spec26, chain_germ(spec26, [2, 3])),
        {1: 1, 2: 2, 6: 3}, {1: 1, 2: 5, 3: 1, 6: 23})

spec126 = JordanSpec((B(1, 1, 1), B(1, 2, 1), B(1, 6, 1)))
fixture("chain_1_2_6", GermDocument(spec126, chain_germ(spec126, [1, 2, 1])),
        {1: 2, 2: 2, 6: 1}, {1: 2, 2: 6, 3: 2, 6: 12})

spec24 = JordanSpec((B(1, 2, 1), B(1, 4, 1)))
fixture("chain_allones_2_4", GermDocument(spec24, unit_spectrum_germ(spec24)),
        {1: 1, 2: 1, 4: 1}, {1: 1, 2: 3, 4: 7})

spec13 = JordanSpec((B(1, 1, 1), B(1, 3, 1)))
fixture("chain_allones_1_3", GermDocument(spec13, unit_spectrum_germ(spec13)),
        {1: 2, 3: 1}, {1: 2, 3: 5})

spec_sizes = JordanSpec((B(1, 1, 1), B(2, 2, 1)))
fixture("chain_allones_sizes",
        GermDocument(spec_sizes, unit_spectrum_germ(spec_sizes)),
        {1: 2, 2: 1}, {1: 2, 2: 4})

spec265 = JordanSpec((B(1, 2, 1), B(1, 6, 1), B(1, 5, 1)))
fixture("coprime_2_6_5",
        GermDocument(spec265, chain_coprime_germ(spec265, [1, 1, 1], [2, 1])),
        {1: 1, 2: 1, 5: 1, 6: 1, 10: 2, 30: 1},
        {1: 1, 2: 3, 5: 6, 6: 9, 10: 28, 30: 64})

spec135 = JordanSpec((B(1, 1, 1), B(1, 3, 1), B(1, 5, 1)))
fixture("coprime_1_3_5",
        GermDocument(spec135, chain_coprime_germ(spec135, [1, 1, 1], [1, 2])),
        {1: 2, 3: 1, 5: 1, 15: 2},
        {1: 2, 3: 5, 5: 7, 15: 40})

spec23 = JordanSpec((B(1, 2, 1), B(1, 3, 1)))
fixture("two_block_coprime_2_3",
        GermDocument(spec23, chain_coprime_germ(spec23, [1, 2], [1])),
        {1: 1, 2: 1, 3: 2, 6: 1},
        {1: 1, 2: 3, 3: 7, 6: 15})

print("all fixtures written")
