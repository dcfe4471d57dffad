"""Shared helpers: fixture discovery, seeded random samplers, and two
test-only views of the multiplicity engine (the Cronin product and one
truncated quotient dimension)."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from orbitdex import GermMap, Poly, parse_germ
from orbitdex.multiplicity import (DEFAULT_DEGREE_CAP, _check_square,
                                   _Echelon, _integral_rows, _lowest_isolated,
                                   _monomials_of_degree, _shift_terms)

SEED = 20260810


@pytest.fixture
def rng():
    return random.Random(SEED)


def fixture_dir() -> Path:
    return Path(str(resources.files("orbitdex") / "fixtures"))


def load_fixtures():
    """All bundled (name, document) pairs, sorted by name."""
    out = []
    for path in sorted(fixture_dir().glob("*.germ")):
        out.append((path.stem, parse_germ(path.read_text())))
    return out


def random_rational(rng, small=True) -> Fraction:
    num = rng.choice([-2, -1, 1, 2, 3]) if small else rng.randint(-9, 9) or 1
    den = rng.choice([1, 1, 1, 2, 3])
    return Fraction(num, den)


def random_poly(rng, nvars, max_degree, max_terms=4, modulus=1,
                min_degree=1) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            mono = tuple(rng.randint(0, max_degree) for _ in range(nvars))
            if min_degree <= sum(mono) <= max_degree:
                break
        terms[mono] = random_rational(rng)
    return Poly(nvars, modulus, terms)


def random_isolated_system(rng, nvars, max_degree=4):
    """A random germ map with an isolated zero at the origin: dominant
    pure powers per coordinate plus random higher noise."""
    from orbitdex import NotIsolatedWithinBound, multiplicity

    while True:
        coords = []
        for j in range(nvars):
            power = rng.randint(1, max_degree)
            p = Poly.variable(j, nvars) ** power
            p = p + random_poly(rng, nvars, max_degree,
                                max_terms=2, min_degree=max(power, 1))
            coords.append(p)
        f = GermMap(coords, nvars=nvars)
        if any(c.is_zero() for c in coords):
            continue
        try:
            value = multiplicity(f).value
        except NotIsolatedWithinBound:
            continue
        if value > 0:
            return f, value


def cronin(f: GermMap, degree_cap: int = DEFAULT_DEGREE_CAP) -> int | None:
    """Product of the lowest degrees when the lowest-degree homogeneous
    system has only the trivial zero; None when it does not (the order is
    then strictly larger) or when the decision exceeds the cap."""
    _check_square(f)
    for j, p in enumerate(f.coords):
        if p.is_zero():
            raise ValueError(
                f"coordinate {j + 1} is identically zero; the origin is not "
                f"an isolated zero")
    if f.nvars == 0:
        return 1
    degrees, isolated = _lowest_isolated(f.coords, f.nvars, degree_cap)
    return math.prod(degrees) if isolated else None


def truncated_quotient_dim(f: GermMap, d: int) -> int:
    """dim K[x]_{<d} modulo span{ trunc(x^a f_i, d) : |a| < d }."""
    _check_square(f)
    if d < 1:
        raise ValueError("truncation degree must be >= 1")
    nvars = f.nvars
    if nvars == 0:
        return 1
    ech, rows = _Echelon(), _integral_rows(f.coords)
    for deg in range(d):
        for alpha in _monomials_of_degree(nvars, deg):
            for terms in rows:
                ech.insert({m: c for m, c in _shift_terms(terms, alpha).items()
                            if sum(m) < d})
    return math.comb(d - 1 + nvars, nvars) - ech.pivots_below(d)
