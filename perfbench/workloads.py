"""Seeded inputs and independent oracles for the three benchmark workloads.

Every case is one in-process call of the `orbitdex` command line with
`--json --no-timing`.  The inputs come from the seed alone; the library
is used only to write them out (germ constructors and the printer), and
every expected answer comes from a source that does not run the code
under test:

* bundled fixtures: their `*.expected.json` sidecars;
* spectrum ladder germs: the closed form of the chain families (count
  r_t at order d_t, one more at order 1, cross_t at order d_t * d_tail);
* `mult` systems: U(x) * (x1^a1, ..., xn^an) after a triangular linear
  change of coordinates, with U(0) invertible, has zero order prod(a_i);
* `realize` targets: the counts asked for.

The seed varies eigenvalue powers, block order, coefficients and (for
`realize`) shapes and counts, but not the shape of any `spectrum` or
`mult` case, so that the work in a pass stays nearly the same from seed
to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable

JSON_FLAGS = ["--json", "--no-timing"]

# A spectrum rung: blocks as (size, order) in chain order, the count per
# block, and the cross counts of the coprime family (None for the chain
# family).  Most rungs cost 130-300 ms, so that the median case sits in a
# dense band of case times; costs are for the default cross-checked
# `spectrum` on a 2-core x86 box in its fast state.
SPECTRUM_RUNGS = [
    (((2, 1), (1, 2)), (10, 10), None),                 # ~40 ms
    (((1, 1), (1, 3)), (9, 9), None),                   # ~70 ms
    (((2, 2), (1, 5)), (1, 1), (1,)),                   # ~30 ms
    (((1, 2), (1, 5)), (8, 8), (8,)),                   # ~90 ms
    (((1, 1), (3, 2)), (8, 8), None),                   # ~210 ms
    (((1, 2), (1, 4)), (5, 5), None),                   # ~170 ms
    (((2, 2), (1, 4)), (2, 2), None),                   # ~130 ms
    (((1, 2), (1, 6)), (3, 3), None),                   # ~160 ms
    (((1, 1), (1, 2), (1, 4)), (1, 2, 1), None),        # ~160 ms
    (((1, 1), (1, 2), (2, 4)), (1, 1, 1), None),        # ~130 ms
    (((1, 1), (1, 2), (3, 4)), (1, 1, 1), None),        # ~250 ms
    (((1, 1), (1, 2), (1, 6)), (1, 1, 1), None),        # ~260 ms
    (((1, 1), (1, 2), (1, 4), (1, 8)), (1, 1, 1, 1), None),  # ~160 ms
    (((3, 1), (3, 2)), (2, 2), None),                   # ~270 ms
    (((2, 1), (2, 2)), (5, 5), None),                   # ~210 ms
    (((2, 1), (2, 3)), (2, 2), None),                   # ~210 ms
    (((1, 1), (1, 4)), (8, 8), None),                   # ~200 ms
    (((1, 2), (1, 3)), (2, 2), (2,)),                   # ~230 ms
    (((1, 1), (1, 5)), (6, 6), (1,)),                   # ~180 ms
    (((2, 1), (1, 3)), (10, 10), (1,)),                 # ~250 ms
    (((1, 1), (1, 2), (1, 5)), (2, 2, 2), (2, 2)),      # ~310 ms
]

# The 4-variable chain germ whose default cross-check does not finish
# (direct composition of f^6 at truncation 25).  It stays in the ladder
# verbatim, so it shows as a timeout until the cross-check is bounded.
KNOWN_HANG = ([(2, 2, 1), (2, 6, 1)], (2, 3))

# `mult` systems: (modulus M, exponents a), each drawn twice with other
# coefficients.  The Q half runs the integer echelon, the Q(zeta_M) half
# the cyclotomic one; each is about half of a pass.  Cyclotomic systems
# stay in 2 variables (3 variables cost a minute or more each).
MULT_SYSTEMS = [
    (1, (3, 2, 2)), (1, (2, 3, 2)), (1, (2, 2, 3)), (1, (12, 11)),
    (1, (11, 9)), (1, (9, 7)), (1, (10, 9)), (1, (11, 10)),
    (3, (5, 4)), (3, (4, 3)), (4, (5, 4)), (4, (5, 3)),
    (4, (4, 3)), (6, (4, 3)), (12, (4, 3)), (12, (3, 2)),
] * 2

# `realize` shapes as block orders: strict divisibility chains, and chains
# followed by one block coprime to them.  Cases cycle through the shapes,
# alternating the two modes, and through block sizes 1-3, so every seed
# has the same mix; powers, block order and counts are drawn per case.
REALIZE_CHAINS = [(1, 2), (2, 4), (1, 3), (2, 6), (1, 2, 4), (1, 2, 6),
                  (1, 3, 6), (2, 4, 12), (1, 2, 4, 8), (1, 2, 4, 12)]
REALIZE_COPRIME = [((2,), 3), ((2,), 5), ((1, 2), 3), ((1, 3), 2),
                   ((1, 4), 3), ((1, 3), 4), ((1, 2), 5), ((1, 2, 4), 3)]
REALIZE_CASES = 200
MAX_COUNT = 20


class WrongAnswer(Exception):
    """An output disagreed with its oracle."""


@dataclass
class Case:
    id: str
    argv: list[str]
    modulus: int
    check: Callable[[dict], None]


def period_set(orders) -> set[int]:
    """Periods of the linear part: lcms of the orders of block subsets."""
    orders = list(orders)
    return {reduce(math.lcm, [d for j, d in enumerate(orders) if mask >> j & 1])
            for mask in range(1, 1 << len(orders))}


def inline_matrix(blocks) -> str:
    return "[" + ";".join(f"({k},{d},{r})" for k, d, r in blocks) + "]"


def chain_powers(rng: random.Random, orders) -> list[int]:
    """Primitive powers with r_(j+1) = r_j (mod d_j), as a chain needs."""
    powers: list[int] = []
    for j, d in enumerate(orders):
        options = [r for r in range(1, d + 1) if math.gcd(r, d) == 1
                   and (j == 0 or (r - powers[-1]) % orders[j - 1] == 0)]
        powers.append(rng.choice(options))
    return powers


def _expect_counts(payload: dict, want: dict[int, int]) -> None:
    got = payload.get("results", {}).get("counts")
    if got != {str(q): v for q, v in want.items()}:
        raise WrongAnswer(f"counts {got}, oracle {want}")


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


# -- spectrum -------------------------------------------------------------


def _fixture_cases(lib, root: Path) -> list[Case]:
    cases = []
    for germ in sorted((root / "src" / "orbitdex" / "fixtures").glob("*.germ")):
        want = json.loads(germ.with_suffix(".expected.json").read_text())
        modulus = lib.parse_germ(germ.read_text()).modulus

        def check(payload, want=want):
            got = payload.get("results", {})
            got = {k: got.get(k) for k in ("pe", "counts", "mu")}
            if got != want:
                raise WrongAnswer(f"spectrum {got}, expected file {want}")

        cases.append(Case(f"fixture:{germ.stem}",
                          JSON_FLAGS + ["spectrum", str(germ)], modulus, check))
    return cases


def _chain_counts(orders, r, cross) -> dict[int, int]:
    """Closed-form spectrum of the chain and chain-plus-coprime families."""
    counts = {1: r[0] + 1 if orders[0] == 1 else 1}
    chain = orders if cross is None else orders[:-1]
    for t, d in enumerate(chain):
        if d > 1:
            counts[d] = r[t]
    if cross is not None:
        tail = orders[-1]
        counts[tail] = r[-1]
        for t, d in enumerate(chain):
            if d > 1:
                counts[d * tail] = cross[t]
    return dict(sorted(counts.items()))


def _permuted_document(lib, spec, germ, order):
    """The same germ with its blocks listed in the given order (a
    coordinate permutation, which leaves the spectrum unchanged)."""
    blocks = [spec.blocks[j] for j in order]
    new_spec = lib.JordanSpec(tuple(blocks))
    new_of_old = [0] * spec.n
    for pos, j in enumerate(order):
        for off in range(spec.blocks[j].size):
            new_of_old[spec.offsets[j] + off] = new_spec.offsets[pos] + off
    coords = [None] * spec.n
    for old, poly in enumerate(germ.coords):
        coords[new_of_old[old]] = poly.rename_vars(new_of_old, spec.n)
    return lib.GermDocument(new_spec, lib.GermMap(coords))


def _spectrum_cases(lib, seed: int, workdir: Path, root: Path) -> list[Case]:
    rng = random.Random(seed)
    cases = _fixture_cases(lib, root)
    ladder = []
    for sizes_orders, r, cross in SPECTRUM_RUNGS:
        orders = [d for _, d in sizes_orders]
        chain = orders if cross is None else orders[:-1]
        powers = chain_powers(rng, chain)
        if cross is not None:
            tail = orders[-1]
            powers.append(rng.choice([p for p in range(1, tail + 1)
                                      if math.gcd(p, tail) == 1]))
        blocks = [(k, d, p) for (k, d), p in zip(sizes_orders, powers)]
        ladder.append((blocks, r, cross, rng.sample(range(len(blocks)), len(blocks))))
    blocks, r = KNOWN_HANG
    ladder.append((blocks, r, None, list(range(len(blocks)))))
    for i, (blocks, r, cross, order) in enumerate(ladder):
        spec = lib.parse_inline_matrix(inline_matrix(blocks))
        if cross is None:
            germ = lib.chain_germ(spec, r)
        else:
            germ = lib.chain_coprime_germ(spec, r, cross)
        doc = _permuted_document(lib, spec, germ, order)
        want = _chain_counts([d for _, d, _ in blocks], r, cross)
        path = _write(workdir, f"ladder{i:02d}.germ", lib.print_germ(doc))
        label = f"ladder:{inline_matrix(blocks)} r={tuple(r)}"
        if cross is not None:
            label += f" cross={cross}"
        cases.append(Case(label, JSON_FLAGS + ["spectrum", path],
                          lib.global_order(spec),
                          lambda payload, want=want: _expect_counts(payload, want)))
    return cases


# -- mult -------------------------------------------------------------------


def _unit(rng: random.Random, modulus: int, lib):
    """A random nonzero coefficient: a small integer, times zeta_M over
    Q(zeta_M).  Only the integers vary with the seed, so every seed asks
    for the same field arithmetic and costs about the same."""
    c = rng.choice([1, -1, 2, -2, 3, -3])
    if modulus == 1:
        return c
    return lib.root_of_unity(modulus, 1, modulus) * c


def _mult_system(lib, rng: random.Random, modulus: int, a) -> object:
    n = len(a)
    xs = [lib.Poly.variable(i, n, modulus) for i in range(n)]
    zero = lib.Poly.zero(n, modulus)
    # U(0) = L * R with unit triangular factors (so det U(0) = 1), redrawn
    # until no entry vanishes: then every coordinate's lowest form is a
    # multiple of one power, the Cronin product does not apply, and the
    # engine has to run.
    while True:
        low = [[1 if i == j else _unit(rng, modulus, lib) if j < i else 0
                for j in range(n)] for i in range(n)]
        up = [[1 if i == j else _unit(rng, modulus, lib) if j > i else 0
               for j in range(n)] for i in range(n)]
        u0 = [[sum((lib.Poly.constant(low[i][k], n, modulus) * up[k][j]
                    for k in range(n)), zero) for j in range(n)]
              for i in range(n)]
        if all(not u.is_zero() for row in u0 for u in row):
            break
    coords = []
    for i in range(n):
        f = zero
        for j in range(n):
            u = u0[i][j] + xs[(i + j) % n] * _unit(rng, modulus, lib)
            f = f + u * xs[j] ** a[j]
        coords.append(f)
    change = []
    for i in range(n):
        v = xs[i]
        for k in range(i + 1, n):
            v = v + xs[k] * _unit(rng, modulus, lib)
        change.append(v)
    return lib.GermMap([f.substitute(change) for f in coords])


def _mult_cases(lib, seed: int, workdir: Path) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for i, (modulus, a) in enumerate(MULT_SYSTEMS):
        gmap = _mult_system(lib, rng, modulus, a)
        blocks = [lib.JordanBlock(1, modulus, 1)] + \
            [lib.JordanBlock(1, 1, 1)] * (len(a) - 1)
        doc = lib.GermDocument(lib.JordanSpec(tuple(blocks)), gmap)
        path = _write(workdir, f"mult{i:02d}.germ", lib.print_germ(doc))
        want = math.prod(a)

        def check(payload, want=want):
            got = payload.get("results", {})
            if not got.get("ok") or got.get("value") != want:
                raise WrongAnswer(f"mult {got}, oracle {want}")

        cases.append(Case(f"mult{i:02d}:Q(zeta_{modulus}) a={a}",
                          JSON_FLAGS + ["mult", "--map-only", path],
                          modulus, check))
    return cases


# -- realize -----------------------------------------------------------------


def _realize_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for i in range(REALIZE_CASES):
        if i % 2 == 0:
            orders = list(REALIZE_CHAINS[i // 2 % len(REALIZE_CHAINS)])
            powers = chain_powers(rng, orders)
        else:
            chain, tail = REALIZE_COPRIME[i // 2 % len(REALIZE_COPRIME)]
            orders = list(chain) + [tail]
            powers = chain_powers(rng, chain) + [rng.choice(
                [p for p in range(1, tail + 1) if math.gcd(p, tail) == 1])]
        blocks = [(1 + (i // 2 + j) % 3, d, p)
                  for j, (d, p) in enumerate(zip(orders, powers))]
        rng.shuffle(blocks)
        pe = period_set(orders)
        want = {q: rng.randint(1 + (q == 1), MAX_COUNT) if q in pe else 1
                for q in sorted(pe | {1})}
        seq = dict(want)
        # an explicit zero off the period set is admissible and ignored
        off = next(q for q in range(2, 100) if q not in pe)
        seq[off] = 0
        text = ",".join(f"{q}:{v}" for q, v in sorted(seq.items()))
        matrix = inline_matrix(blocks)

        def check(payload, want=want):
            got = payload.get("results", {})
            if not got.get("ok") or not str(got.get("germ", "")).startswith("matrix {"):
                raise WrongAnswer(f"realize returned {got}")
            _expect_counts(payload, want)

        cases.append(Case(f"realize:{matrix} {text}",
                          JSON_FLAGS + ["realize", matrix, "--seq", text],
                          reduce(math.lcm, orders), check))
    return cases


def build(name: str, lib, seed: int, workdir: Path, root: Path) -> list[Case]:
    if name == "spectrum":
        return _spectrum_cases(lib, seed, workdir, root)
    if name == "mult":
        return _mult_cases(lib, seed, workdir)
    return _realize_cases(seed)
