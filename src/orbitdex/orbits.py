"""Fixed-point indices of iterates, Dold indices, and hidden orbit counts.

For a germ in resonant polynomial normal form, the index of the q-th
iterate equals the zero order of the eigenvalue-stripped map projected to
the period part of q, the coordinates of the blocks whose order divides
q (jordan.period_blocks); a q with no such block has an invertible
identity-minus-linear-part and index 1.  One table, _iterate_indices,
holds that rule: one validate_rnf call checks the normal form and yields
the stripped map, which is projected once per period part and kept
beside its index.  Every index that fixed_point_index, the Dold indices
and orbit_spectrum use, and every projected map the division route
reads, comes from it.  The direct route computes the same index as the
zero order of f^q - id by actual composition (exponential in q; jet
determinacy lets the composition be truncated adaptively).

Dold indices combine iterate indices by inclusion-exclusion over the
prime subsets of q; dividing by q yields the count of period-q orbits
concealed at the fixed point.  For every d in the period set, the zero
order on the period part of d also equals sum(q * count_q) over the
divisors q of d in the period set, a triangular system that
solve_counts_triangular inverts independently as a cross-check.  The
per-period division route checks each count at q >= 2 once more: on the
projected map of the period part of q, dividing the block-end
coordinates of the essential blocks by their lead variables leaves a map
whose zero order is q times the count at q.  _division_order alone holds
that rule, and returns the order or the reason it does not apply.
Direct composition checks q = 1, where it is just f - id, and is the
fallback for a small q that the division route does not cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .cyclotomic import prime_factors
from .jordan import JordanSpec, period_blocks, period_set
from .multiplicity import (DEFAULT_DEGREE_CAP, NotIsolatedWithinBound,
                           multiplicity)
from .polynomials import GermMap, TermBudgetExceeded
from .resonance import project, validate_rnf


# Direct composition is the cross-check's fallback for iterates q up to
# this bound, and gives up on a q (reporting it unchecked) once one
# product of its composition passes this many terms.
DIRECT_CHECK_MAX_Q = 6
DIRECT_CHECK_TERM_LIMIT = 2_000


class ConsistencyError(RuntimeError):
    """An identity the theory guarantees failed; indicates an engine bug."""


def direct_iterate_index(f: GermMap, q: int, degree_cap: int = DEFAULT_DEGREE_CAP,
                         hint: int | None = None) -> int:
    """Zero order of f^q - id by explicit composition.

    The composition is truncated at a degree D and retried with doubled D
    until the computed order is < D; a germ whose low jet matches f^q - id
    up to its own order has the same order, so the result is exact.  A
    "not isolated" verdict, even a definite one, is one on the truncation,
    whose coordinates may have lost every term, so it too doubles D.  A
    product of more than DIRECT_CHECK_TERM_LIMIT terms raises
    TermBudgetExceeded, whose message is the reason callers report.  The
    multiplicity computed after the composition has no such budget, but
    its engine reads each row of f^q - id only below a degree bound that
    doubles from 8, and builds a row only at the step where its order can
    change Q_d, so it costs what the order needs, not what the composition
    holds.
    """
    start = max(4, hint + 2 if hint is not None else 8)
    trunc = start
    while trunc <= max(degree_cap * 4, start):
        try:
            g = f.iterate(q, trunc=trunc, term_limit=DIRECT_CHECK_TERM_LIMIT)
        except TermBudgetExceeded as exc:
            raise TermBudgetExceeded(f"direct composition past "
                                     f"{DIRECT_CHECK_TERM_LIMIT} terms") from exc
        try:
            value = multiplicity(g.minus_identity(), degree_cap=trunc).value
        except NotIsolatedWithinBound:
            trunc *= 2
            continue
        if value < trunc:
            return value
        trunc *= 2
    raise NotIsolatedWithinBound(
        trunc // 2,
        witness=f"direct composition route did not certify an order below "
                f"its truncation budget for q={q}")


@dataclass(frozen=True)
class _PeriodPart:
    """The period part of q: its blocks as a matrix of their own, the
    stripped map projected to their coordinates, and the zero order of
    that map, which is the index of f^q.  With no block, spec and gmap
    are None and the index is 1."""
    spec: JordanSpec | None
    gmap: GermMap | None
    index: int


def _iterate_indices(spec: JordanSpec, f: GermMap, degree_cap: int
                     ) -> Callable[[int], _PeriodPart]:
    """The q -> period part table of a germ in resonant polynomial
    normal form.

    One validate_rnf call checks the normal form and strips the
    eigenvalues; the stripped map is projected once per distinct block
    set (the only thing a part depends on), and the part is cached on it.
    """
    verdict = validate_rnf(spec, f)
    if not verdict.ok:
        raise ValueError(f"normal form required: {verdict.describe()}")
    cache = {(): _PeriodPart(None, None, 1)}

    def part(q: int) -> _PeriodPart:
        blocks = period_blocks(spec, q)
        if blocks not in cache:
            keep = [c for j in blocks
                    for c in range(spec.offsets[j], spec.offsets[j + 1])]
            g = project(verdict.stripped, keep)
            cache[blocks] = _PeriodPart(
                JordanSpec(tuple(spec.blocks[j] for j in blocks)), g,
                multiplicity(g, degree_cap).value)
        return cache[blocks]

    return part


def fixed_point_index(spec: JordanSpec, f: GermMap, q: int,
                      degree_cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Index of the q-th iterate at the origin; f must be in resonant
    polynomial normal form (direct_iterate_index needs no normal form)."""
    if q < 1:
        raise ValueError("iterate exponent must be >= 1")
    return _iterate_indices(spec, f, degree_cap)(q).index


def _dold(part: Callable[[int], _PeriodPart], q: int,
          seen: dict[int, int]) -> int:
    """Inclusion-exclusion of iterate indices over the prime subsets of q;
    every index read is recorded in seen."""
    total = 0
    primes = prime_factors(q)
    for subset in range(1 << len(primes)):
        chosen = [p for i, p in enumerate(primes) if subset >> i & 1]
        d = q // math.prod(chosen)
        seen[d] = part(d).index
        total += (-1) ** len(chosen) * seen[d]
    return total


def solve_counts_triangular(spec: JordanSpec, part_orders: dict[int, int]) -> dict[int, int]:
    """Recover the orbit counts from the zero orders of the period parts.

    part_orders maps each d in the period set (plus 1 when 1 is a period)
    to the zero order of the stripped map projected to the period part of
    d; for 1 outside the period set the order defaults to 1.  Solved in
    divisor order; a non-integer or negative count means the input table
    is inconsistent.
    """
    pe = period_set(spec)
    qs = sorted(pe | {1})
    counts: dict[int, int] = {}
    for q in qs:
        if q in part_orders:
            pi_q = part_orders[q]
        elif q == 1 and 1 not in pe:
            pi_q = 1
        else:
            raise ValueError(f"missing period-part order for d={q}")
        acc = pi_q - sum(p * counts[p] for p in qs if p < q and q % p == 0)
        if acc % q or acc < 0:
            raise ValueError(
                f"inconsistent period-part orders: count for q={q} would be {acc}/{q}")
        counts[q] = acc // q
    return counts


def _division_order(part: _PeriodPart, degree_cap: int) -> int | str:
    """q times the count at q by the per-period division route, or why
    the route does not apply.

    part is the period part of a q in the period set, so its blocks have
    lcm q.  The witness is the set of essential blocks, those whose order
    does not divide the lcm of the other orders.  A selection of blocks
    with lcm q must hold every such block (without it the lcm divides
    that of the others), so this set is the only selection of essential
    blocks that can qualify; if its lcm is not q, the route refuses with
    "no witness".  Then every term of every block-end coordinate must use
    lead variables only ("shape"), and the block-end coordinate of each
    witness block must be a multiple of its lead variable other than that
    variable itself, which would leave a constant ("divisibility").  The
    zero order of the map with those coordinates divided by their lead
    variables is the value, if it is certified ("not isolated").
    """
    spec, orders = part.spec, part.spec.orders()
    witness = [j for j, d in enumerate(orders)
               if math.lcm(*orders[:j], *orders[j + 1:]) % d]
    if not witness or (math.lcm(*(orders[j] for j in witness))
                       != math.lcm(*orders)):
        return "no witness"
    coords = list(part.gmap.coords)
    leads = {spec.lead_coord(j) for j in range(spec.m)}
    if any(e and k not in leads for j in range(spec.m)
           for mono in coords[spec.block_end(j)].terms
           for k, e in enumerate(mono)):
        return "shape"
    for j in witness:
        end, lead = spec.block_end(j), spec.lead_coord(j)
        unit = (0,) * lead + (1,) + (0,) * (spec.n - lead - 1)
        if any(not m[lead] or m == unit for m in coords[end].terms):
            return "divisibility"
        coords[end] = coords[end].divide_monomial(unit)
    try:
        return multiplicity(GermMap(coords, nvars=spec.n,
                                    modulus=part.gmap.modulus),
                            degree_cap).value
    except NotIsolatedWithinBound:
        return "not isolated"


@dataclass(frozen=True)
class OrbitSpectrum:
    spec: JordanSpec
    pe: tuple[int, ...]
    mu: dict[int, int]          # q -> index of the q-th iterate
    dold: dict[int, int]        # q -> Dold index
    counts: dict[int, int]      # q -> hidden orbit count, q in PE + {1}
    checks: dict[str, bool] = field(default_factory=dict)
    unchecked: dict[int, str] = field(default_factory=dict)  # q -> why
    checked_by: dict[int, str] = field(default_factory=dict)  # q -> route


def orbit_spectrum(spec: JordanSpec, f: GermMap, cross_check: bool = True,
                   degree_cap: int = DEFAULT_DEGREE_CAP) -> OrbitSpectrum:
    """All hidden orbit counts over the period set, with optional
    cross-checks.

    The triangular solve must reproduce the counts (checks["triangular"]).
    Each q >= 2 is then checked by the division route and, where that
    route does not apply and q <= DIRECT_CHECK_MAX_Q, by direct
    composition, which also checks q = 1; checked_by names the route per
    q.  A q that neither route covers (no witness, shape, divisibility,
    not isolated, or a composition past DIRECT_CHECK_TERM_LIMIT terms)
    is named in unchecked, and checks["iterates"] is then False.  A
    disagreement raises ConsistencyError."""
    part = _iterate_indices(spec, f, degree_cap)
    pe = sorted(period_set(spec))
    qs = sorted(set(pe) | {1})
    mu: dict[int, int] = {}
    dold: dict[int, int] = {}
    counts: dict[int, int] = {}
    for q in qs:
        dold[q] = _dold(part, q, mu)
        if dold[q] % q:
            raise ConsistencyError(
                f"Dold index {dold[q]} for q={q} is not divisible by q")
        counts[q] = dold[q] // q
    checks: dict[str, bool] = {}
    unchecked: dict[int, str] = {}
    checked_by: dict[int, str] = {}
    if cross_check:
        triangular = solve_counts_triangular(
            spec, {d: mu[d] for d in qs})
        if triangular != counts:
            raise ConsistencyError(
                f"triangular solve disagrees with inclusion-exclusion: "
                f"{triangular} vs {counts}")
        checks["triangular"] = True
        for q in qs:
            if q > 1:
                order = _division_order(part(q), degree_cap)
                if isinstance(order, int):
                    if order != q * counts[q]:
                        raise ConsistencyError(
                            f"division route gives order {order} for q={q}, "
                            f"the counts give {q * counts[q]}")
                    checked_by[q] = "division"
                    continue
                if q > DIRECT_CHECK_MAX_Q:
                    unchecked[q] = order
                    continue
            try:
                direct = direct_iterate_index(f, q, degree_cap, hint=mu[q])
            except TermBudgetExceeded as exc:
                unchecked[q] = str(exc)
                continue
            if direct != mu[q]:
                raise ConsistencyError(
                    f"direct route gives {direct} for q={q}, projection "
                    f"gives {mu[q]}")
            checked_by[q] = "direct"
        checks["iterates"] = not unchecked
    return OrbitSpectrum(spec, tuple(pe), mu, dold, counts, checks,
                         unchecked, checked_by)
