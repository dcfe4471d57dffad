"""Fixed-point indices of iterates, Dold indices, and hidden orbit counts.

For a germ in resonant polynomial normal form, the index of the q-th
iterate equals the zero order of the eigenvalue-stripped map projected to
the coordinates whose block order divides q; an empty projection means
the identity-minus-linear-part is invertible and the index is 1.  One
table, _iterate_indices, holds that rule: one validate_rnf call checks
the normal form and yields the stripped map, and every index that
fixed_point_index, the Dold indices and orbit_spectrum use is read from
it.  The direct route computes the same index as the zero order of
f^q - id by actual composition (exponential in q; jet determinacy lets
the composition be truncated adaptively).

Dold indices combine iterate indices by inclusion-exclusion over the
prime subsets of q; dividing by q yields the count of period-q orbits
concealed at the fixed point.  For every d in the period set, the masked
zero order also equals sum(q * count_q) over the divisors q of d in the
period set, a triangular system that solve_counts_triangular inverts
independently as a cross-check.  The per-period division route checks
each count at q >= 2 once more: on the q-mask, dividing the block-end
coordinates of the essential blocks by their lead variables leaves a map
whose zero order is q times the count at q.  Direct composition checks
q = 1, where it is just f - id, and is the fallback for a small q that
the division route does not cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .jordan import JordanSpec, period_mask, period_set
from .multiplicity import (DEFAULT_DEGREE_CAP, NotIsolatedWithinBound,
                           multiplicity)
from .polynomials import GermMap, TermBudgetExceeded
from .resonance import (divide_by_leads, find_essential_blocks,
                        lead_variable_shape_ok, project, validate_rnf)


# Direct composition is the cross-check's fallback for iterates q up to
# this bound, and gives up on a q (reporting it unchecked) once one
# product of its composition passes this many terms.
DIRECT_CHECK_MAX_Q = 6
DIRECT_CHECK_TERM_LIMIT = 2_000


class ConsistencyError(RuntimeError):
    """An identity the theory guarantees failed; indicates an engine bug."""


def prime_factors(q: int) -> list[int]:
    """Distinct prime factors by trial division (q here divides a small
    matrix order)."""
    out = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            out.append(p)
            while q % p == 0:
                q //= p
        p += 1
    if q > 1:
        out.append(q)
    return out


def direct_iterate_index(f: GermMap, q: int, degree_cap: int = DEFAULT_DEGREE_CAP,
                         hint: int | None = None) -> int:
    """Zero order of f^q - id by explicit composition.

    The composition is truncated at a degree D and retried with doubled D
    until the computed order is < D; a germ whose low jet matches f^q - id
    up to its own order has the same order, so the result is exact.  A
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
        except NotIsolatedWithinBound as exc:
            if exc.definite:
                raise
            trunc *= 2
            continue
        if value < trunc:
            return value
        trunc *= 2
    raise NotIsolatedWithinBound(
        trunc // 2,
        witness=f"direct composition route did not certify an order below "
                f"its truncation budget for q={q}")


def _iterate_indices(spec: JordanSpec, f: GermMap, degree_cap: int
                     ) -> tuple[GermMap, Callable[[int], int]]:
    """The stripped map and the q -> index table of a germ in resonant
    polynomial normal form.

    One validate_rnf call checks the normal form and strips the
    eigenvalues; each index is the zero order of the stripped map
    projected to the q-mask, cached on the mask bits (the only thing the
    value depends on).
    """
    verdict = validate_rnf(spec, f)
    if not verdict.ok:
        raise ValueError(f"normal form required: {verdict.describe()}")
    cache: dict[int, int] = {}

    def index(q: int) -> int:
        mask = period_mask(spec, q)
        if mask.bits not in cache:
            cache[mask.bits] = 1 if mask.is_zero() else multiplicity(
                project(verdict.stripped, mask), degree_cap).value
        return cache[mask.bits]

    return verdict.stripped, index


def fixed_point_index(spec: JordanSpec, f: GermMap, q: int,
                      degree_cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Index of the q-th iterate at the origin; f must be in resonant
    polynomial normal form (direct_iterate_index needs no normal form)."""
    if q < 1:
        raise ValueError("iterate exponent must be >= 1")
    return _iterate_indices(spec, f, degree_cap)[1](q)


def _dold(index: Callable[[int], int], q: int, seen: dict[int, int]) -> int:
    """Inclusion-exclusion of iterate indices over the prime subsets of q;
    every index read is recorded in seen."""
    total = 0
    primes = prime_factors(q)
    for subset in range(1 << len(primes)):
        chosen = [p for i, p in enumerate(primes) if subset >> i & 1]
        d = q // math.prod(chosen)
        seen[d] = index(d)
        total += (-1) ** len(chosen) * seen[d]
    return total


def solve_counts_triangular(spec: JordanSpec, mask_orders: dict[int, int]) -> dict[int, int]:
    """Recover the orbit counts from masked zero orders.

    mask_orders maps each d in the period set (plus 1 when 1 is a period)
    to the zero order of the d-masked stripped map; for 1 outside the
    period set the order defaults to 1.  Solved in divisor order; a
    non-integer or negative count means the input table is inconsistent.
    """
    pe = period_set(spec)
    qs = sorted(pe | {1})
    counts: dict[int, int] = {}
    for q in qs:
        if q in mask_orders:
            pi_q = mask_orders[q]
        elif q == 1 and 1 not in pe:
            pi_q = 1
        else:
            raise ValueError(f"missing masked order for d={q}")
        acc = pi_q - sum(p * counts[p] for p in qs if p < q and q % p == 0)
        if acc % q or acc < 0:
            raise ValueError(
                f"inconsistent masked orders: count for q={q} would be {acc}/{q}")
        counts[q] = acc // q
    return counts


def _division_order(spec: JordanSpec, stripped: GermMap, q: int,
                    degree_cap: int) -> int | str:
    """q times the count at q by the per-period division route, or why
    the route does not apply: "no witness", "shape", "divisibility" or
    "not isolated".

    stripped is the eigenvalue-stripped map of a germ in normal form; q
    is in the period set, so the blocks whose order divides q have lcm q.
    """
    sub = JordanSpec(tuple(b for b in spec.blocks if q % b.order == 0))
    witness = find_essential_blocks(sub)
    if witness is None:
        return "no witness"
    masked = project(stripped, period_mask(spec, q))
    if not lead_variable_shape_ok(sub, masked):
        return "shape"
    try:
        divided = divide_by_leads(sub, masked, witness)
    except ValueError:
        return "divisibility"
    try:
        return multiplicity(divided, degree_cap).value
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
    stripped, index = _iterate_indices(spec, f, degree_cap)
    pe = sorted(period_set(spec))
    qs = sorted(set(pe) | {1})
    mu: dict[int, int] = {}
    dold: dict[int, int] = {}
    counts: dict[int, int] = {}
    for q in qs:
        dold[q] = _dold(index, q, mu)
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
                order = _division_order(spec, stripped, q, degree_cap)
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
