"""Fixed-point indices of iterates, Dold indices, and hidden orbit counts.

For a germ in resonant polynomial normal form, the index of the q-th
iterate equals the zero order of the eigenvalue-stripped map projected to
the coordinates whose block order divides q; an empty projection means
the identity-minus-linear-part is invertible and the index is 1.  The
direct route computes the same index as the zero order of f^q - id by
actual composition (exponential in q, kept for cross-checks: jet
determinacy lets the composition be truncated adaptively).

Dold indices combine iterate indices by inclusion-exclusion over the
prime subsets of q; dividing by q yields the count of period-q orbits
concealed at the fixed point.  For every d in the period set, the masked
zero order also equals sum(q * count_q) over the divisors q of d in the
period set, a triangular system that solve_counts_triangular inverts
independently as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .jordan import JordanSpec, period_mask, period_set
from .multiplicity import (DEFAULT_DEGREE_CAP, NotIsolatedWithinBound,
                           multiplicity)
from .polynomials import GermMap
from .resonance import project, strip_eigenvalues, validate_rnf


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


def _mask_index(spec: JordanSpec, stripped: GermMap, q: int,
                cache: dict, degree_cap: int) -> int:
    """Index of the q-th iterate via the masked projection; cached on the
    mask bits (the only thing the value depends on)."""
    mask = period_mask(spec, q)
    got = cache.get(mask.bits)
    if got is None:
        if mask.is_zero():
            got = 1
        else:
            got = multiplicity(project(stripped, mask), degree_cap).value
        cache[mask.bits] = got
    return got


def direct_iterate_index(f: GermMap, q: int, degree_cap: int = DEFAULT_DEGREE_CAP,
                         hint: int | None = None) -> int:
    """Zero order of f^q - id by explicit composition.

    The composition is truncated at a degree D and retried with doubled D
    until the computed order is < D; a germ whose low jet matches f^q - id
    up to its own order has the same order, so the result is exact.
    """
    start = max(4, hint + 2 if hint is not None else 8)
    trunc = start
    while trunc <= max(degree_cap * 4, start):
        g = f.iterate(q, trunc=trunc)
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


def fixed_point_index(spec: JordanSpec, f: GermMap, q: int,
                      route: str = "projection",
                      degree_cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Index of the q-th iterate at the origin.

    route="projection" requires resonant polynomial normal form;
    route="direct" composes f with itself q times (cross-check oracle).
    """
    if q < 1:
        raise ValueError("iterate exponent must be >= 1")
    if route == "direct":
        return direct_iterate_index(f, q, degree_cap)
    if route != "projection":
        raise ValueError(f"unknown route {route!r}")
    verdict = validate_rnf(spec, f)
    if not verdict.ok:
        raise ValueError(
            f"projection route requires resonant polynomial normal form: "
            f"{verdict.describe()}")
    stripped = strip_eigenvalues(spec, f)
    return _mask_index(spec, stripped, q, {}, degree_cap)


def _dold_from_mask_indices(spec: JordanSpec, stripped: GermMap, q: int,
                            cache: dict, degree_cap: int,
                            audit: dict[int, int] | None = None) -> int:
    total = 0
    primes = prime_factors(q)
    for subset in range(1 << len(primes)):
        quotient = q
        bits = 0
        for i, p in enumerate(primes):
            if subset >> i & 1:
                quotient //= p
                bits += 1
        mu = _mask_index(spec, stripped, quotient, cache, degree_cap)
        if audit is not None:
            audit[quotient] = mu
        total += (-1) ** bits * mu
    return total


def dold_index(spec: JordanSpec, f: GermMap, q: int,
               degree_cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Inclusion-exclusion of iterate indices over prime subsets of q."""
    verdict = validate_rnf(spec, f)
    if not verdict.ok:
        raise ValueError(
            f"normal form required: {verdict.describe()}")
    stripped = strip_eigenvalues(spec, f)
    return _dold_from_mask_indices(spec, stripped, q, {}, degree_cap)


def hidden_orbit_count(spec: JordanSpec, f: GermMap, q: int,
                       degree_cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Number of period-q orbits hidden at the origin: the q-th Dold
    index divided by q (divisibility is guaranteed and hard-checked)."""
    p_q = dold_index(spec, f, q, degree_cap)
    if p_q % q:
        raise ConsistencyError(
            f"Dold index {p_q} for q={q} is not divisible by q")
    return p_q // q


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


@dataclass(frozen=True)
class OrbitSpectrum:
    spec: JordanSpec
    pe: tuple[int, ...]
    mu: dict[int, int]          # q -> index of the q-th iterate
    dold: dict[int, int]        # q -> Dold index
    counts: dict[int, int]      # q -> hidden orbit count, q in PE + {1}
    route: dict[int, str] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)


def orbit_spectrum(spec: JordanSpec, f: GermMap, cross_check: bool = True,
                   direct_cap: int = 6,
                   degree_cap: int = DEFAULT_DEGREE_CAP) -> OrbitSpectrum:
    """All hidden orbit counts over the period set, with optional
    cross-checks (triangular identity; direct-composition route for small
    iterates)."""
    verdict = validate_rnf(spec, f)
    if not verdict.ok:
        raise ValueError(f"normal form required: {verdict.describe()}")
    stripped = strip_eigenvalues(spec, f)
    pe = sorted(period_set(spec))
    qs = sorted(set(pe) | {1})
    cache: dict = {}
    mu: dict[int, int] = {}
    dold: dict[int, int] = {}
    counts: dict[int, int] = {}
    route: dict[int, str] = {}
    for q in qs:
        mu[q] = _mask_index(spec, stripped, q, cache, degree_cap)
        dold[q] = _dold_from_mask_indices(spec, stripped, q, cache,
                                          degree_cap, audit=mu)
        if dold[q] % q:
            raise ConsistencyError(
                f"Dold index {dold[q]} for q={q} is not divisible by q")
        counts[q] = dold[q] // q
        route[q] = "projection"
    checks: dict[str, bool] = {}
    if cross_check:
        triangular = solve_counts_triangular(
            spec, {d: mu[d] for d in qs})
        if triangular != counts:
            raise ConsistencyError(
                f"triangular solve disagrees with inclusion-exclusion: "
                f"{triangular} vs {counts}")
        checks["f37"] = True
        for q in qs:
            if q > direct_cap:
                continue
            direct = direct_iterate_index(f, q, degree_cap, hint=mu[q])
            if direct != mu[q]:
                raise ConsistencyError(
                    f"direct route gives {direct} for q={q}, projection "
                    f"gives {mu[q]}")
            route[q] = "both-agree"
        checks["direct"] = True
    return OrbitSpectrum(spec, tuple(pe), mu, dold, counts, route, checks)
