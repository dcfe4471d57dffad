"""Universality of Jordan matrices, and germs realizing admissible counts.

A matrix is universal when every admissible orbit-count sequence is the
hidden-orbit spectrum of some germ with that linear part.  The decision:
either (1) the blocks reorder into a strict divisibility chain of orders
with compatible eigenvalue powers, or (2) one block of order >= 2 and
coprime to all the others can be split off while the rest form such a
chain.  Realization is constructive: two explicit germ families (a chain
family and a chain-plus-coprime-tail family) hit any admissible targets,
and every constructed germ is re-verified by actually computing its
spectrum before it is returned.

residue_search is the simultaneous-residue minimization used to obstruct
universality elsewhere: over k, minimize the product of the canonical
representatives of k*r_j mod a_j; the minimum never exceeds
prod(a_j)/lcm(a_j), strictly so iff the a_j are not pairwise coprime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .germfile import GermDocument
from .jordan import (MAX_MODULUS, JordanSpec, SequenceTarget, global_order,
                     is_admissible, period_set)
from .multiplicity import DEFAULT_DEGREE_CAP
from .orbits import ConsistencyError, orbit_spectrum
from .polynomials import GermMap, Poly
from .resonance import validate_rnf


def chain_check(blocks) -> bool:
    """Strict divisibility chain of orders with compatible eigenvalues:
    d_j | d_{j+1}, d_j != d_{j+1}, and r_j == r_{j+1} (mod d_j) for every
    consecutive pair (the power congruence says the later eigenvalue
    raised to d_{j+1}/d_j equals the earlier one)."""
    blocks = list(blocks)
    for a, b in zip(blocks, blocks[1:]):
        if b.order % a.order != 0 or a.order == b.order:
            return False
        if (b.power - a.power) % a.order != 0:
            return False
    return True


@dataclass(frozen=True)
class UniversalityVerdict:
    universal: bool
    mode: str  # "chain" | "chain-plus-coprime-block" | "none"
    ordering: tuple[int, ...] | None = None
    failure_reason: str | None = None

    def __bool__(self):
        return self.universal


def _chain_ordering(indices, blocks) -> tuple[int, ...] | None:
    """The only candidate chain ordering is ascending by order (strict
    divisibility forbids repeats); returns it when it passes."""
    orders = [blocks[i].order for i in indices]
    if len(set(orders)) != len(orders):
        return None
    perm = tuple(sorted(indices, key=lambda i: blocks[i].order))
    if chain_check([blocks[i] for i in perm]):
        return perm
    return None


def is_universal(spec: JordanSpec) -> UniversalityVerdict:
    blocks = spec.blocks
    m = len(blocks)
    perm = _chain_ordering(range(m), blocks)
    if perm is not None:
        return UniversalityVerdict(True, "chain", perm)
    for tail in range(m):
        b = blocks[tail]
        if b.order < 2:
            continue
        rest = [i for i in range(m) if i != tail]
        if not rest:
            continue
        rest_lcm = reduce(math.lcm, (blocks[i].order for i in rest))
        if math.gcd(rest_lcm, b.order) != 1:
            continue
        perm = _chain_ordering(rest, blocks)
        if perm is not None:
            return UniversalityVerdict(
                True, "chain-plus-coprime-block", perm + (tail,))
    return UniversalityVerdict(
        False, "none", None,
        "no reordering of the blocks forms a strict divisibility chain of "
        "orders with compatible eigenvalue powers, and no single block of "
        "order >= 2 coprime to all the others leaves such a chain behind")


# -- simultaneous residue minimization ---------------------------------------


@dataclass(frozen=True)
class ResidueWitness:
    k: int
    residues: tuple[int, ...]
    product: int
    bound: int  # prod(a_j) / lcm(a_j)


def residue_search(moduli, powers) -> ResidueWitness:
    """Brute-force k in 1..lcm(moduli), minimizing the product of the
    canonical residues k*r_j mod a_j (each forced into 1..a_j-1); k that
    hit a zero residue are skipped.  Ties keep the smallest k."""
    moduli = tuple(moduli)
    powers = tuple(powers)
    if len(moduli) != len(powers) or not moduli:
        raise ValueError("need matching nonempty moduli and powers")
    for a, r in zip(moduli, powers):
        if not 1 <= r < a:
            raise ValueError(f"power {r} must satisfy 1 <= r < {a}")
        if math.gcd(a, r) != 1:
            raise ValueError(f"gcd({r}, {a}) must be 1")
    total_lcm = reduce(math.lcm, moduli)
    product_all = 1
    for a in moduli:
        product_all *= a
    bound = product_all // total_lcm
    best = None
    for k in range(1, total_lcm + 1):
        residues = []
        product = 1
        for a, r in zip(moduli, powers):
            res = (k * r) % a
            if res == 0:
                product = None
                break
            residues.append(res)
            product *= res
        if product is None:
            continue
        if best is None or product < best[0]:
            best = (product, k, tuple(residues))
            if product == 1:
                break
    assert best is not None  # k = 1 is always admissible
    product, k, residues = best
    return ResidueWitness(k, residues, product, bound)


# -- germ families ------------------------------------------------------------


def _base_coords(spec: JordanSpec, modulus: int) -> list[Poly]:
    """Linear skeleton: eigenvalue diagonal plus in-block superdiagonal."""
    n = spec.n
    coords = []
    for j, b in enumerate(spec.blocks):
        lam = b.eigenvalue(modulus)
        for c in range(spec.offsets[j], spec.offsets[j + 1]):
            p = Poly.variable(c, n, modulus) * lam
            if c != spec.block_end(j):
                p = p + Poly.variable(c + 1, n, modulus)
            coords.append(p)
    return coords


def chain_germ(spec: JordanSpec, r) -> GermMap:
    """The chain-family germ: block t's end coordinate gains the term
    x1^(r_t * d_1) * (lead of block t) plus, below the top, the next
    block's lead raised to the order ratio.  Realizes count r_t at order
    d_t (with the usual +1 shift at order 1)."""
    r = list(r)
    if len(r) != spec.m:
        raise ValueError("one parameter per block required")
    if any(v < 1 for v in r):
        raise ValueError("parameters must be >= 1")
    if not chain_check(spec.blocks):
        raise ValueError("the blocks are not an eigenvalue-compatible chain")
    modulus = global_order(spec)
    n = spec.n
    coords = _base_coords(spec, modulus)
    d1 = spec.blocks[0].order
    u = Poly.variable(spec.lead_coord(0), n, modulus)
    for t in range(spec.m):
        end = spec.block_end(t)
        lead_t = Poly.variable(spec.lead_coord(t), n, modulus)
        extra = u ** (r[t] * d1) * lead_t
        if t + 1 < spec.m:
            ratio = spec.blocks[t + 1].order // spec.blocks[t].order
            extra = extra + Poly.variable(spec.lead_coord(t + 1), n, modulus) ** ratio
        coords[end] = coords[end] + extra
    return GermMap(coords, nvars=n, modulus=modulus)


def chain_coprime_germ(spec: JordanSpec, r, cross) -> GermMap:
    """The chain-plus-coprime-tail germ family.

    Blocks 0..m-2 form an eigenvalue-compatible chain and block m-1 has
    order > 1 coprime to the chain top.  Realizes count r_t at order d_t
    (with the +1 shift when d_1 = 1), and cross_t at order d_t * d_{m-1}
    for chain blocks t (cross_0 is unused when d_1 = 1).
    """
    m = spec.m
    r = list(r)
    cross = list(cross)
    if m < 2:
        raise ValueError("the coprime-tail family needs at least two blocks")
    if len(r) != m or len(cross) != m - 1:
        raise ValueError("expected m count parameters and m-1 cross parameters")
    if not chain_check(spec.blocks[:-1]):
        raise ValueError("the leading blocks are not a compatible chain")
    d = list(spec.orders())
    if d[-1] < 2 or math.gcd(d[-2], d[-1]) != 1:
        raise ValueError("the tail block must have order >= 2 coprime to the chain")
    modulus = global_order(spec)
    n = spec.n
    coords = _base_coords(spec, modulus)
    u = Poly.variable(spec.lead_coord(0), n, modulus)
    v = Poly.variable(spec.lead_coord(m - 1), n, modulus)
    d1, dm = d[0], d[m - 1]
    rm = r[m - 1]

    def chain_term(t: int) -> Poly:
        ratio = d[t + 1] // d[t]
        return Poly.variable(spec.lead_coord(t + 1), n, modulus) ** ratio

    if d1 > 1:
        first = u ** (r[0] * d1 + 1) - u * v ** (rm * r[0] * dm) \
            + u * v ** (cross[0] * dm)
        if m >= 3:
            first = first + chain_term(0)
        coords[spec.block_end(0)] += first
        for t in range(1, m - 1):
            lead_t = Poly.variable(spec.lead_coord(t), n, modulus)
            bracket = u ** (r[t] * d1) \
                - v ** (rm * dm) * u ** ((r[t] - 1) * d1) \
                + v ** (cross[t] * dm)
            extra = lead_t * bracket
            if t + 1 < m - 1:
                extra = extra + chain_term(t)
            coords[spec.block_end(t)] += extra
        coords[spec.block_end(m - 1)] += v * (u ** d1 - v ** (rm * dm))
    else:
        first = u ** (r[0] + 1) + v ** (rm * dm)
        if m >= 3:
            first = first + chain_term(0)
        coords[spec.block_end(0)] += first
        for t in range(1, m - 1):
            lead_t = Poly.variable(spec.lead_coord(t), n, modulus)
            bracket = u ** r[t] + v ** (cross[t] * dm)
            extra = lead_t * bracket
            if t + 1 < m - 1:
                extra = extra + chain_term(t)
            coords[spec.block_end(t)] += extra
        coords[spec.block_end(m - 1)] += v * u
    return GermMap(coords, nvars=n, modulus=modulus)


def unit_spectrum_germ(spec: JordanSpec) -> GermMap:
    """The minimal germ on a chain matrix: one hidden orbit at every
    linear period (two fixed-point orbits when 1 is a period)."""
    return chain_germ(spec, [1] * spec.m)


# -- realization ---------------------------------------------------------------


def normalized_target(spec: JordanSpec, target: SequenceTarget) -> dict[int, int]:
    """The full assignment over the period set plus 1, implicit entries
    filled in."""
    values = target.as_dict()
    pe = period_set(spec)
    out = {}
    for q in sorted(pe | {1}):
        out[q] = values.get(q, 1 if q == 1 else 0)
    return out


def _permute_germ(ordered: GermMap, spec: JordanSpec,
                  ordered_spec: JordanSpec, ordering) -> GermMap:
    """Conjugate a germ built on reordered blocks back to the original
    block order (a coordinate permutation)."""
    n = spec.n
    perm = [0] * n  # original coordinate -> ordered coordinate
    for new_pos, old_block in enumerate(ordering):
        old_base = spec.offsets[old_block]
        new_base = ordered_spec.offsets[new_pos]
        for off in range(spec.blocks[old_block].size):
            perm[old_base + off] = new_base + off
    inv = [0] * n
    for orig, new in enumerate(perm):
        inv[new] = orig
    coords = [ordered.coords[perm[c]].rename_vars(inv, n) for c in range(n)]
    return GermMap(coords, nvars=n, modulus=ordered.modulus)


def realize(spec: JordanSpec, target: SequenceTarget,
            degree_cap: int | None = None) -> GermDocument:
    """Construct a germ with the given linear part whose hidden-orbit
    counts equal the target, verifying the spectrum before returning.

    The matrix must be universal and the target admissible.
    """
    modulus = global_order(spec)
    if modulus > MAX_MODULUS:
        raise ValueError(f"matrix order {modulus} exceeds the supported "
                         f"bound {MAX_MODULUS}")
    admissible = is_admissible(spec, target)
    if not admissible:
        raise ValueError(f"target is not admissible: {admissible.reason}")
    verdict = is_universal(spec)
    if not verdict.universal:
        raise ValueError(f"matrix is not universal: {verdict.failure_reason}")
    ordering = verdict.ordering
    ordered_spec = JordanSpec(tuple(spec.blocks[i] for i in ordering))
    want = normalized_target(spec, target)
    d = list(ordered_spec.orders())

    def count_param(t: int) -> int:
        if t == 0 and d[0] == 1:
            return want[1] - 1
        return want[d[t]]

    if verdict.mode == "chain":
        params = [count_param(t) for t in range(ordered_spec.m)]
        germ = chain_germ(ordered_spec, params)
    else:
        m = ordered_spec.m
        params = [count_param(t) for t in range(m)]
        cross = []
        for t in range(m - 1):
            if t == 0 and d[0] == 1:
                cross.append(1)  # unused by the d1 = 1 family
            else:
                cross.append(want[d[t] * d[m - 1]])
        germ = chain_coprime_germ(ordered_spec, params, cross)
    germ = _permute_germ(germ, spec, ordered_spec, ordering)

    check = validate_rnf(spec, germ)
    if not check.ok:
        raise ConsistencyError(
            f"constructed germ is not in normal form: {check.describe()}; "
            f"germ = {germ!r}")
    if degree_cap is None:
        degree_cap = max(DEFAULT_DEGREE_CAP,
                         sum(q * a for q, a in want.items()) + 4)
    spectrum = orbit_spectrum(spec, germ, cross_check=False,
                              degree_cap=degree_cap)
    if spectrum.counts != want:
        raise ConsistencyError(
            f"constructed germ realizes {spectrum.counts}, wanted {want}; "
            f"germ = {germ!r}")
    return GermDocument(spec, germ)
