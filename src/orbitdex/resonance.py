"""Resonance of monomials, normal-form validation, and the two coordinate
surgeries the index computations run on.

For a Jordan matrix with eigenvalues zeta_M^rho(j) per coordinate, a
monomial x^e of degree >= 2 aimed at coordinate s is resonant when
sum_j e_j rho(j) == rho(s) mod M.  A germ is in resonant polynomial
normal form when its linear part is exactly the matrix and every
nonlinear term is resonant.

strip_eigenvalues removes the diagonal eigenvalue part of the linear
term (keeping superdiagonal ones and all nonlinear terms); project cuts
a map down to a coordinate subspace; divide_by_leads divides designated
block-end coordinates by their block's lead variable, which is what
turns full-period orbit counts into a single multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .jordan import CoordMask, JordanSpec, global_order
from .polynomials import GermMap, Poly, monomial_factors


@dataclass(frozen=True)
class ResonanceContext:
    """Per-coordinate residues rho(j) with eigenvalue_j = zeta_M^rho(j)."""

    spec: JordanSpec
    modulus: int
    residues: tuple[int, ...]

    @staticmethod
    def of(spec: JordanSpec) -> ResonanceContext:
        m = global_order(spec)
        residues = []
        for b in spec.blocks:
            residues.extend([(b.power * (m // b.order)) % m] * b.size)
        return ResonanceContext(spec, m, tuple(residues))


def is_resonant_monomial(ctx: ResonanceContext, exponents, target: int) -> bool:
    """Whether x^exponents (total degree >= 2) is resonant toward the
    0-based coordinate target."""
    exponents = tuple(exponents)
    if sum(exponents) < 2:
        raise ValueError("resonance is defined for monomials of degree >= 2")
    if len(exponents) != ctx.spec.n:
        raise ValueError("exponent tuple has the wrong length")
    total = sum(e * r for e, r in zip(exponents, ctx.residues)) % ctx.modulus
    return total == ctx.residues[target] % ctx.modulus


@dataclass(frozen=True)
class NormalFormVerdict:
    ok: bool
    linear_mismatch: tuple[tuple[int, int], ...] = ()
    nonresonant: tuple[tuple[int, tuple[int, ...]], ...] = ()

    def describe(self) -> str:
        if self.ok:
            return "resonant polynomial normal form"
        lines = []
        for i, j in self.linear_mismatch:
            lines.append(f"linear part entry ({i + 1},{j + 1}) differs from the matrix")
        for coord, mono in self.nonresonant:
            lines.append(f"non-resonant term {'*'.join(monomial_factors(mono))} "
                         f"in coordinate {coord + 1}")
        return "; ".join(lines)


def validate_rnf(spec: JordanSpec, f: GermMap) -> NormalFormVerdict:
    """Linear part must equal the Jordan matrix exactly; every nonlinear
    term must be resonant."""
    if f.nvars != spec.n:
        raise ValueError(
            f"map has {f.nvars} variables but the matrix is {spec.n} x {spec.n}"
        )
    m = global_order(spec)
    f = f.embed(math.lcm(f.modulus, m))
    matrix = spec.matrix(f.modulus)
    got = f.linear_part()
    linear_bad = []
    for i in range(spec.n):
        for j in range(spec.n):
            if got[i][j] != matrix[i][j]:
                linear_bad.append((i, j))
    ctx = ResonanceContext.of(spec)
    nonres = []
    for coord, p in enumerate(f.coords):
        for mono in sorted(p.terms):
            if sum(mono) >= 2 and not is_resonant_monomial(ctx, mono, coord):
                nonres.append((coord, mono))
    return NormalFormVerdict(
        ok=not linear_bad and not nonres,
        linear_mismatch=tuple(linear_bad),
        nonresonant=tuple(nonres),
    )


def strip_eigenvalues(spec: JordanSpec, f: GermMap) -> GermMap:
    """Subtract the diagonal eigenvalue part of the linear term, keeping
    superdiagonal ones and all nonlinear terms.  The linear part of f
    must equal the matrix exactly."""
    m = global_order(spec)
    f = f.embed(math.lcm(f.modulus, m))
    matrix = spec.matrix(f.modulus)
    got = f.linear_part()
    if got != matrix:
        raise ValueError("the linear part of the map is not the given matrix")
    coords = []
    for j, p in enumerate(f.coords):
        lam = matrix[j][j]
        coords.append(p - Poly.variable(j, f.nvars, f.modulus) * lam)
    return GermMap(coords, nvars=f.nvars, modulus=f.modulus)


def project(g: GermMap, mask: CoordMask) -> GermMap:
    """Set the masked-out variables to zero and keep the selected
    coordinates, renumbering variables in increasing order.  An all-zero
    mask yields the empty (0-variable) germ."""
    if len(mask.bits) != g.nvars:
        raise ValueError("mask length must equal the number of variables")
    keep = mask.support()
    coords = [g.coords[j].restrict_vars(keep) for j in keep]
    return GermMap(coords, nvars=len(keep), modulus=g.modulus)


def find_essential_blocks(spec: JordanSpec) -> tuple[int, ...] | None:
    """The block indices whose order fails to divide the lcm of all the
    *other* block orders, when their orders have lcm equal to the global
    order; None otherwise.

    That property belongs to each block alone, and a selection whose lcm
    is the global order must contain every such block, so this set is
    the only selection of essential blocks that can qualify.
    """
    orders = spec.orders()
    essential = []
    for j, d in enumerate(orders):
        rest = math.lcm(*orders[:j], *orders[j + 1:])
        if rest % d:
            essential.append(j)
    reached = math.lcm(*(orders[j] for j in essential))
    if not essential or reached != global_order(spec):
        return None
    return tuple(essential)


def lead_variable_shape_ok(spec: JordanSpec, stripped: GermMap) -> bool:
    """Whether every term of every block-end coordinate of the stripped
    map uses only block lead variables."""
    leads = {spec.lead_coord(j) for j in range(spec.m)}
    for j in range(spec.m):
        p = stripped.coords[spec.block_end(j)]
        for mono in p.terms:
            if any(e and k not in leads for k, e in enumerate(mono)):
                return False
    return True


def divide_by_leads(spec: JordanSpec, stripped: GermMap,
                    witness: tuple[int, ...]) -> GermMap:
    """Divide the block-end coordinate of each witness block by that
    block's lead variable; other coordinates are kept.

    The input is the eigenvalue-stripped map of a germ in resonant normal
    form whose block-end coordinates use only lead variables (checked).
    """
    if stripped.nvars != spec.n:
        raise ValueError("map and matrix sizes differ")
    if not witness:
        raise ValueError("empty witness")
    if not lead_variable_shape_ok(spec, stripped):
        raise ValueError(
            "block-end coordinates must use only block lead variables; "
            "rewrite the map into that shape first"
        )
    coords = list(stripped.coords)
    n = spec.n
    for j in witness:
        end = spec.block_end(j)
        lead = spec.lead_coord(j)
        mono = tuple(1 if k == lead else 0 for k in range(n))
        p = coords[end]
        try:
            coords[end] = p.divide_monomial(mono)
        except ValueError:
            raise ValueError(
                f"coordinate {end + 1} is not divisible by its lead "
                f"variable x{lead + 1}"
            ) from None
    return GermMap(coords, nvars=n, modulus=stripped.modulus)
