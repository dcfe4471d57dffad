"""Resonance of monomials, normal-form validation, and the one coordinate
surgery the index computations run on.

For a Jordan matrix with eigenvalues zeta_M^rho(j) per coordinate, a
monomial x^e of degree >= 2 aimed at coordinate s is resonant when
sum_j e_j rho(j) == rho(s) mod M.  A germ is in resonant polynomial
normal form when its linear part is exactly the matrix and every
nonlinear term is resonant.

validate_rnf decides the normal form and yields the eigenvalue-stripped
map (f without its diagonal terms lambda_j x_j); project cuts a map down
to the coordinates it is given (in the index routes, those of the period
part of q).  The division route's own surgery, dividing block-end
coordinates by their lead variables, lives in orbits._division_order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cyclotomic import CyclotomicNumber
from .jordan import JordanSpec, global_order
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
    # None when the linear part differs from the matrix
    stripped: GermMap | None = field(default=None, compare=False, repr=False)

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
    """Linear part must equal the Jordan matrix exactly (the block
    eigenvalue on the diagonal, 1 on the in-block superdiagonal, nothing
    else); every nonlinear term must be resonant.  One walk over each
    coordinate's terms checks both and keeps all but the diagonal term
    for the stripped map."""
    if f.nvars != spec.n:
        raise ValueError(f"map has {f.nvars} variables but the matrix is "
                         f"{spec.n} x {spec.n}")
    f = f.embed(math.lcm(f.modulus, global_order(spec)))
    ctx = ResonanceContext.of(spec)
    one = CyclotomicNumber.one(f.modulus)
    linear_bad, nonres, coords = [], [], []
    for b, start, stop in zip(spec.blocks, spec.offsets, spec.offsets[1:]):
        lam = b.eigenvalue(f.modulus)
        for coord in range(start, stop):
            want = {coord: lam}
            if coord + 1 < stop:
                want[coord + 1] = one
            got, bad, kept = {}, [], {}
            for mono, c in f.coords[coord].terms.items():
                if sum(mono) == 1:
                    got[mono.index(1)] = c
                    if mono[coord]:
                        continue
                elif not is_resonant_monomial(ctx, mono, coord):
                    bad.append(mono)
                kept[mono] = c
            linear_bad.extend((coord, var) for var in sorted(want | got)
                              if got.get(var) != want.get(var))
            nonres.extend((coord, mono) for mono in sorted(bad))
            coords.append(Poly(f.nvars, f.modulus)._wrap(kept))
    return NormalFormVerdict(
        ok=not linear_bad and not nonres,
        linear_mismatch=tuple(linear_bad),
        nonresonant=tuple(nonres),
        stripped=None if linear_bad else GermMap(coords, nvars=f.nvars,
                                                 modulus=f.modulus),
    )


def project(g: GermMap, keep: list[int]) -> GermMap:
    """Set every variable outside keep (increasing 0-based indices) to
    zero and keep the coordinates in keep, renumbering variables in
    increasing order.  An empty keep yields the empty (0-variable) germ."""
    coords = [g.coords[j].restrict_vars(keep) for j in keep]
    return GermMap(coords, nvars=len(keep), modulus=g.modulus)
