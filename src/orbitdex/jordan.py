"""Jordan matrices with root-of-unity eigenvalues, as combinatorial data.

A block is (size k, order d, power r) and carries the eigenvalue
e^(2 pi i r/d) with gcd(r, d) = 1.  Everything downstream consumes the
block list: coordinate offsets, the block index of each coordinate, the
set of periods of nonzero periodic points of x -> Ax, the global order
M = lcm(d_j), and the period part of each q: the blocks whose order
divides q, whose coordinates are the fixed subspace of A^q's diagonal
part.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import reduce

from .cyclotomic import CyclotomicNumber, root_of_unity

MAX_EXPONENT = 10**6  # sanity bound on exponents accepted from inputs
# Bound on the matrix order M = lcm(block orders): arithmetic in Q(zeta_M)
# builds phi(M) reduction rows of phi(M) coefficients each, and a product
# takes about phi(M)^2 integer multiplications.  Nothing in the
# multiplicity computation inverts a coefficient (CyclotomicNumber.invert
# would take phi(M) - 1 products): the quotient engine eliminates by
# cross-multiplication and the linear elimination scales by powers of
# the coefficient it solves for.
MAX_MODULUS = 2048
# Bound on the dimension n = sum of block sizes: every monomial is an
# n-tuple and a germ has about n terms, so the work of one command grows
# like n^2; at the bound, realize on one block takes about 2 s.
MAX_DIMENSION = 2048


class GermParseError(ValueError):
    """A refusal of .germ text or of an inline matrix, at a 1-based line
    and column of the text."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass(frozen=True)
class JordanBlock:
    size: int
    order: int
    power: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"block size must be >= 1, got {self.size}")
        if self.order < 1:
            raise ValueError(
                f"block order must be >= 1 (eigenvalues must be roots of "
                f"unity), got {self.order}"
            )
        if not 1 <= self.power <= self.order:
            raise ValueError(
                f"block power must satisfy 1 <= r <= {self.order}, got {self.power}"
            )
        if math.gcd(self.power, self.order) != 1:
            raise ValueError(
                f"gcd(power, order) must be 1 for a primitive root; "
                f"got ({self.power}, {self.order})"
            )

    def eigenvalue(self, modulus: int) -> CyclotomicNumber:
        return root_of_unity(self.order, self.power, modulus)


@dataclass(frozen=True)
class JordanSpec:
    blocks: tuple[JordanBlock, ...]
    offsets: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("a Jordan matrix needs at least one block")
        object.__setattr__(self, "blocks", blocks)
        offs = [0]
        for b in blocks:
            offs.append(offs[-1] + b.size)
        object.__setattr__(self, "offsets", tuple(offs))

    @property
    def n(self) -> int:
        return self.offsets[-1]

    @property
    def m(self) -> int:
        return len(self.blocks)

    def block_of(self, coord: int) -> int:
        """Block index (0-based) containing 0-based coordinate coord."""
        if not 0 <= coord < self.n:
            raise ValueError(f"coordinate {coord} out of range")
        for j in range(self.m):
            if coord < self.offsets[j + 1]:
                return j
        raise AssertionError

    def block_end(self, j: int) -> int:
        """0-based index of the last coordinate of block j."""
        return self.offsets[j + 1] - 1

    def lead_coord(self, j: int) -> int:
        """0-based index of the first coordinate of block j."""
        return self.offsets[j]

    def orders(self) -> tuple[int, ...]:
        return tuple(b.order for b in self.blocks)


def period_set(spec: JordanSpec) -> set[int]:
    """All periods of nonzero periodic points of the linear map: the lcms
    of the orders over nonempty block subsets.  Built one order at a time
    as a closure under lcm, so the work grows with the block count times
    the number of periods, not with the 2^m subsets."""
    out: set[int] = set()
    for d in spec.orders():
        out |= {math.lcm(p, d) for p in out} | {d}
    return out


def global_order(spec: JordanSpec) -> int:
    """lcm of all block orders (the order of the diagonal part)."""
    return reduce(math.lcm, spec.orders())


def bounded_order(spec: JordanSpec) -> int:
    """The global order, refused (ValueError) above MAX_MODULUS."""
    modulus = global_order(spec)
    if modulus > MAX_MODULUS:
        raise ValueError(f"matrix order {modulus} exceeds the supported "
                         f"bound {MAX_MODULUS}")
    return modulus


def period_blocks(spec: JordanSpec, q: int) -> tuple[int, ...]:
    """The period part of q: the indices of the blocks whose order
    divides q.  The only place that decides it."""
    if q < 1:
        raise ValueError("period must be positive")
    return tuple(j for j, b in enumerate(spec.blocks) if q % b.order == 0)


@dataclass(frozen=True)
class SequenceTarget:
    """A finite orbit-count assignment q -> a_q; unlisted entries are
    implicit (0 away from the period set, forced values at q = 1)."""

    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries):
        pairs = tuple(sorted(dict(entries).items()))
        if any(q < 1 for q, _ in pairs):
            raise ValueError("sequence indices must be positive")
        if any(a < 0 for _, a in pairs):
            raise ValueError("sequence values must be non-negative")
        object.__setattr__(self, "entries", pairs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    @staticmethod
    def parse(text: str) -> SequenceTarget:
        """Parse "1:1,2:2,6:3" into a target; a repeated q is refused."""
        entries = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = re.fullmatch(r"(\d+)\s*:\s*(\d+)", chunk)
            if not m:
                raise ValueError(f"bad sequence entry {chunk!r}; expected q:count")
            q = int(m.group(1))
            if q in entries:
                raise ValueError(f"sequence index {q} is given twice")
            entries[q] = int(m.group(2))
        return SequenceTarget(entries)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    ok: bool
    reason: str | None = None


def is_admissible(spec: JordanSpec, target: SequenceTarget) -> AdmissibilityVerdict:
    """Check the forced pattern: a_1 >= 2 iff 1 is a linear period (else
    a_1 = 1), a_q >= 1 on the period set, a_q = 0 off it."""
    pe = period_set(spec)
    values = target.as_dict()
    a1 = values.get(1, 1)
    if 1 in pe:
        if a1 < 2:
            return AdmissibilityVerdict(
                False, f"a[1] = {a1}, but 1 is a period of the linear part, "
                       f"which forces a[1] >= 2")
    elif a1 != 1:
        return AdmissibilityVerdict(
            False, f"a[1] = {a1}, but 1 is not a period of the linear part, "
                   f"which forces a[1] = 1")
    for q in sorted(pe):
        if q == 1:
            continue
        if values.get(q, 0) < 1:
            return AdmissibilityVerdict(
                False, f"a[{q}] = {values.get(q, 0)}, but {q} is a period of "
                       f"the linear part, which forces a[{q}] >= 1")
    for q, a in sorted(values.items()):
        if q != 1 and q not in pe and a != 0:
            return AdmissibilityVerdict(
                False, f"a[{q}] = {a}, but {q} is not a period of the linear "
                       f"part, which forces a[{q}] = 0")
    return AdmissibilityVerdict(True)


_INLINE_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_inline_matrix(text: str) -> JordanSpec:
    """Parse the inline syntax "[(k,d,r);(k,d,r);...]".  A total size above
    MAX_DIMENSION is a GermParseError at the block that crosses it."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ValueError(f"inline matrix must be bracketed: {text!r}")
    blocks = []
    n = 0
    offset = text.index("[") + 1  # of the current part in text
    for part in text[offset:text.rindex("]")].split(";"):
        block = part.strip()
        if block:
            m = _INLINE_RE.fullmatch(block)
            if not m:
                raise ValueError(
                    f"bad block {block!r}; expected (size,order,power)")
            k, d, r = (int(g) for g in m.groups())
            blocks.append(JordanBlock(k, d, r))
            n += k
            if n > MAX_DIMENSION:
                col = offset + len(part) - len(part.lstrip()) + 1
                raise GermParseError(
                    f"matrix dimension {n} exceeds the supported bound "
                    f"{MAX_DIMENSION}", 1, col)
        offset += len(part) + 1
    if not blocks:
        raise ValueError("inline matrix has no blocks")
    return JordanSpec(tuple(blocks))

