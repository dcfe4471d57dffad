"""Jordan matrices with root-of-unity eigenvalues, as combinatorial data.

A block is (size k, order d, power r) and carries the eigenvalue
e^(2 pi i r/d) with gcd(r, d) = 1.  Everything downstream consumes the
block list: coordinate offsets, the block index of each coordinate, the
set of periods of nonzero periodic points of x -> Ax, the global order
M = lcm(d_j), and the 0/1 coordinate masks that select the coordinates
whose block order divides a given q.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import reduce

from .cyclotomic import CyclotomicNumber, root_of_unity

MAX_EXPONENT = 10**6  # sanity bound on exponents accepted from inputs
# Bound on the matrix order M = lcm(block orders): arithmetic in Q(zeta_M)
# builds phi(M) reduction rows of phi(M) coefficients each.
MAX_MODULUS = 2048


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

    def matrix(self, modulus: int | None = None):
        """The full n x n matrix over Q(zeta_modulus)."""
        if modulus is None:
            modulus = global_order(self)
        n = self.n
        zero = CyclotomicNumber.zero(modulus)
        rows = [[zero] * n for _ in range(n)]
        for j, b in enumerate(self.blocks):
            lam = b.eigenvalue(modulus)
            for c in range(self.offsets[j], self.offsets[j + 1]):
                rows[c][c] = lam
                if c + 1 < self.offsets[j + 1]:
                    rows[c][c + 1] = CyclotomicNumber.one(modulus)
        return rows


@dataclass(frozen=True)
class CoordMask:
    """A 0/1 word over the coordinates; selects a coordinate subspace."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("mask bits must be 0 or 1")

    def support(self) -> list[int]:
        return [j for j, b in enumerate(self.bits) if b]

    def is_zero(self) -> bool:
        return not any(self.bits)


def period_set(spec: JordanSpec) -> set[int]:
    """All periods of nonzero periodic points of the linear map: the lcms
    of the orders over nonempty block subsets."""
    out: set[int] = set()
    orders = spec.orders()
    m = len(orders)
    for mask in range(1, 1 << m):
        sel = [orders[j] for j in range(m) if mask >> j & 1]
        out.add(reduce(math.lcm, sel))
    return out


def global_order(spec: JordanSpec) -> int:
    """lcm of all block orders (the order of the diagonal part)."""
    return reduce(math.lcm, spec.orders())


def period_mask(spec: JordanSpec, q: int) -> CoordMask:
    """Select the coordinates whose block order divides q."""
    if q < 1:
        raise ValueError("mask period must be positive")
    bits = []
    for j, b in enumerate(spec.blocks):
        bit = 1 if q % b.order == 0 else 0
        bits.extend([bit] * b.size)
    return CoordMask(tuple(bits))


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

    def __getitem__(self, q: int) -> int:
        return self.as_dict().get(q, 0)

    @staticmethod
    def parse(text: str) -> SequenceTarget:
        """Parse "1:1,2:2,6:3" into a target."""
        entries = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = re.fullmatch(r"(\d+)\s*:\s*(\d+)", chunk)
            if not m:
                raise ValueError(f"bad sequence entry {chunk!r}; expected q:count")
            entries[int(m.group(1))] = int(m.group(2))
        return SequenceTarget(entries)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


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
    """Parse the inline syntax "[(k,d,r);(k,d,r);...]"."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ValueError(f"inline matrix must be bracketed: {text!r}")
    body = stripped[1:-1]
    blocks = []
    for part in body.split(";"):
        part = part.strip()
        if not part:
            continue
        m = _INLINE_RE.fullmatch(part)
        if not m:
            raise ValueError(f"bad block {part!r}; expected (size,order,power)")
        k, d, r = (int(g) for g in m.groups())
        blocks.append(JordanBlock(k, d, r))
    if not blocks:
        raise ValueError("inline matrix has no blocks")
    return JordanSpec(tuple(blocks))


def format_inline_matrix(spec: JordanSpec) -> str:
    return "[" + ";".join(f"({b.size},{b.order},{b.power})" for b in spec.blocks) + "]"
