"""The zero order (local multiplicity) of a polynomial germ at the origin.

The certified core computes Q_d = dim K[x]_{<d} / span{ trunc(x^a f_i, d) }
for d = 1, 2, ... and stops at the first d with Q_d = Q_{d+1}: one repeat
certifies stabilization (equal nested quotients force m^d into the ideal
plus m^{d+1}, and Nakayama's lemma then puts m^d inside the ideal in the
local ring), so the repeated value is the multiplicity.  Q_d comes from
one fraction-free elimination over both coefficient rings, Q and
Q(zeta_M): rows have integral entries, pivot rows have content 1, and
the step row <- lead * row - row[col] * pivot is exact over Z and
Z[zeta_M] whatever the lead, so no lead is ever inverted.

The engine builds a row only when it can change Q_d, and only as much of
it as Q_d reads.  Step d inserts the rows x^a f_i of order exactly d - 1:
a row of order >= d lies in m^d and, reduced, still leads at degree >= d.
Every row is cut below a degree bound top, which is exact for every
Q_d with d <= top because trunc_d o trunc_top = trunc_d; top starts at 8
and doubles, with the echelon rebuilt, whenever d reaches it without a
repeat.

A row x^a f_i whose lead has no pivot yet is not built at all: the
echelon stores the pair (a, kept) of the shift key and the kept terms of
f_i, and builds the row only when a later row reduces against it.  This
is exact.  The key is additive and order-preserving below its width
(below) and the cut never drops the lead, so the row leads at lead_i + a
with no search.  A new pivot row is stored with its content stripped.
An uncut shift has the coefficients of the recombined generator f_i, a
pivot row, so content 1, and a cut f_i is divided by its content once,
for all its shifts: stripping would leave either as it is.  So the
stored pair builds as the pivot row that inserting the row in full
would store, and the pivot set, every Q_d, d* and certificate are
unchanged.

Before any lead is taken, the engine recombines its generators: the full
rows f_1, ..., f_n go through one echelon, and its pivot rows, each led
by its own pivot column, replace them.  They are an invertible constant
recombination of the f_i, so they generate the same ideal I, and Q_d =
dim K[x]/(I + m^d) depends only on I: every Q_d, d* and certificate is
unchanged, and no two generators share a lead.  A row that reduces to
zero leaves I with at most n - 1 generators, so its zero set is
positive-dimensional (Krull) and Q_d never repeats; the engine refuses
at once, and definitely: every reduction that led to the system is
exact, so this proves the input not isolated too.

The engine also skips every row that a trivial syzygy makes redundant
(the Koszul criterion of Faugere's F5): it never builds x^a f_i when the
lead monomial l_j of an earlier generator, j < i, divides x^a.  The
lead is the least key below, the grevlex-first term of lowest degree,
taken from the full row.  Write x^a = x^c l_j.  From f_j f_i - f_i f_j = 0,
c_j x^a f_i is a combination of rows x^c t f_j (t a term of f_i, j < i)
and rows x^c s f_i (s a later term of f_j, so x^c s has a larger key
than x^a).  Every row in that relation has order at least that of the
skipped row, since |l_j| = o_j and every term of f_i has degree >= o_i.
Under trunc_d a row of order >= d vanishes, and every row of order < d
is inserted or skipped by step d.  By induction on i, then downward on
the key of the multiplier among the finitely many of order < d,
span trunc_d(kept rows) = span trunc_d(all rows) for every d <= top, so
every Q_d, d* and certificate is unchanged; the argument holds for any
generating list, the recombined one included.

On the keys below the test is a lookup: l_j divides x^a exactly when
key(a) is lead_j + key(c) for some c of degree |a| - o_j, lead_j being
l_j's key.  Both sides have degree |a| < w, and key is additive there
(key(c) + key(l_j) = key(x^c l_j), no field carrying) and one-to-one,
so the sum is key(a) exactly when x^c l_j = x^a.  The engine builds,
once per degree k, the keys lead_j + key(c) of the multiples of degree
k of every lead with o_j <= k, each with its least j, and skips x^a for
f_i when that j is below i.

One engine call keys every monomial by one int, under one width
w = max(cap, highest input degree) + 1: its degree in the high bits,
then x_n, ..., x_1 in fields of b = w.bit_length() bits.  The full rows
that the recombination reads have degree < w, and every shifted row is
cut below a top of at most cap + 1 <= w, so every exponent is < w < 2^b:
no field overflows, and grevlex restricted to degree < w is plain
integer order; a shift by x^a is the addition of a's key, and the
degree is a right shift.  Only the input terms are packed, once each,
as the rows enter the engine; every run, restarts included, cuts those
same keys.  Past that the engine sees no exponent tuple: the leads are
the recombination's pivot columns, with order lead >> (n*b), and the
multiplier keys of degree k are the sums of those of degree k - 1 and
the n unit keys, sorted, so in grevlex order, built once per call.  The
arithmetic and the pivot order are those of exponent-tuple keys.

Exact closed-form reductions run first and hand the engine only small
residual systems.  They run in one loop over a stack of (factor, system)
pairs, with no recursion, so neither the call depth nor the systems
held grow with the number of reductions:

* every coordinate that is a single variable lets that variable be set
  to zero and dropped, all of them in one pass (setting variables to zero
  commutes, so the pass equals peeling them one at a time); this, the
  exponent gcd and the linear elimination below replace the system on
  top of the stack;
* a coordinate divisible by a monomial splits the count additively, one
  variable factor at a time (isolation of the product is equivalent to
  isolation of every factor system, and the orders add); the branches
  are pushed, each variable branch x_i already peeled, x_i set to zero
  and the coordinate dropped (no other coordinate is a single variable
  when a split runs, so that is the peel of the branch), and a quotient
  with a constant term is a unit, of order 0, so it is dropped;
* a one-variable system closes at once: the order of a nonzero p(x)
  with no constant term is its lowest degree;
* a common exponent gcd b_i per variable divides out, scaling the count
  by prod b_i (composition with x_i -> x_i^(b_i) multiplies orders);
* a variable occurring linearly in one coordinate and nowhere else in it
  can be solved for and substituted away, with no inverse taken (each
  other coordinate is replaced by a unit multiple, see _eliminate_linear);
* when the lowest-degree homogeneous system has 0 as its only zero, the
  order is the product of the lowest degrees, and that isolation question
  is itself decided exactly (a zero-dimensional system of forms of degrees
  m_j stabilizes by degree sum(m_j - 1) + 1, so running the quotient to
  that bound is a decision procedure);
* lowest forms of one degree that are linearly dependent leave at most
  n - 1 generators of the homogeneous system, which then has a nonzero
  common zero, so it is not isolated; the engine's recombination finds
  the dependence before it builds a row.

All reductions are exact theorems, not heuristics; the engine result is
identical with or without them.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicNumber
from .polynomials import GermMap, Poly

DEFAULT_DEGREE_CAP = 64

# sizes above which the closed-form linear elimination is skipped
_ELIM_TERM_BUDGET = 50_000


class NotIsolatedWithinBound(Exception):
    """Quotient dimensions failed to stabilize below the degree cap.

    ``definite`` is True when the zero set is provably positive
    dimensional; otherwise the failure is ambiguous (the cap may simply
    be too small).  ``witness`` carries the evidence found, if any.
    """

    def __init__(self, degree_cap: int, witness: str | None = None,
                 definite: bool = False):
        self.degree_cap = degree_cap
        self.witness = witness
        self.definite = definite
        detail = witness or (
            "no stabilization by the degree cap; the zero may not be "
            "isolated, or the cap may be too small"
        )
        super().__init__(f"not isolated within degree {degree_cap}: {detail}")


@dataclass(frozen=True)
class MultiplicityResult:
    """Multiplicity value plus how it was obtained.

    ``fast_path`` is True when closed-form reductions (Cronin product or
    exact splitting) resolved the value without running the stabilization
    engine on any residual system.  The certificate fields are populated
    only when the engine ran directly on the input system: then
    quotient_dims = (Q_1, ..., Q_{d*+1}) with Q_{d*} = Q_{d*+1} = value.
    """

    value: int
    fast_path: bool
    stabilized_at: int | None = None
    quotient_dims: tuple[int, ...] = ()


class _Echelon:
    """Incremental sparse row echelon keyed by packed monomials (see
    _packer), pivot = least key, which is the first nonzero column in
    grevlex order; a lazy min-heap of keys tracks the leading term, so
    fill-in does not force a full scan per step.  A key's degree is
    key >> degree_shift.

    Rows hold integral entries (see _integral_rows), and pivot rows have
    content 1, with no rule on the lead.  Elimination is fraction-free,
    by row <- lead(pivot) * row - row[col] * pivot, exact over Z and
    Z[zeta_M] for any lead, with the row's content divided out when it
    becomes a pivot row and every few steps (Bareiss).  Rank and pivot
    columns are scale-invariant, so the counts are those over the field.

    A shifted row x^a g whose lead has no pivot yet is stored unbuilt, as
    the pair (a, kept) of its shift key and g's kept terms, and built
    only when a later row reduces against it (see offer)."""

    _STRIP_EVERY = 8

    def __init__(self, degree_shift: int):
        self.degree_shift = degree_shift
        self.pivots: dict[int, dict | tuple] = {}
        self.pivot_degrees = Counter()

    def offer(self, col: int, a: int, kept: dict) -> None:
        """Insert the row x^a g, {k + a: c for k, c in kept.items()},
        whose lead is col: kept holds the terms of a generator g below a
        degree bound, its lead among them, with content 1.  When col has
        no pivot the row needs no reduction, and stripping its content
        would leave it as it is, so it is stored as (a, kept)."""
        if col in self.pivots:
            self.insert({k + a: c for k, c in kept.items()})
        else:
            self.pivots[col] = (a, kept)
            self.pivot_degrees[col >> self.degree_shift] += 1

    def insert(self, row: dict) -> int | None:
        """Reduce against current pivots; store a nonzero remainder, its
        content stripped, as a new pivot row.  Returns the new pivot
        column or None."""
        pivots = self.pivots
        heap = list(row)
        heapq.heapify(heap)
        steps = 0
        while heap:
            col = heapq.heappop(heap)
            if col not in row:
                continue  # cancelled earlier (lazy deletion)
            prow = pivots.get(col)
            if prow is None:
                _strip_content(row)
                pivots[col] = row
                self.pivot_degrees[col >> self.degree_shift] += 1
                return col
            if type(prow) is tuple:
                a, kept = prow
                prow = pivots[col] = {k + a: c for k, c in kept.items()}
            factor = row.pop(col)
            steps += 1
            lead = prow[col]
            if lead != 1:
                for m in row:
                    row[m] *= lead
            for m, c in prow.items():
                if m == col:
                    continue
                delta = factor * c
                cur = row.get(m)
                if cur is None:
                    row[m] = -delta
                    heapq.heappush(heap, m)
                else:
                    total = cur - delta
                    if total:
                        row[m] = total
                    else:
                        del row[m]
            if steps % self._STRIP_EVERY == 0:
                _strip_content(row)
        return None

    def pivots_below(self, degree: int) -> int:
        return sum(c for d, c in self.pivot_degrees.items() if d < degree)


def _packer(nvars: int, top: int):
    """(pack, degree_shift): pack maps an exponent tuple of degree < top
    to the int |m| << (n*b) | m_n << ((n-1)*b) | ... | m_1 with
    b = top.bit_length(), built from the nonzero exponents only.  Every
    exponent is below top < 2^b, so no field overflows: integer order is
    grevlex order (degree first, then the reversed exponents
    lexicographically), pack(m + a) = pack(m) + pack(a) whenever
    |m + a| < top, and the degree is key >> (n*b)."""
    bits = top.bit_length()
    shift = nvars * bits

    def pack(mono) -> int:
        key = sum(mono) << shift
        for i in itertools.compress(range(nvars), mono):
            key |= mono[i] << i * bits
        return key

    return pack, shift


def _multipliers(nvars: int, shift: int):
    """by_degree(k): the keys, in _packer's layout with this shift, of
    every monomial of degree k, ascending, so in grevlex order.  Degree k
    is built once, from degree k - 1 and the n unit keys, and kept; the
    keys add without carry while the degree stays below the width."""
    bits = shift // nvars
    units = [1 << shift | 1 << v * bits for v in range(nvars)]
    keys = [[0]]

    def by_degree(k: int) -> list[int]:
        while len(keys) <= k:
            keys.append(sorted({m + u for m in keys[-1] for u in units}))
        return keys[k]

    return by_degree


def _integral_rows(coords) -> list[dict]:
    """The rows of coords with denominators cleared: ints over Q, den-1
    CyclotomicNumbers over Q(zeta_M).  This helper and _strip_content
    are all the engine knows of the two rings."""
    rows = []
    for p in coords:
        denom = math.lcm(*(c.den for c in p.terms.values()))
        rows.append({m: c.num[0] * (denom // c.den) if p.modulus == 1
                     else c * denom for m, c in p.terms.items()})
    return rows


def _strip_content(row: dict) -> None:
    """Divide an integral row by its content, the gcd of all integer
    coordinates of all its entries, in place."""
    entry = next(iter(row.values()), 0)
    if isinstance(entry, int):
        g = math.gcd(*row.values())
        if g > 1:
            for m in row:
                row[m] //= g
        return
    g = math.gcd(*(n for c in row.values() for n in c.num))
    if g > 1:
        scale = CyclotomicNumber.from_rational(Fraction(1, g), entry.modulus)
        for m, c in row.items():
            row[m] = c * scale


class _Run:
    """One echelon of the engine's shifted rows, each cut below the
    degree bound top."""

    def __init__(self, top: int, shift: int):
        self.top = top
        self.echelon = _Echelon(shift)


def _recombined(rows, pack, shift: int, cap: int):
    """The pivot rows of one echelon of the full rows, keyed by pack, in
    input order, by their pivot columns, the leads; or a definite
    NotIsolatedWithinBound when a row reduces to zero, a proof that the
    zero set is positive-dimensional (see the module docstring)."""
    basis = _Echelon(shift)
    for j, terms in enumerate(rows):
        if basis.insert({pack(m): c for m, c in terms.items()}) is None:
            raise NotIsolatedWithinBound(
                cap, witness=f"coordinate {j + 1} of a reduced system is a "
                             f"constant linear combination of the ones "
                             f"before it, so the zero set is "
                             f"positive-dimensional",
                definite=True)
    return basis.pivots


def _stabilize(coords, nvars: int, cap: int,
               witness: str | None = None):
    """Run the quotient-dimension engine; return (value, d_star, dims).

    The rows are keyed once, under a width that covers both the full
    rows and every degree below cap + 1, and the generators are
    recombined first, so that no two share a lead.  Step d inserts the
    rows of order d - 1 that the Koszul criterion keeps, cut below top
    (see the module docstring).  When d reaches top without a repeat,
    top doubles up to cap + 1 and the echelon is rebuilt from scratch,
    so Q_d is computed for the same d = 1, ..., cap + 1 as without the
    bound.  The multipliers and the multiples of the leads of each degree
    are built once, and kept across steps and restarts."""
    rows = _integral_rows(coords)
    highest = max((sum(m) for terms in rows for m in terms), default=0)
    pack, shift = _packer(nvars, max(cap, highest) + 1)
    basis = _recombined(rows, pack, shift, cap)
    multipliers = _multipliers(nvars, shift)

    @functools.cache
    def first_divisor(degree: int) -> dict[int, int]:
        """The key of every monomial of this degree that some lead
        divides, lead_j + c for c of degree degree - o_j, mapped to the
        least such j."""
        table = {}
        for j, lead in enumerate(basis):
            if lead >> shift <= degree:
                for c in multipliers(degree - (lead >> shift)):
                    table.setdefault(lead + c, j)
        return table

    def insert_step(run: _Run, step: int) -> None:
        """Insert trunc_top(x^a f_i) for every |a| = step - 1 - o_i, so
        each row inserted at this step has order exactly step - 1, except
        when the lead of an earlier f_j divides x^a (the Koszul
        criterion of the module docstring).  A cut f_i is divided by its
        content once, for all its shifts: the echelon's rows are then
        the same up to scale, and its pivot rows the same."""
        offer = run.echelon.offer
        for i, (lead, terms) in enumerate(basis.items()):
            degree = step - 1 - (lead >> shift)
            if degree < 0:
                continue
            first = first_divisor(degree)
            limit = (run.top - degree) << shift
            kept = {k: c for k, c in terms.items() if k < limit}
            if len(kept) < len(terms):
                _strip_content(kept)
            for a in multipliers(degree):
                if first.get(a, i) >= i:
                    offer(lead + a, a, kept)

    run = _Run(min(cap + 1, 8), shift)
    dims: list[int] = []
    for d in range(1, cap + 2):
        insert_step(run, d)
        q_d = math.comb(d - 1 + nvars, nvars) - run.echelon.pivots_below(d)
        dims.append(q_d)
        if d >= 2 and dims[-1] == dims[-2]:
            return dims[-1], d - 1, tuple(dims)
        if d == run.top <= cap:
            run = _Run(min(2 * run.top, cap + 1), shift)
            for step in range(1, d + 1):
                insert_step(run, step)
    raise NotIsolatedWithinBound(cap, witness=witness, definite=False)


def _lowest_isolated(coords, nvars: int, cap: int):
    """(degrees, isolated): the lowest degrees of a square system, and the
    exact isolation decision for its lowest-degree homogeneous system,
    True/False, or None when the decision bound plus its repeat step
    exceeds the cap (then nothing is concluded).  Lowest forms that are
    linearly dependent decide False when the engine recombines them,
    before it builds a row."""
    degrees, forms = zip(*(p.lowest_form() for p in coords))
    macaulay = sum(degrees) - nvars + 2
    if macaulay > cap:
        return degrees, None
    try:
        _stabilize(forms, nvars, macaulay - 1)
        return degrees, True
    except NotIsolatedWithinBound:
        return degrees, False


def _peel(coords: list[Poly]) -> list[Poly] | None:
    """Set to zero every variable that is a whole coordinate and drop
    those coordinates (the first coordinate for each variable), in one
    pass; None when no coordinate is a single variable.  A later
    coordinate that is the same variable survives, as zero."""
    peeled: dict[int, int] = {}  # variable -> coordinate
    for j, p in enumerate(coords):
        if len(p.terms) == 1:
            mono, = p.terms
            if sum(mono) == 1:
                peeled.setdefault(mono.index(1), j)
    if not peeled:
        return None
    keep = [i for i in range(coords[0].nvars) if i not in peeled]
    dropped = set(peeled.values())
    return [p.restrict_vars(keep) for j, p in enumerate(coords)
            if j not in dropped]


def _eliminate_linear(coords: list[Poly], nvars: int,
                      modulus: int) -> list[Poly] | None:
    """The system with the first variable that occurs linearly in a
    coordinate, and in no other term of it, solved for and substituted
    away, that coordinate dropped; None when there is no such variable
    within the substitution size guard.

    With c x_i + rest the solved coordinate, no inverse of c is taken:
    each term a x^m of another coordinate g is scaled by c^(E - m_i),
    E the highest power of x_i in g, and x_i -> -rest substituted.  That
    is c^E g(x_i = -rest/c), a unit multiple, so every order is
    unchanged."""
    for j, p in enumerate(coords):
        for i in range(nvars):
            linear_mono = tuple(1 if k == i else 0 for k in range(nvars))
            c = p.terms.get(linear_mono)
            if c is None:
                continue
            rest = p - Poly(nvars, modulus, {linear_mono: c})
            if any(m[i] for m in rest.terms):
                continue
            # substitution size guard: skip when it could blow up
            max_exp = max((m[i] for q in coords for m in q.terms), default=0)
            if len(rest.terms) ** max(max_exp, 1) > _ELIM_TERM_BUDGET:
                continue
            # powers[k - 1] = c^k, k = 1, ..., max_exp; none when c is 1
            powers = [] if c == 1 else list(itertools.accumulate(
                itertools.repeat(c, max_exp), operator.mul))
            values = [Poly.variable(k, nvars, modulus) for k in range(nvars)]
            values[i] = -rest
            keep = [k for k in range(nvars) if k != i]
            eliminated = []
            for q in coords[:j] + coords[j + 1:]:
                if powers:
                    top = max(m[i] for m in q.terms)
                    q = q._wrap({m: a * powers[top - m[i] - 1]
                                 if m[i] < top else a
                                 for m, a in q.terms.items()})
                eliminated.append(q.substitute(values).restrict_vars(keep))
            return eliminated
    return None


def _check_square(f: GermMap):
    if len(f.coords) != f.nvars:
        raise ValueError("multiplicity needs as many coordinates as variables")


def multiplicity(f: GermMap, degree_cap: int = DEFAULT_DEGREE_CAP) -> MultiplicityResult:
    """Zero order of the germ at the origin, with certificate.

    Raises NotIsolatedWithinBound when the origin is not an isolated zero
    (definite) or cannot be certified isolated below the cap (ambiguous).

    One loop reduces a stack of (factor, system) pairs, and the order is
    the sum of factor * order over the systems taken off it; a
    one-variable system adds factor times its lowest degree.  The peel,
    the exponent gcd and the linear elimination replace the system on
    top; the monomial split pushes its branches, the variable ones
    peeled, in reverse, so they are taken depth first and in order, and
    a refusal comes from the first branch that fails.  A divided branch
    with a constant term is a unit, of order 0, and is never pushed: it
    is the only place a constant term can arise, since GermMap refuses
    one and the peel, the gcd and the elimination cannot make one.  The
    result carries the engine's certificate only when the engine runs on
    the input system itself.
    """
    _check_square(f)
    start = list(f.coords)
    stack = [(1, start)]
    value, engine_used = 0, False
    while stack:
        factor, coords = stack.pop()
        nvars = coords[0].nvars if coords else 0
        if nvars == 0:
            value += factor
            continue
        modulus = coords[0].modulus

        for j, p in enumerate(coords):
            if p.is_zero():
                raise NotIsolatedWithinBound(
                    degree_cap, witness=f"a coordinate vanishes identically "
                                        f"(position {j + 1} of a reduced system)",
                    definite=True)

        # one variable: the order of a nonzero p(x) without a constant
        # term is its lowest degree
        if nvars == 1:
            value += factor * coords[0].lowest_degree()
            continue

        # single-variable coordinates: set those variables to zero and drop
        peeled = _peel(coords)
        if peeled is not None:
            stack.append((factor, peeled))
            continue

        # a variable missing from every coordinate gives a product zero set
        # (its exponent gcd is 0)
        gcds = [math.gcd(*column)
                for column in zip(*(m for p in coords for m in p.terms))]
        if 0 in gcds:
            miss = gcds.index(0)
            raise NotIsolatedWithinBound(
                degree_cap, witness=f"variable x{miss + 1} appears in no "
                                    f"coordinate, so the zero set contains its axis",
                definite=True)

        # common exponent gcd: divide out, scale by the product
        if any(g >= 2 for g in gcds):
            stack.append((factor * math.prod(gcds), [
                p._wrap({tuple(map(operator.floordiv, m, gcds)): c
                         for m, c in p.terms.items()})
                for p in coords
            ]))
            continue

        # monomial content: split additively, one variable factor at a time
        contents = enumerate(map(Poly.monomial_content, coords))
        split = next(((j, c) for j, c in contents if any(c)), None)
        if split is not None:
            j, content = split
            others = coords[:j] + coords[j + 1:]
            branches = []
            for i, a in enumerate(content):
                if a:  # the branch x_i, peeled: x_i set to zero, j dropped
                    keep = [k for k in range(nvars) if k != i]
                    branches.append((factor * a,
                                     [p.restrict_vars(keep) for p in others]))
            divided = coords[j].divide_monomial(content)
            if (0,) * nvars not in divided.terms:
                branches.append((factor, coords[:j] + [divided] + coords[j + 1:]))
            stack.extend(reversed(branches))
            continue

        # Cronin fast path: product of lowest degrees when the lowest system
        # has 0 as its only common zero
        degrees, isolated = _lowest_isolated(coords, nvars, degree_cap)
        if isolated:
            value += factor * math.prod(degrees)
            continue

        # solve out a variable that occurs linearly in one coordinate and in
        # no other term of that coordinate
        eliminated = _eliminate_linear(coords, nvars, modulus)
        if eliminated is not None:
            stack.append((factor, eliminated))
            continue

        # general engine
        engine_used = True
        witness = None if isolated is None else (
            "the lowest-degree homogeneous system has a positive-dimensional "
            "zero set (evidence of a non-isolated zero, not a proof)")
        order, d_star, dims = _stabilize(coords, nvars, degree_cap, witness)
        if coords is start:  # the only system, so the whole answer
            return MultiplicityResult(order, fast_path=False,
                                      stabilized_at=d_star, quotient_dims=dims)
        value += factor * order
    return MultiplicityResult(value, fast_path=not engine_used)
