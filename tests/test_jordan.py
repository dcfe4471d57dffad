import itertools
import math
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdex import (GermParseError, JordanBlock, JordanSpec, SequenceTarget,
                      global_order, is_admissible, parse_inline_matrix,
                      period_set)
from orbitdex.jordan import MAX_DIMENSION, period_blocks

B = JordanBlock


def order_leq(smaller: JordanSpec, larger: JordanSpec) -> bool:
    """Blockwise comparison up to reordering: every block of the smaller
    matrix must match a distinct block of the larger one with the same
    (order, power) and a size that is <= the larger size."""
    groups: dict[tuple[int, int], list[int]] = {}
    for b in larger.blocks:
        groups.setdefault((b.order, b.power), []).append(b.size)
    for sizes in groups.values():
        sizes.sort(reverse=True)
    wanted: dict[tuple[int, int], list[int]] = {}
    for b in smaller.blocks:
        wanted.setdefault((b.order, b.power), []).append(b.size)
    for key, sizes in wanted.items():
        have = groups.get(key)
        if have is None or len(sizes) > len(have):
            return False
        # match largest demanded size against largest available size
        for want, got in zip(sorted(sizes, reverse=True), have):
            if want > got:
                return False
    return True


def spec_of(*dims):
    return JordanSpec(tuple(B(k, d, r) for k, d, r in dims))


def test_block_validation():
    with pytest.raises(ValueError):
        B(0, 2, 1)
    with pytest.raises(ValueError):
        B(1, 0, 1)  # eigenvalue must be a root of unity
    with pytest.raises(ValueError):
        B(1, 4, 2)  # gcd(power, order) != 1
    with pytest.raises(ValueError):
        B(1, 4, 5)  # power out of 1..order
    assert B(1, 1, 1).eigenvalue(6) == 1


def test_period_set_examples():
    assert period_set(spec_of((1, 2, 1), (1, 3, 1))) == {2, 3, 6}
    assert period_set(spec_of((1, 1, 1))) == {1}
    assert period_set(spec_of((1, 2, 1), (1, 6, 1), (1, 5, 1))) == {2, 5, 6, 10, 30}


def test_global_order_examples():
    assert global_order(spec_of((1, 2, 1), (1, 3, 1))) == 6
    assert global_order(spec_of((1, 4, 1))) == 4
    assert global_order(spec_of((1, 2, 1), (1, 6, 1), (1, 5, 1))) == 30


def test_period_blocks_examples():
    spec = spec_of((2, 6, 1), (1, 3, 1))
    assert period_blocks(spec, 3) == (1,)
    assert period_blocks(spec, 6) == (0, 1)
    assert period_blocks(spec, 2) == ()


def test_admissibility_examples():
    spec = spec_of((1, 2, 1), (1, 3, 1))  # PE = {2, 3, 6}
    assert is_admissible(spec, SequenceTarget({1: 1, 2: 2, 3: 1, 6: 3})).ok
    v = is_admissible(spec, SequenceTarget({1: 2, 2: 1, 3: 1, 6: 1}))
    assert not v.ok and "a[1]" in v.reason
    v = is_admissible(spec, SequenceTarget({1: 1, 2: 0, 3: 1, 6: 1}))
    assert not v.ok and "a[2]" in v.reason
    v = is_admissible(spec, SequenceTarget({1: 1, 2: 1, 3: 1, 6: 1, 7: 2}))
    assert not v.ok and "a[7]" in v.reason


def test_admissibility_with_fixed_point_period():
    spec = spec_of((1, 1, 1), (1, 3, 1))  # PE = {1, 3}
    assert is_admissible(spec, SequenceTarget({1: 2, 3: 1})).ok
    assert not is_admissible(spec, SequenceTarget({1: 1, 3: 1})).ok


def test_order_leq_examples():
    assert order_leq(spec_of((1, 3, 1)), spec_of((2, 3, 1)))
    assert not order_leq(spec_of((1, 2, 1)), spec_of((2, 3, 1)))
    big = spec_of((2, 3, 1), (1, 2, 1))
    assert order_leq(big, big)
    # reordering allowed
    assert order_leq(spec_of((1, 2, 1), (1, 3, 1)), spec_of((2, 3, 1), (1, 2, 1)))
    # not enough blocks of the same eigenvalue
    assert not order_leq(spec_of((1, 3, 1), (1, 3, 1)), spec_of((2, 3, 1)))


def test_inline_matrix_round_trip():
    assert parse_inline_matrix(" [(1,2,1); (2,6,5)] ") == \
        JordanSpec((B(1, 2, 1), B(2, 6, 5)))
    with pytest.raises(ValueError):
        parse_inline_matrix("[(1,2)]")
    with pytest.raises(ValueError):
        parse_inline_matrix("(1,2,1)")


def test_inline_matrix_dimension_bound():
    """A total size of MAX_DIMENSION parses; one more is refused at the
    block that crosses the bound, before any germ is built."""
    assert parse_inline_matrix(f"[({MAX_DIMENSION},2,1)]").n == MAX_DIMENSION
    text = f" [ (1,2,1) ;  ({MAX_DIMENSION},3,1)]"
    with pytest.raises(GermParseError) as err:
        parse_inline_matrix(text)
    assert (err.value.line, err.value.col) == (1, text.index("(", 5) + 1)
    assert str(err.value).endswith(
        f"matrix dimension {MAX_DIMENSION + 1} exceeds the supported bound "
        f"{MAX_DIMENSION}")


def test_sequence_target_parse():
    t = SequenceTarget.parse("1:1, 2:2,6:3")
    assert t.as_dict() == {1: 1, 2: 2, 6: 3}
    with pytest.raises(ValueError):
        SequenceTarget.parse("1:1,bogus")


def test_sequence_target_refuses_a_repeated_q():
    with pytest.raises(ValueError, match="sequence index 2 is given twice"):
        SequenceTarget.parse("1:1,2:1,3:1,2:0")
    with pytest.raises(ValueError, match="sequence index 6 is given twice"):
        SequenceTarget.parse("6:3, 06:3")


@st.composite
def jordan_specs(draw):
    m = draw(st.integers(1, 4))
    blocks = []
    for _ in range(m):
        d = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]))
        units = [r for r in range(1, d + 1) if math.gcd(r, d) == 1]
        blocks.append(B(draw(st.integers(1, 2)), d, draw(st.sampled_from(units))))
    return JordanSpec(tuple(blocks))


@settings(max_examples=60, deadline=None)
@given(jordan_specs())
def test_period_set_closed_under_lcm_and_max(spec):
    pe = period_set(spec)
    assert max(pe) == global_order(spec)
    for a in pe:
        for b in pe:
            assert math.lcm(a, b) in pe


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15]),
                min_size=1, max_size=8))
def test_period_set_matches_the_subset_enumeration(orders):
    spec = JordanSpec(tuple(B(1, d, 1) for d in orders))
    brute = {reduce(math.lcm, subset)
             for t in range(1, len(orders) + 1)
             for subset in itertools.combinations(orders, t)}
    assert period_set(spec) == brute


@settings(max_examples=60, deadline=None)
@given(jordan_specs(), st.integers(1, 36), st.integers(1, 4))
def test_period_blocks_monotone_under_divisibility(spec, l, mult):
    small = period_blocks(spec, l)
    large = period_blocks(spec, l * mult)
    assert set(small) <= set(large)


@settings(max_examples=60, deadline=None)
@given(jordan_specs(), st.integers(1, 40))
def test_period_membership_matches_period_blocks(spec, q):
    """q is a period iff its period part is nonempty and q is the lcm of
    the orders of its blocks (cross-check against the subset-lcm
    enumeration)."""
    pe = period_set(spec)
    selected = [spec.blocks[j].order for j in period_blocks(spec, q)]
    assert selected == [b.order for b in spec.blocks if q % b.order == 0]
    via_blocks = bool(selected) and reduce(math.lcm, selected) == q
    assert (q in pe) == via_blocks


@settings(max_examples=40, deadline=None)
@given(jordan_specs(), jordan_specs(), jordan_specs())
def test_order_leq_reflexive_transitive(a, b, c):
    assert order_leq(a, a)
    if order_leq(a, b) and order_leq(b, c):
        assert order_leq(a, c)


@settings(max_examples=60, deadline=None)
@given(jordan_specs(), jordan_specs())
def test_order_leq_antisymmetric_up_to_reordering(a, b):
    if order_leq(a, b) and order_leq(b, a):
        key = lambda blk: (blk.order, blk.power, blk.size)
        assert sorted(a.blocks, key=key) == sorted(b.blocks, key=key)
