import pytest

from weylunip import weylgroup as wg
from weylunip.partitions import (
    add_psi,
    append_one,
    as_partition,
    dominance_leq,
    family_members,
    format_partition,
    multiplicity,
    partitions,
    psi,
    scale,
    transpose,
)

# number of partitions of 0..13
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101]


def test_as_partition_strips_trailing_zeros():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition([]) == ()
    assert as_partition((5,)) == (5,)


def test_as_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        as_partition([2, 3])
    with pytest.raises(ValueError):
        as_partition([3, -1])
    with pytest.raises(ValueError):
        as_partition([3, 0, 2])


def test_partition_counts():
    for n, count in enumerate(PARTITION_COUNTS):
        assert len(list(partitions(n))) == count


def test_partitions_reverse_lex_order():
    got = list(partitions(4))
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(9):
        seq = list(partitions(n))
        assert seq == sorted(seq, reverse=True)
        assert all(sum(a) == n for a in seq)


def test_dominance_requires_equal_totals():
    with pytest.raises(ValueError):
        dominance_leq((2, 1), (2, 2))


def test_dominance_known_chain():
    assert dominance_leq((1, 1, 1, 1), (2, 1, 1))
    assert dominance_leq((2, 1, 1), (2, 2))
    assert dominance_leq((2, 2), (3, 1))
    assert dominance_leq((3, 1), (4,))
    assert not dominance_leq((3, 1), (2, 2))
    # the first incomparable pair lives at n = 6
    assert not dominance_leq((3, 1, 1, 1), (2, 2, 2))
    assert not dominance_leq((2, 2, 2), (3, 1, 1, 1))


def test_dominance_is_partial_order():
    for n in range(1, 9):
        ps = list(partitions(n))
        for a in ps:
            assert dominance_leq(a, a)
            for b in ps:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                for c in ps:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)


def test_transpose():
    assert transpose((4, 2, 1)) == (3, 2, 1, 1)
    assert transpose(()) == ()
    for n in range(9):
        for a in partitions(n):
            assert transpose(transpose(a)) == a
            assert sum(transpose(a)) == n


def test_transpose_reverses_dominance():
    for n in range(1, 9):
        ps = list(partitions(n))
        for a in ps:
            for b in ps:
                assert dominance_leq(a, b) == dominance_leq(transpose(b), transpose(a))


def test_multiplicity():
    a = (4, 2, 2, 1)
    assert multiplicity(a, 2) == 2
    assert multiplicity(a, 4) == 1
    assert multiplicity(a, 3) == 0
    assert multiplicity(a, 0) == 0


def test_scale_and_append_preserve_dominance_both_ways():
    for n in range(1, 8):
        ps = list(partitions(n))
        for a in ps:
            for b in ps:
                leq = dominance_leq(a, b)
                assert dominance_leq(scale(a, 2), scale(b, 2)) == leq
                assert dominance_leq(append_one(a), append_one(b)) == leq


def test_family_members_match_their_defining_filters():
    for n in range(13):
        all_parts = list(partitions(n))
        assert family_members(n) == all_parts
        # odd rows occur with even multiplicity
        want = [
            a
            for a in all_parts
            if all(multiplicity(a, k) % 2 == 0 for k in set(a) if k % 2 == 1)
        ]
        assert family_members(n, kappa=-1) == want
        # even rows occur with even multiplicity
        want = [
            a
            for a in all_parts
            if all(multiplicity(a, k) % 2 == 0 for k in set(a) if k % 2 == 0)
        ]
        assert family_members(n, kappa=1) == want
        if n < 2:
            continue
        # the elliptic classes of D and 2A, whose rule lives in weylgroup
        assert wg.elliptic_partitions(wg.context("D", n, "id")) == [
            a for a in all_parts if len(a) % 2 == 0
        ]
        assert wg.elliptic_partitions(wg.context("D", n, "twisted")) == [
            a for a in all_parts if len(a) % 2 == 1
        ]
        assert wg.elliptic_partitions(wg.context("2A", n)) == [
            a for a in all_parts if all(p % 2 == 1 for p in a)
        ]


def test_family_members_refuses_a_kappa_other_than_plus_or_minus_one():
    with pytest.raises(ValueError, match="kappa must be"):
        family_members(4, 0)


def test_psi_values():
    assert psi((6, 6, 4, 2)) == (1, -1, 1, -1)
    assert psi((2, 2, 1, 1)) == (1, -1, 1, -1)
    assert psi((4,)) == (1,)
    assert psi((2, 2)) == (1, -1)
    assert psi((6, 2, 2, 2)) == (1, 0, 0, -1)
    with pytest.raises(ValueError):
        psi(())


def test_psi_properties():
    # first entry 1; odd prefix sums 1; even prefix sums 1 + current
    # entry; the total is the parity of the number of parts
    for n in range(19):
        for a in partitions(n):
            if not a:
                continue
            ps = psi(a)
            assert ps[0] == 1
            running = 0
            for k in range(1, len(a) + 1):
                running += ps[k - 1]
                if k % 2 == 1:
                    assert running == 1, (a, k)
                else:
                    assert running == 1 + ps[k - 1], (a, k)
            assert sum(ps) == len(a) % 2


def test_add_psi():
    assert add_psi((6, 6, 4, 2)) == (7, 5, 5, 1)
    assert add_psi((2, 2)) == (3, 1)
    assert add_psi((4, 2)) == (5, 1)
    with pytest.raises(ValueError):
        add_psi((3, 2))


def test_add_psi_totals():
    for n in range(1, 10):
        for a in partitions(n):
            ev = scale(a, 2)
            out = add_psi(ev)
            assert sum(out) == 2 * n + len(a) % 2
            assert psi(ev) == psi(a)


def test_format_partition():
    assert format_partition((6, 6, 4, 2)) == "[6,6,4,2]"
    assert format_partition(()) == "[]"
