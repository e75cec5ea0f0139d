import importlib
import random

import pytest

from weylunip import weylgroup as wg
from weylunip.partitions import (
    PARTITION_BOUND,
    add_psi,
    append_one,
    as_partition,
    byte_width,
    check_bound,
    dominance_leq,
    family_members,
    field_width,
    fields_leq,
    format_partition,
    guard_bits,
    kappa_member,
    multiplicity,
    pack,
    pack_bytes,
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
    for n in range(21):
        seq = list(partitions(n))
        assert seq == sorted(set(seq), reverse=True)
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
    # a zero part adds no column
    assert transpose((3, 1, 0)) == (2, 1, 1)
    assert transpose((3, 0, 1, 0)) == (2, 1, 1)
    assert transpose((0,)) == ()
    for n in range(9):
        for a in partitions(n):
            assert transpose(transpose(a)) == a
            assert sum(transpose(a)) == n
            # column i holds the parts of size at least i
            assert transpose(a) == tuple(
                sum(1 for p in a if p >= i) for i in range(1, (a[0] if a else 0) + 1)
            )


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


def test_check_bound_accepts_the_bound_and_refuses_past_it():
    assert PARTITION_BOUND == 60
    check_bound(60)
    with pytest.raises(ValueError, match=r"bound exceeded: n=61 > 60"):
        check_bound(61)


def test_family_members_refuses_a_kappa_other_than_plus_or_minus_one():
    with pytest.raises(ValueError) as exc:
        family_members(4, 0)
    assert str(exc.value) == "kappa must be +1, -1 or None, got 0"


@pytest.mark.parametrize("kappa", [None, 1, -1])
def test_family_members_refuses_a_negative_total(kappa):
    with pytest.raises(ValueError) as exc:
        family_members(-1, kappa)
    assert str(exc.value) == "partitions of a negative integer requested"


@pytest.mark.parametrize("kappa", [1, -1])
def test_family_members_generates_what_the_kappa_filter_keeps(kappa):
    # the same partitions in the same order as filtering all of them
    for n in range(27):
        want = [a for a in partitions(n) if kappa_member(a, kappa)]
        assert family_members(n, kappa) == want, n


@pytest.mark.parametrize("kappa", [None, 1, -1, 0])
def test_family_members_is_bounded_before_it_generates(kappa, monkeypatch):
    def refuse(*args):
        raise AssertionError("generated past the bound")

    # the package re-exports the function partitions under the module's name
    monkeypatch.setattr(importlib.import_module("weylunip.partitions"), "_generate", refuse)
    with pytest.raises(ValueError) as exc:
        family_members(PARTITION_BOUND + 1, kappa)
    assert str(exc.value) == "partition enumeration bound exceeded: n=61 > 60"


def test_generate_never_tries_more_copies_than_the_remainder_holds(monkeypatch):
    # a multiplicity past rem // row recurses on a negative remainder,
    # which yields nothing, so only the work shows it
    module = importlib.import_module("weylunip.partitions")
    generate = module._generate
    remainders = []

    def counted(rem, top, paired):
        remainders.append(rem)
        return generate(rem, top, paired)

    # the recursion reads the module attribute, so it is counted too
    monkeypatch.setattr(module, "_generate", counted)
    for n in range(21):
        for kappa in (None, 1, -1):
            family_members(n, kappa)
    assert len(remainders) > 21 * 3 and min(remainders) == 0


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


def test_packed_comparison_is_entrywise():
    rng = random.Random(3)
    for top in (1, 2, 7, 8, 60, 61, 120):
        width = field_width(top)
        for count in (1, 2, 5, 2 * top):
            guards = guard_bits(count, width)
            assert guards == pack([1] * count, width) << (width - 1)
            for _ in range(20):
                a = [rng.choice((0, top, rng.randint(0, top))) for _ in range(count)]
                b = [rng.choice((0, top, rng.randint(0, top))) for _ in range(count)]
                mask = fields_leq(pack(a, width), pack(b, width), guards)
                assert mask == pack([x <= y for x, y in zip(a, b)], width) << (width - 1)
    with pytest.raises(ValueError, match="outside 0..7"):
        pack([3, 8], field_width(7))
    with pytest.raises(ValueError, match="outside 0..7"):
        pack([-1], field_width(7))


def test_byte_fields_are_the_fewest_whole_bytes():
    for top, width in ((0, 8), (1, 8), (121, 8), (127, 8), (128, 16), (200, 16),
                       (32767, 16), (32768, 24), (2**40, 48), (2**63 - 1, 64)):
        assert byte_width(top) == width, top


def test_byte_packing_is_pack_in_whole_bytes():
    # pack, one entry at a time, is the reference layout
    rng = random.Random(5)
    for top in (1, 7, 121, 127, 128, 140, 200, 32767, 32768, 2**40, 2**63 - 1):
        width = byte_width(top)
        for count in (0, 1, 2, 5, 40):
            for _ in range(10):
                a = [rng.choice((0, top, rng.randint(0, top))) for _ in range(count)]
                assert pack_bytes(a, width) == pack(a, width), (top, a)
    # field 0 is the lowest byte on every host
    assert pack_bytes([1, 2], 16).to_bytes(4, "little") == bytes([1, 0, 2, 0])
    assert pack_bytes([1, 2, 3], 24).to_bytes(9, "little") == bytes([1, 0, 0, 2, 0, 0, 3, 0, 0])


@pytest.mark.parametrize("width,values,top", [
    (8, [3, 128], 127),
    (8, [127, -1], 127),
    (8, [5, 256, 0], 127),
    (8, [0, 128], 127),
    (16, [2**15, 3], 2**15 - 1),
    (16, [-1], 2**15 - 1),
    (24, [1, 2**23], 2**23 - 1),
    (24, [2**24 + 1], 2**23 - 1),
    (24, [0, 2**24 + 1], 2**23 - 1),
    (24, [2**64], 2**23 - 1),
    (64, [2**63], 2**63 - 1),
    (64, [-2], 2**63 - 1),
])
def test_byte_packing_refuses_an_entry_at_the_guard_bit(width, values, top):
    bad = next(v for v in values if not 0 <= v <= top)
    with pytest.raises(ValueError, match=f"^packed entry {bad} outside 0..{top}$"):
        pack_bytes(values, width)
