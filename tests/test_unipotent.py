import itertools
import random
from collections import defaultdict
from operator import itemgetter

import pytest

from weylunip.partitions import (
    add_psi,
    dominance_leq,
    partitions,
    transpose,
)
from weylunip.unipotent import (
    CHAR2,
    GOOD,
    GROUP_FAMILY,
    OMEGA,
    UnipotentLabel,
    _dim,
    bad_label,
    bad_leq,
    check_group,
    enumerate_unipotent,
    format_unipotent,
    free_indices,
    good_label,
    good_leq,
    kappa,
    label_to_json,
    unipotent_leq,
    unipotent_relation,
)
from weylunip import classposet, unipotent
from weylunip.classposet import PosetError, hasse
from weylunip.weylgroup import FAMILY_RULES, context

from oracle import theta2, theta2_column_recipe, theta2_columns


def least_rank(group):
    return FAMILY_RULES[GROUP_FAMILY[group]].min_rank


def test_epsilon_forced_and_free_values():
    e = bad_label("Sp", 4, (4, 4))
    assert free_indices("Sp", (4, 4)) == (4,)
    assert e.epsilon == ((4, 1),)
    assert e.epsilon_at(4) == 1
    assert e.epsilon_at(3) == OMEGA  # odd row
    assert e.epsilon_at(2) == OMEGA  # multiplicity zero
    assert e.epsilon_at(1) == OMEGA
    # even row with odd multiplicity is pinned to 1
    e = bad_label("Sp", 3, (4, 2))
    assert free_indices("Sp", (4, 2)) == ()
    assert e.epsilon == ()
    assert e.epsilon_at(4) == 1
    assert e.epsilon_at(2) == 1
    # epsilon(0) is 1 on the symplectic side, 0 on the orthogonal side
    assert bad_label("Sp", 2, (2, 2)).epsilon_at(0) == 1
    assert bad_label("O_even", 2, (2, 2)).epsilon_at(0) == 0


def test_epsilon_plus_one_family():
    # for the parity-flipped family, free indices are odd rows of even
    # positive multiplicity
    assert label_to_json(bad_label("GLd", 6, (3, 3)))["family"] == "plus_one"
    assert free_indices("GLd", (3, 3)) == (3,)
    assert free_indices("GLd", (5, 1)) == ()
    e = bad_label("GLd", 6, (5, 1))
    assert e.epsilon_at(5) == 1 and e.epsilon_at(1) == 1
    assert e.epsilon_at(2) == OMEGA
    # an even row is forced whatever its multiplicity
    assert free_indices("GLd", (2, 2)) == ()
    assert bad_label("GLd", 4, (2, 2)).epsilon_at(2) == OMEGA


def test_epsilon_function_validation():
    e = bad_label("Sp", 4, (4, 4), epsilon={4: 0})
    assert e.epsilon_at(4) == 0
    with pytest.raises(ValueError, match="exactly the free indices"):
        bad_label("Sp", 4, (4, 4), epsilon={})  # missing free index
    with pytest.raises(ValueError, match="exactly the free indices"):
        bad_label("Sp", 4, (4, 4), epsilon={4: 0, 2: 1})  # 2 is not free
    with pytest.raises(ValueError, match="must be 0 or 1"):
        bad_label("Sp", 4, (4, 4), epsilon={4: 2})  # out of range


def test_all_epsilon_functions_counts():
    labels = enumerate_unipotent("Sp", 6, CHAR2)
    alphas = {(4, 4, 2, 2): 4, (6, 4, 2): 1, (2, 2, 2, 2, 2, 2): 2}
    for a, count in alphas.items():
        funcs = [u.epsilon for u in labels if u.partition == a]
        assert len(funcs) == count
        assert funcs[0] == bad_label("Sp", 6, a).epsilon
        assert all(v == 1 for _, v in funcs[0])
        assert len(set(funcs)) == count


def test_label_factories_validate():
    assert good_label("Sp", 2, (2, 2)).partition == (2, 2)
    with pytest.raises(ValueError):
        good_label("Sp", 2, (3, 1))  # odd rows must have even multiplicity
    with pytest.raises(ValueError):
        good_label("O_even", 2, (2, 1, 1))  # even rows must have even multiplicity
    with pytest.raises(ValueError):
        good_label("Sp", 3, (2, 2))  # wrong total
    with pytest.raises(ValueError):
        bad_label("Sp", 2, (3, 1))
    with pytest.raises(ValueError):
        bad_label("GLd", 4, (2, 1, 1))  # even rows must have even multiplicity
    assert bad_label("GLd", 4, (2, 2)).partition == (2, 2)
    # odd orthogonal labels carry an odd number of ones
    assert bad_label("O_odd", 2, (4, 1)).partition == (4, 1)
    assert bad_label("O_odd", 2, (2, 2, 1)).partition == (2, 2, 1)
    with pytest.raises(ValueError):
        bad_label("O_odd", 2, (4, 1, 1, 1))  # wrong total
    with pytest.raises(ValueError):
        bad_label("O_odd", 3, (5, 2))  # even number of 1s
    with pytest.raises(ValueError):
        bad_label("O_odd", 4, (5, 3, 1))  # rows 5 and 3 have odd multiplicity
    with pytest.raises(ValueError):
        bad_label("GLd", 4, (4,), epsilon={2: 1})  # stray epsilon index
    with pytest.raises(ValueError):
        bad_label("GL", 2, (2, 2))  # wrong total
    with pytest.raises(ValueError, match="group 'GL' has no characteristic-2 parameter set"):
        bad_label("GL", 4, (2, 2))
    # both factories refuse by the same group and split-marker checks
    for make in (good_label, bad_label):
        with pytest.raises(ValueError, match="unknown group 'SU'"):
            make("SU", 2, (2, 2))
        with pytest.raises(ValueError, match="bad split marker 'III'"):
            make("Sp", 2, (2, 2), split="III")


@pytest.mark.parametrize(
    "make, group, n, alpha, refusal",
    [
        (good_label, "Sp", 2, (3, 1),
         "(3, 1) is not a valid Sp partition: an odd row has odd multiplicity"),
        (good_label, "O_even", 2, (2, 1, 1),
         "(2, 1, 1) is not a valid O_even partition: an even row has odd multiplicity"),
        (bad_label, "Sp", 2, (3, 1), "(3, 1): an odd row has odd multiplicity"),
        (bad_label, "GLd", 4, (2, 1, 1), "(2, 1, 1): an even row has odd multiplicity"),
    ],
    ids=["good-odd", "good-even", "char2-odd", "char2-even"],
)
def test_a_kappa_refusal_names_the_row_parity(make, group, n, alpha, refusal):
    # a good label names its group, a characteristic-2 label does not
    with pytest.raises(ValueError) as exc:
        make(group, n, alpha)
    assert str(exc.value) == refusal


def test_check_group_is_the_one_gate_on_the_group_side():
    assert check_group("O_even", 3, "2", "twisted") == context("D", 3, "twisted")
    assert check_group("GLd", 3, "2") == context("2A", 3)  # the default component
    no_good = "the twisted component of {} has no unipotent elements in good characteristic"
    # each refusal comes before those listed after it
    for args, refusal in [
        (("SU", 0, "5", "x"), "unknown group 'SU'"),
        (("Sp", 0, "5", "x"), "characteristic must be 'good' or '2'"),
        (("Sp", 0, "good", "x"), "rank 0 out of range for Sp"),
        (("Sp", 2, "good", "x"), "family BC has no component 'x'; its components are id"),
        (("O_even", 2, "good", "twisted"), no_good.format("O(2n)")),
        (("GLd", 2, "good", None), no_good.format("GLd")),
    ]:
        with pytest.raises(ValueError) as exc:
            check_group(*args)
        assert str(exc.value) == refusal


def test_good_leq_is_dominance():
    for a in partitions(6):
        for b in partitions(6):
            la, lb = good_label("GL", 6, a), good_label("GL", 6, b)
            assert good_leq(la, lb) == dominance_leq(a, b)
    with pytest.raises(ValueError):
        good_leq(good_label("GL", 4, (4,)), good_label("Sp", 2, (4,)))


def test_bad_leq_epsilon_strictness():
    lo = bad_label("Sp", 2, (2, 2), epsilon={2: 0})
    hi = bad_label("Sp", 2, (2, 2), epsilon={2: 1})
    assert bad_leq(lo, hi)
    assert not bad_leq(hi, lo)
    top = bad_label("Sp", 2, (4,))
    assert bad_leq(lo, top) and bad_leq(hi, top)
    assert not bad_leq(top, hi)


def test_bad_leq_parity_condition():
    # equal partition sums with odd column difference force the upper
    # epsilon away from zero: at k = 2 both transposes, (4,2,2) and
    # (3,3,1,1), sum to 6, and their third entries differ by 1; every
    # other test passes, so only eps(2) of the upper label decides
    lo = bad_label("Sp", 4, (3, 3, 1, 1))
    assert not bad_leq(lo, bad_label("Sp", 4, (4, 2, 2), epsilon={2: 0}))
    assert bad_leq(lo, bad_label("Sp", 4, (4, 2, 2), epsilon={2: 1}))
    # here the S_k test alone refuses eps(4) = 0 on the upper label
    a = bad_label("Sp", 4, (4, 2, 2), epsilon={2: 1})
    b = bad_label("Sp", 4, (4, 4), epsilon={4: 0})
    assert dominance_leq(a.partition, b.partition)
    assert not bad_leq(a, b)
    b1 = bad_label("Sp", 4, (4, 4), epsilon={4: 1})
    assert bad_leq(a, b1)


def test_bad_leq_component_mismatch_raises():
    inside = bad_label("O_even", 4, (4, 4))  # even length
    outside = bad_label("O_even", 4, (8,))  # odd length
    assert inside.so_component == "SO"
    assert outside.so_component == "O\\SO"
    with pytest.raises(ValueError):
        bad_leq(inside, outside)


def test_bad_leq_is_partial_order_with_unique_max():
    cases = (
        [("Sp", n) for n in range(1, 7)]
        + [("O_odd", n) for n in range(1, 7)]
        + [("O_even", n) for n in range(2, 7)]
        + [("GLd", n) for n in range(2, 13)]
    )
    for group, n in cases:
        labs = [u for u in enumerate_unipotent(group, n, "2") if u.split is None]
        # bad_leq refuses to compare across the two components of O(2n)
        blocks = defaultdict(list)
        for u in labs:
            blocks[u.so_component].append(u)
        for block in blocks.values():
            # up[i]: bitmask of the labels j with block[i] <= block[j]
            up = [
                sum(1 << j for j, b in enumerate(block) if bad_leq(a, b))
                for a in block
            ]
            for i in range(len(block)):
                assert up[i] >> i & 1, (group, n, block[i])
                for j in range(len(block)):
                    if up[i] >> j & 1:
                        assert i == j or not up[j] >> i & 1, (group, n, block[i], block[j])
                        assert up[j] & ~up[i] == 0, (group, n, block[i], block[j])
            by_partition = defaultdict(list)
            for i, u in enumerate(block):
                by_partition[u.partition].append(i)
            for alpha, members in by_partition.items():
                maxima = [i for i in members if all(up[j] >> i & 1 for j in members)]
                assert len(maxima) == 1, (group, n, alpha)
                assert block[maxima[0]] == bad_label(group, n, alpha)


def literal_bad_leq(a, b):
    """The characteristic-2 closure order read off bad_leq's docstring,
    one k at a time with every epsilon value looked up afresh."""
    if not dominance_leq(a.partition, b.partition):
        return False
    ta, tb = transpose(a.partition), transpose(b.partition)
    kmax = max(len(ta), len(tb), a.partition[0] if a.partition else 0)
    sa = sb = 0
    for k in range(1, kmax + 1):
        sa += ta[k - 1] if k <= len(ta) else 0
        sb += tb[k - 1] if k <= len(tb) else 0
        ea = a.epsilon_at(k)
        eb = b.epsilon_at(k)
        if sb - max(eb, 0) > sa - max(ea, 0):
            return False
        if sa == sb:
            nxt_a = ta[k] if k < len(ta) else 0
            nxt_b = tb[k] if k < len(tb) else 0
            if (nxt_a - nxt_b) % 2 == 1 and eb == 0:
                return False
    return True


CLOSURE_CASES = [
    (group, char) for group in ("Sp", "O_odd", "O_even") for char in (GOOD, CHAR2)
] + [("GLd", CHAR2)]


@pytest.mark.parametrize("group,char", CLOSURE_CASES)
def test_closure_orders_match_the_literal_definitions(group, char):
    leq = good_leq if char == GOOD else bad_leq
    refused = 0
    for n in range(least_rank(group), 13 if group == "GLd" else 7):
        labels = enumerate_unipotent(group, n, char)
        for a in labels:
            for b in labels:
                if char == CHAR2 and a.so_component != b.so_component:
                    for f in (leq, unipotent_leq):
                        with pytest.raises(ValueError, match="components of O"):
                            f(a, b)
                    refused += 1
                    continue
                if char == GOOD:
                    want = dominance_leq(a.partition, b.partition)
                else:
                    want = literal_bad_leq(a, b)
                assert leq(a, b) == want, (a, b)
                assert unipotent_leq(a, b) == want, (a, b)
    assert (refused > 0) == (group == "O_even" and char == CHAR2)


def test_missing_free_epsilon_value_is_a_value_error():
    hollow = UnipotentLabel("Sp", 4, CHAR2, (4, 4), ())
    with pytest.raises(ValueError, match="no value stored for free index 4"):
        hollow.epsilon_at(4)
    with pytest.raises(ValueError, match="no value stored for free index 4"):
        bad_leq(hollow, bad_label("Sp", 4, (8,)))


def test_closure_orders_reject_a_partition_of_the_wrong_size():
    short = UnipotentLabel("GL", 4, GOOD, (3,))
    with pytest.raises(ValueError, match="not a partition of 4"):
        good_leq(short, good_label("GL", 4, (4,)))
    with pytest.raises(ValueError, match="not a partition of 4"):
        good_leq(short, short)


GOOD_ONLY = "good_leq compares good-characteristic labels"
CHAR2_ONLY = "bad_leq compares characteristic-2 labels"
GROUPS_DIFFER = "labels from different groups: {a} vs {b}"
COMPONENTS_DIFFER = (
    "labels in different components of O(2n): {a} vs {b}; the closure order does not mix them"
)
KINDS_DIFFER = "cannot compare {a.kind} with {b.kind} labels"


def refused_pair(case):
    """Two labels that no closure order compares, for each way to differ."""
    return {
        "kind": (good_label("Sp", 2, (4,)), bad_label("Sp", 2, (4,))),
        "rank good": (good_label("Sp", 3, (6,)), good_label("Sp", 4, (8,))),
        "rank char2": (bad_label("Sp", 3, (6,)), bad_label("Sp", 4, (8,))),
        "group good": (good_label("Sp", 2, (4,)), good_label("O_odd", 2, (5,))),
        "group char2": (bad_label("Sp", 2, (4,)), bad_label("O_odd", 2, (4, 1))),
        "component": (bad_label("O_even", 4, (4, 4)), bad_label("O_even", 4, (8,))),
        "size good": (UnipotentLabel("GL", 4, GOOD, (3,)), good_label("GL", 4, (4,))),
        "size char2": (UnipotentLabel("Sp", 2, CHAR2, (2,), ()), bad_label("Sp", 2, (4,))),
        "free epsilon": (UnipotentLabel("Sp", 4, CHAR2, (4, 4), ()), bad_label("Sp", 4, (8,))),
        # malformed and from another group: the groups are named first
        "size and group": (UnipotentLabel("GL", 4, GOOD, (3,)), good_label("Sp", 2, (4,))),
    }[case]


# case, then the message of good_leq, bad_leq and unipotent_leq
REFUSALS = [
    ("kind", GOOD_ONLY, CHAR2_ONLY, KINDS_DIFFER),
    ("rank good", GROUPS_DIFFER, CHAR2_ONLY, GROUPS_DIFFER),
    ("rank char2", GOOD_ONLY, GROUPS_DIFFER, GROUPS_DIFFER),
    ("group good", GROUPS_DIFFER, CHAR2_ONLY, GROUPS_DIFFER),
    ("group char2", GOOD_ONLY, GROUPS_DIFFER, GROUPS_DIFFER),
    ("component", GOOD_ONLY, COMPONENTS_DIFFER, COMPONENTS_DIFFER),
    ("size good", "(3,) is not a partition of 4", CHAR2_ONLY, "(3,) is not a partition of 4"),
    ("size char2", GOOD_ONLY, "(2,) is not a partition of 4", "(2,) is not a partition of 4"),
    ("free epsilon", GOOD_ONLY, "no value stored for free index 4",
     "no value stored for free index 4"),
    ("size and group", GROUPS_DIFFER, CHAR2_ONLY, GROUPS_DIFFER),
]


@pytest.mark.parametrize("case,good,bad,either", REFUSALS, ids=[r[0] for r in REFUSALS])
@pytest.mark.parametrize("swap", [False, True], ids=["ab", "ba"])
def test_closure_orders_refuse_mismatched_labels(case, good, bad, either, swap):
    # each order names the first check that fails, by its exact message
    a, b = refused_pair(case)
    if swap:
        a, b = b, a
    for leq, message in ((good_leq, good), (bad_leq, bad), (unipotent_leq, either)):
        with pytest.raises(ValueError) as caught:
            leq(a, b)
        assert str(caught.value) == message.format(a=a, b=b), (leq.__name__, case)


def record_width(guards):
    """The field width of a record: its lowest guard bit is the top bit
    of field 0."""
    return (guards & -guards).bit_length()


def unpack(value, width, count):
    """The count fields of a packed value, the lowest first."""
    return [value >> (f * width) & ((1 << width) - 1) for f in range(count)]


LAYOUT_CASES = CLOSURE_CASES + [("GL", GOOD), ("GL", CHAR2)]


@pytest.mark.parametrize("group,char", LAYOUT_CASES)
def test_record_unpacks_to_the_literal_terms(group, char):
    for n in range(least_rank(group), 5):
        dim = _dim(group, n)
        for u in enumerate_unipotent(group, n, char):
            guards, key, sums, parity, zeros = u._record
            width = record_width(guards)
            assert width == 8, u
            count = dim if u.kind == GOOD else 2 * dim
            assert guards == sum(1 << (f * width + width - 1) for f in range(count))
            alpha = u.partition
            # the prefix sums stay at dim past the last part
            prefix = [sum(alpha[:k]) for k in range(1, dim + 1)]
            if u.kind == GOOD:
                assert unpack(key, width, count) == prefix, u
                assert key >> (count * width) == 0
                assert (sums, parity, zeros) == (0, 0, 0), u
                continue
            ks = range(1, dim + 1)
            # S_k, the k-th prefix sum of the transpose, counts the boxes
            # in the first k columns
            s = [sum(min(p, k) for p in alpha) for k in ks]
            column = [sum(1 for p in alpha if p >= k) for k in range(dim + 2)]
            room = [dim - s[k - 1] + (u.epsilon_at(k) == 1) for k in ks]
            assert unpack(key, width, count) == prefix + room, u
            assert key >> (count * width) == 0
            assert unpack(sums, width, dim) == s, u
            assert sums >> (dim * width) == 0
            top = width - 1
            assert unpack(parity >> top, width, dim) == [column[k + 1] % 2 for k in ks], u
            assert parity >> top >> (dim * width) == 0
            assert unpack(zeros >> top, width, dim) == [int(u.epsilon_at(k) == 0) for k in ks], u
            assert zeros >> top >> (dim * width) == 0


def random_label(rng, group, n, char):
    """A random label of group at rank n, built part by part so that no
    partition of the matrix size need be listed: the rows that kappa
    constrains come in pairs."""
    isogeny = group == "O_odd" and char == CHAR2
    rem = 2 * n if isogeny else _dim(group, n)
    k = kappa(group, char)
    cap = rng.choice((2, 5, rem))
    parts = []
    while rem:
        p = rng.randint(1, min(rem, cap))
        copies = 2 if k is not None and (-1) ** p == k else 1
        if copies * p <= rem:
            parts += [p] * copies
            rem -= copies * p
    alpha = sorted(parts, reverse=True) + [1] * isogeny
    if char == GOOD:
        return good_label(group, n, alpha)
    free = free_indices(group, tuple(alpha))
    return bad_label(group, n, alpha, {i: rng.randint(0, 1) for i in free})


# (group, rank, char, the extreme labels' partitions): matrix sizes 60,
# 61, 60 and 120, past what enumeration reaches; 121, the largest
# one-byte record field a label of enumerate_unipotent or phi can need;
# and 200 and 140, past one byte
WIDE_CASES = [
    ("Sp", 30, GOOD, [(60,), (1,) * 60]),
    ("Sp", 30, CHAR2, [(60,), (1,) * 60, (52, 3, 3, 1, 1), (52, 4, 2, 2)]),
    ("O_odd", 30, GOOD, [(61,), (1,) * 61]),
    ("O_odd", 30, CHAR2, [(60, 1), (1,) * 61]),
    ("GLd", 60, CHAR2, [(59, 1), (1,) * 60]),
    ("GL", 120, GOOD, [(120,), (1,) * 120]),
    ("O_odd", 60, CHAR2, [(120, 1), (1,) * 121]),
    ("GL", 200, GOOD, [(200,), (1,) * 200]),
    ("Sp", 70, CHAR2, [(140,), (1,) * 140, (132, 3, 3, 1, 1), (132, 4, 2, 2)]),
]


@pytest.mark.parametrize(
    "group,n,char,extremes", WIDE_CASES, ids=[f"{g}-{n}-{c}" for g, n, c, _ in WIDE_CASES]
)
def test_wide_fields_match_the_literal_definitions(group, n, char, extremes):
    # the extremes put every field at its largest value; for Sp the
    # second pair differs only by the parity clause at k = 2
    rng = random.Random(f"{group} {n} {char}")
    labels = [random_label(rng, group, n, char) for _ in range(24)]
    if char == GOOD:
        labels += [good_label(group, n, a) for a in extremes]
    else:
        labels += [
            bad_label(group, n, a, {i: v for i in free_indices(group, a)})
            for a in extremes
            for v in (0, 1)
        ]
    # one byte per field up to a matrix size of 127, then two
    guards = labels[0]._record[0]
    assert record_width(guards) == (8 if _dim(group, n) <= 127 else 16)
    held = 0
    for a in labels:
        for b in labels:
            if a.so_component != b.so_component:
                continue
            if char == GOOD:
                want = dominance_leq(a.partition, b.partition)
            else:
                want = literal_bad_leq(a, b)
            assert unipotent_leq(a, b) == want, (a, b)
            held += want
    assert len(labels) < held < len(labels) ** 2


def pairwise_relation(labels):
    """unipotent_leq asked of every ordered pair of distinct positions in
    row-major order, as hasse's pairwise scan asks, with the diagonal
    True."""
    return tuple(
        tuple(i == j or unipotent_leq(a, b) for j, b in enumerate(labels))
        for i, a in enumerate(labels)
    )


def outcome(relation, labels):
    """relation(labels), or the (type, text) of its refusal."""
    try:
        return relation(labels)
    except Exception as exc:
        return type(exc), str(exc)


def unipotent_blocks():
    """Every group, characteristic and SO component that
    enumerate_unipotent lists, at every rank up to 8 (GLd up to 16)."""
    for group, char in LAYOUT_CASES:
        for n in range(least_rank(group), 17 if group == "GLd" else 9):
            blocks = defaultdict(list)
            for u in enumerate_unipotent(group, n, char):
                blocks[u.so_component].append(u)
            yield from ((group, n, char, block) for block in blocks.values())


# the unipotent_order benchmark cases: one diagram per SO component, the
# second member of each split pair left out
BENCH_CASES = [
    (group, n, char, component)
    for n in (7, 8)
    for group, char, component in (
        ("Sp", GOOD, None), ("Sp", CHAR2, None), ("O_odd", GOOD, None),
        ("O_odd", CHAR2, None), ("O_even", GOOD, "SO"), ("O_even", CHAR2, "SO"),
        ("O_even", CHAR2, "O\\SO"),
    )
] + [("GLd", n, CHAR2, None) for n in (14, 15, 16)]


def bench_labels(group, n, char, component):
    return [
        u for u in enumerate_unipotent(group, n, char)
        if u.split != "II" and u.so_component == component
    ]


def relation_blocks():
    """The unipotent_blocks and the benchmark cases: 101 lists."""
    blocks = list(unipotent_blocks())
    blocks += [(*case[:3], bench_labels(*case)) for case in BENCH_CASES]
    assert len(blocks) == 101
    return blocks


def test_unipotent_relation_is_the_pairwise_order():
    # every entry against the literal definition, chosen by label kind:
    # GL labels are good in characteristic 2 too
    for group, n, char, labels in relation_blocks():
        rel = unipotent_relation(labels)
        for a, row in zip(labels, rel):
            for b, x in zip(labels, row):
                if a.kind == GOOD:
                    want = dominance_leq(a.partition, b.partition)
                else:
                    want = literal_bad_leq(a, b)
                assert x == want, (group, n, char, a, b)
        assert all(type(x) is bool for row in rel for x in row)


def test_unipotent_relation_does_not_depend_on_the_order():
    # the relation lays its rows out by partition; any input order gives
    # the enumeration order's relation, permuted
    blocks = relation_blocks()
    # among them both split twins, and O_odd characteristic-2 labels,
    # which carry the appended 1
    assert any({"I", "II"} <= {u.split for u in labels} for *_, labels in blocks)
    assert any(group == "O_odd" and char == CHAR2 and len(labels) > 2
               for group, n, char, labels in blocks)
    for group, n, char, labels in blocks:
        rel = unipotent_relation(labels)
        m = len(labels)
        orders = [list(range(m))[::-1]]
        orders += [random.Random(seed).sample(range(m), m) for seed in (1, 2)]
        for order in orders:
            got = unipotent_relation([labels[i] for i in order])
            assert got == tuple(tuple(rel[i][j] for j in order) for i in order), (group, n, char)


def test_unipotent_relation_permutes_only_input_out_of_order(monkeypatch):
    def refused(*items):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr(unipotent, "itemgetter", refused)
    blocks = relation_blocks()
    for *_, labels in blocks:
        unipotent_relation(labels)
    monkeypatch.undo()
    # input out of order builds one permutation, applied to every row
    built = []

    def counted(*items):
        built.append(items)
        return itemgetter(*items)

    monkeypatch.setattr(unipotent, "itemgetter", counted)
    for *_, labels in blocks:
        built.clear()
        unipotent_relation(labels[::-1])
        assert len(built) == (len({u.partition for u in labels}) > 1), labels


def test_unipotent_leq_reads_its_entry_of_the_relation(monkeypatch):
    # the relation asks no pair of unipotent_leq
    asked = []

    def counted(a, b, leq=unipotent_leq):
        asked.append((a, b))
        return leq(a, b)

    monkeypatch.setattr(unipotent, "unipotent_leq", counted)
    for case in BENCH_CASES:
        unipotent_relation(bench_labels(*case))
    assert asked == []
    monkeypatch.undo()
    # and unipotent_leq answers with the pair's entry of the relation
    read = []

    def fake(labels):
        read.append(labels)
        return ((None, "entry"), (None, None))

    a, b = bench_labels("Sp", 7, CHAR2, None)[:2]
    monkeypatch.setattr(unipotent, "unipotent_relation", fake)
    assert unipotent_leq(a, b) == "entry"
    assert read == [(a, b)]


def foreign_labels():
    """Labels that a block of O_even rank 4 characteristic-2 labels in the
    SO component refuses: of another kind, group, rank or component, with
    a partition of the wrong size, or missing a free epsilon value."""
    return [
        good_label("O_even", 4, (5, 3)),
        bad_label("Sp", 4, (8,)),
        bad_label("O_even", 3, (6,)),
        bad_label("O_even", 4, (8,)),
        UnipotentLabel("O_even", 4, CHAR2, (4, 2), ()),
        UnipotentLabel("O_even", 4, CHAR2, (4, 4), ()),
    ]


def test_unipotent_relation_refuses_as_the_pairwise_scan():
    cases = [[], [bad_label("Sp", 2, (4,))], [UnipotentLabel("GL", 4, GOOD, (3,))]]
    for case, *_ in REFUSALS:
        pair = list(refused_pair(case))
        cases += [pair, pair[::-1]]
    block = bench_labels("O_even", 4, CHAR2, "SO")
    for odd in foreign_labels():
        cases += [block[:k] + [odd] + block[k:] for k in (0, 1, 3, len(block))]
    for first, second in itertools.permutations(foreign_labels(), 2):
        cases += [block[:1] + [first] + block[1:3] + [second] + block[3:]]
        cases += [[first] + block + [second]]
    refused = 0
    for labels in cases:
        want = outcome(pairwise_relation, labels)
        assert outcome(unipotent_relation, labels) == want, labels
        refused += bool(want) and isinstance(want[0], type)
    assert refused == len(cases) - 3
    # fewer than two labels ask nothing, so a malformed label alone passes
    assert unipotent_relation([]) == ()
    assert unipotent_relation(cases[2]) == ((True,),)


@pytest.mark.parametrize("group,n,char", [
    # every group, characteristic and SO component of the benchmark's
    # unipotent_order workload, at lower ranks; an O_even case is named
    # by its rank and characteristic alone
    *(pytest.param(group, n, char, id=f"{n}-{char}" if group == "O_even" else None)
      for group in ("Sp", "O_odd", "O_even") for n in (4, 5, 6) for char in (GOOD, CHAR2)),
    *(("GLd", n, CHAR2) for n in range(8, 13)),
])
def test_hasse_reads_the_relation_as_it_would_ask_each_pair(group, n, char, monkeypatch):
    # a plain wrapper has no relation attribute and is asked pair by pair
    def plain(a, b):
        return unipotent_leq(a, b)

    labels = enumerate_unipotent(group, n, char)
    blocks = defaultdict(list)
    for u in labels:
        if u.split != "II":
            blocks[u.so_component].append(u)
    assert unipotent_leq.relation is unipotent_relation
    # enumeration order puts every up-set before its node, so it is not
    # laid out again
    monkeypatch.delattr(classposet, "itemgetter")
    diagrams = [hasse(block, unipotent_leq) for block in blocks.values()]
    for block, diagram in zip(blocks.values(), diagrams):
        assert hasse(block, plain) == diagram
    monkeypatch.undo()
    # the reverse puts every up-set after its node, so it is laid out
    # again, once, and gives the same covers
    laid = []

    def counted(*items):
        laid.append(items)
        return itemgetter(*items)

    monkeypatch.setattr(classposet, "itemgetter", counted)
    for block, diagram in zip(blocks.values(), diagrams):
        last = len(block) - 1
        want = sorted((last - i, last - j) for i, j in diagram.covers)
        for leq in (unipotent_leq, plain):
            laid.clear()
            assert list(hasse(block[::-1], leq).covers) == want
            assert len(laid) == 1 and len(block) > 1
    monkeypatch.undo()
    # split twins compare both ways, and both inputs name the same pair
    twins = [u for u in labels if u.split is not None and u.so_component == "SO"]
    assert bool(twins) == (group == "O_even" and n % 2 == 0)
    if not twins:
        return
    texts = set()
    for leq in (unipotent_leq, plain):
        with pytest.raises(PosetError, match="antisymmetry violated") as caught:
            hasse([u for u in labels if u.so_component == "SO"], leq)
        texts.add(str(caught.value))
    [text] = texts
    assert repr(twins[1]) in text and repr(twins[0]) in text


def test_library_refuses_ranks_below_the_least_rank():
    for group, n, char in (("Sp", 0, GOOD), ("O_even", 1, CHAR2), ("GLd", 1, CHAR2),
                           ("Sp", -1, GOOD)):
        message = f"rank {n} out of range for {group}"
        with pytest.raises(ValueError, match=message):
            enumerate_unipotent(group, n, char)
        make = good_label if char == GOOD else bad_label
        with pytest.raises(ValueError, match=message):
            make(group, n, ())


def test_split_markers_compare_as_base():
    one, two = (
        u
        for u in enumerate_unipotent("O_even", 4, "2")
        if u.partition == (4, 4) and u.split is not None
    )
    assert one.split == "I" and two.split == "II"
    assert bad_leq(one, two) and bad_leq(two, one)
    assert one != two


def test_unipotent_leq_dispatch():
    assert unipotent_leq(good_label("Sp", 2, (2, 2)), good_label("Sp", 2, (4,)))
    assert unipotent_leq(
        bad_label("Sp", 2, (2, 2), epsilon={2: 0}), bad_label("Sp", 2, (4,))
    )
    with pytest.raises(ValueError):
        unipotent_leq(good_label("Sp", 2, (4,)), bad_label("Sp", 2, (4,)))


def test_theta2_worked_example():
    lab = bad_label("O_even", 9, (6, 6, 4, 2))
    out = theta2(lab)
    assert out.partition == (7, 5, 5, 1)
    assert out.group == "O_even" and out.kind == "good"
    assert theta2_columns((6, 6, 4, 2)) == (4, 3, 3, 3, 3, 1, 1)
    assert theta2_column_recipe((6, 6, 4, 2)) == (7, 5, 5, 1)


def test_theta2_cases():
    # symplectic: partition kept
    assert theta2(bad_label("Sp", 3, (4, 2))).partition == (4, 2)
    # odd orthogonal: strip the one, transfer, restore by parity
    assert theta2(bad_label("O_odd", 2, (4, 1))).partition == (5,)
    assert theta2(bad_label("O_odd", 2, (2, 2, 1))).partition == (3, 1, 1)
    assert theta2(bad_label("O_odd", 3, (4, 2, 1))).partition == (5, 1, 1)
    assert theta2(bad_label("O_odd", 4, (4, 4, 1))).partition == (5, 3, 1)


def test_theta2_rejects():
    with pytest.raises(ValueError):
        theta2(good_label("Sp", 2, (4,)))
    with pytest.raises(ValueError):
        theta2(bad_label("GLd", 3, (3,)))
    lab = bad_label("Sp", 2, (2, 2), epsilon={2: 0})
    with pytest.raises(ValueError):
        theta2(lab)  # epsilon below maximum
    with pytest.raises(ValueError):
        theta2(bad_label("O_odd", 4, (3, 3, 2, 1)))  # odd parts beside the 1


def test_recipe_matches_add_psi():
    for m in range(1, 9):
        for a in partitions(m):
            ev = tuple(2 * p for p in a)
            assert theta2_column_recipe(ev) == add_psi(ev)


def test_enumerate_counts():
    assert len(enumerate_unipotent("Sp", 2, "good")) == 4
    assert len(enumerate_unipotent("Sp", 2, "2")) == 5
    good8 = enumerate_unipotent("O_even", 4, "good")
    assert len(good8) == 12
    bad8 = [u for u in enumerate_unipotent("O_even", 4, "2") if u.so_component == "SO"]
    assert len(bad8) == 12
    # odd orthogonal labels in characteristic 2 biject with symplectic
    # ones by dropping the trailing 1
    for n in range(1, 6):
        sp = enumerate_unipotent("Sp", n, "2")
        oo = enumerate_unipotent("O_odd", n, "2")
        assert len(sp) == len(oo)
        assert {u.partition for u in oo} == {
            tuple(sorted(u.partition + (1,), reverse=True)) for u in sp
        }
    with pytest.raises(ValueError):
        enumerate_unipotent("GLd", 4, "good")  # no unipotents there
    with pytest.raises(
        ValueError, match="the twisted component of GLd has no unipotent elements in good"
    ):
        good_label("GLd", 3, (2, 1))


def test_enumerate_good_splits():
    parts = [
        (format_unipotent(u)) for u in enumerate_unipotent("O_even", 4, "good")
    ]
    assert "[4,4]_I" in parts and "[4,4]_II" in parts
    assert "[2,2,2,2]_I" in parts and "[2,2,2,2]_II" in parts
    assert "[4,4]" not in parts


def test_enumerate_members_valid():
    for group, n, char in [
        ("Sp", 4, "good"),
        ("Sp", 4, "2"),
        ("O_odd", 3, "good"),
        ("O_odd", 3, "2"),
        ("O_even", 3, "good"),
        ("O_even", 3, "2"),
        ("GLd", 5, "2"),
        ("GL", 4, "good"),
    ]:
        labs = enumerate_unipotent(group, n, char)
        assert len(set(labs)) == len(labs)
        for u in labs:
            assert u.group == group


def test_label_factories_accept_exactly_the_enumerated_partitions():
    # good_label and bad_label read the kappa rule enumerate_unipotent
    # lists by, so they accept the same partitions of the matrix size
    for group in GROUP_FAMILY:
        for char in (GOOD, CHAR2):
            if group == "GLd" and char == GOOD:
                continue  # refused by both (test_enumerate_counts)
            make = good_label if char == GOOD or group == "GL" else bad_label
            for n in range(least_rank(group), 8):
                listed = {u.partition for u in enumerate_unipotent(group, n, char)}
                for a in partitions(_dim(group, n)):
                    try:
                        make(group, n, a)
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == (a in listed), (group, char, n, a)


def rebuild(group, n, kind, a, eps, split):
    if kind == GOOD:
        return good_label(group, n, a, split=split)
    return bad_label(group, n, a, dict(eps), split=split)


def test_label_factories_accept_exactly_the_enumerated_labels():
    # the factories read the split rule the enumeration lists by: each
    # listed label is rebuilt equal from its partition, epsilon values and
    # marker, and a marker is accepted only on a listed label
    for group in GROUP_FAMILY:
        for char in (GOOD, CHAR2):
            if group == "GLd" and char == GOOD:
                continue  # refused by both (test_enumerate_counts)
            kind = CHAR2 if char == CHAR2 and group != "GL" else GOOD
            for n in range(least_rank(group), 7):
                listed = set(enumerate_unipotent(group, n, char))
                for u in listed:
                    assert rebuild(group, n, kind, u.partition, u.epsilon, u.split) == u
                for a in {u.partition for u in listed}:
                    free = free_indices(group, a) if kind == CHAR2 else ()
                    for values in itertools.product((1, 0), repeat=len(free)):
                        eps = tuple(zip(free, values)) if kind == CHAR2 else None
                        for split in ("I", "II"):
                            if UnipotentLabel(group, n, kind, a, eps, split) in listed:
                                continue
                            with pytest.raises(ValueError, match=f"does not split in {group}$"):
                                rebuild(group, n, kind, a, eps, split)


def test_format_unipotent():
    assert format_unipotent(good_label("Sp", 2, (4,))) == "[4]"
    assert format_unipotent(bad_label("Sp", 2, (4,))) == "([4],*)"
    assert format_unipotent(bad_label("Sp", 2, (2, 2))) == "([2,2],ε(2)=1)"
    assert (
        format_unipotent(bad_label("Sp", 6, (4, 4, 2, 2)))
        == "([4,4,2,2],ε(4)=ε(2)=1)"
    )
    mixed = bad_label("Sp", 6, (4, 4, 2, 2), epsilon={4: 1, 2: 0})
    assert format_unipotent(mixed) == "([4,4,2,2],ε(4)=1,ε(2)=0)"
    # a run continues only the last run, never an earlier one of its value
    alpha = (6, 6, 4, 4, 2, 2)
    for values, text in (((1, 0, 1), "ε(6)=1,ε(4)=0,ε(2)=1"),
                         ((1, 0, 0), "ε(6)=1,ε(4)=ε(2)=0")):
        u = bad_label("Sp", 12, alpha, epsilon=dict(zip((6, 4, 2), values)))
        assert format_unipotent(u) == str(u) == f"([6,6,4,4,2,2],{text})"


def test_label_to_json():
    payload = label_to_json(bad_label("O_even", 4, (4, 4)))
    assert payload == {
        "partition": [4, 4],
        "group": "O",
        "epsilon": {"4": 1},
        "family": "minus_one",
        "component": "SO",
    }
    payload = label_to_json(good_label("Sp", 2, (4,)))
    assert payload["partition"] == [4]
    assert payload["group"] == "Sp"
    assert "epsilon" not in payload


@pytest.mark.parametrize("group", ["Sp", "O_odd", "O_even", "GLd"])
def test_label_to_json_names_the_forced_row_parity(group):
    # "minus_one" exactly where odd rows are forced to omega (a row of 1s
    # of multiplicity 2 is then not free)
    for n in range(least_rank(group), 7):
        for u in enumerate_unipotent(group, n, CHAR2):
            odd_forced = unipotent._forced_value(u.group, 1, 2) == OMEGA
            want = "minus_one" if odd_forced else "plus_one"
            assert label_to_json(u)["family"] == want, u
