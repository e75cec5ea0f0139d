import random
from collections import Counter

import pytest

from weylunip import weylgroup as wg
from weylunip.classposet import (
    EllipticClassLabel,
    PosetError,
    class_leq_W,
    elliptic_classes,
    elliptic_label,
    hasse,
    hasse_to_dot,
    hasse_to_json,
    weyl_relation,
)
from weylunip.partitions import dominance_leq, partitions

from oracle import (
    class_leq_W_all_variants,
    count_entry,
    first_below,
    leftmost_descent_leq,
    min_length_elements,
    predicted_leq_W,
    refuting_entry,
    related_min_pair,
)


def test_elliptic_label_validation():
    bc = wg.context("BC", 4)
    assert elliptic_label(bc, (2, 1, 1)).partition == (2, 1, 1)
    with pytest.raises(ValueError):
        elliptic_label(bc, (2, 1))  # wrong total
    d_id = wg.context("D", 4, "id")
    assert elliptic_label(d_id, (3, 1)).partition == (3, 1)
    with pytest.raises(ValueError):
        elliptic_label(d_id, (2, 1, 1))  # odd number of parts
    d_tw = wg.context("D", 4, "twisted")
    assert elliptic_label(d_tw, (2, 1, 1)).partition == (2, 1, 1)
    with pytest.raises(ValueError):
        elliptic_label(d_tw, (2, 2))
    ta = wg.context("2A", 5)
    assert elliptic_label(ta, (3, 1, 1)).partition == (3, 1, 1)
    with pytest.raises(ValueError):
        elliptic_label(ta, (4, 1))  # even part
    a = wg.context("A", 5)
    assert elliptic_label(a, (5,)).partition == (5,)
    with pytest.raises(ValueError):
        elliptic_label(a, (4, 1))


def test_elliptic_classes_contents():
    assert [c.partition for c in elliptic_classes(wg.context("BC", 3))] == [
        (3,),
        (2, 1),
        (1, 1, 1),
    ]
    assert [c.partition for c in elliptic_classes(wg.context("D", 4, "id"))] == [
        (3, 1),
        (2, 2),
        (1, 1, 1, 1),
    ]
    assert [c.partition for c in elliptic_classes(wg.context("D", 4, "twisted"))] == [
        (4,),
        (2, 1, 1),
    ]
    assert [c.partition for c in elliptic_classes(wg.context("2A", 5))] == [
        (5,),
        (3, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert [c.partition for c in elliptic_classes(wg.context("A", 4))] == [(4,)]


def test_label_str():
    assert str(elliptic_label(wg.context("BC", 3), (2, 1))) == "[2,1]"
    assert str(elliptic_label(wg.context("2A", 3), (3,))) == "[3]*d"
    assert str(elliptic_label(wg.context("D", 4, "twisted"), (4,))) == "[4]*d"


def test_class_leq_requires_same_context():
    a = elliptic_label(wg.context("BC", 3), (3,))
    b = elliptic_label(wg.context("BC", 4), (4,))
    with pytest.raises(ValueError):
        class_leq_W(a, b)
    # the refusal names the groups in argument order
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError) as info:
            class_leq_W(x, y)
        assert str(info.value) == f"class labels from different groups: {x.ctx} vs {y.ctx}"


def test_class_leq_rejects_a_label_built_without_validation():
    ctx = wg.context("D", 4, "id")
    odd = EllipticClassLabel(ctx, (2, 1, 1))  # twisted-side class
    with pytest.raises(ValueError, match="not an elliptic class"):
        class_leq_W(odd, elliptic_label(ctx, (3, 1)))
    with pytest.raises(ValueError, match="not an elliptic class"):
        class_leq_W(elliptic_label(ctx, (3, 1)), odd)


def test_class_leq_refuses_a_bad_label_before_building_the_relation():
    ctx = wg.context("BC", 8)
    good = elliptic_label(ctx, (8,))
    weyl_relation.cache_clear()
    for pair in ((EllipticClassLabel(ctx, (9,)), good), (good, EllipticClassLabel(ctx, (9,)))):
        with pytest.raises(ValueError, match=r"^\(9,\) is not an elliptic class of "):
            class_leq_W(*pair)
    assert weyl_relation.cache_info().misses == 0


def brute_class_leq(a, b):
    """Definition-level comparison: some minimal element of b dominates
    some element of a, with no representative formulas or length cuts."""
    ctx = a.ctx
    w = min(min_length_elements(ctx, b.partition))
    return any(
        wg.bruhat_leq_generic(ctx, x, w)
        for x in wg.enumerate_class(ctx, a.partition)
    )


@pytest.mark.parametrize(
    "fam,n,comp",
    [
        ("BC", 3, None),
        ("BC", 4, None),
        ("D", 4, "id"),
        ("D", 4, "twisted"),
        ("D", 5, "twisted"),
        ("2A", 5, None),
        ("2A", 6, None),
    ],
)
def test_class_leq_matches_brute_force(fam, n, comp):
    ctx = wg.context(fam, n, comp)
    cls = elliptic_classes(ctx)
    for a in cls:
        for b in cls:
            assert class_leq_W(a, b) == brute_class_leq(a, b)


@pytest.mark.parametrize(
    "fam,n,comp",
    [("BC", 5, None), ("D", 6, "id"), ("D", 6, "twisted"), ("2A", 7, None)],
)
def test_class_leq_reverses_dominance(fam, n, comp):
    ctx = wg.context(fam, n, comp)
    cls = elliptic_classes(ctx)
    for a in cls:
        for b in cls:
            want = dominance_leq(b.partition, a.partition)
            assert class_leq_W(a, b) == want
            assert predicted_leq_W(a, b) == want


RELATION_CONTEXTS = (
    [("A", n, None) for n in range(2, 7)]
    + [("BC", n, None) for n in range(1, 7)]
    + [("D", n, comp) for n in range(2, 7) for comp in ("id", "twisted")]
    + [("2A", n, None) for n in range(2, 9)]
)


def pairwise_leq_W(a, b):
    """The order pair by pair, with nothing shared between pairs: build
    the minimal-length elements of a and scan them for one below the
    representative of b, False at once when they are longer."""
    ctx = a.ctx
    lower = tuple(wg._min_length_set(ctx, wg.class_rep(ctx, a.partition)))
    w = wg.class_rep(ctx, b.partition)
    la = wg.length(ctx, lower[0])
    if la > wg.length(ctx, w):
        return False
    chain, path = wg.descent_walk(ctx, w)
    return any(wg.bruhat_leq_walk(ctx, x, la, chain, path) for x in lower)


@pytest.mark.parametrize("fam,n,comp", RELATION_CONTEXTS)
def test_weyl_relation_matches_the_pairwise_order(fam, n, comp):
    ctx = wg.context(fam, n, comp)
    cls = elliptic_classes(ctx)
    rel = weyl_relation(ctx)
    # tuples all the way down: the cached value cannot be changed by a caller
    assert type(rel) is tuple and all(type(row) is tuple for row in rel)
    assert len(rel) == len(cls) and all(len(row) == len(cls) for row in rel)
    for i, a in enumerate(cls):
        for j, b in enumerate(cls):
            assert rel[i][j] is pairwise_leq_W(a, b)
            assert rel[i][j] is class_leq_W(a, b)
            assert rel[i][j] is predicted_leq_W(a, b)


@pytest.mark.parametrize(
    "fam,n,comp",
    [("BC", 6, None), ("2A", 8, None)]
    + [("D", n, comp) for n in (5, 6) for comp in ("id", "twisted")],
)
def test_weyl_relation_walks_only_to_confirm_D(fam, n, comp, monkeypatch):
    # the packed count test decides A, BC and 2A alone; in D it lets
    # through little more than the pairs that hold, so a cold relation
    # walks at most once per pair that passes the length test
    ctx = wg.context(fam, n, comp)
    walks = Counter()
    walk = wg._bruhat_leq

    def counted(*args):
        walks["calls"] += 1
        return walk(*args)

    monkeypatch.setattr(wg, "_bruhat_leq", counted)
    weyl_relation.cache_clear()
    try:
        weyl_relation(ctx)
    finally:
        weyl_relation.cache_clear()
    if fam != "D":
        assert walks["calls"] == 0
        return
    lengths = [wg.length(ctx, wg.class_rep(ctx, a)) for a in wg.elliptic_partitions(ctx)]
    assert 0 < walks["calls"] <= sum(la <= lb for la in lengths for lb in lengths)


@pytest.mark.parametrize(
    "fam,n,comp",
    [("BC", 6, None), ("D", 6, "id"), ("D", 6, "twisted"), ("2A", 8, None)],
)
def test_weyl_relation_ends_each_row_once_it_is_settled(fam, n, comp, monkeypatch):
    # a row reads its minimal-length set only until every class it can
    # still reach is settled; here that is about 2 % of all the sets, so
    # a row that reads its whole set again fails the 10 % bound
    ctx = wg.context(fam, n, comp)
    full = sum(
        sum(1 for _ in wg._min_length_set(ctx, wg.class_rep(ctx, a)))
        for a in wg.elliptic_partitions(ctx)
    )
    drawn = Counter()
    build = wg._min_length_set

    def counted(ctx, rep):
        for x in build(ctx, rep):
            drawn["elements"] += 1
            yield x

    monkeypatch.setattr(wg, "_min_length_set", counted)
    weyl_relation.cache_clear()
    try:
        weyl_relation(ctx)
    finally:
        weyl_relation.cache_clear()
    assert 0 < drawn["elements"] <= full // 10


@pytest.mark.parametrize("comp", ["id", "twisted"])
def test_weyl_relation_in_D_rests_on_the_walk(comp, monkeypatch):
    # in D the packed test is only necessary; with a filter that lets
    # every element through, the confirming walks alone give the order.
    # D 8 is the least rank whose order is not the order of lengths.
    ctx = wg.context("D", 8, comp)
    cls = elliptic_classes(ctx)
    lengths = [wg.length(ctx, wg.class_rep(ctx, c.partition)) for c in cls]
    want = tuple(tuple(predicted_leq_W(a, b) for b in cls) for a in cls)
    assert want != tuple(tuple(la <= lb for lb in lengths) for la in lengths)
    monkeypatch.setattr(wg, "fields_leq", lambda a, b, guards: guards)
    weyl_relation.cache_clear()
    try:
        assert weyl_relation(ctx) == want
    finally:
        weyl_relation.cache_clear()


def test_condition_variants_agree():
    for fam, n, comp in [("BC", 4, None), ("D", 4, "id"), ("2A", 5, None)]:
        ctx = wg.context(fam, n, comp)
        cls = elliptic_classes(ctx)
        for a in cls:
            for b in cls:
                rec = class_leq_W_all_variants(a, b)
                assert rec.all_agree()
                assert rec.some_min_to_min == class_leq_W(a, b)


@pytest.mark.parametrize("fam,n,comp,entries", [
    ("BC", 7, None, 2),
    ("D", 8, "id", 2),
    ("D", 8, "twisted", 1),
    ("2A", 10, None, 1),
])
def test_no_minimal_element_lies_below_an_unrelated_longer_class(fam, n, comp, entries):
    # weyl_relation asks whether some element of C_min(a) lies below
    # rep(b) alone.  Where it says no although a is shorter than b, no
    # element of C_min(b) lies above any element of C_min(a), so every
    # quantification over the two minimal-length sets says no too.  These
    # are the least ranks at which such entries occur
    ctx = wg.context(fam, n, comp)
    cls = elliptic_classes(ctx)
    rel = weyl_relation(ctx)
    reps = [wg.class_rep(ctx, c.partition) for c in cls]
    lengths = [wg.length(ctx, w) for w in reps]
    longer = [(i, j) for i in range(len(cls)) for j in range(len(cls)) if lengths[i] < lengths[j]]
    unrelated = [(i, j) for i, j in longer if not rel[i][j]]
    assert len(unrelated) == entries
    # a related entry shows the oracle finds a pair where there is one
    related = next((i, j) for i, j in longer if rel[i][j])
    for (i, j), want in [(pair, False) for pair in unrelated] + [(related, True)]:
        lower = tuple(wg._min_length_set(ctx, reps[i]))
        upper = tuple(wg._min_length_set(ctx, reps[j]))
        pair = related_min_pair(ctx, lower, upper)
        assert (pair is not None) is want, (cls[i], cls[j], pair)
        if want:
            assert leftmost_descent_leq(ctx, *pair), pair


@pytest.mark.parametrize("fam,n,comp", [("BC", 5, None), ("D", 5, "id"), ("D", 5, "twisted")])
def test_refuting_entry_reads_the_whole_minimal_length_set(fam, n, comp):
    # the entries kept are those every minimal-length element exceeds,
    # here with the set picked out of the whole-group sweep; in each of
    # these contexts rep(a) alone exceeds rep(b) at more entries
    ctx = wg.context(fam, n, comp)
    alphas = wg.elliptic_partitions(ctx)
    reps = [wg.class_rep(ctx, a) for a in alphas]
    cells = [(p, q) for p in range(-n, n + 1) for q in range(-n, n + 1)]
    for i, alpha in enumerate(alphas):
        lower = min_length_elements(ctx, alpha)
        for j, b in enumerate(reps):
            want = [e for e in cells if all(count_entry(x, *e) > count_entry(b, *e) for x in lower)]
            assert list(refuting_entry(ctx, i, j)) == want, (alpha, alphas[j])


@pytest.mark.parametrize("fam,n,comp,entries", [
    ("BC", 8, None, 11),
    ("BC", 9, None, 25),
    ("D", 8, "id", 2),
    ("D", 8, "twisted", 1),
    ("D", 9, "id", 3),
    ("D", 9, "twisted", 4),
])
def test_a_count_entry_refutes_exactly_the_unrelated_longer_classes(fam, n, comp, entries):
    # past the ranks the oracle can sweep, each entry where weyl_relation
    # says no although a is shorter than b is certified without the
    # packed keys: some literal count entry is larger on every element
    # of C_min(a) than on rep(b), which rules out x <= rep(b) in BC and
    # D.  Where it says yes, some x <= rep(b) leaves no such entry
    ctx = wg.context(fam, n, comp)
    cls = elliptic_classes(ctx)
    rel = weyl_relation(ctx)
    lengths = [wg.length(ctx, wg.class_rep(ctx, c.partition)) for c in cls]
    longer = [(i, j) for i in range(len(cls)) for j in range(len(cls)) if lengths[i] < lengths[j]]
    assert sum(not rel[i][j] for i, j in longer) == entries
    wrong = [(cls[i], cls[j]) for i, j in longer if bool(refuting_entry(ctx, i, j)) == rel[i][j]]
    assert wrong == []


@pytest.mark.parametrize("fam,n,entries,uppers", [("BC", 7, 101, 13530), ("2A", 10, 43, 13731)])
def test_every_minimal_element_of_a_related_longer_class_lies_above_one(fam, n, entries, uppers):
    # weyl_relation asks whether some element of C_min(a) lies below
    # rep(b) alone.  Where it says yes and a is shorter than b, every
    # element of C_min(b) lies above some element of C_min(a): the
    # "every" quantification agrees.  D 8's 108 such entries take
    # several seconds through the oracle's walk, so they are not here
    ctx = wg.context(fam, n)
    cls = elliptic_classes(ctx)
    rel = weyl_relation(ctx)
    reps = [wg.class_rep(ctx, c.partition) for c in cls]
    lengths = [wg.length(ctx, w) for w in reps]
    sets = [tuple(wg._min_length_set(ctx, w)) for w in reps]
    related = [
        (i, j)
        for i in range(len(cls))
        for j in range(len(cls))
        if lengths[i] < lengths[j] and rel[i][j]
    ]
    assert (len(related), sum(len(sets[j]) for _, j in related)) == (entries, uppers)
    for i, j in related:
        below = list(first_below(ctx, sets[i], sets[j]))
        assert None not in below, (cls[i], cls[j], sets[j][below.index(None)])


def test_hasse_of_dominance():
    # dominance is a chain through n = 5; at n = 6 the first two
    # incomparable pairs appear, giving two diamonds
    chain = hasse(list(partitions(5)), dominance_leq)
    assert len(chain.covers) == 6
    ps = list(partitions(6))
    diagram = hasse(ps, dominance_leq)
    idx = {p: i for i, p in enumerate(diagram.nodes)}
    expected = {
        ((1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1)),
        ((2, 1, 1, 1, 1), (2, 2, 1, 1)),
        ((2, 2, 1, 1), (2, 2, 2)),
        ((2, 2, 1, 1), (3, 1, 1, 1)),
        ((2, 2, 2), (3, 2, 1)),
        ((3, 1, 1, 1), (3, 2, 1)),
        ((3, 2, 1), (3, 3)),
        ((3, 2, 1), (4, 1, 1)),
        ((3, 3), (4, 2)),
        ((4, 1, 1), (4, 2)),
        ((4, 2), (5, 1)),
        ((5, 1), (6,)),
    }
    assert set(diagram.covers) == {(idx[a], idx[b]) for a, b in expected}


def cubic_covers(nodes, leq):
    """Covers by their definition: i < j with no k strictly between."""
    m = len(nodes)
    less = [[i != j and leq(nodes[i], nodes[j]) for j in range(m)] for i in range(m)]
    return [
        (i, j)
        for i in range(m)
        for j in range(m)
        if less[i][j] and not any(less[i][k] and less[k][j] for k in range(m))
    ]


def random_order(rng, m, density):
    """The transitive closure of a random DAG on 0..m-1, as a leq
    predicate, and its elements in shuffled order (so that index order
    is not a linear extension)."""
    above = [set() for _ in range(m)]
    for i in reversed(range(m)):
        for j in range(i + 1, m):
            if rng.random() < density and j not in above[i]:
                above[i] |= {j} | above[j]
    return rng.sample(range(m), m), lambda x, y: x == y or y in above[x]


def with_relation(leq):
    """leq with a relation attribute, so that hasse reads the whole
    matrix at once instead of asking pair by pair."""
    def read(x, y):
        return leq(x, y)

    read.relation = lambda nodes: tuple(tuple(bool(leq(x, y)) for y in nodes) for x in nodes)
    return read


def refusal(nodes, leq):
    """The text of hasse's refusal of leq, which must be the same on
    both inputs."""
    texts = set()
    for path in (leq, with_relation(leq)):
        with pytest.raises(PosetError) as exc:
            hasse(nodes, path)
        texts.add(str(exc.value))
    [text] = texts
    return text


@pytest.mark.parametrize("seed", range(6))
def test_hasse_matches_cubic_definition_on_random_orders(seed):
    rng = random.Random(seed)
    for m in (0, 1, 2, 3, 8, 20, 40):
        for density in (0.05, 0.2, 0.6):
            nodes, leq = random_order(rng, m, density)
            diagram = hasse(nodes, leq)
            assert list(diagram.covers) == cubic_covers(nodes, leq)
            assert diagram.nodes == tuple(nodes)
            # the whole matrix at once, with the nodes in a linear
            # extension, in its reverse and shuffled
            for order in (sorted(nodes), sorted(nodes, reverse=True), nodes):
                covers = hasse(order, with_relation(leq)).covers
                assert list(covers) == cubic_covers(order, leq)


def test_hasse_lays_out_again_an_order_that_is_nearly_sorted():
    # a chain listed upward or downward with one run of three reversed:
    # its first or last bit is no longer minimal, wherever the run lies
    m = 40
    for chain in (list(range(m)), list(range(m))[::-1]):
        for k in range(m - 2):
            nodes = chain[:k] + chain[k:k + 3][::-1] + chain[k + 3:]
            where = {x: i for i, x in enumerate(nodes)}
            want = sorted((where[x], where[x + 1]) for x in range(m - 1))
            for leq in (int.__le__, with_relation(int.__le__)):
                assert list(hasse(nodes, leq).covers) == want


def test_hasse_matches_cubic_definition_on_dominance():
    ps = list(partitions(8))
    assert list(hasse(ps, dominance_leq).covers) == cubic_covers(ps, dominance_leq)


def test_hasse_of_one_node_has_no_covers():
    assert hasse(["x"], lambda x, y: True).covers == ()


def test_hasse_rejects_non_antisymmetric():
    with pytest.raises(PosetError):
        hasse(["a", "b"], lambda x, y: True)
    # one pair related both ways inside an otherwise valid order
    nodes, leq = random_order(random.Random(0), 12, 0.3)
    lo, hi = next((x, y) for x in nodes for y in nodes if x != y and leq(x, y))
    with pytest.raises(PosetError, match="antisymmetry violated"):
        hasse(nodes, lambda x, y: leq(x, y) or (x, y) == (hi, lo))


@pytest.mark.parametrize("nodes,both_ways,first", [
    # every pair related both ways: row b meets a first
    ("abc", {(x, y) for x in "abc" for y in "abc"}, ("b", "a")),
    # a and d, b and c: row c comes before row d
    ("abcd", {("a", "d"), ("d", "a"), ("b", "c"), ("c", "b")}, ("c", "b")),
    # row c holds two violations, and names the earlier column
    ("abc", {("a", "c"), ("b", "c"), ("c", "a"), ("c", "b")}, ("c", "a")),
])
def test_hasse_names_the_first_pair_related_both_ways(nodes, both_ways, first):
    # the first such pair of the row-major scan, by its exact message
    text = refusal(list(nodes), lambda x, y: x == y or (x, y) in both_ways)
    assert text == "antisymmetry violated between {!r} and {!r}".format(*first)


def test_hasse_asks_every_ordered_pair_once():
    # the sweep is what finds a pair related both ways, so it may skip no
    # pair, not even one whose reverse is known to hold
    rng = random.Random(7)
    for m in (0, 1, 2, 8, 20):
        nodes, leq = random_order(rng, m, 0.3)
        asked = Counter()

        def counted(x, y, leq=leq):
            asked[x, y] += 1
            return leq(x, y)

        hasse(nodes, counted)
        assert sum(asked.values()) == m * (m - 1)
        assert set(asked) == {(x, y) for x in nodes for y in nodes if x != y}
    # whichever related pair is also made to hold the other way round
    nodes, leq = random_order(rng, 8, 0.3)
    related = [(x, y) for x in nodes for y in nodes if x != y and leq(x, y)]
    assert related
    for lo, hi in related:
        with pytest.raises(PosetError, match="antisymmetry violated"):
            hasse(nodes, lambda x, y: leq(x, y) or (x, y) == (hi, lo))


def test_hasse_reads_the_whole_relation_before_any_refusal():
    # a and b are related both ways, and leq raises in row c, after
    # that pair: the exception comes first on both inputs
    def raising(x, y):
        if (x, y) == ("c", "a"):
            raise KeyError(y)
        return True

    for path in (raising, with_relation(raising)):
        with pytest.raises(KeyError):
            hasse(["a", "b", "c"], path)
    # without the raise, every ordered pair of distinct nodes is asked
    # once before the refusal, whose text is unchanged
    distinct = {(x, y): 1 for x in "abc" for y in "abc" if x != y}
    for read in (lambda leq: leq, with_relation):
        asked = Counter()

        def leq(x, y):
            asked[x, y] += 1
            return True

        with pytest.raises(PosetError) as exc:
            hasse(["a", "b", "c"], read(leq))
        assert str(exc.value) == "antisymmetry violated between 'b' and 'a'"
        assert {p: k for p, k in asked.items() if p[0] != p[1]} == distinct


def test_hasse_ends_on_a_predicate_that_is_not_transitive():
    # a 3-cycle relates no pair both ways; refused or not, it must not
    # keep the covers step walking round the cycle
    rel = {("a", "b"), ("b", "c"), ("c", "a")}

    def leq(x, y):
        return (x, y) in rel

    ends = set()
    for path in (leq, with_relation(leq)):
        try:
            ends.add(hasse(["a", "b", "c"], path))
        except PosetError as exc:
            ends.add(str(exc))
    # and both inputs end the same way
    assert len(ends) == 1


def test_hasse_rejects_a_predicate_that_is_not_transitive():
    rel = {("a", "b"), ("b", "c"), ("c", "a")}
    text = refusal(["a", "b", "c"], lambda x, y: (x, y) in rel)
    assert text == "transitivity violated: 'a' <= 'b' <= 'c' but not 'a' <= 'c'"
    # the middle node named is one that lies above a and below d, not
    # merely the first node above a
    rel = {("a", "b"), ("a", "c"), ("c", "d")}
    text = refusal(["a", "b", "c", "d"], lambda x, y: x == y or (x, y) in rel)
    assert text == "transitivity violated: 'a' <= 'c' <= 'd' but not 'a' <= 'd'"
    # a chain with its long edge missing has no cycle at all
    text = refusal(["a", "b", "c"], lambda x, y: (x, y) in {("a", "b"), ("b", "c")})
    assert "transitivity violated" in text
    # any one edge implied by two others, dropped from a valid order
    nodes, leq = random_order(random.Random(3), 12, 0.3)
    implied = {
        (x, z)
        for x in nodes
        for y in nodes
        for z in nodes
        if len({x, y, z}) == 3 and leq(x, y) and leq(y, z)
    }
    assert implied
    for lo, hi in sorted(implied):
        text = refusal(nodes, lambda x, y: leq(x, y) and (x, y) != (lo, hi))
        assert "transitivity violated" in text


def test_hasse_covers_exclude_transitive_edges():
    for n in range(2, 9):
        ps = list(partitions(n))
        diagram = hasse(ps, dominance_leq)
        less = {
            (i, j)
            for i in range(len(ps))
            for j in range(len(ps))
            if i != j and dominance_leq(ps[i], ps[j])
        }
        assert set(diagram.covers) <= less
        for i, j in diagram.covers:
            assert not any(
                (i, k) in less and (k, j) in less for k in range(len(ps))
            )
        # transitive closure of covers recovers the full relation
        reach = {i: {i} for i in range(len(ps))}
        changed = True
        while changed:
            changed = False
            for i, j in diagram.covers:
                new = reach[j] - reach[i]
                if new:
                    reach[i] |= new
                    changed = True
        closure = {(i, j) for i in reach for j in reach[i] if i != j}
        assert closure == less


def test_hasse_json_and_dot():
    ps = [(2,), (1, 1)]
    diagram = hasse(ps, dominance_leq)
    payload = hasse_to_json(diagram)
    assert payload == {"nodes": ["(2,)", "(1, 1)"], "covers": [[1, 0]]}
    dot = hasse_to_dot(diagram, name="g")
    assert dot == (
        "digraph g {\n"
        "  rankdir=BT;\n"
        "  node [shape=box];\n"
        '  n0 [label="(2,)"];\n'
        '  n1 [label="(1, 1)"];\n'
        "  n1 -> n0;\n"
        "}\n"
    )


def test_weyl_hasse_is_reversed_dominance_hasse():
    ctx = wg.context("BC", 4)
    cls = elliptic_classes(ctx)
    weyl = hasse(cls, class_leq_W)
    parts = [c.partition for c in cls]
    dom = hasse(parts, dominance_leq)
    assert set(weyl.covers) == {(j, i) for i, j in dom.covers}
