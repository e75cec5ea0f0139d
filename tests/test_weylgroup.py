import inspect
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from weylunip import weylgroup as wg
from weylunip.classposet import EllipticClassLabel, class_leq_W, elliptic_label, weyl_relation
from weylunip.partitions import family_members, fields_leq, partitions, unpack_bytes

from oracle import (
    bb_length,
    compose,
    conjugacy_class,
    count_entry,
    is_descent,
    leftmost_descent_leq,
    leftmost_descent_walk,
    min_length_elements,
    simple_reflection,
    simples,
    step,
)


def all_contexts(spec):
    """(family, ranks) pairs expanded over components."""
    for fam, ns in spec:
        for n in ns:
            if fam == "D":
                yield wg.context(fam, n, "id")
                yield wg.context(fam, n, "twisted")
            else:
                yield wg.context(fam, n)


def naive_length(ctx, w):
    """Word length by greedy descent stripping, on the oracle's
    reflection windows and descents, independent of the library's
    length formula and step table."""
    steps = 0
    while True:
        i = next(
            (i for i in range(1, len(simples(ctx)) + 1) if is_descent(ctx, w, i)),
            None,
        )
        if i is None:
            return steps
        w = step(ctx, w, i)
        steps += 1


def test_context_validation():
    assert wg.context("2A", 3).component == "twisted"
    with pytest.raises(ValueError):
        wg.context("BC", 2, "twisted")
    with pytest.raises(ValueError):
        wg.context("E", 8)
    with pytest.raises(ValueError):
        wg.context("D", 1)


def test_group_arithmetic():
    x = (2, -1, 3)
    y = (-3, 1, 2)
    # (xy)(i) = x(y(i))
    assert wg.multiply(x, y) == tuple(wg.apply(x, wg.apply(y, i)) for i in (1, 2, 3))
    assert wg.multiply(x, wg.inverse(x)) == wg.identity(3)
    assert wg.apply(x, -2) == 1
    assert wg.inverse(wg.inverse(y)) == y
    with pytest.raises(ValueError) as exc:
        wg.multiply(x, (2, 1))
    assert str(exc.value) == "rank mismatch: 3 vs 2"


def test_group_orders():
    assert wg.group_order(wg.context("BC", 2)) == 8
    assert wg.group_order(wg.context("BC", 6)) == 46080
    assert wg.group_order(wg.context("D", 3)) == 24
    assert wg.group_order(wg.context("A", 4)) == 24
    assert wg.group_order(wg.context("2A", 4)) == 24
    for ctx in all_contexts([("BC", [2, 3]), ("D", [2, 3, 4]), ("A", [3]), ("2A", [3])]):
        assert len(list(wg.enumerate_group(ctx))) == wg.group_order(ctx)


def test_enumerate_group_cap(monkeypatch):
    # |BC(4)| = 384; the bound is read when enumeration starts
    monkeypatch.setattr(wg, "MAX_HELD", 100)
    wg._class_table.cache_clear()
    try:
        with pytest.raises(wg.CapExceeded, match="exceeds 100$"):
            list(wg.enumerate_group(wg.context("BC", 4)))
        with pytest.raises(wg.CapExceeded):
            wg.enumerate_class(wg.context("BC", 4), (4,))
        # the sweep comes before the class check
        for query in (wg.enumerate_class, wg.class_lengths):
            with pytest.raises(wg.CapExceeded, match="exceeds 100$"):
                query(wg.context("BC", 4), (9,))
        # a group of exactly MAX_HELD elements is enumerated
        monkeypatch.setattr(wg, "MAX_HELD", 384)
        assert len(list(wg.enumerate_group(wg.context("BC", 4)))) == 384
    finally:
        wg._class_table.cache_clear()


def test_delta():
    assert wg.delta(wg.context("D", 4)) == (-1, 2, 3, 4)
    # the twisting element of the A-side coset is the longest element
    assert wg.delta(wg.context("2A", 4)) == (4, 3, 2, 1)
    # twisted A elements store their W0 part, so the coset base point
    # (stored part: identity) has length zero
    ctx = wg.context("2A", 5)
    assert wg.length(ctx, wg.identity(5)) == 0
    d = wg.context("D", 5, "twisted")
    assert wg.length(d, wg.delta(d)) == 0
    # A and BC have no twisted coset
    for family in ("A", "BC"):
        with pytest.raises(ValueError) as exc:
            wg.delta(wg.context(family, 4))
        assert str(exc.value) == f"family {family} carries no diagram automorphism here"


def test_longest_element_lengths():
    for n in range(2, 6):
        ctx = wg.context("BC", n)
        assert wg.length(ctx, tuple(-i for i in range(1, n + 1))) == n * n
        ctx = wg.context("A", n)
        assert wg.length(ctx, tuple(range(n, 0, -1))) == n * (n - 1) // 2
    for n in range(2, 6):
        ctx = wg.context("D", n, "id" if n % 2 == 0 else "twisted")
        w0 = tuple(-i for i in range(1, n + 1))
        assert wg.length(ctx, w0) == n * n - n


def test_length_rejects_foreign_elements():
    with pytest.raises(ValueError):
        wg.length(wg.context("A", 3), (2, -1, 3))
    with pytest.raises(ValueError):
        wg.length(wg.context("D", 3, "id"), (-1, 2, 3))
    with pytest.raises(ValueError):
        wg.length(wg.context("BC", 3), (1, 2))


@pytest.mark.parametrize(
    "component, w, refusal",
    [
        ("id", (-1, 2, 3),
         "[-1,2,3] has 1 sign change; wrong parity for the id component of D(3)"),
        ("id", (-1, -2, -3),
         "[-1,-2,-3] has 3 sign changes; wrong parity for the id component of D(3)"),
        ("twisted", (-1, -2, 3),
         "[-1,-2,3] has 2 sign changes; wrong parity for the twisted component of D(3)"),
    ],
)
def test_length_names_the_sign_parity_of_a_d_component(component, w, refusal):
    # the bruhat verb refuses a pair across components before this text
    # shows, so it is pinned here
    with pytest.raises(ValueError) as exc:
        wg.length(wg.context("D", 3, component), w)
    assert str(exc.value) == refusal


def test_simple_reflections():
    bc = wg.context("BC", 3)
    assert simple_reflection(bc, 1) == (-1, 2, 3)
    assert simple_reflection(bc, 2) == (2, 1, 3)
    assert simple_reflection(bc, 3) == (1, 3, 2)
    d = wg.context("D", 3)
    assert simple_reflection(d, 1) == (2, 1, 3)
    assert simple_reflection(d, 2) == (-2, -1, 3)
    a = wg.context("A", 3)
    assert simple_reflection(a, 1) == (2, 1, 3)
    assert simple_reflection(a, 2) == (1, 3, 2)


def test_simples_generate_correct_lengths():
    # every simple reflection has length one and multiplying changes
    # length by exactly one
    for ctx in all_contexts([("BC", [3]), ("D", [3, 4]), ("A", [4]), ("2A", [4])]):
        if ctx.component == "id":
            for s in simples(ctx):
                assert wg.length(ctx, s) == 1
        for w in wg.enumerate_group(ctx):
            lw = wg.length(ctx, w)
            for s in simples(ctx):
                assert abs(wg.length(ctx, compose(w, s)) - lw) == 1


def test_descent_flags_match_naive_length_drop():
    # the step table's descent test and step against composition with
    # the oracle's reflection windows and the drop of length
    for ctx in all_contexts(
        [("BC", [1, 2, 3]), ("D", [2, 3, 4]), ("A", [1, 3, 4]), ("2A", [2, 3, 4, 5])]
    ):
        steps = wg._steps(ctx)
        assert len(steps) == len(simples(ctx))
        for w in wg.enumerate_group(ctx):
            lw = wg.length(ctx, w)
            for (a, b, s), si in zip(steps, simples(ctx)):
                ws = compose(w, si)
                v = list(w)
                v[a], v[b] = s * v[b], s * v[a]
                assert tuple(v) == ws, (ctx, w, si)
                assert (s * w[a] > w[b]) == (wg.length(ctx, ws) < lw), (ctx, w, si)


def test_length_equals_word_length():
    # and Bjorner-Brenti's inv/neg/nsp formulas, which decide the
    # oracle's descents, give the same length
    for ctx in all_contexts(
        [("BC", [2, 3]), ("D", [3, 4]), ("A", [4]), ("2A", [4, 5])]
    ):
        for w in wg.enumerate_group(ctx):
            assert wg.length(ctx, w) == naive_length(ctx, w) == bb_length(ctx, w)


def test_descent_walk_shape():
    for ctx in all_contexts([("BC", [3]), ("D", [4]), ("2A", [5])]):
        for w in wg.enumerate_group(ctx):
            chain, path = wg.descent_walk(ctx, w)
            assert len(chain) == wg.length(ctx, w)
            assert len(path) == len(chain) + 1
            assert path[0] == w
            assert wg.length(ctx, path[-1]) == 0


def random_window(rng, ctx):
    """A seeded element of ctx's component."""
    w = rng.sample(range(1, ctx.n + 1), ctx.n)
    if ctx.family in ("BC", "D"):
        w = [rng.choice((1, -1)) * v for v in w]
        if wg.component_of(ctx.family, w) != ctx.component:
            w[0] = -w[0]
    return tuple(w)


def check_walk_against_the_rescan(ctx, y, xs):
    walk = wg.descent_walk(ctx, y)
    assert walk == leftmost_descent_walk(ctx, y), (ctx, y)
    for x in xs + [walk[1][len(walk[0]) // 2]]:
        assert wg.bruhat_leq_generic(ctx, x, y) == leftmost_descent_leq(ctx, x, y), (ctx, x, y)


@pytest.mark.parametrize(
    "family, n, component",
    [("A", 5, "id"), ("BC", 4, "id"), ("D", 5, "id"), ("D", 5, "twisted"), ("2A", 6, "twisted")],
)
def test_descent_walk_is_the_rescan_on_every_element(family, n, component):
    ctx = wg.context(family, n, component)
    els = list(wg.enumerate_group(ctx))
    rng = random.Random(f"walk:{ctx}")
    for y in els:
        check_walk_against_the_rescan(ctx, y, rng.sample(els, 3))


@pytest.mark.parametrize("family", wg.FAMILIES)
def test_descent_walk_is_the_rescan_on_seeded_windows(family):
    rng = random.Random(f"walk:{family}")
    components = wg.FAMILY_RULES[family].components
    for k in range(200):
        ctx = wg.context(family, 7 + k % 6, components[k // 6 % len(components)])
        check_walk_against_the_rescan(
            ctx, random_window(rng, ctx), [random_window(rng, ctx) for _ in range(2)]
        )


@pytest.mark.parametrize(
    "family, n, component, x, y, text",
    [
        ("A", 3, None, (1, 2, 3), (1, 2),
         "element of rank 2 passed to GroupContext(family='A', n=3, component='id')"),
        ("BC", 3, None, (1, 2, 3), (1, 1, 2), "[1,1,2] is not a signed permutation window"),
        ("D", 3, "id", (1, 2, 3), (1, 2, 4), "[1,2,4] is not a signed permutation window"),
        ("A", 3, None, (1, 2, 3), (-1, 2, 3),
         "[-1,2,3] has signs; family A stores plain permutations"),
        ("2A", 3, None, (1, 2, 3), (1, -2, 3),
         "[1,-2,3] has signs; family 2A stores plain permutations"),
        ("D", 3, "id", (1, 2, 3), (-1, 2, 3),
         "[-1,2,3] has 1 sign change; wrong parity for the id component of D(3)"),
        ("D", 4, "twisted", (-1, 2, 3, 4), (-1, -2, 3, 4),
         "[-1,-2,3,4] has 2 sign changes; wrong parity for the twisted component of D(4)"),
    ],
)
def test_generic_refuses_a_foreign_y_as_length_does(family, n, component, x, y, text):
    ctx = wg.context(family, n, component)
    with pytest.raises(ValueError) as by_length:
        wg.length(ctx, y)
    with pytest.raises(ValueError) as by_walk:
        wg.bruhat_leq_generic(ctx, x, y)
    assert str(by_walk.value) == str(by_length.value) == text


class LineCounts:
    """Calls func with line tracing on: counts the executions of the
    lines of func that hold each fragment (each fragment must name one
    line) and keeps func's locals at its return.  The walks step windows
    inline on the step table, so their work shows only in their lines."""

    def __init__(self, func, *fragments):
        lines, first = inspect.getsourcelines(func)
        self.where = {}
        for k, fragment in enumerate(fragments):
            hits = [first + t for t, text in enumerate(lines) if fragment in text]
            assert len(hits) == 1, (func.__name__, fragment, hits)
            self.where[hits[0]] = k
        self.func = func
        self.counts = [0] * len(fragments)
        self.locals = {}

    def _local(self, frame, event, arg):
        if event == "line":
            k = self.where.get(frame.f_lineno)
            if k is not None:
                self.counts[k] += 1
        elif event == "return":
            self.locals = dict(frame.f_locals)
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code is self.func.__code__ else None

    def __call__(self, *args):
        self.counts = [0] * len(self.counts)
        before = sys.gettrace()
        sys.settrace(self._global)
        try:
            return self.func(*args)
        finally:
            sys.settrace(before)


def test_walk_stops_once_x_is_as_long_as_the_rest_of_y():
    # the final comparison alone decides the answer, so a wrong length
    # count shows only in the work: while x is shorter than what is left
    # of y, each strip of y costs one descent test of x, and a step of x
    # keeps the gap; x longer than y costs none
    lazy = LineCounts(wg._bruhat_leq, "if s * u[a]", "u[a], u[b] =")
    for ctx in all_contexts([("A", [4]), ("BC", [3]), ("D", [3, 4]), ("2A", [4])]):
        els = list(wg.enumerate_group(ctx))
        lengths = [wg.length(ctx, w) for w in els]
        for y, ly in zip(els, lengths):
            for x, lx in zip(els, lengths):
                leq = lazy(ctx, x, lx, y, ly)
                tests, steps = lazy.counts
                if lx > ly:
                    assert (tests, leq) == (0, False), (ctx, x, y)
                else:
                    assert tests == min(ly, ly - lx + steps), (ctx, x, y)


def check_lazy_strips(lazy, ctx, x, y):
    """The lazy walk on (x, y) strips y max(0, l(y) - l(x) + k) times,
    where k counts the steps of x, and each strip takes y's leftmost
    descent: what is left of y is the rescan's element after as many
    strips."""
    lx, ly = wg.length(ctx, x), wg.length(ctx, y)
    leq = lazy(ctx, x, lx, y, ly)
    strips, steps = lazy.counts
    assert strips == max(0, ly - lx + steps), (ctx, x, y)
    if lx > ly:
        assert (strips, leq) == (0, False), (ctx, x, y)
    else:
        assert tuple(lazy.locals["v"]) == leftmost_descent_walk(ctx, y)[1][strips], (ctx, x, y)
        assert lazy.locals["lx"] == lazy.locals["ly"] == lx - steps, (ctx, x, y)
    assert leq == leftmost_descent_leq(ctx, x, y), (ctx, x, y)


def test_lazy_walk_strips_y_only_as_far_as_the_answer_needs():
    lazy = LineCounts(wg._bruhat_leq, "v[a], v[b] =", "u[a], u[b] =")
    for ctx in all_contexts([("A", [4]), ("BC", [3]), ("D", [3]), ("2A", [4])]):
        els = list(wg.enumerate_group(ctx))
        for y in els:
            for x in els:
                check_lazy_strips(lazy, ctx, x, y)
    rng = random.Random("strips")
    for family in wg.FAMILIES:
        components = wg.FAMILY_RULES[family].components
        for k in range(60):
            ctx = wg.context(family, 7 + k % 6, components[k // 6 % len(components)])
            y = random_window(rng, ctx)
            path = leftmost_descent_walk(ctx, y)[1]
            for x in (random_window(rng, ctx), path[rng.randrange(len(path))]):
                check_lazy_strips(lazy, ctx, x, y)


@pytest.mark.parametrize(
    "family, n, component",
    [("A", 4, "id"), ("BC", 3, "id"), ("D", 4, "id"), ("D", 4, "twisted"), ("2A", 5, "twisted")],
)
def test_generic_is_the_rescan_recursion_on_every_pair(family, n, component):
    ctx = wg.context(family, n, component)
    els = list(wg.enumerate_group(ctx))
    for y in els:
        for x in els:
            assert wg.bruhat_leq_generic(ctx, x, y) == leftmost_descent_leq(ctx, x, y), (ctx, x, y)


def test_count_entry_literal():
    def brute(w, i, j):
        n = len(w)
        ks = [k for k in range(-n, n + 1) if k != 0 and k <= i]
        return sum(1 for k in ks if wg.apply(w, k) >= j)

    for w in [(2, -1), (-2, 1), (1, 2), (-1, -2), (3, -1, 2)]:
        n = len(w)
        for i in range(-n - 1, n + 2):
            for j in range(-n - 1, n + 2):
                assert count_entry(w, i, j) == brute(w, i, j), (w, i, j)


def literal_rows(ctx, w):
    """The count matrix of w entry by entry: count_entry for BC and D,
    the positive rows and columns for plain permutations."""
    if ctx.family in ("A", "2A"):
        idx = range(1, ctx.n + 1)
        return [[sum(1 for k in range(1, i + 1) if w[k - 1] >= j) for j in idx] for i in idx]
    idx = [k for k in range(-ctx.n, ctx.n + 1) if k]
    return [[count_entry(w, i, j) for j in idx] for i in idx]


def test_count_matrix_rows_are_literal_counts():
    for ctx in all_contexts(PACKED_CONTEXTS):
        for w in wg.enumerate_group(ctx):
            m = wg.count_matrix(ctx, w)
            assert m.signed == (ctx.family in ("BC", "D")) and m.n == ctx.n, ctx
            assert [list(row) for row in m.rows] == literal_rows(ctx, w), (ctx, w)
    # seeded windows at rank 12, past every context enumerated above
    rng = random.Random(12)
    for ctx in all_contexts([("A", [12]), ("BC", [12]), ("D", [12]), ("2A", [12])]):
        for _ in range(5):
            w = random_window(rng, ctx)
            assert [list(row) for row in wg.count_matrix(ctx, w).rows] == literal_rows(ctx, w)


def test_count_matrix_past_one_byte_fields():
    # at BC 64 an entry reaches 128, so each field takes two bytes
    ctx = wg.context("BC", 64)
    assert wg._count_columns(ctx)[2] == 16
    w = random_window(random.Random(64), ctx)
    m = wg.count_matrix(ctx, w)
    idx = m.indices()
    assert m.rows == tuple(tuple(count_entry(w, i, j) for j in idx) for i in idx)
    assert max(map(max, m.rows)) == 128


def test_bruhat_counts_matches_generic_A_and_BC():
    # exact on twisted A's stored parts too, which step like A
    for fam, n in [("A", 3), ("BC", 2), ("2A", 3), ("2A", 4)]:
        ctx = wg.context(fam, n)
        els = list(wg.enumerate_group(ctx))
        for x in els:
            for y in els:
                assert wg.bruhat_leq_counts(ctx, x, y) == wg.bruhat_leq_generic(
                    ctx, x, y
                )


def test_bruhat_counts_rejects_D():
    ctx = wg.context("D", 3)
    with pytest.raises(ValueError):
        wg.bruhat_leq_counts(ctx, (1, 2, 3), (1, 2, 3))


def test_bruhat_generic_implies_counts_on_D():
    ctx = wg.context("D", 3)
    els = list(wg.enumerate_group(ctx))
    converse_fails = 0
    for x in els:
        cx = wg.count_matrix(ctx, x)
        for y in els:
            cy = wg.count_matrix(ctx, y)
            counts = all(
                cx.entry(i, j) <= cy.entry(i, j)
                for i in cx.indices()
                for j in cx.indices()
            )
            if wg.bruhat_leq_generic(ctx, x, y):
                assert counts, (x, y)
            elif counts:
                converse_fails += 1
    # the count criterion is strictly weaker here
    assert converse_fails == 17


@pytest.mark.parametrize(
    "family, n, component, disagreements",
    [
        ("A", 3, None, 0),
        ("A", 4, None, 0),
        ("BC", 2, None, 0),
        ("BC", 3, None, 0),
        ("D", 3, "id", 17),
        ("D", 3, "twisted", 17),
        ("D", 4, "id", 754),
        ("D", 4, "twisted", 873),
        ("2A", 3, None, 0),
        ("2A", 4, None, 0),
    ],
)
def test_context_properties_follow_the_evidence(family, n, component, disagreements):
    # counts_exact holds exactly where the count criterion agrees with
    # the oracle's descent recursion on every pair, and signed exactly
    # where some element has a negative entry
    ctx = wg.context(family, n, component)
    els = list(wg.enumerate_group(ctx))
    wrong = sum(
        (wg._count_witness(ctx, x, y) is None) != leftmost_descent_leq(ctx, x, y)
        for x in els
        for y in els
    )
    assert wrong == disagreements
    assert ctx.counts_exact == (wrong == 0)
    assert ctx.signed == any(min(w) < 0 for w in els)


PACKED_CONTEXTS = [("A", range(1, 5)), ("BC", range(1, 4)), ("D", range(2, 5)), ("2A", range(2, 5))]


def literal_witness(mx, my):
    """The first (i, j), row by row, where count matrix mx exceeds my."""
    idx = mx.indices()
    for i, rx, ry in zip(idx, mx.rows, my.rows):
        for j, a, b in zip(idx, rx, ry):
            if a > b:
                return i, j
    return None


def test_count_columns_hold_the_literal_indicator_rows():
    # column v holds [v >= j] in field j of idx and nothing above; entry
    # 0, which no image reads, is empty.  BC 64 takes two-byte fields
    contexts = list(all_contexts(PACKED_CONTEXTS)) + [wg.context("A", 9), wg.context("BC", 64)]
    for ctx in contexts:
        idx, columns, width, _ = wg._count_columns(ctx)
        assert len(columns) == len(idx) + 1 and columns[0] == 0, ctx
        for v in idx:
            literal = tuple(int(v >= j) for j in idx)
            assert unpack_bytes(columns[v], width, len(idx)) == literal, (ctx, v)


def test_count_key_unpacks_to_the_count_matrix():
    for ctx in all_contexts(PACKED_CONTEXTS):
        idx, _, width, guards = wg._count_columns(ctx)
        # the key packs n rows: all of A's, rows -n..-1 of a signed matrix
        rows = list(range(-ctx.n, 0)) if ctx.family in ("BC", "D") else list(idx)
        fields = len(rows) * len(idx)
        # whole-byte fields, and a guard bit on top of each field of one
        # key and nowhere else
        assert width == 8, ctx
        assert guards == sum(1 << (f * width + width - 1) for f in range(fields)), ctx
        for w in wg.enumerate_group(ctx):
            key = wg._count_key(ctx, w)
            m = wg.count_matrix(ctx, w)
            unpacked = [key >> (f * width) & ((1 << width) - 1) for f in range(fields)]
            assert unpacked == [m.entry(i, j) for i in rows for j in idx], (ctx, w)
            assert key >> (fields * width) == 0, (ctx, w)


def test_the_lower_rows_decide_a_signed_count_matrix():
    # for 1 <= i < n, w[i, j] = w[-i-1, 1-j] + N(j) - n + i, where N(j)
    # counts the indices at least j, column 0 reads as column 1 and
    # column n+1 as zeros; row n is N for every w
    for ctx in all_contexts([("BC", range(1, 5)), ("D", range(2, 5))]):
        n = ctx.n
        idx = [k for k in range(-n, n + 1) if k]
        total = {j: sum(1 for k in idx if k >= j) for j in idx}
        for w in wg.enumerate_group(ctx):
            m = wg.count_matrix(ctx, w)
            for j in idx:
                assert m.entry(n, j) == total[j], (ctx, w, j)
                mirror = 1 - j or 1
                for i in range(1, n):
                    lower = m.entry(-i - 1, mirror) if mirror <= n else 0
                    assert m.entry(i, j) == lower + total[j] - n + i, (ctx, w, i, j)


def test_count_witness_is_the_first_entry_row_by_row():
    for ctx in all_contexts(PACKED_CONTEXTS):
        els = list(wg.enumerate_group(ctx))
        mats = [wg.count_matrix(ctx, w) for w in els]
        for x, mx in zip(els, mats):
            for y, my in zip(els, mats):
                assert wg._count_witness(ctx, x, y) == literal_witness(mx, my), (ctx, x, y)


def test_packed_counts_decide_the_order_at_small_rank():
    # exact in A and BC, necessary in D, on every pair of each group
    for ctx in all_contexts([("A", [5]), ("BC", [4]), ("D", [4])]):
        els = list(wg.enumerate_group(ctx))
        _, _, _, guards = wg._count_columns(ctx)
        keys = [wg._count_key(ctx, w) for w in els]
        lengths = [wg.length(ctx, w) for w in els]
        for y, ky in zip(els, keys):
            chain, path = wg.descent_walk(ctx, y)
            for x, kx, lx in zip(els, keys, lengths):
                packed = fields_leq(kx, ky, guards) == guards
                walk = wg.bruhat_leq_walk(ctx, x, lx, chain, path)
                if ctx.family == "D":
                    assert packed or not walk, (ctx, x, y)
                else:
                    assert packed == walk, (ctx, x, y)


@st.composite
def element_pair(draw):
    """(ctx, x, y, related) in A, BC, D or 2A up to rank 10.  A related
    pair takes x as a subword of y's descent walk, so x <= y."""
    fam = draw(st.sampled_from(["A", "BC", "D", "2A"]))
    n = draw(st.integers(wg.FAMILY_RULES[fam].min_rank, 10))
    ctx = wg.context(fam, n, draw(st.sampled_from(wg.FAMILY_RULES[fam].components)))

    def element():
        w = list(draw(st.permutations(range(1, n + 1))))
        if fam in ("BC", "D"):
            w = [-v if draw(st.booleans()) else v for v in w]
            if wg.component_of(fam, w) != ctx.component:
                w[0] = -w[0]
        return tuple(w)

    y = element()
    related = draw(st.booleans())
    if not related:
        return ctx, element(), y, False
    chain, path = wg.descent_walk(ctx, y)
    keep = draw(st.lists(st.booleans(), min_size=len(chain), max_size=len(chain)))
    x = path[-1]
    for i, kept in zip(reversed(chain), reversed(keep)):
        if kept:
            x = compose(x, simple_reflection(ctx, i))
    return ctx, x, y, True


@settings(max_examples=200, deadline=None)
@given(element_pair())
def test_packed_counts_agree_with_the_descent_recursion(case):
    ctx, x, y, related = case
    generic = wg.bruhat_leq_generic(ctx, x, y)
    assert generic or not related
    packed = wg._count_witness(ctx, x, y) is None
    if ctx.family == "D":
        assert packed or not generic
    else:
        assert packed == generic == wg.bruhat_leq_counts(ctx, x, y)


def test_bruhat_monotone_in_length():
    for ctx in all_contexts([("BC", [3]), ("D", [3]), ("2A", [4])]):
        els = list(wg.enumerate_group(ctx))
        for x in els:
            for y in els:
                if wg.bruhat_leq_generic(ctx, x, y):
                    lx, ly = wg.length(ctx, x), wg.length(ctx, y)
                    assert lx <= ly
                    if lx == ly:
                        assert x == y


def reflection_closure(ctx):
    """Bruhat order by its definition: the transitive closure of
    w < w·t for reflections t (conjugates of simple reflections of the
    untwisted group) with length(w·t) > length(w).  Returns the up-set
    of every element."""
    base = wg.context("A" if ctx.family == "2A" else ctx.family, ctx.n)
    refl = {
        wg.multiply(wg.multiply(u, s), wg.inverse(u))
        for u in wg.enumerate_group(base)
        for s in simples(base)
    }
    els = sorted(wg.enumerate_group(ctx), key=lambda w: -wg.length(ctx, w))
    up = {}
    for w in els:
        lw = wg.length(ctx, w)
        above = {w}
        for t in refl:
            wt = wg.multiply(w, t)
            if wg.length(ctx, wt) > lw:
                above |= up[wt]
        up[w] = above
    return up


def test_bruhat_matches_reflection_closure():
    for ctx in all_contexts([("A", [4]), ("BC", [3]), ("D", [4]), ("2A", [4])]):
        up = reflection_closure(ctx)
        for x in up:
            for y in up:
                assert wg.bruhat_leq_generic(ctx, x, y) == (y in up[x]), (ctx, x, y)


def test_bruhat_is_a_graded_partial_order():
    for ctx in all_contexts([("A", [4]), ("BC", [3]), ("D", [4])]):
        els = list(wg.enumerate_group(ctx))
        # above[i], below[i]: bitmasks of the elements strictly above and below els[i]
        above = [0] * len(els)
        below = [0] * len(els)
        for i, x in enumerate(els):
            assert wg.bruhat_leq_generic(ctx, x, x)
            for j, y in enumerate(els):
                if j != i and wg.bruhat_leq_generic(ctx, x, y):
                    above[i] |= 1 << j
                    below[j] |= 1 << i
        covers = 0
        for i, x in enumerate(els):
            assert not above[i] & below[i], (ctx, x)  # antisymmetric
            for j, y in enumerate(els):
                if above[i] >> j & 1:
                    assert above[j] & ~above[i] == 0, (ctx, x, y)  # transitive
                    if not above[i] & below[j]:
                        assert wg.length(ctx, y) == wg.length(ctx, x) + 1, (ctx, x, y)
                        covers += 1
        assert covers >= len(els) - 1


def test_signed_cycle_type():
    # returns (negative cycles, positive cycles)
    assert wg.signed_cycle_type((2, -1)) == ((2,), ())
    assert wg.signed_cycle_type((-2, -1)) == ((), (2,))
    assert wg.signed_cycle_type((-1, -2, 3)) == ((1, 1), (1,))
    assert wg.signed_cycle_type((3, -1, -2)) == ((), (3,))
    assert wg.signed_cycle_type((-3, -1, -2)) == ((3,), ())


def test_class_label():
    bc3 = wg.context("BC", 3)
    assert wg.class_label(bc3, (-1, -2, -3)) == (1, 1, 1)
    assert wg.class_label(bc3, (-3, -1, -2)) == (3,)
    assert wg.class_label(bc3, (3, -1, -2)) is None  # positive 3-cycle
    assert wg.class_label(bc3, (-1, 2, 3)) is None  # positive fixed points
    a3 = wg.context("A", 3)
    assert wg.class_label(a3, (2, 3, 1)) == (3,)
    assert wg.class_label(a3, (2, 1, 3)) is None
    ctx = wg.context("2A", 3)
    # stored part identity represents the coset base point delta, whose
    # underlying permutation is the longest element: one 2-cycle and one
    # fixed point, so not elliptic
    assert wg.class_label(ctx, wg.identity(3)) is None
    assert wg.class_label(ctx, (3, 2, 1)) == (1, 1, 1)


def test_class_sizes_BC2():
    ctx = wg.context("BC", 2)
    assert wg.enumerate_class(ctx, (1, 1)) == ((-1, -2),)
    els = wg.enumerate_class(ctx, (2,))
    assert sorted(els) == [(-2, 1), (2, -1)]
    assert wg.class_lengths(ctx, (2,)) == (2, 2)
    assert min_length_elements(ctx, (2,)) == ((-2, 1), (2, -1))


def test_class_partition_of_group():
    # elliptic classes are disjoint and label exactly the elements whose
    # class_label is their partition
    for ctx in all_contexts([("BC", [3, 4]), ("D", [4]), ("2A", [5])]):
        if ctx.family == "D":
            alphas = [
                a
                for a in family_members(ctx.n)
                if (len(a) % 2 == 0) == (ctx.component == "id")
            ]
        elif ctx.family == "2A":
            alphas = wg.elliptic_partitions(ctx)
        else:
            alphas = family_members(ctx.n)
        seen = set()
        for a in alphas:
            els = wg.enumerate_class(ctx, a)
            assert not (set(els) & seen)
            seen.update(els)
            for w in els:
                assert wg.class_label(ctx, w) == a
        for w in wg.enumerate_group(ctx):
            lab = wg.class_label(ctx, w)
            if lab is not None:
                assert w in seen


DIFFERENTIAL_CASES = (
    [("A", n) for n in range(2, 7)]
    + [("BC", n) for n in range(1, 7)]
    + [("D", n) for n in range(2, 7)]
    + [("2A", n) for n in range(2, 9)]
)


@pytest.mark.parametrize("fam,n", DIFFERENTIAL_CASES)
def test_min_length_table_matches_brute_force(fam, n):
    for ctx in all_contexts([(fam, [n])]):
        assert sorted(wg._class_table(ctx)) == sorted(wg.elliptic_partitions(ctx))
        for a in wg.elliptic_partitions(ctx):
            rep = wg.class_rep(ctx, a)
            built = tuple(sorted(wg._min_length_set(ctx, rep)))
            assert built == min_length_elements(ctx, a), (ctx, a)
            assert wg._length(ctx, rep) == wg.class_lengths(ctx, a)[0]
            assert wg.class_size(ctx, a) == len(wg.enumerate_class(ctx, a))


def test_class_size_rejects_non_elliptic_labels():
    with pytest.raises(ValueError):
        wg.class_size(wg.context("D", 4, "id"), (2, 1, 1))
    with pytest.raises(ValueError):
        wg.class_size(wg.context("2A", 4), (2, 2))
    with pytest.raises(ValueError):
        wg.class_size(wg.context("A", 4), (3, 1))


VALIDATOR_CONTEXTS = [("A", range(1, 11)), ("BC", range(1, 11)), ("D", range(2, 11)),
                      ("2A", range(2, 11))]


def test_validators_accept_exactly_the_listed_classes():
    # elliptic_label, class_rep and class_size read the rule that
    # elliptic_partitions lists, so they accept the same partitions of n
    for ctx in all_contexts(VALIDATOR_CONTEXTS):
        listed = set(wg.elliptic_partitions(ctx))
        for a in partitions(ctx.n):
            if a in listed:
                assert elliptic_label(ctx, a).partition == a
                assert wg.class_label(ctx, wg.class_rep(ctx, a)) == a
                assert wg.class_size(ctx, a) > 0
                continue
            for check in (elliptic_label, wg.class_rep, wg.class_size):
                with pytest.raises(ValueError, match="is not an elliptic class of"):
                    check(ctx, a)


SWEPT_CONTEXTS = [("A", range(1, 9)), ("BC", range(1, 7)), ("D", range(2, 7)),
                  ("2A", range(2, 9))]


def outcome(check, *args):
    """What check returns on args, or the text of the ValueError it
    raises."""
    try:
        return check(*args)
    except ValueError as exc:
        return f"refused: {exc}"


def test_class_queries_refuse_as_the_validators():
    # class_leq_W, enumerate_class and class_lengths accept and refuse
    # what elliptic_label does, and so class_rep and class_size, with the
    # same text; the raw inputs include, at BC 4, (3, 1, 0), [4] and (1, 3)
    for ctx in all_contexts(SWEPT_CONTEXTS):
        n = ctx.n
        listed = wg.elliptic_partitions(ctx)
        top = EllipticClassLabel(ctx, listed[0])
        raw = list(partitions(n)) + [(n + 1,), (0, n)]
        raw += [a + (0,) for a in listed] + [list(a) for a in listed]
        raw += [a[::-1] for a in partitions(n) if len(set(a)) > 1]
        for a in raw:
            want = outcome(elliptic_label, ctx, a)
            refused = isinstance(want, str)
            for check in (wg.class_rep, wg.class_size, wg.enumerate_class, wg.class_lengths):
                expect = want if refused else check(ctx, want.partition)
                assert outcome(check, ctx, a) == expect, (check, ctx, a)
            label = EllipticClassLabel(ctx, a)
            expect = want if refused else class_leq_W(want, top)
            assert outcome(class_leq_W, label, top) == expect, (ctx, a)
            expect = want if refused else class_leq_W(top, want)
            assert outcome(class_leq_W, top, label) == expect, (ctx, a)


@pytest.mark.parametrize("fam,n,comp", [("BC", 7, None), ("D", 7, "id"), ("D", 7, "twisted"),
                                         ("2A", 9, None)])
def test_conjugation_closure_is_the_class(fam, n, comp):
    # one rank past the whole-group sweep: each class, closed under
    # conjugation by simple reflections, has class_size elements, and
    # its elements of least length are _min_length_set's
    ctx = wg.context(fam, n, comp)
    for a in wg.elliptic_partitions(ctx):
        members = conjugacy_class(ctx, a)
        assert len(members) == wg.class_size(ctx, a), a
        lengths = {w: bb_length(ctx, w) for w in members}
        least = min(lengths.values())
        shortest = {w for w, l in lengths.items() if l == least}
        assert shortest == set(wg._min_length_set(ctx, wg.class_rep(ctx, a))), a


def cyclic_shifts(ctx, w):
    """Every s·w·s' for simple s, by group multiplication: s' = s, or
    s_{n-i} for s = s_i on the stored part of a twisted A element."""
    ss = simples(ctx)
    for i, s in enumerate(ss):
        t = ss[len(ss) - 1 - i] if ctx.family == "2A" else s
        yield wg.multiply(wg.multiply(s, w), t)


@st.composite
def elliptic_class(draw):
    fam = draw(st.sampled_from(wg.FAMILIES))
    n = draw(st.integers(1 if fam in ("A", "BC") else 2, 7))
    comp = draw(st.sampled_from(["id", "twisted"])) if fam == "D" else None
    ctx = wg.context(fam, n, comp)
    return ctx, draw(st.sampled_from(wg.elliptic_partitions(ctx)))


@settings(max_examples=50, deadline=None)
@given(elliptic_class())
def test_min_length_set_is_a_shift_closed_class_of_minimal_length(case):
    ctx, a = case
    rep = wg.class_rep(ctx, a)
    # materialised first: a generator read twice yields nothing the
    # second time, and the loop below would then check nothing
    elements = tuple(wg._min_length_set(ctx, rep))
    lmin = wg.length(ctx, rep)
    members = set(elements)
    assert len(members) == len(elements)  # no element is yielded twice
    assert rep in members
    assert len(members) <= wg.class_size(ctx, a)
    for w in elements:
        assert wg.class_label(ctx, w) == a
        assert wg.length(ctx, w) == lmin
        for v in cyclic_shifts(ctx, w):
            if wg.length(ctx, v) == lmin:
                assert v in members, (ctx, a, w, v)


def largest_min_length_set(ctx):
    return max(
        sum(1 for _ in wg._min_length_set(ctx, wg.class_rep(ctx, a)))
        for a in wg.elliptic_partitions(ctx)
    )


def relation_under_bound(monkeypatch, ctx, bound):
    # the bound is not part of the cache key, so the relation cache is
    # cleared around every build under a lowered bound
    monkeypatch.setattr(wg, "MAX_HELD", bound)
    weyl_relation.cache_clear()
    try:
        return weyl_relation(ctx)
    finally:
        weyl_relation.cache_clear()


def test_min_length_bound_counts_the_largest_class(monkeypatch):
    # the bound counts the elements one row holds while it scans; in BC 7
    # the row of the largest set, [2,2,2,1], reads all of it, so the
    # relation needs exactly that set's size
    ctx = wg.context("BC", 7)
    full = weyl_relation(ctx)
    largest = largest_min_length_set(ctx)
    assert relation_under_bound(monkeypatch, ctx, largest) == full
    with pytest.raises(wg.CapExceeded, match=f"holds more than {largest - 1} "):
        relation_under_bound(monkeypatch, ctx, largest - 1)


def test_min_length_bound_spares_a_row_that_ends_early(monkeypatch):
    # every row of BC 5 settles before its set is built out, so a bound
    # below the largest set still gives the same relation
    ctx = wg.context("BC", 5)
    full = weyl_relation(ctx)
    assert relation_under_bound(monkeypatch, ctx, largest_min_length_set(ctx) - 1) == full


def test_min_length_table_refuses_a_non_minimal_representative(monkeypatch):
    ctx = wg.context("BC", 3)
    longest = wg.enumerate_class(ctx, (3,))[-1]
    real = wg.class_rep
    monkeypatch.setattr(
        wg, "class_rep", lambda c, a: longest if a == (3,) else real(c, a)
    )
    weyl_relation.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not of minimal length"):
            weyl_relation(ctx)
    finally:
        weyl_relation.cache_clear()


@pytest.mark.parametrize("n", range(1, 7))
def test_rep_BC_minimal(n):
    ctx = wg.context("BC", n)
    for a in family_members(n):
        w = wg.class_rep(ctx, a)
        assert wg.class_label(ctx, w) == a
        assert wg.length(ctx, w) == wg.class_lengths(ctx, a)[0]


@pytest.mark.parametrize("n", range(2, 6))
def test_rep_D_minimal(n):
    for comp in ("id", "twisted"):
        ctx = wg.context("D", n, comp)
        for a in family_members(n):
            if (len(a) % 2 == 0) != (comp == "id"):
                continue
            w = wg.class_rep(ctx, a)
            assert wg.class_label(ctx, w) == a
            assert wg.length(ctx, w) == wg.class_lengths(ctx, a)[0]


@pytest.mark.parametrize("n", range(2, 8))
def test_rep_2A_minimal(n):
    ctx = wg.context("2A", n)
    for a in wg.elliptic_partitions(ctx):
        w = wg.class_rep(ctx, a)
        assert wg.class_label(ctx, w) == a
        assert wg.length(ctx, w) == wg.class_lengths(ctx, a)[0]


def test_rep_2A_windows():
    # the classes verb prints these windows; minimal length alone does
    # not fix them
    reps = {
        (6, (5, 1)): (1, 2, 4, 5, 6, 3),
        (6, (3, 3)): (1, 2, 5, 6, 4, 3),
        (6, (3, 1, 1, 1)): (1, 5, 4, 6, 2, 3),
        (7, (7,)): (1, 2, 3, 5, 6, 7, 4),
        (7, (5, 1, 1)): (1, 2, 5, 6, 3, 7, 4),
        (7, (3, 3, 1)): (1, 2, 5, 7, 6, 3, 4),
        (7, (3, 1, 1, 1, 1)): (1, 6, 5, 7, 3, 2, 4),
    }
    for (n, a), w in reps.items():
        assert wg.class_rep(wg.context("2A", n), a) == w, (n, a)


def test_rep_2A_all_ones_is_reversal():
    # the class (1,...,1) consists of the stored parts w with w*delta
    # trivial; its unique minimal representative is the reversal window
    for n in range(2, 9):
        ctx = wg.context("2A", n)
        w = wg.class_rep(ctx, (1,) * n)
        assert w == tuple(range(n, 0, -1))
        assert wg.length(ctx, w) == n * (n - 1) // 2


def s_interval(ctx, a, b):
    """The product s_a s_{a+1} ... s_b, or the identity when a > b."""
    w = wg.identity(ctx.n)
    for i in range(a, b + 1):
        w = wg.multiply(w, simple_reflection(ctx, i))
    return w


@pytest.mark.parametrize("n", range(1, 9))
def test_rep_BC_is_the_product_formula(n):
    # the representative as a word: the product over parts a_j of
    # s_[2, n+1-a_1-..-a_j]^{-1} s_[1, n-a_1-..-a_{j-1}] in BC's simple
    # reflections; D (n >= 2) uses the same window in its own component
    ctx = wg.context("BC", n)
    for alpha in family_members(n):
        w = wg.identity(n)
        sig = 0
        for a in alpha:
            lower = wg.inverse(s_interval(ctx, 2, n + 1 - sig - a))
            w = wg.multiply(w, wg.multiply(lower, s_interval(ctx, 1, n - sig)))
            sig += a
        assert wg.class_rep(ctx, alpha) == w
        if n >= 2:
            comp = "id" if len(alpha) % 2 == 0 else "twisted"
            assert wg.class_rep(wg.context("D", n, comp), alpha) == w


def test_rep_D_wrong_component():
    ctx = wg.context("D", 4, "id")
    with pytest.raises(ValueError):
        wg.class_rep(ctx, (2, 1, 1))  # odd number of parts: twisted side


def test_rep_count_identity_BC():
    # at the break points m = a_1 + ... + a_k the representative's count
    # matrix walks down the staircase exactly
    for n in range(1, 7):
        ctx = wg.context("BC", n)
        for a in family_members(n):
            w = wg.class_rep(ctx, a)
            sigma = 0
            for k, part in enumerate(a, start=1):
                sigma += part
                assert count_entry(w, n - sigma, n - sigma + 1) == k


def test_twist_conjugation_preserves_length_and_label():
    for fam, n in [("D", 4), ("2A", 5)]:
        ctx = wg.context(fam, n, "id" if fam == "D" else None)
        d = (
            wg.delta(wg.context("D", n))
            if fam == "D"
            else wg.delta(wg.context("2A", n))
        )
        for w in wg.enumerate_group(ctx):
            conj = wg.multiply(d, wg.multiply(w, wg.inverse(d)))
            assert wg.length(ctx, conj) == wg.length(ctx, w)
            assert wg.class_label(ctx, conj) == wg.class_label(ctx, w)
