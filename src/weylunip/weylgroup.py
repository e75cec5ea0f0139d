"""Classical Weyl groups as (signed) permutations, and the order on
their elliptic classes.

Elements are tuples of images: ``w[i-1] = w(i)`` for i = 1..n, extended
to negative arguments by w(-i) = -w(i).  Types BC and D use signed
images, types A and twisted A plain permutations: one rule,
GroupContext.signed.  For the twisted A family an element tuple stores
the permutation part w, and the group element it names is w composed
with delta, the longest element; for the twisted component of the even
orthogonal model the coset elements are honest signed permutations with
an odd number of sign changes, so no extra bookkeeping is needed.

Composition is (xy)(i) = x(y(i)).  A group is named by a GroupContext,
a NamedTuple of family, rank and component.

Bruhat comparisons of many elements go through one packed count key per
element: the first n rows of its count matrix held as one int, one
guard-bit field per entry (partitions.fields_leq), built from a small
per-context table of column rows.  That is every row in A, and rows
-n..-1 of a signed matrix, which decide its other rows.  One subtraction
and one AND then compare two matrices entrywise.  That decides the
order where GroupContext.counts_exact says; elsewhere (D) it is a
necessary condition and the descent walk confirms it.  The literal
count_matrix sums the same column rows and splits rows in C.

weyl_relation, the order on elliptic classes, lives beside the
minimal-length sets, count keys and walk it reads.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple

from .partitions import (
    Partition,
    as_partition,
    byte_width,
    check_bound,
    family_members,
    fields_leq,
    format_partition,
    guard_bits,
    unpack_bytes,
)

SignedPermutation = tuple[int, ...]

# The most elements one row of weyl_relation may hold while it scans a
# minimal-length set (a row that settles early holds only what it built
# so far), and the largest group the brute-force oracle enumerates.
# Read at call time, so a test can lower it; the lru caches of this
# module's weyl_relation and _class_table, filled under another value,
# must then be cleared.  The other per-context caches do not depend on it.
MAX_HELD = 10**6

# The contexts every per-context cache keeps, here and in lusztig: verify
# runs a range rank by rank, so each context's tables are built once.
CONTEXT_CACHE = 32

IDENTITY_COMPONENT = "id"
TWISTED_COMPONENT = "twisted"


class FamilyRule(NamedTuple):
    components: tuple[str, ...]  # the first is the default
    min_rank: int


FAMILY_RULES = {
    "A": FamilyRule((IDENTITY_COMPONENT,), 1),
    "BC": FamilyRule((IDENTITY_COMPONENT,), 1),
    "D": FamilyRule((IDENTITY_COMPONENT, TWISTED_COMPONENT), 2),
    "2A": FamilyRule((TWISTED_COMPONENT,), 2),
}

FAMILIES = tuple(FAMILY_RULES)


class CapExceeded(RuntimeError):
    """Raised when a minimal-length set, as far as a caller has read it,
    or a brute-force enumeration would hold more than MAX_HELD
    elements."""


class GroupContext(NamedTuple):
    """A classical Weyl group (or extended group component).  A
    NamedTuple, compared and hashed by value, so it keys the per-context
    caches.

    family: "A" (S_n on n letters), "BC" (hyperoctahedral), "D"
    (even-signed; the O(2n) model when the twisted component is used),
    or "2A" (S_n twisted by the longest element).  rank n is the
    permutation degree for A/2A and the signed rank otherwise.
    """

    family: str
    n: int
    component: str

    @property
    def signed(self) -> bool:
        """Whether elements are signed windows: in BC and D, not A or 2A."""
        return self.family in ("BC", "D")

    @property
    def counts_exact(self) -> bool:
        """Whether the count-matrix comparison is Bruhat order: in A, BC and
        on twisted A's stored parts, which step like A; in D it is only
        necessary (Bjorner-Brenti, ch. 2 and 8)."""
        return self.family != "D"


def context(family: str, n: int, component: str | None = None) -> GroupContext:
    """The context of family at rank n; component None picks the
    family's default.  The only code that picks or refuses a component."""
    if family not in FAMILY_RULES:
        raise ValueError(f"unknown family {family!r}")
    rule = FAMILY_RULES[family]
    if n < rule.min_rank:
        raise ValueError(f"rank {n} out of range for family {family}")
    comp = rule.components[0] if component is None else component
    if comp not in rule.components:
        raise ValueError(
            f"family {family} has no component {component!r}; "
            f"its components are {', '.join(rule.components)}"
        )
    return GroupContext(family, n, comp)


def component_of(family: str, w: SignedPermutation) -> str:
    """The component of family's extended group that holds the window w:
    for D the twisted one when w has an odd number of sign changes; every
    other family has one component."""
    if family == "D":
        return TWISTED_COMPONENT if sum(1 for v in w if v < 0) % 2 else IDENTITY_COMPONENT
    return FAMILY_RULES[family].components[0]


# ---------------------------------------------------------------------------
# element arithmetic


def apply(w: SignedPermutation, i: int) -> int:
    """w(i) for i in {±1..±n}, using w(-i) = -w(i)."""
    return w[i - 1] if i > 0 else -w[-i - 1]


def multiply(x: SignedPermutation, y: SignedPermutation) -> SignedPermutation:
    if len(x) != len(y):
        raise ValueError(f"rank mismatch: {len(x)} vs {len(y)}")
    return tuple(apply(x, yi) for yi in y)


def inverse(w: SignedPermutation) -> SignedPermutation:
    r = [0] * len(w)
    for i, wi in enumerate(w, 1):
        if wi > 0:
            r[wi - 1] = i
        else:
            r[-wi - 1] = -i
    return tuple(r)


def identity(n: int) -> SignedPermutation:
    return tuple(range(1, n + 1))


def _check_element(ctx: GroupContext, w: SignedPermutation) -> None:
    if len(w) != ctx.n:
        raise ValueError(f"element of rank {len(w)} passed to {ctx}")
    # a refusal writes w as a window, [w(1),...,w(n)], as the CLI takes it
    if sorted(map(abs, w)) != list(range(1, ctx.n + 1)):
        raise ValueError(f"{format_partition(w)} is not a signed permutation window")
    if not ctx.signed and min(w) < 0:
        raise ValueError(
            f"{format_partition(w)} has signs; family {ctx.family} stores plain permutations"
        )
    if ctx.family == "D" and component_of("D", w) != ctx.component:
        signs = sum(1 for v in w if v < 0)
        raise ValueError(
            f"{format_partition(w)} has {signs} sign change{'' if signs == 1 else 's'}; "
            f"wrong parity for the {ctx.component} component of D({ctx.n})"
        )


def delta(ctx: GroupContext) -> SignedPermutation:
    """The length-zero representative of the twisted coset."""
    if ctx.family == "2A":
        return tuple(range(ctx.n, 0, -1))
    if ctx.family == "D":
        return (-1,) + tuple(range(2, ctx.n + 1))
    raise ValueError(f"family {ctx.family} carries no diagram automorphism here")


# ---------------------------------------------------------------------------
# Coxeter data and length


@lru_cache(maxsize=CONTEXT_CACHE)
def _steps(ctx: GroupContext) -> tuple[tuple[int, int, int], ...]:
    """The one per-family step rule: entry i - 1 is (a, b, s) with
    w·s_i < w iff s·w[a] > w[b], and w·s_i sets w[a], w[b] = s·w[b],
    s·w[a].  s_i swaps w(i), w(i+1) in A and twisted A; BC's s_1 negates
    w(1), D's s_1 and s_2 swap w(1), w(2) plain and negated, and the other
    s_i swap w(i-1), w(i).  So s_i changes descents i-2..i+1 only."""
    if not ctx.signed:
        return tuple((i - 1, i, 1) for i in range(1, ctx.n))
    head = ((0, 0, -1),) if ctx.family == "BC" else ((0, 1, 1), (1, 0, -1))
    return head + tuple((i - 2, i - 1, 1) for i in range(len(head) + 1, ctx.n + 1))


def _inv_count(w: SignedPermutation) -> int:
    """The pairs i < j with w[i] > w[j], counted in C."""
    return sum(itertools.starmap(operator.gt, itertools.combinations(w, 2)))


def length(ctx: GroupContext, w: SignedPermutation) -> int:
    """Coxeter length.  For the twisted cosets this is the length of the
    W0 part: twisted A elements store that part directly, and for D the
    uniform formula already assigns length 0 to delta."""
    _check_element(ctx, w)
    return _length(ctx, w)


def _length(ctx: GroupContext, w: SignedPermutation) -> int:
    """length without the membership check, for elements the library
    built itself."""
    if not ctx.signed:
        return _inv_count(w)
    if ctx.family == "BC":
        return _inv_count(w) + sum(-v for v in w if v < 0)
    return _inv_count(w) + sum(-v - 1 for v in w if v < 0)


# ---------------------------------------------------------------------------
# Bruhat order: count-matrix criterion and generic descent recursion


class CountMatrix(NamedTuple):
    """Entries w[i,j] = |{k <= i : w(k) >= j}| over the family's index set,
    as a NamedTuple of n, signed and the rows.

    For signed families the index set is {-n..-1, 1..n} in both
    coordinates; for type A it is {1..n}.  This is the literal form, which
    the tests and the benchmark read; comparisons use the packed key
    (_count_key), which holds its first n rows: all of A's, and rows
    -n..-1 of a signed matrix, which decide the other rows.
    """

    n: int
    signed: bool
    rows: tuple[tuple[int, ...], ...]

    def indices(self) -> list[int]:
        if self.signed:
            return [k for k in range(-self.n, self.n + 1) if k != 0]
        return list(range(1, self.n + 1))


def bruhat_leq_counts(ctx: GroupContext, x: SignedPermutation, y: SignedPermutation) -> bool:
    """Entrywise count-matrix comparison, refused where it is not exact
    (GroupContext.counts_exact), so bruhat_leq_generic must be used in D."""
    if not ctx.counts_exact:
        raise ValueError(
            f"count-matrix criterion is not exact for {ctx.family}; use bruhat_leq_generic"
        )
    _check_element(ctx, x)
    _check_element(ctx, y)
    return _count_witness(ctx, x, y) is None


def _count_witness(
    ctx: GroupContext, x: SignedPermutation, y: SignedPermutation
) -> tuple[int, int] | None:
    """The first index pair (i, j), row by row, where x's count matrix
    exceeds y's, or None when x's lies entrywise below y's; x and y are
    not checked.  One packed comparison: the lowest guard bit it clears
    is that pair's field.  The key's rows are the matrix's first rows, so
    the first entry x exceeds y at lies in them (see _count_key)."""
    idx, _, width, guards = _count_columns(ctx)
    missed = guards ^ fields_leq(_count_key(ctx, x), _count_key(ctx, y), guards)
    if not missed:
        return None
    row, col = divmod(((missed & -missed).bit_length() - 1) // width, len(idx))
    return idx[row], idx[col]


@lru_cache(maxsize=CONTEXT_CACHE)
def _count_columns(ctx: GroupContext) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """ctx's count-matrix index set; the packed column rows, columns[v]
    holding [v >= j] in field j for each index j (a negative v indexes
    from the end); the field width, the whole bytes that hold an entry
    up to len(idx) and a guard bit (partitions.byte_width, the layout
    unipotent records use too); and the guard bits of one packed key,
    n rows of len(idx) fields."""
    idx = tuple(CountMatrix(ctx.n, ctx.signed, ()).indices())
    width = byte_width(len(idx))
    # idx rises, so v >= j holds at the first p indices j, p being v's
    # place in idx plus 1: the low p fields of a word with 1 in each field
    ones = guard_bits(len(idx), width) >> (width - 1)
    columns = [0] * (len(idx) + 1)
    for p, v in enumerate(idx, 1):
        columns[v] = ones & ((1 << p * width) - 1)
    return idx, tuple(columns), width, guard_bits(ctx.n * len(idx), width)


def _row_images(ctx: GroupContext, w: SignedPermutation) -> Iterable[int]:
    """w(i) for each row i of ctx's count matrix, lowest row first: row i
    reads w(i), a signed index set starts at -n, and w(-k) = -w(k)."""
    if not ctx.signed:
        return w
    return itertools.chain(map(operator.neg, reversed(w)), w)


def _count_key(ctx: GroupContext, w: SignedPermutation) -> int:
    """The first n rows of w's count matrix packed row by row, lowest row
    first, one field per entry: row i is row i-1 plus the column row of
    w(i).  No membership check; callers check w or built it themselves.

    That is every row in A, and rows -n..-1 of a signed matrix, which
    decide the rest: for 1 <= i < n, w[i,j] = w[-i-1, 1-j] + N(j) - n + i,
    with N(j) the indices at least j and no w in the other terms (column
    0 reads as column 1 and column n+1 as zeros), and row n is N for
    every w.  So x's matrix lies below y's iff its first n rows do, and
    the first entry, row by row, where x's exceeds y's lies in them."""
    idx, columns, width, _ = _count_columns(ctx)
    step = len(idx) * width
    key = row = shift = 0
    for v in itertools.islice(_row_images(ctx, w), ctx.n):
        row += columns[v]
        key |= row << shift
        shift += step
    return key


def bruhat_leq_generic(ctx: GroupContext, x: SignedPermutation, y: SignedPermutation) -> bool:
    """Bruhat order by the descent recursion (_bruhat_leq) in every
    family: on both components of D (delta is the unique length-zero coset
    element) and on twisted A's stored parts.  Checks y, then x."""
    _check_element(ctx, y)
    _check_element(ctx, x)
    return _bruhat_leq(ctx, x, _length(ctx, x), y, _length(ctx, y))


def _bruhat_leq(
    ctx: GroupContext, x: SignedPermutation, lx: int, y: SignedPermutation, ly: int
) -> bool:
    """Bruhat x <= y, given lx = length(x) and ly = length(y); no
    membership check.  While x is shorter than y, strip y's leftmost
    descent s, and x's too when s is one: by the lifting property
    (Bjorner-Brenti, Prop. 2.2.7) x <= y iff x·s <= y·s then, else iff
    x <= y·s.  Then x is as long as y, and x <= y iff x = y.  A strip at
    i resumes the scan at max(i-2, 1) (see _steps)."""
    steps = _steps(ctx)
    u, v = list(x), list(y)
    k = 0
    while lx < ly:
        a, b, s = steps[k]
        if s * v[a] > v[b]:
            v[a], v[b] = s * v[b], s * v[a]
            ly -= 1
            if s * u[a] > u[b]:
                u[a], u[b] = s * u[b], s * u[a]
                lx -= 1
            k = k - 2 if k > 1 else 0
        else:
            k += 1
    return lx == ly and u == v


# ---------------------------------------------------------------------------
# cycle types, class labels, minimal-length representatives


def signed_cycle_type(w: SignedPermutation) -> tuple[Partition, Partition]:
    """(negative, positive) cycle types: orbit sizes of w on {±1..±n},
    each orbit pair counted once; an orbit is negative when traversing
    it returns to the negated start."""
    n = len(w)
    seen = [False] * (n + 1)
    neg: list[int] = []
    pos: list[int] = []
    for a in range(1, n + 1):
        if seen[a]:
            continue
        size = 0
        x = a
        while True:
            seen[abs(x)] = True
            size += 1
            x = apply(w, x)
            if abs(x) == a:
                break
        (neg if x == -a else pos).append(size)
    return tuple(sorted(neg, reverse=True)), tuple(sorted(pos, reverse=True))


def class_label(ctx: GroupContext, w: SignedPermutation) -> Partition | None:
    """The partition naming w's elliptic conjugacy class, or None when w
    is not elliptic.

    A: the cycle type; 2A: the cycle type of w·delta.  BC and D: the
    negative cycle type when there are no positive cycles (an odd number
    of negative cycles lies in the twisted coset of D).  The partition
    names a class when is_elliptic accepts it.
    """
    _check_element(ctx, w)
    if not ctx.signed:
        # a plain permutation has positive cycles only
        parts = signed_cycle_type(multiply(w, delta(ctx)) if ctx.family == "2A" else w)[1]
    else:
        parts, pos = signed_cycle_type(w)
        if pos:
            return None
    return parts if is_elliptic(ctx, parts) else None


def rep_signed(n: int, alpha: Partition) -> SignedPermutation:
    """Minimal-length element of the elliptic class alpha in BC(n) and in
    the even orthogonal model: one negative a-cycle per part a, each
    occupying the a highest positions still free, sending i to i+1 inside
    the block and the top of the block to minus its bottom.  This is the
    product over parts a_j of s_[2, n+1-a_1-..-a_j]^{-1} s_[1, n-a_1-..-a_{j-1}]
    (s_[a, b] = s_a s_{a+1} ... s_b) in BC's simple reflections.

    It has one sign change per part, so it lies in the identity
    component of D iff alpha has an even number of parts.  alpha must be
    a partition of n; class_rep checks that.
    """
    w = list(range(1, n + 1))
    top = n
    for a in alpha:
        bottom = top - a + 1
        for i in range(bottom, top):
            w[i - 1] = i + 1
        w[top - 1] = -bottom
        top -= a
    return tuple(w)


def rep_2A(n: int, alpha: Partition) -> SignedPermutation:
    """Minimal-length element of the twisted class alpha (all parts odd)
    in the twisted A family, returned as its stored permutation part.

    The permutation part u = w·delta is built so that each part
    a = 2b+1 contributes one u-cycle through the b outermost remaining
    positions on each side plus one near-middle position; unused parts
    of size one become fixed points.  All-ones makes u the identity, so
    the stored part is the reversal window itself.  alpha must be a
    partition of n into odd parts; class_rep checks that.
    """
    u = list(range(1, n + 1))
    remaining = list(range(1, n + 1))
    for a in alpha:
        b = (a - 1) // 2
        if b == 0:
            continue
        r = remaining
        # a = 2b + 1 <= len(r), so b <= ci < len(r) - b: c lies between
        # ps and qs
        ci = (len(r) - 1) // 2
        ps = r[:b]
        c = r[ci]
        qs = r[-b:][::-1]
        u[ps[0] - 1] = c
        u[c - 1] = qs[b - 1]
        for i in range(b):
            u[qs[i] - 1] = ps[i]
        for i in range(1, b):
            u[ps[i] - 1] = qs[i - 1]
        used = set(ps) | {c} | set(qs)
        remaining = [x for x in remaining if x not in used]
    # u·delta, as delta reverses the window
    return tuple(reversed(u))


def class_rep(ctx: GroupContext, alpha: Partition) -> SignedPermutation:
    """The closed-form minimal-length representative for ctx's family."""
    alpha = check_elliptic(ctx, alpha)
    if ctx.family == "A":
        return tuple(range(2, ctx.n + 1)) + (1,)
    if ctx.family == "2A":
        return rep_2A(ctx.n, alpha)
    return rep_signed(ctx.n, alpha)


# ---------------------------------------------------------------------------
# which partitions name elliptic classes; class sizes in closed form;
# minimal-length class sets by cyclic shifts


def is_elliptic(ctx: GroupContext, alpha: Partition) -> bool:
    """Whether the partition alpha names an elliptic class of ctx: it is
    a partition of n, and for A it is the Coxeter class (n), for D its
    number of parts is even on the identity component and odd on the
    twisted one, and for 2A its parts are all odd.  Every partition of n
    names a class of BC."""
    if sum(alpha) != ctx.n:
        return False
    if ctx.family == "A":
        return alpha == (ctx.n,)
    if ctx.family == "D":
        return len(alpha) % 2 == (ctx.component == TWISTED_COMPONENT)
    if ctx.family == "2A":
        return all(p % 2 == 1 for p in alpha)
    return True


def check_elliptic(ctx: GroupContext, alpha) -> Partition:
    """alpha as a partition, refused unless it names an elliptic class of
    ctx; like elliptic_partitions, refuses n above the partition bound."""
    alpha = as_partition(alpha)
    check_bound(ctx.n)
    if not is_elliptic(ctx, alpha):
        raise ValueError(f"{alpha} is not an elliptic class of {ctx}")
    return alpha


@lru_cache(maxsize=CONTEXT_CACHE)
def elliptic_partitions(ctx: GroupContext) -> tuple[Partition, ...]:
    """The partitions is_elliptic accepts, reverse-lexicographically,
    generated once per ctx.  Every family, A included, refuses n above
    the partition bound before anything of size n is built."""
    if ctx.family == "A":
        check_bound(ctx.n)
        return ((ctx.n,),)
    return tuple(a for a in family_members(ctx.n) if is_elliptic(ctx, a))


def class_size(ctx: GroupContext, alpha: Partition) -> int:
    """The number of elements with class_label alpha, as |W|/z_alpha.

    A and 2A: n!/prod a^m_a m_a!, the size of the S_n class of cycle type
    alpha (a twisted class is the S_n class of w·delta).  BC: the
    centraliser of a class with negative cycles alpha has order
    prod (2a)^m_a m_a!.  D: the same count, because a class of negative
    cycles does not split in the even-signed group."""
    alpha = check_elliptic(ctx, alpha)
    z = 1
    for a, m in Counter(alpha).items():
        z *= (2 * a if ctx.signed else a) ** m * factorial(m)
    return factorial(ctx.n) * (2**ctx.n if ctx.signed else 1) // z


@lru_cache(maxsize=CONTEXT_CACHE)
def _shifts(
    ctx: GroupContext,
) -> tuple[tuple[Callable[[int], int], tuple[int, int, int], tuple[int, int, int]], ...]:
    """The cyclic shifts w -> s_i·w·s_j of _min_length_set, built once per
    ctx from the step table: for each simple reflection i, a lookup whose
    __getitem__ maps v to s_i(v) (a negative v indexes from the end), so
    that s_i·w is w's window mapped through it, then the steps of s_i and
    s_j (see _steps).  j = i, except in the twisted A coset: conjugating
    w·delta by s_i steps the stored part u to s_i·u·s_{n-i}, as
    delta s_i delta = s_{n-i}, so j = n - i there."""
    steps = _steps(ctx)
    shifts = []
    for i, (a, b, s) in enumerate(steps):
        r = list(identity(ctx.n))
        r[a], r[b] = s * r[b], s * r[a]
        lookup = (0,) + tuple(r) + tuple(-v for v in reversed(r))
        j = len(steps) - 1 - i if ctx.family == "2A" else i
        shifts.append((lookup.__getitem__, steps[i], steps[j]))
    return tuple(shifts)


def _min_length_set(ctx: GroupContext, rep: SignedPermutation) -> Iterator[SignedPermutation]:
    """The closure of rep under length-preserving cyclic shifts.  For an
    elliptic class with minimal-length rep this is the whole set of
    minimal-length elements (Geck-Pfeiffer 2000, ch. 3; Geck-Kim-Pfeiffer
    2000 for twisted classes; He-Nie 2012).

    Yields each element once, in no fixed order, after checking its
    shifts (so the first pull, which yields rep, checks rep).  The set is
    built only as far as the caller reads, so weyl_relation scans it as
    it is built and a row that is settled never builds the rest.
    Refused once the elements found so far pass MAX_HELD.

    The shifts are w -> s_i·w·s_j (see _shifts).  Each factor moves the
    length by one, so the shift keeps the length exactly when one factor
    is a descent: s_i of w on the left (a right descent of w's inverse),
    s_j of s_i·w on the right."""
    shifts = _shifts(ctx)
    seen = {rep}
    todo = [rep]
    while todo:
        if len(seen) > MAX_HELD:
            raise CapExceeded(
                f"a minimal-length set of {ctx.family}({ctx.n}) "
                f"holds more than {MAX_HELD} elements"
            )
        w = todo.pop()
        winv = inverse(w)
        for lookup, (a, b, s), (c, d, t) in shifts:
            down = s * winv[a] > winv[b]
            v = list(map(lookup, w))
            same = down == (t * v[c] > v[d])
            if same and not down:
                continue
            v[c], v[d] = t * v[d], t * v[c]
            v = tuple(v)
            if same:
                raise RuntimeError(
                    f"class_rep {rep} of {ctx} is not of minimal length: "
                    f"its cyclic shift {v} is shorter"
                )
            if v in seen:
                continue
            seen.add(v)
            todo.append(v)
        yield w


# ---------------------------------------------------------------------------
# the order on elliptic classes


@lru_cache(maxsize=CONTEXT_CACHE)
def weyl_relation(ctx: GroupContext) -> tuple[tuple[bool, ...], ...]:
    """The order on ctx's elliptic classes as a matrix, computed once per
    ctx: rel[i][j] says whether labels[i] <= labels[j], with
    labels = elliptic_classes(ctx).  Rows are tuples, so callers share the
    cached value without being able to change it.

    Row i scans the minimal-length elements of labels[i] as weylgroup
    builds them from the closed-form representative, for one below the
    representative w of labels[j].  The entry is False at once when they
    are longer than w, and also when they are as long and j != i: an
    element as long as w lies below w only if it is w, which lies in
    another class.  Each element is packed once and compared with every
    w still open, and the row stops, leaving the rest of the set unbuilt,
    once none is.  Checking that set rather than the whole class gives
    the same answer (acceptance criterion 8).  Only one row's elements
    are in memory at a time; weylgroup raises CapExceeded once a row
    holds more than MAX_HELD.
    """
    alphas = elliptic_partitions(ctx)
    reps = [class_rep(ctx, a) for a in alphas]
    lengths = [_length(ctx, w) for w in reps]
    keys = [_count_key(ctx, w) for w in reps]
    guards = _count_columns(ctx)[3]
    # where the count criterion is only necessary, the lazy descent walk
    # confirms each element it lets through
    confirm = not ctx.counts_exact
    rows = []
    for i, (rep, la) in enumerate(zip(reps, lengths)):
        # Bruhat order is graded by length, so x <= w with l(x) = l(w)
        # forces x = w, and classes are disjoint: of the classes no longer
        # than labels[i], only labels[i] itself can lie above it
        pending = [j for j, lb in enumerate(lengths) if la < lb or j == i]
        held = set()
        for x in _min_length_set(ctx, rep):
            kx = _count_key(ctx, x)
            found = [
                j
                for j in pending
                if fields_leq(kx, keys[j], guards) == guards
                and (not confirm or _bruhat_leq(ctx, x, la, reps[j], lengths[j]))
            ]
            if found:
                held.update(found)
                pending = [j for j in pending if j not in held]
                if not pending:
                    break  # the rest of the set is never built
        rows.append(tuple(j in held for j in range(len(reps))))
    return tuple(rows)


# ---------------------------------------------------------------------------
# bound by the benchmark: the whole-group class sweep, the literal count
# matrix (every row, summed from _count_key's column rows and images) and
# the two-stage descent walk
#
# No verb or library path calls this block (tests/test_bindings.py checks);
# the tests check the library against it.  It stays only because the
# benchmark binds it by name: perfbench/tracer.py's LAYERS wraps
# enumerate_class, class_lengths, count_matrix, descent_walk,
# bruhat_leq_walk and the sweep's class_label calls, and op_bruhat calls
# count_matrix.  bruhat_leq_walk keeps its name and contract for that
# binding alone: its body is one call of _bruhat_leq, the one pair walk.
# The block moves to tests/oracle.py once ROADMAP item 1 retires those
# names.


def group_order(ctx: GroupContext) -> int:
    n = ctx.n
    if not ctx.signed:
        return factorial(n)
    if ctx.family == "BC":
        return factorial(n) * 2**n
    return factorial(n) * 2 ** (n - 1)


def enumerate_group(ctx: GroupContext) -> Iterator[SignedPermutation]:
    """Every element of ctx's component exactly once, in a fixed order.
    For twisted A this streams the stored permutation parts."""
    if group_order(ctx) > MAX_HELD:
        raise CapExceeded(
            f"|{ctx.family}({ctx.n}) component| = {group_order(ctx)} exceeds {MAX_HELD}"
        )
    n = ctx.n
    if not ctx.signed:
        yield from itertools.permutations(range(1, n + 1))
        return
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            w = tuple(s * p for s, p in zip(signs, perm))
            if component_of(ctx.family, w) == ctx.component:
                yield w


@lru_cache(maxsize=CONTEXT_CACHE)
def _class_table(
    ctx: GroupContext,
) -> dict[Partition, tuple[tuple[SignedPermutation, ...], tuple[int, ...]]]:
    """All elliptic classes of ctx at once: label -> (elements, lengths),
    both sorted by (length, element).  One group sweep, reused by every
    brute-force class query below; the tests compare _min_length_set and
    class_size against them."""
    buckets: dict[Partition, list[tuple[int, SignedPermutation]]] = {}
    for w in enumerate_group(ctx):
        lab = class_label(ctx, w)
        if lab is None:
            continue
        buckets.setdefault(lab, []).append((length(ctx, w), w))
    out = {}
    for lab, pairs in buckets.items():
        pairs.sort()
        out[lab] = (tuple(w for _, w in pairs), tuple(l for l, _ in pairs))
    return out


def enumerate_class(ctx: GroupContext, alpha: Partition) -> tuple[SignedPermutation, ...]:
    """All elements with class_label alpha, sorted by (length, window).
    The group sweep, and its CapExceeded, comes before alpha's check."""
    return _class_table(ctx)[check_elliptic(ctx, alpha)][0]


def class_lengths(ctx: GroupContext, alpha: Partition) -> tuple[int, ...]:
    """Lengths aligned with enumerate_class."""
    return _class_table(ctx)[check_elliptic(ctx, alpha)][1]


def count_matrix(ctx: GroupContext, w: SignedPermutation) -> CountMatrix:
    """Prefix sums down the index set, each row packed as in _count_key:
    row i is row i-1 plus the column row of w(i)."""
    _check_element(ctx, w)
    idx, columns, width, _ = _count_columns(ctx)
    rows = itertools.accumulate(map(columns.__getitem__, _row_images(ctx, w)))
    return CountMatrix(ctx.n, ctx.signed, tuple(unpack_bytes(r, width, len(idx)) for r in rows))


def descent_walk(
    ctx: GroupContext, y: SignedPermutation
) -> tuple[list[int], list[SignedPermutation]]:
    """The walk the descent recursion takes y through: the stripped
    simple-reflection indices and the element after each strip (path[0]
    is y itself, path[-1] has length zero).  Each strip takes the
    leftmost descent, and the scan resumes at max(i-2, 1) after a strip
    at i (see _steps), so a walk of length l makes O(l + n) descent
    tests; it ends when the scan passes the last simple reflection."""
    _check_element(ctx, y)
    steps = _steps(ctx)
    v = list(y)
    chain: list[int] = []
    path = [y]
    k = 0
    while k < len(steps):
        a, b, s = steps[k]
        if s * v[a] > v[b]:
            v[a], v[b] = s * v[b], s * v[a]
            chain.append(k + 1)
            path.append(tuple(v))
            k = k - 2 if k > 1 else 0
        else:
            k += 1
    return chain, path


def bruhat_leq_walk(
    ctx: GroupContext,
    x: SignedPermutation,
    lx: int,
    chain: list[int],
    path: list[SignedPermutation],
) -> bool:
    """Bruhat x <= y, where (chain, path) came from descent_walk(ctx, y).
    lx must equal length(x).  path[0] is y and len(chain) its length,
    and _bruhat_leq strips y's leftmost descents by the same rescan as
    descent_walk, so this is that one walk."""
    return _bruhat_leq(ctx, x, lx, path[0], len(chain))
