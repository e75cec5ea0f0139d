"""Brute-force cross-checks that the tests compare the library against.

No verb and no library path reads these.  Each restates a rule the
library computes another way: simple reflections as the windows their
definitions name, stepped by composition, with descents decided by
Bjorner-Brenti's length formulas; the descent walk that rescans from s_1
after every strip; the literal count |{k <= i : w(k) >= j}|, and the
entries of it that refute a pair of classes; an elliptic class as the
closure of its representative under conjugation by the simple
reflections; the minimal-length elements of a class
picked out of a whole-group sweep;
the four quantifications whose agreement defines the order on elliptic
classes, decided along that walk, and its closed-form prediction;
for each element of one minimal-length set, the first element of
another below it, which gives the order's "no" pair by pair and its
"every" element by element; the characteristic transfer
theta2 with Spaltenstein's column-by-column form of it; the
transfer square of the Lusztig map; and the centraliser dimension of a
good-characteristic unipotent class in closed form.
The whole-group class sweep itself stays in weylunip.weylgroup (see the
comment there), and this module imports it.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple

from weylunip import weylgroup as wg
from weylunip.classposet import EllipticClassLabel, _require_same_ctx, elliptic_label
from weylunip.lusztig import phi
from weylunip.partitions import (
    Partition,
    add_psi,
    as_partition,
    dominance_leq,
    fields_leq,
    multiplicity,
    transpose,
)
from weylunip.unipotent import CHAR2, GOOD, UnipotentLabel, check_group, good_label
from weylunip.weylgroup import GroupContext, SignedPermutation

# ---------------------------------------------------------------------------
# weylgroup


def simple_reflection(ctx: GroupContext, i: int) -> SignedPermutation:
    """s_i as the window its definition names: in A (and on twisted A's
    stored part) the transposition of i and i+1; in BC s_1 = [-1,2,...,n]
    and s_i the transposition of i-1 and i; in D s_1 = [2,1,3,...,n],
    s_2 = [-2,-1,3,...,n] and s_i the transposition of i-1 and i."""
    n = ctx.n
    top = n - 1 if ctx.family in ("A", "2A") else n
    if not 1 <= i <= top:
        raise ValueError(f"simple reflection index {i} out of range for {ctx.family}({ctx.n})")
    w = list(range(1, n + 1))
    if ctx.family in ("A", "2A"):
        w[i - 1], w[i] = i + 1, i
    elif ctx.family == "BC" and i == 1:
        w[0] = -1
    elif ctx.family == "D" and i <= 2:
        w[:2] = (2, 1) if i == 1 else (-2, -1)
    else:
        w[i - 2], w[i - 1] = i, i - 1
    return tuple(w)


@lru_cache(maxsize=None)
def simples(ctx: GroupContext) -> tuple[SignedPermutation, ...]:
    top = ctx.n - 1 if ctx.family in ("A", "2A") else ctx.n
    return tuple(simple_reflection(ctx, i) for i in range(1, top + 1))


def compose(x: SignedPermutation, y: SignedPermutation) -> SignedPermutation:
    """The window of x·y: (x·y)(k) = x(y(k)), with x(-k) = -x(k)."""
    return tuple(x[v - 1] if v > 0 else -x[-v - 1] for v in y)


def bb_length(ctx: GroupContext, w: SignedPermutation) -> int:
    """Coxeter length by Bjorner-Brenti's formulas, with inv(w) the pairs
    i < j with w(i) > w(j), neg(w) the negative entries and nsp(w) the
    pairs i < j with w(i) + w(j) < 0: inv in A and on twisted A's stored
    part, inv + neg + nsp in BC (Prop. 8.1.1) and inv + nsp in D
    (Prop. 8.2.1), which gives delta of D's twisted coset length 0."""
    pairs = list(combinations(w, 2))
    inv = sum(a > b for a, b in pairs)
    if ctx.family in ("A", "2A"):
        return inv
    nsp = sum(a + b < 0 for a, b in pairs)
    return inv + nsp + (sum(v < 0 for v in w) if ctx.family == "BC" else 0)


@lru_cache(maxsize=1 << 17)
def right_step(ctx: GroupContext, w: SignedPermutation, i: int) -> tuple[SignedPermutation, int]:
    """w·s_i and its bb_length.  s_i is a descent of w when that length
    is below w's; a walk that knows w's length tests only the
    reflections it reads."""
    ws = compose(w, simples(ctx)[i - 1])
    return ws, bb_length(ctx, ws)


def is_descent(ctx: GroupContext, w: SignedPermutation, i: int) -> bool:
    return right_step(ctx, w, i)[1] < bb_length(ctx, w)


def step(ctx: GroupContext, w: SignedPermutation, i: int) -> SignedPermutation:
    """w·s_i."""
    return right_step(ctx, w, i)[0]


def leftmost_descent_walk(
    ctx: GroupContext, y: SignedPermutation
) -> tuple[list[int], list[SignedPermutation]]:
    """weylgroup.descent_walk by its definition: strip the leftmost
    descent, found by a scan from s_1, until y has length zero, stepping
    a fresh tuple each time."""
    chain, path = leftmost_walk(ctx, y)
    return list(chain), list(path)


@lru_cache(maxsize=1 << 13)
def leftmost_walk(
    ctx: GroupContext, y: SignedPermutation
) -> tuple[tuple[int, ...], tuple[SignedPermutation, ...]]:
    """leftmost_descent_walk as tuples, taken once per y: first_below
    walks each upper element again for every lower class it is asked
    about.  Each strip reads the new element's length off its step, so
    only y's own length is counted afresh."""
    chain: list[int] = []
    path = [y]
    ly = bb_length(ctx, y)
    while ly:
        i = 1
        while right_step(ctx, y, i)[1] >= ly:
            i += 1
        chain.append(i)
        y, ly = right_step(ctx, y, i)
        path.append(y)
    return tuple(chain), tuple(path)


def leftmost_descent_leq(ctx: GroupContext, x: SignedPermutation, y: SignedPermutation) -> bool:
    """Bruhat x <= y by the descent recursion along
    leftmost_descent_walk(ctx, y)."""
    return leq_along_walk(ctx, x, bb_length(ctx, x), *leftmost_descent_walk(ctx, y))


def leq_along_walk(
    ctx: GroupContext,
    x: SignedPermutation,
    lx: int,
    chain: list[int],
    path: list[SignedPermutation],
) -> bool:
    """Bruhat x <= y, where (chain, path) is leftmost_descent_walk(ctx, y)
    and lx the length of x, on tuples: x steps down with y while the
    stripped reflection is a descent of x, until x is as long as what is
    left of y."""
    ly = len(chain)
    for t, i in enumerate(chain):
        if lx > ly:
            return False
        if lx == ly:
            return x == path[t]
        xs, ls = right_step(ctx, x, i)
        if ls < lx:
            x, lx = xs, ls
        ly -= 1
    return x == path[-1]


def count_entry(w: SignedPermutation, i: int, j: int) -> int:
    """The literal count |{k in {-n..-1,1..n} : k <= i, w(k) >= j}| for
    arbitrary integers i, j (out-of-range values are fine; plain
    permutations are extended by w(-k) = -w(k))."""
    n = len(w)
    c = 0
    for k in range(-n, 0):
        if k <= i and -w[-k - 1] >= j:
            c += 1
    for k in range(1, n + 1):
        if k <= i and w[k - 1] >= j:
            c += 1
    return c


def refuting_entry(ctx: GroupContext, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """The entries (p, q), p and q in -n..n, at which every minimal-length
    element of ctx's i-th elliptic class a has a larger literal count than
    the representative of the j-th class b: those where rep(a)'s
    count_entry exceeds rep(b)'s, kept while each element of
    weylgroup._min_length_set(ctx, rep(a)) exceeds it too.  In BC and D,
    x <= y in Bruhat order forces count_entry(x, p, q) <= count_entry(y,
    p, q) for all p, q (Bjorner-Brenti ch. 8), so any one entry proves
    that no element of C_min(a) lies below rep(b)."""
    alphas = wg.elliptic_partitions(ctx)
    a, b = (wg.class_rep(ctx, alphas[k]) for k in (i, j))
    span = range(-ctx.n, ctx.n + 1)
    bound = {(p, q): count_entry(b, p, q) for p in span for q in span}
    entries = [e for e in bound if count_entry(a, *e) > bound[e]]
    for x in wg._min_length_set(ctx, a):
        if not entries:
            break
        entries = [e for e in entries if count_entry(x, *e) > bound[e]]
    return tuple(entries)


def conjugacy_class(ctx: GroupContext, alpha: Partition) -> set[SignedPermutation]:
    """The class of class_rep(ctx, alpha) as the closure of that element
    under conjugation by the simple reflections, by composition: u goes
    to s_i·u·s_i, or on twisted A's stored part to s_i·u·s_{n-i}, as
    delta·s_i·delta = s_{n-i}."""
    ss = simples(ctx)
    sides = [(s, ss[-1 - i] if ctx.family == "2A" else s) for i, s in enumerate(ss)]
    rep = wg.class_rep(ctx, alpha)
    seen, todo = {rep}, [rep]
    while todo:
        u = todo.pop()
        for s, t in sides:
            v = compose(compose(s, u), t)
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def min_length_elements(ctx: GroupContext, alpha: Partition) -> tuple[SignedPermutation, ...]:
    els = wg.enumerate_class(ctx, alpha)
    lens = wg.class_lengths(ctx, alpha)
    lmin = lens[0]
    return tuple(w for w, l in zip(els, lens) if l == lmin)


# ---------------------------------------------------------------------------
# classposet


class ConditionRecord(NamedTuple):
    """The four quantifications whose agreement defines the order: does
    (some | every) minimal-length element of the upper class dominate an
    element of the lower class's (minimal-length subset | whole class)."""

    some_min_to_min: bool
    every_min_to_min: bool
    some_min_to_class: bool
    every_min_to_class: bool

    def all_agree(self) -> bool:
        return len(set(self)) == 1


def class_leq_W_all_variants(a: EllipticClassLabel, b: EllipticClassLabel) -> ConditionRecord:
    """Evaluate all four defining conditions of a <= b independently by
    brute force over minimal-length sets and full classes."""
    ctx = _require_same_ctx(a, b)
    upper_min = min_length_elements(ctx, b.partition)
    els = wg.enumerate_class(ctx, a.partition)
    lens = wg.class_lengths(ctx, a.partition)
    lmin = lens[0]
    min_cut = bisect_right(lens, lmin)

    hits_min: list[bool] = []
    hits_class: list[bool] = []
    for w in upper_min:
        chain, path = leftmost_descent_walk(ctx, w)
        cut = bisect_right(lens, len(chain))
        hit_min = any(
            leq_along_walk(ctx, els[pos], lens[pos], chain, path)
            for pos in range(min(min_cut, cut))
        )
        hit_class = hit_min or any(
            leq_along_walk(ctx, els[pos], lens[pos], chain, path)
            for pos in range(min_cut, cut)
        )
        hits_min.append(hit_min)
        hits_class.append(hit_class)

    return ConditionRecord(
        some_min_to_min=any(hits_min),
        every_min_to_min=all(hits_min),
        some_min_to_class=any(hits_class),
        every_min_to_class=all(hits_class),
    )


def first_below(
    ctx: GroupContext, lower: tuple[SignedPermutation, ...], upper: tuple[SignedPermutation, ...]
) -> Iterator[SignedPermutation | None]:
    """For each w in upper, lazily, the first x in lower with x <= w in
    Bruhat order, or None: each pair of packed count keys is compared,
    which decides A, BC and twisted A; in D the comparison only filters,
    and leq_along_walk on w's leftmost_walk decides each pair it lets
    through, with each lower element's length taken once."""
    guards = wg._count_columns(ctx)[3]
    confirm = ctx.family == "D"
    keys = [(x, wg._count_key(ctx, x), bb_length(ctx, x) if confirm else 0) for x in lower]
    for w in upper:
        key, walk, found = wg._count_key(ctx, w), None, None
        for x, kx, lx in keys:
            if fields_leq(kx, key, guards) != guards:
                continue
            if confirm:
                walk = walk or leftmost_walk(ctx, w)
                if not leq_along_walk(ctx, x, lx, *walk):
                    continue
            found = x
            break
        yield found


def related_min_pair(
    ctx: GroupContext, lower: tuple[SignedPermutation, ...], upper: tuple[SignedPermutation, ...]
) -> tuple[SignedPermutation, SignedPermutation] | None:
    """The first pair (x, w) in lower x upper with x <= w in Bruhat
    order, w first, or None (first_below decides each w)."""
    return next(
        ((x, w) for w, x in zip(upper, first_below(ctx, lower, upper)) if x is not None), None
    )


def predicted_leq_W(a: EllipticClassLabel, b: EllipticClassLabel) -> bool:
    """The closed-form prediction: a <= b iff b's partition is dominated
    by a's (the order on classes reverses dominance)."""
    _require_same_ctx(a, b)
    return dominance_leq(b.partition, a.partition)


# ---------------------------------------------------------------------------
# unipotent


def theta2(label: UnipotentLabel) -> UnipotentLabel:
    """The inverse of the characteristic-0-to-2 transfer on the classes
    reached from elliptic Weyl classes: identity on symplectic
    partitions, the psi correction on orthogonal ones (with the odd
    orthogonal trailing 1 stripped and restored as the totals demand).

    Requires a characteristic-2 label whose epsilon is epsilon_max:
    every stored value is 1.
    """
    if label.kind != CHAR2:
        raise ValueError("theta2 transfers characteristic-2 labels")
    if label.group not in ("Sp", "O_odd", "O_even"):
        raise ValueError(f"theta2 is not defined for group {label.group}")
    if any(v != 1 for _, v in label.epsilon):
        raise ValueError("theta2 is only defined at epsilon_max")
    if label.group == "Sp":
        return good_label("Sp", label.n, label.partition)
    if label.group == "O_even":
        return good_label("O_even", label.n, add_psi(label.partition))
    block = tuple(p for p in label.partition if p != 1)
    ones = multiplicity(label.partition, 1)
    if ones != 1 or any(p % 2 for p in block):
        raise ValueError(
            f"theta2 on odd orthogonal labels needs shape (even parts, 1), got {label.partition}"
        )
    gamma = add_psi(block) if block else ()
    if len(block) % 2 == 0:
        gamma = gamma + (1,)
    return good_label("O_odd", label.n, gamma)


def theta2_columns(alpha) -> tuple[int, ...]:
    """The transformed column lengths of the orthogonal transfer: column
    i gains a box when i is odd, alpha*_i is even, and alpha has a part
    of size i-1; it loses a box when i is even, alpha*_i is even, and
    alpha has a part of size i; otherwise it is unchanged.  Defined for
    partitions with all parts even.  Trailing zero columns are kept so
    the returned tuple always has alpha_1 + 1 entries.
    """
    alpha = as_partition(alpha)
    if any(p % 2 for p in alpha):
        raise ValueError(f"column recipe requires all parts even, got {alpha}")
    if not alpha:
        raise ValueError("column recipe of the empty partition is undefined")
    ta = transpose(alpha)
    out = []
    for i in range(1, alpha[0] + 2):
        ti = ta[i - 1] if i <= len(ta) else 0
        if i % 2 == 1 and ti % 2 == 0 and multiplicity(alpha, i - 1) > 0:
            out.append(ti + 1)
        elif i % 2 == 0 and ti % 2 == 0 and multiplicity(alpha, i) > 0:
            out.append(ti - 1)
        else:
            out.append(ti)
    return tuple(out)


def theta2_column_recipe(alpha) -> Partition:
    """The column-by-column form of the orthogonal transfer; agrees with
    add_psi on every partition with all parts even."""
    return transpose(as_partition(theta2_columns(alpha)))


# ---------------------------------------------------------------------------
# lusztig


def phi_good_char_equals_theta2_of_phi_char2(group: str, n: int, alpha) -> bool:
    """The transfer square commutes on elliptic classes: applying the map
    in characteristic 2 and transferring back equals the good-characteristic
    map.  Defined for Sp, O_odd, and the identity component of O_even."""
    c = elliptic_label(check_group(group, n, GOOD), alpha)
    transferred = theta2(phi(group, CHAR2, c))
    return transferred == phi(group, GOOD, c)


def centraliser_dim(label: UnipotentLabel) -> int:
    """dim Z_G(u) for u in the good-characteristic class label of G, from
    its Jordan partition lambda and the transpose lambda*
    (Collingwood-McGovern 1993, section 6.1): sum (lambda*_i)^2 for GL_n,
    with the centre counted; half of that plus half the number of odd
    parts lambda_j for Sp_2n; half of it minus that half for O_N."""
    if label.kind != GOOD:
        raise ValueError("centraliser_dim reads good-characteristic labels")
    squares = sum(c * c for c in transpose(label.partition))
    if label.group == "GL":
        return squares
    odd = sum(p % 2 for p in label.partition)
    return (squares + odd) // 2 if label.group == "Sp" else (squares - odd) // 2
