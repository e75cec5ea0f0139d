"""Brute-force cross-checks that the tests compare the library against.

No verb and no library path reads these.  Each restates a rule the
library computes another way: simple reflections as windows, the descent
walk that rescans from s_1 after every strip, the literal count
|{k <= i : w(k) >= j}|, the minimal-length elements of a class
picked out of a whole-group sweep, the four quantifications whose
agreement defines the order on elliptic classes and its closed-form
prediction, the characteristic transfer theta2 with Spaltenstein's
column-by-column form of it, and the transfer square of the Lusztig map.
The whole-group class sweep itself stays in weylunip.weylgroup (see the
comment there), and this module imports it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from weylunip import weylgroup as wg
from weylunip.classposet import EllipticClassLabel, _require_same_ctx, elliptic_label
from weylunip.lusztig import phi
from weylunip.partitions import (
    Partition,
    add_psi,
    as_partition,
    dominance_leq,
    multiplicity,
    transpose,
)
from weylunip.unipotent import CHAR2, GOOD, UnipotentLabel, check_group, good_label
from weylunip.weylgroup import (
    GroupContext,
    SignedPermutation,
    _apply_right,
    _coxeter,
    _is_descent,
    identity,
)

# ---------------------------------------------------------------------------
# weylgroup


def simple_reflection(ctx: GroupContext, i: int) -> SignedPermutation:
    fam, top = _coxeter(ctx)
    if not 1 <= i <= top:
        raise ValueError(f"simple reflection index {i} out of range for {ctx.family}({ctx.n})")
    return _apply_right(fam, identity(ctx.n), i)


def simples(ctx: GroupContext) -> tuple[SignedPermutation, ...]:
    _, top = _coxeter(ctx)
    return tuple(simple_reflection(ctx, i) for i in range(1, top + 1))


def leftmost_descent_walk(
    ctx: GroupContext, y: SignedPermutation
) -> tuple[list[int], list[SignedPermutation]]:
    """weylgroup.descent_walk by its definition: strip the leftmost
    descent, found by a scan from s_1, length(y) times, stepping a fresh
    tuple each time."""
    fam, top = _coxeter(ctx)
    chain: list[int] = []
    path = [y]
    for _ in range(wg.length(ctx, y)):
        for i in range(1, top + 1):
            if _is_descent(fam, y, i):
                break
        chain.append(i)
        y = _apply_right(fam, y, i)
        path.append(y)
    return chain, path


def leftmost_descent_leq(ctx: GroupContext, x: SignedPermutation, y: SignedPermutation) -> bool:
    """Bruhat x <= y by the descent recursion along
    leftmost_descent_walk(ctx, y), on tuples: x steps down with y while
    the stripped reflection is a descent of x, until x is as long as
    what is left of y."""
    fam, _ = _coxeter(ctx)
    chain, path = leftmost_descent_walk(ctx, y)
    lx, ly = wg.length(ctx, x), len(chain)
    for t, i in enumerate(chain):
        if lx > ly:
            return False
        if lx == ly:
            return x == path[t]
        if _is_descent(fam, x, i):
            x = _apply_right(fam, x, i)
            lx -= 1
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
        lw = wg.length(ctx, w)
        chain, path = wg.descent_walk(ctx, w)
        cut = bisect_right(lens, lw)
        hit_min = any(
            wg.bruhat_leq_walk(ctx, els[pos], lens[pos], chain, path)
            for pos in range(min(min_cut, cut))
        )
        hit_class = hit_min or any(
            wg.bruhat_leq_walk(ctx, els[pos], lens[pos], chain, path)
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
