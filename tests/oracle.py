"""Brute-force cross-checks that the tests compare the library against.

No verb and no library path reads these.  Each restates a rule the
library computes another way: simple reflections as windows, the literal
count |{k <= i : w(k) >= j}|, the minimal-length elements of a class
picked out of a whole-group sweep, the four quantifications whose
agreement defines the order on elliptic classes, Spaltenstein's
column-by-column form of the orthogonal transfer, and the transfer square
of the Lusztig map.  The whole-group class sweep itself stays in
weylunip.weylgroup (see the comment there), and this module imports it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from weylunip import weylgroup as wg
from weylunip.classposet import EllipticClassLabel, _require_same_ctx, elliptic_label
from weylunip.lusztig import group_spec, phi, weyl_context
from weylunip.partitions import Partition, as_partition, multiplicity, transpose
from weylunip.unipotent import CHAR2, GOOD, theta2
from weylunip.weylgroup import (
    GroupContext,
    SignedPermutation,
    _apply_right,
    _coxeter,
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


# ---------------------------------------------------------------------------
# unipotent


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
    spec2 = group_spec(group, n, CHAR2)
    spec0 = group_spec(group, n, GOOD)
    ctx = weyl_context(spec0)
    c = elliptic_label(ctx, alpha)
    transferred = theta2(phi(spec2, c))
    return transferred == phi(spec0, c)
