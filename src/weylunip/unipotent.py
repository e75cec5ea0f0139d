"""Unipotent-class parameters for classical groups in good and bad
characteristic, and the closure orders on them.

Good characteristic: classes are partitions (of the matrix size)
constrained by the group type, ordered by dominance.  Characteristic 2:
classes of the symplectic and orthogonal groups are pairs (partition,
epsilon) where epsilon assigns omega, 0, or 1 to every row size, free
only at even rows of positive even multiplicity (odd rows for the
twisted general linear family).  omega is a formal value below 0; it is
encoded here as -1.  A label stores only the free values; _forced_value
gives the others.  epsilon_max, the choice of 1 at every free row, is
the largest epsilon of its partition.

Groups are named "GL", "GLd" (the extension of GL(n) by transpose
inverse), "Sp" (Sp(2n)), "O_odd" (O(2n+1)), and "O_even" (O(2n)), the
keys of GROUP_FAMILY; n is always the Weyl-group rank.  Odd orthogonal
groups in characteristic 2 borrow the symplectic parameter set through
the exceptional isogeny, written with a trailing 1 appended to the
partition.

A class is named by a UnipotentLabel, a NamedTuple that caches the packed
key the closure orders read.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .partitions import (
    Partition,
    as_partition,
    family_members,
    field_width,
    fields_leq,
    format_partition,
    guard_bits,
    kappa_member,
    multiplicity,
    pack,
    transpose,
)
from . import weylgroup as wg

OMEGA = -1

# every group, with the Weyl family its elliptic classes come from
GROUP_FAMILY = {"GL": "A", "GLd": "2A", "Sp": "BC", "O_odd": "BC", "O_even": "D"}

GOOD = "good"
CHAR2 = "2"


def has_unipotents(char: str, component: str) -> bool:
    """Whether the component of a group's Weyl side carries unipotent
    classes in characteristic char: outside characteristic 2 every
    unipotent element lies in the identity component, so a twisted one
    has unipotents only in characteristic 2."""
    return char == CHAR2 or component == wg.IDENTITY_COMPONENT


def check_group(group: str, n: int, char: str, component: str | None = None) -> wg.GroupContext:
    """The Weyl context of group at rank n on component (None picks the
    family's default), the one gate on the group side: refuse a group
    name outside GROUP_FAMILY, a characteristic other than good or 2, a
    rank below the least rank of the group's Weyl family, a component
    the family lacks, and a characteristic where the component has no
    unipotents (has_unipotents), in that order."""
    if group not in GROUP_FAMILY:
        raise ValueError(f"unknown group {group!r}")
    if char not in (GOOD, CHAR2):
        raise ValueError(f"characteristic must be '{GOOD}' or '{CHAR2}'")
    if n < wg.FAMILY_RULES[GROUP_FAMILY[group]].min_rank:
        raise ValueError(f"rank {n} out of range for {group}")
    ctx = wg.context(GROUP_FAMILY[group], n, component)
    if not has_unipotents(char, ctx.component):
        name = "O(2n)" if group == "O_even" else group
        raise ValueError(
            f"the twisted component of {name} has no unipotent elements in good characteristic"
        )
    return ctx


def _forced_value(group: str, i: int, m: int) -> int | None:
    """The value epsilon must take at row size i, of multiplicity m in
    the partition of a characteristic-2 label of group, or None when it
    is free.

    GLd forces even rows and absent rows to omega; the symplectic and
    orthogonal groups force odd rows and absent rows to omega, and
    epsilon(0) to 1 for Sp and 0 for the orthogonal groups.  A row of
    odd multiplicity is 1."""
    if group == "GLd":
        if i % 2 == 0 or m == 0:
            return OMEGA
    else:
        if i == 0:
            return 1 if group == "Sp" else 0
        if i % 2 == 1 or m == 0:
            return OMEGA
    return 1 if m % 2 == 1 else None


def free_indices(group: str, alpha: Partition) -> tuple[int, ...]:
    """Row sizes where epsilon may be 0 or 1, descending."""
    return tuple(i for i, m in Counter(alpha).items() if _forced_value(group, i, m) is None)


# ---------------------------------------------------------------------------
# labels


class _LabelFields(NamedTuple):
    group: str
    n: int
    kind: str
    partition: Partition
    epsilon: tuple[tuple[int, int], ...] | None = None
    split: str | None = None


class UnipotentLabel(_LabelFields):
    """A unipotent conjugacy class of a classical group: a NamedTuple of
    the fields of _LabelFields, compared and hashed by value.

    kind "good" carries just the partition; kind "2" (characteristic 2)
    carries the partition and epsilon, stored as its free values: a tuple
    of (row, value) pairs in descending row order.  split marks the two
    members of a class that falls apart over the special orthogonal
    subgroup (_splits says which); they compare like their base class.

    The subclass declares no __slots__, so each label has an instance
    __dict__, where cached_property keeps _domain and _key.
    """

    @property
    def so_component(self) -> str | None:
        """For even orthogonal labels: "SO" when the class lies in the
        special orthogonal group, "O\\SO" otherwise."""
        if self.group != "O_even":
            return None
        if self.kind == "good":
            return "SO"
        return "SO" if len(self.partition) % 2 == 0 else "O\\SO"

    def epsilon_at(self, k: int) -> int:
        """epsilon(k) of a characteristic-2 label: the forced value, or
        else the stored free one."""
        return self._epsilon(k, multiplicity(self.partition, k))

    def _epsilon(self, k: int, m: int) -> int:
        """epsilon_at(k), given m, the multiplicity of k."""
        forced = _forced_value(self.group, k, m)
        if forced is not None:
            return forced
        for idx, val in self.epsilon:
            if idx == k:
                return val
        raise ValueError(f"no value stored for free index {k}")

    def __str__(self) -> str:
        return format_unipotent(self)

    @cached_property
    def _domain(self) -> tuple:
        """What two labels must share to be compared: kind, group, rank
        and SO component."""
        return (self.kind, self.group, self.n, self.so_component)

    @cached_property
    def _key(self) -> tuple[int, ...]:
        """What the closure orders read of the label, packed by
        partitions.pack with fields wide enough for the matrix size dim,
        the term of k = 1..dim in field k - 1.

        A good label gives (guards, key): key holds the prefix sums of
        the partition, which stay at dim past its last part.  A
        characteristic-2 label gives (guards, key, sums, parity, zeros):
        key goes on in fields dim..2 dim - 1 with the complemented room
        terms dim - (S_k - max(eps(k), 0)), where S_k are the prefix sums
        of the transpose, which sums holds; parity has the guard bit of
        field k - 1 set when transpose entry k + 1 is odd, and zeros when
        eps(k) = 0.  guards holds the guard bit of every field of key."""
        dim = _dim(self.group, self.n)
        if sum(self.partition) != dim:
            raise ValueError(f"{self.partition} is not a partition of {dim}")
        width = field_width(dim)
        padded = self.partition + (0,) * (dim - len(self.partition))
        dominance = list(itertools.accumulate(padded))
        if self.kind == GOOD:
            return guard_bits(dim, width), pack(dominance, width)
        cols = transpose(self.partition)
        cols += (0,) * (dim + 1 - len(cols))
        sums = list(itertools.accumulate(cols[:dim]))
        room = [dim - s for s in sums]
        zeros = [0] * dim
        # eps(k) is omega at every k that is not a row, so only rows move
        # the room terms or set a zero; rows ascend, so a label missing
        # several free values names the least
        for row, m in sorted(Counter(self.partition).items()):
            e = self._epsilon(row, m)
            if e == 1:
                room[row - 1] += 1
            elif e == 0:
                zeros[row - 1] = 1
        return (
            guard_bits(2 * dim, width),
            pack(dominance + room, width),
            pack(sums, width),
            pack([c % 2 for c in cols[1:]], width) << (width - 1),
            pack(zeros, width) << (width - 1),
        )


def _dim(group: str, n: int) -> int:
    """The matrix size of group at Weyl rank n."""
    if group in ("GL", "GLd"):
        return n
    return 2 * n + 1 if group == "O_odd" else 2 * n


def kappa(group: str, char: str) -> int | None:
    """The row parity whose rows must have even multiplicity in the
    group's label partitions in characteristic char: -1 (odd rows) for Sp
    and, in characteristic 2, for the orthogonal groups (an O_odd label
    without its appended 1); +1 (even rows) for the orthogonal groups in
    good characteristic and for GLd; None where every partition is a
    label (GL)."""
    if group == "GL":
        return None
    if group == "GLd":
        return 1
    return -1 if group == "Sp" or char == CHAR2 else 1


def _check_partition(group: str, n: int, char: str, alpha: Partition) -> None:
    check_group(group, n, char)
    dim = _dim(group, n)
    if sum(alpha) != dim:
        raise ValueError(f"{alpha} is not a partition of {dim}")
    rows = alpha
    if group == "O_odd" and char == CHAR2:
        if alpha[-1:] != (1,):
            raise ValueError(f"{alpha}: odd orthogonal labels have an odd number of 1s")
        # an O_odd label is a symplectic one with a 1 appended (the isogeny)
        rows = alpha[:-1]
    k = kappa(group, char)
    if k is not None and not kappa_member(rows, k):
        parity = "odd" if k == -1 else "even"
        if char == GOOD:
            raise ValueError(
                f"{alpha} is not a valid {group} partition: an {parity} row has odd multiplicity"
            )
        raise ValueError(f"{alpha}: an {parity} row has odd multiplicity")


def _splits(group: str, alpha: Partition, values) -> bool:
    """Whether the class of alpha with free epsilon values values (none
    for a good label) falls apart over SO(2n) into a pair marked I, II."""
    return group == "O_even" and 1 not in values and all(
        p % 2 == 0 and m % 2 == 0 for p, m in Counter(alpha).items()
    )


def _check_split(group: str, alpha: Partition, values, split: str | None) -> None:
    """Refuse a marker other than I or II, or one on a class that does
    not split; an unmarked label of a split class names the O(2n) class."""
    if split not in (None, "I", "II"):
        raise ValueError(f"bad split marker {split!r}")
    if split is not None and not _splits(group, alpha, values):
        raise ValueError(
            f"split marker {split!r} on {format_partition(alpha)}, "
            f"a class that does not split in {group}"
        )


def good_label(group: str, n: int, partition, split: str | None = None) -> UnipotentLabel:
    alpha = as_partition(partition)
    _check_partition(group, n, GOOD, alpha)
    _check_split(group, alpha, (), split)
    return UnipotentLabel(group, n, GOOD, alpha, None, split)


def bad_label(
    group: str,
    n: int,
    partition,
    epsilon: dict[int, int] | None = None,
    split: str | None = None,
) -> UnipotentLabel:
    """A characteristic-2 label.  epsilon maps each free row to 0 or 1;
    None means epsilon_max."""
    alpha = as_partition(partition)
    _check_partition(group, n, CHAR2, alpha)
    if group == "GL":
        raise ValueError(f"group {group!r} has no characteristic-2 parameter set")
    free = free_indices(group, alpha)
    values = dict.fromkeys(free, 1) if epsilon is None else dict(epsilon)
    if set(values) != set(free):
        raise ValueError(
            f"epsilon must assign exactly the free indices {sorted(free)}, "
            f"got {sorted(values)}"
        )
    if any(v not in (0, 1) for v in values.values()):
        raise ValueError("free epsilon values must be 0 or 1")
    _check_split(group, alpha, values.values(), split)
    return UnipotentLabel(group, n, CHAR2, alpha, tuple((i, values[i]) for i in free), split)


# ---------------------------------------------------------------------------
# closure orders


_KIND_REFUSAL = {
    GOOD: "good_leq compares good-characteristic labels",
    CHAR2: "bad_leq compares characteristic-2 labels",
}


def _check_comparable(a: UnipotentLabel, b: UnipotentLabel, kind: str) -> None:
    """Refuse a pair whose domains differ, by the first check that
    fails, or a pair not of the given kind."""
    if a.kind != kind or b.kind != kind:
        raise ValueError(_KIND_REFUSAL[kind])
    if (a.group, a.n) != (b.group, b.n):
        raise ValueError(f"labels from different groups: {a} vs {b}")
    if a.so_component != b.so_component:
        raise ValueError(
            f"labels in different components of O(2n): {a} vs {b}; "
            "the closure order does not mix them"
        )


def good_leq(a: UnipotentLabel, b: UnipotentLabel) -> bool:
    """Closure order in good characteristic: dominance of partitions.
    Split markers are ignored (the two members of a split pair sit at
    the same place in the order)."""
    domain = a._domain  # (kind, ...): indexing it is cheaper than reading a.kind
    if domain != b._domain or domain[0] != GOOD:
        _check_comparable(a, b, GOOD)
    guards, key_a = a._key
    key_b = b._key[1]
    return fields_leq(key_a, key_b, guards) == guards


def bad_leq(a: UnipotentLabel, b: UnipotentLabel) -> bool:
    """Closure order in characteristic 2.

    (alpha, eps) <= (beta, dlt) iff alpha <= beta in dominance and for
    every k >= 1, writing S_k for the k-th prefix sum of the transpose:
    S_k(beta) - max(dlt(k), 0) <= S_k(alpha) - max(eps(k), 0); and
    whenever S_k(alpha) = S_k(beta) with alpha*_{k+1} - beta*_{k+1} odd,
    dlt(k) is omega or 1.

    Each label packs its terms of these tests into one integer, for k = 1
    up to the matrix size dim, with the room terms complemented so that
    both inequalities become one entrywise comparison; the padding is
    exact, since past a label's largest part eps is forced to omega and
    S_k is the total, so those k pass every test.

    Even orthogonal labels compare only within the same component of the
    group.
    """
    domain = a._domain
    if domain != b._domain or domain[0] != CHAR2:
        _check_comparable(a, b, CHAR2)
    guards, key_a, sums_a, parity_a, _ = a._key
    _, key_b, sums_b, parity_b, zeros_b = b._key
    if fields_leq(key_a, key_b, guards) != guards:
        return False
    clash = (parity_a ^ parity_b) & zeros_b
    # alpha <= beta in dominance gives S_k(beta) <= S_k(alpha) for every
    # k, so the fields where S_k(alpha) <= S_k(beta) are where they agree
    return not clash or not clash & fields_leq(sums_a, sums_b, guards)


def unipotent_leq(a: UnipotentLabel, b: UnipotentLabel) -> bool:
    """Dispatch to the closure order matching the labels' characteristic."""
    kind = a.kind
    if kind != b.kind:
        raise ValueError(f"cannot compare {kind} with {b.kind} labels")
    return good_leq(a, b) if kind == GOOD else bad_leq(a, b)


# ---------------------------------------------------------------------------
# enumeration and display


def enumerate_unipotent(group: str, n: int, char: str) -> list[UnipotentLabel]:
    """All unipotent class labels of the group in the given
    characteristic, deterministically ordered (partitions reverse-lex,
    epsilon choices largest first, split pair I before II).  Classes
    that split over SO(2n) appear as two labels."""
    check_group(group, n, char)
    # GL's classes are partitions in every characteristic
    kind = CHAR2 if char == CHAR2 and group != "GL" else GOOD
    # O_odd's characteristic-2 labels are partitions of 2n with a 1 appended
    isogeny = group == "O_odd" and kind == CHAR2
    out: list[UnipotentLabel] = []
    for a in family_members(2 * n if isogeny else _dim(group, n), kappa(group, char)):
        a = a + (1,) if isogeny else a
        free = free_indices(group, a) if kind == CHAR2 else ()
        for values in itertools.product((1, 0), repeat=len(free)):
            eps = tuple(zip(free, values)) if kind == CHAR2 else None
            for split in ("I", "II") if _splits(group, a, values) else (None,):
                out.append(UnipotentLabel(group, n, kind, a, eps, split))
    return out


def format_unipotent(label: UnipotentLabel) -> str:
    """Bracket notation: good labels "[7,1]", characteristic-2 labels
    "([4,4],ε(4)=1)" with runs of equal values chained as
    "ε(4)=ε(2)=1" and "*" when no free index exists; split markers
    append "_I" or "_II"."""
    tail = f"_{label.split}" if label.split else ""
    if label.kind == GOOD:
        return format_partition(label.partition) + tail
    pairs = label.epsilon
    if not pairs:
        eps_text = "*"
    else:
        runs: list[tuple[list[int], int]] = []
        for idx, val in pairs:
            if runs and runs[-1][1] == val:
                runs[-1][0].append(idx)
            else:
                runs.append(([idx], val))
        eps_text = ",".join(
            "=".join(f"ε({i})" for i in idxs) + f"={val}" for idxs, val in runs
        )
    return f"({format_partition(label.partition)},{eps_text})" + tail


def label_to_json(label: UnipotentLabel) -> dict:
    """JSON form: good labels omit epsilon; the epsilon object lists the
    free assignments only."""
    group_name = "O" if label.group == "O_even" else label.group
    doc: dict = {"partition": list(label.partition), "group": group_name}
    if label.kind == CHAR2:
        doc["epsilon"] = {str(i): v for i, v in label.epsilon}
        # which row parity the group forces to omega: "minus_one" for odd
        # rows (a row of 1s is never free), "plus_one" for even rows
        odd_forced = _forced_value(label.group, 1, 2) == OMEGA
        doc["family"] = "minus_one" if odd_forced else "plus_one"
    if label.group == "O_even":
        doc["component"] = label.so_component
    if label.split:
        doc["split"] = label.split
    return doc
