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

A class is named by a UnipotentLabel, a NamedTuple that caches the one
record the closure orders read and its own text.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .partitions import (
    Partition,
    as_partition,
    byte_width,
    family_members,
    format_partition,
    guard_bits,
    kappa_member,
    multiplicity,
    pack_bytes,
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
    __dict__, where cached_property keeps what is derived from the fields
    once per label: _record, the one comparison record
    unipotent_relation reads, and _text, the bracket notation
    format_unipotent and str return.
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
        return self._text

    @cached_property
    def _text(self) -> str:
        """The label in bracket notation (see format_unipotent), built
        once per label."""
        tail = f"_{self.split}" if self.split else ""
        if self.kind == GOOD:
            return format_partition(self.partition) + tail
        pairs = self.epsilon
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
        return f"({format_partition(self.partition)},{eps_text})" + tail

    @cached_property
    def _record(self) -> tuple:
        """What the closure orders read of the label, as one tuple
        (guards, key, sums, parity, zeros); _check_domains says which
        labels may be compared.

        Each is packed by partitions.pack_bytes into whole-byte fields,
        one byte each while the matrix size dim is at most 127 (every
        label enumerate_unipotent or lusztig.phi produces, PARTITION_BOUND
        capping their dim at 121) and otherwise the fewest whole bytes
        that hold dim, little-endian on every host;
        the term of k = 1..dim goes in field k - 1 and each field's top
        bit is its guard.  key holds the prefix sums of the partition,
        which stay at dim past its last part.  A characteristic-2 label's
        key goes on in fields dim..2 dim - 1 with the complemented room
        terms dim - (S_k - max(eps(k), 0)), where S_k are the prefix sums
        of the transpose, which sums holds; parity has the guard bit of
        field k - 1 set when transpose entry k + 1 is odd, and zeros when
        eps(k) = 0.  A good label has 0 for sums, parity and zeros, which
        makes the parity test of unipotent_relation pass.  guards holds
        the guard bit of every field of key."""
        dim = _dim(self.group, self.n)
        if sum(self.partition) != dim:
            raise ValueError(f"{self.partition} is not a partition of {dim}")
        width = byte_width(dim)
        padded = self.partition + (0,) * (dim - len(self.partition))
        dominance = list(itertools.accumulate(padded))
        if self.kind == GOOD:
            return guard_bits(dim, width), pack_bytes(dominance, width), 0, 0, 0
        # the transpose has a column per size up to the largest part;
        # past it S_k stays at dim and the transpose entries are 0, so
        # parity needs no padding
        cols = transpose(self.partition)
        sums = list(itertools.accumulate(cols))
        sums += [dim] * (dim - len(cols))
        room = [dim - s for s in sums]
        zeros = [0] * dim
        # eps(k) is omega at every k that is not a row, so only rows move
        # the room terms or set a zero; the transpose counts the parts of
        # at least and of more than each size, and rows ascend, so a label
        # missing several free values names the least
        for row, (at_least, longer) in enumerate(zip(cols, cols[1:] + (0,)), 1):
            if at_least == longer:
                continue
            e = self._epsilon(row, at_least - longer)
            if e == 1:
                room[row - 1] += 1
            elif e == 0:
                zeros[row - 1] = 1
        return (
            guard_bits(2 * dim, width),
            pack_bytes(dominance + room, width),
            pack_bytes(sums, width),
            pack_bytes([c % 2 for c in cols[1:]], width) << (width - 1),
            pack_bytes(zeros, width) << (width - 1),
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


def _check_domains(a: UnipotentLabel, b: UnipotentLabel) -> None:
    """Refuse a pair whose domains differ, by the first check that
    fails: kind, then group and rank, then SO component."""
    if a.kind != b.kind:
        raise ValueError(f"cannot compare {a.kind} with {b.kind} labels")
    if (a.group, a.n) != (b.group, b.n):
        raise ValueError(f"labels from different groups: {a} vs {b}")
    if a.so_component != b.so_component:
        raise ValueError(
            f"labels in different components of O(2n): {a} vs {b}; "
            "the closure order does not mix them"
        )


def unipotent_leq(a: UnipotentLabel, b: UnipotentLabel) -> bool:
    """The closure order on labels of one kind: good_leq for good
    labels, bad_leq for characteristic-2 ones.  It is the one entry of
    unipotent_relation((a, b)) for the pair, and refuses what that
    refuses."""
    return unipotent_relation((a, b))[0][1]


def unipotent_relation(labels) -> tuple[tuple[bool, ...], ...]:
    """The closure order among labels as a matrix: rel[i][j] says
    whether labels[i] <= labels[j].

    A refusal is the one a pairwise scan in row-major order meets first:
    each label in turn is checked against the first, a domain that
    differs refused (_check_domains) before a fault in building either
    label's _record.  Fewer than two labels ask nothing.  Every label
    then shares the first's domain and guards, and every row runs the
    packed test inline, the parity test only against labels with an
    epsilon value 0.  partitions.fields_leq says why
    ((y | guards) - x) & guards holds the guard bits of the fields where
    x's entry is at most y's; a good label's zeros are 0, so its pairs
    pass the parity test."""
    labels = list(labels)
    if len(labels) < 2:
        return ((True,),) * len(labels)
    first = labels[0]
    records = [None]
    for b in labels[1:]:
        # as the pair (first, b) would be: domains, then first's record,
        # then b's
        _check_domains(first, b)
        records[0] = first._record
        records.append(b._record)
    guards = first._record[0]
    tops = [key | guards for _, key, *_ in records]
    # the parity test can fail only where the upper label's epsilon is 0
    zeroed = [
        (j, sums | guards, parity, zeros)
        for j, (_, _, sums, parity, zeros) in enumerate(records)
        if zeros
    ]
    rows = []
    for _, key_a, sums_a, parity_a, _ in records:
        row = [(top - key_a) & guards == guards for top in tops]
        for j, top_b, parity_b, zeros_b in zeroed:
            clash = (parity_a ^ parity_b) & zeros_b
            # alpha <= beta in dominance gives S_k(beta) <= S_k(alpha)
            # for every k, so the fields where S_k(alpha) <= S_k(beta)
            # are where they agree
            if row[j] and clash and clash & (top_b - sums_a) & guards:
                row[j] = False
        rows.append(tuple(row))
    return tuple(rows)


# hasse (classposet) reads a whole predicate's matrix from here at once
unipotent_leq.relation = unipotent_relation


def good_leq(a: UnipotentLabel, b: UnipotentLabel) -> bool:
    """Closure order in good characteristic: dominance of partitions.
    Split markers are ignored (the two members of a split pair sit at
    the same place in the order).  Refuses a label of another kind, then
    compares as unipotent_leq does."""
    if a.kind != GOOD or b.kind != GOOD:
        raise ValueError("good_leq compares good-characteristic labels")
    return unipotent_leq(a, b)


def bad_leq(a: UnipotentLabel, b: UnipotentLabel) -> bool:
    """Closure order in characteristic 2.

    (alpha, eps) <= (beta, dlt) iff alpha <= beta in dominance and for
    every k >= 1, writing S_k for the k-th prefix sum of the transpose:
    S_k(beta) - max(dlt(k), 0) <= S_k(alpha) - max(eps(k), 0); and
    whenever S_k(alpha) = S_k(beta) with alpha*_{k+1} - beta*_{k+1} odd,
    dlt(k) is omega or 1.

    Each label's record packs its terms of these tests into integers,
    for k = 1 up to the matrix size dim, with the room terms
    complemented so that both inequalities become one entrywise
    comparison; the padding is exact, since past a label's largest part
    eps is forced to omega and S_k is the total, so those k pass every
    test.  Refuses a label of another kind, then reads the pair's entry
    of unipotent_relation, which runs that test, as unipotent_leq does.

    Even orthogonal labels compare only within the same component of the
    group.
    """
    if a.kind != CHAR2 or b.kind != CHAR2:
        raise ValueError("bad_leq compares characteristic-2 labels")
    return unipotent_leq(a, b)


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
    append "_I" or "_II".  The text is the label's cached _text, built
    once per label however often it is printed."""
    return label._text


def label_to_json(label: UnipotentLabel) -> dict:
    """JSON form: good labels omit epsilon; the epsilon object lists the
    free assignments only."""
    group_name = "O" if label.group == "O_even" else label.group
    doc: dict = {"partition": list(label.partition), "group": group_name}
    if label.kind == CHAR2:
        doc["epsilon"] = {str(i): v for i, v in label.epsilon}
        # kappa's row parity, whose rows are forced to omega: "minus_one"
        # for odd rows, "plus_one" for even rows
        doc["family"] = "minus_one" if kappa(label.group, CHAR2) == -1 else "plus_one"
    if label.group == "O_even":
        doc["component"] = label.so_component
    if label.split:
        doc["split"] = label.split
    return doc
