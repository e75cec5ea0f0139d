"""Integer partitions, the dominance order, and the psi correction vector.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Trailing zeros are never
stored, so ``(3, 1)`` and ``(3, 1, 0)`` denote the same partition and
only the first form is a valid value.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

Partition = tuple[int, ...]

# family_members refuses totals above this; p(60) is just under a million.
PARTITION_BOUND = 60


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize ``parts`` to a partition tuple.

    Accepts any iterable of integers that is weakly decreasing once
    trailing zeros are dropped.  Raises ValueError otherwise; sorting is
    deliberately not performed so that malformed input is surfaced.
    """
    seq = list(parts)
    while seq and seq[-1] == 0:
        seq.pop()
    for i, p in enumerate(seq):
        if not isinstance(p, int) or p <= 0:
            raise ValueError(f"partition parts must be positive integers, got {p!r}")
        if i > 0 and seq[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {seq}")
    return tuple(seq)


def dominance_leq(a: Partition, b: Partition) -> bool:
    """Dominance order: every prefix sum of ``a`` is at most that of ``b``.

    Defined only between partitions of the same total; comparing across
    totals is a usage error, not an incomparability.
    """
    if sum(a) != sum(b):
        raise ValueError(f"dominance compares partitions of equal total: {a} vs {b}")
    sa = sb = 0
    for k in range(max(len(a), len(b))):
        sa += a[k] if k < len(a) else 0
        sb += b[k] if k < len(b) else 0
        if sa > sb:
            return False
    return True


def transpose(a: Partition) -> Partition:
    """Conjugate partition: row lengths of the transposed Young diagram.
    Column i holds the parts of size at least i, so counting the parts
    of each size and taking suffix sums gives every column in one pass.
    The parts must be nonnegative with the largest first; a zero part
    is counted at size 0, whose suffix sum is dropped, so it adds no
    column."""
    if not a:
        return ()
    counts = [0] * (a[0] + 1)
    for p in a:
        counts[p] += 1
    return tuple(itertools.accumulate(reversed(counts)))[-2::-1]


def multiplicity(a: Partition, k: int) -> int:
    """Number of parts equal to k.  multiplicity(a, 0) is 0 because
    trailing zeros are not stored."""
    if k < 0:
        raise ValueError("multiplicity index must be nonnegative")
    return sum(1 for p in a if p == k)


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order: (n) first,
    (1,...,1) last."""
    if n < 0:
        raise ValueError("partitions of a negative integer requested")
    return _generate(n, n, None)


def _generate(rem: int, top: int, paired: int | None) -> Iterator[Partition]:
    """The partitions of rem with parts at most top, in reverse-
    lexicographic order, each row r with r % 2 == paired taken an even
    number of times (paired None constrains no row).  A row and its
    multiplicity are chosen together, the largest row and then the most
    copies first, so no partition is built only to be dropped."""
    if rem == 0:
        yield ()
        return
    for row in range(min(rem, top), 0, -1):
        copies = rem // row
        step = -1
        if row % 2 == paired:
            copies -= copies % 2
            step = -2
        for c in range(copies, 0, step):
            head = (row,) * c
            for rest in _generate(rem - c * row, row - 1, paired):
                yield head + rest


def kappa_member(a: Partition, kappa: int) -> bool:
    """Whether m_a(i) is even for every row i with (-1)^i == kappa."""
    want_odd_rows = kappa == -1
    for p in set(a):
        if (p % 2 == 1) == want_odd_rows and multiplicity(a, p) % 2 == 1:
            return False
    return True


def check_bound(n: int) -> None:
    """Refuse a total above PARTITION_BOUND before anything of size n is
    built."""
    if n > PARTITION_BOUND:
        raise ValueError(f"partition enumeration bound exceeded: n={n} > {PARTITION_BOUND}")


def family_members(n: int, kappa: int | None = None) -> list[Partition]:
    """The partitions of n, reverse-lexicographically; with kappa +1 or
    -1, only those whose rows with (-1)^row == kappa have even
    multiplicity, generated directly rather than filtered from all
    partitions of n."""
    check_bound(n)
    if kappa not in (None, 1, -1):
        raise ValueError(f"kappa must be +1, -1 or None, got {kappa!r}")
    if n < 0:
        raise ValueError("partitions of a negative integer requested")
    # (-1)^row == kappa holds at the odd rows for -1, the even ones for +1
    paired = None if kappa is None else 1 if kappa == -1 else 0
    return list(_generate(n, n, paired))


def psi(a: Partition) -> tuple[int, ...]:
    """The correction vector psi_a over {-1, 0, +1}, one entry per part.

    psi(1) = +1 always.  For i > 1: +1 when i is odd and a[i-1] > a[i],
    -1 when i is even and a[i] > a[i+1] (with a[l+1] = 0), else 0.
    Satisfies: prefix sums equal 1 at odd indices and 1 + psi(k) at even
    indices, and the total is 1 for odd length, 0 for even length.
    """
    if not a:
        raise ValueError("psi of the empty partition is undefined")
    ell = len(a)
    out = [0] * ell
    out[0] = 1
    for i in range(2, ell + 1):
        nxt = a[i] if i < ell else 0
        if i % 2 == 1 and a[i - 2] > a[i - 1]:
            out[i - 1] = 1
        elif i % 2 == 0 and a[i - 1] > nxt:
            out[i - 1] = -1
    return tuple(out)


def add_psi(a: Partition) -> Partition:
    """a + psi_a, defined for partitions with all parts even.

    The result is a partition of sum(a) + (1 if len(a) is odd else 0).
    """
    if any(p % 2 == 1 for p in a):
        raise ValueError(f"add_psi requires all parts even, got {a}")
    if not a:
        raise ValueError("add_psi of the empty partition is undefined")
    v = psi(a)
    return as_partition(p + d for p, d in zip(a, v))


def scale(a: Partition, c: int) -> Partition:
    return tuple(p * c for p in a)


def append_one(a: Partition) -> Partition:
    return a + (1,)


def format_partition(a: Partition) -> str:
    return "[" + ",".join(str(p) for p in a) + "]"


# ---------------------------------------------------------------------------
# packed vectors: a vector of small nonnegative integers held as one int,
# one fixed-width field per entry with a guard bit on top, so comparing two
# vectors entrywise takes one subtraction and one AND (Lamport, "Multiple
# byte processing with full-word instructions", CACM 1975)


def field_width(top: int) -> int:
    """Bits per field for entries in 0..top: top's bits and a guard bit."""
    return top.bit_length() + 1


def guard_bits(count: int, width: int) -> int:
    """The guard bit of each of count fields of the given width."""
    return ((1 << count * width) - 1) // ((1 << width) - 1) << (width - 1)


def pack(values: Sequence[int], width: int) -> int:
    """values[i] in field i, the lowest field first; each value must leave
    the field's guard bit clear."""
    limit = 1 << (width - 1)
    out = 0
    for v in reversed(values):
        if not 0 <= v < limit:
            raise ValueError(f"packed entry {v} outside 0..{limit - 1}")
        out = out << width | v
    return out


def byte_width(top: int) -> int:
    """Bits per whole-byte field for entries in 0..top: the fewest whole
    bytes that hold top's bits and a guard bit, so one byte while top is
    at most 127."""
    return -(-field_width(top) // 8) * 8


def pack_bytes(values: Sequence[int], width: int) -> int:
    """pack for whole-byte fields, width a multiple of 8: values[i] in
    field i, the lowest field first, little-endian on every host.  The
    vector becomes one int in C, by int.from_bytes.  pack's refusal
    holds, checked once per vector: no value may reach its field's guard
    bit."""
    size = width // 8
    limit = 1 << (width - 1)
    try:
        if size == 1:
            fields = bytes(values)
            # ASCII bytes are those below 0x80, the guard bit
            clear = fields.isascii()
        else:
            fields = b"".join(v.to_bytes(size, "little") for v in values)
            clear = max(values, default=0) < limit
    except (ValueError, OverflowError):
        # bytes and to_bytes refuse an entry below 0 or past the field
        clear = False
    if not clear:
        bad = next(v for v in values if not 0 <= v < limit)
        raise ValueError(f"packed entry {bad} outside 0..{limit - 1}")
    return int.from_bytes(fields, "little")


def fields_leq(a: int, b: int, guards: int) -> int:
    """The guard bits of the fields where a's entry is at most b's; every
    entry is at most b's when this equals guards.  A field of
    (b | guards) - a holds 2**(width - 1) + b_i - a_i, which borrows from
    no other field and keeps its guard bit exactly when a_i <= b_i."""
    return ((b | guards) - a) & guards
