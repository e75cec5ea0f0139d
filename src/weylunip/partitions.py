"""Integer partitions, the dominance order, and the psi correction vector.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Trailing zeros are never
stored, so ``(3, 1)`` and ``(3, 1, 0)`` denote the same partition and
only the first form is a valid value.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Partition = tuple[int, ...]

# family_members refuses totals above this; p(60) is just under a million.
PARTITION_BOUND = 60

FAMILY_TAGS = ("all", "kappa", "even_length", "odd_length", "odd_parts")


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


def total(a: Partition) -> int:
    return sum(a)


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
    """Conjugate partition: row lengths of the transposed Young diagram."""
    if not a:
        return ()
    return tuple(sum(1 for p in a if p >= i) for i in range(1, a[0] + 1))


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

    def gen(rem: int, mx: int) -> Iterator[Partition]:
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, mx), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return gen(n, n)


def kappa_member(a: Partition, kappa: int) -> bool:
    """Whether m_a(i) is even for every row i with (-1)^i == kappa."""
    want_odd_rows = kappa == -1
    for p in set(a):
        if (p % 2 == 1) == want_odd_rows and multiplicity(a, p) % 2 == 1:
            return False
    return True


def check_bound(n: int, bound: int = PARTITION_BOUND) -> None:
    """Refuse a total above bound before anything of size n is built."""
    if n > bound:
        raise ValueError(f"partition enumeration bound exceeded: n={n} > {bound}")


def family_members(
    tag: str, n: int, kappa: int | None = None, bound: int = PARTITION_BOUND
) -> list[Partition]:
    """Enumerate a constrained partition family, reverse-lexicographically.

    tag is one of "all", "kappa" (requires kappa=+1 or -1: multiplicities
    of rows with (-1)^row == kappa must be even), "even_length",
    "odd_length", or "odd_parts".
    """
    if tag not in FAMILY_TAGS:
        raise ValueError(f"unknown partition family {tag!r}; expected one of {FAMILY_TAGS}")
    check_bound(n, bound)
    if tag == "kappa":
        if kappa not in (1, -1):
            raise ValueError("kappa family needs kappa=+1 or kappa=-1")
        return [a for a in partitions(n) if kappa_member(a, kappa)]
    if kappa is not None:
        raise ValueError(f"kappa argument is only meaningful for the kappa family, not {tag!r}")
    if tag == "all":
        return list(partitions(n))
    if tag == "even_length":
        return [a for a in partitions(n) if len(a) % 2 == 0]
    if tag == "odd_length":
        return [a for a in partitions(n) if len(a) % 2 == 1]
    return [a for a in partitions(n) if all(p % 2 == 1 for p in a)]


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

    The result is a partition of total(a) + (1 if len(a) is odd else 0).
    """
    if any(p % 2 == 1 for p in a):
        raise ValueError(f"add_psi requires all parts even, got {a}")
    if not a:
        raise ValueError("add_psi of the empty partition is undefined")
    v = psi(a)
    return as_partition(p + d for p, d in zip(a, v))


def scale(a: Partition, c: int) -> Partition:
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return tuple(p * c for p in a)


def append_one(a: Partition) -> Partition:
    return a + (1,)


def parse_partition(text: str) -> Partition:
    """Parse "[6,6,4,2]", "6+6+4+2", or "6,6,4,2".  "[]" is the empty
    partition."""
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    sep = "+" if "+" in s else ","
    try:
        parts = [int(tok) for tok in s.split(sep)]
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {text!r}") from exc
    return as_partition(parts)


def format_partition(a: Partition) -> str:
    return "[" + ",".join(str(p) for p in a) + "]"
