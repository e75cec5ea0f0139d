"""The partial order on elliptic conjugacy classes induced by Bruhat
comparison of minimal-length elements, plus Hasse-diagram construction.
A class is named by an EllipticClassLabel and a diagram is a
HasseDiagram, both NamedTuples.

For classes C' and C the relation C' <= C holds when some minimal-length
element of C dominates an element of C' in the Bruhat order.  Four
a-priori different quantifications of that sentence agree (checked
exhaustively by the test suite).  weyl_relation is the one path that
computes it, row by row.  Row C' scans the minimal-length elements of C'
as weylgroup builds them by cyclic shifts, and compares each element's
packed count key with that of the closed-form representative of every
C still open.  That comparison decides A, BC and twisted A; in D it is
a filter, and a descent walk confirms each element it lets through.
The row stops once C' itself and every class longer than C' is
settled, so the rest of the set is never built; the elements a row
holds while it scans are bounded (CapExceeded past the bound).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .partitions import Partition, fields_leq, format_partition
from . import weylgroup as wg
from .weylgroup import GroupContext


class PosetError(ValueError):
    """Input relation is not a partial order (antisymmetry or transitivity
    failed)."""


class EllipticClassLabel(NamedTuple):
    """The elliptic class of ctx that partition names."""

    ctx: GroupContext
    partition: Partition

    def __str__(self) -> str:
        suffix = "*d" if self.ctx.component == wg.TWISTED_COMPONENT else ""
        return format_partition(self.partition) + suffix


def elliptic_label(ctx: GroupContext, partition) -> EllipticClassLabel:
    """Validate that ``partition`` names an elliptic class of ctx."""
    return EllipticClassLabel(ctx, wg.check_elliptic(ctx, partition))


def elliptic_classes(ctx: GroupContext) -> list[EllipticClassLabel]:
    """All elliptic classes of ctx, reverse-lexicographically by partition."""
    return [EllipticClassLabel(ctx, a) for a in wg.elliptic_partitions(ctx)]


def _require_same_ctx(a: EllipticClassLabel, b: EllipticClassLabel) -> GroupContext:
    if a.ctx != b.ctx:
        raise ValueError(f"class labels from different groups: {a.ctx} vs {b.ctx}")
    return a.ctx


def class_leq_W(a: EllipticClassLabel, b: EllipticClassLabel) -> bool:
    """Whether a <= b in the order on elliptic classes: the entry of
    weyl_relation(a.ctx) for the pair.  Both labels are checked before
    the relation is built."""
    ctx = _require_same_ctx(a, b)
    alphas = wg.elliptic_partitions(ctx)
    for c in (a, b):
        if c.partition not in alphas:
            raise ValueError(f"{c.partition} is not an elliptic class of {ctx}")
    return weyl_relation(ctx)[alphas.index(a.partition)][alphas.index(b.partition)]


# 32 because verify loops over its (group, char, component) combinations
# outside the ranks, so a rank range cycles through all of its contexts
# once per combination.
@lru_cache(maxsize=32)
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
    alphas = wg.elliptic_partitions(ctx)
    reps = [wg.class_rep(ctx, a) for a in alphas]
    lengths = [wg._length(ctx, w) for w in reps]
    keys = [wg._count_key(ctx, w) for w in reps]
    guards = wg._count_columns(ctx)[3]
    # the count criterion is exact for A and BC (and for 2A's stored
    # parts, which step like A); for D it is only necessary, so the lazy
    # descent walk confirms each element it lets through
    confirm = ctx.family == "D"
    rows = []
    for i, (rep, la) in enumerate(zip(reps, lengths)):
        # Bruhat order is graded by length, so x <= w with l(x) = l(w)
        # forces x = w, and classes are disjoint: of the classes no longer
        # than labels[i], only labels[i] itself can lie above it
        pending = [j for j, lb in enumerate(lengths) if la < lb or j == i]
        held = set()
        for x in wg._min_length_set(ctx, rep):
            kx = wg._count_key(ctx, x)
            found = [
                j
                for j in pending
                if fields_leq(kx, keys[j], guards) == guards
                and (not confirm or wg._bruhat_leq(ctx, x, la, reps[j], lengths[j]))
            ]
            if found:
                held.update(found)
                pending = [j for j in pending if j not in held]
                if not pending:
                    break  # the rest of the set is never built
        rows.append(tuple(j in held for j in range(len(reps))))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Hasse diagrams


class HasseDiagram(NamedTuple):
    nodes: tuple
    covers: tuple[tuple[int, int], ...]  # (lower index, upper index)


def hasse(nodes: Sequence, leq: Callable[[object, object], bool]) -> HasseDiagram:
    """Covering relation of a finite partial order given by a predicate.

    Raises PosetError when two distinct nodes compare both ways or the
    predicate is not transitive; a cover (i, j) means nodes[i] < nodes[j]
    with nothing strictly between, and covers come sorted.

    Row i is one pass that asks leq(nodes[i], y) of every other node y
    once, in index order.  The antisymmetry check follows the row and
    scans it in the same order, so a refusal names the first pair, in
    row-major order, that is related both ways.  Since the whole row is
    asked first, an exception raised by leq itself later in a row comes
    before the antisymmetry refusal of an earlier pair in that row.
    """
    nodes = list(nodes)
    # up[i] is the bitmask of the nodes strictly above i, ups[i] lists them
    up = [0] * len(nodes)
    ups = []
    for i, x in enumerate(nodes):
        row = [j for j, y in enumerate(nodes) if j != i and leq(x, y)]
        above = 0
        for j in row:
            # only an earlier row is filled in: the first pair of the
            # scan that is related both ways is named
            if up[j] >> i & 1:
                raise PosetError(
                    f"antisymmetry violated between {x!r} and {nodes[j]!r}"
                )
            above |= 1 << j
        up[i] = above
        ups.append(row)
    # reach is everything above some node of up[i]: transitivity says it
    # lies inside up[i], and the covers of i are the nodes of up[i] outside it
    covers = []
    for i, above in enumerate(up):
        reach = 0
        for j in ups[i]:
            reach |= up[j]
        beyond = reach & ~above
        if beyond:
            k = (beyond & -beyond).bit_length() - 1
            j = next(j for j in ups[i] if up[j] >> k & 1)
            raise PosetError(
                f"transitivity violated: {nodes[i]!r} <= {nodes[j]!r} <= "
                f"{nodes[k]!r} but not {nodes[i]!r} <= {nodes[k]!r}"
            )
        covers += ((i, j) for j in ups[i] if not reach >> j & 1)
    return HasseDiagram(tuple(nodes), tuple(covers))


def hasse_to_json(diagram: HasseDiagram) -> dict:
    return {
        "nodes": [str(x) for x in diagram.nodes],
        "covers": [[i, j] for i, j in diagram.covers],
    }


def hasse_to_dot(diagram: HasseDiagram, name: str = "poset") -> str:
    """Graphviz DOT text, edges pointing from lower to upper element."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for idx, node in enumerate(diagram.nodes):
        text = str(node).replace('"', '\\"')
        lines.append(f'  n{idx} [label="{text}"];')
    for i, j in diagram.covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
