"""Elliptic class labels, the order on them pair by pair, and Hasse
diagrams.  A class is named by an EllipticClassLabel and a diagram is a
HasseDiagram, both NamedTuples.

For classes C' and C the relation C' <= C holds when some minimal-length
element of C dominates an element of C' in the Bruhat order.  Four
a-priori different quantifications of that sentence agree (checked
exhaustively by the test suite).  weylgroup.weyl_relation is the one
path that computes it, as a whole matrix per context, beside the
minimal-length sets and count keys it reads; class_leq_W reads one
entry of it.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, NamedTuple, Sequence

from .partitions import Partition, format_partition
from . import weylgroup as wg
from .weylgroup import GroupContext, weyl_relation


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

    A predicate with a relation attribute (unipotent.unipotent_leq) is
    not asked pair by pair: leq.relation(nodes) gives the whole matrix,
    rel[i][j] for leq(nodes[i], nodes[j]), before any row is checked, so
    every exception it raises comes before any refusal here.  The
    antisymmetry and transitivity refusals and the covers are the same
    on both paths.
    """
    nodes = list(nodes)
    relation = getattr(leq, "relation", None)
    if relation is None:
        rows = ([j for j, y in enumerate(nodes) if j != i and leq(x, y)]
                for i, x in enumerate(nodes))
    else:
        rows = ([j for j in compress(range(len(nodes)), rel) if j != i]
                for i, rel in enumerate(relation(nodes)))
    # up[i] is the bitmask of the nodes strictly above i, ups[i] lists them
    up = [0] * len(nodes)
    ups = []
    for i, row in enumerate(rows):
        x = nodes[i]
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
