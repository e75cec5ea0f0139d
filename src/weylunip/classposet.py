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

from functools import reduce
from itertools import compress
from operator import itemgetter, or_
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
    weyl_relation(a.ctx) for the pair.  a's partition, then b's, passes
    weylgroup.check_elliptic, as in elliptic_label, before it is built."""
    ctx = _require_same_ctx(a, b)
    alphas = wg.elliptic_partitions(ctx)
    i, j = (alphas.index(wg.check_elliptic(ctx, c.partition)) for c in (a, b))
    return weyl_relation(ctx)[i][j]


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

    The whole relation is read before anything is checked: as
    leq.relation(nodes), rel[i][j] for leq(nodes[i], nodes[j]), when leq
    has that attribute (unipotent.unipotent_leq), and otherwise by asking
    leq of every ordered pair of distinct nodes once, row by row.  So
    every exception leq raises comes before any refusal, and the refusal
    texts and covers do not depend on which way the relation is read.

    Each row becomes one integer, the up-set of its node, with node j at
    bit 8j.  The covers of node i are the minimal elements of its up-set,
    found one at a time: a minimal element c, whose up-set must lie in
    i's, is recorded and removed together with everything above it.  The
    highest set bit is minimal when every up-set lies before its node
    (enumerate_unipotent's order, and phi's images in class order); any
    other order (weyl_relation's class order among them) is laid out
    once by up-set size, smallest first, which puts every up-set of a
    partial order before its node.  If every check passes the relation
    is a partial order (by induction on up-set size); otherwise a scan of
    the rows in order names the refusal.
    """
    nodes = list(nodes)
    m = len(nodes)
    relation = getattr(leq, "relation", None)
    if relation is None:
        rows = [[j != i and bool(leq(x, y)) for j, y in enumerate(nodes)]
                for i, x in enumerate(nodes)]
    else:
        rows = relation(nodes)
    up = [int.from_bytes(bytes(row), "little") & ~(1 << 8 * i)
          for i, row in enumerate(rows)]
    # lay is up with node order[p] at position p
    lay, order = up, range(m)
    if any(u >> 8 * i for i, u in enumerate(up)):
        order = sorted(order, key=lambda i: up[i].bit_count())
        pick = itemgetter(*order)
        lay = [int.from_bytes(bytes(pick(up[i].to_bytes(m, "little"))), "little")
               for i in order]
    covers = []
    for p, u in enumerate(lay):
        cand = u
        while cand:
            b = cand.bit_length() - 1
            c = b >> 3
            if lay[c] & ~u:
                raise _refusal(nodes, up)
            covers.append((order[p], order[c]))
            cand = cand & ~lay[c] ^ 1 << b
    return HasseDiagram(tuple(nodes), tuple(sorted(covers)))


def _refusal(nodes: list, up: list[int]) -> PosetError:
    """The refusal of the up-sets up[0], up[1], ..., scanned in row
    order: the first pair related both ways, else the first node i, the
    lowest k above a node above i but not above i, and the first such
    node j."""
    m = len(up)
    for i, u in enumerate(up):
        for j in compress(range(i), u.to_bytes(m, "little")):
            if up[j] >> 8 * i & 1:
                return PosetError(f"antisymmetry violated between {nodes[i]!r} and {nodes[j]!r}")
    for i, u in enumerate(up):
        above = [j for j in range(m) if u >> 8 * j & 1]
        beyond = reduce(or_, (up[j] for j in above), 0) & ~u
        if beyond:
            k = next(k for k in range(m) if beyond >> 8 * k & 1)
            j = next(j for j in above if up[j] >> 8 * k & 1)
            return PosetError(
                f"transitivity violated: {nodes[i]!r} <= {nodes[j]!r} <= "
                f"{nodes[k]!r} but not {nodes[i]!r} <= {nodes[k]!r}"
            )


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
