"""The explicit Lusztig map from elliptic Weyl-group classes to
unipotent classes for every classical group and characteristic, and the
end-to-end verification that it reverses the two partial orders.

Group names follow the unipotent module: "GL", "GLd", "Sp", "O_odd",
"O_even".  The Weyl side of GL is the symmetric group, of GLd its
twisted coset, of Sp and O_odd the hyperoctahedral group, and of O_even
the even-signed permutation group together with its twisted coset.

phi takes the group and the characteristic; the elliptic class brings
the rank and the Weyl context.  map_table is the one path from (group,
n, char, component) to the elliptic classes and their images, and
verify_theorem and the map and hasse verbs all read it.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, add_psi, dominance_leq
from . import weylgroup as wg
from .weylgroup import CONTEXT_CACHE, GroupContext, weyl_relation
from .classposet import EllipticClassLabel, elliptic_classes
from .unipotent import (
    CHAR2,
    GOOD,
    GROUP_FAMILY,
    UnipotentLabel,
    bad_label,
    check_group,
    good_label,
    has_unipotents,
    unipotent_relation,
)


def phi(group: str, char: str, c: EllipticClassLabel) -> UnipotentLabel:
    """Lusztig's map for group in characteristic char on the elliptic
    class c, whose context gives the rank.  GL sends the Coxeter class to
    the principal class (n); GLd (characteristic 2 only) keeps alpha, whose
    parts are odd.  Sp, O(2n+1) and O(2n) double alpha: characteristic 2
    gives 2*alpha, with a 1 appended for O(2n+1), on every component, and
    good characteristic 2*alpha for Sp and 2*alpha + psi for the orthogonal
    groups, with a 1 appended for O(2n+1) when alpha has an even number of
    parts.  Every characteristic-2 image carries epsilon_max.
    """
    ctx = c.ctx
    # an unknown group passes here, for check_group to refuse by name
    if group in GROUP_FAMILY and GROUP_FAMILY[group] != ctx.family:
        raise ValueError(f"class {c} does not belong to the Weyl side of {group}")
    check_group(group, ctx.n, char, ctx.component)
    return _phi(group, char, ctx.n, wg.check_elliptic(ctx, c.partition))


def _phi(group: str, char: str, n: int, alpha: Partition) -> UnipotentLabel:
    """phi without its refusals: the image of the elliptic class alpha of
    group's Weyl side at rank n, for a (group, char) pair that has that
    class.  The label constructors still check the label they build."""
    if group == "GL":
        return good_label("GL", n, (n,))
    if group == "GLd":
        return bad_label("GLd", n, alpha)
    doubled = tuple(2 * p for p in alpha)
    if char == CHAR2:
        return bad_label(group, n, doubled + (1,) if group == "O_odd" else doubled)
    if group == "Sp":
        return good_label("Sp", n, doubled)
    # psi(2*alpha) == psi(alpha): doubling keeps the strict comparisons
    gamma = add_psi(doubled)
    if group == "O_odd" and len(alpha) % 2 == 0:
        gamma += (1,)
    return good_label(group, n, gamma)


def map_table(
    group: str,
    n: int,
    char: str,
    component: str | None = None,
) -> tuple[GroupContext, list[EllipticClassLabel], list[UnipotentLabel]]:
    """The Weyl context of group at rank n (component None picks the
    family's default), its elliptic classes in elliptic_classes' order,
    and their images under phi, images[i] that of classes[i]."""
    ctx = check_group(group, n, char, component)
    classes = elliptic_classes(ctx)
    # check_group refused what phi would: each class passes phi's checks
    return ctx, classes, [_phi(group, char, n, c.partition) for c in classes]


@lru_cache(maxsize=CONTEXT_CACHE)
def dominance_relation(ctx: GroupContext) -> tuple[tuple[bool, ...], ...]:
    """Dominance among ctx's elliptic partitions as a matrix, computed
    once per ctx: dom[i][j] says whether alphas[i] <= alphas[j], with
    alphas = elliptic_partitions(ctx), lexicographically descending, so
    row i asks only j <= i (dominance implies lex order, Macdonald I.1)."""
    alphas = wg.elliptic_partitions(ctx)
    false = (False,) * len(alphas)
    return tuple(tuple(dominance_leq(a, b) for b in alphas[: i + 1]) + false[i + 1 :]
                 for i, a in enumerate(alphas))


def verify_theorem(
    group: str,
    n: int,
    char: str,
    component: str | None = None,
) -> dict:
    """Exhaustively check, for every ordered pair of elliptic classes
    (C_alpha, C_beta) of the group's Weyl side, the three-way equivalence

        phi(C_alpha) <= phi(C_beta)   in the unipotent closure order
        alpha <= beta                 in dominance
        C_beta <= C_alpha             in the order on elliptic classes

    and report {"family", "group", "n", "char", "pairs", "failures"}
    (plus "component" for O_even).  A nonempty failures list would
    falsify the theorem or the implementation.

    The second and third orders depend on the Weyl context alone, not on
    the group or the characteristic: they are read from
    dominance_relation and weyl_relation, which compute each once per
    context and share it among every combination verify runs on that
    context.  The first is read from unipotent_relation of the images.
    """
    ctx, classes, images = map_table(group, n, char, component)
    rel = weyl_relation(ctx)
    doms = dominance_relation(ctx)
    unips = unipotent_relation(images)
    failures = []
    for i, ca in enumerate(classes):
        for j, cb in enumerate(classes):
            dom = doms[i][j]
            u_leq = unips[i][j]
            w_leq = rel[j][i]
            if not (dom == u_leq == w_leq):
                failures.append(
                    {
                        "alpha": list(ca.partition),
                        "beta": list(cb.partition),
                        "dominance": dom,
                        "unipotent_leq": u_leq,
                        "class_leq_W": w_leq,
                    }
                )
    report = {
        "family": ctx.family,
        "group": group,
        "n": n,
        "char": char,
        "pairs": len(classes) ** 2,
        "failures": failures,
    }
    if group == "O_even":
        report["component"] = ctx.component
    return report


def verify_combinations(family: str) -> list[tuple[str, str, str]]:
    """The (group, char, component) triples a Weyl family supports: each
    group of the family on each of the family's components, in each
    characteristic where the component has unipotents (has_unipotents).
    The first group is the family's default."""
    if family not in wg.FAMILY_RULES:
        raise ValueError(f"unknown family {family!r}")
    return [
        (group, char, component)
        for group, fam in GROUP_FAMILY.items()
        if fam == family
        for component in wg.FAMILY_RULES[family].components
        for char in (GOOD, CHAR2)
        if has_unipotents(char, component)
    ]
