"""The explicit Lusztig map from elliptic Weyl-group classes to
unipotent classes for every classical group and characteristic, and the
end-to-end verification that it reverses the two partial orders.

Group names follow the unipotent module: "GL", "GLd", "Sp", "O_odd",
"O_even".  The Weyl side of GL is the symmetric group, of GLd its
twisted coset, of Sp and O_odd the hyperoctahedral group, and of O_even
the even-signed permutation group together with its twisted coset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import (
    add_psi,
    append_one,
    dominance_leq,
    scale,
)
from . import weylgroup as wg
from .weylgroup import GroupContext
from .classposet import (
    EllipticClassLabel,
    elliptic_classes,
    elliptic_label,
    weyl_relation,
)
from .unipotent import (
    CHAR2,
    GOOD,
    GROUP_FAMILY,
    UnipotentLabel,
    bad_label,
    check_group,
    good_label,
    theta2,
    unipotent_leq,
)


@dataclass(frozen=True)
class GroupSpec:
    group: str
    n: int
    char: str


def group_spec(group: str, n: int, char: str) -> GroupSpec:
    check_group(group, n, char)
    return GroupSpec(group, n, char)


def weyl_context(spec: GroupSpec, component: str | None = None) -> GroupContext:
    """The Weyl-group context whose elliptic classes spec's map consumes;
    component None picks the family's default."""
    return wg.context(GROUP_FAMILY[spec.group], spec.n, component)


def phi(spec: GroupSpec, c: EllipticClassLabel) -> UnipotentLabel:
    """Lusztig's map on the elliptic class c.

    GL: the Coxeter class goes to the principal class (n).
    GLd (characteristic 2 only): alpha with odd parts keeps its shape,
    decorated with epsilon_max.
    O(2n+1): good characteristic 2*alpha + psi, with a 1 appended when
    alpha has an even number of parts; characteristic 2 gives
    (2*alpha, 1) with epsilon_max.
    Sp(2n): 2*alpha, decorated with epsilon_max in characteristic 2.
    O(2n): good characteristic 2*alpha + psi on the identity component;
    characteristic 2 gives 2*alpha with epsilon_max on both components.
    """
    fam = GROUP_FAMILY[spec.group]
    if c.ctx.family != fam or c.ctx.n != spec.n:
        raise ValueError(f"class {c} does not belong to the Weyl side of {spec}")
    alpha = c.partition
    g, n = spec.group, spec.n
    # outside characteristic 2 every unipotent element lies in the
    # identity component
    if spec.char == GOOD and c.ctx.component != wg.IDENTITY_COMPONENT:
        name = "O(2n)" if g == "O_even" else g
        raise ValueError(
            f"the twisted component of {name} has no unipotent elements in good characteristic"
        )
    if g == "GL":
        return good_label("GL", n, (n,))
    if g == "GLd":
        return bad_label("GLd", n, alpha)
    if g == "Sp":
        doubled = scale(alpha, 2)
        if spec.char == GOOD:
            return good_label("Sp", n, doubled)
        return bad_label("Sp", n, doubled)
    if g == "O_odd":
        doubled = scale(alpha, 2)
        if spec.char == GOOD:
            # psi(2*alpha) == psi(alpha): doubling keeps the strict comparisons
            gamma = add_psi(doubled)
            if len(alpha) % 2 == 0:
                gamma = append_one(gamma)
            return good_label("O_odd", n, gamma)
        return bad_label("O_odd", n, append_one(doubled))
    # O_even
    doubled = scale(alpha, 2)
    if spec.char == GOOD:
        return good_label("O_even", n, add_psi(doubled))
    out = bad_label("O_even", n, doubled)
    inside = out.so_component == "SO"
    if inside != (c.ctx.component == wg.IDENTITY_COMPONENT):
        raise AssertionError(f"component mismatch between {c} and {out}")
    return out


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

    Only the third order depends on the Weyl context alone, not on the
    group or the characteristic: it is read from weyl_relation, which
    computes it once per context and shares it among every combination
    verify runs on that context.
    """
    spec = group_spec(group, n, char)
    ctx = weyl_context(spec, component)
    labels = elliptic_classes(ctx)
    images = {c.partition: phi(spec, c) for c in labels}
    rel = weyl_relation(ctx)
    failures = []
    pairs = 0
    for i, ca in enumerate(labels):
        for j, cb in enumerate(labels):
            pairs += 1
            dom = dominance_leq(ca.partition, cb.partition)
            u_leq = unipotent_leq(images[ca.partition], images[cb.partition])
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
        "pairs": pairs,
        "failures": failures,
    }
    if group == "O_even":
        report["component"] = ctx.component
    return report


def verify_combinations(family: str) -> list[tuple[str, str, str]]:
    """The (group, char, component) triples a Weyl family supports: each
    group of the family on each of the family's components, good
    characteristic only on the identity component.  The first group is
    the family's default."""
    if family not in wg.FAMILY_RULES:
        raise ValueError(f"unknown family {family!r}")
    return [
        (group, char, component)
        for group, fam in GROUP_FAMILY.items()
        if fam == family
        for component in wg.FAMILY_RULES[family].components
        for char in (GOOD, CHAR2)
        if char == CHAR2 or component == wg.IDENTITY_COMPONENT
    ]
