"""Command-line interface.

Verbs:

    classes    list the elliptic conjugacy classes of a Weyl family
    unipotent  list the unipotent class labels of a classical group
    map        tabulate the Lusztig map on elliptic classes
    hasse      emit the Hasse diagram of either poset (or both)
    verify     exhaustively check the order-reversal theorem
    bruhat     compare two group elements in Bruhat order

Exit codes: 0 success, 1 a verification found a counterexample,
2 usage error, invalid input or out of memory.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import lru_cache

from . import weylgroup as wg
from .weylgroup import CapExceeded
from .partitions import PARTITION_BOUND, format_partition
from .classposet import (
    elliptic_classes,
    hasse,
    hasse_to_dot,
    hasse_to_json,
    weyl_relation,
)
from .lusztig import (
    map_table,
    verify_combinations,
    verify_theorem,
)
from .unipotent import (
    CHAR2,
    GOOD,
    GROUP_FAMILY,
    check_group,
    enumerate_unipotent,
    format_unipotent,
    has_unipotents,
    label_to_json,
    unipotent_leq,
)

FAMILY_ALIAS = {"O2n": "D", "GL": "A", "GLd": "2A"}
FAMILY_CHOICES = wg.FAMILIES + tuple(FAMILY_ALIAS)
GROUP_FLAG = {"GL": "GL", "GLd": "GLd", "Sp": "Sp", "SOodd": "O_odd", "SOeven": "O_even"}


class UsageError(ValueError):
    pass


def _target(args) -> tuple[str, str]:
    """The (family, group) that --family and --group name: --family alone
    gives the family's first group, --group alone that group's family,
    and both must name the same family."""
    family = FAMILY_ALIAS.get(args.family, args.family)
    flag = getattr(args, "group", None)
    if flag is None:
        if family is None:
            raise UsageError("pass --family or --group")
        return family, verify_combinations(family)[0][0]
    group = GROUP_FLAG[flag]
    if family not in (None, GROUP_FAMILY[group]):
        raise UsageError(
            f"--family {args.family} and --group {flag} disagree: "
            f"{flag} is a group of family {GROUP_FAMILY[group]}"
        )
    return GROUP_FAMILY[group], group


def _integer(text: str) -> int:
    """text as an int: ASCII digits after an optional minus sign, with
    surrounding whitespace ignored; int() alone also takes 1_0, +3 and ３."""
    if not re.fullmatch(r"\s*-?[0-9]+\s*", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _ranks(args) -> list[int]:
    """The ranks --rank names: one integer, or for verify a range A..B."""
    text = args.rank
    lo, dots, hi = text.partition("..")
    if dots and args.verb != "verify":
        raise UsageError("rank ranges are only accepted by the verify verb")
    try:
        lo, hi = _integer(lo), _integer(hi if dots else lo)
    except ValueError:
        expects = "an integer or A..B" if args.verb == "verify" else "an integer"
        raise UsageError(f"--rank expects {expects}, got {text!r}") from None
    # every rank above the bound is refused later anyway; refusing it
    # here keeps the list of ranks small
    if dots and not (1 <= lo <= PARTITION_BOUND and 1 <= hi <= PARTITION_BOUND):
        raise UsageError(f"rank range {text!r} must lie within 1..{PARTITION_BOUND}")
    if lo > hi:
        raise UsageError(f"empty rank range {text!r}")
    return list(range(lo, hi + 1))


def _parse_window(text: str, family: str) -> tuple[int, ...]:
    """An element window such as [-2,1,3], or [2,1,3]*d in family 2A,
    where the *d suffix is optional; *d anywhere else is refused."""
    body = text.strip()
    if family == "2A" and body.endswith("*d"):
        body = body[:-2].strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        return tuple(_integer(p) for p in body.split(","))
    except ValueError:
        raise UsageError(f"cannot parse element {text!r}") from None


def _json(payload: dict) -> str:
    """payload as indented JSON text.  json is imported here, so a
    command that prints text or DOT never loads it."""
    import json

    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# classes


def run_classes(family: str, n: int, component: str | None, fmt: str) -> str:
    ctx = wg.context(family, n, component)
    rows = []
    for c in elliptic_classes(ctx):
        rep = wg.class_rep(ctx, c.partition)
        rows.append(
            {
                "class": str(c),
                "rep": list(rep),
                "length": wg.length(ctx, rep),
                "size": wg.class_size(ctx, c.partition),
            }
        )
    if fmt == "json":
        payload = {
            "family": ctx.family,
            "n": ctx.n,
            "component": ctx.component,
            "classes": rows,
        }
        return _json(payload)
    lines = ["class\trep\tlength\tsize"]
    suffix = "*d" if ctx.family == "2A" else ""
    for row in rows:
        window = "[" + ",".join(str(v) for v in row["rep"]) + "]" + suffix
        lines.append(f"{row['class']}\t{window}\t{row['length']}\t{row['size']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# unipotent


def run_unipotent(group: str, n: int, char: str, fmt: str) -> str:
    labels = enumerate_unipotent(group, n, char)
    if fmt == "json":
        payload = {
            "group": group,
            "n": n,
            "char": char,
            "classes": [label_to_json(u) for u in labels],
        }
        return _json(payload)
    lines = []
    for u in labels:
        comp = u.so_component
        lines.append(format_unipotent(u) if comp is None else f"{format_unipotent(u)}\t{comp}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# map


def run_map(group: str, n: int, component: str | None = None, fmt: str = "text") -> str:
    """The Lusztig map tabulated over the elliptic classes, one row per
    class: its label, the good-characteristic image, and the
    characteristic-2 image.  Components with no good-characteristic
    unipotents get a single image column."""
    ctx, classes, char2 = map_table(group, n, CHAR2, component)
    good_ok = has_unipotents(GOOD, ctx.component)
    good = map_table(group, n, GOOD, component)[2] if good_ok else [None] * len(classes)
    if fmt == "json":
        payload = {
            "group": group,
            "n": n,
            "component": ctx.component,
            "rows": [
                {
                    "class": str(c),
                    "good": None if u0 is None else label_to_json(u0),
                    "char2": label_to_json(u2),
                }
                for c, u0, u2 in zip(classes, good, char2)
            ],
        }
        return _json(payload)
    lines = ["class\tgood\tchar2" if good_ok else "class\tchar2"]
    for c, u0, u2 in zip(classes, good, char2):
        shown = [u0, u2] if good_ok else [u2]
        lines.append("\t".join([str(c), *map(format_unipotent, shown)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# hasse


def run_hasse(
    group: str,
    n: int,
    char: str,
    side: str,
    component: str | None,
    fmt: str,
) -> tuple[str, int]:
    # phi refuses a (group, char) pair with no map, whichever side is shown
    ctx, classes, images = map_table(group, n, char, component)
    shown = []  # (name, diagram, text heading) of each diagram shown
    if side in ("weyl", "both"):
        # the relation's rows and columns follow elliptic_classes' order
        rel = weyl_relation(ctx)
        index = {c: i for i, c in enumerate(classes)}
        weyl = hasse(classes, lambda a, b: rel[index[a]][index[b]])
        shown.append(("weyl", weyl, f"elliptic classes of {group}({n}), covers lower < upper:"))
    if side in ("unipotent", "both"):
        unip = hasse(images, unipotent_leq)
        heading = f"unipotent image, characteristic {char}, covers lower < upper:"
        shown.append(("unipotent", unip, heading))
    opposite = side == "both" and {(j, i) for i, j in unip.covers} == set(weyl.covers)
    code = 1 if side == "both" and not opposite else 0
    if fmt == "json":
        payload: dict = {name: hasse_to_json(diagram) for name, diagram, _ in shown}
        if side == "both":
            payload["opposite"] = opposite
        return _json(payload), code
    if fmt == "dot":
        return "".join(hasse_to_dot(diagram, name=name) for name, diagram, _ in shown), code
    lines = []
    for _, diagram, heading in shown:
        lines.append(heading)
        nodes = diagram.nodes
        lines.extend(f"  {nodes[i]} < {nodes[j]}" for i, j in diagram.covers)
    if side == "both":
        lines.append(f"diagrams mutually opposite: {opposite}")
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# verify


def run_verify(
    family: str,
    ranks: list[int],
    char: str | None,
    component: str | None,
    fmt: str,
) -> tuple[str, int]:
    """Verify each (group, char, component) combination of family, narrowed
    by char and component where given, at each of ranks."""
    tasks = [
        (group, n, c, comp)
        for group, c, comp in verify_combinations(family)
        if char in (None, c) and component in (None, comp)
        for n in ranks
        # a range from 1 skips the ranks below a family's least rank
        if n >= wg.FAMILY_RULES[family].min_rank
    ]
    if not tasks:
        raise UsageError("nothing to verify for that family/rank/char/component choice")
    reports = [verify_theorem(*t) for t in tasks]
    bad = sum(1 for r in reports if r["failures"])
    code = 1 if bad else 0
    if fmt == "json":
        payload = {"ok": not bad, "reports": reports}
        return _json(payload), code
    lines = []
    for r in reports:
        status = "FAIL" if r["failures"] else "OK"
        extra = f" component={r['component']}" if "component" in r else ""
        lines.append(
            f"{status} group={r['group']} family={r['family']} n={r['n']} "
            f"char={r['char']}{extra} pairs={r['pairs']} failures={len(r['failures'])}"
        )
    lines.append(
        "all checks passed" if not bad else f"counterexamples found in {bad} run(s)"
    )
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# bruhat


def run_bruhat(family: str, n: int, x_text: str, y_text: str, fmt: str) -> tuple[str, int]:
    x, y = _parse_window(x_text, family), _parse_window(y_text, family)
    ctx = wg.context(family, n, wg.component_of(family, x))
    for w, text in ((x, x_text), (y, y_text)):
        if len(w) != n:
            entries = "1 entry" if len(w) == 1 else f"{len(w)} entries"
            raise UsageError(f"element {text!r} has {entries}; --rank {n} needs {n}")
        # the one check of each window: the walk and packed test below skip it
        wg._check_element(wg.context(family, n, wg.component_of(family, w)), w)
    if wg.component_of(family, y) != ctx.component:
        raise UsageError(
            f"{format_partition(x)} and {format_partition(y)} "
            f"lie in different components of {family}({n})"
        )
    generic = wg._bruhat_leq(ctx, x, wg._length(ctx, x), y, wg._length(ctx, y))
    counts = witness = note = None
    code = 0
    if family != "2A":
        witness = wg._count_witness(ctx, x, y)
        counts = witness is None
        if family == "D":
            note = "for even-signed groups the count criterion is necessary, not sufficient"
            if generic and not counts:
                note = "count criterion violated the necessity direction; this is a bug"
                code = 1
        elif counts != generic:
            note = "count criterion disagrees with the recursive order; this is a bug"
            code = 1
    if fmt == "json":
        payload = {
            "family": family,
            "n": n,
            "x": list(x),
            "y": list(y),
            "generic": generic,
            "counts": counts,
            "witness": list(witness) if witness else None,
        }
        if note:
            payload["note"] = note
        return _json(payload), code
    lines = [f"x <= y in Bruhat order: {generic}"]
    if counts is not None:
        lines.append(f"count-matrix criterion: {counts}")
        if witness:
            lines.append(f"witness entry (i,j)=({witness[0]},{witness[1]}): x > y there")
    if note:
        lines.append(note)
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# argument wiring


# built on first use, not at import, and then kept: parsing leaves the
# parser unchanged, and building it costs about as much as a small verify
@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylunip",
        description="elliptic Weyl-group classes, unipotent classes, and the order-reversing map between them",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, *, fmt=("text", "json"), char=False, component=False, group=False):
        # a verb without --group has only --family to name its target
        p.add_argument("--family", choices=FAMILY_CHOICES, required=not group)
        if group:
            p.add_argument("--group", choices=sorted(GROUP_FLAG))
        p.add_argument("--rank", required=True, help="rank n (verify accepts A..B)")
        if char:
            p.add_argument("--char", choices=(GOOD, CHAR2))
        if component:
            p.add_argument("--component", choices=(wg.IDENTITY_COMPONENT, wg.TWISTED_COMPONENT))
        p.add_argument("--format", choices=fmt, default="text")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("classes", help="elliptic conjugacy classes")
    common(p, component=True)

    p = sub.add_parser("unipotent", help="unipotent class labels")
    common(p, char=True, group=True)

    p = sub.add_parser("map", help="the elliptic-to-unipotent map, both characteristics")
    common(p, component=True, group=True)

    p = sub.add_parser("hasse", help="Hasse diagrams of the two posets")
    common(p, fmt=("text", "json", "dot"), char=True, component=True, group=True)
    p.add_argument("--side", choices=("weyl", "unipotent", "both"), default="both")

    p = sub.add_parser("verify", help="check the order-reversal theorem exhaustively")
    common(p, char=True, component=True)

    p = sub.add_parser("bruhat", help="compare two elements in Bruhat order")
    common(p)
    p.add_argument("x", help="element window, e.g. [-2,1,3]")
    p.add_argument("y", help="element window, e.g. [3,-1,-2]")

    return parser


def _default_char(args, group: str, n: int) -> str:
    """--char, or else good characteristic on an identity component and
    characteristic 2 on a twisted one, which has unipotents only there."""
    if args.char:
        return args.char
    ctx = check_group(group, n, CHAR2, getattr(args, "component", None))
    return GOOD if has_unipotents(GOOD, ctx.component) else CHAR2


def _dispatch(args) -> tuple[str, int]:
    family, group = _target(args)
    ranks = _ranks(args)
    if args.verb == "verify":
        return run_verify(family, ranks, args.char, args.component, args.format)
    [n] = ranks
    if args.verb == "classes":
        return run_classes(family, n, args.component, args.format), 0
    if args.verb == "bruhat":
        return run_bruhat(family, n, args.x, args.y, args.format)
    if args.verb == "map":
        return run_map(group, n, args.component, args.format), 0
    char = _default_char(args, group, n)
    if args.verb == "unipotent":
        return run_unipotent(group, n, char, args.format), 0
    return run_hasse(group, n, char, args.side, args.component, args.format)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = _dispatch(args)
    except (ValueError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:
            # the interpreter found no stdout, as under `>&-`
            raise OSError("standard output is closed")
        else:
            sys.stdout.write(text)
    except (OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
