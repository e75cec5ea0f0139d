"""Mutation testing of chosen library functions, standard library only.

    python tests/mutate.py [NAME...]

Run from anywhere; paths are taken relative to the repository.  The
functions mutated are those named in TARGETS, or with NAMEs only the
targets of those qualified names (say `_shifts UnipotentLabel._record`),
so a change can re-run just the functions it rewrote; widening the scope
means editing that tuple.  A mutant changes one thing in one target function:
a comparison operator to its neighbour (< and <=, > and >=, == and !=,
is and is not, in and not in), a bitwise operator (|, & and ^) to each
of the others, an arithmetic operator (+ and -, * and //, // and %), a
shift to the other one, an integer constant c to c + 1 and c - 1, or two
adjacent positional arguments of a call to each other.
Only the target function's lines of the module change: its mutated
syntax tree is unparsed in their place.

Each mutant gets its own temporary copy of the package, alone on
PYTHONPATH, and the repository's tier-1 tests run on it with -x from
that directory, which keeps pytest's and hypothesis's files; tests that
start the library in a subprocess find the copy through cli.__file__.
A mutant is killed when a test fails or the run exceeds TIMEOUT
seconds, and survives when every test passes; a survivor listed in
EQUIVALENT, argued to compute what the target does, is reported as
equivalent instead.  The unmutated copy is run first and must pass.
JOBS test processes run at a time, each under a 1 GB address-space
limit that the child sets on itself before it imports pytest.  Exit
code 0 when no mutant survived outside EQUIVALENT, 1 when one did, 2
when a NAME is not in TARGETS or the unmutated copy fails.
"""

from __future__ import annotations

import ast
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylunip"

JOBS = 2  # test processes at a time
TIMEOUT = 300.0  # seconds per mutant
# the child limits its own address space, then runs pytest on its arguments
PYTEST = (
    "import resource, sys; "
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "import pytest; "
    "sys.exit(pytest.main(sys.argv[1:]))"
)

# (module file under src/weylunip, qualified function name)
TARGETS = (
    ("unipotent.py", "UnipotentLabel._record"),
    ("unipotent.py", "unipotent_leq"),
    ("unipotent.py", "unipotent_relation"),
    ("partitions.py", "_generate"),
    ("partitions.py", "family_members"),
    ("classposet.py", "hasse"),
    ("classposet.py", "_refusal"),
    ("weylgroup.py", "_steps"),
    ("weylgroup.py", "_bruhat_leq"),
    ("weylgroup.py", "_min_length_set"),
    ("weylgroup.py", "weyl_relation"),
    ("weylgroup.py", "descent_walk"),
    ("weylgroup.py", "bruhat_leq_walk"),
    ("weylgroup.py", "_count_key"),
    ("weylgroup.py", "_count_columns"),
    ("weylgroup.py", "_row_images"),
    ("weylgroup.py", "_count_witness"),
    ("weylgroup.py", "count_matrix"),
    ("weylgroup.py", "_inv_count"),
    ("weylgroup.py", "_check_element"),
    ("weylgroup.py", "rep_signed"),
    ("weylgroup.py", "rep_2A"),
    ("partitions.py", "psi"),
    ("partitions.py", "add_psi"),
    ("unipotent.py", "_forced_value"),
    ("partitions.py", "transpose"),
    ("partitions.py", "byte_width"),
    ("partitions.py", "pack_bytes"),
    ("partitions.py", "unpack_bytes"),
    ("unipotent.py", "UnipotentLabel._text"),
    ("lusztig.py", "phi"),
    ("lusztig.py", "_phi"),
    ("lusztig.py", "map_table"),
    ("lusztig.py", "verify_theorem"),
    ("weylgroup.py", "_shifts"),
    ("weylgroup.py", "elliptic_partitions"),
    ("weylgroup.py", "bruhat_leq_counts"),
    ("weylgroup.py", "GroupContext.counts_exact"),
    ("weylgroup.py", "GroupContext.signed"),
    ("cli.py", "run_verify"),
    ("cli.py", "run_bruhat"),
    ("classposet.py", "class_leq_W"),
    ("weylgroup.py", "enumerate_class"),
    ("weylgroup.py", "class_lengths"),
    ("unipotent.py", "label_to_json"),
    ("lusztig.py", "dominance_relation"),
)

# survivors no test can kill, keyed by (qualified name, change) as main
# prints them, each with why the mutant computes what the target does
EQUIVALENT = {
    ("unipotent_relation", "| -> ^ in key | guards"):
        "a packed key never sets a guard bit, so | and ^ agree",
    ("unipotent_relation", "| -> ^ in sums | guards"):
        "packed sums never set a guard bit, so | and ^ agree",
    ("unipotent_relation", "1 -> 2 in itertools.count(1)"):
        "each row also tests the next run's first label, lexicographically smaller, so False",
    ("UnipotentLabel._record", "arguments 1 and 2 swapped in zip(cols, cols[1:] + (0,))"):
        "_epsilon gets -m, and _forced_value reads only m == 0 and m % 2",
    ("UnipotentLabel._record", "- -> + in at_least - longer"):
        "_epsilon gets m + 2 * longer, nonzero with m's parity, all _forced_value reads",
    ("_check_element", "< -> <= in min(w) < 0"):
        "the window check before it leaves no zero entry",
    ("_check_element", "0 -> 1 in min(w) < 0"):
        "the window check before it leaves no zero entry",
    ("_check_element", "< -> <= in v < 0"):
        "the window check before it leaves no zero entry",
    ("_check_element", "0 -> 1 in v < 0"):
        "the window check before it leaves no zero entry",
}

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BINOP_SWAPS = {
    ast.BitOr: (ast.BitAnd, ast.BitXor), ast.BitAnd: (ast.BitOr, ast.BitXor),
    ast.BitXor: (ast.BitOr, ast.BitAnd), ast.Add: (ast.Sub,), ast.Sub: (ast.Add,),
    ast.Mult: (ast.FloorDiv,), ast.FloorDiv: (ast.Mult, ast.Mod), ast.Mod: (ast.FloorDiv,),
    ast.LShift: (ast.RShift,), ast.RShift: (ast.LShift,),
}
SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.BitOr: "|", ast.BitAnd: "&", ast.BitXor: "^", ast.Add: "+", ast.Sub: "-",
    ast.Mult: "*", ast.FloorDiv: "//", ast.Mod: "%", ast.LShift: "<<", ast.RShift: ">>",
}


class Mutant(NamedTuple):
    module: str
    function: str
    site: int  # index of the node among the function's mutable nodes
    choice: int  # index of the replacement at that node
    line: int
    change: str


def find_function(tree: ast.AST, qualname: str) -> ast.FunctionDef:
    node = tree
    for name in qualname.split("."):
        node = next(
            (n for n in ast.iter_child_nodes(node)
             if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name),
            None,
        )
        if node is None:
            raise SystemExit(f"error: no function {qualname}")
    return node


def sites(func: ast.FunctionDef) -> list[tuple[ast.AST, list]]:
    """The mutable nodes of func in a fixed order, each with its
    replacements: (position in node.ops or None, new op) for operators,
    a new value for a constant, the first of two differing adjacent
    positional arguments to swap for a call."""
    # annotations are never evaluated (the modules import annotations
    # from __future__), so a mutant there could not be killed
    notes = [a.annotation for a in ast.walk(func.args) if isinstance(a, ast.arg) and a.annotation]
    notes += [n.annotation for n in ast.walk(func) if isinstance(n, ast.AnnAssign)]
    skip = {id(n) for note in notes + [func.returns] if note for n in ast.walk(note)}
    out = []
    for node in ast.walk(func):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                out.append((node, [(k, COMPARE_SWAPS[type(op)])]))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOP_SWAPS:
            out.append((node, [(None, new) for new in BINOP_SWAPS[type(node.op)]]))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, [node.value + 1, node.value - 1]))
        elif isinstance(node, ast.Call):
            args = node.args
            swaps = [k for k in range(len(args) - 1)
                     if not isinstance(args[k], ast.Starred)
                     and not isinstance(args[k + 1], ast.Starred)
                     and ast.dump(args[k]) != ast.dump(args[k + 1])]
            if swaps:
                out.append((node, swaps))
    return out


def describe(node: ast.AST, replacement, parent: ast.AST) -> str:
    """The change, and the expression it is made in: node's parent for
    a constant, node itself otherwise."""
    if isinstance(node, ast.Constant):
        return f"{node.value} -> {replacement} in {ast.unparse(parent)}"
    if isinstance(node, ast.Call):
        return f"arguments {replacement + 1} and {replacement + 2} swapped in {ast.unparse(node)}"
    k, new = replacement
    old = node.ops[k] if k is not None else node.op
    return f"{SYMBOL[type(old)]} -> {SYMBOL[new]} in {ast.unparse(node)}"


def mutants(targets) -> list[Mutant]:
    out = []
    for module, qualname in targets:
        func = find_function(ast.parse((PACKAGE / module).read_text(encoding="utf-8")), qualname)
        parent = {id(c): n for n in ast.walk(func) for c in ast.iter_child_nodes(n)}
        for site, (node, replacements) in enumerate(sites(func)):
            for choice, replacement in enumerate(replacements):
                out.append(Mutant(module, qualname, site, choice, node.lineno,
                                  describe(node, replacement, parent.get(id(node)))))
    return out


def mutated_source(m: Mutant | None, module: str) -> str:
    """The module's source with m applied, or unchanged when m is None."""
    source = (PACKAGE / module).read_text(encoding="utf-8")
    if m is None or m.module != module:
        return source
    func = find_function(ast.parse(source), m.function)
    node, replacements = sites(func)[m.site]
    replacement = replacements[m.choice]
    if isinstance(node, ast.Constant):
        node.value = replacement
    elif isinstance(node, ast.Call):
        k = replacement
        node.args[k], node.args[k + 1] = node.args[k + 1], node.args[k]
    elif replacement[0] is None:
        node.op = replacement[1]()
    else:
        node.ops[replacement[0]] = replacement[1]()
    lines = source.splitlines(keepends=True)
    first = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    text = textwrap.indent(ast.unparse(func), " " * func.col_offset) + "\n"
    return "".join(lines[:first]) + text + "".join(lines[func.end_lineno:])


def run(m: Mutant | None) -> tuple[str, str]:
    """(outcome, detail) of the tier-1 tests on a package copy carrying m."""
    with tempfile.TemporaryDirectory(prefix="weylunip-mutant-") as tmp:
        copy = Path(tmp) / "weylunip"
        shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        if m is not None:
            (copy / m.module).write_text(mutated_source(m, m.module), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-c", PYTEST, "-q", "-x", "-p", "no:cacheprovider", str(ROOT / "tests")]
        try:
            done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {TIMEOUT:g} s"
    if done.returncode == 0:
        return "survived", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else f"exit {done.returncode}"


def select(names: list[str]) -> tuple[tuple[str, str], ...]:
    """The TARGETS whose qualified names are among names, in TARGETS'
    order; all of them when names is empty.  Raises KeyError naming the
    names that are not in TARGETS."""
    unknown = [name for name in names if name not in {q for _, q in TARGETS}]
    if unknown:
        raise KeyError(", ".join(unknown))
    return tuple(t for t in TARGETS if not names or t[1] in names)


def main(argv: list[str]) -> int:
    try:
        todo = mutants(select(argv))
    except KeyError as exc:
        print(f"error: not in TARGETS: {exc.args[0]}", file=sys.stderr)
        return 2
    outcome, detail = run(None)
    if outcome != "survived":
        print(f"error: the unmutated copy fails: {detail}", file=sys.stderr)
        return 2
    counts = Counter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        for m, (outcome, detail) in zip(todo, pool.map(run, todo)):
            if outcome == "survived" and (m.function, m.change) in EQUIVALENT:
                outcome, detail = "equivalent", EQUIVALENT[m.function, m.change]
            counts[outcome] += 1
            print(f"{outcome:10} {m.module}:{m.line} {m.function}: {m.change}  {detail}".rstrip(),
                  flush=True)
    print(f"{len(todo)} mutants, {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['equivalent']} equivalent")
    return 1 if counts["survived"] else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
