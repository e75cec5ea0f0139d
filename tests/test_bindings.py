"""Names that code outside the library looks up in weylunip must exist,
and names a module imports must be read.

perfbench/tracer.py wraps every function its LAYERS table names, looked
up with getattr on the weylunip module, and fails when one is missing;
tests/mutate.py finds its target functions by name in the source; the
package root promises every name in __all__.  The repository has no
linter, so the scans at the end are its lint gate: every source parses
under the oldest Python pyproject.toml admits, no unused imports,
no assert statements in the library, since `python -O` strips them, no
library import from outside the standard library, no library call into
the benchmark-bound block at the end of weylgroup.py, and no library
module reading another's underscore-private names beyond one allowlist.
Every command pays for the package import, so the last test keeps two
slow imports out of it.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import weylunip

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve():
    layers = load_tracer().LAYERS
    missing = [
        f"{mod}.{fn}"
        for mod, fns in layers.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"weylunip.{mod}"), fn, None))
    ]
    assert missing == []


def load_mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tests" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_targets_resolve():
    # tests/mutate.py names library functions by module and qualified
    # name; each must still exist, and its first mutant must compile
    mutate = load_mutate()
    for target in mutate.TARGETS:
        first = mutate.mutants([target])[0]
        source = mutate.mutated_source(first, first.module)
        assert source != mutate.mutated_source(None, first.module), target
        compile(source, first.module, "exec")


def test_mutation_run_takes_only_the_named_targets(monkeypatch, capsys):
    # every test run is replaced, so no pytest process starts
    mutate = load_mutate()
    ran = []

    def fake_run(m):
        ran.append(m)
        return ("survived", "") if m is None else ("killed", "fake")

    monkeypatch.setattr(mutate, "run", fake_run)
    assert mutate.select([]) == mutate.TARGETS
    assert mutate.select(["_shifts", "phi"]) == (
        ("lusztig.py", "phi"),
        ("weylgroup.py", "_shifts"),
    )
    assert mutate.main(["_shifts", "nosuch", "_phi", "other"]) == 2
    assert ran == []
    assert capsys.readouterr().err == "error: not in TARGETS: nosuch, other\n"

    assert mutate.main(["_count_columns"]) == 0
    assert ran[0] is None
    assert ran[1:] == mutate.mutants([("weylgroup.py", "_count_columns")])
    assert len(ran) > 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"{len(ran) - 1} mutants, {len(ran) - 1} killed, 0 survived"


def test_mutation_run_tests_a_copy_of_the_package(monkeypatch):
    # subprocess.run is replaced by a look at the temporary tree, so no
    # pytest process starts
    mutate = load_mutate()
    m = mutate.mutants([("weylgroup.py", "_inv_count")])[0]
    seen = []

    def fake_run(cmd, *, cwd, env, **kwargs):
        files = sorted(path.relative_to(cwd) for path in Path(cwd).rglob("*") if path.is_file())
        assert files == sorted(Path("weylunip", path.name) for path in mutate.PACKAGE.glob("*.py"))
        for path in files:
            # mutated_source changes only m's module
            text = (Path(cwd) / path).read_text(encoding="utf-8")
            assert text == mutate.mutated_source(m, path.name), path
        assert env["PYTHONPATH"] == cwd
        assert cmd[-1] == str(mutate.ROOT / "tests")
        seen.append(cwd)
        return subprocess.CompletedProcess(cmd, 1, "FAILED tests/test_x.py::test_y - no\n", "")

    monkeypatch.setattr(mutate.subprocess, "run", fake_run)
    assert mutate.run(m) == ("killed", "tests/test_x.py::test_y")
    assert len(seen) == 1 and not Path(seen[0]).exists()


def test_package_exports_resolve():
    missing = [name for name in weylunip.__all__ if not hasattr(weylunip, name)]
    assert missing == []
    assert len(set(weylunip.__all__)) == len(weylunip.__all__)


def unused_imports(path: Path) -> list[str]:
    """Names path binds by import and never reads.  __future__ imports
    bind nothing; `import a.b` binds a."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(bound.items()) if name not in read]


def test_every_imported_name_is_read():
    # the package root imports names only to re-export them in __all__
    paths = [p for p in sorted((ROOT / "src" / "weylunip").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert [hit for p in paths for hit in unused_imports(p)] == []


def test_sources_parse_at_the_declared_python_floor():
    # tier-1 runs on a later Python, whose grammar accepts syntax the
    # floor refuses, such as except*
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    paths = sorted((ROOT / "src" / "weylunip").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, int(floor[1])))


BENCHMARK_BLOCK = "# bound by the benchmark:"


def test_library_never_calls_the_benchmark_bound_block():
    # the functions at the end of weylgroup.py stay only because the
    # benchmark binds them by name; no library function outside that
    # block may call one of them, by bare name or as an attribute
    path = ROOT / "src" / "weylunip" / "weylgroup.py"
    text = path.read_text(encoding="utf-8")
    start = text.index(BENCHMARK_BLOCK)
    start_line = text.count("\n", 0, start) + 1
    bound = {
        node.name
        for node in ast.parse(text).body
        if isinstance(node, ast.FunctionDef) and node.lineno > start_line
    }
    assert {"enumerate_group", "count_matrix", "descent_walk", "bruhat_leq_walk"} <= bound
    hits = []
    for source in sorted((ROOT / "src" / "weylunip").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if source == path and getattr(node, "lineno", 0) > start_line:
                continue
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in bound:
                    hits.append(f"{source.relative_to(ROOT)}:{node.lineno}: {name}")
    assert hits == []


# the bruhat verb checks each window once, by length, then takes the
# unchecked walk and witness (test_bruhat_checks_each_window_once)
PRIVATE_READS = {
    ("cli.py", "run_bruhat"): {"_bruhat_leq", "_count_witness"},
}


def private_reads(path: Path) -> list[tuple[str, str]]:
    """(function, name) for each underscore-private name path reads from
    another library module, by `from .m import _name` or as an attribute
    of a module it bound by `from . import m`; function is the top-level
    function or class the read lies in, or "" at module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    }
    out = []
    for stmt in tree.body:
        owner = getattr(stmt, "name", "")
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                names = [node.attr]
            else:
                continue
            out += [(owner, name) for name in names
                    if name.startswith("_") and not name.startswith("__")]
    return out


def test_library_reads_no_private_name_of_another_module():
    hits = [
        f"{path.name}: {owner or '<module>'} reads {name}"
        for path in sorted((ROOT / "src" / "weylunip").glob("*.py"))
        for owner, name in private_reads(path)
        if name not in PRIVATE_READS.get((path.name, owner), ())
    ]
    assert hits == []
    # the allowlist names only reads that still happen
    cli = set(private_reads(ROOT / "src" / "weylunip" / "cli.py"))
    assert cli == {("run_bruhat", name) for name in PRIVATE_READS["cli.py", "run_bruhat"]}


def test_library_checks_invariants_without_assert():
    hits = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "weylunip").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert hits == []


def test_library_imports_only_the_standard_library():
    # a relative import (level > 0) stays inside the package
    hits = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
        for path in sorted((ROOT / "src" / "weylunip").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert hits == []


def test_import_loads_neither_dataclasses_nor_json():
    # dataclasses pulls in inspect, ast and dis, and its classes generate
    # their methods with exec; json is imported only by the CLI verb that
    # prints JSON, inside cli._json
    script = (
        "import sys; before = set(sys.modules); import weylunip, weylunip.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
        check=True,
    )
    added = set(proc.stdout.split())
    assert "weylunip.cli" in added
    assert added & {"dataclasses", "json"} == set()
