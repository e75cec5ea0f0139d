import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from weylunip import cli, weylgroup as wg
from weylunip.lusztig import map_table, phi
from weylunip.unipotent import GROUP_FAMILY, enumerate_unipotent, good_label


def test_map_symplectic_rank_two_exact():
    assert cli.run_map("Sp", 2) == (
        "class\tgood\tchar2\n"
        "[2]\t[4]\t([4],*)\n"
        "[1,1]\t[2,2]\t([2,2],ε(2)=1)\n"
    )


def test_map_odd_orthogonal_rank_two_exact():
    assert cli.run_map("O_odd", 2) == (
        "class\tgood\tchar2\n"
        "[2]\t[5]\t([4,1],*)\n"
        "[1,1]\t[3,1,1]\t([2,2,1],ε(2)=1)\n"
    )


def test_map_even_orthogonal_exact():
    assert cli.run_map("O_even", 2) == (
        "class\tgood\tchar2\n[1,1]\t[3,1]\t([2,2],ε(2)=1)\n"
    )
    assert cli.run_map("O_even", 3) == (
        "class\tgood\tchar2\n[2,1]\t[5,1]\t([4,2],*)\n"
    )
    assert cli.run_map("O_even", 4) == (
        "class\tgood\tchar2\n"
        "[3,1]\t[7,1]\t([6,2],*)\n"
        "[2,2]\t[5,3]\t([4,4],ε(4)=1)\n"
        "[1,1,1,1]\t[3,2,2,1]\t([2,2,2,2],ε(2)=1)\n"
    )
    assert cli.run_map("O_even", 6) == (
        "class\tgood\tchar2\n"
        "[5,1]\t[11,1]\t([10,2],*)\n"
        "[4,2]\t[9,3]\t([8,4],*)\n"
        "[3,3]\t[7,5]\t([6,6],ε(6)=1)\n"
        "[3,1,1,1]\t[7,2,2,1]\t([6,2,2,2],*)\n"
        "[2,2,1,1]\t[5,3,3,1]\t([4,4,2,2],ε(4)=ε(2)=1)\n"
        "[1,1,1,1,1,1]\t[3,2,2,2,2,1]\t([2,2,2,2,2,2],ε(2)=1)\n"
    )


def test_map_single_column_contexts():
    # no good-characteristic unipotents on these components
    assert cli.run_map("GLd", 3, "twisted") == (
        "class\tchar2\n[3]*d\t([3],*)\n[1,1,1]*d\t([1,1,1],*)\n"
    )
    assert cli.run_map("O_even", 3, "twisted") == (
        "class\tchar2\n[3]*d\t([6],*)\n[1,1,1]*d\t([2,2,2],*)\n"
    )


def test_map_linear_group():
    assert cli.run_map("GL", 4) == "class\tgood\tchar2\n[4]\t[4]\t[4]\n"


def test_map_json_round_trips():
    payload = json.loads(cli.run_map("Sp", 2, fmt="json"))
    assert payload["group"] == "Sp"
    assert payload["rows"][0]["class"] == "[2]"
    assert payload["rows"][0]["good"]["partition"] == [4]
    assert payload["rows"][0]["char2"]["epsilon"] == {}  # no free rows in [4]
    assert payload["rows"][1]["char2"]["epsilon"] == {"2": 1}


def test_bruhat_count_witness():
    text, code = cli.run_bruhat("BC", 2, "[-1,-2]", "[2,-1]", "text")
    assert code == 0
    assert text == (
        "x <= y in Bruhat order: False\n"
        "count-matrix criterion: False\n"
        "witness entry (i,j)=(-2,2): x > y there\n"
    )


def test_bruhat_type_a():
    text, code = cli.run_bruhat("A", 3, "[2,1,3]", "[3,2,1]", "text")
    assert code == 0
    assert text == (
        "x <= y in Bruhat order: True\ncount-matrix criterion: True\n"
    )


def test_bruhat_even_signed_note():
    # two distinct simple reflections: incomparable, yet the count
    # matrices satisfy the inequality, showing necessity only
    text, code = cli.run_bruhat("D", 3, "[2,1,3]", "[-2,-1,3]", "text")
    assert code == 0
    assert text == (
        "x <= y in Bruhat order: False\n"
        "count-matrix criterion: True\n"
        "for even-signed groups the count criterion is necessary, not sufficient\n"
    )


def test_bruhat_twisted_windows():
    text, code = cli.run_bruhat("2A", 3, "[1,2,3]*d", "[3,2,1]*d", "text")
    assert code == 0
    assert text == "x <= y in Bruhat order: True\n"
    text, _ = cli.run_bruhat("2A", 3, "[3,2,1]*d", "[1,2,3]*d", "text")
    assert text == "x <= y in Bruhat order: False\n"


def test_bruhat_json():
    payload = json.loads(cli.run_bruhat("BC", 2, "[-1,-2]", "[2,-1]", "json")[0])
    assert payload["generic"] is False
    assert payload["counts"] is False
    assert payload["witness"] == [-2, 2]


@pytest.mark.parametrize(
    "family, n, x, y",
    [
        ("BC", 4, "[-1,-2,3,4]", "[2,-1,4,3]"),
        ("D", 3, "[2,1,3]", "[-2,-1,3]"),
        ("A", 3, "[2,1,3]", "[3,2,1]"),
        ("2A", 3, "[1,2,3]*d", "[3,2,1]*d"),
    ],
)
def test_bruhat_checks_each_window_once(family, n, x, y, monkeypatch):
    checks = []
    check = wg._check_element

    def counted(ctx, w):
        checks.append(w)
        return check(ctx, w)

    monkeypatch.setattr(wg, "_check_element", counted)
    for fmt in ("text", "json"):
        checks.clear()
        cli.run_bruhat(family, n, x, y, fmt)
        assert checks == [cli._parse_window(x, family), cli._parse_window(y, family)]


def test_hasse_text_and_opposite():
    text, code = cli.run_hasse("Sp", 2, "good", "both", "id", "text")
    assert code == 0
    assert text == (
        "elliptic classes of Sp(2), covers lower < upper:\n"
        "  [2] < [1,1]\n"
        "unipotent image, characteristic good, covers lower < upper:\n"
        "  [2,2] < [4]\n"
        "diagrams mutually opposite: True\n"
    )


def test_hasse_singleton():
    text, code = cli.run_hasse("GL", 3, "good", "both", "id", "text")
    assert code == 0
    assert "diagrams mutually opposite: True" in text
    payload = json.loads(cli.run_hasse("GL", 3, "good", "both", "id", "json")[0])
    assert len(payload["weyl"]["nodes"]) == 1
    assert payload["weyl"]["covers"] == []
    assert payload["opposite"] is True


def test_hasse_dot_output():
    text, code = cli.run_hasse("Sp", 2, "2", "unipotent", "id", "dot")
    assert code == 0
    assert text == (
        "digraph unipotent {\n"
        "  rankdir=BT;\n"
        "  node [shape=box];\n"
        '  n0 [label="([4],*)"];\n'
        '  n1 [label="([2,2],ε(2)=1)"];\n'
        "  n1 -> n0;\n"
        "}\n"
    )


def test_main_exit_codes(capsys):
    assert cli.main(["map", "--family", "BC", "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert out == cli.run_map("Sp", 2)
    assert cli.main(["classes", "--family", "BC", "--rank", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert cli.main(["bruhat", "--family", "BC", "--rank", "2", "nonsense", "[1,2]"]) == 2


def assert_one_line_refusal(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--family", "A"],
        ["map", "--group", "GL"],
        ["hasse", "--family", "A"],
        ["verify", "--family", "A"],
    ],
)
def test_family_a_refuses_a_rank_past_the_partition_bound(capsys, argv):
    # rank 10**18 would build a 10**18-tuple representative
    line = assert_one_line_refusal(capsys, [*argv, "--rank", str(10**18)])
    assert "bound exceeded" in line


@pytest.mark.parametrize("text", [f"2..{10**18}", f"-{10**18}..3", "0..3", "2..61"])
def test_verify_refuses_a_rank_range_past_its_bounds(capsys, text):
    # refused before one rank is listed, so memory does not grow with the range
    # --rank=... keeps argparse from reading a negative end as an option
    line = assert_one_line_refusal(capsys, ["verify", "--family", "D", f"--rank={text}"])
    assert "1..60" in line


@pytest.mark.parametrize("family, rank", [("A", 0), ("BC", 0), ("BC", -3), ("D", 0), ("2A", 1)])
def test_verify_below_the_least_rank_has_one_message(capsys, family, rank):
    # every family skips the ranks below its least rank, so a single such
    # rank leaves nothing to verify, whichever family it is
    line = assert_one_line_refusal(capsys, ["verify", "--family", family, f"--rank={rank}"])
    assert line == "error: nothing to verify for that family/rank/char/component choice"


@pytest.mark.parametrize("group, rank", [("Sp", 0), ("GL", -1), ("SOeven", 1)])
def test_unipotent_below_the_least_rank_is_refused(capsys, group, rank):
    # the unipotent verb reads the least-rank rule map and hasse read
    argv = ["unipotent", "--group", group, f"--rank={rank}"]
    line = assert_one_line_refusal(capsys, argv)
    assert line == f"error: rank {rank} out of range for {cli.GROUP_FLAG[group]}"


@pytest.mark.parametrize("verb", ["map", "hasse", "unipotent"])
def test_family_and_group_must_agree(capsys, verb):
    # a pair naming one family prints what --group alone prints; a pair
    # naming two is refused, not settled by letting one flag win
    for family in cli.FAMILY_CHOICES:
        for flag, group in cli.GROUP_FLAG.items():
            argv = [verb, "--group", flag, "--rank", "3"]
            if GROUP_FAMILY[group] == cli.FAMILY_ALIAS.get(family, family):
                alone = cli.main(argv), capsys.readouterr()
                assert (cli.main([*argv, "--family", family]), capsys.readouterr()) == alone
            else:
                line = assert_one_line_refusal(capsys, [*argv, "--family", family])
                assert f"--family {family}" in line and f"--group {flag}" in line


@pytest.mark.parametrize("verb", ["classes", "unipotent", "map", "hasse", "verify", "bruhat"])
def test_a_malformed_rank_is_refused_by_name(capsys, verb):
    target = ["--group", "Sp"] if verb == "unipotent" else ["--family", "BC"]
    windows = ["[1,2]", "[2,1]"] if verb == "bruhat" else []
    # int() alone would read 1_0 as 10 and a full-width ３ as 3
    for text in ["1e3", "3.0", "1_0", "３", *(["1..x"] if verb == "verify" else [])]:
        line = assert_one_line_refusal(capsys, [verb, *target, "--rank", text, *windows])
        assert line.startswith("error: --rank expects an integer") and repr(text) in line


@pytest.mark.parametrize(
    "bad", ["[1,x]", "[a]", "[]*d", "[2,1]*d", "[1,*d2]", "[1,,2]", "[1,2,]", "[1 2]"]
)
def test_a_malformed_window_is_quoted(capsys, bad):
    for pair in ([bad, "[1,2]"], ["[1,2]", bad]):
        line = assert_one_line_refusal(capsys, ["bruhat", "--family", "BC", "--rank", "2", *pair])
        assert line == f"error: cannot parse element {bad!r}"


@pytest.mark.parametrize("family", ["A", "BC", "D", "2A"])
@pytest.mark.parametrize(
    "bad, entries", [("[1]", "1 entry"), ("[1,2]", "2 entries"), ("[4,3,2,1]", "4 entries")]
)
def test_a_window_of_the_wrong_length_is_refused_by_rank(capsys, family, bad, entries):
    # the library's own refusal would name a GroupContext repr, not --rank
    for pair in ([bad, "[1,2,3]"], ["[1,2,3]", bad]):
        line = assert_one_line_refusal(capsys, ["bruhat", "--family", family, "--rank", "3", *pair])
        assert line == f"error: element {bad!r} has {entries}; --rank 3 needs 3"


@pytest.mark.parametrize(
    "family, pair, refusal",
    [
        ("BC", ["[1,1,2]", "[1,2,3]"], "[1,1,2] is not a signed permutation window"),
        ("A", ["[1,2,3]", "[-1,2,3]"], "[-1,2,3] has signs; family A stores plain permutations"),
        ("D", ["[1,2,3]", "[-1,2,3]"],
         "[1,2,3] and [-1,2,3] lie in different components of D(3)"),
        ("D", ["[1,2,3]", "[-1,-2,-3]"],
         "[1,2,3] and [-1,-2,-3] lie in different components of D(3)"),
        # a window that names no element is refused before its component
        ("D", ["[1,2,3]", "[-1,1,3]"], "[-1,1,3] is not a signed permutation window"),
    ],
    ids=["window", "signs", "one-sign", "three-signs", "window-before-component"],
)
def test_an_element_refusal_writes_the_window(capsys, family, pair, refusal):
    # the element is quoted as the window the command line took
    line = assert_one_line_refusal(capsys, ["bruhat", "--family", family, "--rank", "3", *pair])
    assert line == f"error: {refusal}"


def refusal_text(call, *args):
    with pytest.raises(ValueError) as exc:
        call(*args)
    return str(exc.value)


def test_the_good_characteristic_refusal_has_one_text(capsys):
    # every path to good characteristic on a component without unipotents
    # ends in unipotent.check_group, so each refuses with the same text
    def verb(*argv):
        line = assert_one_line_refusal(capsys, [*argv, "--rank", "3", "--char", "good"])
        return line.removeprefix("error: ")

    gld = map_table("GLd", 3, "2")[1][0]
    d_twisted = map_table("O_even", 3, "2", "twisted")[1][0]
    no_good = "the twisted component of {} has no unipotent elements in good characteristic"
    for want, texts in [
        (no_good.format("GLd"), [
            refusal_text(good_label, "GLd", 3, (3,)),
            refusal_text(enumerate_unipotent, "GLd", 3, "good"),
            refusal_text(phi, "GLd", "good", gld),
            refusal_text(map_table, "GLd", 3, "good"),
            verb("unipotent", "--group", "GLd"),
            verb("hasse", "--group", "GLd"),
        ]),
        (no_good.format("O(2n)"), [
            refusal_text(phi, "O_even", "good", d_twisted),
            refusal_text(map_table, "O_even", 3, "good", "twisted"),
            verb("hasse", "--group", "SOeven", "--component", "twisted"),
        ]),
    ]:
        assert texts == [want] * len(texts)


def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch):
    # MemoryError is an input too large for the machine, not a counterexample
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "run_verify", exhaust)
    line = assert_one_line_refusal(capsys, ["verify", "--family", "BC", "--rank", "3"])
    assert line == "error: out of memory"


@pytest.mark.parametrize("verb", ["classes", "verify", "bruhat"])
def test_a_verb_without_group_requires_family(capsys, verb):
    # --family is the only way these verbs name a family, so argparse
    # refuses its absence and no message offers --group
    windows = ["[1,2]", "[2,1]"] if verb == "bruhat" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "--rank", "2", *windows])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"weylunip {verb}: error: the following arguments are required: --family"
    )
    assert "--group" not in err


@pytest.mark.parametrize("verb", ["classes", "map", "hasse", "verify"])
def test_component_flag_names_one_of_the_familys_components(capsys, verb):
    # a component the family lacks is refused, and naming the family's
    # first component prints what leaving the flag out prints; verify
    # without the flag runs every component, so a family with two differs
    from weylunip import unipotent

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    selectors = [("--family", f, cli.FAMILY_ALIAS.get(f, f)) for f in cli.FAMILY_CHOICES]
    if verb in ("map", "hasse"):
        selectors += [("--group", g, unipotent.GROUP_FAMILY[group]) for g, group in cli.GROUP_FLAG.items()]
    sides = [["--side", s] for s in ("weyl", "unipotent", "both")] if verb == "hasse" else [[]]
    for flag, name, family in selectors:
        components = wg.FAMILY_RULES[family].components
        for rank in ("2", "3"):
            for side in sides:
                argv = [verb, flag, name, "--rank", rank, *side]
                for comp in (wg.IDENTITY_COMPONENT, wg.TWISTED_COMPONENT):
                    if comp not in components:
                        assert_one_line_refusal(capsys, [*argv, "--component", comp])
                first = run([*argv, "--component", components[0]])
                if verb != "verify" or len(components) == 1:
                    assert first == run(argv), argv


def test_main_verify_ok(capsys):
    code = cli.main(["verify", "--family", "BC", "--rank", "2..3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "all checks passed"
    assert (
        "OK group=Sp family=BC n=2 char=good pairs=4 failures=0" in lines
    )
    # all four (group, char) combinations at each rank
    assert sum(1 for l in lines if l.startswith("OK")) == 8


def test_main_verify_component_filter(capsys):
    code = cli.main(
        ["verify", "--family", "D", "--rank", "3", "--component", "twisted"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l.startswith("OK")]
    assert lines == [
        "OK group=O_even family=D n=3 char=2 component=twisted pairs=4 failures=0"
    ]


def test_main_verify_reaches_rank_eight(capsys):
    # every minimal-length set of D(8) holds far fewer than weylgroup.MAX_HELD
    assert cli.main(["verify", "--family", "D", "--rank", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all checks passed"


@pytest.mark.parametrize("family, contexts", [("BC", 5), ("D", 10)])
def test_main_verify_range_builds_each_table_once(capsys, monkeypatch, family, contexts):
    # run_verify loops over (group, char, component) outside the ranks, so
    # the relation cache must hold every context of the range at once, and
    # each context's relation builds each class's minimal-length set once
    from collections import Counter

    from weylunip.classposet import weyl_relation

    built = Counter()
    real = wg._min_length_set

    def counted(ctx, rep):
        built[ctx, rep] += 1
        return real(ctx, rep)

    monkeypatch.setattr(wg, "_min_length_set", counted)
    weyl_relation.cache_clear()
    try:
        assert cli.main(["verify", "--family", family, "--rank", "2..6"]) == 0
        capsys.readouterr()
        assert weyl_relation.cache_info().misses == contexts
    finally:
        weyl_relation.cache_clear()
    seen = {ctx for ctx, _ in built}
    assert len(seen) == contexts
    assert len(built) == sum(len(wg.elliptic_partitions(ctx)) for ctx in seen)
    assert set(built.values()) == {1}


def test_hasse_weyl_side_reads_the_relation_once(monkeypatch):
    # one enumeration lists the classes and at most one more builds the
    # relation; reading the order pair by pair would enumerate m^2 times
    from weylunip import weylgroup as wg
    from weylunip.classposet import weyl_relation

    calls = []
    real = wg.elliptic_partitions

    def counted(ctx):
        calls.append(ctx)
        return real(ctx)

    monkeypatch.setattr(wg, "elliptic_partitions", counted)
    weyl_relation.cache_clear()
    try:
        for _ in range(2):  # with the relation uncached, then cached
            calls.clear()
            assert cli.run_hasse("Sp", 6, "good", "weyl", None, "text")[1] == 0
            assert len(calls) <= 2
    finally:
        weyl_relation.cache_clear()


def test_main_verify_cap_is_a_usage_error(capsys, monkeypatch):
    # the bound is not part of the cache key, so relations built under the
    # real bound must not answer for the lowered one, nor the other way round
    from weylunip import weylgroup as wg
    from weylunip.classposet import weyl_relation

    # the largest minimal-length set of BC(8), class [2,2,2,2], holds 1,680
    monkeypatch.setattr(wg, "MAX_HELD", 1000)
    weyl_relation.cache_clear()
    try:
        code = cli.main(["verify", "--family", "BC", "--rank", "8"])
    finally:
        weyl_relation.cache_clear()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "1000" in lines[0]


@pytest.mark.parametrize("verb", ["classes", "unipotent", "map", "hasse", "verify", "bruhat"])
def test_no_verb_takes_a_cap(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "--help"])
    assert exc.value.code == 0
    assert "--cap" not in capsys.readouterr().out
    windows = ["[1,2,3]", "[1,2,3]"] if verb == "bruhat" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "--family", "BC", "--rank", "3", *windows, "--cap", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 10" in capsys.readouterr().err


def test_main_reuses_one_parser(capsys):
    # the parser is built once per process; parsing must leave it as it
    # was, so a second verb and then a usage error read exactly as in a
    # fresh process
    assert cli.main(["classes", "--family", "BC", "--rank", "2"]) == 0
    assert capsys.readouterr() == (
        "class\trep\tlength\tsize\n[2]\t[2,-1]\t2\t2\n[1,1]\t[-1,-2]\t4\t1\n",
        "",
    )
    assert cli.main(["map", "--group", "GL", "--rank", "4"]) == 0
    assert capsys.readouterr() == ("class\tgood\tchar2\n[4]\t[4]\t[4]\n", "")
    with pytest.raises(SystemExit) as exc:
        cli.main(["classes", "--family", "BC", "--rank", "2", "--side", "weyl"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "",
        "usage: weylunip [-h] {classes,unipotent,map,hasse,verify,bruhat} ...\n"
        "weylunip: error: unrecognized arguments: --side weyl\n",
    )
    assert cli._build_parser.cache_info().currsize == 1


def test_classes_sizes_need_no_enumeration(capsys):
    assert cli.main(["classes", "--family", "BC", "--rank", "8"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    size = {row[0]: row[3] for row in rows}
    assert size["[8]"] == "645120"
    assert size["[1,1,1,1,1,1,1,1]"] == "1"


def test_main_verify_flags_counterexamples(capsys, monkeypatch):
    fake = {
        "family": "BC",
        "group": "Sp",
        "n": 2,
        "char": "good",
        "pairs": 4,
        "failures": [{"alpha": [2], "beta": [1, 1]}],
    }
    monkeypatch.setattr(cli, "verify_theorem", lambda *task: dict(fake))
    code = cli.main(["verify", "--family", "BC", "--rank", "2", "--char", "good"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL group=Sp" in out
    assert "counterexamples found in 2 run(s)" in out  # Sp and O_odd rows


def test_main_verify_checks_the_weyl_relation(capsys, monkeypatch):
    # a relation with one wrong entry must surface as a counterexample in
    # every combination that reads it, not be taken on trust
    from weylunip import lusztig, weylgroup as wg
    from weylunip.classposet import elliptic_classes, weyl_relation

    ctx = wg.context("BC", 4)
    labels = elliptic_classes(ctx)
    true_rel = weyl_relation(ctx)
    # rel[i][j] is verify's Weyl answer for alpha = labels[j], beta = labels[i]
    i, j = 1, 0
    flipped = not true_rel[i][j]

    def corrupted(c):
        rel = [list(row) for row in weyl_relation(c)]
        rel[i][j] = flipped
        return tuple(map(tuple, rel))

    monkeypatch.setattr(lusztig, "weyl_relation", corrupted)
    assert cli.main(["verify", "--family", "BC", "--rank", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["FAIL"] * 4
    assert lines[-1] == "counterexamples found in 4 run(s)"

    assert cli.main(["verify", "--family", "BC", "--rank", "4", "--format", "json"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert len(reports) == 4
    for report in reports:
        [failure] = report["failures"]
        assert failure["alpha"] == list(labels[j].partition)
        assert failure["beta"] == list(labels[i].partition)
        assert failure["class_leq_W"] is flipped


@pytest.mark.parametrize("family", ["BC", "D"])
def test_verify_is_unchanged_under_optimize(capsys, family):
    # python -O strips assert statements; no check verify relies on may be one
    argv = ["verify", "--family", family, "--rank", "2..5"]
    code = cli.main(argv)
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "weylunip", *argv],
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert proc.returncode == code == 0
    assert proc.stdout == expected


def test_main_out_file(tmp_path, capsys):
    target = tmp_path / "map.tsv"
    code = cli.main(["map", "--family", "BC", "--rank", "2", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == cli.run_map("Sp", 2)


def test_main_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "map.tsv"
    code = cli.main(["map", "--family", "BC", "--rank", "2", "--out", str(target)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not target.exists()


def test_main_closed_stdout_is_usage_error():
    # under `>&-` the interpreter sets sys.stdout to None
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m weylunip classes --family BC --rank 2 >&-', sys.executable],
        env=dict(os.environ, PYTHONPATH=src),
        stderr=subprocess.PIPE,
        encoding="utf-8",
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: standard output is closed\n"


def test_main_unencodable_stdout_is_usage_error(capsys, monkeypatch):
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
    # the characteristic-2 map prints epsilon, which ASCII cannot encode
    code = cli.main(["map", "--family", "BC", "--rank", "2"])
    sys.stdout.flush()
    assert code == 2
    assert raw.getvalue() == b""
    assert capsys.readouterr().err.startswith("error:")


def test_byte_determinism():
    assert cli.run_map("O_even", 5, "twisted") == cli.run_map("O_even", 5, "twisted")
    a = cli.run_hasse("O_even", 4, "2", "both", "id", "dot")
    b = cli.run_hasse("O_even", 4, "2", "both", "id", "dot")
    assert a == b
    args = ("BC", [2, 3], None, None, "json")
    assert cli.run_verify(*args) == cli.run_verify(*args)


def test_classes_listing():
    text = cli.run_classes("BC", 2, "id", "text")
    assert text == (
        "class\trep\tlength\tsize\n"
        "[2]\t[2,-1]\t2\t2\n"
        "[1,1]\t[-1,-2]\t4\t1\n"
    )
    text = cli.run_classes("2A", 2, None, "text")
    assert text == "class\trep\tlength\tsize\n[1,1]*d\t[2,1]*d\t1\t1\n"


def test_unipotent_listing():
    text = cli.run_unipotent("Sp", 2, "2", "text")
    assert text.splitlines() == ["([4],*)", "([2,2],ε(2)=1)", "([2,2],ε(2)=0)", "([2,1,1],*)", "([1,1,1,1],*)"]
    text = cli.run_unipotent("O_even", 2, "2", "text")
    for line in text.splitlines():
        label, comp = line.split("\t")
        assert comp in ("SO", "O\\SO")


def test_group_flag_spellings(capsys):
    # SOodd spells the odd orthogonal group on the command line
    assert cli.main(["map", "--group", "SOodd", "--rank", "2"]) == 0
    assert capsys.readouterr().out == cli.run_map("O_odd", 2)
    assert cli.main(["map", "--group", "SOeven", "--rank", "3"]) == 0
    assert capsys.readouterr().out == cli.run_map("O_even", 3)


@pytest.mark.parametrize("alias, family", sorted(cli.FAMILY_ALIAS.items()))
def test_family_aliases_are_resolved_by_the_cli(capsys, alias, family):
    # the library takes canonical family names only; the CLI maps each
    # alias before any library call, so both spellings print the same bytes
    from weylunip import lusztig, weylgroup as wg

    with pytest.raises(ValueError):
        wg.context(alias, 3)
    with pytest.raises(ValueError):
        lusztig.verify_combinations(alias)
    for argv in (["classes", "--rank", "3"], ["verify", "--rank", "2..5"]):
        outputs = []
        for name in (alias, family):
            assert cli.main([*argv, "--family", name]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out


# ---------------------------------------------------------------------------
# the exit-code contract over generated command lines

# the flags each verb takes; a command line draws mostly these, now and then
# one the verb does not take, and now and then a value no flag accepts
VERB_FLAGS = {
    "classes": ("--family", "--rank", "--component", "--format", "--out"),
    "unipotent": ("--family", "--group", "--rank", "--char", "--format", "--out"),
    "map": ("--family", "--group", "--rank", "--component", "--format", "--out"),
    "hasse": ("--family", "--group", "--rank", "--char", "--component", "--format", "--out", "--side"),
    "verify": ("--family", "--rank", "--char", "--component", "--format", "--out"),
    "bruhat": ("--family", "--rank", "--format", "--out"),
}
FLAG_VALUES = {
    "--family": (cli.FAMILY_CHOICES, ("E", "bc")),
    "--group": (tuple(cli.GROUP_FLAG), ("G2", "SO")),
    "--component": (("id", "twisted"), ("both",)),
    "--char": (("good", "2"), ("3",)),
    "--format": (("text", "json", "dot"), ("xml",)),
    "--side": (("weyl", "unipotent", "both"), ("left",)),
    # TMP stands for a directory that exists
    "--out": (("TMP/out.txt",), ("TMP", "TMP/missing/out.txt")),
}
# ranks stay small or are refused before anything is built: -3..6, past
# the partition bound, or malformed; range ends are drawn the same way
SMALL_RANKS = st.integers(-3, 6)
HUGE_RANKS = st.sampled_from([61, 10**6, 10**18])
MALFORMED_RANKS = st.sampled_from(["1e3", "1..", "..2", "2..1", "", "x", "3.0", "1..2..3"])
# malformed windows, and one with the twisted-A suffix
ODD_WINDOWS = st.sampled_from(["[1,1]", "[]", "[a]", "[0,1]", "[9,1]", "1,2,,", "[2,1]*d"])


def rarely(draw):
    return draw(st.integers(0, 19)) == 0


def pick(draw, valid, invalid):
    return draw(st.sampled_from(invalid if rarely(draw) else valid))


@st.composite
def rank_texts(draw):
    # mostly a rank every family has, so that most lines run a verb
    kind = draw(st.integers(0, 9))
    if kind < 6:
        return str(draw(st.integers(2, 5)))
    if kind == 6:
        return str(draw(SMALL_RANKS))
    if kind == 7:
        return str(draw(HUGE_RANKS))
    if kind == 8:
        return draw(MALFORMED_RANKS)
    hi = draw(st.one_of(SMALL_RANKS, HUGE_RANKS))
    return f"{draw(SMALL_RANKS)}..{hi}"


@st.composite
def windows(draw, rank):
    # a signed permutation of the drawn rank, or an odd window
    if not rank.isdigit() or int(rank) > 6 or draw(st.integers(0, 4)) == 0:
        return draw(ODD_WINDOWS)
    perm = draw(st.permutations(range(1, int(rank) + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(perm), max_size=len(perm)))
    return "[" + ",".join(str(s * v) for s, v in zip(signs, perm)) + "]"


# hasse is drawn three times as often as each other verb, and nearly always
# with --side: its weyl and both sides read the Weyl relation, and enough
# of those lines must run to the end for a wrong exit code there to show
VERBS = ("classes", "unipotent", "map", "hasse", "hasse", "hasse", "verify", "bruhat")


@st.composite
def command_lines(draw):
    verb = "frob" if rarely(draw) else draw(st.sampled_from(VERBS))
    taken = VERB_FLAGS.get(verb, ())
    argv = [verb]
    rank = draw(rank_texts())
    # one of --family and --group, which the verbs need, and --rank
    selector = draw(st.sampled_from(["--family", "--group"] if "--group" in taken else ["--family"]))
    for flag in ("--family", "--group", "--rank", "--component", "--char", "--format", "--side", "--out"):
        if flag in (selector, "--rank") or (verb, flag) == ("hasse", "--side"):
            drawn = not rarely(draw)
        else:
            drawn = draw(st.booleans()) if flag in taken else rarely(draw)
        if not drawn:
            continue
        if flag == "--rank":
            value = rank
        elif flag == "--format" and verb != "hasse":
            value = pick(draw, ("text", "json"), ("dot", "xml"))
        else:
            value = pick(draw, *FLAG_VALUES[flag])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if verb == "bruhat" and draw(st.integers(0, 9)) > 0:
        argv += [draw(windows(rank)), draw(windows(rank))]
    elif draw(st.integers(0, 9)) == 0:
        argv += draw(st.lists(windows(rank), max_size=3))
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=command_lines())
def test_every_command_line_keeps_the_exit_code_contract(tmp_path_factory, argv):
    # 0 ok, 1 a counterexample, 2 a usage or input error: no other code,
    # no traceback, and a refusal prints nothing but one error line
    argv = [a.replace("TMP", str(tmp_path_factory.getbasetemp())) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
            parsed = True
        except SystemExit as exc:  # argparse refuses before main returns
            code, parsed = exc.code, False
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
        lines = err.splitlines()
        assert sum("error:" in line for line in lines) == 1, (argv, err)
        # a refusal quotes no Python value: no repr of a value type and no
        # integer tuple such as (1, 1) or (2,)
        assert "GroupContext(" not in err and "UnipotentLabel(" not in err, (argv, err)
        assert not re.search(r"\(-?\d+,( -?\d+,)*( -?\d+)?\)", err), (argv, err)
        if parsed:
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
            # a refusal names only flags the verb takes
            assert set(re.findall(r"--[a-z]+", err)) <= set(VERB_FLAGS[argv[0]]), (argv, err)
    else:
        assert err == "", (argv, err)
    if not parsed:
        return
    args = cli._build_parser().parse_args(argv)
    if args.family and getattr(args, "group", None):
        # --family and --group naming two families is refused by name
        family = cli.FAMILY_ALIAS.get(args.family, args.family)
        if GROUP_FAMILY[cli.GROUP_FLAG[args.group]] != family:
            assert code == 2 and "--family" in err and "--group" in err, (argv, err)
    if code == 1:
        # only a check that compares two answers finds a counterexample
        assert args.verb in ("verify", "bruhat") or (args.verb == "hasse" and args.side == "both"), argv
