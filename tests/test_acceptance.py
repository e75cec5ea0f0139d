"""Acceptance gate: one test per headline claim.

Each test prints a single PASS line (visible with ``pytest -v -s`` or in
the captured output); a failure anywhere means the corresponding claim
does not hold for this build.  Everything here is either an exact string
comparison against frozen tables or an exhaustive check at small rank.
"""

import math

from weylunip import cli
from weylunip import weylgroup as wg
from weylunip.classposet import elliptic_classes
from weylunip.partitions import add_psi, dominance_leq, partitions, psi
from weylunip.unipotent import bad_label, bad_leq, enumerate_unipotent

from oracle import (
    class_leq_W_all_variants,
    count_entry,
    theta2_column_recipe,
    theta2_columns,
)


def test_criterion_01_map_tables():
    assert cli.run_map("Sp", 2) == (
        "class\tgood\tchar2\n"
        "[2]\t[4]\t([4],*)\n"
        "[1,1]\t[2,2]\t([2,2],ε(2)=1)\n"
    )
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
    # the reference table for SO(12) lists five of the six elliptic
    # classes; those five rows must appear verbatim and in order
    expected = [
        "class\tgood\tchar2",
        "[5,1]\t[11,1]\t([10,2],*)",
        "[4,2]\t[9,3]\t([8,4],*)",
        "[3,3]\t[7,5]\t([6,6],ε(6)=1)",
        "[2,2,1,1]\t[5,3,3,1]\t([4,4,2,2],ε(4)=ε(2)=1)",
        "[1,1,1,1,1,1]\t[3,2,2,2,2,1]\t([2,2,2,2,2,2],ε(2)=1)",
    ]
    got = cli.run_map("O_even", 6).splitlines()
    it = iter(got)
    assert all(row in it for row in expected), (expected, got)
    assert len(got) == len(expected) + 1  # one extra elliptic class, [3,1,1,1]
    print("PASS criterion 1: map tables match for Sp(4), SO(4), SO(6), SO(8), SO(12)")


def test_criterion_02_label_counts():
    assert len(enumerate_unipotent("Sp", 2, "2")) == 5
    assert len(enumerate_unipotent("Sp", 2, "good")) == 4
    assert len(enumerate_unipotent("O_even", 4, "good")) == 12
    char2 = [
        u for u in enumerate_unipotent("O_even", 4, "2") if u.so_component == "SO"
    ]
    assert len(char2) == 12
    print("PASS criterion 2: Sp(4) has 5/4 labels, SO(8) has 12 per characteristic")


def test_criterion_03_transfer_example_and_recipe():
    alpha = (6, 6, 4, 2)
    assert theta2_columns(alpha) == (4, 3, 3, 3, 3, 1, 1)
    assert add_psi(alpha) == (7, 5, 5, 1)
    assert theta2_column_recipe(alpha) == add_psi(alpha)
    for m in range(1, 13):
        for a in partitions(m):
            ev = tuple(2 * p for p in a)
            assert theta2_column_recipe(ev) == add_psi(ev)
    print("PASS criterion 3: column recipe == add_psi, worked example and all 2n <= 24")


def test_criterion_04_psi_properties():
    checked = 0
    for n in range(1, 41):
        for a in partitions(n):
            v = psi(a)
            ell = len(a)
            assert v[0] == 1
            if ell % 2 == 0:
                assert v[-1] == -1
            s = 0
            for k in range(1, ell + 1):
                s += v[k - 1]
                if k % 2 == 1:
                    assert s == 1
                else:
                    assert s == 1 + v[k - 1]
            assert s == ell % 2
            checked += 1
    assert checked > 200000
    print(f"PASS criterion 4: psi properties hold for {checked} partitions, totals <= 40")


def test_criterion_05_bruhat_criteria():
    ctx = wg.context("BC", 3)
    elems = list(wg.enumerate_group(ctx))
    assert len(elems) == 48
    for x in elems:
        for y in elems:
            assert wg.bruhat_leq_counts(ctx, x, y) == wg.bruhat_leq_generic(ctx, x, y)
    ctx = wg.context("A", 4)
    elems = list(wg.enumerate_group(ctx))
    assert len(elems) == 24
    for x in elems:
        for y in elems:
            assert wg.bruhat_leq_counts(ctx, x, y) == wg.bruhat_leq_generic(ctx, x, y)
    # even-signed groups: the count comparison is necessary (never
    # sufficient), and the order embeds into the full signed group
    ctx_d = wg.context("D", 3)
    ctx_b = wg.context("BC", 3)
    elems = list(wg.enumerate_group(ctx_d))
    assert len(elems) == 24
    comparable = 0
    for x in elems:
        mx = wg.count_matrix(ctx_d, x)
        for y in elems:
            if not wg.bruhat_leq_generic(ctx_d, x, y):
                continue
            comparable += 1
            my = wg.count_matrix(ctx_d, y)
            assert all(a <= b for rx, ry in zip(mx.rows, my.rows) for a, b in zip(rx, ry))
            assert wg.bruhat_leq_generic(ctx_b, x, y)
    assert comparable > len(elems)
    print("PASS criterion 5: count criterion == recursion on B3 and A3; necessity and B-embedding on D3")


def test_criterion_06_representatives_minimal():
    cases = [("BC", n, None) for n in range(1, 7)]
    cases += [("D", n, comp) for n in range(2, 6) for comp in ("id", "twisted")]
    cases += [("2A", n, None) for n in range(2, 7)]
    checked = 0
    for family, n, comp in cases:
        ctx = wg.context(family, n, comp)
        for c in elliptic_classes(ctx):
            rep = wg.class_rep(ctx, c.partition)
            assert wg.class_label(ctx, rep) == c.partition
            lengths = wg.class_lengths(ctx, c.partition)
            assert wg.length(ctx, rep) == lengths[0]
            checked += 1
    print(f"PASS criterion 6: {checked} closed-form representatives are minimal (BC<=6, D<=5, 2A<=6)")


def _first_prefix_index(alpha, m):
    # least k >= 0 with alpha_1 + ... + alpha_k >= m
    s = 0
    for k, p in enumerate(alpha, start=1):
        if s >= m:
            return k - 1
        s += p
    assert s >= m
    return len(alpha)


def test_criterion_07_class_element_inequalities():
    for n in range(1, 6):
        ctx = wg.context("BC", n)
        for c in elliptic_classes(ctx):
            alpha = c.partition
            for w in wg.enumerate_class(ctx, alpha):
                for m in range(0, n + 1):
                    k = _first_prefix_index(alpha, m)
                    assert count_entry(w, n - m, n - m + 1) >= k
    for n in range(2, 7):
        ctx = wg.context("2A", n)
        d = wg.delta(ctx)
        for c in elliptic_classes(ctx):
            alpha = c.partition
            for w in wg.enumerate_class(ctx, alpha):
                u = wg.multiply(w, d)
                for m in range(1, n):
                    k = _first_prefix_index(alpha, m)
                    lhs = count_entry(
                        u, math.ceil(m / 2), n - m // 2 + 1
                    ) + count_entry(u, n - m // 2, math.ceil(m / 2) + 1)
                    assert lhs <= n - k
    print("PASS criterion 7: count inequalities hold for every class element (BC<=5, twisted A<=6)")


def test_criterion_08_order_condition_equivalence():
    cases = [("BC", n, None) for n in range(1, 5)]
    cases += [("D", n, comp) for n in range(2, 5) for comp in ("id", "twisted")]
    cases += [("2A", n, None) for n in range(2, 6)]
    pairs = 0
    for family, n, comp in cases:
        ctx = wg.context(family, n, comp)
        labels = elliptic_classes(ctx)
        for a in labels:
            for b in labels:
                rec = class_leq_W_all_variants(a, b)
                assert rec.all_agree(), (family, n, comp, a, b, rec)
                pairs += 1
    print(f"PASS criterion 8: all four order conditions agree on {pairs} class pairs")


def test_criterion_09_main_theorem_sweep():
    text, code = cli.run_verify(
        "BC", list(range(2, 7)), None, None, "text"
    )
    assert code == 0, text
    text_d, code = cli.run_verify(
        "D", list(range(2, 7)), None, None, "text"
    )
    assert code == 0, text_d
    text_a, code = cli.run_verify(
        "2A", list(range(2, 8)), None, None, "text"
    )
    assert code == 0, text_a
    runs = [
        l
        for out in (text, text_d, text_a)
        for l in out.strip().splitlines()
        if l.startswith("OK")
    ]
    # 4 combos x 5 ranks for BC, 3 x 5 for D, 1 x 6 for twisted A
    assert len(runs) == 20 + 15 + 6
    assert all(l.endswith("failures=0") for l in runs)
    print("PASS criterion 9: zero counterexamples, BC 2..6, D 2..6 (both components), twisted A 2..7")


def test_criterion_10_bad_order_sanity():
    for n in range(1, 7):
        labs = enumerate_unipotent("Sp", n, "2")
        leq = {(a, b): bad_leq(a, b) for a in labs for b in labs}
        for a in labs:
            assert leq[(a, a)]
            for b in labs:
                if leq[(a, b)] and leq[(b, a)]:
                    assert a == b
                for c in labs:
                    if leq[(a, b)] and leq[(b, c)]:
                        assert leq[(a, c)]
        partitions_seen = {u.partition for u in labs}
        for alpha in partitions_seen:
            with_alpha = [u for u in labs if u.partition == alpha]
            top = [u for u in with_alpha if all(bad_leq(v, u) for v in with_alpha)]
            assert len(top) == 1
            assert top[0] == bad_label("Sp", n, alpha)
    print("PASS criterion 10: bad_leq is a partial order with unique top epsilon, 2n <= 12")


def test_criterion_11_elliptic_image_embeds():
    for n in range(1, 11):
        for a in partitions(n):
            la = bad_label("Sp", n, tuple(2 * p for p in a))
            for b in partitions(n):
                lb = bad_label("Sp", n, tuple(2 * p for p in b))
                assert bad_leq(la, lb) == dominance_leq(a, b)
    print("PASS criterion 11: doubled max-epsilon labels order exactly like dominance, n <= 10")
