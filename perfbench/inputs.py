"""Workload inputs, built from the seed without importing weylunip.

Three workloads run fixed operation lists in a fixed order, whatever the
seed.  bruhat_pairs draws its element pairs from the seed.  The generators
here carry their own signed-permutation arithmetic, so a pair built as
related is related whatever the program under test computes.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify_sweep", "unipotent_order", "bruhat_pairs", "cli_tables")

# The ROADMAP baseline cases are BC 2..7, D 2..7 and 2A 2..9.  One round of
# those takes about 15 s here, so the top rank of each family is dropped:
# a round then takes about 1.5 s and a run holds a dozen fresh-process
# rounds, which is what makes its medians steady.
VERIFY_CASES = (
    [("BC", r) for r in range(2, 7)]
    + [("D", r) for r in range(2, 7)]
    + [("2A", r) for r in range(2, 9)]
)

# (group, rank, char, SO component or None).  Rank 10 (GLd 20) takes
# about 8 s per pass over the list; ranks 7 and 8 (GLd 14..16) take about
# 1.5 s and give enough operations per run for a tail percentile.  The
# operation counts of the fixed lists are odd, so that the median latency
# falls inside one operation's block of samples, not in the gap between
# two operations of different cost.
UNIPOTENT_CASES = [
    (group, n, char, component)
    for n in (7, 8)
    for group, char, component in (
        ("Sp", "good", None),
        ("Sp", "2", None),
        ("O_odd", "good", None),
        ("O_odd", "2", None),
        ("O_even", "good", "SO"),
        ("O_even", "2", "SO"),
        ("O_even", "2", "O\\SO"),
    )
] + [("GLd", n, "2", None) for n in (14, 15, 16)]


def _cli_cases(family: str, rank: int, group: str) -> list[list[str]]:
    f = ["--family", family, "--rank", str(rank)]
    g = ["--group", group, "--rank", str(rank)]
    return [
        ["classes", *f],
        ["classes", *f, "--format", "json"],
        ["map", *f],
        ["map", *f, "--format", "json"],
        ["unipotent", *g],
        ["unipotent", *g, "--char", "2", "--format", "json"],
        ["hasse", *f, "--side", "weyl"],
        ["hasse", *f, "--side", "unipotent", "--format", "json"],
        ["hasse", *f, "--side", "both", "--format", "dot"],
        ["hasse", *f, "--side", "both", "--char", "2"],
        ["hasse", *f, "--side", "unipotent", "--char", "2", "--format", "dot"],
    ]


# Every operation is a fresh interpreter, which costs about 0.1 s before
# any work; at BC 7, D 7 and 2A 9 a single `classes` call takes 9 s, so a
# run would hold too few operations for a tail.  At these ranks a pass
# over the 35 commands takes about 6 s.
CLI_CASES = (
    _cli_cases("BC", 5, "Sp")
    + _cli_cases("D", 5, "SOeven")
    + [
        ["map", "--family", "D", "--rank", "5", "--component", "twisted"],
        ["hasse", "--family", "D", "--rank", "5", "--component", "twisted", "--side", "both"],
    ]
    + _cli_cases("2A", 7, "GLd")
)

BRUHAT_RANK = {"A": 12, "BC": 12, "D": 12}
BRUHAT_PAIRS_PER_FAMILY = 100


def fixed_cases(workload: str) -> list:
    return list({
        "verify_sweep": VERIFY_CASES,
        "unipotent_order": UNIPOTENT_CASES,
        "cli_tables": CLI_CASES,
    }[workload])


# ---------------------------------------------------------------------------
# signed permutations, independently of weylunip.weylgroup
#
# Windows w = (w(1), ..., w(n)); right multiplication by a simple
# reflection acts on positions.  The simple reflections are the standard
# ones: type A swaps positions i, i+1; type B's s_1 negates position 1
# and s_i (i >= 2) swaps i-1, i; type D's s_1 swaps positions 1, 2, its
# s_2 swaps them with both signs changed, and s_i (i >= 3) swaps i-1, i.


def right_mult(family: str, w: tuple[int, ...], i: int) -> tuple[int, ...]:
    v = list(w)
    if family == "A":
        v[i - 1], v[i] = v[i], v[i - 1]
    elif family == "BC" and i == 1:
        v[0] = -v[0]
    elif family == "D" and i == 1:
        v[0], v[1] = v[1], v[0]
    elif family == "D" and i == 2:
        v[0], v[1] = -v[1], -v[0]
    else:
        v[i - 2], v[i - 1] = v[i - 1], v[i - 2]
    return tuple(v)


def is_right_descent(family: str, w: tuple[int, ...], i: int) -> bool:
    if family == "A":
        return w[i - 1] > w[i]
    if i == 1:
        return w[0] < 0 if family == "BC" else w[0] > w[1]
    if family == "D" and i == 2:
        return -w[1] > w[0]
    return w[i - 2] > w[i - 1]


def coxeter_length(family: str, w: tuple[int, ...]) -> int:
    """inv(w) for A; inv + neg + nsp for B; inv + nsp for D, where nsp
    counts pairs i < j with w(i) + w(j) < 0."""
    n = len(w)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    if family == "A":
        return inv
    nsp = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] + w[j] < 0)
    neg = sum(1 for v in w if v < 0)
    return inv + nsp + (neg if family == "BC" else 0)


def reduced_word(family: str, w: tuple[int, ...]) -> list[int]:
    """A reduced word i_1 ... i_k with w = s_{i_1} ... s_{i_k}, found by
    stripping right descents; checked against the length formula."""
    top = len(w) - 1 if family == "A" else len(w)
    stripped: list[int] = []
    while True:
        i = next((i for i in range(1, top + 1) if is_right_descent(family, w, i)), 0)
        if not i:
            break
        stripped.append(i)
        w = right_mult(family, w, i)
    if any(w[k] != k + 1 for k in range(len(w))):
        raise RuntimeError(f"descent stripping ended at {w}, not the identity")
    return stripped[::-1]


def word_product(family: str, n: int, word: list[int]) -> tuple[int, ...]:
    w = tuple(range(1, n + 1))
    for i in word:
        w = right_mult(family, w, i)
    return w


def random_element(rng: random.Random, family: str, n: int) -> tuple[int, ...]:
    """Uniform over the group: a shuffle, and for B and D sign choices,
    with D keeping an even number of signs."""
    w = list(range(1, n + 1))
    rng.shuffle(w)
    if family == "A":
        return tuple(w)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    if family == "D" and signs.count(-1) % 2:
        signs[-1] = -signs[-1]
    return tuple(s * v for s, v in zip(signs, w))


def bruhat_pairs(seed: int) -> list[tuple[str, int, tuple, tuple, bool]]:
    """(family, n, x, y, related) for A, BC and D.  Half of each family's
    pairs are related: x is the product of a subword of a reduced word of
    a random y, so x <= y by the subword property.  The other half are
    independent draws."""
    rng = random.Random(f"bruhat_pairs:{seed}")
    out = []
    for family, n in BRUHAT_RANK.items():
        for k in range(BRUHAT_PAIRS_PER_FAMILY):
            y = random_element(rng, family, n)
            if k % 2:
                out.append((family, n, random_element(rng, family, n), y, False))
                continue
            word = reduced_word(family, y)
            if len(word) != coxeter_length(family, y):
                raise RuntimeError(f"word of {y} has length {len(word)}, not reduced")
            p = rng.uniform(0.05, 0.5)
            drop = {rng.randrange(len(word))} if word else set()
            kept = [s for j, s in enumerate(word) if j not in drop and rng.random() >= p]
            out.append((family, n, word_product(family, n, kept), y, True))
    rng.shuffle(out)
    return out


def op_count(workload: str) -> int:
    """Operations in one round of the workload."""
    if workload == "bruhat_pairs":
        return len(BRUHAT_RANK) * BRUHAT_PAIRS_PER_FAMILY
    return len(fixed_cases(workload))
