"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer("toy", clock)

    def leaf():
        clock.now += 2.0
        return True

    def outer():
        clock.now += 1.0
        wleaf()
        clock.now += 3.0
        wleaf()
        return False

    wleaf = tracer.wrap("weylgroup.bruhat_leq_walk", leaf)
    wouter = tracer.wrap("classposet.class_leq_W", outer)
    wouter()
    summary = tracer.summary()
    assert summary["classposet.class_leq_W"] == {"calls": 1, "self_s": 4.0, "hits": 0, "walks": 2}
    assert summary["weylgroup.bruhat_leq_walk"] == {"calls": 2, "self_s": 4.0, "hits": 2}
    outer_span = tracer.spans[0]
    assert outer_span[1] == -1 and (outer_span[3], outer_span[4]) == (0.0, 8.0)
    assert [s[1] for s in tracer.spans[1:]] == [0, 0]


def test_tracer_records_a_span_when_the_call_raises():
    tracer = Tracer("toy", FakeClock())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("cli.main", boom)()
    assert tracer.summary()["cli.main"]["calls"] == 1


def test_tracer_reaches_every_binding_of_a_wrapped_name(tmp_path):
    summary = tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "clirunner.py"), str(summary), "-", "t",
         "verify", "--family", "BC", "--rank", "2"],
        env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(summary.read_text())
    # verify BC 2: four (group, char) runs over the 2 x 2 ordered class pairs;
    # lusztig calls class_leq_W and phi through names it imported
    assert layers["classposet.class_leq_W"]["calls"] == 16
    assert layers["lusztig.phi"]["calls"] == 8
    assert layers["cli.run_verify"]["calls"] == 1
    assert layers["weylgroup.class_label"]["calls"] == 8  # |BC(2)|, swept once
    assert layers["classposet.class_leq_W"]["walks"] == layers["weylgroup.bruhat_leq_walk"]["calls"]


def test_generators_are_deterministic_in_the_seed():
    assert inputs.bruhat_pairs(3) == inputs.bruhat_pairs(3)
    assert [p[2:4] for p in inputs.bruhat_pairs(3)] != [p[2:4] for p in inputs.bruhat_pairs(4)]


def test_generated_pairs_have_the_promised_shape():
    pairs = inputs.bruhat_pairs(0)
    assert len(pairs) == inputs.op_count("bruhat_pairs")
    for family, n, x, y, related in pairs:
        for w in (x, y):
            assert sorted(map(abs, w)) == list(range(1, n + 1))
            if family == "A":
                assert min(w) > 0
            if family == "D":
                assert sum(v < 0 for v in w) % 2 == 0
    assert sum(p[4] for p in pairs) == len(pairs) // 2


def test_reduced_word_multiplies_back():
    import random

    rng = random.Random(0)
    for family in ("A", "BC", "D"):
        for _ in range(20):
            y = inputs.random_element(rng, family, 6)
            word = inputs.reduced_word(family, y)
            assert inputs.word_product(family, 6, word) == y
            assert len(word) == inputs.coxeter_length(family, y)


def test_subword_pairs_compare_below():
    from weylunip import weylgroup as wg

    for family, n, x, y, related in inputs.bruhat_pairs(5):
        if related:
            ctx = wg.context(family, n)
            assert wg.length(ctx, x) < wg.length(ctx, y)
            assert wg.bruhat_leq_generic(ctx, x, y)


def test_a_corrupted_output_is_counted_as_failed(monkeypatch):
    from weylunip import cli

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(inputs, "VERIFY_CASES", [("BC", 2), ("BC", 3)])
    expected = worker.load_expected()
    report = worker.run_round("verify_sweep", 0, 0.0, expected)
    assert (report["attempted"], report["failed"]) == (2, 0)

    real_main = cli.main

    def corrupted(argv):
        code = real_main(argv)
        if argv[-1] == "3":
            print("OK group=Sp family=BC n=3 char=good pairs=8 failures=0")
        return code

    monkeypatch.setattr(cli, "main", corrupted)
    report = worker.run_round("verify_sweep", 0, 0.0, expected)
    assert (report["attempted"], report["failed"]) == (2, 1)
    assert "BC 3" in report["problems"][0]


def test_answers_that_differ_between_rounds_are_failures():
    rounds = [{"answers": "0123"}, {"answers": "0123"}, {"answers": "0103"}]
    assert run.answer_mismatches(rounds) == 1


def test_run_refuses_a_directory_without_the_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "bruhat_pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
