"""One round of a workload in a fresh interpreter.

    python perfbench/worker.py --workload W --seed S --launched T
                               [--trace] [--spans-out FILE]

run.py starts this with ``src`` on PYTHONPATH and ``--launched`` set to
its time.perf_counter() just before the start; on Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so set-up time spans the
interpreter start.  Every round is a fresh process because
weylgroup._class_table is an lru_cache that lives as long as the
process: a second pass in the same process would find every class table
built.  The round prints one JSON line: set-up time, wall time, each
operation's latency, peak RSS, operations attempted and failed, and with
--trace the per-layer summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
SCRATCH = ".perfbench"  # run-time files, relative to the checkout root
CLI_TIMEOUT_S = 150

import inputs  # noqa: E402  (HERE is sys.path[0] when run as a script)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def case_key(case) -> str:
    """The expected.json key of a fixed operation."""
    return " ".join("-" if v is None else str(v) for v in case)


# ---------------------------------------------------------------------------
# operations: each returns (observation, problem); observation is what
# expected.json records, problem is a failed check that needs no record


_REPORT = re.compile(r"^OK group=\S+ family=\S+ n=\d+ char=\S+( component=\S+)? "
                     r"pairs=(\d+) failures=0$")


def op_verify(case, env):
    from weylunip import cli

    family, rank = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--family", family, "--rank", str(rank)])
    lines = out.getvalue().splitlines()
    if code != 0:
        return None, f"exit code {code}"
    if not lines or lines[-1] != "all checks passed":
        return None, "missing 'all checks passed'"
    pairs = []
    for line in lines[:-1]:
        m = _REPORT.match(line)
        if not m:
            return None, f"unexpected report line {line!r}"
        pairs.append(int(m.group(2)))
    return pairs, None


def op_unipotent(case, env):
    from weylunip import classposet, unipotent

    group, n, char, component = case
    labels = [
        u for u in unipotent.enumerate_unipotent(group, n, char)
        # split twins _I/_II compare both ways, and O(2n) characteristic-2
        # labels of different SO components are incomparable by refusal
        if u.split != "II" and u.so_component == component
    ]
    diagram = classposet.hasse(labels, unipotent.unipotent_leq)
    fmt = unipotent.format_unipotent
    text = "\n".join(f"{fmt(diagram.nodes[i])} < {fmt(diagram.nodes[j])}"
                     for i, j in diagram.covers)
    return [len(diagram.covers), hashlib.sha256(text.encode()).hexdigest()], None


def op_bruhat(case, env):
    from weylunip import weylgroup as wg

    family, n, x, y, related = case
    ctx = wg.context(family, n)
    generic = wg.bruhat_leq_generic(ctx, x, y)
    if family == "D":
        cx, cy = wg.count_matrix(ctx, x).rows, wg.count_matrix(ctx, y).rows
        counts = all(a <= b for ra, rb in zip(cx, cy) for a, b in zip(ra, rb))
    else:
        counts = wg.bruhat_leq_counts(ctx, x, y)
    answer = 2 * generic + counts
    if related and not generic:
        return answer, "subword pair not <= by the descent recursion"
    if family != "D" and counts != generic:
        return answer, "count criterion disagrees with the descent recursion"
    if generic and not counts:
        return answer, "count criterion violates necessity"
    return answer, None


def op_cli(case, env):
    argv, summary_path, spans_path, run_id = case
    if summary_path is None:
        cmd = [sys.executable, "-m", "weylunip", *argv]
    else:
        cmd = [sys.executable, str(HERE / "clirunner.py"),
               summary_path, spans_path or "-", run_id, *argv]
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
    obs = [proc.returncode, hashlib.sha256(proc.stdout).hexdigest()]
    if proc.returncode not in (0, 1):
        return obs, f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"
    return obs, None


OPS = {
    "verify_sweep": op_verify,
    "unipotent_order": op_unipotent,
    "bruhat_pairs": op_bruhat,
    "cli_tables": op_cli,
}


# Speed probes.  Here a fixed pure-Python job runs up to 1.5 times slower
# for tens of seconds at a time, with CPU time equal to wall time: the
# slowdown is contention for the physical core, not scheduling, and it
# moves interpreter-bound timings in step.  A round therefore times a
# fixed probe job before its first operation, between operations at least
# every PROBE_EVERY_S, and after the last, and scales each time it measured
# by PROBE_NOMINAL_S / (the median of the probes around it).  Reported
# times are seconds at the speed at which the probe takes PROBE_NOMINAL_S,
# which is about its median time on the 2-core Xeon VM the benchmark was
# built on.
PROBE_NOMINAL_S = 0.022
PROBE_EVERY_S = 0.25


def probe_job() -> int:
    """Interpreter-bound work on a few small objects, so that the probe
    leaves the round's peak RSS alone."""
    acc = 0
    counts: dict = {}
    for i in range(80000):
        t = (i & 63, i % 7)
        counts[t[0]] = counts.get(t[0], 0) + t[1]
        acc += t[0] if t[1] > 3 else len(t)
    return acc + len(counts)


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.last = 0.0

    def probe(self) -> float:
        """Run the probe job; returns the time it started."""
        start = time.perf_counter()
        probe_job()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)
        return start

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_EVERY_S

    def scale(self, i: int) -> float:
        """Factor for a time measured between probes i and i + 1: the
        median of the two probes on each side, as one probe can be an
        outlier."""
        return PROBE_NOMINAL_S / statistics.median(self.samples[max(i - 1, 0):i + 3])


def run_round(workload: str, seed: int, launched: float, expected: dict,
              trace: bool = False, spans_out: str | None = None) -> dict:
    """Import weylunip, build the inputs, run every operation once and
    check it.  Times come from time.perf_counter(), scaled by the speed
    probes; wall_s is the sum of the operation times, from issuing each
    operation to checking its result, and leaves out the probes."""
    import weylunip

    root = Path.cwd()
    if Path(weylunip.__file__).resolve().parent != (root / "src" / "weylunip").resolve():
        raise RuntimeError(f"imported weylunip from {weylunip.__file__}, not {root}/src")
    run_id = f"{workload}:{seed}:{os.getpid()}"
    if workload == "bruhat_pairs":
        cases = inputs.bruhat_pairs(seed)
        keys = [None] * len(cases)
        want_answers = expected["bruhat_pairs"].get(str(seed))
    else:
        cases = inputs.fixed_cases(workload)
        keys = [case_key(c) for c in cases]
        want_answers = None
    env = dict(os.environ)
    if workload == "cli_tables":
        if spans_out:
            open(spans_out, "w").close()
        summary_path = os.path.join(SCRATCH, "cli-summary.json") if trace else None
        cases = [(argv, summary_path, spans_out, f"{run_id}:{k}")
                 for k, argv in enumerate(cases)]
    tracer = None
    if trace and workload != "cli_tables":
        from tracer import Tracer, install

        tracer = Tracer(run_id)
        install(tracer)
    op = OPS[workload]
    table = expected.get(workload, {})
    latencies, problems, answers, summaries, probe_index = [], [], [], [], []

    speed = SpeedProbe()
    setup = speed.probe() - launched
    for k, (case, key) in enumerate(zip(cases, keys)):
        if speed.due():
            speed.probe()
        probe_index.append(len(speed.samples) - 1)
        t0 = time.perf_counter()
        try:
            obs, problem = op(case, env)
        except Exception as exc:  # an operation that raises counts as failed
            obs, problem = None, f"{type(exc).__name__}: {exc}"
        if problem is None and key is not None and obs != table.get(key):
            problem = f"output {obs!r} differs from the recorded {table.get(key)!r}"
        if workload == "bruhat_pairs":
            answers.append(obs)
            if problem is None and want_answers is not None and str(obs) != want_answers[k]:
                problem = f"answer {obs} differs from the recorded {want_answers[k]}"
        latencies.append(time.perf_counter() - t0)
        if problem is None and workload == "cli_tables" and trace:
            with open(case[1], encoding="utf-8") as fh:
                summaries.append(json.load(fh))
        if problem is not None:
            problems.append(f"{key or case[:2]}: {problem}")
    speed.probe()
    op_s = [t * speed.scale(i) for t, i in zip(latencies, probe_index)]
    slowdown = statistics.median(speed.samples) / PROBE_NOMINAL_S

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "setup_s": setup / slowdown,
        "wall_s": sum(op_s),
        "op_s": op_s,
        "raw_setup_s": setup,
        "raw_wall_s": sum(latencies),
        "slowdown": slowdown,
        "peak_rss_kb": max(self_rss, child_rss),
        "attempted": len(cases),
        "failed": len(problems),
        "problems": problems[:5],
    }
    if workload == "bruhat_pairs":
        report["answers"] = "".join("x" if a is None else str(a) for a in answers)
    if trace:
        from tracer import merge

        if tracer is not None:
            summaries = [tracer.summary()]
            if spans_out:
                with open(spans_out, "w", encoding="utf-8") as fh:
                    tracer.write(fh)
        layers = merge(summaries)
        for row in layers.values():
            row["self_s"] /= slowdown
        report["layers"] = layers
    return report


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out")
    args = p.parse_args()
    report = run_round(args.workload, args.seed, args.launched, load_expected(),
                       args.trace, args.spans_out)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
