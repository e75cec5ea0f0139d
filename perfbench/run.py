"""The weylunip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: weylunip is imported from
``src``.  A run repeats rounds of the workload, each in a fresh
interpreter (see worker.py), until S seconds have passed and enough
operations have run for the tail percentile.  Every output is checked;
the run prints one line per metric and, last, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and exits 1 if any check failed (error_rate = failed / attempted).

--trace 0 reports the end-to-end metrics over untraced rounds.
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus trace.overhead_s, the
difference of their median wall times.  The spans of the first traced
round are written to .perfbench/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracer import HIT_NAMES, NAMES  # noqa: E402
from worker import SCRATCH  # noqa: E402

# op_tail_ms is this percentile of the operation latencies of a run; a run
# keeps going past --seconds until it has MIN_OPS operations, so at least
# ten samples lie beyond it.
TAIL_PERCENTILE = 90
MIN_OPS = 100
MIN_ROUNDS = 3
# no new round starts after this, so a run ends well inside 180 s
LAST_START_S = 120.0
ROUND_TIMEOUT_S = 170.0


def run_worker(root: Path, env: dict, workload: str, seed: int, traced: bool,
               spans_out: str | None, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans_out:
            cmd += ["--spans-out", spans_out]
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--launched", repr(launched)], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = b"", f"round exceeded {timeout:.0f} s".encode()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    ops = inputs.op_count(workload)
    return {"attempted": ops, "failed": ops,
            "problems": [f"round exited {proc.returncode}: {err.decode()[-500:]}"]}


def answer_mismatches(rounds: list[dict]) -> int:
    """bruhat_pairs: operations whose answer differs from the first round's."""
    answers = [r["answers"] for r in rounds if "answers" in r]
    return sum(a != b for other in answers[1:] for a, b in zip(answers[0], other))


def end_to_end(rounds: list[dict]) -> dict:
    ops = [t for r in rounds for t in r["op_s"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in rounds) / 1024, "MB"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (statistics.quantiles(ops, n=100)[TAIL_PERCENTILE - 1] * 1e3, "ms"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    def med(fn, median=statistics.median):
        return median(fn(r["layers"]) for r in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = (med(lambda s: s[name]["calls"], statistics.median_low),
                                "count")
        out[f"{name}.self_s"] = (med(lambda s: s[name]["self_s"]), "s")
    for name in HIT_NAMES:
        out[f"{name}.hit_ratio"] = (
            med(lambda s: ratio(s[name]["hits"], s[name]["calls"])), "ratio")
    leq = "classposet.class_leq_W"
    out[f"{leq}.walks_per_call"] = (
        med(lambda s: ratio(s[leq]["walks"], s[leq]["calls"])), "ratio")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (
        traced_wall - statistics.median(r["wall_s"] for r in plain), "s")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "weylunip" / "__init__.py").is_file():
        print(f"error: {root} holds no weylunip source (src/weylunip); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    (root / SCRATCH).mkdir(exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the run and every process it starts, so that a round's
        # speed probes time the core its operations and their children use
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [path for path in [env.get("PYTHONPATH")] if path])
    spans_out = os.path.join(SCRATCH, f"spans-{args.workload}.jsonl")

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(plain) > len(traced)
        elapsed = time.perf_counter() - start
        rep = run_worker(root, env, args.workload, args.seed, trace_this,
                         None if traced else spans_out, ROUND_TIMEOUT_S - elapsed)
        (traced if trace_this else plain).append(rep)
        if rep["failed"] and "op_s" not in rep:
            break
        elapsed = time.perf_counter() - start
        if args.trace:
            enough = len(traced) == len(plain)
        else:
            enough = (len(plain) >= MIN_ROUNDS
                      and sum(len(r["op_s"]) for r in plain) >= MIN_OPS)
        if elapsed >= LAST_START_S or (elapsed >= args.seconds and enough):
            break

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds) + answer_mismatches(rounds)
    for r in rounds:
        for problem in r["problems"]:
            print(f"FAILED {problem}", file=sys.stderr)
    complete = all("op_s" in r for r in rounds)
    metrics = {}
    if complete:
        metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    print(f"workload={args.workload} seed={args.seed} rounds={len(plain)}+{len(traced)} "
          f"traced, operations={sum(len(r.get('op_s', ())) for r in plain)} untraced, "
          f"error_rate={failed / attempted} ({failed}/{attempted})")
    if complete:
        print("unscaled medians: " + ", ".join(
            f"{key}={statistics.median(r[key] for r in plain)}"
            for key in ("raw_setup_s", "raw_wall_s", "slowdown")))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
