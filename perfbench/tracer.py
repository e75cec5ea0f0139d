"""Spans around calls into weylunip's public functions.

The tracer wraps each function named in LAYERS and rebinds the wrapper
under every name that holds the original in any loaded weylunip module.
Calls that resolve through module globals (``class_label`` and ``length``
from ``_class_table``, ``phi`` from ``verify_theorem``) and names imported
elsewhere (``lusztig`` and ``cli`` import ``class_leq_W``, ``phi`` and
``unipotent_leq``; the package re-exports most of them) all reach it.

A span is (span id, parent span id, name, start, end); spans stay in
memory until the caller writes them.  A span's self time is its
duration minus the durations of its direct children, which run one after
another inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = {
    "partitions": ("dominance_leq", "transpose", "add_psi", "family_members"),
    "weylgroup": (
        "length",
        "class_label",
        "enumerate_class",
        "class_lengths",
        "class_rep",
        "descent_walk",
        "bruhat_leq_walk",
        "bruhat_leq_generic",
        "bruhat_leq_counts",
        "count_matrix",
    ),
    "classposet": ("elliptic_classes", "class_leq_W", "hasse"),
    "unipotent": ("enumerate_unipotent", "unipotent_leq", "good_leq", "bad_leq"),
    "lusztig": ("phi", "verify_theorem"),
    "cli": ("main", "run_verify", "run_classes", "run_hasse"),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# functions whose True results are counted for a hit ratio
HIT_NAMES = ("weylgroup.bruhat_leq_walk", "classposet.class_leq_W", "unipotent.bad_leq")


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self, hit)
        self._stack: list[list] = []  # [span id, time spent in children]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            hit = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                hit = result is True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[sid] = (sid, parent, name, start, end, duration - frame[1], hit)

        return traced

    def summary(self) -> dict:
        """Per name: calls, summed self time, True results; and the number
        of Bruhat walks issued directly by class comparisons."""
        out = {name: {"calls": 0, "self_s": 0.0, "hits": 0} for name in NAMES}
        leq = out["classposet.class_leq_W"]
        leq["walks"] = 0
        for _, parent, name, _, _, self_s, hit in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            row["hits"] += hit
            if (name == "weylgroup.bruhat_leq_walk" and parent >= 0
                    and self.spans[parent][2] == "classposet.class_leq_W"):
                leq["walks"] += 1
        return out

    def write(self, fh) -> None:
        """One header line, then one JSON array per span."""
        fh.write(json.dumps({"run_id": self.run_id,
                             "fields": ["span", "parent", "name", "start", "end"]}) + "\n")
        for sid, parent, name, start, end, *_ in self.spans:
            fh.write(json.dumps([sid, parent, name, start, end]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS wherever a weylunip module binds it."""
    for mod in LAYERS:
        importlib.import_module(f"weylunip.{mod}")
    modules = [m for name, m in sys.modules.items()
               if name == "weylunip" or name.startswith("weylunip.")]
    for mod, fns in LAYERS.items():
        module = sys.modules[f"weylunip.{mod}"]
        for fn in fns:
            original = getattr(module, fn)
            wrapped = tracer.wrap(f"{mod}.{fn}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)


def merge(summaries: list[dict]) -> dict:
    """Sum summaries of several traced processes."""
    out = Tracer("").summary()
    for s in summaries:
        for name, row in s.items():
            for key, value in row.items():
                out[name][key] += value
    return out
