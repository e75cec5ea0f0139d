"""Run one weylunip command with the tracer installed.

    python perfbench/clirunner.py SUMMARY SPANS RUN_ID VERB [ARGS...]

The traced form of ``python -m weylunip VERB ARGS...`` for the
cli_tables workload: it installs the wrappers, calls cli.main, writes
the per-layer summary to SUMMARY and appends the spans to SPANS (``-``
for none), and exits with cli.main's code.
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    summary_path, spans_path, run_id, *argv = sys.argv[1:]
    tracer = Tracer(run_id)
    install(tracer)
    from weylunip import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        if spans_path != "-":
            with open(spans_path, "a", encoding="utf-8") as fh:
                tracer.write(fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
