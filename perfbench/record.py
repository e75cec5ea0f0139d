"""Record the expected outputs in perfbench/expected.json.

    PYTHONPATH=src python3 perfbench/record.py

Run from the root of a checkout whose outputs are known to be right;
the file in the repository was recorded at commit 05587e6.  It holds
the verify pair counts per case, the cover count and digest per
unipotent case, the exit code and stdout digest per CLI command, and the
bruhat_pairs answers (descent recursion * 2 + count criterion, one digit
per pair) for seeds 0 .. BRUHAT_SEEDS - 1.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import worker  # noqa: E402

BRUHAT_SEEDS = 128


def main() -> int:
    env = dict(os.environ)
    table: dict = {}
    for workload, op in (("verify_sweep", worker.op_verify),
                         ("unipotent_order", worker.op_unipotent)):
        table[workload] = {worker.case_key(c): op(c, env)[0]
                           for c in inputs.fixed_cases(workload)}
    table["cli_tables"] = {
        worker.case_key(argv): worker.op_cli((argv, None, None, ""), env)[0]
        for argv in inputs.fixed_cases("cli_tables")
    }
    table["bruhat_pairs"] = {
        str(seed): "".join(str(worker.op_bruhat(c, env)[0])
                           for c in inputs.bruhat_pairs(seed))
        for seed in range(BRUHAT_SEEDS)
    }
    with open(worker.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f" {json.dumps(workload)}: {{\n" + ",\n".join(
                f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in rows.items()
            ) + "\n }"
            for workload, rows in table.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
