"""Regenerate perfbench/table.json: the stdout digest of every pool argv.

    python3 perfbench/make_table.py

Each argv runs once in-process and must exit 0; its digest is the first 64
bits of the SHA-256 of its stdout.  The table pins the program's output at
the commit that generated it, so regenerate it only in a change that is
meant to alter CLI output, or after adding inputs to a pool.
"""

from __future__ import annotations

import json
import sys

from harness import TABLE, argv_key, digest, import_cli, run_job
from workloads import WORKLOADS, pool


def main() -> int:
    cli = import_cli()
    table: dict[str, str] = {}
    for workload in WORKLOADS:
        for argv in pool(workload):
            rc, out, err = run_job(cli, argv)
            if rc != 0:
                print(f"{argv_key(argv)}: exit {rc}\n{err}", file=sys.stderr)
                return 1
            table[argv_key(argv)] = digest(out)
    TABLE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{len(table)} digests written to {TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
