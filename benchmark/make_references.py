"""Record the exit code and stdout SHA-256 of every benchmark job.

Usage: python3 benchmark/make_references.py

Runs each job any workload seed can produce once, with the sources of this
checkout, and writes benchmark/references.json.  Run it only at a commit
whose CLI output is known good; benchmark/check_references.py cross-checks
the recorded outputs against independent routes in the library.
"""

from __future__ import annotations

import json
import sys

from jobs import REFERENCES, all_job_keys, cli_command, fingerprint, generate_fixtures, run_child
from run import JOB_TIMEOUT_S, machine


def main() -> int:
    generate_fixtures(JOB_TIMEOUT_S)
    refs = {}
    for key in all_job_keys():
        res = run_child(cli_command(key), JOB_TIMEOUT_S)
        if res.timed_out:
            print(f"timed out: {key}", file=sys.stderr)
            return 1
        refs[key] = fingerprint(res)
        print(f"{res.wall_s:7.2f} s  exit {res.exit}  {key}", file=sys.stderr)
    info = machine()
    REFERENCES.write_text(json.dumps(
        {"commit": info["commit"], "source_sha256": info["source_sha256"], "jobs": refs},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
