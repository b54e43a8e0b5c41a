"""One fresh-process set-up of a workload, timed by run.py from the outside.

Imports weakdev's CLI, then parses the workload's config or builds its
models, prints one JSON line with the import time, and exits.  run.py
counts from starting this process to reading that line: that is setup_s.
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

_t0 = time.perf_counter()
import weakdev.cli  # noqa: E402,F401

import_s = time.perf_counter() - _t0

import workloads  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workloads.make(args.workload, Path(args.workdir), args.seed).build()
    print(json.dumps({"import_s": import_s}), flush=True)


if __name__ == "__main__":
    main()
