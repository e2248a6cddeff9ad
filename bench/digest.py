"""Print the sha256 of the quickstart workload's report.json.

    python3 bench/digest.py [--seed N]

One pass from freshly generated inputs. Run it on the parent and on a
change: equal digests mean the change left the report byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cli = run.import_program()
    import workloads as wl

    work = run.WORK / f"digest-p{os.getpid()}"
    try:
        work.mkdir(parents=True)
        w = wl.Quickstart(work, args.seed)
        w.prepare(cli)
        _, _, failed = run.run_pass(cli, w)
        if failed:
            print("quickstart: a CLI call failed", file=sys.stderr)
            return 1
        digest = hashlib.sha256((w.out / "report.json").read_bytes()).hexdigest()
        print(f"quickstart seed {args.seed} report.json sha256 {digest}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
