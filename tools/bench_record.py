"""Run bench/run.py unchanged and keep its result as BENCH_<label>.json.

    python3 tools/bench_record.py --label cli-session --workload cli-session \
        --seed 1 --seconds 8 [--trace 1] [--checkout PATH]

The benchmark runs in a child process from the checkout at --checkout
(default: this repository), so a record of another revision is made from a
clone of it. The record is written to the root of this repository. It holds
the result line (the end-to-end metrics, or the layer metrics with
--trace 1), the reference line before it, the host (Python, numpy, CPU
count), the checkout's git revision, and the seed and seconds asked for.
It also holds the git tree ids of the checkout's src/ and bench/ as they
were run, uncommitted changes to tracked files included: a record made
before its change was committed still names the code it measured, since
`git rev-parse <commit>:src` of any commit with the same sources gives the
same id.
The wrapper exits with the benchmark's exit code and writes no record when
the benchmark fails to print a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, default=ROOT, help="tree whose bench/run.py runs")
    return parser.parse_args(argv)


def _git(checkout: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _source_trees(checkout: Path) -> dict:
    """Tree ids of src/ and bench/ in the working tree; `git stash create`
    commits it without touching any ref and prints nothing when it is clean."""
    commit = _git(checkout, "stash", "create") or "HEAD"
    return {name: _git(checkout, "rev-parse", f"{commit}:{name}") for name in ("src", "bench")}


def _host() -> dict:
    import numpy  # the benchmark's own dependency, run by this interpreter

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    command = [
        sys.executable, str(checkout / "bench" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        print(f"bench/run.py exited {done.returncode} without a result line", file=sys.stderr)
        return done.returncode or 1
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    record = {
        "label": args.label,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": _git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "source_trees": _source_trees(checkout),
        "host": _host(),
        "reference": json.loads(lines[-2])["reference"],
        "result": json.loads(lines[-1]),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
