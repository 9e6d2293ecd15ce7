"""Compare this tree's benchmark digests with those of a git revision.

A bit-identical change must leave every output of the benchmark as it was.
This checks <rev> out with `git worktree add` into a temporary directory
(removed afterwards) and runs `perfbench/run.py --seconds 1` for seeds 0-9 of
each workload in BENCHMARK.json, in both trees, one run at a time. The tree
this script sits in is compared as it stands, uncommitted edits included.

It compares every digest (each `*_sha256` field and the default seed's
reference check), every candidate count and, for the tuning workloads, the
log records per request. A forecast_serve request draws a random horizon, so
its log count per request depends on how many requests a run fits in, and it
is not compared. Every difference is printed as one row of a table, and the
script exits 1 on any difference or on a run that did not report
`correct: true`. Otherwise it prints a one-line summary and exits 0.

Usage, from anywhere in the repository:

    python3 scripts/compare_digests.py <rev>      # e.g. HEAD or HEAD~1
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(10)
SECONDS = "1"


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"git {' '.join(args)} failed: {done.stderr.strip()}")
    return done.stdout.strip()


def compared_fields(workload: str, tree: Path, seed: int) -> dict:
    """The run's correct flag, digests, candidate counts and log count."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    try:
        details = json.loads(lines[-2])["details"]
        correct = json.loads(lines[-1])["correct"]
    except (IndexError, ValueError, KeyError):
        return {"correct": f"no result (exit {done.returncode}): {done.stderr.strip()[-200:]}"}
    fields = {"correct": correct}
    for key, value in details.items():
        if key.endswith("_sha256") or key == "default_seed_reference":
            fields[key] = value
        elif key == "candidates":
            for kind, counts in value.items():
                fields.update({f"candidates.{kind}.{name}": n for name, n in counts.items()})
        elif key == "log_records_per_request" and workload != "forecast_serve":
            fields[key] = value
    return fields


def short(value) -> str:
    text = str(value)
    return text[:12] if len(text) == 64 else text  # a SHA-256 digest by its prefix


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(__doc__.strip().split("\n\n")[-1])
    rev = git("rev-parse", "--verify", f"{argv[0]}^{{commit}}")
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    start = time.perf_counter()
    scratch = Path(tempfile.mkdtemp(prefix="compare-digests-"))
    base = scratch / "base"
    git("worktree", "add", "--detach", str(base), rev)
    rows = []
    try:
        for workload in workloads:
            for seed in SEEDS:
                want = compared_fields(workload, base, seed)
                got = compared_fields(workload, ROOT, seed)
                differing = [
                    (workload, seed, key, want.get(key, "-"), got.get(key, "-"))
                    for key in sorted(want.keys() | got.keys())
                    if want.get(key) != got.get(key)
                    or (key == "correct" and got[key] is not True)  # equal, so both failed
                ]
                print(f"{workload} seed {seed}: {'differs' if differing else 'equal'}",
                      file=sys.stderr, flush=True)
                rows += differing
    finally:
        git("worktree", "remove", "--force", str(base))
        shutil.rmtree(scratch, ignore_errors=True)
    wall = time.perf_counter() - start
    runs = len(workloads) * len(SEEDS)
    if rows:
        header = ("workload", "seed", "field", f"at {rev[:12]}", "this tree")
        table = [header] + [(w, str(s), k, short(a), short(b)) for w, s, k, a, b in rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        for row in table:
            print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        print(f"{len(rows)} differing fields over {runs} seed runs per tree against {rev[:12]} "
              f"({wall:.0f} s)")
        return 1
    print(f"digests, candidate counts and log counts equal for seeds {SEEDS[0]}-{SEEDS[-1]} of "
          f"{', '.join(workloads)} against {rev[:12]}; every run correct ({wall:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
