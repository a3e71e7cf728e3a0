"""Benchmark of rht: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload models --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded worker process (``worker.py``) that imports rht from ``src``.
Task times are in reference seconds (see ``speed.py``).  With ``--trace 0``
the last line of stdout carries the end-to-end metrics:

* ``wall_s``: time of the task list, the sum of each task's median time over
  the passes of the run;
* ``slowest_task_s``: the median time of the slowest task;
* ``setup_s``: median over fresh workers, spawned between passes, of the
  wall time from spawning a worker to its first task (interpreter,
  ``import rht``, inputs);
* ``peak_rss_mib``: peak resident memory of the worker;
* ``ok_frac``: tasks whose output passed its check, over tasks attempted.

With ``--trace 1`` it carries the per-layer metrics of a traced run.  The
line before it stamps the run (Python version, git SHA, nproc, load average
at start) and lists any failures; the full record, raw wall seconds
included, is written to ``bench/out/``.  A run whose checks fail prints
``"correct": false``; a run that cannot produce metrics at all exits with
status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("models", "scalability", "paper")
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def git_sha():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp():
    return {"python": platform.python_version(), "git_sha": git_sha(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def spawn(worker_args):
    """Run one worker to completion and return its JSON result."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / "worker.py"), *worker_args,
             "--spawned-at", repr(spawned_at)],
            cwd=ROOT, capture_output=True, text=True, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith(("_ratio", "_share", "_frac")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the harness self-test")
    parser.add_argument("--corrupt", metavar="TASK",
                        help="replace TASK's golden record by a wrong one "
                             "(harness self-test)")
    args = parser.parse_args(argv)

    record = {"stamp": stamp(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale}
    if not (ROOT / "src" / "rht" / "__init__.py").is_file():
        raise BenchError(f"no rht sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans", str(OUT / f"spans-{tag}.tsv")] if args.trace else []
    if args.corrupt:
        extra += ["--corrupt", args.corrupt]
    result = spawn(["--workload", args.workload, "--seed", str(args.seed),
                    "--scale", args.scale, "--seconds", str(args.seconds),
                    "--trace", str(args.trace), *extra])

    failed = len(result["failures"])
    attempted = result["attempted"]
    if args.trace:
        values = result["layers"]
    else:
        values = {"wall_s": result["wall_s"],
                  "slowest_task_s": result["slowest_task_s"],
                  "setup_s": result["setup_s"],
                  "peak_rss_mib": result["peak_rss_mib"],
                  "ok_frac": 1 - failed / attempted}
    record.update(passes=len(result["raw_pass_wall_s"]),
                  failures=result["failures"],
                  harness_errors=result.get("harness_errors", []),
                  spans=result.get("spans"), raw=result)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("stamp", "passes", "failures",
                                              "harness_errors")}))
    print(json.dumps({
        "correct": failed == 0 and not record["harness_errors"],
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
