"""Fast self-test of the benchmark harness, at tiny sizes.

    python3 bench/selftest.py

Checks, for every workload, that ``run.py`` prints a last line with exactly
the contract's keys, that it emits every metric of ``BENCHMARK.json`` by name
with its unit (end-to-end with ``--trace 0``, per-layer with ``--trace 1``),
that each run is stamped, that a non-default seed passes its checks, that a
deliberately corrupted golden digest is counted as a failed task, and that
the benchmark exits non-zero without a result when the sources are missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CORRUPT = {"models": "minimal_wedge_S2_S2", "scalability": "decide_pi_3_2",
           "paper": "cli_cohomology"}


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--seconds", "0",
                           "--scale", "tiny", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(args):
    code, lines, err = run(*args)
    if code != 0:
        raise AssertionError(f"{args}: exit {code}: {err[-1000:]}")
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{args}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"{args}: attempted {result['attempted']!r}")
    if set(meta["stamp"]) != {"python", "git_sha", "nproc", "loadavg"}:
        raise AssertionError(f"{args}: stamp {meta['stamp']}")
    return result, meta


def expect_metrics(args, result, listed):
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{args}: missing {missing}, unlisted {extra}, "
                             f"wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{args}: {name} = {m['value']!r}")


def check_workload(workload):
    for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        args = ["--workload", workload, "--seed", "0", "--trace", trace]
        result, meta = result_of(args)
        if not result["correct"] or result["failed"]:
            raise AssertionError(f"{args}: failures {meta['failures']} "
                                 f"{meta['harness_errors']}")
        expect_metrics(args, result, listed)

    args = ["--workload", workload, "--seed", "7"]
    result, meta = result_of(args)
    if not result["correct"]:
        raise AssertionError(f"{args}: failures {meta['failures']}")

    args = ["--workload", workload, "--corrupt", CORRUPT[workload]]
    result, meta = result_of(args)
    ok_frac = result["metrics"]["ok_frac"]["value"]
    if result["correct"] or result["failed"] < 1 or ok_frac >= 1:
        raise AssertionError(f"{args}: corrupted digest not counted: {result}")


def check_without_sources():
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines, _err = run("--workload", "models", cwd=tmp)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        raise AssertionError(f"without sources: exit {code}, output {lines}")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_workload(workload)
        print(f"ok {workload}", flush=True)
    check_without_sources()
    print("ok without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
