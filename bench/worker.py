"""One benchmark worker: a fresh single-threaded process running one workload.

It imports rht from the checkout's ``src``, generates the seeded inputs, then
runs the task list one task after another (a closed loop with one client)
until the time budget is spent, checking every output against
``golden.json``.  Each task is timed in wall and in reference seconds
(``speed.py``).  With ``--trace 1`` untraced and traced passes alternate so
that the traced run also measures its own overhead.  The result is printed as
one JSON line on stdout.

    python3 bench/worker.py --workload models --seed 0 --seconds 36 \
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import rht  # noqa: E402

if Path(rht.__file__).resolve().parent != ROOT / "src" / "rht":
    raise SystemExit(f"imported rht from {rht.__file__}, not from the checkout")

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Layers each workload exists to stress: a traced pass that records no call
# into one of them means the tracer missed a binding, and the run fails.
STRESSED = {
    "models": ["linalg.rref", "linalg.reduce_against",
               "linalg.kernel_of_columns", "cohomology.degree",
               "cohomology.audit", "cdga.extend", "cdga.apply_terms",
               "cdga.basis", "cdga.mul_keys", "cdga.d_key",
               "presentations.slice", "presentations.reduce_terms",
               "models.minimal_model", "models.bigraded_model"],
    "scalability": ["cdga.adopt", "cdga.apply_terms", "cdga.basis",
                    "presentations.ring_init", "presentations.slice",
                    "presentations.verify_duality", "scalability.csum_ring",
                    "scalability.verify_witness", "scalability.decide",
                    "scalability.classify", "linalg.rref",
                    "linalg.kernel_of_columns"],
    "paper": ["homotopy.integrate", "homotopy.obstruction", "homotopy.massey",
              "homotopy.whitehead", "fileformat.loads", "report.render",
              "cli.main", "cdga.mul_keys", "cdga.d_key", "linalg.rref",
              "linalg.solve_columns", "linalg.symmetric_inertia",
              "models.minimal_model", "models.bigraded_model"],
}

# Set-up is sampled by spawning a fresh worker after every untraced pass, so
# that the samples spread over the whole run and the host's slow and fast
# regimes mix within it; a run takes at least this many samples.
MIN_SETUPS = 9

SPAN_LAYERS = ["linalg.rref", "linalg.reduce_against", "linalg.kernel_of_columns",
               "linalg.solve_columns", "linalg.symmetric_inertia",
               "cdga.extend", "cdga.adopt", "cdga.apply_terms",
               "homotopy.integrate", "homotopy.obstruction", "homotopy.massey",
               "homotopy.whitehead", "scalability.csum_ring",
               "scalability.verify_witness", "scalability.decide",
               "scalability.classify"]


def load_golden(workload, scale, corrupt):
    golden = json.loads((BENCH / "golden.json").read_text())[scale][workload]
    if corrupt:
        golden[corrupt] = {"digest": "0" * 64, "invariants": {"corrupted": True}}
    return golden


def _run(task, tracer):
    """(output, error) of one task, traced when a tracer is given."""
    if tracer is not None:
        tracer.active = True
    try:
        return task.run(), None
    except Exception as exc:  # a crashing task is a failed task
        return None, f"raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False


def run_pass(tasks, golden, seed, tracer=None):
    """(per-task reference seconds, per-task wall seconds, failures)."""
    ref_s, wall_s, failures = [], [], []
    for task in tasks:
        (output, error), wall, factor = speed.timed(lambda: _run(task, tracer))
        ref_s.append(wall * factor)
        wall_s.append(wall)
        if error is None:
            try:
                error = workloads.check(task, output, golden.get(task.name), seed)
            except Exception as exc:  # a check that cannot run is a failure
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{task.name}: {error}")
    return ref_s, wall_s, failures


def setup_probe(args):
    """Wall seconds from spawning a fresh worker to its first task."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-I", str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--scale", args.scale, "--seconds", "0", "--setup-only",
         "--spawned-at", repr(spawned_at)],
        capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def median_task_seconds(passes):
    """Each task's median time over the passes."""
    return [statistics.median(times) for times in zip(*passes)]


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes, workload):
    """Per-layer metrics, per traced pass, plus the unstressed-layer check."""
    totals = tracer.layer_totals()
    out = {}

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    for name in SPAN_LAYERS:
        out[f"{name}.calls"] = calls(name) / passes
        out[f"{name}.self_s"] = self_s(name) / passes
    rr = tracer.stats["linalg.rref"]
    out["linalg.rref.cells"] = rr["cells"] / passes
    out["linalg.rref.nnz"] = rr["nnz"] / passes
    out["linalg.rref.useful_row_ratio"] = ratio(rr["pivots"], rr["rows"])
    for name, (n, lookups, hits) in tracer.counters.items():
        out[f"{name}.calls"] = n / passes
        out[f"{name}.hit_ratio"] = ratio(hits, lookups)
    out["cohomology.degree.calls"] = calls("cohomology.degree") / passes
    out["cohomology.degree.self_s"] = self_s("cohomology.degree") / passes
    out["cohomology.degree.keys"] = \
        tracer.stats["cohomology.degree"]["keys"] / passes
    audit = tracer.outermost_seconds("cohomology.audit")
    out["cohomology.audit_s"] = audit / passes
    out["presentations.slice.calls"] = calls("presentations.slice") / passes
    out["presentations.slice.self_s"] = self_s("presentations.slice") / passes
    out["presentations.slice.hit_ratio"] = ratio(
        tracer.stats["presentations.slice"]["hits"], calls("presentations.slice"))
    for name in ("reduce_terms", "verify_duality", "ring_init"):
        out[f"presentations.{name}.self_s"] = \
            self_s(f"presentations.{name}") / passes
    for name in ("minimal_model", "bigraded_model"):
        out[f"models.{name}.self_s"] = self_s(f"models.{name}") / passes
    out["models.generators"] = tracer.stats["models"]["generators"] / passes
    building = (tracer.outermost_seconds("models.minimal_model")
                + tracer.outermost_seconds("models.bigraded_model"))
    out["models.audit_share"] = ratio(audit, building)
    verdicts, certified, wasted = tracer.verdicts()
    out["scalability.certificate_ratio"] = ratio(certified, verdicts)
    out["scalability.refuted_ring_build_s"] = wasted / passes
    for name in ("fileformat.loads", "report.render", "cli.main"):
        out[f"{name}.self_s"] = self_s(name) / passes
    every_call = dict(totals)
    every_call.update({name: [c[0]] for name, c in tracer.counters.items()})
    missing = [name for name in STRESSED[workload]
               if not every_call.get(name, [0])[0]]
    return out, missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--corrupt", help="task whose golden record is "
                        "replaced by a wrong one (harness self-test)")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file the traced spans are written to")
    args = parser.parse_args(argv)

    os.environ.pop("RHT_CAP", None)
    tasks = workloads.build(args.workload, args.seed, args.scale)
    golden = load_golden(args.workload, args.scale, args.corrupt)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    setups = [setup_s]
    passes = {False: [], True: []}     # traced? -> per-pass task ref seconds
    walls = {False: [], True: []}      # traced? -> per-pass task wall seconds
    failures = []
    durations = []                     # whole passes, probes and checks too
    start = time.monotonic()
    while True:
        traced = tracer is not None and len(passes[False]) > len(passes[True])
        gc.collect()
        pass_start = time.monotonic()
        if traced:
            tracer.install()
        try:
            ref_s, wall_s, failed = run_pass(tasks, golden, args.seed,
                                             tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes[traced].append(ref_s)
        walls[traced].append(wall_s)
        failures.extend(failed)
        if tracer is None:
            setups.append(setup_probe(args))
        durations.append(time.monotonic() - pass_start)
        done = passes[False] and (tracer is None or passes[True])
        if done and time.monotonic() - start + max(durations) > args.seconds:
            break

    while tracer is None and len(setups) < MIN_SETUPS:
        setups.append(setup_probe(args))

    tasks_s = median_task_seconds(passes[False])
    result = {"setup_s": statistics.median(setups), "setups": setups,
              "attempted": len(tasks) * (len(passes[False]) + len(passes[True])),
              "failures": failures,
              "wall_s": sum(tasks_s), "slowest_task_s": max(tasks_s),
              "task_s": dict(zip((t.name for t in tasks), tasks_s)),
              "pass_task_s": passes[False],
              "raw_wall_s": sum(median_task_seconds(walls[False])),
              "raw_pass_wall_s": [sum(w) for w in walls[False]],
              "peak_rss_mib": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        layers, missing = layer_metrics(tracer, len(passes[True]),
                                        args.workload)
        to_reference = (sum(map(sum, passes[True]))
                        / sum(map(sum, walls[True])))
        for name in layers:
            if name.endswith("_s"):
                layers[name] *= to_reference
        layers["trace.overhead_ratio"] = \
            sum(median_task_seconds(passes[True])) / sum(tasks_s)
        result["layers"] = layers
        result["spans"] = len(tracer.names)
        result["harness_errors"] = [f"tracer: layer {name} recorded no calls"
                                    for name in missing]
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
