#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fork_storm --seed 1 --seconds 30 --trace 0

--workload all runs fork_storm, ddt_pcnet and profs_url in turn.

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles src/) under
.bench_build/perfbench; later calls rebuild only what changed. The run then
repeats the workload, one fresh s2e_perfbench process per repetition, until
--seconds have passed, and reports medians over the repetitions.

--trace 0 reports the end-to-end metrics (wall_s, cpu_s, peak_rss_mb,
setup_s). --trace 1 alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones, plus the tracing overhead; the span
logs of the traced repetitions are left under .bench_build/perfbench/spans.

Provenance (git SHA or source digest, build type, nproc, load average) is
printed before the result. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "s2e_perfbench")
BUILD_TYPE = "RelWithDebInfo"

WORKLOADS = ("fork_storm", "ddt_pcnet", "profs_url")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics reported by a traced run: name -> unit. Each one is
# reported on every workload; a layer a workload does not use reads 0.
PER_LAYER = {
    "isa.assemble_s": "s",
    "core.build_s": "s",
    "core.run_s": "s",
    "core.run_worker_s": "s",
    "core.busy_s": "s",
    "core.idle_s": "s",
    "core.unspanned_s": "s",
    "core.phase_share": "fraction",
    "core.paths": "count",
    "core.max_active_states": "count",
    "core.fork_s": "s",
    "core.forks": "count",
    "core.worker_idle_frac": "fraction",
    "dbt.translate_s": "s",
    "dbt.translations": "count",
    "dbt.concrete_s": "s",
    "dbt.instructions": "count",
    "dbt.uops_executed": "count",
    "expr.symbolic_s": "s",
    "expr.symbolic_values": "count",
    "solver.phase_s": "s",
    "solver.time_s": "s",
    "solver.sat_s": "s",
    "solver.simplify_s": "s",
    "solver.other_s": "s",
    "solver.queries": "count",
    "solver.sat_queries": "count",
    "solver.sat_query_frac": "fraction",
    "solver.static_prunes": "count",
    "solver.model_cache_hits": "count",
    "solver.ctx_reuses": "count",
    "lifecycle.states_spilled": "count",
    "lifecycle.states_restored": "count",
    "lifecycle.spill_bytes": "bytes",
    "lifecycle.states_merged": "count",
    "lifecycle.mem_watermark_bytes": "bytes",
    "replay.witnesses": "count",
    "replay.run_s": "s",
    "replay.instr_per_s": "instr/s",
    "replay.divergences": "count",
    "obs.trace_overhead_frac": "fraction",
    "failure_rate": "fraction",
}

# Phase seconds that, with core.unspanned_s and the idle worker-seconds,
# make up core.run_worker_s.
PHASE_LAYERS = ("dbt.translate_s", "dbt.concrete_s", "expr.symbolic_s",
                "solver.phase_s", "core.fork_s")

MIN_REPS = 3
# A repetition takes seconds; a hung one must not hold the run past the
# benchmark's per-run limit.
REP_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no s2e-lite sources under %s/src" % ROOT)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "s2e_perfbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def provenance():
    sha = None
    # Only the checkout's own history: git would otherwise report the SHA
    # of any repository that happens to enclose it.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    # A checkout without git history still identifies its sources.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def run_rep(workload, seed, traced, scratch, spans):
    # Flush the previous repetition's dirty pages and unlinked spill
    # files first: left to the periodic writeback, they slow the next
    # repetitions' spill I/O more with every one, then reset.
    os.sync()
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--scratch", scratch]
    if traced:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("s2e_perfbench timed out after %d s" % REP_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("s2e_perfbench exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def run_workload(workload, seed, seconds, trace):
    """Repeat one workload for `seconds`; returns (summary, result)."""
    scratch = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)

    untraced, traced = [], []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            enough = len(untraced) >= MIN_REPS and (
                not trace or len(traced) >= MIN_REPS)
            if enough and elapsed >= seconds:
                break
            # A traced run alternates untraced and traced repetitions so
            # both sample the same machine conditions.
            want_trace = trace and len(traced) < len(untraced)
            spans = os.path.join(spans_dir, "%s-seed%d-rep%d.json" % (
                workload, seed, len(traced)))
            rep = run_rep(workload, seed, want_trace, scratch, spans)
            (traced if want_trace else untraced).append(rep)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    reps = untraced + traced
    build_types = {r["build_type"] for r in reps}
    if build_types != {BUILD_TYPE}:
        fail("unexpected build type %s" % sorted(build_types))

    checks = {}
    attempted = failed = 0
    for r in reps:
        ok = all(r["checks"].values())
        for name, passed in r["checks"].items():
            checks[name] = checks.get(name, True) and passed
        attempted += r["attempted"]
        # A repetition that fails an output check counts as wholly failed.
        failed += r["failed"] if ok else r["attempted"]

    if trace:
        overhead = (median_of(traced, "wall_s") /
                    median_of(untraced, "wall_s") - 1.0)
        layers = {name: statistics.median(r["layers"].get(name, 0.0)
                                          for r in traced)
                  for name in PER_LAYER}
        layers["obs.trace_overhead_frac"] = overhead
        layers["failure_rate"] = failed / attempted
        # Σ phases + unspanned + idle must match the benchmark's own
        # stopwatch around run(), within the tracing overhead.
        tolerance = max(abs(overhead), 0.01)
        adds_up = True
        for r in traced:
            L = r["layers"]
            total = (sum(L[p] for p in PHASE_LAYERS) + L["core.unspanned_s"]
                     + L["core.idle_s"])
            if abs(total - L["core.run_worker_s"]) > (
                    tolerance * L["core.run_worker_s"]):
                adds_up = False
        checks["layers_add_up_to_run_worker_seconds"] = adds_up
        if not adds_up:
            failed = attempted
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": median_of(untraced, name), "unit": unit}
                   for name, unit in END_TO_END.items()}

    summary = {"workload": workload, "seed": seed, "build_type": BUILD_TYPE,
               "untraced_reps": len(untraced), "traced_reps": len(traced),
               "checks": checks}
    result = {"correct": all(checks.values()), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return summary, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    print(json.dumps(provenance(), sort_keys=True))
    # "all" runs every workload in turn; its result line sums the counts
    # and names each metric <workload>.<metric>.
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        summary, result = run_workload(workload, args.seed, args.seconds,
                                       bool(args.trace))
        print(json.dumps(summary, sort_keys=True))
        for name, m in result["metrics"].items():
            print("%-12s %-32s %16.6g %s" % (workload, name, m["value"],
                                              m["unit"]))
        if len(workloads) == 1:
            total = result
            break
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][workload + "." + name] = m
    print(json.dumps(total))


if __name__ == "__main__":
    main()
