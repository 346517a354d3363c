#!/usr/bin/env python3
"""dpkron benchmark: one command, named workloads, validated outputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run builds the
program from source into .bench_build/ (CMake, Release): the library,
dpkron_experiments, dpkrond and the layer probe (perfbench/probe.cc).
Workload inputs are generated from --seed; every operation's output is
validated (perfbench/validate.py) after the validators pass their own
self-tests (perfbench/selftest.py).

--trace 0 measures the end-to-end metrics; --trace 1 runs the traced
pass instead, times each layer's public entry point and writes a Chrome
trace-event file under .bench_work/. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it are the report: host context, noise floor, inputs,
identity checks, failures and standing faults.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common      # noqa: E402
import selftest    # noqa: E402
import workloads   # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
TARGETS = ("dpkron_experiments", "dpkrond", "dpkron_probe")
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures and builds the program; returns the binary directory."""
    log = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, nproc()))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
              *TARGETS]]
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-25:]
                sys.stderr.write("build failed:\n" + "\n".join(tail) + "\n")
                return None
    return BUILD / "bin"


def source_hash():
    """Digest of the program's and the benchmark's sources: the code
    identity of a run (the benchmark generates the inputs)."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "bench", HERE.name):
        paths += sorted(p for p in (ROOT / sub).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """The checkout's git commit; None outside a git work tree (a parent
    directory's repository must not be reported as this one)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def calibrate(probe):
    """The host's noise floor: a fixed CPU-bound loop, timed (the probe
    also names the CPU and its SIMD dispatch levels)."""
    result = common.run([probe, "calibrate"], 60, capture=True)
    return common.last_json_line(result.output) if result.ok else {}


def identity_ledger(ctx, code, mode):
    """Compares this run's output digests with earlier runs of the same
    workload, mode, seed, size and code in this checkout (a traced run
    asks for other work than an untraced one)."""
    path = ROOT / ".bench_work" / "identity.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    key = (f"{ctx.workload}|{mode}|seed={ctx.seed}|seconds={ctx.seconds}"
           f"|code={code}")
    earlier = ledger.get(key, {})
    checked = 0
    for op, digest in ctx.hashes.items():
        if op in earlier:
            checked += 1
            if earlier[op] != digest:
                ctx.identity_mismatches.append(
                    f"{op}: {digest} differs from an earlier run's "
                    f"{earlier[op]}")
    ledger[key] = dict(earlier, **ctx.hashes)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return {"digests": ctx.hashes, "compared_with_earlier_runs": checked}


def declared_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def write_trace(ctx, path):
    # Probe spans carry absolute monotonic-clock microseconds; shift them
    # onto the driver's axis (time.perf_counter reads the same clock).
    probe_events = getattr(ctx, "probe_events", [])
    for event in probe_events:
        event["ts"] -= ctx.tracer.origin * 1e6
    events = ctx.tracer.chrome_events() + probe_events
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40,
                        help="sizes each workload's timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="program pool threads (default per workload)")
    parser.add_argument("--clients", type=int, default=2,
                        help="serve: closed-loop client connections")
    args = parser.parse_args(argv)

    bins = build()
    if bins is None:
        return 2
    failures = selftest.run_selftests(str(bins / "dpkron_probe"))
    if failures:
        sys.stderr.write("validator self-tests failed:\n  " +
                         "\n  ".join(failures) + "\n")
        return 3

    workload_cls = workloads.WORKLOADS[args.workload]
    cores = nproc()
    threads = min(args.threads or workload_cls.default_threads, cores)
    clients = max(1, min(args.clients, cores))
    tracer = common.Tracer(enabled=bool(args.trace))
    ctx = workloads.Context(ROOT, bins, args.workload, args.seed,
                            args.seconds, threads, clients, tracer)
    code = source_hash()
    mode = "traced" if args.trace else "untraced"
    floor_before = calibrate(ctx.probe)
    ctx.notes["class_skip_defect"] = workloads.defect_probe(ctx)

    started = time.perf_counter()
    error = None
    try:
        workload = workload_cls(ctx)
        metrics = (workload.trace(ctx) if args.trace else
                   workload.measure(ctx))
    except workloads.BenchError as err:
        error = str(err)
        metrics = {}
    elapsed = time.perf_counter() - started
    floor_after = calibrate(ctx.probe)

    report = {
        "workload": args.workload, "why": workload_cls.__doc__,
        "seed": args.seed, "seconds": args.seconds,
        "mode": mode,
        "host": {"nproc": cores, "cpu": floor_before.get("cpu"),
                 "simd": floor_before.get("simd_active"),
                 "simd_detected": floor_before.get("simd_detected"),
                 "pool_threads": threads,
                 "client_connections": clients if args.workload == "serve"
                 else None,
                 "commit": commit(), "source_hash": code},
        "noise_floor_s": {"before": floor_before.get("seconds"),
                          "after": floor_after.get("seconds")},
        "run_seconds": elapsed,
        "identity": identity_ledger(ctx, code, mode),
        **ctx.notes,
    }
    if ctx.identity_mismatches:
        report["identity"]["mismatches"] = ctx.identity_mismatches
    defect = ctx.notes["class_skip_defect"]
    if defect["present"]:
        report["standing_faults"] = [
            "class-skip sampler defect: ReleasePipeline::Sample drew "
            f"{defect['edges']} edges for theta={list(selftest.DEFECT_THETA)}"
            f" at k={selftest.DEFECT_K}, closed-form expectation "
            f"{defect['expected']:.0f} (src/common/rng.cc NextGeometric)"]
    if error:
        report["error"] = error
    if ctx.failures:
        report["failures"] = ctx.failures[:20]
    if args.trace:
        trace_path = (ROOT / ".bench_work" /
                      f"trace-{args.workload}-s{args.seed}.json")
        write_trace(ctx, trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    shutil.rmtree(ctx.work, ignore_errors=True)

    declared = declared_metrics(bool(args.trace))
    print("report " + json.dumps(report, sort_keys=True, default=str))
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {declared.get(name, '')}")
    result = {
        "correct": error is None and ctx.failed == 0
        and not ctx.identity_mismatches,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed if ctx.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
