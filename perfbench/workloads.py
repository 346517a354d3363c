"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, drives the real
binaries (dpkron_experiments, dpkrond) and validates every operation's
output. measure() returns the end-to-end metrics of an untraced run;
trace() returns the per-layer metrics of a traced run.

  sweep    one `dpkron_experiments --sweep` of table1_parameters over an
           epsilon grid x 2 seeds on a CA-HepTh-like graph, repeated.
  serve    dpkrond driven in a closed loop by client connections with a
           mix of releases, retries, healthz probes and spent-budget
           requests over the datasets table1_parameters registers; the
           whole mix is served by each of several daemon lifetimes.
  figures  fig3_ca_hepth + fig4_synthetic in one process, repeated. Not
           declared in BENCHMARK.json: the class-skip sampler defect makes
           about a third of seeds run away (see CHANGES.md).
"""

import json
import os
import random
import re
import signal
import socket
import subprocess
import threading
import time

import common
import validate
from selftest import DEFECT_K, DEFECT_THETA

# Wall-time limits: an operation that exceeds its limit is killed and
# counted as one failed operation.
DATASET_LIMIT_S = 60
BATCH_OP_LIMIT_S = 30
SAMPLE_LIMIT_S = 10     # a correct sample of these sizes takes < 1 s
PROBE_LIMIT_S = 150
REQUEST_LIMIT_S = 30
DAEMON_START_LIMIT_S = 30
DRAIN_LIMIT_S = 30

SETUP_REPS = 15         # batch workloads: dataset builds per run
# serve: the whole mix is served SERVE_SESSIONS times per run, each time
# by a fresh daemon lifetime on a fresh journal, after
# SERVE_IDLE_LAUNCHES launches that only time set-up.
SERVE_SESSIONS = 10
SERVE_IDLE_LAUNCHES = 1
TRACE_SEED_BASE = 0x5EED
# Requests per client in a traced run's serve session: the size of the
# measured dpkrond prototype (2 clients x 60 requests).
TRACE_REQUESTS_PER_CLIENT = 60

PRIVATE_EPSILON = 0.2
SCENARIO_DELTA = 0.01   # every scenario's default delta
# sweep and serve run on the registered datasets as the registry's
# default seed generates them, so a dataset is one fixed graph (as a real
# one would be); the workload seed draws everything asked of it.
DATASET_SEED = 20120330


class BenchError(Exception):
    """An input or set-up step failed; the run cannot measure."""


class Context:
    def __init__(self, root, bins, workload, seed, seconds, threads, clients,
                 tracer):
        self.root = root
        self.probe = str(bins / "dpkron_probe")
        self.experiments = str(bins / "dpkron_experiments")
        self.daemon = str(bins / "dpkrond")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.threads = threads
        self.clients = clients
        self.tracer = tracer
        self.work = root / ".bench_work" / f"{workload}-s{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.hashes = {}       # operation key -> output digest
        self.identity_mismatches = []
        self.notes = {}

    def record(self, name, problems):
        """Counts one operation; returns True when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{name}: {p}" for p in problems[:3])
        return not problems

    def expect_same(self, key, digest):
        """Run-to-run identity: the same inputs must give the same output."""
        seen = self.hashes.setdefault(key, digest)
        if seen != digest:
            self.identity_mismatches.append(f"{key}: {seen} != {digest}")


# ---------------------------------------------------------------- inputs

def build_dataset(ctx, ref, seed, path):
    """The registered dataset `ref` exactly as a scenario seeded with
    `seed` loads it, written as .dpkb. Returns (seconds, summary)."""
    with ctx.tracer.span("datasets.build", op=ref):
        result = common.run([ctx.probe, "dataset", f"--ref={ref}",
                             f"--seed={seed}", f"--out={path}"],
                            DATASET_LIMIT_S, capture=True)
    if not result.ok:
        raise BenchError(f"building {ref}: {ending(result, DATASET_LIMIT_S)}: "
                         f"{result.output.strip()[-300:]}")
    return result.seconds, common.last_json_line(result.output)


def build_datasets(ctx, specs, reps):
    """Builds every (ref, seed, path) `reps` times; returns (median
    seconds of one full build, summaries). Repeats must agree."""
    times, first = [], None
    for _ in range(reps):
        start = time.perf_counter()
        summaries = [build_dataset(ctx, ref, seed, path)[1]
                     for ref, seed, path in specs]
        times.append(time.perf_counter() - start)
        if first is None:
            first = summaries
        elif summaries != first:
            raise BenchError("dataset build is not deterministic: "
                             f"{first} vs {summaries}")
    return common.median(times), first


# ----------------------------------------------------- batch operations

def run_batch_op(ctx, argv, out_path):
    """One program process; returns (Result, parsed document or None)."""
    with ctx.tracer.span("program." + os.path.basename(argv[0]),
                         op=out_path.name):
        result = common.run(argv + [f"--out={out_path}"], BATCH_OP_LIMIT_S,
                            track_rss=True)
    doc = None
    if result.ok:
        try:
            doc = json.loads(out_path.read_text())
        except (OSError, ValueError):
            doc = None
    return result, doc


def ending(result, limit_s):
    """How a failed process ended, for failure messages."""
    if result.timed_out:
        return f"killed at its {limit_s}s time limit"
    return f"exit status {result.returncode}"


def batch_failure(result):
    if not result.ok:
        return [ending(result, BATCH_OP_LIMIT_S)]
    return ["no parseable output document"]


def batch_metrics(ctx, setup_s, latencies, ops_per_pass, peak_rss_kb):
    """A batch run repeats one pass (one program process) over the same
    inputs; times are medians over the passes, so a burst of load from
    elsewhere on the host moves them less than a total would."""
    wall = common.percentile(latencies, 50)
    q, tail_value = common.tail(latencies)
    ok_share = (ctx.attempted - ctx.failed) / max(ctx.attempted, 1)
    ctx.notes["release_latency"] = {"samples": len(latencies),
                                    "tail_percentile": q,
                                    "unit": "one pass (program process)"}
    ctx.notes["passes"] = {"count": len(latencies),
                           "total_s": sum(latencies),
                           "min_s": min(latencies)}
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": ops_per_pass * ok_share / wall,
        "release_p50_ms": 1e3 * wall,
        "release_tail_ms": 1e3 * tail_value,
        "ok_share": ok_share,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def pass_count(ctx, nominal_pass_s):
    """Passes per run, sized from --seconds (the same for every build)."""
    return max(1, round(ctx.seconds / nominal_pass_s))


def dataset_agnostic(text, paths):
    """Output with machine-local dataset paths replaced by their names,
    so digests compare across checkouts."""
    for name, path in paths.items():
        text = text.replace(str(path), f"<{name}>")
    return text


# ------------------------------------------------------------- the probe

def probe_layers(ctx, refs, seed):
    """Runs the in-process layer sequence over refs (name -> registry name
    or .dpkb path); returns its JSON output and keeps its spans for the
    trace file."""
    trace_path = ctx.work / "probe-trace.json"
    with ctx.tracer.span("probe.layers", op="layers"):
        result = common.run(
            [ctx.probe, "layers",
             "--refs=" + ",".join(map(str, refs.values())),
             f"--seed={seed}", f"--threads={ctx.threads}",
             f"--journal={ctx.work / 'probe-accountant.journal'}",
             f"--trace-out={trace_path}"], PROBE_LIMIT_S, capture=True)
    if not result.ok:
        problem = (f"{ending(result, PROBE_LIMIT_S)}: "
                   f"{result.output.strip()[-300:]}")
        ctx.record("probe.layers", [problem])
        raise BenchError("layer probe failed: " + problem)
    ctx.record("probe.layers", [])
    out = common.last_json_line(result.output)
    for estimate in out["estimates"]:
        estimate["label"] = dataset_agnostic(
            estimate["label"], {n: r for n, r in refs.items() if n != r})
    ctx.probe_events = json.loads(trace_path.read_text())["traceEvents"]
    return out


def sample_estimates(ctx, estimates):
    """Samples every estimated initiator with ReleasePipeline::Sample, each
    in its own process under SAMPLE_LIMIT_S, and validates the edge count
    against the closed form. Returns the skg metrics."""
    total_s, ratios, rows = 0.0, [], []
    for i, est in enumerate(estimates):
        theta, k = tuple(est["theta"]), est["k"]
        with ctx.tracer.span("skg.ReleasePipeline::Sample", op=est["label"]):
            result = common.run(
                [ctx.probe, "sample", "--theta=%r,%r,%r" % theta, f"--k={k}",
                 f"--seed={TRACE_SEED_BASE + i}"], SAMPLE_LIMIT_S,
                capture=True)
        if not result.ok:
            ctx.record(f"sample {est['label']}",
                       [f"sampling {theta} at k={k}: "
                        f"{ending(result, SAMPLE_LIMIT_S)}"])
            total_s += result.seconds
            continue
        out = common.last_json_line(result.output)
        total_s += out["seconds"]
        ratios.append(out["edges"] / validate.expected_edges(theta, k))
        rows.append({"label": est["label"], "edges": out["edges"],
                     "expected": validate.expected_edges(theta, k)})
        ctx.record(f"sample {est['label']}",
                   validate.check_sample_edges(out["edges"], theta, k,
                                               label=est["label"]))
    ctx.notes["samples"] = rows
    return {"skg.sample_s": total_s,
            "skg.edge_ratio_max": max(ratios) if ratios else 0.0}


def defect_probe(ctx):
    """Live sample of the class-skip defect's initiator (selftest.py) with
    the default sampler; reported every run as a standing fault, not as an
    operation."""
    result = common.run([ctx.probe, "sample",
                         "--theta=%r,%r,%r" % DEFECT_THETA,
                         f"--k={DEFECT_K}", "--seed=1"], SAMPLE_LIMIT_S,
                        capture=True)
    expected = validate.expected_edges(DEFECT_THETA, DEFECT_K)
    if not result.ok:
        return {"edges": None, "expected": expected, "ratio": None,
                "present": True, "error": f"exit {result.returncode}"}
    edges = common.last_json_line(result.output)["edges"]
    present = bool(validate.check_sample_edges(edges, DEFECT_THETA, DEFECT_K))
    return {"edges": edges, "expected": expected, "ratio": edges / expected,
            "present": present}


def cache_metrics(block):
    hits, misses = block.get("hits", 0), block.get("misses", 0)
    return {"stat_cache.hits": hits, "stat_cache.misses": misses,
            "stat_cache.hit_ratio": hits / (hits + misses) if hits + misses
            else 0.0}


def layer_metrics(ctx, probe_out, skg, cache_block, server):
    metrics = dict(probe_out["metrics"])
    metrics.update(skg)
    metrics["skg.tiny_class_edge_ratio"] = ctx.notes["class_skip_defect"][
        "ratio"] or 0.0
    compute = metrics["core.release_compute_s"]
    metrics["linalg.lanczos_share_of_compute"] = (
        metrics["linalg.lanczos_s"] / compute if compute > 0 else 0.0)
    metrics.update(cache_metrics(cache_block))
    metrics.update(server)
    # After a warm-up pass, the probe alternates untraced and traced
    # passes; the overhead is the median pair difference. When the
    # differences do not share a sign, it is inside the host's noise.
    untraced, traced = probe_out["untraced_pass_s"], probe_out["traced_pass_s"]
    diffs = [t - u for u, t in zip(untraced, traced)]
    overhead = common.median(diffs)
    metrics["trace.overhead_s"] = overhead
    ctx.notes["tracing_overhead"] = {
        "untraced_pass_s": untraced, "traced_pass_s": traced,
        "differences_s": diffs, "median_s": overhead,
        "spread_s": max(diffs) - min(diffs),
        "share": overhead / common.median(untraced),
        "resolved": all(d > 0 for d in diffs) or all(d < 0 for d in diffs)}
    return metrics


# ------------------------------------------------------------- dpkrond

class Daemon:
    """One dpkrond process on an ephemeral port."""

    def __init__(self, ctx, journal, workers):
        self.ctx = ctx
        self.argv = [ctx.daemon, "--port=0", f"--accountant={journal}",
                     f"--budgets={SERVE_BUDGET},0.99", f"--workers={workers}",
                     f"--threads={ctx.threads}", "--queue-depth=64",
                     "--smoke"]
        self.proc = None
        self.reader = None
        self.port = None
        self.lines = []

    def start(self):
        """Launches and waits for the first answered healthz; returns the
        seconds from launch to that answer."""
        start = time.perf_counter()
        self.proc = common.spawn(self.argv, stdout=subprocess.PIPE)
        self.rss = common.PeakRss(self.proc.pid, self.argv[0])
        ready = threading.Event()

        def pump():
            for raw in self.proc.stdout:
                line = raw.decode(errors="replace").rstrip()
                self.lines.append(line)
                match = re.search(r"serving on port (\d+)", line)
                if match:
                    self.port = int(match.group(1))
                    ready.set()
            ready.set()

        self.reader = threading.Thread(target=pump, daemon=True)
        self.reader.start()
        if not ready.wait(DAEMON_START_LIMIT_S) or self.port is None:
            self.stop()
            raise BenchError("dpkrond did not start: " +
                             " | ".join(self.lines[-5:]))
        reply = self.healthz()
        seconds = time.perf_counter() - start
        if not isinstance(reply, dict) or reply.get("type") != "healthz":
            self.stop()
            raise BenchError(f"dpkrond healthz failed: {reply}")
        return seconds

    def healthz(self):
        """The healthz reply, or None when there is none."""
        try:
            conn = Connection(self.port)
        except OSError:
            return None
        try:
            return conn.roundtrip('{"type": "healthz"}')
        except (OSError, ValueError):
            return None
        finally:
            conn.close()

    def stop(self):
        """SIGTERM (graceful drain); SIGKILL when it does not drain in
        time. Returns the daemon's peak RSS in KiB."""
        if self.proc is None:
            return 0
        try:
            self.proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        killed = common.reap(self.proc, DRAIN_LIMIT_S, self.rss)
        if killed:
            self.ctx.notes.setdefault("daemon", []).append(
                "did not drain; SIGKILLed")
        if self.reader is not None:
            self.reader.join(timeout=5)
        self.proc.stdout.close()
        self.proc = None
        return self.rss.kb


class Connection:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=REQUEST_LIMIT_S)
        self.stream = self.sock.makefile("rwb")

    def roundtrip(self, line):
        self.stream.write(line.encode() + b"\n")
        self.stream.flush()
        raw = self.stream.readline()
        return json.loads(raw) if raw else None

    def close(self):
        try:
            self.stream.close()
        finally:
            self.sock.close()


# --------------------------------------------------------- request mix

# No measured request log of dpkrond exists, so the mix is an assumption
# (stated in BENCHMARK.json's `why` too): the four request kinds in equal
# shares; releases over every dataset table1_parameters registers, in
# equal shares; epsilon from dyadic values around the paper's 0.2 (dyadic,
# so ledger sums are exact in floating point); a budget of 1 per analyst.
KINDS = ("release", "retry", "healthz", "refused")
SERVE_EPSILONS = (0.0625, 0.125, 0.25)
SERVE_BUDGET = 1.0
SERVE_SCENARIO = "table1_parameters"


def scenario_datasets(ctx, scenario):
    """The datasets `scenario` registers, as `dpkron_experiments --list`
    names them."""
    result = common.run([ctx.experiments, "--list"], DATASET_LIMIT_S,
                        capture=True)
    lines = result.output.splitlines()
    for i, line in enumerate(lines):
        if line.split()[:1] == [scenario]:
            for detail in lines[i + 1:i + 4]:
                if "datasets:" in detail:
                    return detail.split("datasets:")[1].split()
    raise BenchError(f"--list names no datasets for {scenario}")


def plan_client(seed, client, count, datasets):
    """The request list of one closed-loop client, with what each reply
    must say. Each client owns its analysts, so expectations do not
    depend on how clients interleave.

    datasets: name -> path. Kinds, datasets and epsilons are drawn as
    exact shares, shuffled, so every seed asks for the same amount of
    each kind of work."""
    rnd = random.Random(f"serve:{seed}:{client}")

    def shares(values, n):
        drawn = [values[i % len(values)] for i in range(n)]
        rnd.shuffle(drawn)
        return drawn

    kinds = shares(KINDS, count - 1)
    names = sorted(datasets)
    picks = shares(names, kinds.count("release") + 1)
    epsilons = shares(SERVE_EPSILONS, kinds.count("release"))
    spent = {}
    current = 0          # index of the analyst releases charge now
    releases = []
    plan = []

    def new_id():
        return f"s{seed}-c{client}-{len(plan):04d}"

    def request(analyst, name, epsilon):
        return {"analyst": analyst, "scenario": SERVE_SCENARIO,
                "dataset": str(datasets[name]), "epsilon": epsilon,
                "seed": rnd.getrandbits(32), "request_id": new_id()}

    def release(analyst, epsilon):
        line = request(analyst, picks.pop(), epsilon)
        spent[analyst] = spent.get(analyst, 0.0) + epsilon
        entry = {"kind": "release", "line": json.dumps(line),
                 "id": line["request_id"],
                 "expect": {"kind": "release", "analyst": analyst,
                            "epsilon": epsilon, "delta": SCENARIO_DELTA,
                            "total": SERVE_BUDGET,
                            "spent_after": spent[analyst]}}
        releases.append(entry)
        return entry

    # The first request spends one analyst's whole budget, so refusals
    # always have a spent analyst to target.
    drained = f"c{client}-drained"
    plan.append(release(drained, SERVE_BUDGET))
    for kind in kinds:
        if kind == "release":
            epsilon = epsilons.pop()
            analyst = f"c{client}-a{current}"
            if spent.get(analyst, 0.0) + epsilon > SERVE_BUDGET:
                current += 1
                analyst = f"c{client}-a{current}"
            plan.append(release(analyst, epsilon))
        elif kind == "retry":
            orig = rnd.choice(releases)
            analyst = orig["expect"]["analyst"]
            plan.append({"kind": "retry", "line": orig["line"],
                         "id": orig["id"], "orig": orig["id"],
                         "expect": dict(orig["expect"], kind="retry",
                                        spent_after=spent[analyst])})
        elif kind == "healthz":
            plan.append({"kind": "healthz", "line": '{"type": "healthz"}',
                         "id": new_id(), "expect": {"kind": "healthz"}})
        else:
            spent_out = sorted(a for a, s in spent.items()
                               if SERVE_BUDGET - s < max(SERVE_EPSILONS))
            line = request(rnd.choice(spent_out), rnd.choice(names),
                           max(SERVE_EPSILONS))
            plan.append({"kind": "refused", "line": json.dumps(line),
                         "id": line["request_id"],
                         "expect": {"kind": "refused",
                                    "analyst": line["analyst"]}})
    return plan, spent


def run_session(ctx, daemon, plans):
    """Drives every client's plan in a closed loop, one connection per
    client. Returns (wall seconds, per-client [(seconds, reply)])."""
    results = [[None] * len(plan) for plan in plans]

    def client(index, plan):
        conn = None
        for i, entry in enumerate(plan):
            reply = None
            with ctx.tracer.span("serve." + entry["kind"], op=entry["id"],
                                 tid=index + 1):
                start = time.perf_counter()
                try:
                    if conn is None:
                        conn = Connection(daemon.port)
                    reply = conn.roundtrip(entry["line"])
                except (OSError, ValueError):
                    reply = None
                seconds = time.perf_counter() - start
            if reply is None and conn is not None:
                conn.close()    # a timed-out connection may still deliver
                conn = None     # the late reply; never read it as the next
            results[index][i] = (seconds, reply)
        if conn is not None:
            conn.close()

    threads = [threading.Thread(target=client, args=(i, plan))
               for i, plan in enumerate(plans)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, results


def check_session(ctx, plans, results, paths):
    """Validates every reply; returns latencies by kind (ms)."""
    latencies = {kind: [] for kind in KINDS}
    for plans_i, (plan, replies) in enumerate(zip(plans, results)):
        run_digests = {}
        for entry, (seconds, reply) in zip(plan, replies):
            kind = entry["kind"]
            latencies[kind].append(1e3 * seconds)
            if reply is None:
                ctx.record(f"{kind} {entry['id']}",
                           ["no reply within the request limit"])
                continue
            problems = validate.check_release_reply(reply, entry["expect"])
            if kind in ("release", "retry") and reply.get("ok"):
                run = json.dumps(validate.strip_timing(reply.get("run")),
                                 sort_keys=True)
                digest = validate.digest(dataset_agnostic(run, paths))
                if kind == "release":
                    run_digests[entry["id"]] = digest
                elif run_digests.get(entry["orig"], digest) != digest:
                    ctx.identity_mismatches.append(
                        f"retry of {entry['orig']} returned a different run")
            ctx.record(f"{kind} {entry['id']}", problems)
        ctx.expect_same(f"client{plans_i}",
                        validate.digest(sorted(run_digests.items())))
    return latencies


def check_ledger(ctx, name, health, spent):
    """Every analyst's epsilon_spent in a healthz reply equals the sum of
    its charges."""
    analysts = (health or {}).get("analysts", {})
    problems = []
    for analyst, want in sorted(spent.items()):
        got = analysts.get(analyst, {}).get("epsilon_spent")
        if got is None or abs(got - want) > validate.LEDGER_TOL:
            problems.append(f"{analyst} at epsilon_spent={got}, "
                            f"charges sum to {want}")
    ctx.record(name, problems)


def serve_session(ctx, datasets, clients, count, journal, idle_launches=0):
    """Serves the whole mix over datasets (name -> path) from one dpkrond
    lifetime, after `idle_launches` launch-and-stop cycles that only time
    set-up. Validates every reply and the ledger, then restarts the
    daemon on the same journal and checks the ledger survived the drain
    and replay (a check only: the restart is not measured). Returns a
    dict of what the metrics need."""
    plans, spent = [], {}
    for c in range(clients):
        plan, client_spent = plan_client(ctx.seed, c, count, datasets)
        plans.append(plan)
        spent.update(client_spent)
    daemon = Daemon(ctx, journal, workers=clients)
    setups, idle_peaks = [], []
    try:
        for launch in range(idle_launches + 1):
            with ctx.tracer.span("dpkrond.startup", op=f"launch{launch}"):
                setups.append(daemon.start())
            if launch < idle_launches:
                idle_peaks.append(daemon.stop())
        wall, results = run_session(ctx, daemon, plans)
        health = daemon.healthz()
        peak_kb = daemon.stop()
        with ctx.tracer.span("dpkrond.restart", op="replay"):
            daemon.start()
        replayed = daemon.healthz()
    finally:
        daemon.stop()
    latencies = check_session(ctx, plans, results, datasets)
    check_ledger(ctx, "ledger at the end of the session", health, spent)
    check_ledger(ctx, "ledger after a restart", replayed, spent)
    return {"setups": setups, "wall_s": wall, "latencies": latencies,
            "health": health or {}, "peak_kb": peak_kb,
            "idle_peak_kb": idle_peaks}


def server_metrics(session):
    stats = session["health"].get("stats", {})
    lat = session["latencies"]
    return {"server.healthz_ms": common.median(lat["healthz"]),
            "server.dedup_ms": common.median(lat["retry"]),
            "server.refused_ms": common.median(lat["refused"]),
            "server.shed": stats.get("shed", 0),
            "server.deduped": stats.get("deduped", 0),
            "server.refused": stats.get("budget_refused", 0)}


# ------------------------------------------------------------ workloads

class Sweep:
    """table1_parameters x 5 epsilons x 2 seeds on a CA-HepTh-like graph."""

    name = "sweep"
    default_threads = 1
    nominal_pass_s = 1.5
    dataset = "CA-HepTh-like"
    # A fixed grid: the smooth-sensitivity and KronMom work of a cell
    # depends on epsilon, so a drawn grid would make seeds unequal work.
    epsilons = (0.1, 0.2, 0.5, 1.0, 2.0)
    seeds_per_cell = 2

    def __init__(self, ctx):
        self.graph = ctx.work / "sweep-graph.dpkb"
        ctx.notes["inputs"] = {"dataset": self.dataset,
                               "dataset_seed": DATASET_SEED,
                               "epsilons": list(self.epsilons),
                               "sweep_seeds": self.seeds_per_cell,
                               "base_seed": ctx.seed}

    def setup(self, ctx, reps):
        return build_datasets(
            ctx, [(self.dataset, DATASET_SEED, self.graph)], reps)[0]

    def run_pass(self, ctx, index):
        """One sweep process; its operations are the grid's cells."""
        out = ctx.work / f"sweep-{index}.json"
        result, doc = run_batch_op(ctx, [
            ctx.experiments, "--sweep", "--scenario=table1_parameters",
            f"--dataset={self.graph}",
            "--sweep-epsilons=" + ",".join(map(str, self.epsilons)),
            f"--sweep-seeds={self.seeds_per_cell}", f"--seed={ctx.seed}",
            f"--threads={ctx.threads}"], out)
        if doc is None:
            failure = batch_failure(result)
            cells = {(eps, s): failure for eps in self.epsilons
                     for s in range(self.seeds_per_cell)}
        else:
            cells = validate.check_sweep_doc(doc, self.epsilons,
                                             self.seeds_per_cell)
            text = json.dumps(validate.strip_timing(doc["runs"]),
                              sort_keys=True)
            ctx.expect_same("sweep", validate.digest(dataset_agnostic(
                text, {self.dataset: self.graph})))
        for (eps, s), problems in cells.items():
            ctx.record(f"pass {index} eps={eps} seed#{s}", problems)
        return result, doc

    def measure(self, ctx):
        setup_s = self.setup(ctx, SETUP_REPS)
        latencies, peak = [], 0
        for i in range(pass_count(ctx, self.nominal_pass_s)):
            result, _ = self.run_pass(ctx, i)
            latencies.append(result.seconds)
            peak = max(peak, result.maxrss_kb)
        cells = len(self.epsilons) * self.seeds_per_cell
        return batch_metrics(ctx, setup_s, latencies, cells, peak)

    def trace(self, ctx):
        self.setup(ctx, 1)
        probe_out = probe_layers(ctx, {self.dataset: self.graph}, ctx.seed)
        skg = sample_estimates(ctx, probe_out["estimates"])
        _, doc = self.run_pass(ctx, 0)
        session = serve_session(ctx, {self.dataset: self.graph}, 1,
                                TRACE_REQUESTS_PER_CLIENT,
                                ctx.work / "trace-accountant.journal")
        return layer_metrics(ctx, probe_out, skg,
                             (doc or {}).get("cache", {}),
                             server_metrics(session))


class Serve:
    """dpkrond under a closed-loop request mix."""

    name = "serve"
    default_threads = 2
    # Sizes the mix from --seconds: SERVE_SESSIONS sessions fill about
    # --seconds at 2 clients on a 4-core Xeon.
    requests_per_client_s = 3.75

    def __init__(self, ctx):
        names = scenario_datasets(ctx, SERVE_SCENARIO)
        self.graphs = {name: ctx.work / f"serve-{name}.dpkb"
                       for name in names}
        self.count = max(20, round(ctx.seconds * self.requests_per_client_s))
        ctx.notes["inputs"] = {"scenario": SERVE_SCENARIO,
                               "datasets": names,
                               "dataset_seed": DATASET_SEED,
                               "epsilons": list(SERVE_EPSILONS),
                               "requests_per_client": self.count,
                               "clients": ctx.clients,
                               "loop": "closed",
                               "mix": {kind: 1 / len(KINDS) for kind in KINDS}}

    def inputs(self, ctx):
        for name, path in self.graphs.items():
            build_dataset(ctx, name, DATASET_SEED, path)

    def measure(self, ctx):
        """Each session serves the same whole mix (so sessions must agree
        on every output digest). Times are medians over the sessions; the
        peak RSS is their mean, which spread less than their median over
        repeated runs (0.10 against 0.17 quartile distance / median)."""
        self.inputs(ctx)
        sessions = [serve_session(ctx, self.graphs, ctx.clients, self.count,
                                  ctx.work / f"accountant-{i}.journal",
                                  SERVE_IDLE_LAUNCHES)
                    for i in range(SERVE_SESSIONS)]
        releases = [ms for s in sessions for ms in s["latencies"]["release"]]
        q, tail_value = common.tail(releases)
        ctx.notes["release_latency"] = {"samples": len(releases),
                                        "tail_percentile": q,
                                        "unit": "one release request"}
        peaks = [s["peak_kb"] / 1024.0 for s in sessions]
        idle = [kb / 1024.0 for s in sessions for kb in s["idle_peak_kb"]]
        # dpkrond's resident memory grows with the requests it serves, at
        # a rate that differs from lifetime to lifetime: a standing fault.
        ctx.notes["daemon_rss_mb"] = {
            "idle_launch_peaks": idle, "session_peaks": peaks,
            "requests_per_session": self.count * ctx.clients}
        correct = ctx.attempted - ctx.failed
        return {
            "setup_s": common.median([t for s in sessions
                                      for t in s["setups"]]),
            "wall_s": common.median([s["wall_s"] for s in sessions]),
            "ops_per_s": correct / sum(s["wall_s"] for s in sessions),
            "release_p50_ms": common.percentile(releases, 50),
            "release_tail_ms": tail_value,
            "ok_share": correct / max(ctx.attempted, 1),
            "peak_rss_mb": sum(peaks) / len(peaks),
        }

    def trace(self, ctx):
        self.inputs(ctx)
        probe_out = probe_layers(ctx, self.graphs, ctx.seed)
        skg = sample_estimates(ctx, probe_out["estimates"])
        session = serve_session(ctx, self.graphs, ctx.clients,
                                TRACE_REQUESTS_PER_CLIENT,
                                ctx.work / "trace-accountant.journal")
        return layer_metrics(ctx, probe_out, skg,
                             session["health"].get("cache", {}),
                             server_metrics(session))


class Figures:
    """fig3_ca_hepth + fig4_synthetic in one dpkron_experiments process."""

    name = "figures"
    default_threads = 1
    nominal_pass_s = 10.0
    scenarios = {"fig3_ca_hepth": "CA-HepTh-like",
                 "fig4_synthetic": "Synthetic-SKG"}

    def __init__(self, ctx):
        # The scenario seed is the workload seed; the scenarios generate
        # their datasets from it, and so does the driver, to validate.
        self.graphs = {ref: ctx.work / f"figures-{ref}.dpkb"
                       for ref in self.scenarios.values()}
        ctx.notes["inputs"] = {"scenarios": sorted(self.scenarios),
                               "scenario_seed": ctx.seed,
                               "epsilon": PRIVATE_EPSILON}

    def setup(self, ctx, reps):
        seconds, summaries = build_datasets(
            ctx, [(ref, ctx.seed, path) for ref, path in self.graphs.items()],
            reps)
        by_ref = dict(zip(self.graphs, summaries))
        self.expected = {name: by_ref[ref]
                         for name, ref in self.scenarios.items()}
        return seconds

    def run_pass(self, ctx, index):
        out = ctx.work / f"figures-{index}.json"
        result, doc = run_batch_op(ctx, [
            ctx.experiments, "--scenario=" + ",".join(self.scenarios),
            f"--seed={ctx.seed}", f"--threads={ctx.threads}"], out)
        if doc is None:
            problems = batch_failure(result)
        else:
            problems = validate.check_figures_doc(doc, self.expected,
                                                  list(self.scenarios))
            ctx.expect_same("figures", validate.digest(
                validate.strip_timing(doc["runs"])))
        ctx.record(f"figures pass {index}", problems)
        return result, doc

    def measure(self, ctx):
        setup_s = self.setup(ctx, SETUP_REPS)
        latencies, peak = [], 0
        for i in range(pass_count(ctx, self.nominal_pass_s)):
            result, _ = self.run_pass(ctx, i)
            latencies.append(result.seconds)
            peak = max(peak, result.maxrss_kb)
        return batch_metrics(ctx, setup_s, latencies, 1, peak)

    def trace(self, ctx):
        self.setup(ctx, 1)
        probe_out = probe_layers(
            ctx, {ref: ref for ref in self.scenarios.values()}, ctx.seed)
        skg = sample_estimates(ctx, probe_out["estimates"])
        _, doc = self.run_pass(ctx, 0)
        session = serve_session(ctx, self.graphs, 1,
                                TRACE_REQUESTS_PER_CLIENT,
                                ctx.work / "trace-accountant.journal")
        return layer_metrics(ctx, probe_out, skg,
                             (doc or {}).get("cache", {}),
                             server_metrics(session))


WORKLOADS = {w.name: w for w in (Sweep, Serve, Figures)}
