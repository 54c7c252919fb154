#!/usr/bin/env python3
"""Benchmark of `symcan serve --stdio`; see README.md next to this file.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds symcan from the checkout's sources (Release), generates the
workload's requests from the seed, drives the real server over its pipes
for S seconds and checks the replies. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end figures, with --trace 1 the
per-layer ledger of BENCHMARK.json.
"""

import sys

sys.dont_write_bytecode = True  # the checkout stays as git would commit it

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(HERE, ".build")
WORK_DIR = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import session  # noqa: E402
import workloads  # noqa: E402

# Server shape and client CPU set per workload: the CPU count covers the
# busy threads (client + server main thread, plus the workers at --jobs 2).
SHAPES = {
    "interactive": {"cpus": 1, "jobs": 1, "batch": 1, "window": 1, "sample_every": 1},
    "bulk_variants": {"cpus": 3, "jobs": 2, "batch": 32, "window": 64, "sample_every": 16},
    "design_session": {"cpus": 1, "jobs": 1, "batch": 1, "window": 1, "sample_every": 4},
}
SETUP_STARTS = 25  # cold starts per run; setup_s is their median
# The timed phase is cut into this many equal windows; the time metrics
# are medians over the windows, so a burst of outside load that hits one
# window does not move them.
WINDOWS = 5
REPLAY_REQUESTS = {"interactive": 2000, "bulk_variants": 256, "design_session": 96}
CLI_CHECKS = 6  # replies byte-compared with the one-shot CLI per run
# Traced run: the layers' self times must cover the traced request total
# to within this share of it.
IDENTITY_TOLERANCE = 0.02
# Purpose checks: the RTA-cache and matrix-memo hit ratios each workload
# is built to produce.
HIT_RATIO_RANGE = {"interactive": (0.95, 1.0), "bulk_variants": (0.0, 0.05)}
SELF_TEST_LINES = 48


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then (re)build the targets; exits 1 on failure."""
    os.makedirs(WORK_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", *targets, "-j",
                  str(min(4, os.cpu_count() or 1))])
    log_path = os.path.join(WORK_DIR, "build.log")
    for i, step in enumerate(steps):
        with open(log_path, "w") as out:
            failed = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0
        if failed:
            with open(log_path) as f:
                log("build failed:\n" + "".join(f.readlines()[-30:]))
            if i == 0 and len(steps) == 2:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)  # configure again next time
            sys.exit(1)


def pin(count):
    """Pin this process, and so every server it spawns, to `count` CPUs:
    the highest-numbered ones it may use."""
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[-count:]
    os.sched_setaffinity(0, cpus)
    return cpus


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# ------------------------------------------------------------------ checks

def table_counts(output, verdict_word, summary_word):
    """(rows, rows whose verdict is `verdict_word`, k and N of the
    '<summary_word>: k/N' line) of an analyze or prob table."""
    lines = output.splitlines()
    summary = [line for line in lines if line.startswith(summary_word + ": ")]
    if len(summary) != 1:
        return None
    k, n = (int(x) for x in summary[0].split(": ")[1].split("/"))
    # Rows follow the header and its rule line and end at the summary.
    rows = lines[lines.index(summary[0]) - n:lines.index(summary[0])]
    flagged = sum(1 for row in rows if row.split()[-1] == verdict_word)
    return len(rows), flagged, k, n


def check_reply(req, reply, problems):
    kind = req["kind"]
    if reply.get("kind") != kind:
        problems.append(f"reply {reply.get('id')}: kind {reply.get('kind')} for a {kind} request")
        return
    output = reply.get("output", "")
    if kind in ("analyze", "prob"):
        counts = (table_counts(output, "MISS", "misses") if kind == "analyze"
                  else table_counts(output, "AT-RISK", "at-risk"))
        if counts is None or counts[0] != counts[3] or counts[1] != counts[2]:
            problems.append(f"reply {reply['id']}: summary line disagrees with the table {counts}")
        elif (reply["exit_code"] == 1) != (counts[2] > 0):
            problems.append(f"reply {reply['id']}: exit code disagrees with the summary line")


def compare_with_cli(symcan, stream, picks, problems):
    """Byte-compare serve replies with the one-shot CLI on the same input."""
    for n, (req, reply) in enumerate(picks):
        csv_path = os.path.join(WORK_DIR, f"check-{n}.csv")
        with open(csv_path, "w") as f:
            f.write(stream.matrix(req["matrix"]).csv)
        cli = subprocess.run([symcan] + workloads.cli_args(req, csv_path), capture_output=True,
                             timeout=120)
        if cli.stdout.decode() != reply.get("output", "") or cli.returncode != reply["exit_code"]:
            problems.append(f"reply {reply['id']} ({req['kind']}) differs from `symcan "
                            f"{' '.join(workloads.cli_args(req, csv_path)[:1])}` "
                            f"(exit {cli.returncode} vs {reply['exit_code']})")


def self_test_streams(name, seed, symcan, problems):
    """Same seed -> byte-identical request stream; another seed -> another."""
    def prefix(s):
        stream = workloads.WORKLOADS[name](symcan, s)
        return b"".join(stream.next()[1] for _ in range(SELF_TEST_LINES))
    a, b, c = prefix(seed), prefix(seed), prefix(seed + 1)
    if a != b:
        problems.append("self-test: the same seed gave two different request streams")
    if a == c:
        problems.append("self-test: two seeds gave the same request stream")


def check_purpose(name, health, telemetry, problems):
    ring, captain, requests = health["ring"], health["captain"], health["requests"]
    refused = {"ring.rejected": ring["rejected"], "ring.timed_out": ring["timed_out"],
               "ring.dropped_oldest": ring["dropped_oldest"], "requests.shed": requests["shed"],
               "requests.invalid": requests["invalid"],
               "captain.sheds": captain["shed_optimize"] + captain["shed_explain"]
               + captain["shed_prob"],
               "telemetry.window.shed": telemetry["window"]["shed"]}
    for what, count in refused.items():
        if count:
            problems.append(f"purpose: {what} = {count}, expected 0")
    if name in HIT_RATIO_RANGE:
        lo, hi = HIT_RATIO_RANGE[name]
        for what, ratio in hit_ratios(health).items():
            if not lo <= ratio <= hi:
                problems.append(f"purpose: {what} hit ratio {ratio:.4f} outside [{lo}, {hi}]")


def hit_ratios(health):
    rta, memo = health["rta_cache"], health["matrix_cache"]
    ratio = (lambda h, m: h / (h + m) if h + m else 0.0)
    return {"analysis.cache": ratio(rta["hits"], rta["misses"]),
            "serve.matrix_cache": ratio(memo["hits"], memo["misses"])}


# ----------------------------------------------------------------- the run

class Recorder:
    """Collects what the replies say while the loop runs; the expensive
    checks run on the kept replies after the timed phase."""

    def __init__(self, sample_every, seed):
        self.sample_every = sample_every
        self.offset = workloads.mix(seed) % sample_every
        self.timed = False
        self.pid = None
        self.window_s = None
        self.first_timed = None
        self.latencies = []
        self.edges = []  # (time, server CPU seconds, replies so far) per window edge
        self.by_key = {}  # interactive: key -> (req, first reply, reply without its id)
        self.kept = []  # (req, reply line)
        self.mismatches = 0
        self.bound_violations = 0

    def start_timed(self, pid, seconds):
        self.timed = True
        self.pid = pid
        self.window_s = seconds / WINDOWS
        self.edges = [(time.perf_counter(), session.cpu_seconds(pid), 0)]

    def end_timed(self):
        self.timed = False
        self.edges.append((time.perf_counter(), session.cpu_seconds(self.pid),
                           len(self.latencies)))

    def windows(self):
        """(seconds, server CPU seconds, latencies) of each window."""
        return [(t1 - t0, c1 - c0, self.latencies[n0:n1])
                for (t0, c0, n0), (t1, c1, n1) in zip(self.edges, self.edges[1:]) if n1 > n0]

    def __call__(self, k, req, line, latency):
        if self.timed:
            if self.first_timed is None:
                self.first_timed = k
            self.latencies.append(latency)
            if len(self.edges) < WINDOWS:
                now = time.perf_counter()
                if now >= self.edges[0][0] + len(self.edges) * self.window_s:
                    self.edges.append((now, session.cpu_seconds(self.pid),
                                       len(self.latencies)))
        if req["kind"] == "validate" and session.reply_status(line) != b"ok":
            self.bound_violations += 1  # validate exits 0 unless a response crossed its bound
        key = req["key"]
        if key is not None:
            tail = line[line.index(b',"kind":'):]
            if key not in self.by_key:
                self.by_key[key] = (req, line, tail)
            elif self.by_key[key][2] != tail:
                self.mismatches += 1
        elif k % self.sample_every == self.offset:
            self.kept.append((req, line))


def serve_run(name, seed, seconds, symcan, shape):
    stream = workloads.WORKLOADS[name](symcan, seed)
    flight_path = os.path.join(WORK_DIR, f"flight-{name}.jsonl")
    rec = Recorder(shape["sample_every"], seed)
    s = session.Session(symcan, shape["jobs"], shape["batch"], shape["window"], flight_path)
    try:
        warm = s.run(stream, rec, count=stream.warmup_count())
        rec.start_timed(s.pid, seconds)
        n = s.run(stream, rec, seconds=seconds)
        rec.end_timed()
        rss = session.peak_rss_mb(s.pid)
        health, telemetry, flight = s.finish()
    finally:
        s.close()
    return {"stream": stream, "rec": rec, "warm": warm, "n": n, "rss": rss, "health": health,
            "telemetry": telemetry, "flight": flight, "failures": s.failures}


def check_run(name, seed, symcan, run, problems):
    rec = run["rec"]
    if rec.mismatches:
        problems.append(f"{rec.mismatches} replies differ from earlier replies to the same request")
    if rec.bound_violations:
        problems.append(f"{rec.bound_violations} validate replies: a simulated response crossed its bound")
    check_purpose(name, run["health"], run["telemetry"], problems)
    kept = [(req, json.loads(line)) for req, line in rec.kept]
    kept += [(req, json.loads(line)) for req, line, _ in rec.by_key.values()]
    for req, reply in kept:
        check_reply(req, reply, problems)
    # A seeded pick of kept replies, spread over the request kinds.
    rng = workloads.Rng(seed ^ 0x5EED)
    by_kind = {}
    for req, reply in kept:
        by_kind.setdefault(req["kind"], []).append((req, reply))
    picks = []
    kinds = sorted(by_kind)
    for i in range(CLI_CHECKS):
        pool = by_kind[kinds[i % len(kinds)]]
        picks.append(pool[rng.below(len(pool))])
    compare_with_cli(symcan, run["stream"], picks, problems)


def end_to_end(run, setup):
    windows = [(wall, cpu, sorted(lat)) for wall, cpu, lat in run["rec"].windows()]
    median = (lambda f: statistics.median(f(*w) for w in windows))
    return {
        "setup_s": (setup, "s"),
        "throughput_rps": (median(lambda wall, cpu, lat: len(lat) / wall), "1/s"),
        "latency_p50_ms": (median(lambda wall, cpu, lat: percentile(lat, 0.50) * 1e3), "ms"),
        "latency_p99_ms": (median(lambda wall, cpu, lat: percentile(lat, 0.99) * 1e3), "ms"),
        "cpu_ms_per_req": (median(lambda wall, cpu, lat: cpu * 1e3 / len(lat)), "ms"),
        "peak_rss_mb": (run["rss"], "MB"),
    }


def replay(name, seed, symcan, run, problems):
    """The in-process traced run over the session's first requests."""
    warm, measure = run["warm"], REPLAY_REQUESTS[name]
    stream = workloads.WORKLOADS[name](symcan, seed)
    stream._matrices = run["stream"]._matrices  # same seed, same matrices
    path = os.path.join(WORK_DIR, f"replay-{name}.jsonl")
    with open(path, "wb") as f:
        for _ in range(warm + measure):
            f.write(stream.next()[1])
    out = subprocess.run([os.path.join(BUILD_DIR, "perfbench_replay"), path, "--warmup",
                          str(warm), "--measure", str(measure)], capture_output=True, text=True,
                         timeout=170, check=True)
    r = json.loads(out.stdout)
    if not r["digests_equal"]:
        problems.append("trace: traced and untraced replays wrote different replies")
    if r["failed"]:
        problems.append(f"trace: {r['failed']} replayed requests were not answered")
    layer_sum = sum(r["layers"].values())
    if abs(r["traced_total_us"] - layer_sum) > IDENTITY_TOLERANCE * r["traced_total_us"]:
        problems.append(f"trace: layer self times {layer_sum:.0f} us do not add up to the "
                        f"request total {r['traced_total_us']:.0f} us")
    return r, layer_sum


def per_layer(run, r, layer_sum):
    n = r["requests"]
    self_us = {k: v / n for k, v in r["layers"].items()}
    ingest_s = r["layers"]["can.ingest"] / 1e6
    prob = r["prob_cache"]
    # Server-side times of the timed phase's requests, from the flight dump.
    first = run["rec"].first_timed
    lat = run["rec"].latencies
    records = [rec for rec in run["flight"] if rec["id"].isdigit() and int(rec["id"]) >= first]
    service = [rec["service_ns"] / 1e3 for rec in records]
    queue = [rec["queue_wait_ns"] / 1e3 for rec in records]
    transport = [lat[int(rec["id"]) - first] * 1e6 - (rec["queue_wait_ns"] + rec["service_ns"]) / 1e3
                 for rec in records if int(rec["id"]) - first < len(lat)]
    health = run["health"]
    ratios = hit_ratios(health)
    sent = health["requests"]["handled"]
    m = {
        "serve.decode_us": (self_us["serve.decode"], "us"),
        "serve.encode_us": (self_us["serve.encode"], "us"),
        "serve.core_us": (self_us["serve.core"], "us"),
        "serve.transport_us": (statistics.median(transport), "us"),
        "serve.service_us": (statistics.fmean(service), "us"),
        "serve.queue_wait_us": (statistics.fmean(queue), "us"),
        "serve.matrix_cache.hit_ratio": (ratios["serve.matrix_cache"], "ratio"),
        "pipeline.matrix_spec_us": (self_us["pipeline.matrix_spec"], "us"),
        "pipeline.render_us": (self_us["pipeline.render"], "us"),
        "pipeline.output_bytes": (r["output_bytes"] / n, "bytes"),
        "can.ingest_us": (self_us["can.ingest"], "us"),
        "can.ingest_mb_per_s": (r["ingest_bytes"] / 1e6 / ingest_s if ingest_s else 0.0, "MB/s"),
        "can.validate_us": (self_us["can.validate"], "us"),
        "analysis.load_us": (self_us["analysis.load"], "us"),
        "analysis.cache_hit_us": (self_us["analysis.cache"] + self_us["analysis.fingerprint"],
                                  "us"),
        "analysis.cache.hit_ratio": (ratios["analysis.cache"], "ratio"),
        "analysis.cache.evictions": (health["rta_cache"]["evictions"] / sent, "1/req"),
        "analysis.pack_us": (self_us["analysis.pack"], "us"),
        "analysis.solve_us": (self_us["analysis.solve"], "us"),
        "analysis.fixedpoint_iters": (r["fixedpoint_iters"] / n, "count"),
        "analysis.explain_us": (self_us["analysis.explain"], "us"),
        "analysis.prob_us": (self_us["analysis.prob"], "us"),
        "analysis.prob.cache.hit_ratio": (
            prob["hits"] / (prob["hits"] + prob["misses"]) if prob["hits"] + prob["misses"]
            else 0.0, "ratio"),
        "sim.validate_us": (self_us["sim.validate"], "us"),
        "opt.ga_us": (self_us["opt.ga"], "us"),
        "opt.evaluations": (r["ga_evaluations"] / n, "count"),
        "trace.request_us": (r["traced_total_us"] / n, "us"),
        "trace.untraced_request_us": (r["untraced_total_us"] / n, "us"),
        "trace.overhead_us": ((r["traced_fastest_us"] - r["untraced_fastest_us"]) * r["passes"] / n,
                              "us"),
        "trace.unattributed_us": ((r["traced_total_us"] - layer_sum) / n, "us"),
    }
    return m


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SHAPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    declared = declared_metrics(args.trace)

    build(["symcan_tool"] + (["perfbench_replay"] if args.trace else []))
    symcan = os.path.join(BUILD_DIR, "symcan")
    shape = SHAPES[args.workload]
    cpus = pin(shape["cpus"])
    log(f"{args.workload}: seed {args.seed}, cpus {cpus}, --jobs {shape['jobs']} "
        f"--batch {shape['batch']}, window {shape['window']}")

    problems = []
    self_test_streams(args.workload, args.seed, symcan, problems)
    if not args.trace:
        setup = statistics.median(session.setup_seconds(symcan, shape["jobs"], shape["batch"])
                                  for _ in range(SETUP_STARTS))
    run = serve_run(args.workload, args.seed, args.seconds, symcan, shape)
    check_run(args.workload, args.seed, symcan, run, problems)
    if args.trace:
        r, layer_sum = replay(args.workload, args.seed, symcan, run, problems)
        metrics = per_layer(run, r, layer_sum)
    else:
        metrics = end_to_end(run, setup)

    if {k: u for k, (_, u) in metrics.items()} != declared:
        problems.append("self-test: emitted metrics differ from BENCHMARK.json")
    for p in problems:
        log("FAILED " + p)
    failed = run["failures"] + run["rec"].mismatches + len(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["n"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
