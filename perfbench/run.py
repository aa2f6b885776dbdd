#!/usr/bin/env python3
"""BOOMER repository benchmark: build, run one workload, report metrics.

    python3 perfbench/run.py --workload blend_flickr --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the program's libraries, boomer_served and the
harness, Release) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally.

--trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
the same work untraced and then traced, and prints the per-layer metrics
plus the tracing overhead. Every metric is printed as a table (value, unit,
sample count, tail percentile) and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A wrong, truncated or failed session makes the command exit 1.
See perfbench/NOTES.md for the workloads and the metric definitions.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("blend_flickr", "serve_wire", "serve_pressure")
# Whole-command limit: a run must finish inside 180 s; leave margin.
RUN_LIMIT_S = 170.0
# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 70.0,
               60.0, 50.0)

# ---------------------------------------------------------------------------
# Statistics


def rank(p, n):
    """1-based nearest rank of percentile `p` (0-100] among n samples."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in binary.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p):
    """Nearest-rank percentile `p` (0-100] of a non-empty sample."""
    return sorted(values)[rank(p, len(values)) - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least 10 samples beyond it.

    With nearest rank, the samples beyond percentile p are n - rank(p, n).
    Returns None when even the median has fewer than 10 beyond (n < 20).
    """
    for p in TAIL_LADDER:
        if n - rank(p, n) >= 10:
            return p
    return None


def p50_and_tail(values):
    """(p50, tail value, tail percentile label, n) of a sample."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, "-", 0
    p = tail_percentile(n)
    if p is None:
        return percentile(values, 50), max(values), "max", n
    return percentile(values, 50), percentile(values, p), "p%g" % p, n


def per_trace_p50(sessions, key):
    """(Mean over traces of each trace's median `key`, trace count).

    Every repetition of a trace replays identical work, so a trace's
    median is its typical value; each trace weighs the same.
    """
    by_trace = {}
    for s in sessions:
        by_trace.setdefault(s["trace"], []).append(s[key])
    if not by_trace:
        return 0.0, 0
    return (statistics.mean(percentile(v, 50) for v in by_trace.values()),
            len(by_trace))


def self_times(spans):
    """Self time per layer, in ms, from (id, parent, layer, start, end).

    A span's self time is its duration minus the union of its children's
    intervals (children run on the parent's thread, so they are disjoint
    and nested; the union is their summed duration clipped to the parent).
    """
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for sid, parent, _layer, start, end in spans:
        if parent in by_id:
            p = by_id[parent]
            overlap = min(end, p[4]) - max(start, p[3])
            if overlap > 0:
                child_ns[parent] = child_ns.get(parent, 0) + overlap
    out = {}
    for sid, _parent, layer, start, end in spans:
        own = max(0, (end - start) - child_ns.get(sid, 0))
        out[layer] = out.get(layer, 0.0) + own / 1e6
    return out


def read_spans(path):
    spans = []
    sessions = set()
    with open(path) as f:
        for line in f:
            sid, parent, session, layer, _name, start, end = \
                line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), layer, int(start), int(end)))
            if session != "0":
                sessions.add(session)
    return spans, len(sessions)

# ---------------------------------------------------------------------------
# Metric assembly


class Report:
    """Ordered metrics plus the detail printed in the table."""

    def __init__(self):
        self.rows = []  # (name, value, unit, detail)

    def add(self, name, value, unit, detail=""):
        self.rows.append((name, float(value), unit, detail))

    def dist(self, base, values, unit, p50_of=None):
        """Adds <base>_p50_<unit> and <base>_tail_<unit>. With `p50_of`
        (sessions, key), the p50 is per_trace_p50 of it instead."""
        p50, tail, label, n = p50_and_tail(values)
        detail = "n=%d" % n
        if p50_of is not None:
            p50, traces = per_trace_p50(*p50_of)
            detail += ", mean of %d per-trace medians" % traces
        self.add("%s_p50_%s" % (base, unit), p50, unit, detail)
        self.add("%s_tail_%s" % (base, unit), tail, unit,
                 "%s n=%d" % (label, n))

    def metrics(self):
        return {name: {"value": value, "unit": unit}
                for name, value, unit, _ in self.rows}

    def table(self):
        width = max([len(r[0]) for r in self.rows] + [10])
        lines = []
        for name, value, unit, detail in self.rows:
            lines.append("  %-*s %14.6g %-6s %s" %
                         (width, name, value, unit, detail))
        return "\n".join(lines)


def hist(metrics, name):
    return metrics.get("histograms", {}).get(name, {})


def hist_p50_tail(metrics, name):
    """(p50 ms, tail ms, label) of a server-side pow2 histogram."""
    h = hist(metrics, name)
    count = h.get("count", 0)
    if count == 0:
        return 0.0, 0.0, "n=0"
    if count >= 1000:
        tail, label = h["p99_us"], "p99"
    elif count >= 200:
        tail, label = h["p95_us"], "p95"
    else:
        tail, label = h["p50_us"], "p50"
    return h["p50_us"] / 1e3, tail / 1e3, "%s n=%d (histogram)" % (label,
                                                                   count)


def counter_delta(phase, name):
    before = phase.get("metrics_before", {}).get("counters", {})
    after = phase.get("metrics_after", {}).get("counters", {})
    return after.get(name, 0) - before.get(name, 0)


def repeat_signature(session, with_within):
    keys = ["edges_immediate", "edges_idle", "edges_at_run", "pairs_added",
            "results"]
    if with_within:
        keys.append("within_lookups")
    return [session.get(k) for k in keys]


def repeat_check(record, state_path):
    """Sessions whose work counts differ from the first repetition of the
    same trace, within this run and against earlier runs of this seed."""
    differ = 0
    for phase in record["phases"]:
        first = {}
        for s in phase["sessions"]:
            sig = repeat_signature(s, phase["traced"])
            t = s["trace"]
            if t not in first:
                first[t] = sig
            elif sig != first[t]:
                differ += 1
    # Across runs: the untraced signatures of this (workload, seed).
    current = {}
    for s in record["phases"][0]["sessions"]:
        current.setdefault(str(s["trace"]), repeat_signature(s, False))
    previous = {}
    if os.path.exists(state_path):
        with open(state_path) as f:
            previous = json.load(f)
    else:
        with open(state_path, "w") as f:
            json.dump(current, f)
    across = sum(1 for s in record["phases"][0]["sessions"]
                 if str(s["trace"]) in previous and
                 repeat_signature(s, False) != previous[str(s["trace"])])
    return differ, across


# Workloads whose srt_p50 is per_trace_p50. There a Run can queue behind
# other sessions' work, which skews each trace's SRT to the right; the
# pooled median then falls between trace clusters and moves with the share
# of Runs that queued, which follows the shared host's load.
SRT_P50_PER_TRACE = ("serve_pressure",)


def session_rate(phase, sessions):
    """(Sessions completed per second of the measured phase, detail).

    blend_flickr runs one session at a time, so its rate is one over the
    session time; it uses the median session, as the mean follows the few
    heaviest sessions, which host memory contention moves most. (Its result
    check between sessions is excluded either way.)
    """
    if "session_wall_s" in phase:
        return (1e3 / statistics.median(s["session_ms"] for s in sessions),
                "1 / median session, %d sessions" % len(sessions))
    last = max(s["end_s"] for s in sessions)
    return (len(sessions) / (last - phase["start_s"]),
            "%d sessions over the measured phase" % len(sessions))


def end_to_end(record):
    rep = Report()
    phase = record["phases"][0]  # untraced
    sessions = phase["sessions"]
    ok = [s for s in sessions if s["correct"]]
    rep.add("setup_s", statistics.median(record["setup_s"]), "s",
            "median of %d setups" % len(record["setup_s"]))
    per_trace = record["workload"] in SRT_P50_PER_TRACE
    rep.dist("srt", [s["srt_ms"] for s in ok], "ms",
             p50_of=(ok, "srt_ms") if per_trace else None)
    rep.dist("session", [s["session_ms"] for s in ok], "ms")
    rate, detail = session_rate(phase, ok)
    rep.add("sessions_per_s", rate, "1/s", detail)
    rep.add("correct_share", len(ok) / max(1, phase["attempted"]), "ratio",
            "%d / %d" % (len(ok), phase["attempted"]))
    rep.add("peak_rss_mb", record["peak_rss_mb"], "MB",
            "serving process VmHWM")
    return rep


def per_layer(record, spans, span_sessions, repeat):
    """Per-layer metrics of the traced phase (see NOTES.md for sources)."""
    w = record["workload"]
    cfg = record["config"]
    untraced, traced = record["phases"][0], record["phases"][1]
    sess = traced["sessions"]
    n = max(1, len(sess))
    rep = Report()

    def col(key):
        return [s[key] for s in sess if key in s]

    def mean(key):
        v = col(key)
        return sum(v) / len(v) if v else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    # graph / pml
    rep.add("graph.gen_s", median(record.get("graph_gen_s", [])), "s")
    rep.add("pml.build_s", median(record.get("pml_build_s", [])), "s")
    pml = record.get("pml", {})
    rep.add("pml.label_entries", pml.get("label_entries", 0), "count")
    rep.add("pml.index_mb", pml.get("index_mb", 0), "MB")
    rep.add("pml.t_avg_us", pml.get("t_avg_us", 0), "us")
    if w == "blend_flickr":
        within = mean("within_lookups")
    else:
        within = counter_delta(traced, "pml.within_lookups") / n
    rep.add("pml.within_lookups", within, "count", "per session")

    # core
    if w == "serve_wire":
        m = traced["metrics_after"]
        runs = max(1, counter_delta(traced, "blend.runs"))
        span = m.get("spans", {}).get("blend.run", {})
        run_mean = span.get("total_us", 0) / max(1, span.get("hits", 0)) / 1e3
        rep.add("core.run_p50_ms", run_mean, "ms", "server span mean")
        rep.add("core.run_tail_ms", hist_p50_tail(m, "blend.srt_us")[1], "ms",
                "server blend.srt_us tail")
        for base, h in (("core.backlog", "blend.run_backlog_us"),
                        ("core.drain", "blend.run_drain_us"),
                        ("core.enum", "blend.run_enum_us")):
            p50, tail, label = hist_p50_tail(m, h)
            rep.add(base + "_p50_ms", p50, "ms", "server histogram")
            rep.add(base + "_tail_ms", tail, "ms", label)
        rep.add("core.formulation_ms",
                hist_p50_tail(m, "blend.formulation_blend_us")[0], "ms",
                "server histogram p50")
        for key, counter in (("core.edges_immediate", "blend.edges_immediate"),
                             ("core.edges_idle", "blend.edges_idle"),
                             ("core.edges_at_run", "blend.edges_at_run"),
                             ("core.pairs_added", "cap.pairs_added"),
                             ("core.prune_removals", "cap.prune_removals")):
            rep.add(key, counter_delta(traced, counter) / runs, "count",
                    "per session")
    else:
        rep.dist("core.run", col("run_ms"), "ms")
        rep.dist("core.backlog", col("backlog_ms"), "ms")
        rep.dist("core.drain", col("drain_ms"), "ms")
        rep.dist("core.enum", col("enum_ms"), "ms")
        rep.add("core.formulation_ms", median(col("formulation_ms")), "ms",
                "p50 per session")
        for key in ("edges_immediate", "edges_idle", "edges_at_run",
                    "pairs_added", "prune_removals"):
            rep.add("core." + key, mean(key), "count", "per session")
    rep.add("core.results", mean("results"), "count", "per session")
    rep.dist("core.act_edge", traced.get("act_edge_ms", []), "ms")
    rep.dist("core.act_modify", traced.get("act_modify_ms", []), "ms")
    rep.add("core.cap_mb", median(col("cap_mb")), "MB", "p50 at Run")
    rep.add("core.capped_sessions", sum(1 for s in sess if s.get("capped")),
            "count", "sessions at the result cap")

    # serve
    if w == "serve_pressure":
        rep.dist("serve.run_overhead", col("run_overhead_ms"), "ms")
    elif w == "serve_wire":
        m = traced["metrics_after"]
        srt = percentile(col("srt_ms"), 50) if sess else 0.0
        server = (hist_p50_tail(m, "blend.run_drain_us")[0] +
                  hist_p50_tail(m, "blend.run_enum_us")[0])
        rep.add("serve.run_overhead_p50_ms", srt - server, "ms",
                "client SRT p50 - server drain+enum p50")
        rep.add("serve.run_overhead_tail_ms", 0.0, "ms", "not per session")
    else:
        rep.dist("serve.run_overhead", [], "ms")
    rep.dist("serve.submit", traced.get("submit_us", []), "us")
    rep.add("serve.admission_ms", median(traced.get("admission_ms", [])), "ms",
            "p50")
    stats = traced.get("serve_stats")
    if stats is None:  # serve_wire: the daemon's obs counters
        stats = {k: counter_delta(traced, "serve." + k) for k in (
            "sessions_degraded", "session_spills", "spill_failures",
            "evictions", "sessions_resumed", "shed_stalls")}
        stats["actions_rejected"] = 0
    for key, src in (("serve.degraded", "sessions_degraded"),
                     ("serve.spills", "session_spills"),
                     ("serve.spill_failures", "spill_failures"),
                     ("serve.evictions", "evictions"),
                     ("serve.resumes", "sessions_resumed"),
                     ("serve.shed_stalls", "shed_stalls"),
                     ("serve.actions_rejected", "actions_rejected")):
        rep.add(key, stats.get(src, 0) / n, "count", "per session")
    rep.add("serve.cancelled_runs", mean("cancelled_runs"), "count",
            "Runs the shedder cancelled, per session")
    rep.add("serve.cap_mb_peak", stats.get("peak_cap_bytes", 0) / 1048576.0,
            "MB")
    rep.add("serve.spilled_mb_peak",
            stats.get("peak_spilled_bytes", 0) / 1048576.0, "MB")
    rep.add("serve.result_mb_peak",
            traced.get("result_bytes_peak", 0) / 1048576.0, "MB",
            "unbudgeted: results held by open sessions")
    rep.add("serve.budget_mb", cfg.get("budget_mb", 0), "MB")

    # util.wal / util.spill
    rep.add("wal.appends", counter_delta(traced, "wal.appends") / n, "count",
            "per session")
    rep.add("wal.syncs", counter_delta(traced, "wal.syncs") / n, "count",
            "per session")
    rep.add("wal.fsync_p50_us",
            hist(traced.get("metrics_after", {}), "wal.fsync_us")
            .get("p50_us", 0.0), "us", "server histogram")
    if w == "serve_wire":
        spilled = counter_delta(traced, "blend.levels_spilled") / n
        faulted = counter_delta(traced, "blend.levels_faulted_in") / n
        rebuilds = counter_delta(traced, "blend.spill_rebuilds") / n
    else:
        spilled, faulted = mean("levels_spilled"), mean("levels_faulted_in")
        rebuilds = mean("spill_rebuilds")
    rep.add("spill.levels_spilled", spilled, "count", "per session")
    rep.add("spill.levels_faulted_in", faulted, "count", "per session")
    rep.add("spill.rebuilds", rebuilds, "count", "per session")

    # net
    for verb in ("open", "act", "poll", "results_page", "close"):
        rep.dist("net." + verb, traced.get("net_%s_ms" % verb, []), "ms")
    rep.add("net.polls_per_run", mean("polls"), "count", "per session")
    rep.add("net.frames_per_session", mean("frames"), "count")
    rep.add("net.protocol_errors", counter_delta(traced, "net.protocol_errors"),
            "count")
    rep.add("net.poll_interval_ms", cfg.get("poll_interval_ms", 0), "ms")
    if w == "serve_wire":
        residual = [s["session_ms"] - s["verbs_ms"] - s["poll_sleep_ms"]
                    for s in sess]
        p50 = percentile(residual, 50) if residual else 0.0
        sp50 = percentile(col("session_ms"), 50) if sess else 1.0
        rep.add("net.residual_p50_ms", p50, "ms",
                "session - verb round trips - poll sleeps")
        rep.add("net.residual_share", p50 / sp50 if sp50 else 0.0, "ratio",
                "of session_p50_ms")
    else:
        rep.add("net.residual_p50_ms", 0.0, "ms")
        rep.add("net.residual_share", 0.0, "ratio")

    # load generator
    late = traced.get("late_ms", [])
    rep.add("load.late_p50_ms", percentile(late, 50) if late else 0.0, "ms")
    rep.add("load.late_max_ms", max(late) if late else 0.0, "ms")

    # work-repeat self-check
    rep.add("repeat.sessions_differ", repeat[0], "count", "within this run")
    rep.add("repeat.sessions_differ_across_runs", repeat[1], "count",
            "against the first run of this seed")

    # tracing: self time per layer and overhead
    selfs = self_times(spans) if spans else {}
    for layer in ("bench", "graph", "pml", "core", "serve", "net"):
        rep.add("self.%s_ms" % layer, selfs.get(layer, 0.0), "ms",
                "traced run total")
    rep.add("trace.spans", len(spans), "count",
            "%d sessions tagged" % span_sessions)
    base = percentile([s["session_ms"] for s in untraced["sessions"]], 50) \
        if untraced["sessions"] else 0.0
    with_trace = percentile(col("session_ms"), 50) if sess else 0.0
    rep.add("trace.overhead_pct",
            100.0 * (with_trace - base) / base if base else 0.0, "%",
            "session_p50 traced vs untraced")
    return rep

# ---------------------------------------------------------------------------
# Build and run


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    src = os.path.join(root, "src")
    if not (os.path.isdir(src) and
            os.path.isfile(os.path.join(root, "tools", "boomer_served.cc"))):
        fail("no program source next to perfbench/ (run from the "
             "repository root)")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
            if rc != 0:
                fail("cmake configure failed; see " + log_path)
        rc = subprocess.call(
            ["cmake", "--build", build_dir, "-j", jobs, "--target",
             "perfbench_harness", "boomer_served"], stdout=log, stderr=log)
        if rc != 0:
            fail("build failed; see " + log_path)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--inject-wrong-result", action="store_true",
                    help="self-test: corrupt one session's results")
    args = ap.parse_args(argv)
    started = time.monotonic()

    root = os.path.dirname(HERE)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    build(root, build_dir)

    run_dir = os.path.join(build_dir, "runs")
    work_dir = os.path.join(run_dir, "work-%s-%d" % (args.workload,
                                                      os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    record_path = os.path.join(run_dir, "last-%s.json" % args.workload)
    cmd = [os.path.join(build_dir, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", record_path,
           "--work-dir", work_dir,
           "--served-bin", os.path.join(build_dir, "boomer_served")]
    if args.trace:
        cmd.append("--trace")
    if args.quick:
        cmd.append("--quick")
    if args.inject_wrong_result:
        cmd.append("--inject-wrong-result")
    # Budget: the harness gets what is left of the run limit; a first run
    # that had to build gets a fresh one.
    elapsed = time.monotonic() - started
    budget = RUN_LIMIT_S - (elapsed if elapsed < 60 else 0)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=budget)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("harness exceeded %.0f s" % budget)
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    with open(record_path) as f:
        record = json.load(f)

    spans, span_sessions = [], 0
    if args.trace:
        spans, span_sessions = read_spans(record_path + ".spans")
        os.remove(record_path + ".spans")

    attempted = sum(p["attempted"] for p in record["phases"])
    failed = attempted - sum(s["correct"] for p in record["phases"]
                             for s in p["sessions"])
    correct = failed == 0 and attempted > 0

    # Keyed by the traces' digest too: another trace set is another test.
    state = os.path.join(run_dir, "repeat-%s-%d-%s.json" % (
        args.workload, args.seed, record["config"]["traces_digest"]))
    e2e = end_to_end(record)
    cfg = record["config"]
    print("perfbench %s seed %d: %s@%g, %d traces, %d sessions per phase, "
          "clients %s, workers %s, connections %s" % (
              args.workload, args.seed, cfg["dataset"], cfg["scale"],
              cfg["traces"], len(record["phases"][0]["sessions"]),
              cfg.get("clients"), cfg.get("workers"),
              cfg.get("connections")))
    print("end-to-end (untraced):")
    print(e2e.table())
    if args.trace:
        layers = per_layer(record, spans, span_sessions,
                           repeat_check(record, state))
        print("per-layer (traced):")
        print(layers.table())
        metrics = layers.metrics()
    else:
        repeat_check(record, state)
        metrics = e2e.metrics()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
