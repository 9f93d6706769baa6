"""Turns the raw samples and spans of one perfbench run into metrics.

The C++ program (perfbench/src) reports raw per-call wall times, counters
and, in a traced run, a span file. Everything statistical lives here so
the rules are in one place and tested by test_perfbench.py.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10

# End-to-end metrics: (name, unit, better). Every workload reports all of
# them; "step" and "work" are the workload's unit of closed-loop work
# (see README.md).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("step_ms.p50", "ms", "lower"),
    ("step_ms.p90", "ms", "lower"),
]

# Per-layer metrics of the traced run: (name, unit, better). Every
# workload reports all of them; a layer a workload never calls reads 0.
PER_LAYER = [
    ("apps.process_range_ms", "ms", "lower"),
    ("apps.wall_span_ms", "ms", "lower"),
    ("apps.imbalance", "ratio", "lower"),
    ("agileml.clock_self_ms", "ms", "lower"),
    ("agileml.add_nodes_ms", "ms", "lower"),
    ("agileml.evict_ms", "ms", "lower"),
    ("agileml.recover_ms.d1", "ms", "lower"),
    ("agileml.recover_ms.d2", "ms", "lower"),
    ("agileml.recover_ms.d3", "ms", "lower"),
    ("agileml.useful_clock_ratio", "ratio", "higher"),
    ("agileml.runclock_calls", "count", "higher"),
    ("ps.checkpoint_ms", "ms", "lower"),
    ("ps.checkpoint_mb_per_s", "MB/s", "higher"),
    ("ps.restore_mb_per_s", "MB/s", "higher"),
    ("ps.chunk_reuse_ratio", "ratio", "higher"),
    ("net.bytes_per_clock", "bytes", "lower"),
    ("net.pull_bytes", "bytes", "lower"),
    ("net.push_bytes", "bytes", "lower"),
    ("bidbrain.decide_us.p50", "us", "lower"),
    ("bidbrain.decisions_per_job", "count", "lower"),
    ("proteus.job_self_ms", "ms", "lower"),
    ("market.trace_gen_s", "s", "lower"),
    ("bidbrain.estimator_train_s", "s", "lower"),
    ("obs.emit_overhead_ms", "ms", "lower"),
    ("obs.ledger_events", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, q, min_beyond=MIN_BEYOND):
    """The q-th percentile, refusing when fewer than `min_beyond` samples
    lie beyond its rank: a tail read from too few samples is noise."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n)) if n else 0
    if n - rank < min_beyond:
        raise ValueError(
            "p%g of %d samples leaves %d beyond it; need %d" % (q, n, n - rank, min_beyond))
    return percentile(values, q)


def median(values, default=0.0):
    return statistics.median(values) if values else default


def union_length(intervals):
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """A span's duration minus the part of it its children cover."""
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)]
    return (end - start) - union_length(clipped)


def end_to_end(raw):
    """End-to-end metrics of an untraced run."""
    steps = raw["step_ms"]
    return {
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "work_per_s": raw["work_items"] / raw["work_seconds"],
        "step_ms.p50": median(steps),
        "step_ms.p90": tail_percentile(steps, 90),
    }


def read_spans(path):
    """Spans as dicts, in file order (the parent field indexes this list)."""
    spans = []
    with open(path) as f:
        for line in f:
            name, start, end, parent, sid, worker, attr = line.rstrip("\n").split("\t")
            spans.append({"name": name, "start": int(start), "end": int(end),
                          "parent": int(parent), "id": int(sid), "worker": int(worker),
                          "attr": int(attr)})
    return spans


def per_layer(raw, spans):
    """Per-layer metrics of a traced run, as self times over its spans
    plus the counters the program read at the same boundaries."""
    c = raw["counters"]
    s = raw["series"]
    ms = 1e-6  # ns -> ms
    by_name = {}
    children = {}
    for i, sp in enumerate(spans):
        by_name.setdefault(sp["name"], []).append(i)
        if sp["parent"] >= 0:
            children.setdefault(sp["parent"], []).append(i)

    def durations(name, attr=None):
        return [(spans[i]["end"] - spans[i]["start"]) * ms for i in by_name.get(name, [])
                if attr is None or spans[i]["attr"] == attr]

    out = {name: 0.0 for name, _, _ in PER_LAYER}

    # apps / agileml: per traced RunClock, its ProcessRange children.
    ranges, walls, imbalances, clock_self = [], [], [], []
    for i in by_name.get("agileml.RunClock", []):
        clock = spans[i]
        kids = [spans[k] for k in children.get(i, []) if spans[k]["name"] == "apps.ProcessRange"]
        clock_self.append(self_time((clock["start"], clock["end"]),
                                    [(k["start"], k["end"]) for k in kids]) * ms)
        if not kids:
            continue
        per_worker = {}
        for k in kids:
            per_worker[k["worker"]] = per_worker.get(k["worker"], 0) + k["end"] - k["start"]
        busy = list(per_worker.values())
        ranges.append(sum(busy) * ms)
        walls.append((max(k["end"] for k in kids) - min(k["start"] for k in kids)) * ms)
        mean = sum(busy) / len(busy)
        if mean > 0:
            imbalances.append(max(busy) / mean)
    out["apps.process_range_ms"] = median(ranges)
    out["apps.wall_span_ms"] = median(walls)
    out["apps.imbalance"] = median(imbalances)
    out["agileml.clock_self_ms"] = median(clock_self)
    out["agileml.add_nodes_ms"] = median(durations("agileml.AddNodes"))
    out["agileml.evict_ms"] = median(durations("agileml.Evict"))
    for depth in (1, 2, 3):
        out["agileml.recover_ms.d%d" % depth] = median(
            durations("agileml.RecoveryManager.Recover", attr=depth))

    calls = c.get("runclock_calls", 0)
    if calls:
        out["agileml.runclock_calls"] = calls
        out["agileml.useful_clock_ratio"] = (calls - c.get("lost_clocks", 0)) / calls
        out["net.bytes_per_clock"] = c.get("net.total_bytes", 0) / calls
        out["net.pull_bytes"] = c.get("agileml.pull.bytes", 0) / calls
        out["net.push_bytes"] = c.get("agileml.push.bytes", 0) / calls
        out["obs.ledger_events"] = c.get("obs.ledger_events", 0) / calls

    # ps: checkpoint cadence and durable restores.
    out["ps.checkpoint_ms"] = median(durations("ps.RecoveryManager.OnClockBoundary"))
    if c.get("checkpoint.boundary_ms", 0) > 0:
        out["ps.checkpoint_mb_per_s"] = (
            c["checkpoint.boundary_bytes"] / 1e6 / (c["checkpoint.boundary_ms"] / 1e3))
    if c.get("restore_ms", 0) > 0:
        out["ps.restore_mb_per_s"] = (
            c.get("checkpoint.bytes_restored", 0) / 1e6 / (c["restore_ms"] / 1e3))
    chunks = c.get("checkpoint.chunks_written", 0) + c.get("checkpoint.chunks_reused", 0)
    if chunks:
        out["ps.chunk_reuse_ratio"] = c.get("checkpoint.chunks_reused", 0) / chunks

    # bidbrain / proteus: Decide spans under each traced Proteus job.
    decide = durations("bidbrain.Decide")
    jobs = by_name.get("proteus.JobSimulator.Run", [])
    out["bidbrain.decide_us.p50"] = median(decide) * 1e3
    if jobs:
        out["bidbrain.decisions_per_job"] = len(decide) / len(jobs)
        out["proteus.job_self_ms"] = median([
            self_time((spans[j]["start"], spans[j]["end"]),
                      [(spans[k]["start"], spans[k]["end"]) for k in children.get(j, [])]) * ms
            for j in jobs])
    out["market.trace_gen_s"] = c.get("market.trace_gen_s", 0.0)
    out["bidbrain.estimator_train_s"] = c.get("bidbrain.estimator_train_s", 0.0)

    # obs: the same steps with sinks attached and detached.
    bare = s.get("bare.step_ms", [])
    if bare:
        attached = raw["step_ms"][:len(bare)]
        out["obs.emit_overhead_ms"] = median(attached) - median(bare)

    # The traced run's own overhead: steps with spans on against off.
    on, off = s.get("step_ms.traced", []), s.get("step_ms.untraced", [])
    if on and off:
        out["trace.overhead_pct"] = 100.0 * (median(on) - median(off)) / median(off)
    return out


def informational(workload, raw):
    """The workload-specific timings behind the generic end-to-end names,
    printed for readers: (name, value, unit)."""
    s = raw["series"]
    rows = []
    if workload in ("mf-stage2", "durable-churn"):
        clock = s.get("clock_ms", raw["step_ms"])
        rows.append(("items_per_s", raw["work_items"] / raw["work_seconds"], "1/s"))
        rows.append(("clock_ms.p50", median(clock), "ms"))
        rows.append(("clock_ms.p90", tail_percentile(clock, 90), "ms"))
    if workload == "durable-churn":
        rows.append(("checkpoint_ms.p50", median(s["checkpoint_ms"]), "ms"))
        rows.append(("checkpoint_ms.p90", tail_percentile(s["checkpoint_ms"], 90), "ms"))
        rows.append(("recover_ms.p50", median(s.get("recover_ms", [])), "ms"))
        rows.append(("recover_ms.count", len(s.get("recover_ms", [])), "count"))
    if workload == "market-sim":
        rows.append(("jobs_per_s", raw["work_items"] / raw["work_seconds"], "1/s"))
        rows.append(("job_ms.p50", median(raw["step_ms"]), "ms"))
        rows.append(("job_ms.p90", tail_percentile(raw["step_ms"], 90), "ms"))
    rows.append(("samples", len(raw["step_ms"]), "count"))
    return rows
