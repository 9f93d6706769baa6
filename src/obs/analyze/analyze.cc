#include "src/obs/analyze/analyze.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/obs/catalog.h"
#include "src/obs/json.h"

namespace proteus {
namespace obs {
namespace analyze {

namespace {

void AppendField(std::string& out, const char* key, double value, bool first = false) {
  if (!first) {
    out += ',';
  }
  out += '"';
  out += key;
  out += "\":";
  out += FormatJsonNumber(value);
}

// One executed training clock, as read from a ledger "clock" event.
struct Execution {
  int run = 0;
  std::int64_t index = 0;  // Training clock index this execution computed.
  double dur = 0.0;
  double t_compute = 0.0;
  double t_transport = 0.0;
  double stall = 0.0;
  double barrier = 0.0;
  std::int64_t workers = 0;
  std::int64_t reliable_nodes = 0;
  std::int64_t transient_nodes = 0;
  std::int64_t bottleneck_node = -1;
  std::string gate;  // "compute" or "transport".
  bool args_ok = false;
  bool wasted = false;  // Discarded by a later rollback.
  bool redo = false;    // Re-execution of a previously completed index.
};

struct RecoveryStep {
  int run = 0;
  double ts = 0.0;
  std::int64_t failed = 0;
  std::string depth;
  std::int64_t lost_clocks = 0;
  std::int64_t restored_clock = 0;
  std::int64_t durable_epoch = -1;
  std::int64_t used_durable = 0;
  std::int64_t corrupt_epochs_skipped = 0;
};

struct RunSegment {
  std::int64_t clocks_run = -1;  // From the run event's close args; -1 = unknown.
  std::int64_t clock_events = 0;
};

}  // namespace

AnalyzeResult AnalyzeRun(const std::string& ledger_jsonl, const std::string& trace_json,
                         const std::string& metrics_json, const AnalyzeOptions& options) {
  AnalyzeResult result;

  std::vector<JsonValue> events;
  std::string parse_error;
  if (!ParseJsonLines(ledger_jsonl, &events, &parse_error)) {
    result.error = "ledger: " + parse_error;
    result.ledger_gaps = 1;
    return result;
  }

  // ------------------------------------------------------------------
  // Pass over the event stream: segment by "run" regions, collect clock
  // executions, apply rollback invalidation, gather recovery steps.
  std::vector<Execution> executions;
  std::vector<RecoveryStep> recoveries;
  std::vector<RunSegment> runs;
  std::int64_t rollback_count = 0;
  std::int64_t rollback_lost_clocks = 0;
  std::map<std::string, std::int64_t> rollbacks_by_kind;
  std::int64_t violations = 0;
  double billed_cost = 0.0;  // Last proteus cost sample, when present.

  int current_run = -1;
  std::int64_t max_next_index = 0;  // One past the highest index executed this run.
  std::size_t run_first_execution = 0;

  std::uint64_t expected_id = 1;
  for (const JsonValue& event : events) {
    const std::uint64_t id = static_cast<std::uint64_t>(event.NumberField("id"));
    if (id != expected_id) {
      ++result.ledger_gaps;
      expected_id = id;
    }
    ++expected_id;

    const std::string kind = event.StringField("kind");
    const JsonValue* args = event.Find("args");

    if (kind == EventName(Ev::kRun)) {
      ++current_run;
      RunSegment segment;
      if (args != nullptr && args->Find("clocks_run") != nullptr) {
        segment.clocks_run = args->IntField("clocks_run");
      }
      runs.push_back(segment);
      max_next_index = 0;
      run_first_execution = executions.size();
      continue;
    }
    if (kind == EventName(Ev::kClock)) {
      Execution exec;
      exec.run = current_run;
      exec.dur = event.NumberField("dur");
      if (args != nullptr) {
        exec.index = args->IntField("clock", -1);
        exec.t_compute = args->NumberField("t_compute");
        exec.t_transport = args->NumberField("t_transport");
        exec.stall = args->NumberField("stall");
        exec.barrier = args->NumberField("barrier");
        exec.workers = args->IntField("workers");
        exec.reliable_nodes = args->IntField("reliable_nodes");
        exec.transient_nodes = args->IntField("transient_nodes");
        exec.bottleneck_node = args->IntField("bottleneck_node", -1);
        exec.gate = args->StringField("gate");
        exec.args_ok = args->Find("t_compute") != nullptr &&
                       args->Find("t_transport") != nullptr &&
                       args->Find("stall") != nullptr &&
                       args->Find("barrier") != nullptr &&
                       args->Find("reliable_nodes") != nullptr &&
                       args->Find("transient_nodes") != nullptr && exec.index >= 0;
      }
      exec.redo = exec.index < max_next_index;
      max_next_index = std::max(max_next_index, exec.index + 1);
      if (!runs.empty()) {
        ++runs.back().clock_events;
      }
      executions.push_back(std::move(exec));
      continue;
    }
    if (kind == EventName(Ev::kRollbackBackup)) {
      ++rollback_count;
      if (args != nullptr) {
        const std::int64_t to_clock = args->IntField("to_clock");
        const std::int64_t lost = args->IntField("lost_clocks");
        rollback_lost_clocks += lost;
        ++rollbacks_by_kind[args->StringField("kind", "unknown")];
        if (lost > 0) {
          // Work at or past the rollback point is discarded: attribute
          // those executions' wall-clock (and transient dollars) to the
          // rollback / wasted-evicted buckets.
          for (std::size_t i = run_first_execution; i < executions.size(); ++i) {
            if (executions[i].index >= to_clock) {
              executions[i].wasted = true;
            }
          }
        }
      }
      continue;
    }
    if (kind == EventName(Ev::kRecoveryStep)) {
      RecoveryStep step;
      step.run = current_run;
      step.ts = event.NumberField("ts");
      if (args != nullptr) {
        step.failed = args->IntField("failed");
        step.depth = args->StringField("depth", "unknown");
        step.lost_clocks = args->IntField("lost_clocks");
        step.restored_clock = args->IntField("restored_clock");
        step.durable_epoch = args->IntField("durable_epoch", -1);
        step.used_durable = args->IntField("used_durable");
        step.corrupt_epochs_skipped = args->IntField("corrupt_epochs_skipped");
      }
      recoveries.push_back(std::move(step));
      continue;
    }
    if (kind == EventName(Ev::kAuditViolation)) {
      ++violations;
      continue;
    }
    if (kind == EventName(Ev::kCostSample) && args != nullptr) {
      billed_cost = args->NumberField("dollars", billed_cost);
      continue;
    }
  }

  // ------------------------------------------------------------------
  // Wall-clock attribution: every execution's full duration lands in
  // exactly one of {compute, transport, rollback, recovery, idle}.
  double wall_total = 0.0;
  double wall_compute = 0.0;
  double wall_transport = 0.0;
  double wall_rollback = 0.0;
  double wall_recovery = 0.0;
  double wall_idle = 0.0;
  std::int64_t productive = 0;
  std::int64_t redone = 0;
  std::int64_t wasted = 0;

  // Cost attribution, from per-clock tier populations.
  double cost_total = 0.0;
  double cost_transient = 0.0;
  double cost_reliable = 0.0;
  double cost_recovery = 0.0;
  double cost_wasted = 0.0;

  struct NodeStats {
    std::int64_t gated_clocks = 0;
    double gated_seconds = 0.0;
    std::int64_t compute_gated = 0;
    std::int64_t transport_gated = 0;
  };
  std::map<std::int64_t, NodeStats> stragglers;

  for (const Execution& exec : executions) {
    wall_total += exec.dur;
    if (!exec.args_ok) {
      ++result.unattributed_clocks;
    }
    const double dollars_r =
        static_cast<double>(exec.reliable_nodes) * options.rate_reliable_per_hour *
        exec.dur / 3600.0;
    const double dollars_t =
        static_cast<double>(exec.transient_nodes) * options.rate_transient_per_hour *
        exec.dur / 3600.0;
    cost_total += dollars_r + dollars_t;
    cost_reliable += dollars_r;
    if (exec.wasted) {
      ++wasted;
      wall_rollback += exec.dur;
      cost_wasted += dollars_t;
      continue;
    }
    if (exec.redo) {
      ++redone;
      wall_recovery += exec.dur;
      cost_recovery += dollars_t;
      continue;
    }
    ++productive;
    wall_compute += exec.t_compute;
    wall_transport += exec.t_transport;
    wall_recovery += exec.stall;
    const double idle = exec.dur - exec.t_compute - exec.t_transport - exec.stall;
    wall_idle += idle;
    if (exec.args_ok &&
        (idle < -1e-9 || std::abs(idle - exec.barrier) > 1e-6 * std::max(1.0, exec.dur))) {
      // The pieces do not reassemble into the recorded duration: some
      // of this clock's wall time has no cause in the ledger.
      ++result.unattributed_clocks;
    }
    const double stall_share = exec.dur > 0.0 ? exec.stall / exec.dur : 0.0;
    cost_recovery += dollars_t * stall_share;
    cost_transient += dollars_t * (1.0 - stall_share);
    if (exec.bottleneck_node >= 0) {
      NodeStats& stats = stragglers[exec.bottleneck_node];
      ++stats.gated_clocks;
      stats.gated_seconds += exec.t_compute + exec.t_transport;
      if (exec.gate == "compute") {
        ++stats.compute_gated;
      } else {
        ++stats.transport_gated;
      }
    }
  }

  // Normalize synthetic dollars to the billed total when the run has a
  // real market (proteus cost samples): the split then reads as a
  // decomposition of the actual bill.
  double cost_scale = 1.0;
  if (billed_cost > 0.0 && cost_total > 0.0) {
    cost_scale = billed_cost / cost_total;
    cost_total *= cost_scale;
    cost_transient *= cost_scale;
    cost_reliable *= cost_scale;
    cost_recovery *= cost_scale;
    cost_wasted *= cost_scale;
  }

  // Run-summary cross-check: every RunClock the harness executed must
  // have a ledger clock event.
  for (const RunSegment& segment : runs) {
    if (segment.clocks_run >= 0 && segment.clocks_run != segment.clock_events) {
      ++result.ledger_gaps;
    }
  }

  // ------------------------------------------------------------------
  // Optional trace / metrics cross-sections.
  double trace_clock_seconds = -1.0;
  double trace_recovery_seconds = -1.0;
  std::int64_t trace_events = -1;
  if (!trace_json.empty()) {
    JsonValue trace;
    if (!ParseJson(trace_json, &trace, &parse_error)) {
      result.error = "trace: " + parse_error;
      return result;
    }
    trace_clock_seconds = 0.0;
    trace_recovery_seconds = 0.0;
    trace_events = 0;
    if (const JsonValue* list = trace.Find("traceEvents")) {
      trace_events = static_cast<std::int64_t>(list->items.size());
      for (const JsonValue& event : list->items) {
        if (event.StringField("ph") != "X") {
          continue;
        }
        const double dur_s = event.NumberField("dur") / 1e6;
        const std::string name = event.StringField("name");
        if (name == EventName(Ev::kClockSpan)) {
          trace_clock_seconds += dur_s;
        } else if (name == EventName(Ev::kRecoveryShare) ||
                   name == EventName(Ev::kRecoveryStall)) {
          trace_recovery_seconds += dur_s;
        }
      }
    }
  }

  std::map<std::string, double> metric_totals;
  if (!metrics_json.empty()) {
    JsonValue metrics;
    if (!ParseJson(metrics_json, &metrics, &parse_error)) {
      result.error = "metrics: " + parse_error;
      return result;
    }
    static const Metric kInteresting[] = {
        Metric::kRpcRetransmits,     Metric::kRpcDupSuppressed,   Metric::kRpcMessagesDropped,
        Metric::kAuditViolations,    Metric::kRollbackLostClocks, Metric::kProteusCost,
    };
    if (const JsonValue* list = metrics.Find("metrics")) {
      for (const JsonValue& point : list->items) {
        const std::string name = point.StringField("name");
        for (const Metric wanted : kInteresting) {
          if (name == MetricName(wanted)) {
            metric_totals[name] += point.NumberField("value");
          }
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Render the report.
  std::string& out = result.report_json;
  out += "{\"schema\":\"proteus.report.v1\"";
  AppendField(out, "runs", static_cast<double>(runs.empty() ? (executions.empty() ? 0 : 1)
                                                            : runs.size()));

  out += ",\"clocks\":{";
  AppendField(out, "executed", static_cast<double>(executions.size()), true);
  AppendField(out, "productive", static_cast<double>(productive));
  AppendField(out, "redone", static_cast<double>(redone));
  AppendField(out, "wasted", static_cast<double>(wasted));
  AppendField(out, "lost_to_rollbacks", static_cast<double>(rollback_lost_clocks));
  out += '}';

  out += ",\"wall_time\":{";
  AppendField(out, "total", wall_total, true);
  AppendField(out, "compute", wall_compute);
  AppendField(out, "transport", wall_transport);
  AppendField(out, "rollback", wall_rollback);
  AppendField(out, "recovery", wall_recovery);
  AppendField(out, "idle", wall_idle);
  out += '}';
  out += ",\"wall_time_shares\":{";
  const double wall_div = wall_total > 0.0 ? wall_total : 1.0;
  AppendField(out, "compute", wall_compute / wall_div, true);
  AppendField(out, "transport", wall_transport / wall_div);
  AppendField(out, "rollback", wall_rollback / wall_div);
  AppendField(out, "recovery", wall_recovery / wall_div);
  AppendField(out, "idle", wall_idle / wall_div);
  out += '}';

  out += ",\"cost\":{";
  AppendField(out, "total", cost_total, true);
  AppendField(out, "transient", cost_transient);
  AppendField(out, "reliable", cost_reliable);
  AppendField(out, "recovery", cost_recovery);
  AppendField(out, "wasted_evicted", cost_wasted);
  AppendField(out, "rate_reliable_per_hour", options.rate_reliable_per_hour);
  AppendField(out, "rate_transient_per_hour", options.rate_transient_per_hour);
  AppendField(out, "billed_total", billed_cost);
  AppendField(out, "scale", cost_scale);
  out += '}';
  out += ",\"cost_shares\":{";
  const double cost_div = cost_total > 0.0 ? cost_total : 1.0;
  AppendField(out, "transient", cost_transient / cost_div, true);
  AppendField(out, "reliable", cost_reliable / cost_div);
  AppendField(out, "recovery", cost_recovery / cost_div);
  AppendField(out, "wasted_evicted", cost_wasted / cost_div);
  out += '}';

  out += ",\"stragglers\":[";
  bool first = true;
  for (const auto& [node, stats] : stragglers) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"node\":" + std::to_string(node);
    AppendField(out, "gated_clocks", static_cast<double>(stats.gated_clocks));
    AppendField(out, "gated_seconds", stats.gated_seconds);
    AppendField(out, "compute_gated", static_cast<double>(stats.compute_gated));
    AppendField(out, "transport_gated", static_cast<double>(stats.transport_gated));
    out += '}';
  }
  out += "]";

  // Histogram: how many nodes gated <= 1, 2, 4, ... clocks.
  out += ",\"straggler_histogram\":[";
  if (!stragglers.empty()) {
    std::int64_t max_gated = 0;
    for (const auto& [node, stats] : stragglers) {
      max_gated = std::max(max_gated, stats.gated_clocks);
    }
    first = true;
    for (std::int64_t bound = 1;; bound *= 2) {
      std::int64_t nodes = 0;
      for (const auto& [node, stats] : stragglers) {
        if (stats.gated_clocks <= bound) {
          ++nodes;
        }
      }
      if (!first) {
        out += ',';
      }
      first = false;
      out += "{\"gated_clocks_le\":" + std::to_string(bound) +
             ",\"nodes\":" + std::to_string(nodes) + '}';
      if (bound >= max_gated) {
        break;
      }
    }
  }
  out += "]";

  // The slowest executions, whatever their fate.
  out += ",\"critical_path\":[";
  {
    std::vector<std::size_t> order(executions.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return executions[a].dur > executions[b].dur;
    });
    const std::size_t top = std::min<std::size_t>(
        order.size(), static_cast<std::size_t>(std::max(options.critical_path_top, 0)));
    for (std::size_t i = 0; i < top; ++i) {
      const Execution& exec = executions[order[i]];
      out += i == 0 ? "\n" : ",\n";
      out += "{\"run\":" + std::to_string(exec.run);
      AppendField(out, "clock", static_cast<double>(exec.index));
      AppendField(out, "duration", exec.dur);
      AppendField(out, "node", static_cast<double>(exec.bottleneck_node));
      out += ",\"gate\":";
      AppendJsonString(out, exec.gate);
      out += ",\"status\":";
      AppendJsonString(out, exec.wasted ? "wasted" : (exec.redo ? "redo" : "productive"));
      out += '}';
    }
  }
  out += "]";

  out += ",\"recoveries\":[";
  for (std::size_t i = 0; i < recoveries.size(); ++i) {
    const RecoveryStep& step = recoveries[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"run\":" + std::to_string(step.run);
    AppendField(out, "ts", step.ts);
    AppendField(out, "failed_nodes", static_cast<double>(step.failed));
    out += ",\"depth\":";
    AppendJsonString(out, step.depth);
    AppendField(out, "lost_clocks", static_cast<double>(step.lost_clocks));
    AppendField(out, "restored_clock", static_cast<double>(step.restored_clock));
    AppendField(out, "durable_epoch", static_cast<double>(step.durable_epoch));
    AppendField(out, "used_durable", static_cast<double>(step.used_durable));
    AppendField(out, "corrupt_epochs_skipped",
                static_cast<double>(step.corrupt_epochs_skipped));
    out += '}';
  }
  out += "]";

  out += ",\"rollbacks\":{";
  AppendField(out, "count", static_cast<double>(rollback_count), true);
  AppendField(out, "lost_clocks", static_cast<double>(rollback_lost_clocks));
  for (const auto& [kind, count] : rollbacks_by_kind) {
    out += ",";
    AppendJsonString(out, kind);
    out += ':' + std::to_string(count);
  }
  out += '}';

  AppendField(out, "audit_violations", static_cast<double>(violations));

  if (trace_events >= 0) {
    out += ",\"trace\":{";
    AppendField(out, "events", static_cast<double>(trace_events), true);
    AppendField(out, "clock_span_seconds", trace_clock_seconds);
    AppendField(out, "recovery_span_seconds", trace_recovery_seconds);
    out += '}';
  }
  if (!metric_totals.empty()) {
    out += ",\"metrics\":{";
    first = true;
    for (const auto& [name, value] : metric_totals) {
      if (!first) {
        out += ',';
      }
      first = false;
      AppendJsonString(out, name);
      out += ':';
      out += FormatJsonNumber(value);
    }
    out += '}';
  }

  out += ",\"checks\":{";
  AppendField(out, "events", static_cast<double>(events.size()), true);
  AppendField(out, "clock_events", static_cast<double>(executions.size()));
  AppendField(out, "ledger_gaps", static_cast<double>(result.ledger_gaps));
  AppendField(out, "unattributed_clocks", static_cast<double>(result.unattributed_clocks));
  out += "}}\n";
  return result;
}

}  // namespace analyze
}  // namespace obs
}  // namespace proteus
