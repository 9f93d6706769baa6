#include "src/obs/trace.h"

#include "src/obs/json.h"

namespace proteus {
namespace obs {

void AppendArgsJson(std::string& out, const TraceArgs& args) {
  if (args.empty()) {
    return;
  }
  out += ",\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendJsonString(out, args[i].first);
    out += ':';
    const TraceValue& value = args[i].second;
    if (const auto* s = std::get_if<std::string>(&value)) {
      AppendJsonString(out, *s);
    } else if (const auto* n = std::get_if<std::int64_t>(&value)) {
      AppendJsonNumber(out, *n);
    } else {
      AppendJsonNumber(out, std::get<double>(value));
    }
  }
  out += '}';
}

namespace {

std::string FormatTraceValue(const TraceValue& value) {
  if (const auto* s = std::get_if<std::string>(&value)) {
    return *s;
  }
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    return std::to_string(*i);
  }
  return FormatJsonDouble(std::get<double>(value));
}

}  // namespace

void Tracer::Record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (track_ids_.emplace(event.track, static_cast<int>(track_order_.size())).second) {
    track_order_.push_back(event.track);
  }
  events_.push_back(std::move(event));
}

void Tracer::SpanAt(double ts, double dur, std::string name, std::string track,
                    TraceArgs args) {
  Record({TraceEvent::Phase::kSpan, std::move(name), std::move(track), ts, dur,
          std::move(args)});
}

void Tracer::InstantAt(double ts, std::string name, std::string track, TraceArgs args) {
  Record({TraceEvent::Phase::kInstant, std::move(name), std::move(track), ts, 0.0,
          std::move(args)});
}

void Tracer::CounterAt(double ts, std::string name, std::string track, double value) {
  Record({TraceEvent::Phase::kCounter, std::move(name), std::move(track), ts, 0.0,
          {{"value", value}}});
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  track_ids_.clear();
  track_order_.clear();
}

double Tracer::SpanTotal(const std::string& name, const std::string& arg_key,
                         const std::string& arg_value) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const TraceEvent& event : events_) {
    if (event.phase != TraceEvent::Phase::kSpan || event.name != name) {
      continue;
    }
    if (!arg_key.empty()) {
      bool matched = false;
      for (const auto& [key, value] : event.args) {
        if (key == arg_key && FormatTraceValue(value) == arg_value) {
          matched = true;
          break;
        }
      }
      if (!matched) {
        continue;
      }
    }
    total += event.dur;
  }
  return total;
}

std::string Tracer::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(128 + events_.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '\n';
  };
  // Thread-name metadata, in first-use order, so every track renders
  // under a stable human-readable label.
  for (int tid = 0; tid < static_cast<int>(track_order_.size()); ++tid) {
    comma();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    AppendJsonString(out, track_order_[static_cast<std::size_t>(tid)]);
    out += "}}";
  }
  for (const TraceEvent& event : events_) {
    comma();
    const int tid = track_ids_.at(event.track);
    out += "{\"ph\":\"";
    switch (event.phase) {
      case TraceEvent::Phase::kSpan:
        out += 'X';
        break;
      case TraceEvent::Phase::kInstant:
        out += 'i';
        break;
      case TraceEvent::Phase::kCounter:
        out += 'C';
        break;
    }
    out += "\",\"pid\":1,\"tid\":" + std::to_string(tid) + ",\"ts\":";
    out += FormatJsonDouble(event.ts * 1e6);  // trace_event ts is microseconds.
    if (event.phase == TraceEvent::Phase::kSpan) {
      out += ",\"dur\":" + FormatJsonDouble(event.dur * 1e6);
    } else if (event.phase == TraceEvent::Phase::kInstant) {
      out += ",\"s\":\"t\"";  // Thread-scoped instant.
    }
    out += ",\"name\":";
    AppendJsonString(out, event.name);
    AppendArgsJson(out, event.args);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  return WriteStringToFile(path, ToChromeJson());
}

}  // namespace obs
}  // namespace proteus
