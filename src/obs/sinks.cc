#include "src/obs/sinks.h"

#include <algorithm>
#include <variant>

#include "src/common/logging.h"
#include "src/obs/flight_recorder.h"

namespace proteus {
namespace obs {

namespace {

// True when `key` is one of the '|'-separated names in `list`.
bool InList(const char* list, std::string_view key) {
  for (std::string_view rest = list != nullptr ? list : ""; !rest.empty();) {
    const std::size_t bar = std::min(rest.find('|'), rest.size());
    if (rest.substr(0, bar) == key) {
      return true;
    }
    rest.remove_prefix(std::min(bar + 1, rest.size()));
  }
  return false;
}

}  // namespace

void Sinks::Series::Update(double value) const {
  if (counter != nullptr) {
    counter->Add(static_cast<std::uint64_t>(value));
  } else if (gauge != nullptr) {
    gauge->Set(value);
  } else {
    histogram->Observe(value);
  }
}

void Sinks::Attach(Tracer* tracer, MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  slots_.assign(metrics != nullptr ? MetricCatalog().size() : 0, {});
  for (std::size_t i = 1; i < slots_.size(); ++i) {
    const MetricSpec& spec = MetricCatalog()[i];
    // Families without a fixed label value are bound by their owner.
    if (std::string_view(spec.name).starts_with(component_ + ".") &&
        (spec.label == nullptr || spec.label_value != nullptr)) {
      slots_[i].push_back(Register(static_cast<Metric>(i),
                                   spec.label != nullptr ? Labels{{spec.label, spec.label_value}}
                                                         : Labels{}));
    }
  }
}

Sinks::Series Sinks::Register(Metric id, const Labels& labels) const {
  const MetricSpec& spec = Spec(id);
  PROTEUS_CHECK(std::string_view(spec.name).starts_with(component_ + "."))
      << spec.name << " is not a " << component_ << " metric";
  switch (spec.kind) {
    case MetricKind::kCounter:
      return {.counter = metrics_->GetCounter(spec.name, labels)};
    case MetricKind::kGauge:
      return {.gauge = metrics_->GetGauge(spec.name, labels)};
    case MetricKind::kHistogram:
      break;
  }
  return {.histogram = metrics_->GetHistogram(
              spec.name, std::vector<double>(spec.bounds.begin(), spec.bounds.end()), labels)};
}

void Sinks::BindSeries(std::initializer_list<Metric> ids, const std::vector<Labels>& series) {
  for (const Metric id : metrics_ != nullptr ? ids : std::initializer_list<Metric>{}) {
    std::vector<Series>& slot = slots_[static_cast<std::size_t>(id)];
    slot.clear();
    for (const Labels& labels : series) {
      slot.push_back(Register(id, labels));
    }
  }
}

void Sinks::RecordLabeled(Metric id, const std::string& label, double value) const {
  if (metrics_ != nullptr) {
    Register(id, {{Spec(id).label, label}}).Update(value);
  }
}

bool Sinks::DumpFlightRecorder(const std::string& reason, EventId anchor) const {
  if (recorder_ != nullptr) {
    recorder_->Dump(reason, anchor);
  }
  return recorder_ != nullptr;
}

void Sinks::UpdateMetric(const EventSpec& spec, double ts, double dur,
                         const TraceArgs& args) const {
  const Series* series = Handle(spec.metric, 0);
  if (series == nullptr) {
    return;
  }
  double value = spec.feed == nullptr ? 1.0 : dur;
  if (spec.feed != nullptr && std::string_view(spec.feed) != "dur") {
    const auto arg = std::find_if(args.begin(), args.end(),
                                  [&](const auto& kv) { return kv.first == spec.feed; });
    PROTEUS_CHECK(arg != args.end()) << spec.name << " has no feed arg " << spec.feed;
    const auto* i = std::get_if<std::int64_t>(&arg->second);
    value = i != nullptr ? static_cast<double>(*i) : std::get<double>(arg->second);
  }
  series->Update(value);
  if (spec.sample != nullptr && tracer_ != nullptr) {
    tracer_->CounterAt(ts, spec.sample, spec.component,
                       static_cast<double>(series->counter->value()));
  }
}

EventId Sinks::Dispatch(const EventSpec& spec, const At& at, double dur,
                        std::string_view suffix, TraceArgs args) const {
  PROTEUS_CHECK(spec.shape != TraceShape::kCounter && spec.form != LedgerForm::kRegion)
      << spec.name << " takes Sample() or Open()";
  UpdateMetric(spec, at.ts, dur, args);
  std::string name = spec.name;
  name.append(suffix);
  if (tracer_ != nullptr && spec.shape != TraceShape::kNone) {
    TraceArgs trace_args;
    for (const auto& arg : args) {
      if (!InList(spec.trace_drop, arg.first)) {
        trace_args.push_back(arg);
      }
    }
    if (spec.shape == TraceShape::kInstant) {
      tracer_->InstantAt(at.ts, name, spec.component, std::move(trace_args));
    } else {
      tracer_->SpanAt(at.span_start, dur, name, spec.component, std::move(trace_args));
    }
  }
  if (ledger_ == nullptr || spec.form == LedgerForm::kNone) {
    return kNoEvent;
  }
  return spec.form == LedgerForm::kParented
             ? ledger_->RecordWithParent(std::move(name), spec.component, at.ts, at.parent,
                                         std::move(args))
             : ledger_->Record(std::move(name), spec.component, at.ts, std::move(args));
}

void Sinks::Sample(Ev id, double ts, double value) const {
  const EventSpec& spec = Spec(id);
  Record(spec.metric, value);
  if (tracer_ != nullptr) {
    tracer_->CounterAt(ts, spec.trace_name != nullptr ? spec.trace_name : spec.name,
                       spec.component, value);
  }
  if (ledger_ != nullptr && spec.form == LedgerForm::kRecord) {
    ledger_->Record(spec.name, spec.component, ts, {{spec.feed, value}});
  }
}

}  // namespace obs
}  // namespace proteus
