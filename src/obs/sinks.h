// Sinks: one emitting component's null-safe handle on the tracer, the
// metrics registry, the event ledger and the flight recorder. An event is
// one call naming its catalog entry (src/obs/catalog.h), which decides
// what lands where. Args follow as key, value pairs (integers become
// int64, floating point double, the rest strings), or as one callable
// returning TraceArgs, and are built only when an attached sink reads
// them. Metric handles resolve on attach, so an update is a relaxed
// atomic on a stable handle, safe from any thread; attaching, binding and
// labelled series belong on the owner's serial control path.
#ifndef SRC_OBS_SINKS_H_
#define SRC_OBS_SINKS_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/catalog.h"
#include "src/obs/ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace proteus {
namespace obs {

class FlightRecorder;

// When an event happened: the ledger timestamp, the causal parent of a
// kParented entry, and where a span starts (it ends at ts).
struct At {
  At(double ts, EventId parent = kNoEvent) : At(ts, parent, ts) {}
  At(double ts, EventId parent, double span_start)
      : ts(ts), parent(parent), span_start(span_start) {}
  double ts;
  EventId parent;
  double span_start;
};

class Sinks {
 public:
  // `component` prefixes the names of the metrics this Sinks registers.
  explicit Sinks(std::string component) : component_(std::move(component)) {}

  // Either may be nullptr. Attaching metrics registers the component's
  // unlabelled and fixed-label catalog metrics and drops bound series.
  void Attach(Tracer* tracer, MetricsRegistry* metrics);
  void AttachLedger(EventLedger* ledger, FlightRecorder* recorder = nullptr) {
    ledger_ = ledger;
    recorder_ = recorder;
  }
  // True when any sink is attached: gates work done only to feed them.
  bool active() const { return tracer_ != nullptr || ledger_ != nullptr || metrics_ != nullptr; }
  // Registers the series of each family in `ids`, in index order. No-op
  // without metrics.
  void BindSeries(std::initializer_list<Metric> ids, const std::vector<Labels>& series);

  // Instant, zero-length span, span from at.span_start, ledger record:
  // whatever the entry declares. Returns the ledger id. EmitNamed emits
  // member `suffix` of a family entry, EmitSpan the span [start, start +
  // dur] of an entry without a ledger form.
  template <typename... Args>
  EventId Emit(Ev id, const At& at, const Args&... args) const {
    return active() ? Route(id, at, at.ts - at.span_start, {}, args...) : kNoEvent;
  }
  template <typename... Args>
  EventId EmitNamed(Ev id, std::string_view suffix, const At& at, const Args&... args) const {
    return active() ? Route(id, at, 0.0, suffix, args...) : kNoEvent;
  }
  template <typename... Args>
  void EmitSpan(Ev id, double start, double dur, const Args&... args) const {
    if (active()) {
      Route(id, At(start), dur, {}, args...);
    }
  }
  // Counter-shaped entry: trace counter, metric and ledger feed arg all
  // take `value`.
  void Sample(Ev id, double ts, double value) const;
  // Ledger region; closing kNoEvent is a no-op.
  template <typename... Args>
  EventId Open(Ev id, double ts, const Args&... args) const {
    return ledger_ != nullptr ? ledger_->Open(Spec(id).name, Spec(id).component, ts,
                                              MakeArgs(args...))
                              : kNoEvent;
  }
  template <typename... Args>
  void Close(EventId region, double dur, const Args&... args) const {
    if (ledger_ != nullptr && region != kNoEvent) {
      ledger_->Close(region, dur, MakeArgs(args...));
    }
  }

  // Metric updates outside an event: a counter adds `value`, a gauge
  // takes it, a histogram observes it. `series` indexes a bound family;
  // `label` names the series of a one-label family.
  bool Wants(Metric id) const { return Handle(id, 0) != nullptr; }
  void Record(Metric id, double value, std::size_t series = 0) const {
    if (const Series* s = Handle(id, series)) {
      s->Update(value);
    }
  }
  void RecordLabeled(Metric id, const std::string& label, double value) const;

  // Writes a flight-recorder post-mortem; false when none is attached.
  bool DumpFlightRecorder(const std::string& reason, EventId anchor) const;

 private:
  struct Series {
    void Update(double value) const;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  template <typename... Args>
  static TraceArgs MakeArgs(const Args&... args) {
    if constexpr (sizeof...(Args) == 1 && (std::is_invocable_v<Args> && ...)) {
      return (args(), ...);
    } else {
      TraceArgs out;
      out.reserve(sizeof...(Args) / 2);
      Append(out, args...);
      return out;
    }
  }
  static void Append(TraceArgs&) {}
  template <typename V, typename... Rest>
  static void Append(TraceArgs& out, const char* key, const V& value, const Rest&... rest) {
    if constexpr (std::is_integral_v<V>) {
      out.emplace_back(key, static_cast<std::int64_t>(value));
    } else if constexpr (std::is_floating_point_v<V>) {
      out.emplace_back(key, static_cast<double>(value));
    } else {
      out.emplace_back(key, std::string(value));
    }
    Append(out, rest...);
  }

  const Series* Handle(Metric id, std::size_t series) const {
    if (metrics_ == nullptr) {
      return nullptr;
    }
    const std::vector<Series>& slot = slots_[static_cast<std::size_t>(id)];
    return series < slot.size() ? &slot[series] : nullptr;
  }
  Series Register(Metric id, const Labels& labels) const;
  // Args are built only when an attached sink reads them.
  template <typename... Args>
  EventId Route(Ev id, const At& at, double dur, std::string_view suffix,
                const Args&... args) const {
    const EventSpec& spec = Spec(id);
    const bool feeds = spec.feed != nullptr && std::string_view(spec.feed) != "dur";
    if ((tracer_ != nullptr && spec.shape != TraceShape::kNone) ||
        (ledger_ != nullptr && spec.form != LedgerForm::kNone) || (feeds && Wants(spec.metric))) {
      return Dispatch(spec, at, dur, suffix, MakeArgs(args...));
    }
    UpdateMetric(spec, at.ts, dur, {});
    return kNoEvent;
  }
  EventId Dispatch(const EventSpec& spec, const At& at, double dur, std::string_view suffix,
                   TraceArgs args) const;
  void UpdateMetric(const EventSpec& spec, double ts, double dur, const TraceArgs& args) const;

  std::string component_;
  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  EventLedger* ledger_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  // Indexed by Metric; a scalar metric's one handle is series 0.
  std::vector<std::vector<Series>> slots_;
};

}  // namespace obs
}  // namespace proteus

#endif  // SRC_OBS_SINKS_H_
