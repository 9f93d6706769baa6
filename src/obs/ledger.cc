#include "src/obs/ledger.h"

#include <utility>

#include "src/common/logging.h"
#include "src/obs/json.h"

namespace proteus {
namespace obs {

void AppendLedgerEventJson(std::string& out, const LedgerEvent& event) {
  out += "{\"id\":";
  out += std::to_string(event.id);
  out += ",\"parent\":";
  out += std::to_string(event.parent);
  out += ",\"ts\":";
  AppendJsonNumber(out, event.ts);
  out += ",\"dur\":";
  AppendJsonNumber(out, event.dur);
  out += ",\"kind\":";
  AppendJsonString(out, event.kind);
  out += ",\"component\":";
  AppendJsonString(out, event.component);
  AppendArgsJson(out, event.args);
  out += '}';
}

void EventLedger::SetObserver(Observer observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

EventId EventLedger::Append(std::string kind, std::string component, double ts,
                            EventId parent, TraceArgs args) {
  LedgerEvent event;
  event.id = static_cast<EventId>(events_.size()) + 1;
  event.parent = parent;
  event.ts = ts;
  event.kind = std::move(kind);
  event.component = std::move(component);
  event.args = std::move(args);
  events_.push_back(std::move(event));
  if (observer_) {
    observer_(events_.back());
  }
  return events_.back().id;
}

EventId EventLedger::Record(std::string kind, std::string component, double ts,
                            TraceArgs args) {
  std::lock_guard<std::mutex> lock(mu_);
  const EventId parent = context_.empty() ? kNoEvent : context_.back();
  return Append(std::move(kind), std::move(component), ts, parent, std::move(args));
}

EventId EventLedger::RecordWithParent(std::string kind, std::string component, double ts,
                                      EventId parent, TraceArgs args) {
  std::lock_guard<std::mutex> lock(mu_);
  return Append(std::move(kind), std::move(component), ts, parent, std::move(args));
}

EventId EventLedger::Open(std::string kind, std::string component, double ts,
                          TraceArgs args) {
  std::lock_guard<std::mutex> lock(mu_);
  const EventId parent = context_.empty() ? kNoEvent : context_.back();
  const EventId id =
      Append(std::move(kind), std::move(component), ts, parent, std::move(args));
  context_.push_back(id);
  return id;
}

void EventLedger::Close(EventId id, double dur, TraceArgs args) {
  if (id == kNoEvent) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  PROTEUS_CHECK(!context_.empty() && context_.back() == id)
      << "EventLedger::Close out of order: closing " << id;
  context_.pop_back();
  LedgerEvent& event = events_[id - 1];
  event.dur = dur;
  if (!args.empty()) {
    for (auto& arg : args) {
      event.args.push_back(std::move(arg));
    }
  }
}

EventId EventLedger::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return context_.empty() ? kNoEvent : context_.back();
}

std::size_t EventLedger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

LedgerEvent EventLedger::Get(EventId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == kNoEvent || id > events_.size()) {
    return LedgerEvent{};
  }
  return events_[id - 1];
}

std::vector<LedgerEvent> EventLedger::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<LedgerEvent> EventLedger::Chain(EventId anchor) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LedgerEvent> chain;
  EventId id = anchor;
  while (id != kNoEvent && id <= events_.size()) {
    const LedgerEvent& event = events_[id - 1];
    chain.push_back(event);
    if (event.parent >= id) {
      break;  // Corrupt parent link; never cycle.
    }
    id = event.parent;
  }
  return chain;
}

void EventLedger::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  context_.clear();
}

std::string EventLedger::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(events_.size() * 128);
  for (const LedgerEvent& event : events_) {
    AppendLedgerEventJson(out, event);
    out += '\n';
  }
  return out;
}

bool EventLedger::WriteJsonl(const std::string& path) const {
  return WriteStringToFile(path, ToJsonl());
}

}  // namespace obs
}  // namespace proteus
