#include "src/rpc/channel.h"

#include <algorithm>

namespace proteus {

namespace {

// Metric series index of a message type (tags start at 1).
std::size_t SeriesOf(MessageType type) { return static_cast<std::size_t>(type) - 1; }

}  // namespace

void Channel::Send(const Message& message) {
  ChannelFault fault;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fault_hook_) {
      fault = fault_hook_(message);
    }
    const MessageType type = TypeOf(message);
    std::vector<std::uint8_t> frame = EncodeMessage(message);
    bytes_sent_ += frame.size();
    ++messages_sent_;
    const std::size_t series = SeriesOf(type);
    sinks_.Record(obs::Metric::kRpcMessagesSent, 1, series);
    sinks_.Record(obs::Metric::kRpcBytesSent, frame.size(), series);
    const auto ledger_send = [&](const char* outcome) {
      sinks_.Emit(obs::Ev::kRpcSend, 0.0, "channel", ledger_name_, "type", MessageTypeName(type),
                  "bytes", frame.size(), "outcome", outcome);
    };
    switch (fault.action) {
      case ChannelFault::Action::kDrop:
        ++messages_dropped_;
        sinks_.Record(obs::Metric::kRpcMessagesDropped, 1, series);
        ledger_send("drop");
        return;
      case ChannelFault::Action::kDelay:
        ++messages_delayed_;
        sinks_.Record(obs::Metric::kRpcMessagesDelayed, 1, series);
        ledger_send("delay");
        queue_.push_back({std::move(frame), type, std::max(0, fault.delay_polls)});
        return;
      case ChannelFault::Action::kDuplicate: {
        const int copies = std::max(1, fault.copies);
        messages_duplicated_ += static_cast<std::uint64_t>(copies - 1);
        sinks_.Record(obs::Metric::kRpcMessagesDuplicated, copies - 1, series);
        ledger_send("dup");
        for (int i = 1; i < copies; ++i) {
          queue_.push_back({frame, type, 0});
        }
        queue_.push_back({std::move(frame), type, 0});
        return;
      }
      case ChannelFault::Action::kDeliver:
        ledger_send("deliver");
        queue_.push_back({std::move(frame), type, 0});
        return;
    }
  }
}

std::optional<Message> Channel::Poll() {
  std::vector<std::uint8_t> frame;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Age every delayed frame by one poll, then deliver the oldest
    // deliverable one (delayed frames can be overtaken: reordering).
    auto ready = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->delay_polls > 0) {
        --it->delay_polls;
      } else if (ready == queue_.end()) {
        ready = it;
      }
    }
    if (ready == queue_.end()) {
      return std::nullopt;
    }
    frame = std::move(ready->frame);
    const MessageType type = ready->type;
    queue_.erase(ready);
    ++messages_delivered_;
    sinks_.Record(obs::Metric::kRpcMessagesDelivered, 1, SeriesOf(type));
  }
  return DecodeMessage(frame);
}

void Channel::SetObservability(obs::MetricsRegistry* metrics, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.Attach(nullptr, metrics);
  // Every type through kReliableFrame, in tag order.
  std::vector<obs::Labels> series;
  for (int tag = 1; tag <= static_cast<int>(MessageType::kReliableFrame); ++tag) {
    series.push_back({{"channel", name}, {"type", MessageTypeName(static_cast<MessageType>(tag))}});
  }
  sinks_.BindSeries({obs::Metric::kRpcMessagesSent, obs::Metric::kRpcBytesSent,
                     obs::Metric::kRpcMessagesDelivered, obs::Metric::kRpcMessagesDropped,
                     obs::Metric::kRpcMessagesDelayed, obs::Metric::kRpcMessagesDuplicated},
                    series);
}

void Channel::SetLedger(obs::EventLedger* ledger, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.AttachLedger(ledger);
  ledger_name_ = name;
}

void Channel::SetFaultHook(ChannelFaultHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_hook_ = std::move(hook);
}

std::size_t Channel::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::uint64_t Channel::messages_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_sent_;
}

std::uint64_t Channel::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_sent_;
}

std::uint64_t Channel::messages_delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_delivered_;
}

std::uint64_t Channel::messages_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_dropped_;
}

std::uint64_t Channel::messages_delayed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_delayed_;
}

std::uint64_t Channel::messages_duplicated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_duplicated_;
}

}  // namespace proteus
