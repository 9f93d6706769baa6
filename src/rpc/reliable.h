// Reliable delivery session over a pair of raw Channels (ISSUE 5,
// Proteus §5): the raw rpc::Channel is fire-and-forget — under chaos a
// dropped frame is counted by the auditor but never recovered. A
// ReliableChannel wraps one data-direction Channel plus a reverse
// Channel for acknowledgements and masks drops, reorders, and
// duplicates entirely:
//
//  - every data frame carries a per-session monotonic sequence number
//    (starting at 1; seq 0 marks a pure ack frame),
//  - the receiver acknowledges with a cumulative ack (everything <= N
//    received) plus selective acks for out-of-order frames above it,
//  - the sender keeps a bounded in-flight window (flow control; excess
//    sends queue in a backlog) and retransmits unacked frames on a
//    sim-clock deadline with deterministic exponential backoff and
//    seeded jitter — same seed, same fault schedule => byte-identical
//    retransmit schedule, pinned by a golden test,
//  - the receiver dedups (cumulative point + out-of-order buffer) and
//    releases messages strictly in send order.
//
// All timestamps are virtual seconds on the caller's sim clock; the
// class has no timer thread — callers pump Tick()/Receive() like every
// other polled component in the runtime. Metrics: `rpc.retransmits`,
// `rpc.dup_delivered_suppressed`, `rpc.ack_rtt` (histogram), plus
// tracer spans on the "rpc" track for each acked-frame round trip.
#ifndef SRC_RPC_RELIABLE_H_
#define SRC_RPC_RELIABLE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/sinks.h"
#include "src/rpc/channel.h"
#include "src/rpc/messages.h"

namespace proteus {

struct ReliableChannelConfig {
  std::uint32_t session = 1;
  // Max unacked data frames in flight; further Send()s queue in the
  // backlog until acks open the window.
  int window = 32;
  // Retransmission timeout schedule (virtual seconds): attempt k waits
  // initial_rto * backoff^(k-1), capped at max_rto, then scaled by a
  // seeded jitter factor uniform in [1 - jitter, 1 + jitter].
  double initial_rto = 0.05;
  double max_rto = 2.0;
  double backoff = 2.0;
  double jitter = 0.1;
  // Cap on selective-ack entries per ack frame.
  int max_sacks = 16;
  std::uint64_t seed = 1;
};

// One retransmission decision, for determinism goldens: same seed =>
// identical log.
struct RetransmitRecord {
  std::uint64_t seq = 0;
  int attempt = 0;  // 2 = first retransmit.
  double at = 0.0;  // Virtual send time of this attempt.
};

class ReliableChannel {
 public:
  // `data` carries sender->receiver frames, `ack` the reverse path.
  // Both outlive this object. The two endpoints of the session live in
  // one object because the whole transport is an in-process simulation;
  // Send()/Tick() belong to the sending party, Receive() to the peer.
  ReliableChannel(Channel* data, Channel* ack, ReliableChannelConfig config);

  // Queues `message` for reliable delivery. Sends immediately while the
  // in-flight window has room, otherwise backlogs.
  void Send(const Message& message, double now);

  // Receiver side: drains the data channel, dedups and reorders, emits
  // ack frames on the reverse channel, and returns the next in-order
  // message (or nullopt when nothing is deliverable yet). Call
  // repeatedly until nullopt to drain.
  std::optional<Message> Receive(double now);

  // Sender side: processes acks from the reverse channel, refills the
  // window from the backlog, and retransmits frames whose deadline has
  // passed. Call once per sim tick (or more; idempotent at a fixed
  // `now`).
  void Tick(double now);

  // True when every queued message has been sent and acknowledged.
  // Channel queues may still hold stale duplicates; those are dedup'd
  // on arrival and never affect delivery.
  bool Quiescent() const;

  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                        const std::string& name);

  // Attaches the causal event ledger. Each first transmission records an
  // "rpc.send.reliable" event whose id rides in the ARQ window, so every
  // "rpc.retransmit" and the final "rpc.delivery" are parented to the
  // send they stem from — causality through state, not the call stack.
  // Duplicate arrivals record "rpc.dup_suppressed". Pass nullptr to
  // detach.
  void SetLedger(obs::EventLedger* ledger, const std::string& name);

  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t dup_suppressed() const { return dup_suppressed_; }
  std::uint64_t messages_accepted() const { return messages_accepted_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::size_t in_flight() const { return in_flight_.size(); }
  std::size_t backlog() const { return backlog_.size(); }
  const std::vector<RetransmitRecord>& retransmit_log() const { return retransmit_log_; }

 private:
  struct InFlight {
    std::vector<std::uint8_t> payload;  // Encoded inner message.
    int attempts = 0;
    double first_sent = 0.0;
    double next_retx = 0.0;
    // Ledger id of the original "rpc.send.reliable", carried so later
    // retransmits/delivery can name their cause.
    obs::EventId send_event = obs::kNoEvent;
  };

  void SendDataFrame(std::uint64_t seq, const InFlight& entry);
  void SendAckFrame();
  double NextTimeout(int attempts);
  void HandleAck(const ReliableFrameMsg& frame, double now);
  void AcceptData(ReliableFrameMsg frame, double now);
  void RefillWindow(double now);

  Channel* data_;
  Channel* ack_;
  ReliableChannelConfig config_;
  Rng rng_;

  // Sender state.
  std::uint64_t next_seq_ = 1;
  std::uint64_t cum_acked_ = 0;
  std::deque<std::vector<std::uint8_t>> backlog_;
  std::map<std::uint64_t, InFlight> in_flight_;

  // Receiver state.
  std::uint64_t received_up_to_ = 0;
  std::map<std::uint64_t, std::vector<std::uint8_t>> out_of_order_;
  std::deque<Message> deliverable_;

  // Stats.
  std::uint64_t retransmits_ = 0;
  std::uint64_t dup_suppressed_ = 0;
  std::uint64_t messages_accepted_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::vector<RetransmitRecord> retransmit_log_;

  obs::Sinks sinks_{"rpc"};
  std::string ledger_name_;
};

}  // namespace proteus

#endif  // SRC_RPC_RELIABLE_H_
