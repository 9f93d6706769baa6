// The event catalog: the one declaration of what every component emits.
//
// A metric entry gives its id, kind, name `<component>.<subject>`, label
// key ('|' between the keys of a multi-label family) and fixed label
// value; a labelled entry without a value is a family whose series the
// owner binds or that register on first use. An event entry gives a
// kind's name, ledger component and trace track, trace shape and ledger
// form, then (as designated initializers) the metric it updates, the arg
// feeding it, the ledger args the trace leaves out, and any trace name
// that differs. Two entries share a name where a kind reaches the trace and
// the ledger at different moments ("clock", "round") or with different
// parenting ("rollback"); a family entry ("alloc.", "fault.") stands for
// prefix + each variant. obs::Sinks turns one call per event into the
// writes an entry declares; DESIGN.md §8 carries these tables.
#ifndef SRC_OBS_CATALOG_H_
#define SRC_OBS_CATALOG_H_

#include <cstdint>
#include <span>

#include "src/obs/metrics.h"

namespace proteus {
namespace obs {

// Histogram bucket bounds.
inline constexpr double kClockSeconds[] = {0.1,  0.25, 0.5,  1.0,   2.5,  5.0,
                                           10.0, 25.0, 60.0, 120.0, 300.0};
inline constexpr double kCellDollars[] = {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0};
inline constexpr double kAckRttSeconds[] = {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0};

#define PROTEUS_OBS_METRICS(X)                                                                   \
  X(PullBytes, Counter, "agileml.pull.bytes")                                                    \
  X(PushBytes, Counter, "agileml.push.bytes")                                                    \
  X(PushCoalescedSavedBytes, Counter, "agileml.push.coalesced_saved_bytes")                      \
  X(BackupSyncBytes, Counter, "agileml.backup_sync.bytes")                                       \
  X(StageTransitions, Counter, "agileml.stage.transitions")                                      \
  X(RollbackLostClocks, Counter, "agileml.rollback.lost_clocks")                                 \
  X(StallMicroseconds, Counter, "agileml.stall.microseconds")                                    \
  X(CheckpointBytesWritten, Counter, "agileml.checkpoint.bytes_written")                         \
  X(CheckpointBytesRestored, Counter, "agileml.checkpoint.bytes_restored")                       \
  X(RestoreClocksLost, Counter, "agileml.checkpoint.restore_clocks_lost")                        \
  X(BackupLagClocks, Gauge, "agileml.backup_sync.lag_clocks")                                    \
  X(Workers, Gauge, "agileml.workers")                                                           \
  X(DetectorSuspicions, Counter, "agileml.detector.suspicions")                                  \
  X(DetectorConfirmedDead, Counter, "agileml.detector.confirmed_dead")                           \
  X(DetectorFalsePositives, Counter, "agileml.detector.false_positives")                         \
  X(DetectorLatencyClocks, Gauge, "agileml.detector.detection_latency_clocks")                   \
  X(ClockDuration, Histogram, "agileml.clock.duration_seconds", nullptr, nullptr, kClockSeconds) \
  X(PsApplyNanos, Counter, "ps.apply.nanos", "shard")                                            \
  X(PsApplyRows, Counter, "ps.apply.rows", "shard")                                              \
  X(PsShardRows, Gauge, "ps.shard.rows", "shard")                                                \
  X(PsShardImbalance, Gauge, "ps.shard.imbalance")                                               \
  X(StoreBytesWritten, Counter, "checkpoint.bytes_written")                                      \
  X(StoreBytesRestored, Counter, "checkpoint.bytes_restored")                                    \
  X(StoreChunksWritten, Counter, "checkpoint.chunks_written")                                    \
  X(StoreChunksReused, Counter, "checkpoint.chunks_reused")                                      \
  X(StoreEpochsCommitted, Counter, "checkpoint.epochs_committed")                                \
  X(StoreCommitAborts, Counter, "checkpoint.commit_aborts")                                      \
  X(StoreCorruptEpochsSkipped, Counter, "checkpoint.corrupt_epochs_skipped")                     \
  X(StoreScrubCorruptionsFound, Counter, "checkpoint.scrub_corruptions_found")                   \
  X(RecoveryEvents, Counter, "recovery.events", "depth")                                         \
  X(RecoveryDurableRestores, Counter, "recovery.durable_restores")                               \
  X(RecoveryCorruptEpochsSkipped, Counter, "recovery.corrupt_epochs_skipped")                    \
  X(RecoveryLastDepth, Gauge, "recovery.last_depth")                                             \
  X(ChaosFaults, Counter, "chaos.faults", "class")                                               \
  X(AuditViolations, Counter, "chaos.audit.violations", "invariant")                             \
  X(ProteusCost, Gauge, "proteus.cost.dollars")                                                  \
  X(AllocationsAcquired, Counter, "proteus.allocations", "event", "acquired")                    \
  X(AllocationsEvicted, Counter, "proteus.allocations", "event", "evicted")                      \
  X(AllocationsFailed, Counter, "proteus.allocations", "event", "failed")                        \
  X(AllocationsAborted, Counter, "proteus.allocations", "event", "aborted")                      \
  X(TierCostReliable, Gauge, "proteus.tier.cost", "tier", "reliable")                            \
  X(TierCostTransient, Gauge, "proteus.tier.cost", "tier", "transient")                          \
  X(TierCostServerless, Gauge, "proteus.tier.cost", "tier", "serverless")                        \
  X(AllocCost, Gauge, "proteus.alloc.cost", "alloc")                                             \
  X(BidBrainDecisions, Counter, "bidbrain.decisions")                                            \
  X(BidBrainAcquires, Counter, "bidbrain.actions", "kind", "acquire")                            \
  X(BidBrainTerminations, Counter, "bidbrain.actions", "kind", "terminate")                      \
  X(BidBrainCostPerWork, Gauge, "bidbrain.cost_per_work")                                        \
  X(ClusterRounds, Counter, "cluster.rounds")                                                    \
  X(ClusterPreemptedSlots, Counter, "cluster.preempted.slots")                                   \
  X(ClusterEvictions, Counter, "cluster.evictions")                                              \
  X(ClusterOnDemandSlots, Counter, "cluster.on_demand.slots")                                    \
  X(ClusterUtilizationMean, Gauge, "cluster.utilization.mean")                                   \
  X(ClusterJainLong, Gauge, "cluster.fairness.jain_long")                                        \
  X(ClusterJainShort, Gauge, "cluster.fairness.jain_short")                                      \
  X(ClusterCost, Gauge, "cluster.cost.dollars")                                                  \
  X(TenantAllocatedHours, Gauge, "cluster.tenant.allocated_hours", "tenant")                     \
  X(TenantUsefulHours, Gauge, "cluster.tenant.useful_hours", "tenant")                           \
  X(TenantCredits, Gauge, "cluster.tenant.credits", "tenant")                                    \
  X(TenantCost, Gauge, "cluster.tenant.cost.dollars", "tenant")                                  \
  X(BacktestCells, Counter, "backtest.cells", "policy")                                          \
  X(BacktestCellsIncomplete, Counter, "backtest.cells.incomplete", "policy")                     \
  X(BacktestCellCost, Histogram, "backtest.cell.cost", "policy", nullptr, kCellDollars)          \
  X(BacktestMeanCost, Gauge, "backtest.policy.mean_cost", "policy")                              \
  X(BacktestMeanCostPerWork, Gauge, "backtest.policy.mean_cost_per_work", "policy")              \
  X(BacktestFreeFraction, Gauge, "backtest.policy.free_fraction", "policy")                      \
  X(BacktestMachineHours, Gauge, "backtest.policy.machine_hours", "policy")                      \
  X(RpcMessagesSent, Counter, "rpc.messages.sent", "channel|type")                               \
  X(RpcBytesSent, Counter, "rpc.bytes.sent", "channel|type")                                     \
  X(RpcMessagesDelivered, Counter, "rpc.messages.delivered", "channel|type")                     \
  X(RpcMessagesDropped, Counter, "rpc.messages.dropped", "channel|type")                         \
  X(RpcMessagesDelayed, Counter, "rpc.messages.delayed", "channel|type")                         \
  X(RpcMessagesDuplicated, Counter, "rpc.messages.duplicated", "channel|type")                   \
  X(RpcRetransmits, Counter, "rpc.retransmits", "channel")                                       \
  X(RpcDupSuppressed, Counter, "rpc.dup_delivered_suppressed", "channel")                        \
  X(RpcAckRtt, Histogram, "rpc.ack_rtt", "channel", nullptr, kAckRttSeconds)

#define PROTEUS_OBS_EVENTS(X)                                                                    \
  X(Clock, "clock", "agileml", None, Region)                                                     \
  X(ClockSpan, "clock", "agileml", Span, None, .metric = M::kClockDuration, .feed = "dur")       \
  X(Pull, "pull", "agileml", None, Record, .metric = M::kPullBytes, .feed = "bytes")             \
  X(Push, "push", "agileml", None, Record, .metric = M::kPushBytes, .feed = "bytes")             \
  X(BackupSync, "backup.sync", "agileml", None, Record)                                          \
  X(RecoveryStall, "recovery.stall", "agileml", Span, None)                                      \
  X(BackupLag, "backup_lag_clocks", "agileml", Counter, None, .metric = M::kBackupLagClocks)     \
  X(WorkerNodes, "worker_nodes", "agileml", Counter, None, .metric = M::kWorkers)                \
  X(StageTransition, "stage.transition", "agileml", Span, Record, .metric = M::kStageTransitions) \
  X(NodesAdd, "nodes.add", "agileml", Instant, Record)                                           \
  X(NodesIncorporate, "nodes.incorporate", "agileml", Instant, Record)                           \
  X(NodesEvict, "nodes.evict", "agileml", Instant, Record)                                       \
  X(NodesFail, "nodes.fail", "agileml", Instant, Record,                                         \
    .trace_drop = "lost_server_state|lost_reliable_ps")                                          \
  X(NodesRevoked, "nodes.revoked", "agileml", None, Record)                                      \
  X(RollbackBackup, "rollback", "agileml", Span, Parented, .metric = M::kRollbackLostClocks,    \
    .feed = "lost_clocks")                                                                       \
  X(RollbackCheckpoint, "rollback", "agileml", Span, Record, .metric = M::kRollbackLostClocks,  \
    .feed = "lost_clocks", .trace_drop = "bytes_restored")                                       \
  X(Checkpoint, "checkpoint", "agileml", None, Record, .metric = M::kCheckpointBytesWritten,    \
    .feed = "bytes")                                                                             \
  X(Heartbeat, "heartbeat", "agileml", None, Record)                                             \
  X(DetectorSuspected, "detector.suspected", "agileml", Instant, Record,                         \
    .metric = M::kDetectorSuspicions, .sample = "detector_suspicions")                          \
  X(DetectorConfirmedDead, "detector.confirmed_dead", "agileml", Instant, Record,                \
    .metric = M::kDetectorConfirmedDead)                                                         \
  X(DetectorRecovered, "detector.recovered", "agileml", Instant, Record,                         \
    .metric = M::kDetectorFalsePositives)                                                        \
  X(RecoveryStep, "recovery.step", "recovery", None, Region)                                     \
  X(RecoveryLadder, "recovery.ladder", "agileml", Span, None)                                    \
  X(RecoveryCheckpoint, "recovery.checkpoint", "recovery", None, Region)                         \
  X(RecoveryScrub, "recovery.scrub", "recovery", None, Record)                                   \
  X(Run, "run", "chaos", None, Region)                                                           \
  X(Fault, "fault", "chaos", None, Region)                                                       \
  X(FaultApplied, "fault.", "chaos", Instant, None,                                              \
    .variants = "zone-mass-eviction|preparing-eviction|mid-sync-failure|reliable-failure|"       \
                "transient-wipeout|control-plane-chaos|silent-hang|blackhole|duplicate|"         \
                "correlated-wipeout|checkpoint-corruption|torn-checkpoint|tier-storm")           \
  X(FaultPreparingEviction, "fault.preparing_eviction", "chaos", Instant, None)                  \
  X(FaultConfirmedDead, "fault.confirmed_dead", "chaos", Instant, None)                          \
  X(RecoveryShare, "recovery", "chaos", Span, None)                                              \
  X(AuditViolation, "audit.violation", "chaos", Instant, Parented)                               \
  X(Alloc, "alloc.", "proteus", Instant, Record,                                                 \
    .variants = "bid|terminate.scheduled|active|evicted|failed|failed.silent|failed.confirmed|"  \
                "aborted|terminated")                                                            \
  X(Serverless, "serverless.", "proteus", Instant, Record,                                       \
    .variants = "acquired|active|revoked.silent|failed.confirmed|aborted")                       \
  X(CostSample, "cost.sample", "proteus", Counter, Record, .metric = M::kProteusCost,           \
    .feed = "dollars", .trace_name = "cost_dollars")                                             \
  X(Decision, "decision", "bidbrain", Instant, None, .metric = M::kBidBrainDecisions)            \
  X(Fleet, "fleet", "cluster", None, Region)                                                     \
  X(Round, "round", "cluster", None, Region)                                                     \
  X(RoundSpan, "round", "cluster", Span, None, .metric = M::kClusterRounds)                      \
  X(ClusterUtilization, "cluster.utilization", "cluster", Counter, None)                         \
  X(ClusterEscrow, "cluster.escrow", "cluster", Counter, None)                                   \
  X(TenantAdmit, "tenant.admit", "cluster", None, Record)                                        \
  X(TenantRetire, "tenant.retire", "cluster", None, Record)                                      \
  X(TenantPreempt, "tenant.preempt", "cluster", None, Record,                                    \
    .metric = M::kClusterPreemptedSlots, .feed = "slots")                                        \
  X(TenantEvict, "tenant.evict", "cluster", None, Record, .metric = M::kClusterEvictions)        \
  X(Cell, "cell", "backtest", Instant, None)                                                     \
  X(RpcSend, "rpc.send", "rpc", None, Record)                                                    \
  X(RpcSendReliable, "rpc.send.reliable", "rpc", None, Record)                                   \
  X(RpcRetransmit, "rpc.retransmit", "rpc", Instant, Parented, .metric = M::kRpcRetransmits,    \
    .trace_drop = "channel")                                                                     \
  X(RpcDelivery, "rpc.delivery", "rpc", Span, Parented, .trace_drop = "channel|rtt")             \
  X(RpcDupSuppressed, "rpc.dup_suppressed", "rpc", None, Record, .metric = M::kRpcDupSuppressed)

enum class TraceShape : std::uint8_t { kNone, kInstant, kSpan, kCounter };
enum class LedgerForm : std::uint8_t {
  kNone,
  kRecord,    // Leaf parented to the innermost open region.
  kParented,  // Leaf with an explicit causal parent.
  kRegion,    // Open ... Close causal region.
};

#define PROTEUS_OBS_ID(id, ...) k##id,
enum class Metric : std::uint16_t { kNone, PROTEUS_OBS_METRICS(PROTEUS_OBS_ID) };
enum class Ev : std::uint16_t { PROTEUS_OBS_EVENTS(PROTEUS_OBS_ID) };
#undef PROTEUS_OBS_ID

struct MetricSpec {
  MetricKind kind = MetricKind::kCounter;
  const char* name = "";
  const char* label = nullptr;
  const char* label_value = nullptr;
  std::span<const double> bounds = {};
};

struct EventSpec {
  const char* name = "";       // Ledger kind and trace name, or family prefix.
  const char* component = "";  // Ledger component and trace track.
  TraceShape shape = TraceShape::kNone;
  LedgerForm form = LedgerForm::kNone;
  // Updated once per event: +1 without a feed, else by the arg named
  // `feed` ("dur": the span duration).
  Metric metric = Metric::kNone;
  const char* feed = nullptr;
  const char* trace_drop = nullptr;  // '|'-separated ledger args the trace omits.
  const char* sample = nullptr;      // Trace counter of the metric's running total.
  const char* trace_name = nullptr;
  const char* variants = nullptr;  // '|'-separated suffixes of a family entry.
};

// Indexed by Metric / Ev.
inline std::span<const MetricSpec> MetricCatalog() {
#define PROTEUS_OBS_METRIC(id, kind, ...) {MetricKind::k##kind, __VA_ARGS__},
  static constexpr MetricSpec kMetrics[] = {{}, PROTEUS_OBS_METRICS(PROTEUS_OBS_METRIC)};
#undef PROTEUS_OBS_METRIC
  return kMetrics;
}
inline std::span<const EventSpec> EventCatalog() {
  using M = Metric;
#define PROTEUS_OBS_EVENT(id, kind, ledger_component, trace_shape, ledger_form, ...) \
  {.name = kind, .component = ledger_component, .shape = TraceShape::k##trace_shape,    \
   .form = LedgerForm::k##ledger_form, __VA_ARGS__},
  static constexpr EventSpec kEvents[] = {PROTEUS_OBS_EVENTS(PROTEUS_OBS_EVENT)};
#undef PROTEUS_OBS_EVENT
  return kEvents;
}
inline const MetricSpec& Spec(Metric id) { return MetricCatalog()[static_cast<std::size_t>(id)]; }
inline const EventSpec& Spec(Ev id) { return EventCatalog()[static_cast<std::size_t>(id)]; }
inline const char* MetricName(Metric id) { return Spec(id).name; }
inline const char* EventName(Ev id) { return Spec(id).name; }

}  // namespace obs
}  // namespace proteus

#endif  // SRC_OBS_CATALOG_H_
