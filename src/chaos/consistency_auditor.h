// Runtime consistency auditing for chaos runs.
//
// After every clock the auditor re-derives the system's core invariants
// from the runtime's introspection surface and records a violation for
// each one that fails. A chaos soak passes only if the violation list is
// empty; every future elasticity change must survive this gate.
//
// Invariants checked (paper anchor in parentheses):
//   1. Serving ownership: every partition has exactly one serving owner,
//      and that owner is a ready node of the right tier for the stage
//      (§3.2 role placement).
//   2. SSP staleness: no worker's clock is more than `staleness` ahead
//      of the slowest worker, nor ahead of the global clock (§3 fn. 6).
//   3. Data coverage: every input block has exactly one live owner, the
//      owners are exactly the worker nodes, and per-worker item counts
//      sum to the full input set (§3.3, Fig. 5).
//   4. Backup lag: in stages 2/3 the BackupPS copy is never more than
//      backup_sync_every clocks behind the active state (§3.3).
//   5. Progress accounting: completed clocks net of declared rollbacks
//      (clock() + lost_clocks_total()) is monotone and advances by
//      exactly one per executed clock — no silent loss, no double count.
//   6. Membership: ready and preparing sets partition the node list and
//      the reliable tier is never empty (§4.2).
//   7. Channel conservation (optional, per channel): every message sent
//      is delivered, dropped, or still pending, net of fault-injected
//      duplicate copies (sent == delivered + dropped + pending -
//      duplicated_extras) — the fault hook may lose or clone messages,
//      but never unaccountably.
//   8. Detector bound (when the failure detector is enabled): the
//      detector tracks exactly the ready set, and every suspected node
//      either recovers (lease renewed) or is confirmed dead and rolled
//      back within confirm_after clocks — no node lingers suspected past
//      the configured bound.
//   9. Tier guard: no serverless node ever holds a parameter-server
//      role, the serverless worker fraction stays within the configured
//      exposure bound, and (stages 2/3) the backup-sync lag stays
//      bounded while serverless workers are exposed — the TierGuard
//      invariants re-checked every clock (zero-warning tier, PR 10).
#ifndef SRC_CHAOS_CONSISTENCY_AUDITOR_H_
#define SRC_CHAOS_CONSISTENCY_AUDITOR_H_

#include <string>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/sinks.h"
#include "src/rpc/channel.h"

namespace proteus {

struct AuditViolation {
  std::string invariant;  // Short name, e.g. "serving-ownership".
  std::string detail;
  Clock clock = 0;  // Runtime clock when the violation was observed.
};

class ConsistencyAuditor {
 public:
  explicit ConsistencyAuditor(const AgileMLRuntime* runtime);

  // Every recorded violation additionally bumps a
  // chaos.audit.violations{invariant=...} counter and drops an
  // "audit.violation" instant on the "chaos" track at the runtime's
  // current virtual time. Either pointer may be nullptr.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  // Attaches the causal event ledger (and, optionally, a flight
  // recorder). Every violation records an "audit.violation" ledger
  // event parented to the clock that exposed it, and the *first*
  // violation triggers one recorder dump so the post-mortem carries the
  // pristine crime scene. Either pointer may be nullptr.
  void SetLedger(obs::EventLedger* ledger, obs::FlightRecorder* recorder);

  // Call exactly once after every RunClock(). Elasticity operations
  // (Evict/Fail/AddNodes/checkpoint/restore) may happen freely between
  // calls; the invariants must hold at every clock boundary regardless.
  void ObserveClock();

  // Conservation check for a control channel (callable any time).
  void ObserveChannel(const Channel& channel, const std::string& name);

  const std::vector<AuditViolation>& violations() const { return violations_; }
  bool ok() const { return violations_.empty(); }

  // Human-readable digest of up to `max_items` violations.
  std::string Report(std::size_t max_items = 10) const;

 private:
  void Add(const std::string& invariant, const std::string& detail);

  void CheckServingOwnership();
  void CheckStaleness();
  void CheckDataCoverage();
  void CheckBackupLag();
  void CheckProgressAccounting();
  void CheckMembership();
  void CheckDetector();
  void CheckTierGuard();

  const AgileMLRuntime* runtime_;
  obs::Sinks sinks_{"chaos"};
  bool dumped_ = false;  // One auto-dump per run: the first violation.
  std::vector<AuditViolation> violations_;
  bool has_prev_ = false;
  Clock prev_clock_ = 0;
  int prev_lost_ = 0;
  int prev_credited_ = 0;
};

}  // namespace proteus

#endif  // SRC_CHAOS_CONSISTENCY_AUDITOR_H_
