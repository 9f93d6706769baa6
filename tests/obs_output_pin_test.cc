// Cross-commit pin of everything the observability sinks emit.
//
// The golden tests next to this one (obs_trace_golden, analyze_golden,
// event_ledger) compare two runs of the same build, so they cannot see a
// change that alters every byte consistently. This test stores FNV-1a-64
// digests of the Chrome trace JSON, the ledger JSONL and the metrics text
// snapshot of the seeded runs in obs_scenarios.h, which together reach
// every emitting module.
//
// A digest mismatch means the emitted bytes changed. If that change is
// intended, update the constant and say why in the commit message.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "tests/obs_scenarios.h"

namespace proteus {
namespace {

using obs_scenarios::Outputs;

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

struct Digests {
  std::uint64_t trace = 0;
  std::uint64_t ledger = 0;
  std::uint64_t metrics = 0;
};

void ExpectDigests(void (*run)(Outputs*), const Digests& want) {
  Outputs out;
  run(&out);
  EXPECT_EQ(Hex(Fnv1a64(out.tracer.ToChromeJson())), Hex(want.trace)) << "trace JSON";
  EXPECT_EQ(Hex(Fnv1a64(out.ledger.ToJsonl())), Hex(want.ledger)) << "ledger JSONL";
  EXPECT_EQ(Hex(Fnv1a64(out.metrics.Snapshot().ToText())), Hex(want.metrics))
      << "metrics text";
}

// An empty output (no sink of that kind attached) hashes to the FNV
// offset basis.
constexpr std::uint64_t kEmpty = 0xcbf29ce484222325ULL;

TEST(ObsOutputPin, ChaosHarnessWithRecoveryAuditorAndFlightRecorder) {
  ExpectDigests(obs_scenarios::RunChaos,
                {0xcad600bc95cbf8b4ULL, 0x0baee4ab3abb2505ULL, 0x6877ab6eefe7e7adULL});
}

TEST(ObsOutputPin, LossyLinkAndTierStormDrivers) {
  ExpectDigests(obs_scenarios::RunLossyLinkAndTierStorm,
                {0x09d966db2b136dc8ULL, kEmpty, 0x8898d726634891cdULL});
}

TEST(ObsOutputPin, ProteusJobWithBidBrainAndServerlessTier) {
  ExpectDigests(obs_scenarios::RunProteusJob,
                {0x8a6ae86e9ee6f505ULL, 0xae93c3700e006ac5ULL, 0xd4523de33f15af36ULL});
}

TEST(ObsOutputPin, ClusterSchedulerFleet) {
  ExpectDigests(obs_scenarios::RunFleet,
                {0x63cb2f68154f73c8ULL, 0xc63aa6657b75ad65ULL, 0x1571ef7a55c0f79bULL});
}

TEST(ObsOutputPin, BacktestEngine) {
  ExpectDigests(obs_scenarios::RunBacktest,
                {0x846f17ee0e4d42ebULL, kEmpty, 0x30a27f51779f93cbULL});
}

TEST(ObsOutputPin, ReliableChannelOverLossyLinkWithLedger) {
  ExpectDigests(obs_scenarios::RunReliableChannel,
                {0xe77baaac24b308f4ULL, 0xb5a96fe7fdd96295ULL, 0x6ca51c4cacb52389ULL});
}

}  // namespace
}  // namespace proteus
