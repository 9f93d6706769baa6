// The parameter store under the configuration people run: MF at stage 2
// with parallel_execution = true, so the runtime's thread pool drives
// concurrent ReadRow/ApplyDelta calls through the per-partition locks
// every clock. The name matches the TSan lane's `Ps` filter, which makes
// this the race check for the default clock path. Invariants: the
// ConsistencyAuditor sees no violation at any clock boundary, and the
// training objective (RMSE) falls.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/agileml/runtime.h"
#include "src/apps/datasets.h"
#include "src/apps/mf.h"
#include "src/chaos/consistency_auditor.h"

namespace proteus {
namespace {

class PsParallelClockTest : public ::testing::TestWithParam<int> {};

TEST_P(PsParallelClockTest, Stage2MfClocksStayConsistentAndConverge) {
  RatingsConfig rc;
  rc.users = 600;
  rc.items = 300;
  rc.ratings = 30000;
  const RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 16;
  MatrixFactorizationApp app(&data, mc);

  AgileMLConfig config;
  config.num_partitions = 16;
  config.data_blocks = 64;
  config.parallel_execution = true;
  config.planner.forced_stage = Stage::kStage2;
  config.model.shards = GetParam();
  std::vector<NodeInfo> nodes;
  for (NodeId id = 0; id < 12; ++id) {
    nodes.push_back({id, id < 4 ? Tier::kReliable : Tier::kTransient, 8, kInvalidAllocation});
  }
  AgileMLRuntime runtime(&app, config, nodes);
  ASSERT_EQ(runtime.stage(), Stage::kStage2);

  ConsistencyAuditor auditor(&runtime);
  const double start = runtime.ComputeObjective();
  double previous = start;
  for (int clock = 0; clock < 8; ++clock) {
    runtime.RunClock();
    auditor.ObserveClock();
    const double objective = runtime.ComputeObjective();
    EXPECT_LT(objective, previous) << "clock " << clock;
    previous = objective;
  }
  EXPECT_TRUE(auditor.ok()) << auditor.Report();
  EXPECT_LT(previous, start * 0.9);
}

INSTANTIATE_TEST_SUITE_P(Shards, PsParallelClockTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace proteus
