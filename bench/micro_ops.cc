// Micro-benchmarks (google-benchmark) for the hot operations of the
// parameter-server substrate: row reads/updates, backup sync, checkpoint
// serialize/write/restore, fabric accounting, and cost-model evaluation.
//
// Two modes:
//   micro_ops [gbench flags]          normal google-benchmark run
//   micro_ops --bench_json=PATH       self-timed headline numbers only,
//                                     written as JSON (the CI artifact)
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/support.h"
#include "src/bidbrain/cost_model.h"
#include "src/common/crc32.h"
#include "src/ps/checkpoint_store.h"
#include "src/ps/model.h"
#include "src/rpc/messages.h"
#include "src/rpc/serializer.h"

namespace proteus {
namespace {

ModelStore MakeStore() {
  return ModelStore({{0, 10000, 128, 0.0F, 0.1F}}, 32, 7);
}

void BM_ModelReadRow(benchmark::State& state) {
  ModelStore store = MakeStore();
  std::vector<float> row;
  std::int64_t r = 0;
  for (auto _ : state) {
    store.ReadRow(0, r, row);
    benchmark::DoNotOptimize(row.data());
    r = (r + 1) % 10000;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 128 * 4);
}
BENCHMARK(BM_ModelReadRow);

void BM_ModelApplyDelta(benchmark::State& state) {
  ModelStore store = MakeStore();
  const std::vector<float> delta(128, 0.5F);
  std::int64_t r = 0;
  for (auto _ : state) {
    store.ApplyDelta(0, r, delta);
    r = (r + 1) % 10000;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 128 * 4);
}
BENCHMARK(BM_ModelApplyDelta);

void BM_BackupSync(benchmark::State& state) {
  ModelStore store = MakeStore();
  store.EnableBackups();
  const std::vector<float> delta(128, 0.5F);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::int64_t r = 0; r < 1000; ++r) {
      store.ApplyDelta(0, r, delta);
    }
    state.ResumeTiming();
    for (PartitionId p = 0; p < 32; ++p) {
      benchmark::DoNotOptimize(store.SyncPartitionToBackup(p));
    }
  }
}
BENCHMARK(BM_BackupSync);

// --- The PS hot path end to end: apply a clock's worth of updates and
// serialize the resulting push traffic. Legacy = per-row ApplyDelta +
// per-row UpdateParamMsg frames (one allocation per row). Sharded =
// batched ApplyUpdates (each partition lock taken once) + one coalesced
// delta batch (single allocation). Arg(0) is ModelOptions::shards, which
// only groups partitions, so the three runs differ by noise.
constexpr int kHotRows = 4096;
constexpr int kHotCols = 64;

ModelStore MakeHotStore(int shards) {
  ModelOptions options;
  options.shards = shards;
  return ModelStore({{0, 10000, kHotCols, 0.0F, 0.1F}}, 32, 7, options);
}

void BM_ApplySerializeLegacy(benchmark::State& state) {
  ModelStore store = MakeHotStore(1);
  const std::vector<float> delta(kHotCols, 0.5F);
  for (auto _ : state) {
    std::uint64_t bytes = 0;
    for (std::int64_t r = 0; r < kHotRows; ++r) {
      store.ApplyDelta(0, r, delta);
      UpdateParamMsg msg;
      msg.table = 0;
      msg.row = r;
      msg.delta = delta;
      bytes += EncodeMessage(msg).size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kHotRows);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kHotRows * kHotCols * 4);
}
BENCHMARK(BM_ApplySerializeLegacy);

void BM_ApplySerializeSharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  ModelStore store = MakeHotStore(shards);
  const std::vector<float> delta(kHotCols, 0.5F);
  std::vector<RowDelta> batch;
  std::vector<DeltaRow> wire;
  batch.reserve(kHotRows);
  wire.reserve(kHotRows);
  for (std::int64_t r = 0; r < kHotRows; ++r) {
    batch.push_back({0, r, std::span<const float>(delta)});
    wire.push_back({MakeRowKey(0, r), std::span<const float>(delta)});
  }
  for (auto _ : state) {
    store.ApplyUpdates(batch);
    benchmark::DoNotOptimize(EncodeDeltaBatch(wire).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kHotRows);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kHotRows * kHotCols * 4);
}
BENCHMARK(BM_ApplySerializeSharded)->Arg(1)->Arg(4)->Arg(8);

// --- Durable checkpoint path (PR 6): serialize the model's shards,
// push them through the two-phase CheckpointStore commit, and restore
// them back. Bytes/sec is the headline; the store-write bench forces
// full (non-incremental) epochs so it measures frame+CRC+manifest cost,
// not the reuse fast path.

void PopulateStore(ModelStore& store) {
  const std::vector<float> delta(kHotCols, 0.5F);
  std::vector<RowDelta> batch;
  batch.reserve(kHotRows);
  for (std::int64_t r = 0; r < kHotRows; ++r) {
    batch.push_back({0, r, std::span<const float>(delta)});
  }
  store.ApplyUpdates(batch);
}

// One durable epoch as RecoveryManager writes it: each shard's version
// captured before it is serialized, then the blobs through WriteBlobs.
CheckpointWriteResult WriteModelEpoch(CheckpointStore& ck, const ModelStore& store, Clock clock) {
  std::vector<std::vector<std::uint8_t>> blobs;
  std::vector<std::uint64_t> versions;
  for (int s = 0; s < store.shards(); ++s) {
    versions.push_back(store.ShardVersion(s));
    blobs.push_back(store.SerializeShardCheckpoint(s));
  }
  return ck.WriteBlobs(blobs, versions, clock);
}

std::uint64_t CheckpointBytes(const ModelStore& store) {
  std::uint64_t bytes = 0;
  for (int s = 0; s < store.shards(); ++s) {
    bytes += store.SerializeShardCheckpoint(s).size();
  }
  return bytes;
}

void BM_CheckpointSerializeShards(benchmark::State& state) {
  ModelStore store = MakeHotStore(static_cast<int>(state.range(0)));
  PopulateStore(store);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    bytes = 0;
    for (int s = 0; s < store.shards(); ++s) {
      bytes += store.SerializeShardCheckpoint(s).size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointSerializeShards)->Arg(1)->Arg(8);

// Shard versions no earlier epoch used, so every chunk is rewritten.
std::vector<std::uint64_t> FreshVersions(std::size_t shards, Clock clock) {
  return std::vector<std::uint64_t>(shards, static_cast<std::uint64_t>(clock));
}

void BM_CheckpointStoreWrite(benchmark::State& state) {
  ModelStore store = MakeHotStore(static_cast<int>(state.range(0)));
  PopulateStore(store);
  std::vector<std::vector<std::uint8_t>> blobs;
  std::uint64_t bytes = 0;
  for (int s = 0; s < store.shards(); ++s) {
    blobs.push_back(store.SerializeShardCheckpoint(s));
    bytes += blobs.back().size();
  }
  MemDurableDevice device;
  CheckpointStore ck(&device);
  Clock clock = 0;
  for (auto _ : state) {
    ++clock;
    benchmark::DoNotOptimize(ck.WriteBlobs(blobs, FreshVersions(blobs.size(), clock), clock)
                                 .committed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointStoreWrite)->Arg(1)->Arg(8);

void BM_CheckpointRestore(benchmark::State& state) {
  ModelStore store = MakeHotStore(static_cast<int>(state.range(0)));
  PopulateStore(store);
  MemDurableDevice device;
  CheckpointStore ck(&device);
  const CheckpointWriteResult written = WriteModelEpoch(ck, store, 1);
  for (auto _ : state) {
    const auto loaded = ck.ReadNewestValid();
    for (int s = 0; s < store.shards(); ++s) {
      store.RestoreShardCheckpoint(s, loaded->shard_blobs[static_cast<std::size_t>(s)]);
    }
    benchmark::DoNotOptimize(loaded->bytes_read);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(written.bytes_written));
}
BENCHMARK(BM_CheckpointRestore)->Arg(1)->Arg(8);

// CRC-32 over a buffer the size of one durable-churn checkpoint chunk
// (~9 MB): every chunk write and restore makes one such pass.
constexpr std::size_t kCrcBytes = 9u << 20;

std::vector<std::uint8_t> MakeCrcBuffer() {
  std::vector<std::uint8_t> buffer(kCrcBytes);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
  }
  return buffer;
}

void BM_Crc32(benchmark::State& state) {
  const std::vector<std::uint8_t> buffer = MakeCrcBuffer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buffer));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buffer.size()));
}
BENCHMARK(BM_Crc32);

void BM_FabricRecordTransfer(benchmark::State& state) {
  Fabric fabric(1.25e8);
  for (NodeId n = 0; n < 64; ++n) {
    fabric.AddNode(n);
  }
  fabric.BeginRound();
  NodeId src = 0;
  for (auto _ : state) {
    fabric.RecordTransfer(src, (src + 1) % 64, 1024);
    src = (src + 1) % 64;
  }
}
BENCHMARK(BM_FabricRecordTransfer);

void BM_CostModelEvaluate(benchmark::State& state) {
  std::vector<AllocationPlan> plans;
  for (int i = 0; i < 8; ++i) {
    AllocationPlan plan;
    plan.market = {"z0", "c4.xlarge"};
    plan.count = 16;
    plan.hourly_price = 0.05 + 0.01 * i;
    plan.beta = 0.1 * i / 8.0;
    plan.omega = kHour;
    plan.work_per_hour = 4.0;
    plans.push_back(plan);
  }
  const AppProfile app;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CostModel::ExpectedCostPerWork(plans, app, true));
  }
}
BENCHMARK(BM_CostModelEvaluate);

void BM_MfProcessClock(benchmark::State& state) {
  RatingsConfig rc;
  rc.users = 2000;
  rc.items = 500;
  rc.ratings = 20000;
  const RatingsDataset data = GenerateRatings(rc);
  MfConfig mc;
  mc.rank = 64;
  MatrixFactorizationApp app(&data, mc);
  AgileMLConfig config;
  config.num_partitions = 8;
  config.parallel_execution = false;
  AgileMLRuntime runtime(&app, config, {{0, Tier::kReliable, 8, kInvalidAllocation}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.RunClock().duration);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * rc.ratings);
}
BENCHMARK(BM_MfProcessClock);

// --- --bench_json mode: the headline numbers CI tracks as an artifact.
// Self-timed (steady_clock) instead of going through google-benchmark so
// the output schema is ours and stays stable across benchmark-library
// upgrades.

double SecondsPerIter(const std::function<void()>& body) {
  using clock = std::chrono::steady_clock;
  body();  // Warm-up: touch lazily-materialized rows, fill caches.
  int iters = 0;
  const clock::time_point begin = clock::now();
  clock::time_point now = begin;
  // At least 3 iterations and ~200ms of wall time.
  while (iters < 3 || std::chrono::duration<double>(now - begin).count() < 0.2) {
    body();
    ++iters;
    now = clock::now();
  }
  return std::chrono::duration<double>(now - begin).count() / iters;
}

std::vector<bench::BenchJsonRow> RunJsonBenches() {
  std::vector<bench::BenchJsonRow> rows;

  // Legacy vs sharded apply+serialize: the tentpole rows/s comparison.
  {
    ModelStore store = MakeHotStore(1);
    const std::vector<float> delta(kHotCols, 0.5F);
    const double spi = SecondsPerIter([&] {
      std::uint64_t bytes = 0;
      for (std::int64_t r = 0; r < kHotRows; ++r) {
        store.ApplyDelta(0, r, delta);
        UpdateParamMsg msg;
        msg.table = 0;
        msg.row = r;
        msg.delta = delta;
        bytes += EncodeMessage(msg).size();
      }
      benchmark::DoNotOptimize(bytes);
    });
    rows.push_back({"apply_serialize_legacy", "rows_per_sec", kHotRows / spi, "rows/s"});
  }
  {
    ModelStore store = MakeHotStore(8);
    const std::vector<float> delta(kHotCols, 0.5F);
    std::vector<RowDelta> batch;
    std::vector<DeltaRow> wire;
    batch.reserve(kHotRows);
    wire.reserve(kHotRows);
    for (std::int64_t r = 0; r < kHotRows; ++r) {
      batch.push_back({0, r, std::span<const float>(delta)});
      wire.push_back({MakeRowKey(0, r), std::span<const float>(delta)});
    }
    const double spi = SecondsPerIter([&] {
      store.ApplyUpdates(batch);
      benchmark::DoNotOptimize(EncodeDeltaBatch(wire).size());
    });
    rows.push_back({"apply_serialize_sharded8", "rows_per_sec", kHotRows / spi, "rows/s"});
  }

  // Durable checkpoint path: serialize, store-write (full epochs through
  // the 2-phase commit), restore, and the CRC-32 pass under both.
  {
    ModelStore store = MakeHotStore(8);
    PopulateStore(store);
    const double bytes = static_cast<double>(CheckpointBytes(store));
    const double spi = SecondsPerIter([&] {
      std::uint64_t total = 0;
      for (int s = 0; s < store.shards(); ++s) {
        total += store.SerializeShardCheckpoint(s).size();
      }
      benchmark::DoNotOptimize(total);
    });
    rows.push_back({"checkpoint_serialize", "mb_per_sec", bytes / spi / 1e6, "MB/s"});
  }
  {
    ModelStore store = MakeHotStore(8);
    PopulateStore(store);
    std::vector<std::vector<std::uint8_t>> blobs;
    double bytes = 0;
    for (int s = 0; s < store.shards(); ++s) {
      blobs.push_back(store.SerializeShardCheckpoint(s));
      bytes += static_cast<double>(blobs.back().size());
    }
    MemDurableDevice device;
    CheckpointStore ck(&device);
    Clock clock = 0;
    const double spi = SecondsPerIter([&] {
      ++clock;
      benchmark::DoNotOptimize(
          ck.WriteBlobs(blobs, FreshVersions(blobs.size(), clock), clock).committed);
    });
    rows.push_back({"checkpoint_store_write", "mb_per_sec", bytes / spi / 1e6, "MB/s"});
  }
  {
    ModelStore store = MakeHotStore(8);
    PopulateStore(store);
    MemDurableDevice device;
    CheckpointStore ck(&device);
    const CheckpointWriteResult written = WriteModelEpoch(ck, store, 1);
    const double bytes = static_cast<double>(written.bytes_written);
    const double spi = SecondsPerIter([&] {
      const auto loaded = ck.ReadNewestValid();
      for (int s = 0; s < store.shards(); ++s) {
        store.RestoreShardCheckpoint(s, loaded->shard_blobs[static_cast<std::size_t>(s)]);
      }
      benchmark::DoNotOptimize(loaded->bytes_read);
    });
    rows.push_back({"checkpoint_restore", "mb_per_sec", bytes / spi / 1e6, "MB/s"});
  }
  {
    const std::vector<std::uint8_t> buffer = MakeCrcBuffer();
    const double spi = SecondsPerIter([&] { benchmark::DoNotOptimize(Crc32(buffer)); });
    rows.push_back({"crc32", "mb_per_sec", static_cast<double>(buffer.size()) / spi / 1e6, "MB/s"});
  }
  return rows;
}

int WriteMicroOpsJson(const std::string& path) {
  return bench::WriteBenchJson(path, "micro_ops", RunJsonBenches()) ? 0 : 1;
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) {
  const std::string json_path = proteus::bench::TakeFlag(argc, argv, "bench_json");
  if (!json_path.empty()) {
    return proteus::WriteMicroOpsJson(json_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
