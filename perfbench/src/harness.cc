#include "perfbench/src/harness.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/common/logging.h"

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point kProcessStart = std::chrono::steady_clock::now();
}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              kProcessStart)
      .count();
}

int SpanLog::Open(const char* name, int parent, std::int64_t id, std::int64_t start_ns,
                  int attr) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  span.parent = parent;
  span.id = id;
  span.attr = attr;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Close(int index, std::int64_t end_ns) {
  if (index >= 0) {
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%lld\t%d\t%d\n", s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.id), s.worker, s.attr);
  }
  return std::fclose(f) == 0;
}

double TimedCall::Finish() {
  const std::int64_t end_ns = NowNs();
  log_.Close(span_, end_ns);
  return static_cast<double>(end_ns - start_ns_) / 1e6;
}

TimedApp::TimedApp(proteus::MLApp* inner, int max_node_ids)
    : inner_(inner), slots_(static_cast<std::size_t>(max_node_ids)) {
  PROTEUS_CHECK(inner_ != nullptr);
}

void TimedApp::ProcessRange(proteus::WorkerContext& ctx, std::int64_t begin, std::int64_t end) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    inner_->ProcessRange(ctx, begin, end);
    return;
  }
  const std::int64_t start_ns = NowNs();
  inner_->ProcessRange(ctx, begin, end);
  const std::int64_t end_ns = NowNs();
  const auto node = static_cast<std::size_t>(ctx.node());
  PROTEUS_CHECK_LT(node, slots_.size()) << "node id beyond TimedApp slots";
  slots_[node].calls.emplace_back(start_ns, end_ns);
}

void TimedApp::Harvest(SpanLog& log, int parent, std::int64_t id) {
  for (std::size_t node = 0; node < slots_.size(); ++node) {
    auto& calls = slots_[node].calls;
    for (const auto& [start_ns, end_ns] : calls) {
      Span span;
      span.name = "apps.ProcessRange";
      span.start_ns = start_ns;
      span.end_ns = end_ns;
      span.parent = parent;
      span.id = id;
      span.worker = static_cast<int>(node);
      log.Add(span);
    }
    calls.clear();
  }
}

std::vector<proteus::BidAction> TimedPolicy::Decide(
    proteus::SimTime now, const std::vector<proteus::LiveAllocation>& live) const {
  if (!log_->enabled()) {
    return inner_->Decide(now, live);
  }
  TimedCall call(*log_, "bidbrain.Decide", job_span_, job_id_);
  std::vector<proteus::BidAction> actions = inner_->Decide(now, live);
  call.Finish();
  return actions;
}

std::uint64_t StateDigest(const proteus::AgileMLRuntime& runtime) {
  // FNV-1a over 8-byte words: the blobs are tens of MB, so a byte-wise
  // hash would dominate the untimed checking work.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t word) { h = (h ^ word) * 0x100000001B3ULL; };
  for (int s = 0; s < runtime.model().shards(); ++s) {
    const std::vector<std::uint8_t> blob = runtime.model().SerializeShardCheckpoint(s);
    std::size_t i = 0;
    for (; i + 8 <= blob.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, blob.data() + i, 8);
      mix(word);
    }
    std::uint64_t tail = 0;
    if (i < blob.size()) {
      std::memcpy(&tail, blob.data() + i, blob.size() - i);
    }
    mix(tail ^ (static_cast<std::uint64_t>(blob.size()) << 56));
  }
  mix(static_cast<std::uint64_t>(runtime.clock()));
  return h;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

proteus::AgileMLConfig ClusterAConfig(int num_partitions, std::uint64_t seed) {
  proteus::AgileMLConfig config;
  config.num_partitions = num_partitions;
  config.staleness = 1;
  config.core_speed = 1.2e7;
  config.nic_bandwidth = 1.25e8;
  config.storage_bandwidth = 6.25e7;
  config.barrier_overhead = 0.05;
  config.backup_sync_every = 1;
  config.data_blocks = 1024;
  config.bytes_per_item = 64.0;
  config.seed = seed;
  config.parallel_execution = true;
  return config;
}

std::vector<proteus::NodeInfo> MakeNodes(int reliable, int transient, proteus::NodeId first_id) {
  std::vector<proteus::NodeInfo> nodes;
  proteus::NodeId id = first_id;
  for (int i = 0; i < reliable; ++i) {
    nodes.push_back({id++, proteus::Tier::kReliable, 8, proteus::kInvalidAllocation});
  }
  for (int i = 0; i < transient; ++i) {
    nodes.push_back({id++, proteus::Tier::kTransient, 8, proteus::kInvalidAllocation});
  }
  return nodes;
}

bool KeepGoing(const Options& opt, int samples, std::int64_t loop_start_ns) {
  const double elapsed = static_cast<double>(NowNs() - loop_start_ns) / 1e9;
  if (elapsed >= kMaxLoopSeconds) {
    return false;
  }
  return elapsed < opt.seconds || samples < kMinSamples;
}

void RunResult::Check(const std::string& name, bool ok) {
  checks[name] = ok;
  ++attempted;
  if (!ok) {
    ++failed;
  }
}

}  // namespace perfbench
