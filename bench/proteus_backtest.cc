// proteus_backtest: the Policy Lab CLI (DESIGN.md §9).
//
// Replays a set of acquisition policies over sliding windows of stored
// (or synthetic) spot-price traces and prints a ranked comparison:
//
//   proteus_backtest                              # synthetic 90-day market
//   proteus_backtest --trace_csv=bench/data/mini_trace.csv --windows=4
//   proteus_backtest --policies=bidbrain,oracle:4 --out=cells.csv
//
// Flags:
//   --policies=a,b,...     Policy specs (see --list_policies). Default:
//                          on_demand,fixed_delta:0.01,fixed_delta:0.10,
//                          bidbrain,oracle
//   --trace_csv=PATH       Load traces from CSV (zone,type,time_sec,price)
//                          instead of generating the synthetic market.
//   --types=a,b,...        Reference instance types (default c4.2xlarge).
//   --windows=N            Sliding windows over the eval span (default 6).
//   --window_hours=H       Window job duration (default 2).
//   --stride_hours=H       Window stride; 0 = spread evenly (default 0).
//   --jitter_hours=H       Per-cell start jitter (default 0).
//   --reference_count=N    Reference cluster size (default 64).
//   --threads=N            Worker threads; 0 = hardware (default 0).
//   --seed=N               Base seed for per-cell RNG (default 2016).
//   --out=PATH             Write the per-cell result CSV.
//   --list_policies        Print known policy specs and exit.
//   --emit_mini_trace=PATH Regenerate the bundled mini trace and exit.
//   --trace_out= / --metrics_out=  Standard observability sinks.
//
// Determinism: for a fixed seed the per-cell CSV is byte-identical at
// any --threads value (tests/backtest_golden_test.cc).
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/support.h"
#include "src/backtest/backtest_engine.h"

namespace proteus {
namespace {

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == sep) {
      if (!current.empty()) {
        parts.push_back(current);
      }
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) {
    parts.push_back(current);
  }
  return parts;
}

constexpr char kUsage[] =
    "usage: proteus_backtest [--policies=a,b,...] [--trace_csv=PATH] [--types=a,b,...]\n"
    "                        [--windows=N] [--window_hours=H] [--stride_hours=H]\n"
    "                        [--jitter_hours=H] [--reference_count=N] [--threads=N]\n"
    "                        [--seed=N] [--out=PATH] [--list_policies]\n"
    "                        [--emit_mini_trace=PATH] [--trace_out=PATH] [--metrics_out=PATH]\n";

// Pops `--name=value` and parses it as a number in [lo, hi]; `fallback`
// when the flag is absent. A value that is not wholly a finite number in
// range is reported with the usage and clears `*ok`.
double NumberFlag(int& argc, char** argv, const char* name, double fallback, bool* ok,
                  double lo = -std::numeric_limits<double>::max(),
                  double hi = std::numeric_limits<double>::max()) {
  const std::string text = bench::TakeFlag(argc, argv, name);
  if (text.empty()) {
    return fallback;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (std::isspace(static_cast<unsigned char>(text.front())) || end != text.c_str() + text.size() ||
      !std::isfinite(value) || value < lo || value > hi) {
    if (hi == std::numeric_limits<double>::max()) {
      std::fprintf(stderr, "proteus_backtest: bad --%s=%s: want a finite number\n%s", name,
                   text.c_str(), kUsage);
    } else {
      std::fprintf(stderr, "proteus_backtest: bad --%s=%s: want a number in [%.0f, %.0f]\n%s",
                   name, text.c_str(), lo, hi, kUsage);
    }
    *ok = false;
    return fallback;
  }
  return value;
}

int Main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);

  if (bench::TakeSwitch(argc, argv, "list_policies")) {
    std::printf("policy specs:\n");
    for (const std::string& spec : backtest::KnownPolicySpecs()) {
      std::printf("  %s\n", spec.c_str());
    }
    return 0;
  }

  const std::string emit = bench::TakeFlag(argc, argv, "emit_mini_trace");
  if (!emit.empty()) {
    // The bundled CI trace: 2 zones x the default catalog, 4 days at a
    // 15-minute step — big enough for 4+ two-hour windows on the eval
    // half, small enough to commit.
    SyntheticTraceConfig config;
    config.step = 15 * kMinute;
    config.spikes_per_day = 4.0;
    Rng rng(7);
    const TraceStore traces = TraceStore::GenerateSynthetic(
        InstanceTypeCatalog::Default(), {"us-east-1a", "us-east-1b"}, 4 * kDay, config, rng);
    if (!traces.WriteFile(emit)) {
      std::fprintf(stderr, "failed to write %s\n", emit.c_str());
      return 1;
    }
    std::printf("wrote mini trace (%zu markets) to %s\n", traces.Keys().size(), emit.c_str());
    return 0;
  }

  const std::string trace_csv = bench::TakeFlag(argc, argv, "trace_csv");
  const std::string policies_flag = bench::TakeFlag(argc, argv, "policies");
  const std::string types_flag = bench::TakeFlag(argc, argv, "types");
  const std::string out = bench::TakeFlag(argc, argv, "out");

  backtest::BacktestConfig config;
  constexpr double kIntMax = std::numeric_limits<int>::max();
  bool flags_ok = true;
  config.windows =
      static_cast<int>(NumberFlag(argc, argv, "windows", 6, &flags_ok, 1, kIntMax));
  config.window_duration = NumberFlag(argc, argv, "window_hours", 2.0, &flags_ok) * kHour;
  config.stride = NumberFlag(argc, argv, "stride_hours", 0.0, &flags_ok) * kHour;
  config.start_jitter = NumberFlag(argc, argv, "jitter_hours", 0.0, &flags_ok) * kHour;
  config.reference_count =
      static_cast<int>(NumberFlag(argc, argv, "reference_count", 64, &flags_ok, 1, kIntMax));
  config.threads = static_cast<int>(NumberFlag(argc, argv, "threads", 0, &flags_ok, 0, kIntMax));
  // Seeds up to 2^53, the integers a double holds exactly.
  config.seed = static_cast<std::uint64_t>(
      NumberFlag(argc, argv, "seed", 2016, &flags_ok, 0, 9007199254740992.0));
  if (!flags_ok) {
    return 2;
  }
  if (!types_flag.empty()) {
    config.reference_types = Split(types_flag, ',');
  }
  config.scheme = bench::PaperSchemeConfig();

  bench::MarketEnv env;
  if (trace_csv.empty()) {
    env = bench::MakeMarketEnv();
  } else if (std::string error; !bench::MakeMarketEnvFromCsv(trace_csv, &env, &error)) {
    std::fprintf(stderr, "proteus_backtest: bad --trace_csv: %s\n", error.c_str());
    return 2;
  }
  config.eval_begin = env.eval_begin;
  config.eval_end = env.eval_end;

  backtest::BacktestEngine engine(&env.catalog, &env.traces, &env.estimator);
  engine.SetObservability(obs.tracer(), obs.metrics());

  std::vector<std::string> specs = Split(
      policies_flag.empty() ? "on_demand,fixed_delta:0.01,fixed_delta:0.10,bidbrain,oracle"
                            : policies_flag,
      ',');
  for (const std::string& spec : specs) {
    std::string error;
    if (!engine.RegisterPolicySpec(spec, config.scheme, &error)) {
      std::fprintf(stderr, "bad --policies entry: %s\n", error.c_str());
      return 2;
    }
  }

  std::printf("backtest: %zu policies x %zu types x %d windows over [%.1fh, %.1fh]\n",
              engine.policy_count(), config.reference_types.size(), config.windows,
              config.eval_begin / kHour, config.eval_end / kHour);

  const backtest::BacktestReport report = engine.Run(config);

  report.RankedTable().PrintAndMaybeExport("proteus_backtest");
  std::printf("%zu cells on %d threads in %.2fs wall\n", report.cells.size(),
              report.threads_used, report.wall_seconds);

  if (!out.empty()) {
    std::ofstream file(out);
    file << report.ToCsv();
    if (!file.good()) {
      std::fprintf(stderr, "failed to write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %zu cell rows to %s\n", report.cells.size(), out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) { return proteus::Main(argc, argv); }
