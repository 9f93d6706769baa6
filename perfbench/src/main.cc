// perfbench: runs one benchmark workload against the repository's public
// API and prints its raw measurements as one JSON object on stdout.
// perfbench/run.py builds this binary, runs it, and turns the raw
// samples into the reported metrics.
//
//   perfbench --workload mf-stage2|durable-churn|market-sim --seed N
//             --seconds S [--trace 0|1] [--spans PATH] [--tiny] [--corrupt]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/harness.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload mf-stage2|durable-churn|market-sim "
               "--seed N --seconds S [--trace 0|1] [--spans PATH] [--tiny] [--corrupt]\n",
               why);
  return 2;
}

void PrintDoubles(const std::vector<double>& values) {
  std::printf("[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ",", values[i]);
  }
  std::printf("]");
}

void PrintResult(const Options& opt, const RunResult& r) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  std::printf("\"attempted\":%lld,\"failed\":%lld,", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  std::printf("\"setup_s\":");
  PrintDoubles(r.setup_s);
  std::printf(",\"step_ms\":");
  PrintDoubles(r.step_ms);
  std::printf(",\"work_items\":%.9g,\"work_seconds\":%.9g,\"peak_rss_mb\":%.6f,", r.work_items,
              r.work_seconds, PeakRssMb());
  std::printf("\"checks\":{");
  bool first = true;
  for (const auto& [name, ok] : r.checks) {
    std::printf("%s\"%s\":%s", first ? "" : ",", name.c_str(), ok ? "true" : "false");
    first = false;
  }
  std::printf("},\"counters\":{");
  first = true;
  for (const auto& [name, value] : r.counters) {
    std::printf("%s\"%s\":%.9g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("},\"series\":{");
  first = true;
  for (const auto& [name, values] : r.series) {
    std::printf("%s\"%s\":", first ? "" : ",", name.c_str());
    PrintDoubles(values);
    first = false;
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return Usage("--workload needs a value");
      opt.workload = v;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return Usage("--seed needs a value");
      char* end = nullptr;
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return Usage("--seed must be an unsigned integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      const char* v = value();
      if (v == nullptr) return Usage("--seconds needs a value");
      char* end = nullptr;
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return Usage("--seconds must be positive");
      have_seconds = true;
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr || (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)) {
        return Usage("--trace must be 0 or 1");
      }
      opt.trace = v[0] == '1';
    } else if (arg == "--spans") {
      const char* v = value();
      if (v == nullptr) return Usage("--spans needs a path");
      opt.spans_path = v;
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds) {
    return Usage("--seed and --seconds are required");
  }

  SpanLog log;
  RunResult result;
  if (opt.workload == "mf-stage2") {
    result = RunMfStage2(opt, log);
  } else if (opt.workload == "durable-churn") {
    result = RunDurableChurn(opt, log);
  } else if (opt.workload == "market-sim") {
    result = RunMarketSim(opt, log);
  } else {
    return Usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.trace && !opt.spans_path.empty() && !log.WriteTsv(opt.spans_path)) {
    return 1;
  }
  PrintResult(opt, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
