// Contract of the event catalog (src/obs/catalog.h) with everything that
// depends on its names:
//   - every ledger kind, trace event and metric the obs_scenarios runs emit
//     is declared, with the component, track and shape it is emitted with;
//   - every catalog kind and metric is named in DESIGN.md §8 or §13, and
//     §8 carries the catalog tables exactly as rendered here;
//   - every dotted name proteus_analyze reads is a catalog kind or metric.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/chaos/fault_injector.h"
#include "src/obs/catalog.h"
#include "tests/obs_scenarios.h"

namespace proteus {
namespace {

using obs::EventSpec;
using obs::LedgerForm;
using obs::MetricSpec;
using obs::TraceShape;

std::string ReadSource(const std::string& relative) {
  std::ifstream in(std::string(PROTEUS_SOURCE_DIR) + "/" + relative);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// "a|b" -> {"a", "b"}; nullptr -> {}.
std::vector<std::string> SplitBars(const char* list) {
  std::vector<std::string> out;
  std::string_view rest = list != nullptr ? list : "";
  while (!rest.empty()) {
    const std::size_t bar = rest.find('|');
    out.emplace_back(rest.substr(0, bar));
    rest.remove_prefix(bar == std::string_view::npos ? rest.size() : bar + 1);
  }
  return out;
}

// The names an entry stands for: its name, or prefix + each variant.
std::vector<std::string> EventNames(const EventSpec& spec) {
  if (spec.variants == nullptr) {
    return {spec.name};
  }
  std::vector<std::string> names;
  for (const std::string& variant : SplitBars(spec.variants)) {
    names.push_back(spec.name + variant);
  }
  return names;
}

std::set<std::string> LedgerKeys() {
  std::set<std::string> keys;
  for (const EventSpec& spec : obs::EventCatalog()) {
    for (const std::string& name : EventNames(spec)) {
      if (spec.form != LedgerForm::kNone) {
        keys.insert(std::string(spec.component) + ":" + name);
      }
    }
  }
  return keys;
}

// "track:name:phase" for every trace event the catalog allows, counter
// samples of event metrics included.
std::set<std::string> TraceKeys() {
  std::set<std::string> keys;
  for (const EventSpec& spec : obs::EventCatalog()) {
    const std::string track = spec.component;
    if (spec.sample != nullptr) {
      keys.insert(track + ":" + spec.sample + ":C");
    }
    for (const std::string& name : EventNames(spec)) {
      switch (spec.shape) {
        case TraceShape::kNone:
          break;
        case TraceShape::kInstant:
          keys.insert(track + ":" + name + ":i");
          break;
        case TraceShape::kSpan:
          keys.insert(track + ":" + name + ":X");
          break;
        case TraceShape::kCounter:
          keys.insert(track + ":" + (spec.trace_name != nullptr ? spec.trace_name : name) + ":C");
          break;
      }
    }
  }
  return keys;
}

std::set<std::string> MetricNames() {
  std::set<std::string> names;
  for (const MetricSpec& spec : obs::MetricCatalog()) {
    if (*spec.name != '\0') {
      names.insert(spec.name);
    }
  }
  return names;
}

TEST(ObsCatalog, EveryEmittedKindAndMetricIsDeclared) {
  const std::set<std::string> ledger_keys = LedgerKeys();
  const std::set<std::string> trace_keys = TraceKeys();
  const std::set<std::string> metric_names = MetricNames();
  for (void (*run)(obs_scenarios::Outputs*) :
       {obs_scenarios::RunChaos, obs_scenarios::RunLossyLinkAndTierStorm,
        obs_scenarios::RunProteusJob, obs_scenarios::RunFleet, obs_scenarios::RunBacktest,
        obs_scenarios::RunReliableChannel}) {
    obs_scenarios::Outputs out;
    run(&out);
    for (const obs::LedgerEvent& event : out.ledger.Events()) {
      EXPECT_EQ(ledger_keys.count(event.component + ":" + event.kind), 1u)
          << "ledger " << event.component << ":" << event.kind;
    }
    for (const obs::TraceEvent& event : out.tracer.events()) {
      const char phase = event.phase == obs::TraceEvent::Phase::kSpan      ? 'X'
                         : event.phase == obs::TraceEvent::Phase::kInstant ? 'i'
                                                                           : 'C';
      EXPECT_EQ(trace_keys.count(event.track + ":" + event.name + ":" + phase), 1u)
          << "trace " << event.track << ":" << event.name << ":" << phase;
    }
    for (const obs::MetricPoint& point : out.metrics.Snapshot().points) {
      EXPECT_EQ(metric_names.count(point.name), 1u) << "metric " << point.name;
    }
  }
}

TEST(ObsCatalog, FaultFamilyCoversEveryFaultClass) {
  const std::vector<std::string> names = EventNames(obs::Spec(obs::Ev::kFaultApplied));
  for (int i = 0; i < kNumFaultClasses; ++i) {
    const std::string name = std::string("fault.") + FaultClassName(static_cast<FaultClass>(i));
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
  }
}

TEST(ObsCatalog, EntriesAreWellFormed) {
  for (const EventSpec& spec : obs::EventCatalog()) {
    EXPECT_TRUE(spec.shape != TraceShape::kNone || spec.form != LedgerForm::kNone) << spec.name;
    // Regions open and close on the ledger only; counters are samples.
    if (spec.form == LedgerForm::kRegion) {
      EXPECT_EQ(spec.shape, TraceShape::kNone) << spec.name;
    }
    if (spec.feed != nullptr || spec.sample != nullptr) {
      EXPECT_NE(spec.metric, obs::Metric::kNone) << spec.name;
    }
  }
  for (const MetricSpec& spec : obs::MetricCatalog()) {
    EXPECT_EQ(spec.kind == obs::MetricKind::kHistogram, !spec.bounds.empty()) << spec.name;
  }
}

// Markdown tables of the catalog, one row per event kind and per metric.
std::string EventTable() {
  std::string out = "| kind | trace (track: shape) | ledger (component: form) | metric |\n"
                    "|---|---|---|---|\n";
  const char* const kShapes[] = {"—", "instant", "span", "counter"};
  const char* const kForms[] = {"—", "record", "record, explicit parent", "region"};
  for (const EventSpec& spec : obs::EventCatalog()) {
    std::string trace = kShapes[static_cast<int>(spec.shape)];
    if (spec.shape != TraceShape::kNone) {
      trace = std::string(spec.component) + ": " + trace;
      if (spec.trace_name != nullptr) {
        trace += std::string(" `") + spec.trace_name + "`";
      }
      if (spec.sample != nullptr) {
        trace += std::string(" + counter `") + spec.sample + "`";
      }
      for (const std::string& arg : SplitBars(spec.trace_drop)) {
        trace += ", without `" + arg + "`";
      }
    }
    std::string ledger = kForms[static_cast<int>(spec.form)];
    if (spec.form != LedgerForm::kNone) {
      ledger = std::string(spec.component) + ": " + ledger;
    }
    std::string metric = "—";
    if (spec.metric != obs::Metric::kNone) {
      metric = std::string("`") + obs::MetricName(spec.metric) + "` " +
               (spec.feed != nullptr                     ? std::string("← `") + spec.feed + "`"
                : spec.shape == TraceShape::kCounter ? std::string("← sample")
                                                     : std::string("+1"));
    }
    for (const std::string& name : EventNames(spec)) {
      out += "| `" + name + "` | " + trace + " | " + ledger + " | " + metric + " |\n";
    }
  }
  return out;
}

std::string MetricTable() {
  std::string out = "| metric | kind | labels |\n|---|---|---|\n";
  for (const MetricSpec& spec : obs::MetricCatalog()) {
    if (*spec.name == '\0') {
      continue;
    }
    std::string labels;
    for (const std::string& key : SplitBars(spec.label)) {
      labels += (labels.empty() ? "`" : ", `") + key +
                (spec.label_value != nullptr ? std::string("=") + spec.label_value : "") + "`";
    }
    out += std::string("| `") + spec.name + "` | " + obs::MetricKindName(spec.kind) + " | " +
           (labels.empty() ? "—" : labels) + " |\n";
  }
  return out;
}

// The text of DESIGN.md sections §8 and §13.
std::string DesignSections() {
  const std::string design = ReadSource("DESIGN.md");
  std::string out;
  for (const char* heading : {"\n## 8. ", "\n## 13. "}) {
    const std::size_t begin = design.find(heading);
    EXPECT_NE(begin, std::string::npos) << heading;
    if (begin != std::string::npos) {
      out += design.substr(begin, design.find("\n## ", begin + 1) - begin);
    }
  }
  return out;
}

TEST(ObsCatalog, DesignDocCarriesTheCatalog) {
  const std::string sections = DesignSections();
  for (const EventSpec& spec : obs::EventCatalog()) {
    for (const std::string& name : EventNames(spec)) {
      EXPECT_NE(sections.find("`" + name + "`"), std::string::npos) << name;
    }
  }
  for (const std::string& name : MetricNames()) {
    EXPECT_NE(sections.find("`" + name + "`"), std::string::npos) << name;
  }
  // The §8 tables are these renderings, verbatim: regenerate them from
  // the failure output when the catalog changes.
  const std::string events = EventTable();
  const std::string metrics = MetricTable();
  EXPECT_NE(sections.find(events), std::string::npos) << "DESIGN.md §8 event table:\n" << events;
  EXPECT_NE(sections.find(metrics), std::string::npos) << "DESIGN.md §8 metric table:\n"
                                                       << metrics;
}

TEST(ObsCatalog, AnalyzerReadsOnlyCatalogNames) {
  const std::string analyze = ReadSource("src/obs/analyze/analyze.cc");
  ASSERT_FALSE(analyze.empty());
  std::set<std::string> known = MetricNames();
  for (const EventSpec& spec : obs::EventCatalog()) {
    for (const std::string& name : EventNames(spec)) {
      known.insert(name);
    }
  }
  // Any dotted string literal the analyzer holds must be a catalog name
  // (a renamed or mistyped metric would otherwise read as absent).
  for (std::size_t i = analyze.find('"'); i != std::string::npos; i = analyze.find('"', i + 1)) {
    const std::size_t end = analyze.find_first_not_of("abcdefghijklmnopqrstuvwxyz_.", i + 1);
    const std::string literal = analyze.substr(i + 1, end - i - 1);
    if (end == std::string::npos || analyze[end] != '"' || literal.find('.') == std::string::npos ||
        literal.front() == '.' || literal.back() == '.' || literal.find("..") != std::string::npos) {
      continue;
    }
    EXPECT_EQ(known.count(literal), 1u) << "analyze.cc reads " << literal;
    i = end;
  }
  // Kinds and span names are compared through the catalog, not literals.
  EXPECT_EQ(analyze.find("kind == \""), std::string::npos);
  EXPECT_EQ(analyze.find("name == \""), std::string::npos);
}

}  // namespace
}  // namespace proteus
