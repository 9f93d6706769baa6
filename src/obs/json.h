// Shared JSON plumbing for the observability layer.
//
// Every JSON artifact the repo emits (Chrome traces, the event ledger,
// metrics snapshots, flight-recorder dumps, proteus_analyze reports)
// routes through these helpers so escaping and number formatting are
// fixed in exactly one place and stay byte-deterministic across runs:
//
//   - AppendJsonString: RFC 8259 string escaping (quotes, backslashes,
//     the \b \f \n \r \t short escapes, \u00XX for remaining control
//     characters);
//   - FormatJsonDouble / AppendJsonNumber: "%.9g" formatting with a
//     non-finite guard (JSON has no NaN/Infinity literals; we clamp to
//     0 so an upstream numerical bug corrupts a value, not the file);
//   - a minimal recursive-descent parser (JsonValue / ParseJson) strong
//     enough to read back everything the writers above produce, used by
//     the proteus_analyze toolchain.
//
// Plus small file helpers shared by the exporters and the analyzer CLI.
#ifndef SRC_OBS_JSON_H_
#define SRC_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace proteus {
namespace obs {

// Appends `s` as a quoted, escaped JSON string literal.
void AppendJsonString(std::string& out, std::string_view s);

// Deterministic double formatting: "%.9g", with NaN/Infinity clamped to
// 0 (invalid in JSON). Integral values small enough to round-trip print
// without an exponent or trailing ".0" (e.g. 1024, not 1.024e3).
std::string FormatJsonDouble(double v);
void AppendJsonNumber(std::string& out, double v);
void AppendJsonNumber(std::string& out, std::int64_t v);
// Integral values below 1e15 print as integers ("%lld"), the rest as
// FormatJsonDouble; the metrics exporters and the analyze report use it.
std::string FormatJsonNumber(double v);

// ---------------------------------------------------------------------
// Minimal JSON parser (reader side of the writers above).

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                            // kArray.
  std::vector<std::pair<std::string, JsonValue>> fields;   // kObject, source order.

  // Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  // Typed field accessors with defaults (missing / wrong type => default).
  double NumberField(std::string_view key, double def = 0.0) const;
  std::int64_t IntField(std::string_view key, std::int64_t def = 0) const;
  std::string StringField(std::string_view key, std::string def = "") const;
};

// Parses one JSON document. Returns false (and sets *error with a byte
// offset) on malformed input; trailing whitespace is allowed.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error = nullptr);

// Parses JSONL: one document per non-empty line.
bool ParseJsonLines(std::string_view text, std::vector<JsonValue>* out,
                    std::string* error = nullptr);

// ---------------------------------------------------------------------
// File helpers.

// Returns false (and logs) on I/O failure.
bool WriteStringToFile(const std::string& path, const std::string& contents);
bool ReadFileToString(const std::string& path, std::string* out);

}  // namespace obs
}  // namespace proteus

#endif  // SRC_OBS_JSON_H_
