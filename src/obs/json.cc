#include "src/obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"

namespace proteus {
namespace obs {

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string FormatJsonDouble(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;  // JSON has no NaN/Infinity literal.
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void AppendJsonNumber(std::string& out, double v) { out += FormatJsonDouble(v); }

void AppendJsonNumber(std::string& out, std::int64_t v) { out += std::to_string(v); }

std::string FormatJsonNumber(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return FormatJsonDouble(v);
}

// ---------------------------------------------------------------------
// Parser.

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWs();
    if (!ParseValue(out)) {
      if (error != nullptr) {
        *error = error_ + " at byte " + std::to_string(pos_);
      }
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing content at byte " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool Fail(const char* why) {
    if (error_.empty()) {
      error_ = why;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->str);
      case 't':
        if (!ConsumeLiteral("true")) return Fail("bad literal");
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (!ConsumeLiteral("false")) return Fail("bad literal");
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (!ConsumeLiteral("null")) return Fail("bad literal");
        out->type = JsonValue::Type::kNull;
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) {
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipWs();
      if (!Consume(':')) {
        return Fail("expected ':'");
      }
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->fields.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Consume(']')) {
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->items.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // Opening quote.
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return Fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("short \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // Our writers only emit \u00XX; encode the BMP code point as
          // UTF-8 so round-trips of foreign files stay lossless.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xc0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            *out += static_cast<char>(0xe0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            *out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' ||
          c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return Fail("expected value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Fail("bad number");
    }
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) {
    return nullptr;
  }
  for (const auto& [name, value] : fields) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

double JsonValue::NumberField(std::string_view key, double def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->type == Type::kNumber) ? v->number : def;
}

std::int64_t JsonValue::IntField(std::string_view key, std::int64_t def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->type == Type::kNumber) ? static_cast<std::int64_t>(v->number)
                                                    : def;
}

std::string JsonValue::StringField(std::string_view key, std::string def) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->type == Type::kString) ? v->str : def;
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return Parser(text).Parse(out, error);
}

bool ParseJsonLines(std::string_view text, std::vector<JsonValue>* out,
                    std::string* error) {
  std::size_t line_start = 0;
  int line_no = 0;
  while (line_start <= text.size()) {
    std::size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) {
      line_end = text.size();
    }
    const std::string_view line = text.substr(line_start, line_end - line_start);
    ++line_no;
    if (!line.empty()) {
      JsonValue value;
      std::string line_error;
      if (!ParseJson(line, &value, &line_error)) {
        if (error != nullptr) {
          *error = "line " + std::to_string(line_no) + ": " + line_error;
        }
        return false;
      }
      out->push_back(std::move(value));
    }
    if (line_end == text.size()) {
      break;
    }
    line_start = line_end + 1;
  }
  return true;
}

bool WriteStringToFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    PROTEUS_LOG(Error) << "cannot open " << path << " for writing";
    return false;
  }
  const std::size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  if (written != contents.size()) {
    PROTEUS_LOG(Error) << "short write to " << path;
    return false;
  }
  return true;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  out->clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace obs
}  // namespace proteus
