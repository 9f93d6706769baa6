#include "src/common/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace proteus {

namespace {

// The PROTEUS_LOG_LEVEL environment variable is consulted exactly once,
// at the first logging call, so tests can set it before any logging
// happens.
LogLevel MinLevel() {
  static const LogLevel level =
      ParseLogLevel(std::getenv("PROTEUS_LOG_LEVEL")).value_or(LogLevel::kInfo);
  return level;
}

std::atomic<void (*)(const char*, void*)> g_fatal_hook{nullptr};
std::atomic<void*> g_fatal_hook_arg{nullptr};
std::atomic<bool> g_in_fatal_hook{false};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

void SetFatalHook(void (*hook)(const char* message, void* arg), void* arg) {
  g_fatal_hook_arg.store(arg);
  g_fatal_hook.store(hook);
}

std::optional<LogLevel> ParseLogLevel(const char* value) {
  if (value == nullptr || *value == '\0') {
    return std::nullopt;
  }
  std::string lower;
  for (const char* p = value; *p != '\0'; ++p) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  if (lower == "debug" || lower == "0") return LogLevel::kDebug;
  if (lower == "info" || lower == "1") return LogLevel::kInfo;
  if (lower == "warning" || lower == "warn" || lower == "2") return LogLevel::kWarning;
  if (lower == "error" || lower == "3") return LogLevel::kError;
  if (lower == "fatal" || lower == "4") return LogLevel::kFatal;
  return std::nullopt;
}

namespace log_internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  // Strip directories for brevity.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= MinLevel() || level_ == LogLevel::kFatal) {
    stream_ << "\n";
    std::fputs(stream_.str().c_str(), stderr);
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) {
    auto* hook = g_fatal_hook.load();
    if (hook != nullptr && !g_in_fatal_hook.exchange(true)) {
      hook(stream_.str().c_str(), g_fatal_hook_arg.load());
    }
    std::abort();
  }
}

}  // namespace log_internal
}  // namespace proteus
