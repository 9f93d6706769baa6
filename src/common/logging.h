// Minimal leveled logger. Not thread-safe per line beyond what stdio gives,
// which is fine: log lines are short and writes are atomic-ish on Linux.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

namespace proteus {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

// Messages below the process-wide minimum level are discarded. The
// level comes from the PROTEUS_LOG_LEVEL environment variable, read once
// at the first logging call (see ParseLogLevel for accepted spellings;
// unset or unparsable falls back to kInfo).

// Parses a level name ("debug", "info", "warning"/"warn", "error",
// "fatal"; case-insensitive) or a numeric value 0-4. Returns nullopt
// for anything else (including nullptr).
std::optional<LogLevel> ParseLogLevel(const char* value);

// Invoked once, after a fatal message is printed and before abort().
// Lets crash tooling (the obs::FlightRecorder) persist a post-mortem of
// the run that tripped a PROTEUS_CHECK/DCHECK. The hook must be
// async-signal-unsafe-tolerant only in the sense that it runs on the
// failing thread during normal control flow (not from a signal
// handler); re-entrant fatals while the hook runs skip it. Pass nullptr
// to uninstall.
void SetFatalHook(void (*hook)(const char* message, void* arg), void* arg);

namespace log_internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace log_internal

#define PROTEUS_LOG(level)                                                               \
  ::proteus::log_internal::LogMessage(::proteus::LogLevel::k##level, __FILE__, __LINE__) \
      .stream()

// CHECK macros abort on violation. Used for internal invariants, not for
// recoverable errors.
#define PROTEUS_CHECK(cond)                                        \
  if (!(cond)) PROTEUS_LOG(Fatal) << "CHECK failed: " #cond << " "

// Debug-only CHECK: compiled out (condition unevaluated) when NDEBUG is
// defined. For invariants too expensive or too strict for release runs.
#ifdef NDEBUG
#define PROTEUS_DCHECK(cond) \
  if (false) PROTEUS_LOG(Fatal) << "DCHECK failed: " #cond << " "
#else
#define PROTEUS_DCHECK(cond) PROTEUS_CHECK(cond)
#endif

#define PROTEUS_CHECK_GE(a, b) PROTEUS_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "
#define PROTEUS_CHECK_GT(a, b) PROTEUS_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define PROTEUS_CHECK_LE(a, b) PROTEUS_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define PROTEUS_CHECK_LT(a, b) PROTEUS_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define PROTEUS_CHECK_EQ(a, b) PROTEUS_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define PROTEUS_CHECK_NE(a, b) PROTEUS_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "

}  // namespace proteus

#endif  // SRC_COMMON_LOGGING_H_
