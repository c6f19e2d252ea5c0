// The project's one logger: severity + component tags, a single output
// path. Lines go to stderr under one mutex as
// "[warn] [rt.relay] accept backoff ...". The global threshold is Warn —
// the experiment drivers run millions of simulated transfers.
//
// On top of the global threshold, components can be filtered
// individually via IDR_OBS_LOG_LEVEL (read once, at first log) or
// set_log_filter (tests, tools). The spec is a comma-separated list of
// `level` (new default) and `component=level` entries, where levels are
// debug|info|warn|error|off and a component rule applies to itself and
// every dotted child — the longest matching prefix wins:
//
//   IDR_OBS_LOG_LEVEL="warn,rt.relay=debug,obs.sink=off"
//
// lets rt.relay.* chatter through at debug while everything else stays at
// warn and obs.sink goes silent. With no spec configured, the global
// threshold alone decides.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace idr::obs {

enum class Severity { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Emits "[severity] [component] message" to stderr when
/// `log_enabled(severity, component)` passes. Thread-safe.
void log(Severity severity, std::string_view component,
         const std::string& message);

/// Would a message at this severity from this component be emitted?
/// Consults the component filter when one is configured, the global
/// threshold otherwise. Exposed so call sites can guard expensive
/// argument formatting (IDR_OBS_LOG does).
bool log_enabled(Severity severity, std::string_view component);

/// Installs a filter spec programmatically (same grammar as
/// IDR_OBS_LOG_LEVEL; empty spec removes the filter and returns to the
/// global-threshold behaviour). Returns false — leaving the previous
/// filter in place — when the spec does not parse.
bool set_log_filter(std::string_view spec);

/// Streams `expr` into one log line with a component tag; `expr` is only
/// formatted when the severity clears the filter.
#define IDR_OBS_LOG(severity, component, expr)                            \
  do {                                                                    \
    if (::idr::obs::log_enabled(severity, component)) {                   \
      std::ostringstream idr_obs_oss_;                                    \
      idr_obs_oss_ << expr;                                               \
      ::idr::obs::log(severity, component, idr_obs_oss_.str());           \
    }                                                                     \
  } while (0)

}  // namespace idr::obs
