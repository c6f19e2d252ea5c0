#include "obs/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace idr::obs {

namespace {

/// Threshold when no component filter is configured.
constexpr Severity kGlobalThreshold = Severity::Warn;

struct Filter {
  bool active = false;        // false: fall through to kGlobalThreshold
  bool has_default = false;   // spec carried a bare `level` entry
  Severity default_level = Severity::Warn;
  std::vector<std::pair<std::string, Severity>> rules;
};

std::optional<Severity> parse_level(std::string_view s) {
  if (s == "debug") return Severity::Debug;
  if (s == "info") return Severity::Info;
  if (s == "warn") return Severity::Warn;
  if (s == "error") return Severity::Error;
  if (s == "off") return Severity::Off;
  return std::nullopt;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::optional<Filter> parse_filter(std::string_view spec) {
  Filter f;
  f.active = true;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string_view::npos ? spec.size()
                                                            : comma;
    const std::string_view entry = trim(spec.substr(pos, end - pos));
    pos = end + 1;
    if (entry.empty()) return std::nullopt;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      const auto level = parse_level(entry);
      if (!level) return std::nullopt;
      f.has_default = true;
      f.default_level = *level;
    } else {
      const std::string_view component = trim(entry.substr(0, eq));
      const auto level = parse_level(trim(entry.substr(eq + 1)));
      if (component.empty() || !level) return std::nullopt;
      f.rules.emplace_back(std::string(component), *level);
    }
  }
  return f;
}

std::mutex g_filter_mutex;
std::mutex g_stderr_mutex;

void write_line(Severity severity, const std::string& line) {
  static const char* const kNames[] = {"debug", "info", "warn", "error",
                                       "off"};
  std::lock_guard<std::mutex> lock(g_stderr_mutex);
  std::fprintf(stderr, "[%s] %s\n", kNames[static_cast<int>(severity)],
               line.c_str());
}

Filter load_env_filter() {
  const char* env = std::getenv("IDR_OBS_LOG_LEVEL");
  if (env == nullptr || *env == '\0') return Filter{};
  if (auto parsed = parse_filter(env)) return *parsed;
  write_line(
      Severity::Warn,
      std::string("[obs.log] ignoring malformed IDR_OBS_LOG_LEVEL: ") + env);
  return Filter{};
}

Filter& filter_state() {
  static Filter f = load_env_filter();  // env read once, at first log
  return f;
}

/// Rule "rt.relay" matches component "rt.relay" and "rt.relay.accept",
/// never "rt.relayx".
bool prefix_match(std::string_view component, std::string_view rule) {
  if (component.size() < rule.size()) return false;
  if (component.substr(0, rule.size()) != rule) return false;
  return component.size() == rule.size() ||
         component[rule.size()] == '.';
}

}  // namespace

bool log_enabled(Severity severity, std::string_view component) {
  if (severity == Severity::Off) return false;
  std::lock_guard<std::mutex> lock(g_filter_mutex);
  const Filter& f = filter_state();
  if (!f.active) {
    return static_cast<int>(severity) >=
           static_cast<int>(kGlobalThreshold);
  }
  std::size_t best = 0;
  const Severity* matched = nullptr;
  for (const auto& [comp, level] : f.rules) {
    if (prefix_match(component, comp) && comp.size() + 1 > best) {
      best = comp.size() + 1;
      matched = &level;
    }
  }
  const Severity threshold =
      matched != nullptr
          ? *matched
          : (f.has_default ? f.default_level : kGlobalThreshold);
  return static_cast<int>(severity) >= static_cast<int>(threshold);
}

bool set_log_filter(std::string_view spec) {
  if (trim(spec).empty()) {
    std::lock_guard<std::mutex> lock(g_filter_mutex);
    filter_state() = Filter{};
    return true;
  }
  auto parsed = parse_filter(spec);
  if (!parsed) return false;
  std::lock_guard<std::mutex> lock(g_filter_mutex);
  filter_state() = std::move(*parsed);
  return true;
}

void log(Severity severity, std::string_view component,
         const std::string& message) {
  if (!log_enabled(severity, component)) return;
  std::string line;
  line.reserve(component.size() + message.size() + 3);
  line += '[';
  line += component;
  line += "] ";
  line += message;
  write_line(severity, line);
}

}  // namespace idr::obs
