#include "rt/governance.hpp"

#include <cerrno>
#include <cmath>
#include <string>

namespace idr::rt {

bool accept_errno_is_transient(int err) {
  switch (err) {
    case EMFILE:        // process fd table full
    case ENFILE:        // system fd table full
    case ENOBUFS:       // kernel socket buffers exhausted
    case ENOMEM:
    case ECONNABORTED:  // peer gave up while queued; next accept may work
    case EINTR:
      return true;
    default:
      return false;
  }
}

http::Response make_overload_response(double retry_after_s) {
  http::Response response;
  response.status = 503;
  response.reason = std::string(http::default_reason(503));
  const auto seconds = static_cast<long long>(
      std::ceil(std::max(0.0, retry_after_s)));
  response.headers.set("Retry-After", std::to_string(seconds));
  response.headers.set("Connection", "close");
  return response;
}

namespace {

/// Strict non-negative number ("12", "2.5"); false on anything else.
bool parse_number(std::string_view s, double& out) {
  if (s.empty()) return false;
  double value = 0.0;
  std::size_t i = 0;
  bool any = false;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    value = value * 10.0 + (s[i] - '0');
    any = true;
  }
  if (i < s.size() && s[i] == '.') {
    double scale = 0.1;
    for (++i; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
      value += (s[i] - '0') * scale;
      scale *= 0.1;
      any = true;
    }
  }
  if (!any || i != s.size()) return false;
  out = value;
  return true;
}

}  // namespace

IntrospectionQuery parse_introspection_target(std::string_view target) {
  IntrospectionQuery query;
  const std::size_t qmark = target.find('?');
  const std::string_view path =
      qmark == std::string_view::npos ? target : target.substr(0, qmark);
  if (path == "/metrics") {
    query.kind = IntrospectionQuery::Kind::Metrics;
  } else if (path == "/healthz") {
    query.kind = IntrospectionQuery::Kind::Healthz;
  } else if (path == "/debug/flights") {
    query.kind = IntrospectionQuery::Kind::Flights;
  } else {
    return query;
  }
  if (qmark == std::string_view::npos) return query;
  std::string_view rest = target.substr(qmark + 1);
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    if (key == "format") {
      query.json = value == "json";
    } else if (key == "window") {
      double seconds = 0.0;
      if (parse_number(value, seconds) && seconds > 0.0) {
        query.window_s = seconds;
        query.json = true;  // windowed rates only exist as JSON
      }
    } else if (key == "n") {
      double n = 0.0;
      if (parse_number(value, n) && n >= 1.0 && n == std::floor(n)) {
        query.last_n = static_cast<std::size_t>(n);
      }
    }
    // unknown keys ignored
  }
  return query;
}

bool is_introspection_target(std::string_view target) {
  return parse_introspection_target(target).is_introspection();
}

http::Response make_metrics_response(std::string exposition) {
  http::Response response;
  response.status = 200;
  response.reason = std::string(http::default_reason(200));
  response.headers.set("Content-Type", "text/plain; version=0.0.4");
  response.headers.set("Connection", "close");
  response.body = std::move(exposition);
  return response;
}

http::Response make_json_response(std::string body) {
  http::Response response;
  response.status = 200;
  response.reason = std::string(http::default_reason(200));
  response.headers.set("Content-Type", "application/json");
  response.headers.set("Connection", "close");
  response.body = std::move(body);
  return response;
}

http::Response make_flights_response(std::string jsonl) {
  http::Response response;
  response.status = 200;
  response.reason = std::string(http::default_reason(200));
  response.headers.set("Content-Type", "application/x-ndjson");
  response.headers.set("Connection", "close");
  response.body = std::move(jsonl);
  return response;
}

http::Response make_healthz_response(std::string_view status,
                                     std::size_t sessions,
                                     double retry_after_s) {
  http::Response response;
  response.status = 200;
  response.reason = std::string(http::default_reason(200));
  response.headers.set("Content-Type", "application/json");
  response.headers.set("Connection", "close");
  response.body = "{\"status\":\"" + std::string(status) +
                  "\",\"sessions\":" + std::to_string(sessions);
  if (retry_after_s > 0.0) {
    response.body +=
        ",\"retry_after\":" +
        std::to_string(static_cast<long long>(std::ceil(retry_after_s)));
  }
  response.body += "}\n";
  return response;
}

namespace {

/// Value of a `"key":` field in a flat JSON object; npos-start when the
/// key is absent.
std::string_view field_value(std::string_view body, std::string_view key) {
  // Built by append: GCC 12 at -O3 reports a false -Wrestrict on
  // `"literal" + std::string` (it inserts at the front).
  const std::string needle = std::string("\"").append(key).append("\":");
  const std::size_t pos = body.find(needle);
  if (pos == std::string_view::npos) return {};
  std::string_view rest = body.substr(pos + needle.size());
  const std::size_t end = rest.find_first_of(",}");
  return end == std::string_view::npos ? rest : rest.substr(0, end);
}

}  // namespace

std::optional<HealthzInfo> parse_healthz(std::string_view body) {
  std::string_view status = field_value(body, "status");
  if (status.size() < 2 || status.front() != '"' || status.back() != '"') {
    return std::nullopt;
  }
  HealthzInfo info;
  info.status = std::string(status.substr(1, status.size() - 2));
  if (std::string_view sessions = field_value(body, "sessions");
      !sessions.empty()) {
    std::size_t value = 0;
    for (char c : sessions) {
      if (c < '0' || c > '9') { value = 0; break; }
      value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    info.sessions = value;
  }
  if (std::string_view retry = field_value(body, "retry_after");
      !retry.empty()) {
    double value = 0.0;
    bool numeric = !retry.empty();
    for (char c : retry) {
      if (c < '0' || c > '9') { numeric = false; break; }
      value = value * 10.0 + static_cast<double>(c - '0');
    }
    if (numeric) info.retry_after_s = value;
  }
  return info;
}

}  // namespace idr::rt
