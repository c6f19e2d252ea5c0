#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace idr::obs {

namespace {

// Relaxed ordering throughout: series are independent monotone cells, and
// a /metrics scrape racing an increment may legitimately observe either
// side of it.
inline void add_u64(std::uint64_t* cell, std::uint64_t n, bool atomic) {
  if (atomic) {
    std::atomic_ref<std::uint64_t>(*cell).fetch_add(
        n, std::memory_order_relaxed);
  } else {
    *cell += n;
  }
}

inline std::uint64_t read_u64(const std::uint64_t* cell, bool atomic) {
  if (atomic) {
    return std::atomic_ref<const std::uint64_t>(*cell).load(
        std::memory_order_relaxed);
  }
  return *cell;
}

inline void store_f64(double* cell, double v, bool atomic) {
  if (atomic) {
    std::atomic_ref<double>(*cell).store(v, std::memory_order_relaxed);
  } else {
    *cell = v;
  }
}

inline void add_f64(double* cell, double delta, bool atomic) {
  if (atomic) {
    std::atomic_ref<double>(*cell).fetch_add(delta,
                                             std::memory_order_relaxed);
  } else {
    *cell += delta;
  }
}

inline double read_f64(const double* cell, bool atomic) {
  if (atomic) {
    return std::atomic_ref<const double>(*cell).load(
        std::memory_order_relaxed);
  }
  return *cell;
}

int octave_count(const HistogramOptions& opts) {
  // Counted by doubling rather than log2() so the octave edges used here
  // are bit-identical to the ones bucket_lower reports.
  int octaves = 0;
  for (double edge = opts.min; edge < opts.max && octaves < 1024;
       edge *= 2.0) {
    ++octaves;
  }
  return octaves;
}

std::string promql_name(std::string_view name) {
  std::string out = "idr_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

}  // namespace

// --- Log-linear bucket math -------------------------------------------------

std::size_t histogram_bucket_count(const HistogramOptions& opts) {
  return 2 + static_cast<std::size_t>(octave_count(opts)) *
                 static_cast<std::size_t>(opts.sub_buckets);
}

double histogram_bucket_lower(const HistogramOptions& opts, std::size_t i) {
  const std::size_t count = histogram_bucket_count(opts);
  IDR_REQUIRE(i < count, "histogram_bucket_lower: index out of range");
  if (i == 0) return 0.0;  // underflow: everything below min
  if (i == count - 1) return opts.max;
  const std::size_t j = i - 1;
  const int octave = static_cast<int>(j) / opts.sub_buckets;
  const int sub = static_cast<int>(j) % opts.sub_buckets;
  return std::ldexp(opts.min, octave) *
         (1.0 + static_cast<double>(sub) / opts.sub_buckets);
}

std::size_t histogram_bucket_index(const HistogramOptions& opts, double x) {
  const std::size_t count = histogram_bucket_count(opts);
  if (!(x >= opts.min)) return 0;  // underflow; NaN lands here too
  if (x >= opts.max) return count - 1;
  int exp = 0;
  // x/min in [1, 2^octaves): frexp yields f*2^e with f in [0.5,1), so the
  // octave is e-1.
  const double ratio = x / opts.min;
  (void)std::frexp(ratio, &exp);
  int octave = exp - 1;
  const int octaves = octave_count(opts);
  octave = std::clamp(octave, 0, octaves - 1);
  const double within = std::ldexp(ratio, -octave);  // [1, 2)
  int sub = static_cast<int>((within - 1.0) *
                             static_cast<double>(opts.sub_buckets));
  sub = std::clamp(sub, 0, opts.sub_buckets - 1);
  const std::size_t i =
      1 + static_cast<std::size_t>(octave) *
              static_cast<std::size_t>(opts.sub_buckets) +
      static_cast<std::size_t>(sub);
  return std::min(i, count - 2);
}

double histogram_percentile(const MetricValue& hist, double q) {
  if (hist.kind != MetricKind::Histogram || hist.buckets.empty()) return 0.0;
  std::uint64_t total = 0;
  for (std::uint64_t b : hist.buckets) total += b;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  const HistogramOptions& opts = hist.histogram_opts;
  const std::size_t count = hist.buckets.size();
  double cum = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double in_bucket = static_cast<double>(hist.buckets[i]);
    if (in_bucket == 0.0) continue;
    if (cum + in_bucket < target) {
      cum += in_bucket;
      continue;
    }
    if (i == 0) return opts.min;             // underflow: below min
    if (i == count - 1) return opts.max;     // overflow: at/above max
    const double lo = histogram_bucket_lower(opts, i);
    const double hi = (i + 1 == count - 1)
                          ? opts.max
                          : histogram_bucket_lower(opts, i + 1);
    const double frac = (target - cum) / in_bucket;
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return opts.max;
}

// --- Handles ----------------------------------------------------------------

std::uint64_t Counter::value() const {
  return cell_ == nullptr ? 0 : read_u64(cell_, atomic_);
}

void Gauge::set(double v) const {
  if (cell_ == nullptr) return;
  store_f64(cell_, v, atomic_);
}

void Gauge::add(double delta) const {
  if (cell_ == nullptr) return;
  add_f64(cell_, delta, atomic_);
}

double Gauge::value() const {
  return cell_ == nullptr ? 0.0 : read_f64(cell_, atomic_);
}

void Histogram::observe(double x) const {
  if (cell_ == nullptr) return;
  const std::size_t i = histogram_bucket_index(cell_->opts, x);
  add_u64(&cell_->buckets[i], 1, atomic_);
  add_u64(&cell_->count, 1, atomic_);
  add_f64(&cell_->sum, x, atomic_);
}

std::uint64_t Histogram::count() const {
  return cell_ == nullptr ? 0 : read_u64(&cell_->count, atomic_);
}

// --- Registry ---------------------------------------------------------------

Registry::Registry(Sync sync) : sync_(sync) {
  static std::atomic<std::uint64_t> next_serial{1};
  serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
}

detail::Cell& Registry::resolve(std::string_view name, MetricKind kind) {
  IDR_REQUIRE(!name.empty(), "obs: empty metric name");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    detail::Cell& cell = cells_[it->second];
    IDR_REQUIRE(cell.kind == kind,
                "obs: metric '" + std::string(name) +
                    "' re-registered as a different kind");
    return cell;
  }
  cells_.emplace_back();
  detail::Cell& cell = cells_.back();
  cell.name = std::string(name);
  cell.kind = kind;
  index_.emplace(cell.name, cells_.size() - 1);
  return cell;
}

Counter Registry::counter(std::string_view name) {
  detail::Cell& cell = resolve(name, MetricKind::Counter);
  return Counter(&cell.u64, sync_ == Sync::Atomic);
}

Gauge Registry::gauge(std::string_view name) {
  detail::Cell& cell = resolve(name, MetricKind::Gauge);
  return Gauge(&cell.f64, sync_ == Sync::Atomic);
}

Histogram Registry::histogram(std::string_view name, HistogramOptions opts) {
  IDR_REQUIRE(opts.min > 0.0 && opts.max > opts.min,
              "obs: histogram needs 0 < min < max");
  IDR_REQUIRE(opts.sub_buckets >= 1 && opts.sub_buckets <= 256,
              "obs: histogram sub_buckets out of range");
  detail::Cell& cell = resolve(name, MetricKind::Histogram);
  if (cell.histogram.buckets.empty()) {
    cell.histogram.opts = opts;
    cell.histogram.octaves = octave_count(opts);
    cell.histogram.buckets.assign(histogram_bucket_count(opts), 0);
  }
  return Histogram(&cell.histogram, sync_ == Sync::Atomic);
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cells_.size();
}

Snapshot Registry::snapshot() const {
  const bool atomic = sync_ == Sync::Atomic;
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.metrics.reserve(cells_.size());
    for (const detail::Cell& cell : cells_) {
      MetricValue m;
      m.name = cell.name;
      m.kind = cell.kind;
      switch (cell.kind) {
        case MetricKind::Counter:
          m.count = read_u64(&cell.u64, atomic);
          break;
        case MetricKind::Gauge:
          m.value = read_f64(&cell.f64, atomic);
          break;
        case MetricKind::Histogram:
          m.count = read_u64(&cell.histogram.count, atomic);
          m.value = read_f64(&cell.histogram.sum, atomic);
          m.histogram_opts = cell.histogram.opts;
          m.buckets.reserve(cell.histogram.buckets.size());
          for (const std::uint64_t& b : cell.histogram.buckets) {
            m.buckets.push_back(read_u64(&b, atomic));
          }
          break;
      }
      snap.metrics.push_back(std::move(m));
    }
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

// --- Snapshot ---------------------------------------------------------------

const MetricValue* Snapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Snapshot Snapshot::diff(const Snapshot& earlier) const {
  Snapshot out = *this;
  for (MetricValue& m : out.metrics) {
    const MetricValue* base = earlier.find(m.name);
    if (base == nullptr || base->kind != m.kind) continue;
    switch (m.kind) {
      case MetricKind::Counter:
        m.count -= std::min(base->count, m.count);
        break;
      case MetricKind::Gauge:
        break;  // gauges are point-in-time: keep the later value
      case MetricKind::Histogram:
        if (base->buckets.size() == m.buckets.size()) {
          for (std::size_t i = 0; i < m.buckets.size(); ++i) {
            m.buckets[i] -= std::min(base->buckets[i], m.buckets[i]);
          }
          m.count -= std::min(base->count, m.count);
          m.value -= base->value;
        }
        break;
    }
  }
  return out;
}

void Snapshot::merge(const Snapshot& other) {
  // Merge is a sorted two-pointer walk: registry snapshots are produced
  // sorted by name, and sharded runs merge thousands of them, so the
  // per-incoming-series linear scan this used to do would be quadratic in
  // the run size. Hand-built snapshots may arrive unsorted; restore the
  // invariant first (stable, so duplicate names keep their order).
  auto name_before = [](const MetricValue& a, const MetricValue& b) {
    return a.name < b.name;
  };
  if (!std::is_sorted(metrics.begin(), metrics.end(), name_before)) {
    std::stable_sort(metrics.begin(), metrics.end(), name_before);
  }
  if (other.metrics.empty()) return;
  const std::vector<MetricValue>* rhs = &other.metrics;
  std::vector<MetricValue> sorted_other;
  if (!std::is_sorted(rhs->begin(), rhs->end(), name_before)) {
    sorted_other = other.metrics;
    std::stable_sort(sorted_other.begin(), sorted_other.end(), name_before);
    rhs = &sorted_other;
  }

  auto combine = [](MetricValue& mine, const MetricValue& incoming) {
    IDR_REQUIRE(mine.kind == incoming.kind,
                "Snapshot::merge: kind mismatch for '" + mine.name + "'");
    switch (incoming.kind) {
      case MetricKind::Counter:
        mine.count += incoming.count;
        break;
      case MetricKind::Gauge:
        mine.value = incoming.value;
        break;
      case MetricKind::Histogram:
        IDR_REQUIRE(mine.buckets.size() == incoming.buckets.size(),
                    "Snapshot::merge: histogram layout mismatch for '" +
                        mine.name + "'");
        for (std::size_t i = 0; i < mine.buckets.size(); ++i) {
          mine.buckets[i] += incoming.buckets[i];
        }
        mine.count += incoming.count;
        mine.value += incoming.value;
        break;
    }
  };

  std::vector<MetricValue> merged;
  merged.reserve(metrics.size() + rhs->size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < metrics.size() && j < rhs->size()) {
    const MetricValue& a = metrics[i];
    const MetricValue& b = (*rhs)[j];
    if (a.name < b.name) {
      merged.push_back(std::move(metrics[i++]));
    } else if (b.name < a.name) {
      merged.push_back(b);
      ++j;
    } else {
      MetricValue m = std::move(metrics[i++]);
      combine(m, (*rhs)[j++]);
      // Duplicate names on the incoming side all fold into the first
      // matching cell, as the linear-scan merge did.
      while (j < rhs->size() && (*rhs)[j].name == m.name) {
        combine(m, (*rhs)[j++]);
      }
      merged.push_back(std::move(m));
    }
  }
  for (; i < metrics.size(); ++i) merged.push_back(std::move(metrics[i]));
  for (; j < rhs->size(); ++j) merged.push_back((*rhs)[j]);
  // The reserve above assumed disjoint series; merging snapshots of the
  // same series (the usual case) would otherwise keep half the array as
  // slack in every snapshot a caller retains.
  merged.shrink_to_fit();
  metrics = std::move(merged);
}

std::string Snapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ',';
    first = false;
    out += "\n  {\"name\":";
    json_append_string(out, m.name);
    out += ",\"kind\":\"";
    out += kind_name(m.kind);
    out += '"';
    switch (m.kind) {
      case MetricKind::Counter:
        out += ",\"value\":" + std::to_string(m.count);
        break;
      case MetricKind::Gauge:
        out += ",\"value\":";
        json_append_double(out, m.value);
        break;
      case MetricKind::Histogram: {
        out += ",\"count\":" + std::to_string(m.count);
        out += ",\"sum\":";
        json_append_double(out, m.value);
        out += ",\"min\":";
        json_append_double(out, m.histogram_opts.min);
        out += ",\"max\":";
        json_append_double(out, m.histogram_opts.max);
        out += ",\"sub_buckets\":" +
               std::to_string(m.histogram_opts.sub_buckets);
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          if (i > 0) out += ',';
          out += std::to_string(m.buckets[i]);
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

std::string Snapshot::to_prometheus() const {
  std::string out;
  for (const MetricValue& m : metrics) {
    const std::string name = promql_name(m.name);
    out += "# TYPE " + name + ' ' + kind_name(m.kind) + '\n';
    switch (m.kind) {
      case MetricKind::Counter:
        out += name + ' ' + std::to_string(m.count) + '\n';
        break;
      case MetricKind::Gauge: {
        out += name + ' ';
        json_append_double(out, m.value);
        out += '\n';
        break;
      }
      case MetricKind::Histogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          cumulative += m.buckets[i];
          out += name + "_bucket{le=\"";
          if (i == m.buckets.size() - 1) {
            out += "+Inf";
          } else {
            json_append_double(out,
                          histogram_bucket_lower(m.histogram_opts, i + 1));
          }
          out += "\"} " + std::to_string(cumulative) + '\n';
        }
        out += name + "_sum ";
        json_append_double(out, m.value);
        out += '\n';
        out += name + "_count " + std::to_string(m.count) + '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace idr::obs
