// idr::obs — the shared observability plane of both stacks.
//
// One Registry holds every named series a component exports: monotone
// counters, point-in-time gauges, and log-linear histograms. Handles are
// resolved once at setup (a hash lookup at registration, never on a hot
// path) and are trivially-copyable pointers into slab-stable cells, so an
// increment is one predictable branch plus one store. A Registry is
// constructed for one of two concurrency regimes:
//
//   * Sync::None    — plain uint64/double cells for the single-threaded
//                     simulator worlds (an increment is `*cell += n`);
//   * Sync::Atomic  — the same cells accessed through std::atomic_ref
//                     with relaxed ordering for the rt daemons, whose
//                     /metrics endpoint reads while the loop writes.
//
// Default-constructed handles are null sinks: every operation is a no-op,
// which is how instrumentation stays compiled-in but dormant when no
// registry is wired up.
//
// Names are hierarchical dotted paths ("rt.relay.sessions_active",
// "sim.flow.realloc_rounds"); see DESIGN §9 for the naming scheme.
// Snapshots are value copies that diff, merge, and export to JSON or the
// prometheus text exposition format.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace idr::obs {

enum class MetricKind { Counter, Gauge, Histogram };

/// Log-linear bucket layout: the span [min, max) is cut into power-of-two
/// octaves, each split into `sub_buckets` equal linear slices — the
/// HdrHistogram/inspect shape: relative error bounded by 1/sub_buckets at
/// every magnitude, with a fixed bucket count chosen at registration.
/// Bucket 0 catches x < min (including zero and negatives); the last
/// bucket catches x >= max.
struct HistogramOptions {
  double min = 1e-6;
  double max = 1e6;
  int sub_buckets = 4;
};

namespace detail {

struct HistogramCell {
  HistogramOptions opts;
  int octaves = 0;                  // power-of-two spans covering [min,max)
  std::vector<std::uint64_t> buckets;  // underflow + octaves*sub + overflow
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct Cell {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t u64 = 0;   // counter value
  double f64 = 0.0;        // gauge value
  HistogramCell histogram; // engaged for histograms only
};

}  // namespace detail

/// Number of buckets a histogram with these options carries, and the
/// inclusive lower edge of bucket `i` (edge of bucket 0 is -infinity by
/// convention; returned as 0). Exposed so tests can assert the log-linear
/// edge math directly.
std::size_t histogram_bucket_count(const HistogramOptions& opts);
double histogram_bucket_lower(const HistogramOptions& opts, std::size_t i);
/// Bucket index `observe(x)` lands in.
std::size_t histogram_bucket_index(const HistogramOptions& opts, double x);

struct MetricValue;

/// Quantile estimate (q in [0,1]) from an exported histogram's bucket
/// counts, linearly interpolated inside the covering bucket. Underflow
/// resolves to `min`, overflow to `max`, an empty histogram to 0. Works
/// on windowed deltas as well as cumulative snapshots — the time-series
/// sampler's "p99 over the last W seconds" is this on a diffed value.
double histogram_percentile(const MetricValue& hist, double q);

class Counter {
 public:
  Counter() = default;
  /// Inline: the simulator's hot paths bump several counters per event.
  void inc(std::uint64_t n = 1) const {
    if (cell_ == nullptr) return;
    if (atomic_) {
      std::atomic_ref<std::uint64_t>(*cell_).fetch_add(
          n, std::memory_order_relaxed);
    } else {
      *cell_ += n;
    }
  }
  std::uint64_t value() const;
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  Counter(std::uint64_t* cell, bool atomic) : cell_(cell), atomic_(atomic) {}
  std::uint64_t* cell_ = nullptr;
  bool atomic_ = false;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double v) const;
  void add(double delta) const;
  double value() const;
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  Gauge(double* cell, bool atomic) : cell_(cell), atomic_(atomic) {}
  double* cell_ = nullptr;
  bool atomic_ = false;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double x) const;
  std::uint64_t count() const;
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  Histogram(detail::HistogramCell* cell, bool atomic)
      : cell_(cell), atomic_(atomic) {}
  detail::HistogramCell* cell_ = nullptr;
  bool atomic_ = false;
};

/// One exported series, copied out of a registry.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t count = 0;               // counter value / histogram count
  double value = 0.0;                    // gauge value / histogram sum
  std::vector<std::uint64_t> buckets;    // histograms only
  HistogramOptions histogram_opts;
};

struct Snapshot {
  std::vector<MetricValue> metrics;  // sorted by name

  const MetricValue* find(std::string_view name) const;

  /// Series delta `*this - earlier`: counters and histogram buckets
  /// subtract (series absent from `earlier` pass through); gauges keep
  /// this snapshot's value.
  Snapshot diff(const Snapshot& earlier) const;

  /// Accumulates `other` into this snapshot: counters and histogram
  /// buckets add, gauges take `other`'s value, unknown series append.
  /// Merging histograms with different bucket layouts is an error.
  void merge(const Snapshot& other);

  /// {"metrics":[{"name":...,"kind":...,...}]} — stable field order,
  /// sorted by name, newline-terminated.
  std::string to_json() const;

  /// Prometheus text exposition format: dots become underscores,
  /// histograms expand to cumulative _bucket{le="..."} series plus _sum
  /// and _count.
  std::string to_prometheus() const;

  /// Series count as an exposition consumer would see it (histograms
  /// count once).
  std::size_t series() const { return metrics.size(); }
};

class Registry {
 public:
  enum class Sync { None, Atomic };

  explicit Registry(Sync sync = Sync::None);
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registration is idempotent: the same name returns a handle to the
  /// same cell. Re-registering a name as a different kind fails.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name, HistogramOptions opts = {});

  Snapshot snapshot() const;
  std::size_t size() const;
  Sync sync() const { return sync_; }
  /// Process-unique id, never reused: a key for caches of this
  /// registry's handles that must not outlive it.
  std::uint64_t serial() const { return serial_; }

 private:
  detail::Cell& resolve(std::string_view name, MetricKind kind);

  Sync sync_;
  std::uint64_t serial_;
  mutable std::mutex mutex_;           // guards registration + snapshot
  std::deque<detail::Cell> cells_;     // deque: cell addresses are stable
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace idr::obs
