// mdac::obs — the metrics instruments and the registry that scrapes them.
//
// The paper's monitoring/audit argument (§3.2) needs every telemetry
// surface (EngineMetrics, DispatchStats, breaker state, CacheStats,
// HeartbeatMonitor, the PAP audit ring, the tracer) in ONE place an
// operator can scrape. This header holds the two pieces:
//
//   * instruments — `Counter` and `Histogram`, the one counter and the
//     one latency histogram of the repo. Both spread their writes over
//     N cache-line-padded shards so concurrent writers never rendezvous
//     on one line (EngineMetrics shards by worker index, then by caller
//     stripe); reads fold the shards. Subsystems own their instruments:
//     an engine counts whether or not anyone scrapes it.
//   * the registry — a list of pull-time *collectors*. Each subsystem
//     exposes a `register_metrics(Registry&)` member that adds a
//     callback reporting current values into a MetricSink at expose
//     time, and `expose()` renders the Prometheus text exposition
//     (stable ordering, escaped label values). The callback captures the
//     subsystem by reference: either unregister (remove_collector)
//     before the subsystem dies, or let the registry die first (the
//     usual shape in tests and tools).
//
// Thread-safety: instrument updates are relaxed atomics (safe from any
// thread, any time); `reset()` is not, see below. Collector
// registration and expose() serialise on one mutex. Collector callbacks run under it on
// the expose()-calling thread — they must be safe to invoke from it
// (the adapted subsystems all read relaxed atomics or single-threaded
// sim state there).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mdac::obs {

/// One metric label. Values are escaped at render time, so any bytes go.
struct Label {
  std::string key;
  std::string value;
};

/// Renders `{k="v",...}` with Prometheus escaping (\\, \", \n) — empty
/// string for no labels. MetricSink renders each sample's labels with it.
std::string render_label_block(const std::vector<Label>& labels);

/// Monotonic counter over N cache-line-padded shards. The caller picks
/// the shard (a worker index, a thread's stripe); out-of-range shards
/// fold into shard 0. A single-shard counter is just a padded atomic.
class Counter {
 public:
  explicit Counter(std::size_t shards = 1)
      : shards_(shards == 0 ? 1 : shards),
        cells_(std::make_unique<Cell[]>(shards_)) {}

  void add(std::uint64_t n = 1, std::size_t shard = 0) {
    cells_[index(shard)].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over every shard.
  std::uint64_t value() const;
  /// One shard's count.
  std::uint64_t value(std::size_t shard) const {
    return cells_[index(shard)].v.load(std::memory_order_relaxed);
  }
  std::size_t shards() const { return shards_; }

  /// Zeroes every shard. Only valid while no thread is adding: an add
  /// racing the reset may survive it or be lost.
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::size_t index(std::size_t shard) const { return shard < shards_ ? shard : 0; }

  std::size_t shards_;
  std::unique_ptr<Cell[]> cells_;
};

/// Log2-bucketed histogram over N shards, sharded like Counter: bucket i
/// counts observations in [2^(i-1), 2^i) (0 lands in bucket 0), so 64
/// buckets cover the full uint64 range with ~1.5x relative error —
/// enough for latency percentiles without per-instrument bucket
/// configuration.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  explicit Histogram(std::size_t shards = 1)
      : shards_(shards == 0 ? 1 : shards),
        cells_(std::make_unique<Cell[]>(shards_)) {}

  void observe(std::uint64_t v, std::size_t shard = 0);

  /// Every shard folded into one set of buckets.
  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t total = 0;  // sum of counts
    std::uint64_t sum = 0;    // sum of observed values
    /// Upper bound of bucket `i` as Prometheus `le` (2^i).
    static double upper_bound(std::size_t i);
    /// Quantile `q` in [0, 1] as the midpoint 1.5 * 2^(i-1) of the
    /// bucket holding it (0 for bucket 0 and for an empty histogram).
    double percentile(double q) const;
  };
  Snapshot snapshot() const;

  /// Zeroes every shard; only valid while no thread is observing.
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
  };

  std::size_t shards_;
  std::unique_ptr<Cell[]> cells_;
};

/// What a collector writes into at expose time. All values are reported
/// fresh on every call; the sink owns ordering and formatting. One name,
/// one type, as Prometheus demands: reporting a name already reported
/// with another type throws std::logic_error.
class MetricSink {
 public:
  void counter(std::string_view name, std::string_view help, double value,
               const std::vector<Label>& labels = {});
  void gauge(std::string_view name, std::string_view help, double value,
             const std::vector<Label>& labels = {});
  /// A full log2 histogram (cumulative buckets are derived here).
  void histogram(std::string_view name, std::string_view help,
                 const Histogram::Snapshot& snapshot,
                 const std::vector<Label>& labels = {});

 private:
  friend class Registry;
  struct Sample {
    std::string label_block;  // pre-rendered {k="v",...}
    double value = 0;
    // Histogram payload (empty for counter/gauge samples).
    std::vector<std::pair<double, std::uint64_t>> cumulative;  // (le, count)
    std::uint64_t count = 0;
    double sum = 0;
  };
  struct Family {
    char type = 'c';  // 'c' counter, 'g' gauge, 'h' histogram
    std::string help;
    std::vector<Sample> samples;
  };
  Family& family(std::string_view name, std::string_view help, char type);

  std::map<std::string, Family, std::less<>> families_;
};

using Collector = std::function<void(MetricSink&)>;

class Registry {
 public:
  /// Adds a pull-time collector; returns an id for remove_collector.
  std::uint64_t add_collector(Collector collector);
  void remove_collector(std::uint64_t id);

  /// Appends the full Prometheus text exposition to `out`: families
  /// sorted by name, samples sorted by label block, `# HELP` / `# TYPE`
  /// once per family, label values escaped. Ends with a newline. Throws
  /// std::logic_error when two collectors report one name with two
  /// types (see MetricSink).
  void expose(std::string& out) const;
  std::string expose() const {
    std::string out;
    expose(out);
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, Collector>> collectors_;
  std::uint64_t next_collector_id_ = 1;
};

}  // namespace mdac::obs
