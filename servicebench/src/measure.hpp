// Measurement plumbing shared by the workloads: clocks, the seeded input
// generator, percentiles, process counters, failure reporting, window
// sampling and the span log of traced runs.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace servicebench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// splitmix64: the workload inputs are a pure function of the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// `length` indices into [0, n) drawn from a Zipf(s) distribution: a few
/// requests are hot, a long tail is cold.
std::vector<std::uint32_t> zipf_sequence(Rng& rng, std::size_t n, double s,
                                         std::size_t length);

/// Quantile q in [0, 1] of `values`, linearly interpolated (sorts in place).
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// A timing as the README states it: the median, the highest of p90 /
/// p99 / p99.9 / p99.99 with at least ten samples beyond it (none below
/// forty samples), and the sample count; p99 too once ten samples lie
/// beyond it.
struct Timing {
  double p50 = 0;
  double p99 = 0;     // 0 below a thousand samples
  double tail = 0;
  double tail_q = 0;  // 0 = no tail reported
  std::size_t samples = 0;
};
Timing summarise(std::vector<double> values);
std::string describe(const std::string& name, const Timing& t, const std::string& unit);

/// User plus system CPU of the whole process, seconds.
double process_cpu_s();
/// Peak resident set of the process (VmHWM), MiB.
double peak_rss_mib();
/// Heap allocations made by the calling thread so far (counted by the
/// program's operator new in main.cpp).
std::uint64_t thread_allocations();

/// First failure wins; any thread may report. A reported failure makes
/// the run exit non-zero without a result.
class Failure {
 public:
  void report(const std::string& message);
  bool any() const { return flag_.load(std::memory_order_acquire); }
  std::string message() const;

 private:
  std::atomic<bool> flag_{false};
  mutable std::mutex mutex_;
  std::string message_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result JSON (tails, sample
  /// counts, workload-specific figures).
  std::vector<std::string> notes;
};

/// A measured interval: its operations, wall time and process CPU, and
/// the throughput of each 100 ms window in it (0 for a window that
/// completed nothing), which shows how steady the host was.
struct Windows {
  std::vector<double> ops_per_s;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t ops = 0;
};

/// Samples `completed()` every 100 ms over `seconds` on the calling
/// thread while other threads do the work. Returns early when `failure`
/// fires.
Windows sample_windows(int seconds, const std::function<std::uint64_t()>& completed,
                       const Failure& failure);

// ---------------------------------------------------------------------
// Spans (traced runs only): name, start, end, parent and request id,
// kept in per-thread memory and written out when the run ends.
// ---------------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One T per recording thread, so recording never contends; for_each()
/// visits them once the recording threads are joined.
template <typename T>
class PerThread {
 public:
  T& local() {
    // This thread's value per live instance, keyed by a process-unique id
    // rather than the address, which a later instance may reuse.
    thread_local std::vector<std::pair<std::uint64_t, T*>> bindings;
    for (const auto& [owner, value] : bindings) {
      if (owner == id_) return *value;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    T* value = &values_.emplace_back();
    bindings.emplace_back(id_, value);
    return *value;
  }
  template <typename F>
  void for_each(F&& f) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const T& value : values_) f(value);
  }

 private:
  static std::uint64_t next_instance() {
    static std::atomic<std::uint64_t> instances{0};
    return instances.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  const std::uint64_t id_ = next_instance();
  mutable std::mutex mutex_;
  std::deque<T> values_;  // deque: references stay valid
};

/// Latencies in a log-linear histogram (64 sub-buckets per octave, so
/// under 1.6% relative error), per recording thread: fixed memory
/// however many requests a run completes.
class LatencyRecorder {
 public:
  static constexpr std::size_t kBuckets = 128 + 57 * 64;
  void record(std::uint64_t ns) { ++buckets_.local()[bucket(ns)]; }
  /// p50 and tail as summarise() picks them, in the recorded unit,
  /// interpolated within buckets.
  Timing summary() const;

 private:
  static std::size_t bucket(std::uint64_t v);
  PerThread<std::array<std::uint64_t, kBuckets>> buckets_;
};

class SpanLog {
 public:
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }
  /// Each thread keeps its first kMaxPerThread spans; later ones are
  /// counted as dropped, so a long traced run stays small in memory.
  static constexpr std::size_t kMaxPerThread = 250'000;
  void record(const SpanRecord& span) {
    std::vector<SpanRecord>& mine = spans_.local();
    if (mine.size() >= kMaxPerThread) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (mine.capacity() == 0) mine.reserve(1 << 16);
    mine.push_back(span);
  }
  std::uint64_t dropped() const { return dropped_.load(); }
  /// Every span recorded so far; call only after the recording threads
  /// have been joined.
  std::vector<SpanRecord> collect() const {
    std::vector<SpanRecord> all;
    spans_.for_each([&](const std::vector<SpanRecord>& v) { all.insert(all.end(), v.begin(), v.end()); });
    return all;
  }
  /// Writes `spans` as CSV (id,parent,request,name,start_ns,end_ns).
  static bool write_csv(const std::vector<SpanRecord>& spans, const std::string& path);

 private:
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> dropped_{0};
  PerThread<std::vector<SpanRecord>> spans_;
};

/// Times the enclosing scope as a span whose parent is the span open on
/// this thread when it starts. A null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  SpanRecord span_;
  std::uint64_t previous_ = 0;
};

/// Duration percentiles and self time (duration minus the part of its
/// interval covered by child spans) per span name.
class SpanSummary {
 public:
  explicit SpanSummary(const std::vector<SpanRecord>& spans);
  /// Median duration of spans named `name`, ns (0 when there are none).
  double p50_ns(const std::string& name) const;
  /// Median self time of spans named `name`, ns.
  double self_p50_ns(const std::string& name) const;

 private:
  const std::vector<SpanRecord>& spans_;
  std::vector<double> children_ns_;  // per span: child-covered ns
};

}  // namespace servicebench
