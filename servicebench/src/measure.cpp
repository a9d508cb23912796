#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

namespace servicebench {

std::vector<std::uint32_t> zipf_sequence(Rng& rng, std::size_t n, double s,
                                         std::size_t length) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  std::vector<std::uint32_t> out(length);
  for (auto& index : out) {
    const double u = rng.unit() * total;
    index = static_cast<std::uint32_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                       cdf.begin());
    if (index >= n) index = static_cast<std::uint32_t>(n - 1);
  }
  return out;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

namespace {

/// The highest of p90 .. p99.99 with at least ten of `samples` beyond it;
/// 0 (no tail) below forty samples.
double tail_quantile(std::size_t samples) {
  double tail = 0;
  if (samples < 40) return tail;
  for (const double q : {0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) tail = q;
  }
  return tail;
}

}  // namespace

Timing summarise(std::vector<double> values) {
  Timing t;
  t.samples = values.size();
  t.p50 = quantile(values, 0.5);
  t.tail_q = tail_quantile(t.samples);
  if (t.tail_q > 0) t.tail = quantile(values, t.tail_q);
  if (t.tail_q >= 0.99) t.p99 = quantile(values, 0.99);
  return t;
}

std::size_t LatencyRecorder::bucket(std::uint64_t v) {
  if (v < 128) return static_cast<std::size_t>(v);
  const int e = 63 - __builtin_clzll(v);  // >= 7
  const std::uint64_t m = v >> (e - 6);   // [64, 128)
  return 128 + static_cast<std::size_t>(e - 7) * 64 + static_cast<std::size_t>(m - 64);
}

Timing LatencyRecorder::summary() const {
  std::array<std::uint64_t, kBuckets> total{};
  buckets_.for_each([&](const std::array<std::uint64_t, kBuckets>& b) {
    for (std::size_t i = 0; i < kBuckets; ++i) total[i] += b[i];
  });
  Timing t;
  for (const std::uint64_t c : total) t.samples += c;
  // Value at rank q * (n - 1), spread evenly across its bucket's width.
  auto at = [&](double q) {
    const double rank = q * static_cast<double>(t.samples - 1);
    double below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto c = static_cast<double>(total[i]);
      if (c == 0 || below + c <= rank) {
        below += c;
        continue;
      }
      double low = static_cast<double>(i), width = 1;
      if (i >= 128) {
        const std::size_t e = 7 + (i - 128) / 64;
        low = static_cast<double>((64 + (i - 128) % 64) << (e - 6));
        width = static_cast<double>(std::uint64_t{1} << (e - 6));
      }
      return low + width * (rank - below + 0.5) / c;
    }
    return 0.0;
  };
  if (t.samples == 0) return t;
  t.p50 = at(0.5);
  t.tail_q = tail_quantile(t.samples);
  if (t.tail_q > 0) t.tail = at(t.tail_q);
  if (t.tail_q >= 0.99) t.p99 = at(0.99);
  return t;
}

std::string describe(const std::string& name, const Timing& t, const std::string& unit) {
  char line[256];
  if (t.tail_q > 0.99) {
    std::snprintf(line, sizeof line, "%s: p50 %.4g %s, p99 %.4g %s, p%.6g %.4g %s, %zu samples",
                  name.c_str(), t.p50, unit.c_str(), t.p99, unit.c_str(), t.tail_q * 100,
                  t.tail, unit.c_str(), t.samples);
  } else if (t.tail_q > 0) {
    std::snprintf(line, sizeof line, "%s: p50 %.4g %s, p%.6g %.4g %s, %zu samples",
                  name.c_str(), t.p50, unit.c_str(), t.tail_q * 100, t.tail, unit.c_str(),
                  t.samples);
  } else {
    std::snprintf(line, sizeof line, "%s: p50 %.4g %s, %zu samples", name.c_str(), t.p50,
                  unit.c_str(), t.samples);
  }
  return line;
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Failure::report(const std::string& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (flag_.load(std::memory_order_relaxed)) return;
  message_ = message;
  flag_.store(true, std::memory_order_release);
}

std::string Failure::message() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return message_;
}

Windows sample_windows(int seconds, const std::function<std::uint64_t()>& completed,
                       const Failure& failure) {
  const int windows = seconds * 10;
  const auto length = std::chrono::nanoseconds(static_cast<std::int64_t>(seconds) *
                                               1'000'000'000 / windows);
  Windows out;
  const auto start = std::chrono::steady_clock::now();
  const double first_cpu = process_cpu_s();
  const std::uint64_t first_ops = completed();
  std::uint64_t last_ops = first_ops;
  auto last_at = start;
  for (int w = 1; w <= windows && !failure.any(); ++w) {
    std::this_thread::sleep_until(start + length * w);
    const auto at = std::chrono::steady_clock::now();
    const std::uint64_t ops = completed();
    const double wall = std::chrono::duration<double>(at - last_at).count();
    out.ops_per_s.push_back(static_cast<double>(ops - last_ops) / wall);
    last_ops = ops;
    last_at = at;
  }
  out.cpu_s = process_cpu_s() - first_cpu;
  out.wall_s = std::chrono::duration<double>(last_at - start).count();
  out.ops = last_ops - first_ops;
  return out;
}

// ---------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_open_span = 0;
}  // namespace

bool SpanLog::write_csv(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (const SpanRecord& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out.flush());
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::uint64_t request) : log_(log) {
  if (log_ == nullptr) return;
  span_.id = log_->next_id();
  span_.parent = t_open_span;
  span_.request = request;
  span_.name = name;
  previous_ = t_open_span;
  t_open_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = now_ns();
  t_open_span = previous_;
  log_->record(span_);
}

SpanSummary::SpanSummary(const std::vector<SpanRecord>& spans)
    : spans_(spans), children_ns_(spans.size(), 0.0) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  // Child intervals per parent, clipped to the parent, merged so overlap
  // between children is counted once.
  std::unordered_map<std::size_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids;
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::uint64_t from = std::max(s.start_ns, p.start_ns);
    const std::uint64_t to = std::min(s.end_ns, p.end_ns);
    if (to > from) kids[it->second].emplace_back(from, to);
  }
  for (auto& [parent, intervals] : kids) {
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0, open_from = 0, open_to = 0;
    for (const auto& [from, to] : intervals) {
      if (from > open_to) {
        covered += open_to - open_from;
        open_from = from;
        open_to = to;
      } else {
        open_to = std::max(open_to, to);
      }
    }
    covered += open_to - open_from;
    children_ns_[parent] = static_cast<double>(covered);
  }
}

double SpanSummary::p50_ns(const std::string& name) const {
  std::vector<double> d;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) d.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return median(std::move(d));
}

double SpanSummary::self_p50_ns(const std::string& name) const {
  std::vector<double> d;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      d.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
                  children_ns_[i]);
    }
  }
  return median(std::move(d));
}

}  // namespace servicebench
