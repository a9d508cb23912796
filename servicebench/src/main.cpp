// servicebench: the decision-service benchmark program.
//
//   servicebench --workload <hot_pep|cold_sets|policy_churn|remote_failover>
//                --seed <n> --seconds <n> --trace <0|1>
//   servicebench --self-test [--seed <n>]
//
// Prints notes, then as its last line one JSON object: correct,
// attempted, failed and metrics (end-to-end with --trace 0, per-layer
// with --trace 1; a traced run writes its spans to
// .bench_build/traces/<workload>.csv). A wrong, missing or duplicated
// decision exits 1 without a result; bad arguments exit 2. See README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <new>
#include <string>

#include "workloads.hpp"

namespace {

// Heap allocations per thread, read by the replay loops
// (core.evaluate_allocs).
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "servicebench: %s\n"
               "usage: servicebench --workload <hot_pep|cold_sets|policy_churn|remote_failover>"
               " --seed <n> --seconds <1..600> --trace <0|1>\n"
               "       servicebench --self-test [--seed <n>]\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

/// JSON number with every digit the double carries.
std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

std::uint64_t servicebench::thread_allocations() { return t_allocations; }

int main(int argc, char** argv) {
  servicebench::Options options;
  bool self_test = false;
  bool have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &options.seed)) return usage("--seed takes a number");
    } else if (arg == "--seconds") {
      if (!parse_u64(value, &n) || n < 1 || n > 600) return usage("--seconds takes 1..600");
      options.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_u64(value, &n) || n > 1) return usage("--trace takes 0 or 1");
      options.trace = n == 1;
      have_trace = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  try {
    if (self_test) {
      const std::string problems = servicebench::self_test(options.seed);
      if (!problems.empty()) {
        std::fprintf(stderr, "self-test FAILED:\n%s", problems.c_str());
        return 1;
      }
      std::printf("self-test passed\n");
      return 0;
    }
    if (options.workload.empty() || !have_seconds || !have_trace) {
      return usage("--workload, --seconds and --trace are required");
    }
    if (options.trace) {
      const std::filesystem::path dir = ".bench_build/traces";
      std::filesystem::create_directories(dir);
      // One file per workload, replaced by its next traced run.
      options.trace_path = (dir / (options.workload + ".csv")).string();
    }
    const servicebench::RunResult result = servicebench::run_workload(options);
    for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
    std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(result.attempted) +
                       ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const servicebench::Metric& m = result.metrics[i];
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servicebench: %s\n", e.what());
    return 1;
  }
}
