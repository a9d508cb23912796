// The four workloads and the oracle self-test.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"

namespace servicebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (CSV); set by main.
  std::string trace_path;
};

/// Runs one workload. Throws std::invalid_argument for an unknown name
/// and std::runtime_error when a check fails.
RunResult run_workload(const Options& options);

/// Compares every closed-form oracle with core::Pdp on a sample of each
/// workload's inputs for `seed`; returns the mismatches found (empty =
/// pass) after printing a line per workload.
std::string self_test(std::uint64_t seed);

}  // namespace servicebench
