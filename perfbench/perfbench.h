// The repository benchmark's driver program: workload inputs and runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};

// What one measured run produced; run.py turns it into the result line.
struct RunResult {
  uint64_t attempted = 0;  // ops: solves, or trace operations replayed
  uint64_t failed = 0;     // wrong value, bad or thrown certificate, ...
  // Why ops failed, plus anything else that makes the run invalid (such as
  // dropped trace spans); any entry makes the result incorrect.
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;  // end-to-end, or per-layer
  std::map<std::string, int64_t> exact;   // counts every run must repeat
  std::map<std::string, double> info;     // context: threads, samples

  void fail(const std::string& why, uint64_t ops = 1) {
    failed += ops;
    problem(why);
  }
  void problem(const std::string& why) {
    if (problems.size() < 20) problems.push_back(why);
  }
};

struct RunConfig {
  std::string workload;
  std::string inputs;    // directory written by generate()
  double seconds = 10;   // measuring time; split in two when tracing
  bool trace = false;    // the per-layer run instead of the end-to-end run
  bool corrupt = false;  // self-test: perturb one answer's flow
};

// Writes the inputs of `workload` for `seed` into the existing `dir`.
void generate(const std::string& workload, uint64_t seed, bool tiny,
              const std::string& dir);

RunResult run(const RunConfig& config);

// Linear interpolation between order statistics, as Python's
// statistics.quantiles(method="inclusive"); 0 for no samples.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

}  // namespace perfbench
