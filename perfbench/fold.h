// The traced run's fold: per-layer self times from the spans held by the
// trace rings (common/trace.h).
//
// A span's self time is its duration minus the part of it that child spans
// cover. Children are the spans nested inside it on its own thread. For
// the spans that wait on work running elsewhere -- `job` and the
// benchmark's `bench.solve`, `bench.query` and `bench.query_batch` -- every
// span running on another thread meanwhile counts as a child too, except
// `idle`, a worker waiting for work. So a job's self time is the part of it
// during which no task ran anywhere: job setup, scheduling gaps, commit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct LayerTime {
  uint64_t count = 0;     // spans of this name inside the window
  uint64_t total_ns = 0;  // their durations, clipped to the window
  uint64_t self_ns = 0;   // their self times
};

struct Fold {
  std::map<std::string, LayerTime> layers;  // by span name
  // Single durations of the spans whose distribution is reported (job,
  // map, reduce, bench.load), in milliseconds.
  std::map<std::string, std::vector<double>> durations_ms;
  uint64_t spans = 0;                 // all spans inside the window
  uint64_t busiest_thread_spans = 0;  // against the 65,536-span rings

  double total_s(const std::string& name) const;
  double self_s(const std::string& name) const;
  uint64_t count(const std::string& name) const;
  std::vector<double> durations(const std::string& name) const;
};

// Folds every span now in the trace rings, clipped to [begin_ns, end_ns]
// on the trace::now_ns() clock.
Fold fold_trace(uint64_t begin_ns, uint64_t end_ns);

}  // namespace perfbench
