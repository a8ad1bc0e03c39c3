#include "fold.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <utility>

#include "common/trace.h"

namespace perfbench {

namespace {

struct Interval {
  uint64_t begin = 0;
  uint64_t end = 0;
};

bool waits_on_other_threads(std::string_view name) {
  return name == "job" || name == "bench.solve" || name == "bench.query" ||
         name == "bench.query_batch";
}

bool keeps_durations(std::string_view name) {
  return name == "job" || name == "map" || name == "reduce" ||
         name == "bench.load";
}

// Sorts and merges into disjoint intervals.
std::vector<Interval> merged(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (!out.empty() && iv.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, iv.end);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

// Appends the parts of the sorted disjoint intervals `v` inside [lo, hi].
void clip_into(const std::vector<Interval>& v, uint64_t lo, uint64_t hi,
               std::vector<Interval>& out) {
  auto it = std::partition_point(
      v.begin(), v.end(), [lo](const Interval& iv) { return iv.end <= lo; });
  for (; it != v.end() && it->begin < hi; ++it) {
    out.push_back({std::max(it->begin, lo), std::min(it->end, hi)});
  }
}

uint64_t length(const std::vector<Interval>& disjoint) {
  uint64_t n = 0;
  for (const Interval& iv : disjoint) n += iv.end - iv.begin;
  return n;
}

}  // namespace

double Fold::total_s(const std::string& name) const {
  auto it = layers.find(name);
  return it == layers.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e9;
}

double Fold::self_s(const std::string& name) const {
  auto it = layers.find(name);
  return it == layers.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e9;
}

uint64_t Fold::count(const std::string& name) const {
  auto it = layers.find(name);
  return it == layers.end() ? 0 : it->second.count;
}

std::vector<double> Fold::durations(const std::string& name) const {
  auto it = durations_ms.find(name);
  return it == durations_ms.end() ? std::vector<double>{} : it->second;
}

Fold fold_trace(uint64_t begin_ns, uint64_t end_ns) {
  struct Span {
    const char* name;
    uint64_t begin;
    uint64_t end;
    uint32_t tid;
    uint64_t child_ns = 0;  // direct children on the same thread
    bool root = true;       // no enclosing span on its thread
  };
  std::vector<Span> spans;
  for (const auto& r : mrflow::common::trace::recent_spans(
           std::numeric_limits<size_t>::max())) {
    const uint64_t b = std::max(r.start_ns, begin_ns);
    const uint64_t e = std::min(r.start_ns + r.dur_ns, end_ns);
    if (b > e || (b == e && r.dur_ns > 0)) continue;  // outside the window
    spans.push_back({r.name, b, e, r.tid});
  }
  // By thread, then start; a parent sorts before a child it starts with.
  std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.begin != y.begin) return x.begin < y.begin;
    return x.end > y.end;
  });

  Fold fold;
  fold.spans = spans.size();
  // Spans on one thread nest (they are RAII scopes), so a span's parent is
  // the innermost earlier span on its thread that has not ended yet.
  std::vector<std::vector<Interval>> children(spans.size());
  std::vector<size_t> stack;
  uint64_t on_thread = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    if (i > 0 && s.tid != spans[i - 1].tid) {
      stack.clear();
      on_thread = 0;
    }
    fold.busiest_thread_spans = std::max(fold.busiest_thread_spans, ++on_thread);
    while (!stack.empty() && spans[stack.back()].end < s.end) stack.pop_back();
    if (!stack.empty()) {
      Span& parent = spans[stack.back()];
      parent.child_ns += s.end - s.begin;
      s.root = false;
      if (waits_on_other_threads(parent.name)) {
        children[stack.back()].push_back({s.begin, s.end});
      }
    }
    stack.push_back(i);
  }

  // Work on each thread: its outermost spans, idle waits excluded.
  std::map<uint32_t, std::vector<Interval>> work;
  for (const Span& s : spans) {
    if (s.root && std::string_view(s.name) != "idle") {
      work[s.tid].push_back({s.begin, s.end});
    }
  }
  std::map<uint32_t, std::vector<Interval>> elsewhere;  // merged, per thread
  auto work_elsewhere = [&](uint32_t tid) -> const std::vector<Interval>& {
    auto it = elsewhere.find(tid);
    if (it == elsewhere.end()) {
      std::vector<Interval> all;
      for (const auto& [t, v] : work) {
        if (t != tid) all.insert(all.end(), v.begin(), v.end());
      }
      it = elsewhere.emplace(tid, merged(std::move(all))).first;
    }
    return it->second;
  };

  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const uint64_t dur = s.end - s.begin;
    uint64_t covered = std::min(dur, s.child_ns);
    if (waits_on_other_threads(s.name)) {
      std::vector<Interval> parts = std::move(children[i]);
      clip_into(work_elsewhere(s.tid), s.begin, s.end, parts);
      covered = std::min(dur, length(merged(std::move(parts))));
    }
    LayerTime& layer = fold.layers[s.name];
    ++layer.count;
    layer.total_ns += dur;
    layer.self_ns += dur - covered;
    if (keeps_durations(s.name)) {
      fold.durations_ms[s.name].push_back(static_cast<double>(dur) / 1e6);
    }
  }
  return fold;
}

}  // namespace perfbench
