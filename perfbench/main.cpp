// perfbench: the driver program behind run.py.
//
//   perfbench gen --workload=<name> --seed=<n> --out=<dir> [--tiny]
//       writes the workload's input files into <dir>
//   perfbench run --workload=<name> --inputs=<dir> --seconds=<s>
//                 --trace=<0|1> --out=<file> [--corrupt]
//       loads the inputs through the library's public readers, measures
//       for <s> seconds (half untraced, half traced with --trace=1) and
//       writes the result as one JSON object to <file>
//
// Exit status: 0 when the run finished (failed ops are in the result),
// 1 on an error, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "common/flags.h"
#include "perfbench.h"

namespace {

void append_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

std::string to_json(const perfbench::RunResult& r) {
  std::string out = "{\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"problems\":[";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    if (i > 0) out += ',';
    append_string(out, r.problems[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) out += ',';
    first = false;
    append_string(out, name);
    out += ":{\"value\":";
    append_number(out, m.value);
    out += ",\"unit\":";
    append_string(out, m.unit);
    out += '}';
  }
  out += "},\"exact\":{";
  first = true;
  for (const auto& [name, v] : r.exact) {
    if (!first) out += ',';
    first = false;
    append_string(out, name);
    out += ':' + std::to_string(v);
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [name, v] : r.info) {
    if (!first) out += ',';
    first = false;
    append_string(out, name);
    out += ':';
    append_number(out, v);
  }
  out += "}}\n";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload=<name> --seed=<n> --out=<dir> "
               "[--tiny]\n"
               "       perfbench run --workload=<name> --inputs=<dir> "
               "--seconds=<s> --trace=<0|1> --out=<file> [--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    mrflow::common::Flags flags(argc, argv);
    const auto& args = flags.positional();
    if (args.size() != 1) return usage();
    const std::string workload = flags.get_string("workload", "");
    const std::string out_path = flags.get_string("out", "");
    if (args[0] == "gen") {
      const auto seed = static_cast<uint64_t>(flags.get_int("seed", 1));
      const bool tiny = flags.get_bool("tiny", false);
      flags.check_unused();
      if (out_path.empty()) return usage();
      perfbench::generate(workload, seed, tiny, out_path);
      return 0;
    }
    if (args[0] == "run") {
      perfbench::RunConfig config;
      config.workload = workload;
      config.inputs = flags.get_string("inputs", "");
      config.seconds = flags.get_double("seconds", 10);
      config.trace = flags.get_int("trace", 0) != 0;
      config.corrupt = flags.get_bool("corrupt", false);
      flags.check_unused();
      if (config.inputs.empty() || out_path.empty() || !(config.seconds > 0)) {
        return usage();
      }
      const std::string doc = to_json(perfbench::run(config));
      std::ofstream out(out_path);
      out << doc;
      out.close();
      if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
        return 1;
      }
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
