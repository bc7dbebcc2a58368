// perfbench — the wall-clock benchmark of gridpipe.
//
//   perfbench --workload paced|adapt|churn --seed N --seconds S
//             --trace 0|1 [--tiny] [--commit SHA] [--out-dir DIR]
//
// Prints a provenance line, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// and writes the driver's spans to DIR/<workload>.trace.json (Chrome
// trace-event format). --tiny runs a few items per leg, for the
// self-check. Refuses to run from a library that is not a Release build.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload paced|adapt|churn --seed N "
               "--seconds S --trace 0|1 [--tiny] [--commit SHA] "
               "[--out-dir DIR]\n";
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string provenance(const RunConfig& c, const std::string& commit,
                       double time_scale) {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(PERFBENCH_CXX_COMPILER)
     << ", \"commit\": " << json_string(commit)
     << ", \"workload\": " << json_string(c.workload)
     << ", \"seed\": " << c.seed << ", \"seconds\": " << json_number(c.seconds)
     << ", \"time_scale\": " << json_number(time_scale)
     << ", \"trace\": " << (c.trace ? "true" : "false")
     << ", \"tiny\": " << (c.tiny ? "true" : "false") << "}";
  return os.str();
}

/// Driver spans of every traced leg, one trace-event "process" per leg.
void write_spans(const std::filesystem::path& path, const RunResult& r,
                 const std::string& prov) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream os(path);
  os << "{\"provenance\": " << prov << ",\n\"traceEvents\": [";
  bool first = true;
  for (std::size_t pid = 0; pid < r.legs.size(); ++pid) {
    const Leg& leg = r.legs[pid];
    os << (first ? "\n" : ",\n") << "{\"name\": \"process_name\", \"ph\": \"M\", "
       << "\"pid\": " << pid << ", \"args\": {\"name\": "
       << json_string(leg.substrate) << "}}";
    first = false;
    for (const DriverSpan& s : leg.spans) {
      os << ",\n{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": " << pid
         << ", \"tid\": 0, \"ts\": " << json_number(s.start * 1e6)
         << ", \"dur\": " << json_number((s.end - s.start) * 1e6);
      if (s.item != obs::kNoItem) os << ", \"args\": {\"item\": " << s.item << "}";
      os << "}";
    }
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write " + path.string());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  std::string out_dir = ".bench_out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = next();
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(next());
      } else if (arg == "--trace") {
        config.trace = next() != "0";
      } else if (arg == "--tiny") {
        config.tiny = true;
      } else if (arg == "--commit") {
        commit = next();
      } else if (arg == "--out-dir") {
        out_dir = next();
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return usage();
    }
  }
  bool known = false;
  for (const std::string& name : workload_names()) known |= name == config.workload;
  if (!have_workload || !known || config.seconds <= 0.0) return usage();

  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to time a " << PERFBENCH_BUILD_TYPE
              << " build of gridpipe; configure with CMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  RunResult r;
  try {
    r = run_workload(config);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& note : r.notes) std::cerr << "perfbench: " << note << "\n";
  const std::string prov = provenance(config, commit, r.time_scale);
  std::cout << "{\"provenance\": " << prov << "}\n";
  if (config.trace) {
    write_spans(std::filesystem::path(out_dir) / (config.workload + ".trace.json"),
                r, prov);
  }

  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}
