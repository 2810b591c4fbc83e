// oocc_perfbench — times oocc layer by layer from outside.
//
//   oocc_perfbench --workload jacobi|gaxpy|serve --seed N --seconds S
//                  --trace 0|1 --workdir DIR [--trace-out FILE]
//
// Prints report lines, a "counters:" line with the deterministic counters
// and, last, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics. perfbench/run.py builds this program and supplies --workdir.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: oocc_perfbench --workload jacobi|gaxpy|serve "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-out FILE]\n",
               msg);
  std::exit(2);
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && config.seconds >= 0.0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      config.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (workload != "jacobi" && workload != "gaxpy" && workload != "serve") {
    usage("--workload must be jacobi, gaxpy or serve");
  }
  if (!have_seed || !have_seconds || !have_trace || config.workdir.empty()) {
    usage("--seed, --seconds, --trace and --workdir are required");
  }
  if (config.trace && config.trace_out.empty()) {
    usage("--trace 1 needs --trace-out");
  }

  try {
    // The oracle runs first, in a child process, before any thread exists.
    Report report;
    const auto r0 = std::chrono::steady_clock::now();
    if (workload == "serve") {
      const std::string ref = run_in_child([&] { return serve_reference(config.seed); });
      const double reference_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - r0).count();
      report = run_serve_workload(config, ref);
      if (config.trace) {
        report.layer("bench.reference_s", reference_s, "s");
      }
    } else {
      const ArraySpec spec = workload == "jacobi" ? jacobi_spec() : gaxpy_spec();
      const std::string bytes = run_in_child([&] {
        const ArrayReference ref = array_reference(spec, config.seed);
        std::string out(reinterpret_cast<const char*>(&ref.hash), sizeof(ref.hash));
        out.append(reinterpret_cast<const char*>(ref.data.data()),
                   ref.data.size() * sizeof(double));
        return out;
      });
      const double reference_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - r0).count();
      if (bytes.size() < sizeof(std::uint64_t) ||
          (bytes.size() - sizeof(std::uint64_t)) % sizeof(double) != 0) {
        throw std::runtime_error("malformed oracle output");
      }
      ArrayReference ref;
      std::memcpy(&ref.hash, bytes.data(), sizeof(ref.hash));
      ref.data.resize((bytes.size() - sizeof(ref.hash)) / sizeof(double));
      std::memcpy(ref.data.data(), bytes.data() + sizeof(ref.hash),
                  ref.data.size() * sizeof(double));
      report = run_array_workload(spec, config, ref);
      if (config.trace) {
        report.layer("bench.reference_s", reference_s, "s");
      }
    }

    for (const std::string& line : report.lines) {
      std::printf("%s\n", line.c_str());
    }
    std::string counters = "counters: {";
    char buf[160];
    bool first = true;
    for (const auto& [name, value] : report.counters) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                    value);
      counters += buf;
      first = false;
    }
    std::printf("%s}\n", counters.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
                report.failed == 0 ? "true" : "false",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.failed),
                json_metrics(config.trace ? report.per_layer : report.end_to_end).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
