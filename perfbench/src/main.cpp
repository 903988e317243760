// perfbench: runs one workload of the repository benchmark and prints
// its metrics. Usage:
//   perfbench --workload <eval-matrix|serve-qec|serve-cached|qec-sweep>
//             --seed <n> --seconds <s> --trace <0|1>
// With --trace 0 the run measures the end-to-end metrics with no spans
// recorded; with --trace 1 it reports per-layer metrics from the spans
// and counters the library records into a sink the benchmark installs.
// The last line of standard output is one JSON object; the exit code is
// 1 when an output check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using namespace qcgen::perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

void print_result(const RunReport& report, bool trace) {
  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  for (const std::string& line : report.errors) {
    std::printf("CHECK FAILED: %s\n", line.c_str());
  }
  std::printf("fingerprint: %s\n", report.fingerprint.c_str());
  std::string metrics;
  for (const MetricSpec& spec : trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto found = report.values.find(spec.name);
    double value = found == report.values.end() ? 0.0 : found->second;
    if (!std::isfinite(value)) value = 1e12;  // a failed request's latency
    char entry[256];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += entry;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"fingerprint\": \"%s\", \"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      report.fingerprint.c_str(), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parse(argc, argv);
  RunReport report;
  try {
    if (options.workload == "eval-matrix") {
      report = run_eval_matrix(options);
    } else if (options.workload == "serve-qec") {
      report = run_serving(options, /*cached=*/false);
    } else if (options.workload == "serve-cached") {
      report = run_serving(options, /*cached=*/true);
    } else if (options.workload == "qec-sweep") {
      report = run_qec_sweep(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    report.fail(std::string("exception: ") + error.what());
  }
  if (!options.trace) report.set("peak_rss_mb", peak_rss_mb());
  if (report.attempted > 0) {
    report.set("ops_failed_share", static_cast<double>(report.failed) /
                                       static_cast<double>(report.attempted));
  }
  if (report.attempted == 0) report.fail("no operation was attempted");
  print_result(report, options.trace);
  return report.correct ? 0 : 1;
}
