// perfbench_driver: runs one workload of the canonical benchmark and prints
// its result. Normally started by perfbench/run.py, which builds it first
// and attaches units and directions from BENCHMARK.json:
//
//   perfbench_driver --workload serve|scale_1m|paper_sweep --seed N
//                    --seconds S --trace 0|1 --scratch DIR
//                    [--tiny] [--inject bad_price] [--allow-debug]
//
// The last line of stdout is "RESULT <json>" with the operation counts,
// the output fingerprint and the measured metrics by name.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.h"

namespace {

using namespace perfbench;

int usage(const char* message) {
  std::cerr << "perfbench_driver: " << message
            << "\nusage: perfbench_driver --workload serve|scale_1m|paper_sweep "
               "--seed N --seconds S --trace 0|1 --scratch DIR [--tiny] "
               "[--inject bad_price] [--allow-debug]\n";
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Pins the process (and so every thread it starts later) to the first
/// kPinnedCpus CPUs of its affinity mask, so a run uses the same CPUs
/// from start to end and the same number of them on any machine. Returns
/// the pinned CPUs as a list ("0,1,2,3"), or "" if pinning failed.
constexpr int kPinnedCpus = 4;

std::string pin_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < kPinnedCpus; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    list += (n++ == 0 ? "" : ",") + std::to_string(cpu);
  }
  return sched_setaffinity(0, sizeof(pinned), &pinned) == 0 ? list : std::string();
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool allow_debug = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--allow-debug") {
      allow_debug = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--scratch" || arg == "--inject") {
      const char* v = value();
      if (v == nullptr) return usage(("missing value for " + arg).c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        options.workload = v;
      } else if (arg == "--scratch") {
        options.scratch_dir = v;
      } else if (arg == "--inject") {
        options.inject = v;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(v, &end, 10);
        have_seed = *v != '\0' && *end == '\0';
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(v, &end);
        have_seconds = *v != '\0' && *end == '\0' && options.seconds > 0;
      } else {
        const std::string t = v;
        have_trace = t == "0" || t == "1";
        options.trace = t == "1";
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.scratch_dir.empty()) {
    return usage("--seed, --seconds, --trace and --scratch are required");
  }
  if (!options.inject.empty() && options.inject != "bad_price") {
    return usage("--inject takes bad_price");
  }

  // The same rule bench/run_perf.sh applies: a build without NDEBUG is not
  // Release-like, and its timings are not comparable.
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
  if (!allow_debug) {
    std::cerr << "perfbench_driver: refusing to measure a build without NDEBUG "
                 "(not Release); rebuild as Release or pass --allow-debug\n";
    return 3;
  }
#endif
  (void)allow_debug;

  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);
  if (ec) {
    std::cerr << "perfbench_driver: cannot create " << options.scratch_dir << ": "
              << ec.message() << "\n";
    return 1;
  }

  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const int affinity_cpus =
      sched_getaffinity(0, sizeof(affinity), &affinity) == 0 ? CPU_COUNT(&affinity) : -1;
  const std::string pinned = pin_cpus();
  std::cout << "context: nproc=" << std::thread::hardware_concurrency()
            << " affinity_cpus=" << affinity_cpus
            << " pinned_cpus=" << (pinned.empty() ? "none" : pinned) << " compiler=\""
#if defined(__clang__)
            << "clang " << __clang_version__
#elif defined(__GNUC__)
            << "gcc " << __VERSION__
#else
            << "unknown"
#endif
            << "\" build_type=" << build_type << "\n";

  RunResult result;
  if (options.workload == "serve") {
    result = run_serve(options);
  } else if (options.workload == "scale_1m") {
    result = run_scale_1m(options);
  } else if (options.workload == "paper_sweep") {
    result = run_paper_sweep(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  for (const auto& note : result.notes) std::cout << note << "\n";
  for (const auto& failure : result.failures) std::cout << "FAILED: " << failure << "\n";
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(result.fingerprint));
  std::cout << "fingerprint: " << options.workload << " " << fp << "\n";

  // JSON has no NaN/inf; a metric that could not be measured is null and
  // run.py reports the run as incorrect.
  std::ostringstream line;
  line << "RESULT {\"workload\": \"" << json_escape(options.workload)
       << "\", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"fingerprint\": \"" << fp << "\", \"build_type\": \"" << build_type
       << "\", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : result.metrics) {
    line << sep << '"' << json_escape(name) << "\": " << (std::isfinite(value) ? number(value) : "null");
    sep = ", ";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}
