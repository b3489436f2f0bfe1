// perfbench — the repository benchmark. See README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Prints notes (inputs, host facts, checks, traced-run tables) and, as the
// last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits 0 when the run completed, whether or not every op checked out;
// non-zero, without a result line, when it could not run at all.
#include <sched.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "calibration.h"
#include "harness.h"
#include "safeopt/expr/eval_backend.h"
#include "safeopt/support/build_info.h"
#include "safeopt/support/thread_pool.h"
#include "workloads.h"

namespace perfbench {

Phases run_phases(const RunOptions& options, Tracer& tracer,
                  std::uint64_t min_ops, std::uint64_t cycle, const OpFn& op) {
  Phases phases;
  phases.all = closed_loop(
      options.seconds, min_ops, 0,
      [&](std::uint64_t index, double& work, double& events) {
        tracer.set_enabled(traced_cycle(options, index, cycle));
        return op(index, work, events);
      });
  tracer.set_enabled(false);
  for (std::size_t i = 0; i < phases.all.op_ref_ms.size(); ++i) {
    (traced_cycle(options, i, cycle) ? phases.traced_ms : phases.untraced_ms)
        .push_back(phases.all.op_ref_ms[i]);
  }
  return phases;
}

void record_phases(Report& report, const RunOptions& options,
                   const Phases& phases, const SetupTime& setup,
                   const std::string& work_unit) {
  report.attempted = phases.all.attempted;
  report.failed = phases.all.failed;
  report.correct = report.correct && report.failed == 0;
  if (!options.trace) {
    end_to_end_metrics(report, phases.all, setup, work_unit);
  }
}

namespace {

int usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n"
               "workloads: corpus_quantify corpus_sampling design_optimize "
               "serve_mixed\n",
               error);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && stop == end;
}

/// Prints a number with every digit it has (%.17g round-trips a double).
void print_number(double value) {
  if (!std::isfinite(value)) {
    std::printf("null");
    return;
  }
  std::printf("%.17g", value);
}

std::size_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Pins the process, and every thread it starts later, to the CPU it runs
/// on. The host delivers about one core whatever the vCPU count, and the
/// shared ThreadPool sizes itself from the vCPU count: pinned, its workers
/// take turns on one CPU instead of racing for a core the host may or may
/// not grant, which made grid-search op times vary threefold. Returns the
/// CPU, or -1 when pinning failed (the run then goes on unpinned).
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, options.seed)) return usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!parse_u64(value, number) || number == 0 || number > 3600) {
        return usage("--seconds must be 1..3600");
      }
      options.seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace must be 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  // Timings from an unoptimized library are meaningless; refuse them.
  const safeopt::BuildInfo& build = safeopt::build_info();
  if (build.build_type != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 std::string(build.build_type).c_str());
    return 3;
  }

  const std::size_t cpus = allowed_cpus();
  const int pinned_cpu = pin_to_current_cpu();

  Report (*run)(const RunOptions&) = nullptr;
  if (options.workload == "corpus_quantify") run = run_corpus_quantify;
  if (options.workload == "corpus_sampling") run = run_corpus_sampling;
  if (options.workload == "design_optimize") run = run_design_optimize;
  if (options.workload == "serve_mixed") run = run_serve_mixed;
  if (run == nullptr) return usage("unknown workload");

  Report report;
  try {
    report = run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }

  // What moves the numbers, next to every result.
  std::printf("perfbench %s seed %llu, %g s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("build: %s\n", safeopt::build_info_string().c_str());
  std::printf("host: nproc %u (hardware_concurrency), %zu CPUs in affinity "
              "mask, run pinned to CPU %d\n",
              std::thread::hardware_concurrency(), cpus, pinned_cpu);
  std::printf("pools: ops on 1 thread; engines without a pool; "
              "ThreadPool::shared() (grid rounds of >= 256 rows) %zu "
              "threads sharing the pinned CPU; serve 2 workers\n",
              safeopt::ThreadPool::shared().thread_count());
  std::printf("calibration kernels:");
  for (const Kernel kernel : host_calibration().profile()) {
    std::printf(" %s", kernel_name(kernel));
  }
  std::printf(" (%zu bursts, mean factor %.4f)\n",
              host_calibration().bursts(), host_calibration().mean_factor());
  std::printf("expr backend picked by dispatch: %s\n",
              std::string(safeopt::expr::BackendRegistry::active().name())
                  .c_str());
  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  for (const Report::Row& row : report.metrics) {
    std::printf("  %-28s %16.6f %s\n", row.name.c_str(), row.value,
                row.unit.c_str());
  }

  // Every metric BENCHMARK.json declares for this mode must be present.
  if (options.trace) {
    for (const auto& [name, unit] : per_layer_metric_units()) {
      if (!report.has(name)) {
        std::fprintf(stderr, "perfbench: per-layer metric %s not measured\n",
                     name.c_str());
        return 1;
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const Report::Row& row : report.metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", row.name.c_str());
    print_number(row.value);
    std::printf(", \"unit\": \"%s\"}", row.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
