// The four workloads. Each builds its seeded inputs (timed as set-up),
// runs closed-loop ops for the requested time, checks every answer, and
// fills the report. See README.md for why each workload exists.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <functional>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

[[nodiscard]] Report run_corpus_quantify(const RunOptions& options);
[[nodiscard]] Report run_corpus_sampling(const RunOptions& options);
[[nodiscard]] Report run_design_optimize(const RunOptions& options);
[[nodiscard]] Report run_serve_mixed(const RunOptions& options);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// The ops of one run. A traced run records spans on every other cycle of
/// `cycle` ops (each cycle visits every input once), so the traced and
/// untraced op times compare like with like and give the tracing overhead
/// without drift between two halves of the run.
struct Phases {
  LoopResult all;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
};
[[nodiscard]] Phases run_phases(const RunOptions& options, Tracer& tracer,
                                std::uint64_t min_ops, std::uint64_t cycle,
                                const OpFn& op);

/// Whether op `index` of a traced run records spans.
[[nodiscard]] inline bool traced_cycle(const RunOptions& options,
                                       std::uint64_t index,
                                       std::uint64_t cycle) {
  return options.trace && (index / cycle) % 2 == 1;
}

/// Folds the loop result into the report: attempted/failed, and the
/// end-to-end rows for untraced runs.
void record_phases(Report& report, const RunOptions& options,
                   const Phases& phases, const SetupTime& setup,
                   const std::string& work_unit);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
