// The command paths the workloads time. Each function makes the same public
// calls, in the same order, as the CLI command it names (tools/
// safeopt_cli.cpp), with a span around every call into a layer.
#ifndef PERFBENCH_PATHS_H
#define PERFBENCH_PATHS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "safeopt/core/quantification_engine.h"
#include "safeopt/ftio/study_document.h"

namespace perfbench {

struct HazardOutcome {
  safeopt::core::QuantificationResult result;
  /// Basic events of the hazard's tree.
  std::size_t events = 0;
};

struct QuantifyOutcome {
  std::uint64_t hash = 0;
  std::vector<HazardOutcome> hazards;
};

/// A parsed document's first hazard: its tree, and its leaf probabilities
/// — the constants, or the leaf expressions at the box center. `model`
/// points into the document, which must outlive this.
struct FirstHazard {
  const safeopt::ftio::TreeModel* model = nullptr;
  safeopt::fta::QuantificationInput input;
};
[[nodiscard]] FirstHazard first_hazard(const safeopt::ftio::StudyDocument& doc);

/// P(top) of `hazard` by the registry engine `engine` under `config`.
[[nodiscard]] double probability_by(const FirstHazard& hazard,
                                    const std::string& engine,
                                    const safeopt::core::EngineConfig& config);

/// `safeopt quantify` on a constant (parameter-less) document:
/// parse_study → canonical_hash → leaf QuantificationInput →
/// create_engine_with_fallback → quantify, per hazard.
[[nodiscard]] QuantifyOutcome quantify_constant(const std::string& text,
                                                Tracer& tracer);

struct OptimizeOutcome {
  /// The `safeopt run --json` body: solver, optimum, evaluations, hazard
  /// probabilities at the optimum and cost, rendered exactly.
  std::string json;
  std::vector<std::pair<std::string, double>> optimum;
  double cost = 0.0;
  std::size_t evaluations = 0;
  std::size_t events = 0;
};

/// `safeopt run --json`: parse_study → Study::from_document → run() →
/// quantify every hazard at the optimum → render.
[[nodiscard]] OptimizeOutcome optimize(const std::string& text,
                                       Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_PATHS_H
