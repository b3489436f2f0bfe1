#include "probes.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "calibration.h"
#include "http_client.h"
#include "paths.h"
#include "safeopt/core/study.h"
#include "safeopt/expr/compiled.h"
#include "safeopt/fta/cut_sets.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/prep/preprocess.h"
#include "safeopt/serve/analysis_graph.h"
#include "safeopt/serve/server.h"
#include "safeopt/stats/estimators.h"

namespace perfbench {

namespace core = safeopt::core;
namespace fta = safeopt::fta;
namespace ftio = safeopt::ftio;

namespace {

/// Times `body` under a span named `name`; returns milliseconds.
template <typename Body>
double timed(Tracer& tracer, const char* name, Body&& body) {
  const Tracer::Scope span = tracer.span(name);
  const Clock::time_point start = Clock::now();
  body();
  return ms_between(start, Clock::now());
}

core::EngineConfig preprocessing_bdd(const ftio::StudyDocument& doc) {
  core::EngineConfig config = core::document_engine_selection(doc).second;
  config.preprocess = true;
  return config;
}

}  // namespace

bool wilson_contains(double probability, std::uint64_t trials, double exact) {
  safeopt::stats::ProportionEstimator proportion;
  proportion.add_batch(
      trials, static_cast<std::uint64_t>(
                  std::llround(probability * static_cast<double>(trials))));
  return proportion.wilson(1.0 - 1e-6).contains(exact);
}

namespace {
constexpr int kProbeBursts = 5;
}  // namespace

LayerProbe::LayerProbe(Tracer& tracer)
    : tracer_(tracer), first_burst_(host_calibration().bursts()) {
  for (int i = 0; i < kProbeBursts; ++i) host_calibration().burst();
}

void LayerProbe::add(const std::string& name, double value) {
  auto& [sum, count] = samples_[name];
  sum += value;
  count += 1;
}

void LayerProbe::fill(Report& report) {
  Calibration& calibration = host_calibration();
  for (int i = 0; i < kProbeBursts; ++i) calibration.burst();
  const double factor = calibration.factor_since(first_burst_);
  for (const auto& [name, sample] : samples_) {
    if (report.has(name)) continue;
    double value = sample.first / static_cast<double>(sample.second);
    const std::string unit = layer_unit(name);
    if (unit == "ms" || unit == "us" || unit == "ns") value *= factor;
    if (unit == "MB/s") value /= factor;
    set_layer(report, name, value);
  }
}

void LayerProbe::tree_layers(const std::string& text) {
  ftio::StudyDocument doc;
  const double parse_ms =
      timed(tracer_, "ftio.parse", [&] { doc = ftio::parse_study(text); });
  add("ftio.parse_ms", parse_ms);
  add("ftio.parse_mb_per_s",
      static_cast<double>(text.size()) / 1e6 / (parse_ms / 1000.0));
  std::uint64_t hash = 0;
  add("ftio.hash_ms",
      timed(tracer_, "ftio.hash", [&] { hash = ftio::canonical_hash(doc); }));
  if (hash == 0) fail("canonical hash is zero");

  FirstHazard hazard;
  add("fta.input_ms",
      timed(tracer_, "fta.input", [&] { hazard = first_hazard(doc); }));
  const fta::FaultTree& tree = hazard.model->tree;
  const core::EngineConfig config = preprocessing_bdd(doc);

  std::unique_ptr<core::QuantificationEngine> engine;
  add("core.engine_build_ms", timed(tracer_, "core.engine_build", [&] {
        engine = core::create_engine_with_fallback("bdd", tree, config);
      }));
  core::QuantificationResult via_engine;
  add("core.quantify_us", 1000.0 * timed(tracer_, "core.quantify", [&] {
                            via_engine = engine->quantify(hazard.input);
                          }));

  safeopt::prep::PreprocessOptions prep_options;
  prep_options.modularize = config.modularize;
  prep_options.module_min_leaves = config.module_min_leaves;
  safeopt::prep::PreprocessedTree preprocessed;
  add("prep.preprocess_ms", timed(tracer_, "prep.preprocess", [&] {
        preprocessed = safeopt::prep::preprocess(tree, prep_options);
      }));
  add("prep.modules", static_cast<double>(preprocessed.statistics.modules));
  add("prep.nodes_after",
      static_cast<double>(preprocessed.statistics.passes.empty()
                              ? preprocessed.statistics.gates_after
                              : preprocessed.statistics.passes.back()
                                    .nodes_after));

  std::unique_ptr<safeopt::prep::CompiledPreprocessedTree> compiled;
  add("bdd.compile_ms", timed(tracer_, "bdd.compile", [&] {
        compiled = std::make_unique<safeopt::prep::CompiledPreprocessedTree>(
            preprocessed, config.bdd_options());
      }));
  const safeopt::prep::ModularBddResult& bdd = compiled->compile_statistics();
  add("bdd.decision_nodes", static_cast<double>(bdd.decision_nodes));
  add("bdd.ite_calls", static_cast<double>(bdd.ite_calls));
  add("bdd.cache_hit_ratio",
      bdd.ite_calls == 0 ? 0.0
                         : static_cast<double>(bdd.cache_hits) /
                               static_cast<double>(bdd.ite_calls));
  double probability = 0.0;
  add("bdd.probability_us", 1000.0 * timed(tracer_, "bdd.probability", [&] {
                              probability = compiled->probability(hazard.input);
                            }));
  if (std::memcmp(&probability, &via_engine.probability, sizeof(double)) !=
      0) {
    fail("prep + CompiledPreprocessedTree differs from the bdd engine");
  }

  // MOCUS on a corpus top vote enumerates C(clusters, k) cut sets and does
  // not terminate; its modules are small, independent cut-set problems.
  constexpr std::size_t kWholeTreeMocusLimit = 64;
  std::size_t cut_sets = 0;
  add("fta.mcs_ms", timed(tracer_, "fta.mcs", [&] {
        if (tree.basic_event_count() <= kWholeTreeMocusLimit) {
          cut_sets = fta::minimal_cut_sets(tree).size();
          return;
        }
        for (std::size_t i = 0; i + 1 < preprocessed.subtrees.size(); ++i) {
          cut_sets +=
              fta::minimal_cut_sets(preprocessed.subtrees[i].tree).size();
        }
      }));
  add("fta.cut_sets", static_cast<double>(cut_sets));
}

void LayerProbe::sampling(const std::string& text, std::uint64_t trials) {
  const ftio::StudyDocument doc = ftio::parse_study(text);
  const FirstHazard hazard = first_hazard(doc);
  const double exact = probability_by(hazard, "bdd", preprocessing_bdd(doc));
  core::EngineConfig config;
  config.mc_trials = trials;
  auto engine = core::EngineRegistry::create("mc", hazard.model->tree, config);
  core::QuantificationResult result;
  const double ms = timed(tracer_, "mc.sample",
                          [&] { result = engine->quantify(hazard.input); });
  const double ns_per_trial = ms * 1e6 / static_cast<double>(result.trials);
  add("mc.ns_per_trial", ns_per_trial);
  add("mc.ns_per_trial_event",
      ns_per_trial /
          static_cast<double>(hazard.model->tree.basic_event_count()));
  if (!wilson_contains(result.probability, result.trials, exact)) {
    fail("mc estimate is inconsistent with the exact BDD value");
  }
}

void LayerProbe::adaptive(const std::string& text) {
  const ftio::StudyDocument doc = ftio::parse_study(text);
  const FirstHazard hazard = first_hazard(doc);
  const double exact = probability_by(hazard, "bdd", preprocessing_bdd(doc));
  core::EngineConfig config;
  config.target_halfwidth = 0.1;
  config.batch = 4096;
  config.mc_trials = 1u << 16;
  auto engine =
      core::EngineRegistry::create("mc_adaptive", hazard.model->tree, config);
  core::QuantificationResult result;
  (void)timed(tracer_, "mc.adaptive",
              [&] { result = engine->quantify(hazard.input); });
  add("mc.adaptive_trials", static_cast<double>(result.trials));
  add("mc.ess_ratio", result.ess.value_or(0.0) /
                          static_cast<double>(result.trials));
  if (std::fabs(result.probability - exact) >
      (5.0 / 1.96) * result.halfwidth()) {
    fail("mc_adaptive estimate is more than 5 half-widths from exact");
  }
}

void LayerProbe::study(const std::string& text) {
  const ftio::StudyDocument doc = ftio::parse_study(text);
  std::unique_ptr<core::Study> study;
  add("core.study_build_ms", timed(tracer_, "core.study_build", [&] {
        study = std::make_unique<core::Study>(core::Study::from_document(doc));
      }));

  const safeopt::expr::Expr cost = study->model().cost_expression();
  const std::vector<std::string> names = study->space().names();
  std::optional<safeopt::expr::CompiledExpr> tape;
  add("expr.compile_us", 1000.0 * timed(tracer_, "expr.compile", [&] {
                           tape.emplace(safeopt::expr::CompiledExpr::compile(
                               cost, names));
                         }));
  // A 64 x 64 grid over the parameter box (first two axes; the others at
  // their centers): the shape of a dense grid_search round.
  constexpr std::size_t kSide = 64;
  const std::size_t dim = names.size();
  std::vector<double> points(kSide * kSide * dim);
  for (std::size_t row = 0; row < kSide * kSide; ++row) {
    for (std::size_t d = 0; d < dim; ++d) {
      const auto& parameter = study->space()[d];
      const double step = d == 0   ? static_cast<double>(row / kSide)
                          : d == 1 ? static_cast<double>(row % kSide)
                                   : 0.5 * (kSide - 1);
      points[row * dim + d] =
          parameter.lower + (parameter.upper - parameter.lower) * step /
                                static_cast<double>(kSide - 1);
    }
  }
  std::vector<double> batch(kSide * kSide);
  const double batch_ms = timed(tracer_, "expr.batch", [&] {
    tape->evaluate_batch({.points = points, .values = batch});
  });
  std::vector<double> scalar(kSide * kSide);
  const double scalar_ms = timed(tracer_, "expr.scalar", [&] {
    for (std::size_t row = 0; row < scalar.size(); ++row) {
      scalar[row] = tape->evaluate(
          std::span<const double>(points.data() + row * dim, dim));
    }
  });
  add("expr.batch_ns_per_eval",
      batch_ms * 1e6 / static_cast<double>(batch.size()));
  add("expr.scalar_ns_per_eval",
      scalar_ms * 1e6 / static_cast<double>(scalar.size()));
  if (std::memcmp(batch.data(), scalar.data(), batch.size() * sizeof(double)) !=
      0) {
    fail("evaluate_batch differs from the scalar tape");
  }

  core::SafetyOptimizationResult result;
  add("opt.solve_ms",
      timed(tracer_, "opt.solve", [&] { result = study->run(); }));
  add("opt.evals_per_solve",
      static_cast<double>(result.optimization.evaluations));
}

void LayerProbe::serve(const std::string& text) {
  constexpr int kHits = 16;
  safeopt::serve::AnalysisOptions options;
  options.model = "probe";
  safeopt::serve::AnalysisGraph offline(std::size_t{64} << 20);
  std::string expected;
  std::vector<double> offline_hit_us;
  double offline_us = 0.0;
  for (int i = 0; i <= kHits; ++i) {
    const double us = 1000.0 * timed(tracer_, "serve.graph", [&] {
                        expected = offline.quantify(text, options, nullptr);
                      });
    offline_us += us;
    if (i > 0) offline_hit_us.push_back(us);
  }
  add("serve.graph_us", offline_us / (kHits + 1));

  safeopt::serve::ServerOptions server_options;
  server_options.threads = 1;
  safeopt::serve::Server server(server_options);
  server.start();
  const std::string body = request_body(text, options.model);
  std::vector<double> hit_us;
  for (int i = 0; i <= kHits; ++i) {
    HttpReply reply;
    const double us = 1000.0 * timed(tracer_, "serve.request", [&] {
                        reply = http_post(server.port(), "/v1/quantify", body);
                      });
    if (i > 0) hit_us.push_back(us);
    if (reply.status != 200 || reply.body != expected) {
      fail("served body differs from the offline AnalysisGraph render");
    }
  }
  server.stop();
  add("serve.http_overhead_us", median(hit_us) - median(offline_hit_us));
  const safeopt::serve::CacheStats cache = server.cache_stats();
  add("serve.hit_ratio",
      static_cast<double>(cache.hits) /
          static_cast<double>(cache.hits + cache.misses));
  add("serve.evictions", static_cast<double>(cache.evictions));
  add("serve.single_flight_waits",
      static_cast<double>(cache.single_flight_waits));
  add("serve.shed", static_cast<double>(server.stats().shed));
}

}  // namespace perfbench
