#include "paths.h"

#include <stdexcept>

#include "safeopt/core/study.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/serve/response_json.h"

namespace perfbench {

namespace core = safeopt::core;
namespace ftio = safeopt::ftio;

namespace {

ftio::StudyDocument parse(const std::string& text, Tracer& tracer) {
  const Tracer::Scope span = tracer.span("ftio.parse");
  return ftio::parse_study(text);
}

}  // namespace

FirstHazard first_hazard(const ftio::StudyDocument& doc) {
  safeopt::expr::ParameterAssignment center;
  for (const ftio::ParameterDecl& parameter : doc.parameters) {
    center.set(parameter.name, 0.5 * (parameter.lower + parameter.upper));
  }
  FirstHazard out;
  out.model = doc.find_tree(doc.hazards.front().tree);
  out.input =
      safeopt::fta::QuantificationInput::for_tree(out.model->tree, 0.0);
  for (const ftio::LeafProbability& leaf : out.model->leaves) {
    out.input.set(out.model->tree, leaf.name,
                  leaf.probability.evaluate(center));
  }
  return out;
}

double probability_by(const FirstHazard& hazard, const std::string& engine,
                      const core::EngineConfig& config) {
  return core::EngineRegistry::create(engine, hazard.model->tree, config)
      ->quantify(hazard.input)
      .probability;
}

QuantifyOutcome quantify_constant(const std::string& text, Tracer& tracer) {
  const ftio::StudyDocument doc = parse(text, tracer);
  QuantifyOutcome outcome;
  {
    const Tracer::Scope span = tracer.span("ftio.hash");
    outcome.hash = ftio::canonical_hash(doc);
  }
  if (!doc.parameters.empty()) {
    throw std::invalid_argument("expected a constant document");
  }
  const auto [engine_name, engine_config] =
      core::document_engine_selection(doc);
  for (const ftio::HazardDecl& hazard : doc.hazards) {
    const ftio::TreeModel* model = doc.find_tree(hazard.tree);
    safeopt::fta::QuantificationInput input;
    {
      const Tracer::Scope span = tracer.span("fta.input");
      input = safeopt::fta::QuantificationInput::for_tree(model->tree, 0.0);
      for (const ftio::LeafProbability& leaf : model->leaves) {
        input.set(model->tree, leaf.name, leaf.probability.evaluate({}));
      }
    }
    std::string degradation;
    std::unique_ptr<core::QuantificationEngine> engine;
    {
      const Tracer::Scope span = tracer.span("core.engine_build");
      engine = core::create_engine_with_fallback(engine_name, model->tree,
                                                 engine_config, &degradation);
    }
    HazardOutcome hazard_outcome;
    hazard_outcome.events = model->tree.basic_event_count();
    {
      const Tracer::Scope span = tracer.span("core.quantify");
      hazard_outcome.result = engine->quantify(input);
    }
    if (!degradation.empty()) {
      hazard_outcome.result.diagnostics.push_back(degradation);
    }
    outcome.hazards.push_back(std::move(hazard_outcome));
  }
  return outcome;
}

OptimizeOutcome optimize(const std::string& text, Tracer& tracer) {
  const ftio::StudyDocument doc = parse(text, tracer);
  const core::Study study = [&] {
    const Tracer::Scope span = tracer.span("core.study_build");
    return core::Study::from_document(doc);
  }();
  core::SafetyOptimizationResult result;
  {
    const Tracer::Scope span = tracer.span("opt.solve");
    result = study.run();
  }
  OptimizeOutcome outcome;
  safeopt::serve::HazardResults hazards;
  for (const ftio::HazardDecl& hazard : doc.hazards) {
    outcome.events += doc.find_tree(hazard.tree)->tree.basic_event_count();
    const Tracer::Scope span = tracer.span("core.quantify");
    hazards.emplace_back(
        hazard.tree, study.quantify(hazard.tree, result.optimal_parameters));
  }
  outcome.json = safeopt::serve::render_optimize_response(
      "model", study.solver_name(), study.engine_name(),
      result.optimization.converged, result.optimization.evaluations,
      result.optimal_parameters, hazards, result.cost);
  outcome.optimum = result.optimal_parameters.entries();
  outcome.cost = result.cost;
  outcome.evaluations = result.optimization.evaluations;
  return outcome;
}

}  // namespace perfbench
