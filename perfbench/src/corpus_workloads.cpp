// corpus_quantify and corpus_sampling: constant corpus-shaped documents
// through the `safeopt quantify` path.
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "calibration.h"
#include "inputs.h"
#include "paths.h"
#include "probes.h"
#include "safeopt/core/study.h"
#include "safeopt/ftio/study_document.h"
#include "safeopt/support/strings.h"
#include "workloads.h"

namespace perfbench {

namespace core = safeopt::core;
namespace ftio = safeopt::ftio;

namespace {

struct Shape {
  std::size_t clusters;
  std::size_t cluster_leaves;
  std::uint32_t vote_k;
};

/// The probability of `doc`'s first hazard by `engine` under `config`.
double reference_probability(const Document& doc, const std::string& engine,
                             const core::EngineConfig& config) {
  const ftio::StudyDocument parsed = ftio::parse_study(doc.text);
  return probability_by(first_hazard(parsed), engine, config);
}

bool close_to(double value, double reference) {
  // Modularization re-associates the floating-point product, so the
  // preprocessed BDD agrees with the plain one to rounding, not bitwise.
  return std::fabs(value - reference) <= 1e-9 * std::fabs(reference);
}

}  // namespace

// ------------------------------------------------------------ quantify

Report run_corpus_quantify(const RunOptions& options) {
  host_calibration().set_profile({Kernel::kMemory, Kernel::kScan});
  // One op per tree per cycle over 25 seeded trees: 5 of 1k events, 15 of
  // 4k and 5 of 10k. The 4k class spans the 20th to 80th percentile and the
  // 10k class the top fifth, so p50 and p90 sit in the middle of a class of
  // several trees — never on the boundary between two sizes, and never on
  // one tree's structure. The top vote is the corpus tiers' clusters/2.
  struct Class {
    Shape shape;
    std::size_t trees;
  };
  constexpr std::array<Class, 3> kClasses = {{{{50, 20, 25}, 5},
                                              {{80, 50, 40}, 15},
                                              {{100, 100, 50}, 5}}};
  std::vector<Document> docs;
  std::string reference_note;
  Tracer tracer(false, 0);
  const SetupTime setup = timed_setup(kSetupRepeats, [&] {
    docs.clear();
    for (const Class& size : kClasses) {
      for (std::size_t t = 0; t < size.trees; ++t) {
        Document doc = corpus_document(
            size.shape.clusters, size.shape.cluster_leaves, size.shape.vote_k,
            derive_seed(options.seed, docs.size()),
            "engine bdd preprocess = true;");
        describe(doc);
        docs.push_back(std::move(doc));
      }
    }
    for (const Document& doc : docs) {
      (void)quantify_constant(doc.text, tracer);  // warm-up
    }
  });
  // The answers every op is checked against: the plain BDD, without the
  // preprocessing the documents select. Computed once, outside setup_s.
  std::vector<double> plain_bdd;
  {
    const Clock::time_point start = Clock::now();
    for (const Document& doc : docs) {
      core::EngineConfig plain;
      plain.preprocess = false;
      plain_bdd.push_back(reference_probability(doc, "bdd", plain));
    }
    reference_note = safeopt::concat(
        "plain-BDD references: ",
        std::to_string(ms_between(start, Clock::now()) / 1000.0), " s");
  }

  const OpFn op = [&](std::uint64_t index, double& work, double& events) {
    const std::size_t which = index % docs.size();
    tracer.begin_op(index);
    const Tracer::Scope span = tracer.span("op");
    const QuantifyOutcome outcome = quantify_constant(docs[which].text, tracer);
    const HazardOutcome& hazard = outcome.hazards.front();
    work += static_cast<double>(hazard.events);
    events += static_cast<double>(hazard.events);
    return outcome.hash == docs[which].hash &&
           hazard.result.diagnostics.empty() &&
           close_to(hazard.result.probability, plain_bdd[which]);
  };
  const Phases phases = run_phases(options, tracer, 100, docs.size(), op);

  Report report;
  note_inputs(report, docs);
  report.note(reference_note);
  record_phases(report, options, phases, setup,
                "basic events quantified (events_per_s)");
  if (options.trace) {
    Tracer probe_tracer(true, 1);
    LayerProbe probe(probe_tracer);
    // One tree of each size.
    for (std::size_t i = 0, first = 0; i < kClasses.size();
         first += kClasses[i].trees, ++i) {
      probe.tree_layers(docs[first].text);
    }
    probe.sampling(docs.front().text, 64);
    probe.adaptive(docs.front().text);
    probe.serve(docs.front().text);
    // No corpus document has a free parameter; the study, tape and solver
    // layers are probed on a shipped model the seed perturbs.
    probe.study(scale_first_hazard_cost(shipped_model("cooling_system"),
                                        unit_interval(options.seed, 0.5, 2.0)));
    finish_traced_run(report, options, phases.untraced_ms, phases.traced_ms,
                      {&tracer}, probe_tracer);
    probe.fill(report);
    for (const std::string& failure : probe.failures()) {
      report.note("probe check failed: " + failure);
      report.correct = false;
    }
  }
  return report;
}

// ------------------------------------------------------------ sampling

Report run_corpus_sampling(const RunOptions& options) {
  host_calibration().set_profile({Kernel::kScan});
  // One cycle of 20 fixed-trial mc estimates over 20 seeded trees, by op
  // time: 6 short (100 trials) and 10 long (400 trials) on 1k-event trees,
  // and 4 low-trial ones on 10k-event trees. The 400-trial class spans the
  // 30th to 80th percentile and the 10k class the top fifth, so p50 and
  // p90 sit in the middle of a class of several trees. Vote thresholds sit
  // well below clusters/2 so the exact top-event probability is >= 1e-3
  // and the estimate's interval can be checked.
  struct Class {
    Shape shape;
    std::uint64_t trials;
    std::size_t trees;
  };
  constexpr Shape kSmall = {50, 20, 12};
  constexpr Shape kLarge = {100, 100, 30};
  constexpr std::array<Class, 3> kClasses = {
      {{kSmall, 100, 6}, {kSmall, 400, 10}, {kLarge, 8, 4}}};

  std::vector<Document> docs;
  /// The exact top-event probability of each document (BDD with
  /// preprocessing).
  std::vector<double> exact;
  Tracer tracer(false, 0);
  const SetupTime setup = timed_setup(kSetupRepeats, [&] {
    docs.clear();
    exact.clear();
    for (const Class& size : kClasses) {
      for (std::size_t t = 0; t < size.trees; ++t) {
        const std::uint64_t seed = derive_seed(options.seed, docs.size());
        Document doc = corpus_document(
            size.shape.clusters, size.shape.cluster_leaves, size.shape.vote_k,
            seed,
            safeopt::concat("engine mc trials = ", std::to_string(size.trials),
                            " seed = ", std::to_string(seed % 1000000), ";"));
        describe(doc);
        core::EngineConfig config;
        config.preprocess = true;
        exact.push_back(reference_probability(doc, "bdd", config));
        docs.push_back(std::move(doc));
      }
    }
    for (const Document& doc : docs) {
      (void)quantify_constant(doc.text, tracer);  // warm-up
    }
  });

  // Per-trial cost of the traced ops.
  double mc_ms = 0.0;
  double mc_trials = 0.0;
  double mc_trial_events = 0.0;
  const OpFn op = [&](std::uint64_t index, double& work, double& events) {
    const std::size_t which = index % docs.size();
    tracer.begin_op(index);
    const Tracer::Scope span = tracer.span("op");
    const Clock::time_point start = Clock::now();
    const QuantifyOutcome outcome = quantify_constant(docs[which].text, tracer);
    const double ms = ms_between(start, Clock::now());
    const HazardOutcome& hazard = outcome.hazards.front();
    const double trials = static_cast<double>(hazard.result.trials);
    work += trials;
    events += static_cast<double>(hazard.events);
    if (tracer.enabled()) {
      mc_ms += ms;
      mc_trials += trials;
      mc_trial_events += trials * static_cast<double>(hazard.events);
    }
    return outcome.hash == docs[which].hash &&
           hazard.result.diagnostics.empty() && hazard.result.trials > 0 &&
           wilson_contains(hazard.result.probability, hazard.result.trials,
                           exact[which]);
  };
  const Phases phases = run_phases(options, tracer, 100, docs.size(), op);

  Report report;
  note_inputs(report, docs);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %-18s exact P = %.6e",
                  docs[i].name.c_str(), exact[i]);
    report.note(line);
  }
  record_phases(report, options, phases, setup,
                "Monte Carlo trials (trials_per_s)");
  if (options.trace) {
    if (mc_trials > 0.0) {
      const double ref_ms = mc_ms * host_calibration().mean_factor();
      set_layer(report, "mc.ns_per_trial", ref_ms * 1e6 / mc_trials);
      set_layer(report, "mc.ns_per_trial_event",
                ref_ms * 1e6 / mc_trial_events);
    }
    Tracer probe_tracer(true, 1);
    LayerProbe probe(probe_tracer);
    probe.tree_layers(docs.front().text);
    probe.adaptive(docs.front().text);
    probe.serve(docs.front().text);
    // No corpus document has a free parameter; the study, tape and solver
    // layers are probed on a shipped model the seed perturbs.
    probe.study(scale_first_hazard_cost(shipped_model("cooling_system"),
                                        unit_interval(options.seed, 0.5, 2.0)));
    finish_traced_run(report, options, phases.untraced_ms, phases.traced_ms,
                      {&tracer}, probe_tracer);
    probe.fill(report);
    for (const std::string& failure : probe.failures()) {
      report.note("probe check failed: " + failure);
      report.correct = false;
    }
  }
  return report;
}

}  // namespace perfbench
