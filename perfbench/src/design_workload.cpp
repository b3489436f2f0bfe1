// design_optimize: the `safeopt run --json` path on the parameterized
// shipped models, one registry solver and seed per op.
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "calibration.h"
#include "inputs.h"
#include "paths.h"
#include "probes.h"
#include "safeopt/support/strings.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// `copies` ops of one registry solver on one shipped model, each with its
/// own seed.
struct Planned {
  const char* model;
  const char* solver;
  /// Solver options beyond the seed, as written in a `solver` statement.
  const char* options;
  std::size_t copies;
};

}  // namespace

Report run_design_optimize(const RunOptions& options) {
  host_calibration().set_profile(
      {Kernel::kMemory, Kernel::kScan, Kernel::kFloat});
  // Dense grid_search rounds go through the batch kernels; the iterative
  // solvers through the scalar tape. One cycle of 25 ops, by op time: 9
  // short iterative solves (Nelder–Mead, multi_start, differential
  // evolution, and the elbtunnel study as shipped), 7 simulated-annealing
  // solves of elbtunnel (a fixed 18001 evaluations whatever the seed), 4
  // middle ops, and 5 grid_search solves of the railroad crossing. The
  // annealing class spans the 36th to 64th percentile and the railroad grid
  // the top fifth, so p50 and p90 sit in the middle of one kind of op.
  constexpr const char* kGrid = " points_per_dimension = 201";
  constexpr const char* kMultiStart = " starts = 8 inner = nelder_mead";
  constexpr std::array<Planned, 14> kPlan = {{
      {"cooling_system", "nelder_mead", "", 1},
      {"railroad_crossing", "nelder_mead", "", 1},
      {"elbtunnel", "multi_start", kMultiStart, 1},
      {"cooling_system", "multi_start", kMultiStart, 1},
      {"railroad_crossing", "multi_start", kMultiStart, 1},
      {"elbtunnel", "differential_evolution", "", 1},
      {"cooling_system", "differential_evolution", "", 1},
      {"railroad_crossing", "differential_evolution", "", 1},
      {"elbtunnel", "simulated_annealing", "", 7},
      {"cooling_system", "grid_search", kGrid, 1},
      {"elbtunnel", "grid_search", kGrid, 1},
      {"cooling_system", "simulated_annealing", "", 1},
      {"railroad_crossing", "simulated_annealing", "", 1},
      {"railroad_crossing", "grid_search", kGrid, 5},
  }};

  struct Input {
    Document doc;
    /// The set-up run; every op must reproduce its `safeopt run --json`
    /// body byte for byte (optimum, cost, evaluations, probabilities).
    OptimizeOutcome outcome;
  };
  std::vector<Input> inputs;
  std::vector<std::string> problems;
  Tracer tracer(false, 0);
  const auto add_input = [&](std::string name, std::string text) {
    Input input;
    input.doc.name = std::move(name);
    input.doc.text = std::move(text);
    describe(input.doc);
    input.outcome = optimize(input.doc.text, tracer);
    inputs.push_back(std::move(input));
  };
  const SetupTime setup = timed_setup(kSetupRepeats, [&] {
    inputs.clear();
    problems.clear();
    // The shipped elbtunnel study as written (multi_start, its own seed):
    // the paper's optimum, T1 ≈ 18.89 and T2 ≈ 15.76 (ROADMAP).
    add_input("elbtunnel/document", shipped_model("elbtunnel"));
    const OptimizeOutcome paper = inputs.front().outcome;
    if (std::fabs(paper.optimum.at(0).second - 18.89) > 0.01 ||
        std::fabs(paper.optimum.at(1).second - 15.76) > 0.01) {
      char line[160];
      std::snprintf(line, sizeof(line), "optimum T1 = %.4f, T2 = %.4f",
                    paper.optimum.at(0).second, paper.optimum.at(1).second);
      problems.emplace_back(line);
    }
    std::uint64_t stream = 0;
    for (const Planned& planned : kPlan) {
      const std::string text = shipped_model(planned.model);
      for (std::size_t copy = 0; copy < planned.copies; ++copy) {
        const std::uint64_t seed = derive_seed(options.seed, stream++);
        add_input(safeopt::concat(planned.model, "/", planned.solver),
                  replace_statement(
                      text, "solver",
                      safeopt::concat("solver ", planned.solver, " seed = ",
                                      std::to_string(seed % 1000000),
                                      planned.options, ";")));
        // T1 is nearly flat around the optimum, so seeded solvers stop at
        // different T1; their cost must still be the paper's, to the 1e-5
        // an annealing schedule that ends at a fixed temperature reaches.
        const OptimizeOutcome& outcome = inputs.back().outcome;
        if (std::string(planned.model) == "elbtunnel" &&
            std::fabs(outcome.cost - paper.cost) > 1e-5 * paper.cost) {
          char line[160];
          std::snprintf(line, sizeof(line),
                        "%s seed %llu: cost %.10g, the document's %.10g",
                        inputs.back().doc.name.c_str(),
                        static_cast<unsigned long long>(seed % 1000000),
                        outcome.cost, paper.cost);
          problems.emplace_back(line);
        }
      }
    }
  });

  const OpFn op = [&](std::uint64_t index, double& work, double& events) {
    const Input& input = inputs[index % inputs.size()];
    tracer.begin_op(index);
    const Tracer::Scope span = tracer.span("op");
    const OptimizeOutcome outcome = optimize(input.doc.text, tracer);
    work += static_cast<double>(outcome.evaluations);
    events += static_cast<double>(outcome.events);
    return outcome.json == input.outcome.json;
  };
  const Phases phases = run_phases(options, tracer, 100, inputs.size(), op);

  Report report;
  {
    std::vector<Document> docs;
    for (const Input& input : inputs) docs.push_back(input.doc);
    note_inputs(report, docs);
  }
  for (const std::string& problem : problems) {
    report.note("elbtunnel optimum check failed: " + problem);
    report.correct = false;
  }
  record_phases(report, options, phases, setup,
                "objective evaluations (evals_per_s)");
  if (options.trace) {
    Tracer probe_tracer(true, 1);
    LayerProbe probe(probe_tracer);
    for (const char* model :
         {"elbtunnel", "cooling_system", "railroad_crossing"}) {
      const std::string text = shipped_model(model);
      probe.tree_layers(text);
      probe.study(text);
      probe.sampling(text, 20000);
      probe.adaptive(text);
    }
    probe.serve(inputs.front().doc.text);
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
