// Layer probes for the traced run. Some layers run only inside another
// layer's call — prep and BDD compilation inside engine construction, the
// tape kernels inside the solver, the pass graph inside the server — so the
// traced run also calls each layer's own public entry point on the
// workload's documents, checks that the answer is identical to the one the
// command path gave, and times it. Probe values fill only the per-layer
// metrics the traced ops did not already measure.
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

class LayerProbe {
 public:
  /// Takes calibration bursts; fill() takes more and reports the probes'
  /// times at the reference speed of the bursts around them.
  explicit LayerProbe(Tracer& tracer);

  /// ftio parse/hash, leaf input assembly, a bdd+preprocess engine, and the
  /// inner layers it hides: prep::preprocess, prep::CompiledPreprocessedTree
  /// (BDD compile + probability, checked bitwise against the engine), and
  /// MOCUS — on the whole tree when it is small, else on every module the
  /// preprocessor extracts (MOCUS over a corpus top vote does not
  /// terminate).
  void tree_layers(const std::string& text);

  /// A fixed-trial "mc" estimate of the first hazard; its 1e-6-level Wilson
  /// interval must contain the exact BDD value.
  void sampling(const std::string& text, std::uint64_t trials);

  /// A crude "mc_adaptive" estimate of the first hazard, to 10% relative
  /// within 65536 trials; within 5 half-widths of the exact value.
  void adaptive(const std::string& text);

  /// Study::from_document, then the cost tape on its own: compile,
  /// evaluate_batch and the scalar evaluate over one grid of points
  /// (checked bitwise equal), then Study::run.
  void study(const std::string& text);

  /// A one-thread in-process server: one cold request and repeated hits
  /// of `text`, every body checked against an offline AnalysisGraph.
  void serve(const std::string& text);

  /// Adds one sample of a per-layer metric; fill() reports the mean.
  void add(const std::string& name, double value);

  /// Sets every sampled metric the report does not have yet.
  void fill(Report& report);

  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  void fail(const std::string& what) { failures_.push_back(what); }

  Tracer& tracer_;
  std::size_t first_burst_ = 0;
  std::map<std::string, std::pair<double, std::uint64_t>> samples_;
  std::vector<std::string> failures_;
};

/// True when `exact` lies in the Wilson score interval at confidence
/// 1 - 1e-6 around `occurrences` of `trials`. The engines report a 95%
/// interval, which by design misses the truth once in twenty estimates.
[[nodiscard]] bool wilson_contains(double probability, std::uint64_t trials,
                                   double exact);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H
